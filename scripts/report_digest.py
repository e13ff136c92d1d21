#!/usr/bin/env python3
"""SHA-256 digests of the verification reports of every signed poset, n = 1..3,
and of the 266 isomorphism-class representatives at n = 4.

Each report is `json.dumps(verify_poset(p).to_json_dict(), sort_keys=True)`
plus a newline, taken over `enumerate_signed_posets(n)` in order.  One line
per rank gives the count and the digest of that rank's reports, and the
`combined` line the digest of all of them together.  The last line is the
digest of the reports of `enumerate_signed_posets(4, up_to_iso=True,
force=True)`, kept out of `combined`.  Two trees with the same output give
byte-identical reports.  It takes no options; n = 3 takes about 4 s and the
n = 4 classes about 6 s.

    python3 scripts/report_digest.py
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from signedposets.catalog import enumerate_signed_posets
from signedposets.verify import verify_poset

RANKS = (1, 2, 3)


def report_bytes(reports) -> bytes:
    """The bytes that the digests hash: one sorted-key JSON line a report."""
    return "".join(
        json.dumps(report.to_json_dict(), sort_keys=True) + "\n" for report in reports
    ).encode()


def rank_digest(n: int, up_to_iso: bool = False) -> tuple[int, bytes]:
    """The number of posets on [n] (or of its classes) and the bytes of all
    their reports."""
    posets = enumerate_signed_posets(n, up_to_iso=up_to_iso, force=up_to_iso)
    return len(posets), report_bytes(map(verify_poset, posets))


def main() -> None:
    combined = hashlib.sha256()
    for n in RANKS:
        count, data = rank_digest(n)
        combined.update(data)
        print(f"n = {n}: {count} reports, sha256 {hashlib.sha256(data).hexdigest()}")
    print(f"combined: sha256 {combined.hexdigest()}")
    count, data = rank_digest(4, up_to_iso=True)
    print(f"n = 4 classes: {count} reports, sha256 {hashlib.sha256(data).hexdigest()}")


if __name__ == "__main__":
    main()
