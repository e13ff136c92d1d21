#!/usr/bin/env python3
"""Census of signed posets at small rank.

Enumerates every signed poset on [n], tallies sizes, isomorphism classes,
natural labelings, and Gorenstein order polytopes, and prints one table per
rank.  n = 3 takes about a second.

    python3 scripts/census.py --max-n 2
    python3 scripts/census.py --max-n 3 --json out.json
"""

import argparse
import json
import sys
import time
from collections import Counter

sys.path.insert(0, "src")

from signedposets.catalog import census, iter_signed_posets, naturally_labeled_count
from signedposets.gorenstein import is_gorenstein
from signedposets.jordan import jordan_holder


def census_rank(n: int, force: bool, gorenstein: bool) -> dict:
    """`catalog.census(n)` plus natural labelings, Gorenstein count (None when
    skipped) and the |JH| histogram."""
    start = time.monotonic()
    table = census(n, force=force)
    jh_sizes: Counter = Counter()
    hits = 0 if gorenstein else None
    for p in iter_signed_posets(n, force=force):
        jh_sizes[len(jordan_holder(p))] += 1
        if gorenstein and is_gorenstein(p):
            hits += 1
    table["naturally_labeled"] = naturally_labeled_count(n, force=force)
    table["gorenstein"] = hits
    table["jh_size_histogram"] = {str(k): v for k, v in sorted(jh_sizes.items())}
    table["elapsed_s"] = round(time.monotonic() - start, 2)
    return table


def print_rank(c: dict) -> None:
    print(f"\nn = {c['n']}  ({c['elapsed_s']:.1f}s)")
    print(f"  signed posets          {c['total']}")
    print(f"  isomorphism classes    {c['isomorphism_classes']}")
    print(f"  naturally labeled      {c['naturally_labeled']}")
    gorenstein = "skipped" if c["gorenstein"] is None else c["gorenstein"]
    print(f"  Gorenstein O_P         {gorenstein}")
    sizes = "  ".join(f"{k}:{v}" for k, v in c["by_size"].items())
    print(f"  posets by |P|          {sizes}")
    jh = "  ".join(f"{k}:{v}" for k, v in c["jh_size_histogram"].items())
    print(f"  posets by |JH|         {jh}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=2)
    parser.add_argument("--force", action="store_true", help="allow n >= 4")
    parser.add_argument("--no-gorenstein", action="store_true",
                        help="skip the Gorenstein column")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="also dump the tables to this JSON file")
    args = parser.parse_args()

    tables = []
    for n in range(1, args.max_n + 1):
        c = census_rank(n, args.force, not args.no_gorenstein)
        print_rank(c)
        tables.append(c)

    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump({"schema": 1, "census": tables}, handle, indent=2)
        print(f"\nwrote {args.json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
