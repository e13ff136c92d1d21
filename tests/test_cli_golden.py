"""Golden transcript of the CLI on fig1, `verify --n 2` and `enumerate --n 2`.

Every command's exit code, stdout and stderr is compared byte for byte with
tests/golden/cli_fig1.txt after replacing what changes from run to run:
`timing_ms`, `elapsed_s`, the temporary directory, and the rate/ETA and
millisecond parts of the progress lines.  To regenerate the fixture after an
intended change of output, run this file as a script from the repository
root (`PYTHONPATH=src python tests/test_cli_golden.py`) and review the diff.
"""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

from signedposets import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_fig1.txt"
FIG1 = "name = fig1\nn = 2\nroots: -1+2 +1+2\n"

FILE_COMMANDS = [
    ["validate"], ["closure"], ["minrep"], ["hdesc"], ["filters"], ["vertices"],
    ["jh"], ["hstar"], ["ehrhart", "--t", "4"], ["gorenstein"],
    ["fischer", "--dot", "{tmp}/fischer.dot"], ["chain-polytope"], ["antichains"],
    ["compare"], ["export-dot", "--dot", "{tmp}/graph.dot"], ["export-dot"], ["verify"],
]
CATALOG_COMMANDS = [["verify", "--n", "2"], ["enumerate", "--n", "2"]]

_VOLATILE = [
    (re.compile(r'"timing_ms": ?\d+'), '"timing_ms":"<ms>"'),
    (re.compile(r'"elapsed_s": ?[\d.]+'), '"elapsed_s":"<s>"'),
    (re.compile(r"^(verified \d+/\d+ posets on \[\d+\]) \(.*\)$", re.M), r"\1 (<rate>)"),
    (re.compile(r"^(\d+ signed posets on \[\d+\]) \(\d+ ms\)$", re.M), r"\1 (<ms>)"),
]


def normalise(text: str, tmp: str) -> str:
    text = text.replace(tmp, "<tmp>")
    for pattern, replacement in _VOLATILE:
        text = pattern.sub(replacement, text)
    return text


def transcript(tmp: str) -> str:
    """Run every golden command in process and record what it printed."""
    fig1 = Path(tmp) / "fig1.poset"
    fig1.write_text(FIG1, encoding="utf-8")
    argvs = [[c[0], str(fig1), *(a.format(tmp=tmp) for a in c[1:])] for c in FILE_COMMANDS]
    parts = []
    for argv in argvs + CATALOG_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        parts.append(f"$ signedposets {' '.join(argv)}\nexit {code}\n"
                     f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
        if "--dot" in argv:
            written = Path(argv[argv.index("--dot") + 1]).read_text(encoding="utf-8")
            parts.append(f"--- {Path(argv[-1]).name}\n{written}")
    return normalise("".join(parts), tmp)


def test_cli_transcript_matches_golden(tmp_path):
    assert transcript(str(tmp_path)) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(transcript(tmp), encoding="utf-8")
    sys.exit(0)
