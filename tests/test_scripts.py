"""The scripts run from any working directory, the report digests hold, and
the benchmark's tracer finds every function it wraps."""

import hashlib
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, *args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_census_runs_outside_the_repo(tmp_path):
    result = run_script("census.py", "--max-n", "2", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "signed posets          33" in result.stdout


def test_order_vs_chain_runs_outside_the_repo(tmp_path):
    result = run_script("order_vs_chain.py", "--n", "2", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("n = 2: 33 signed posets\n")


def test_report_digests_up_to_n2_are_pinned():
    # Any change to a verification report at n ≤ 2 changes these digests;
    # `scripts/report_digest.py` prints them, and n = 3's, in full.
    script = load(SCRIPTS / "report_digest.py")
    pinned = {
        1: (3, "ebdd88b2c5447880003d3e1b288eb7d3ea0d26fe74cd828fc134a3e1660ebfd1"),
        2: (33, "35cb27dcac0aec3b176ff26ba16016cdc853331d267b086f039019eb33d3ea1c"),
    }
    for n, expected in pinned.items():
        count, data = script.rank_digest(n)
        assert (count, hashlib.sha256(data).hexdigest()) == expected


def test_every_traced_function_resolves():
    # `bench/run.py --trace 1` wraps each of these by name and dies on one
    # that is gone, so a library change must keep them.
    tracing = load(BENCH / "tracing.py")
    names = [*tracing.SPANNED, *tracing.COUNTED, tuple(tracing.COUNT_POINTS.split("."))]
    assert {
        ("linalg", "solve_standard"),
        ("posets", "cone_contains"),
        ("geometry", "row_is_necessary"),
    } <= set(names)
    for module, function in names:
        assert callable(getattr(importlib.import_module(f"signedposets.{module}"), function))
