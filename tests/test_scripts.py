"""The scripts run from any working directory."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
