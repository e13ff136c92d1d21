"""The benchmark's output checks reject wrong answers.

    python3 -m pytest bench/test_oracles.py

These import only bench/oracles.py, never the library.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402

FIG1 = {"n": 2, "roots": ["-1+2", "+1+2"]}  # the triangle |x1| <= x2 <= 1
FIG1_CLOSURE = ["+2", "-1+2", "+1+2"]


def _report(command, results, verification=None, schema=1):
    return json.dumps({"schema": schema, "command": command, "results": results,
                       "verification": verification or {}})


def test_catalog_sizes_by_pairwise_rule():
    assert [len(oracles.reiner_catalog(n)) for n in (1, 2, 3)] == [3, 33, 941]


def test_pairwise_rule_examples():
    table = oracles.pairwise_table(2)
    implied = table[frozenset(((-1, 1), (1, 1)))]
    assert implied == ((0, 1),)  # e2 = (-e1+e2)/2 + (e1+e2)/2
    assert table[frozenset(((1, 0), (0, 1)))] == ((1, 1),)


def test_hstar_check_accepts_the_right_answer():
    # [-1,1]^2: ehr(t) = (2t+1)^2, h* = 1 + 6z + z^2; fig1: h* = 1 + z.
    assert oracles.hstar_problems((1, 6, 1), [], 2, range(1, 3)) == []
    rows = [oracles.root_vector(t, 2) for t in FIG1["roots"]]
    assert oracles.hstar_problems((1, 1), rows, 2, range(1, 3)) == []


def test_hstar_check_rejects_a_moved_coefficient():
    assert oracles.hstar_problems((1, 1, 6), [], 2, range(1, 3))
    assert oracles.hstar_problems((2, 5, 1), [], 2, range(1, 3))
    rows = [oracles.root_vector(t, 2) for t in FIG1["roots"]]
    assert oracles.hstar_problems((1, 0, 1), rows, 2, range(1, 3))


def test_closure_check_rejects_a_missing_root():
    table = oracles.pairwise_table(2)
    assert oracles.closure_problems(FIG1_CLOSURE, FIG1["roots"], 2, table) == []
    assert oracles.closure_problems(["-1+2", "+1+2"], FIG1["roots"], 2, table)
    assert oracles.closure_problems(["+2", "-1+2"], FIG1["roots"], 2, table)


def test_closure_check_rejects_a_symmetric_set():
    table = oracles.pairwise_table(2)
    assert oracles.closure_problems(["+1", "-1"], ["+1"], 2, table)


def test_filter_check_rejects_off_by_one():
    # fig1's filters: (0,0), (0,1), (-1,1), (1,1).
    assert oracles.filter_problems(4, FIG1["roots"], 2) == []
    assert oracles.filter_problems(3, FIG1["roots"], 2)
    assert oracles.filter_problems(5, FIG1["roots"], 2)


def test_cli_check_rejects_wrong_envelopes():
    table = oracles.pairwise_table(2)
    good = _report("closure", {"closure": FIG1_CLOSURE}, {"closed": True})
    assert oracles.cli_problems("closure", 0, good, FIG1, table) == []
    assert oracles.cli_problems("closure", 1, good, FIG1, table)
    assert oracles.cli_problems("minrep", 0, good, FIG1, table)
    assert oracles.cli_problems("closure", 0, "digraph {}", FIG1, table)
    bad_schema = _report("closure", {"closure": FIG1_CLOSURE}, schema=2)
    assert oracles.cli_problems("closure", 0, bad_schema, FIG1, table)
    unverified = _report("closure", {"closure": FIG1_CLOSURE}, {"closed": False})
    assert oracles.cli_problems("closure", 0, unverified, FIG1, table)


def test_cli_check_runs_the_command_oracles():
    table = oracles.pairwise_table(2)
    hstar = _report("hstar", {"hstar": [1, 1]}, {"oracles_agree": True})
    assert oracles.cli_problems("hstar", 0, hstar, FIG1, table) == []
    moved = _report("hstar", {"hstar": [1, 0, 1]}, {"oracles_agree": True})
    assert oracles.cli_problems("hstar", 0, moved, FIG1, table)
    filters = _report("filters", {"filters": [[0, 0]] * 5, "count": 5})
    assert oracles.cli_problems("filters", 0, filters, FIG1, table)


def test_verify_report_check():
    rows = [oracles.root_vector(t, 2) for t in FIG1["roots"]]
    checks = [{"name": f"c{k}", "passed": True, "detail": {}} for k in range(12)]
    checks.append({"name": "hstar-oracles", "passed": True,
                   "detail": {"by_descents": [1, 1], "jh_size": 2}})
    report = {"passed": True, "checks": checks}
    assert oracles.verify_report_problems(report, rows, 2, range(1, 3)) == []
    wrong_size = {"passed": True, "checks": checks[:-1] + [
        {"name": "hstar-oracles", "passed": True, "detail": {"by_descents": [1, 1], "jh_size": 3}}]}
    assert oracles.verify_report_problems(wrong_size, rows, 2, range(1, 3))
    one_failed = {"passed": False, "checks": [dict(checks[0], passed=False)] + checks[1:]}
    assert oracles.verify_report_problems(one_failed, rows, 2, range(1, 3))
    assert oracles.verify_report_problems({"passed": True, "checks": checks[1:]}, rows, 2,
                                          range(1, 3))
