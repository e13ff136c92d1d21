"""The acceptance gate: one test per numbered criterion.

Most criteria quantify over every signed poset at n = 1, 2, 3, so a single
module-scoped sweep pushes all 977 posets through the cross-oracle
verification layer once and the tests read the tallies off the reports.
The sweep runs with the LP switched off, so every report is made without it,
and keeps its reports, whose digests are pinned.
The terminal section printed at the end (see conftest) gives the one-line
PASS/FAIL verdict per criterion.
"""

import hashlib
import importlib.util
import time
from pathlib import Path

import pytest

from signedposets import linalg, verify
from signedposets.catalog import enumerate_signed_posets
from signedposets.chains import chain_polytope
from signedposets.ehrhart import (
    count_points,
    ehrhart_polynomial,
    hstar_from_counts,
)
from signedposets.geometry import order_polytope, signed_filters, vertices
from signedposets.posets import from_generators, minimal_representation
from signedposets.roots import parse_root
from signedposets.verify import verify_catalog, verify_poset

EXPECTED_TOTALS = {1: 3, 2: 33, 3: 941}


def mk(n, tokens):
    return from_generators(n, [parse_root(t) for t in tokens])


def no_lp(*args):
    raise AssertionError("the sweep solved an LP")


@pytest.fixture(scope="module")
def swept():
    """The catalog reports at n = 1, 2, 3, and the poset reports they were
    made from, by poset tokens."""
    reports = {}

    def kept(p):
        reports[p.n, tuple(p.tokens())] = report = verify_poset(p)
        return report

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "solve_standard", no_lp)
        patch.setattr(verify, "verify_poset", kept)
        return {n: verify_catalog(n) for n in (1, 2, 3)}, reports


@pytest.fixture(scope="module")
def sweep(swept):
    return swept[0]


def all_pass(sweep, check):
    """True when `check` passed for every poset at every rank."""
    return all(
        sweep[n].check_passes.get(check, 0) == EXPECTED_TOTALS[n] for n in sweep
    )


def test_criterion_1_minimal_representation_figure(acceptance_detail):
    p = mk(2, ["-1+2", "+1+2"])
    generators = {parse_root("-1+2"), parse_root("+1+2")}
    assert parse_root("+2") in p.roots
    assert minimal_representation(p) == generators

    minimal_representation(p)  # warm any caches before timing
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        assert minimal_representation(p) == generators
        timings.append(time.perf_counter() - start)
    best = min(timings)
    assert best < 0.001, f"minrep took {best * 1000:.3f} ms"
    acceptance_detail(f"minrep exact, {best * 1000:.3f} ms")


def test_criterion_2_hstar_oracles_exhaustive(sweep, acceptance_detail):
    for n, report in sweep.items():
        assert report.poset_count == EXPECTED_TOTALS[n]
    assert all_pass(sweep, "hstar-oracles")
    assert sweep[3].elapsed_s < 600
    acceptance_detail(
        f"descents == counts on all 977 posets, n=3 sweep {sweep[3].elapsed_s:.1f}s"
    )


def test_criterion_3_irredundant_description(sweep, acceptance_detail):
    assert all_pass(sweep, "irredundant-description")
    acceptance_detail("pruned rows: same points t<=3, every row necessary")


def test_criterion_4_filters_and_vertices(sweep, acceptance_detail):
    assert all_pass(sweep, "filters-vertices")
    empty = mk(2, [])
    origin = (0, 0)
    assert origin in signed_filters(empty)
    assert origin not in vertices(empty)
    acceptance_detail("filters = t=1 points; hull check; origin not a vertex")


def test_criterion_5_gorenstein_triple(sweep, acceptance_detail):
    assert all_pass(sweep, "gorenstein-triple")
    acceptance_detail("graded <=> palindromic <=> counting index, k matches")


def test_criterion_6_unimodal_when_gorenstein(sweep, acceptance_detail):
    assert all_pass(sweep, "hstar-unimodal-when-gorenstein")
    acceptance_detail("palindromic h* always unimodal")


def test_criterion_7_chain_polytope(sweep, acceptance_detail):
    assert all_pass(sweep, "chain-polytope")
    acceptance_detail("antichains = points, reflexive rows, polynomial counts, 0 interior")


def test_criterion_8_order_chain_non_equivalence(acceptance_detail):
    p = mk(2, ["+2"])
    order = ehrhart_polynomial(order_polytope(p))
    chain = ehrhart_polynomial(chain_polytope(p))
    assert order == (1, 3, 2)
    assert chain == (1, 4, 4)
    assert count_points(order_polytope(p), 1, strict=True) == 0
    acceptance_detail("ehr(O) = 2t^2+3t+1 != 4t^2+4t+1 = ehr(C), O has no interior point")


def test_criterion_9_triangulation(sweep, acceptance_detail):
    assert all_pass(sweep, "triangulation")
    acceptance_detail("half-open cells partition t<=3, unimodular, sum h* = |JH|")


def test_criterion_10_isomorphism_invariance(sweep, acceptance_detail):
    report = sweep[2].extras["isomorphism_invariance"]
    assert report["group_order"] == 8
    assert report["posets"] == 33
    assert report["invariant"] is True
    acceptance_detail("h* and Gorenstein flag constant on all 8x33 actions")


def test_criterion_11_reciprocity(sweep, acceptance_detail):
    assert all_pass(sweep, "ehrhart-reciprocity")
    # chain polytopes get their reciprocity check inside chain-polytope
    assert all_pass(sweep, "chain-polytope")
    acceptance_detail("(-1)^n ehr(-t) = strict count, t = 1..n+1")


def test_criterion_12_known_values(acceptance_detail):
    assert hstar_from_counts(order_polytope(mk(2, []))) == (1, 6, 1)
    assert hstar_from_counts(order_polytope(mk(2, ["+1", "+2"]))) == (1, 1)
    assert hstar_from_counts(chain_polytope(mk(2, ["+1+2"]))) == (1, 4, 1)
    acceptance_detail("h*: cube 1+6z+z^2, positive quadrant 1+z, C_{e1+e2} 1+4z+z^2")


def test_the_sweeps_reports_have_the_pinned_digests(swept):
    # The reports that `scripts/report_digest.py` hashes, taken from the
    # sweep above in that script's order: n = 3's digest, and all three ranks'.
    _, reports = swept
    path = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    data = {
        n: script.report_bytes(
            reports[n, tuple(p.tokens())] for p in enumerate_signed_posets(n)
        )
        for n in (1, 2, 3)
    }
    assert hashlib.sha256(data[3]).hexdigest() == (
        "07e173b95278cc9d5bd4d87abcc8450ecd0815e73784ba8b2b201af0b1db1130"
    )
    assert hashlib.sha256(data[1] + data[2] + data[3]).hexdigest() == (
        "c4322e00c62ebbaaa0aca25ad88e88f0de1fa1866c49fbcc4c1ed21866ed2c11"
    )
