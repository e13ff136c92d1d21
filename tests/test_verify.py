"""The cross-oracle verification layer itself."""

import re
from fractions import Fraction

import pytest

import reference_kernels
from signedposets import halfspaces, jordan, linalg, verify
from signedposets.catalog import iter_signed_posets
from signedposets.ehrhart import count_points
from signedposets.geometry import order_polytope_irredundant
from signedposets.gorenstein import is_gorenstein
from signedposets.halfspaces import Halfspace, HalfspaceSystem
from signedposets.jordan import (
    DescentData,
    hstar_by_descents,
    jordan_holder,
    naturalize,
    owner_table,
)
from signedposets.perms import SignedPermutation, act_poset, enumerate_signed_permutations
from signedposets.posets import SignedPoset, from_generators, root_kernel
from signedposets.roots import parse_root
from signedposets.verify import (
    ALL_CHECKS,
    isomorphism_invariance_report,
    subchain_sufficiency_witness,
    verify_catalog,
    verify_poset,
)


def mk(n, tokens):
    return from_generators(n, [parse_root(t) for t in tokens])


def test_check_names():
    assert [name for name, _ in ALL_CHECKS] == [
        "minimal-representation",
        "jordan-holder",
        "interior-point",
        "hstar-oracles",
        "ehrhart-reciprocity",
        "filters-vertices",
        "irredundant-description",
        "triangulation",
        "gorenstein-triple",
        "hstar-unimodal-when-gorenstein",
        "fischer-halfspaces",
        "chain-polytope",
        "homogenization",
    ]


def test_verify_poset_all_checks_pass():
    report = verify_poset(mk(2, ["-1+2", "+1+2"]))
    assert report.passed
    assert report.failures() == []
    assert len(report.checks) == len(ALL_CHECKS)
    doc = report.to_json_dict()
    assert doc["passed"] is True
    assert doc["roots"] == ["-1+2", "+1+2", "+2"]
    assert {c["name"] for c in doc["checks"]} == {name for name, _ in ALL_CHECKS}
    assert all(isinstance(c["detail"], dict) for c in doc["checks"])


def test_verify_catalog_n1():
    report = verify_catalog(1)
    assert report.passed
    assert report.poset_count == 3
    assert set(report.check_passes) == {name for name, _ in ALL_CHECKS}
    assert all(v == 3 for v in report.check_passes.values())
    doc = report.to_json_dict()
    assert doc["posets"] == 3 and doc["failures"] == []


def test_hstar_and_gorenstein_are_invariant_under_the_generators_at_n3():
    # the swaps of 1, 2 and of 2, 3 and the sign change of 1 generate S_3^B
    # (test_perms), so a class representative speaks for its whole orbit
    generators = [SignedPermutation(w) for w in ((2, 1, 3), (1, 3, 2), (-1, 2, 3))]
    posets = list(iter_signed_posets(3))
    assert len(posets) == 941
    failures = []
    for p in posets:
        base = (hstar_by_descents(p), is_gorenstein(p))
        for omega in generators:
            q = act_poset(omega, p)
            if (hstar_by_descents(q), is_gorenstein(q)) != base:
                failures.append((p.tokens(), omega.images))
    assert failures == []


def test_isomorphism_invariance_report():
    report = isomorphism_invariance_report(1)
    assert report == {
        "n": 1,
        "group_order": 2,
        "posets": 3,
        "invariant": True,
        "failures": [],
    }


def test_subchain_witness_found_at_rank_3():
    witness = subchain_sufficiency_witness(3)
    assert witness is not None
    assert witness["poset"] == ["+1-2", "+1-3", "+2-3"]
    assert witness["chain"] == {"C": [1, 2], "S": [1], "witness": ["+1-2"]}
    assert witness["row"] == [1, 1, 0]
    assert witness["kept_rows"] == 10


def test_verify_reports_exceptions_as_failures():
    # a deliberately un-closed poset trips the Fischer cycle detector inside
    # one of the checks and must surface as a failed CheckResult, not a crash
    from signedposets.posets import SignedPoset

    bad = SignedPoset(
        3,
        frozenset(
            {parse_root("-1+2"), parse_root("-2+3"), parse_root("+1-3")}
        ),
    )
    report = verify_poset(bad)
    assert not report.passed
    names = {c.name for c in report.failures()}
    assert "gorenstein-triple" in names or "fischer-halfspaces" in names


def test_check_that_raises_becomes_a_failed_check(monkeypatch):
    def broken(p):
        raise ValueError("viewpoint is not generic")

    checks = list(ALL_CHECKS)
    checks[7] = ("triangulation", broken)
    monkeypatch.setattr(verify, "ALL_CHECKS", tuple(checks))
    report = verify.verify_poset(mk(2, ["-1+2", "+1+2"]))
    assert not report.passed
    assert [c.name for c in report.failures()] == ["triangulation"]
    detail = report.to_json_dict()["checks"][7]["detail"]
    assert detail == {"exception": "ValueError", "message": "viewpoint is not generic"}


def test_verify_catalog_logs_progress():
    lines = []
    report = verify_catalog(2, log=lines.append)
    assert report.poset_count == 33
    # fewer than 100 posets: only the closing line
    assert len(lines) == 1
    assert re.fullmatch(r"verified 33/33 posets on \[2\] \(\d+\.\d/s, ETA 0 s\)", lines[0])


def test_chain_polytope_check_rejects_a_rational_polytope_with_reflexive_rows(monkeypatch):
    # Every row is primitive with b = −1, but (−1/3, −1/3) is a vertex.  The
    # old test, strict(t + 1) = weak(t), holds for any such rows and passed.
    # x ≥ −1 and y ≥ −1 give the count a box; they cut nothing, as min x =
    # min y = −1 there.
    rows = ((-1, 0), (0, -1), (1, 2), (2, 1), (1, 0), (0, 1))
    system = HalfspaceSystem(2, tuple(Halfspace(a, -1) for a in rows))
    monkeypatch.setattr(verify, "chain_polytope", lambda p: system)
    check = verify.check_chain_polytope(mk(2, []))
    assert check.detail["reflexive_rows"] and not check.detail["polynomial_counts"]
    assert not check.passed
    assert all(
        count_points(system, t + 1, strict=True) == count_points(system, t) for t in range(4)
    )


def test_reports_share_one_layout_and_rebuild_their_checks():
    p, q = mk(2, ["+1"]), mk(2, ["+2"])
    first, second = verify_poset(p), verify_poset(q)
    assert first.layout is second.layout
    again = verify_poset(p)
    assert first.tokens[0] is again.tokens[0]
    # List details are stored as shared tuples, and `checks` makes them lists.
    frozen = [k for k, v in enumerate(first.values) if type(v) is tuple]
    assert frozen and all(again.values[k] is first.values[k] for k in frozen)
    assert first.checks == tuple(check(p) for _, check in ALL_CHECKS)
    assert first.failures() == [] and first.passed


@pytest.mark.parametrize(
    "tokens, label",
    [
        # 1 ∈ pmax, so irr keeps x_1 ≤ 1; without it no row derives that
        # side of the cube.
        ([], "cube-upper(1)"),
        # Without x_2 ≤ 0 it stays in the cube, but counts more points.
        (["+1-2", "-2"], "root -2"),
    ],
)
def test_irredundant_check_fails_without_a_needed_row(monkeypatch, tokens, label):
    p = mk(2, tokens)
    assert verify.check_irredundant_description(p).passed
    rows = order_polytope_irredundant(p).rows
    pruned = HalfspaceSystem(2, tuple(row for row in rows if row.label != label))
    assert len(pruned.rows) == len(rows) - 1
    monkeypatch.setattr(verify, "order_polytope_irredundant", lambda q: pruned)
    check = verify.check_irredundant_description(p)
    assert not check.passed and "exception" not in check.detail


@pytest.mark.parametrize(
    "rows, derived",
    [
        ([((-1,), 0)], {(0, -1)}),  # x ≤ 0 gives x ≤ 1
        ([((-1, 1), 0), ((0, -1), -1)], {(0, -1), (1, -1)}),  # x ≤ y, y ≤ 1 give x ≤ 1
        ([((-1, -1), 0), ((0, 1), -1)], {(0, -1), (1, 1)}),  # x ≤ −y, y ≥ −1 give x ≤ 1
        ([((-1,), -2)], set()),  # x ≤ 2 gives nothing
    ],
    ids=["x<=0", "x<=y<=1", "x<=-y<=1", "x<=2"],
)
def test_cube_bounds_are_derived_from_unit_rows(rows, derived):
    system = HalfspaceSystem(len(rows[0][0]), tuple(Halfspace(a, b) for a, b in rows))
    assert verify.derived_bounds(system) == derived


FIG1 = ["-1+2", "+1+2"]


def _irr_with_a_duplicated_row(monkeypatch, irr):
    doubled = HalfspaceSystem(2, irr.rows + irr.rows[:1])
    assert verify.necessity_witness(doubled, 0) is None
    monkeypatch.setattr(verify, "order_polytope_irredundant", lambda q: doubled)


def _witness_of_another_row(monkeypatch, irr):
    # it satisfies every row but the other one, its own row included
    found = verify.necessity_witness
    monkeypatch.setattr(
        verify, "necessity_witness", lambda system, i: found(system, (i + 1) % len(system.rows))
    )


@pytest.mark.parametrize("mutate", [_irr_with_a_duplicated_row, _witness_of_another_row])
def test_irredundant_check_fails_on_a_bad_witness(monkeypatch, mutate):
    # A missing cube bound is test_irredundant_check_fails_without_a_needed_row.
    p = mk(2, FIG1)
    assert verify.check_irredundant_description(p).passed
    mutate(monkeypatch, order_polytope_irredundant(p))
    check = verify.check_irredundant_description(p)
    assert not check.passed and "exception" not in check.detail


def _no_lp(*args):
    raise AssertionError("solved an LP")


@pytest.mark.parametrize(
    "n, witness",
    [
        (3, {
            "poset": ["+1-2", "+1-3", "+2-3"],
            "chain": {"C": [1, 2], "S": [1], "witness": ["+1-2"]},
            "row": [1, 1, 0],
            "kept_rows": 10,
        }),
        (4, {
            "poset": ["+2-3", "+2-4", "+3-4"],
            "chain": {"C": [2, 3], "S": [1], "witness": ["+2-3"]},
            "row": [0, 1, 1, 0],
            "kept_rows": 12,
        }),
    ],
    ids=["n3", "n4"],
)
def test_subchain_witness_is_found_without_the_lp(monkeypatch, n, witness):
    monkeypatch.setattr(linalg, "solve_standard", _no_lp)
    assert subchain_sufficiency_witness(n, force=True) == witness


@pytest.mark.parametrize(
    "roots, m, failing",
    [
        (FIG1, FIG1, "closed"),  # +2 = ½(−1+2) + ½(+1+2) is missing from P
        (FIG1 + ["+2"], FIG1 + ["+2"], "irredundant"),
        (FIG1 + ["+2"], ["-1+2"], "derives"),
    ],
)
def test_minimal_representation_check_fails_on_each_kind_of_certificate(
    monkeypatch, roots, m, failing
):
    assert verify.check_minimal_representation(mk(2, FIG1)).passed
    p = SignedPoset(2, frozenset(parse_root(t) for t in roots))
    m = frozenset(parse_root(t) for t in m)
    monkeypatch.setattr(verify, "minimal_representation", lambda q: m)
    check = verify.check_minimal_representation(p)
    assert not check.passed and "exception" not in check.detail
    assert not reference_kernels.minimal_representation_by_lp(p).passed
    kernel = root_kernel(2)
    certificates = {
        "closed": verify.closed_by_filters(p),
        "irredundant": all(
            verify._separated(kernel.mask(m - {alpha}), 2) >> kernel.index[alpha] & 1
            for alpha in m
        ),
        "derives": verify.derives(m, p),
    }
    assert [name for name, ok in certificates.items() if not ok] == [failing]


def _failed_with_counterexample(check):
    assert not check.passed
    assert "exception" not in check.detail
    return check.detail["counterexample"]


def test_triangulation_check_fails_when_jh_loses_a_window(monkeypatch):
    monkeypatch.setattr(verify, "jordan_holder", lambda q: jordan_holder(q)[1:])
    bad = _failed_with_counterexample(verify.check_triangulation(mk(2, FIG1)))
    # a point of O_P whose cell was dropped
    assert bad["in_polytope"] is True


def test_triangulation_check_fails_when_jh_gains_a_cell_outside_the_polytope(monkeypatch):
    _, image = naturalize(mk(2, FIG1))
    jh = jordan_holder(image)
    stranger = next(s for s in enumerate_signed_permutations(2) if s not in jh)

    def gained(q):
        return jordan_holder(q) + [stranger]

    monkeypatch.setattr(verify, "jordan_holder", gained)
    bad = _failed_with_counterexample(verify.check_triangulation(mk(2, FIG1)))
    assert bad["in_polytope"] is False
    assert bad["owner"] == list(stranger.inverse().images)
    # The cell scan tests only the points of O_P, so it misses this one.
    monkeypatch.setattr(reference_kernels, "jordan_holder", gained)
    assert reference_kernels.triangulation_by_cell_scan(mk(2, FIG1)).passed


def test_triangulation_check_sees_the_all_negative_window_at_n4(monkeypatch):
    # The cell of window (−1, −2, −3, −4) has four strict facets, so it holds
    # no lattice point below t = 4; a JH set that wrongly names it is caught
    # only at t = 4.
    p = mk(4, ["+1"])
    _, image = naturalize(p)
    stranger = SignedPermutation((-1, -2, -3, -4))
    assert stranger not in jordan_holder(image) and stranger.inverse() == stranger
    monkeypatch.setattr(verify, "jordan_holder", lambda q: jordan_holder(q) + [stranger])
    bad = _failed_with_counterexample(verify.check_triangulation(p))
    corner = [-1, -2, -3, -4]
    assert bad == {"t": 4, "x": corner, "owner": corner, "in_polytope": False}


def test_triangulation_by_mask_names_the_owner_scans_counterexample(monkeypatch):
    # The three JH mutations above: the mask check and the point-by-point
    # reference fail with the same counterexample.
    fig1 = mk(2, FIG1)
    jh = jordan_holder(naturalize(fig1)[1])
    stranger = next(s for s in enumerate_signed_permutations(2) if s not in jh)
    corner = SignedPermutation((-1, -2, -3, -4))
    for p, mutated in [
        (fig1, lambda q: jordan_holder(q)[1:]),
        (fig1, lambda q: jordan_holder(q) + [stranger]),
        (mk(4, ["+1"]), lambda q: jordan_holder(q) + [corner]),
    ]:
        monkeypatch.setattr(verify, "jordan_holder", mutated)
        check = verify.check_triangulation(p)
        _failed_with_counterexample(check)
        assert check == reference_kernels.triangulation_by_owner_scan(p)


def test_triangulation_check_fails_when_a_row_mask_drops_a_bit(monkeypatch):
    # Each row loses its lowest point; fig1's row +1+2 loses (−1, 1), a
    # point of O_P, so a JH cell holds a point that the polytope's mask lacks.
    row_mask = halfspaces.row_mask

    def dropped(n, r, a, c):
        mask = row_mask(n, r, a, c)
        return mask & (mask - 1)

    monkeypatch.setattr(halfspaces, "row_mask", dropped)
    bad = _failed_with_counterexample(verify.check_triangulation(mk(2, FIG1)))
    assert bad["in_polytope"] is False


@pytest.fixture
def fresh_owner_tables():
    owner_table.cache_clear()
    yield
    owner_table.cache_clear()


def test_triangulation_check_fails_when_the_half_opening_rule_breaks(
    monkeypatch, fresh_owner_tables
):
    # Without position 0, a cell with ε_1 = −1 keeps its facet ε_1x_{π_1} = 0,
    # which the cell with ε_1 = +1 keeps too.
    natdes = jordan.natdes
    monkeypatch.setattr(
        jordan, "natdes", lambda sigma: DescentData(natdes(sigma).natdes_set - {0})
    )
    for n in (1, 2, 3):
        assert owner_table(n, 1).counterexample is not None
        bad = _failed_with_counterexample(verify.check_triangulation(mk(n, [])))
        assert set(bad) == {"t", "x", "window"} and bad["t"] == 1


def test_interior_point_check_fails_on_a_word_outside_jh(monkeypatch):
    # A word outside JH(P) is negative on some root of P, so ω/(n+1) is not
    # strictly inside O_P: interior_point's own postcondition raises, and the
    # check, handed that point unguarded, fails on it.
    p = mk(2, FIG1)
    stranger = next(s for s in enumerate_signed_permutations(2) if s not in jordan_holder(p))
    monkeypatch.setattr(jordan, "jh_representative", lambda q: stranger)
    (check,) = [c for c in verify_poset(p).checks if c.name == "interior-point"]
    assert not check.passed and check.detail["exception"] == "InternalInconsistency"

    scaled = tuple(Fraction(v, 3) for v in stranger.images)
    monkeypatch.setattr(verify, "interior_point", lambda q: scaled)
    check = verify.check_interior_point(p)
    assert not check.passed and check.detail == {"q": [str(c) for c in scaled]}
