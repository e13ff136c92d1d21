"""Fischer representation, gradedness, and the Gorenstein triple check."""

import pytest

from reference_kernels import graded_by_chains, maximal_chains
from signedposets.catalog import iter_signed_posets
from signedposets.ehrhart import count_points, hstar_from_counts, integer_box, is_palindromic
from signedposets.errors import CycleDetected
from signedposets.geometry import order_polytope
from signedposets.gorenstein import (
    ClassicalPoset,
    canonical_interior_point,
    check_fischer_symmetry,
    fischer_halfspaces,
    fischer_representation,
    gorenstein_index_from_grading,
    hasse_dot,
    is_gorenstein,
    is_graded,
    minimal_fischer_representation,
)
from signedposets.posets import SignedPoset, from_generators, minimal_representation
from signedposets.roots import parse_root
from signedposets.verify import check_gorenstein_triple


def mk(n, tokens):
    return from_generators(n, [parse_root(t) for t in tokens])


def grid(system, t=1):
    box = integer_box(system, t)
    pts = []

    def rec(prefix):
        if len(prefix) == system.n:
            if system.contains(prefix, t):
                pts.append(tuple(prefix))
            return
        lo, hi = box[len(prefix)]
        for v in range(lo, hi + 1):
            rec(prefix + [v])

    rec([])
    return sorted(pts)


def test_fischer_relations_positive_octant():
    # e1, e2, e1+e2: both negatives sit below 0, 0 below both positives.
    q = fischer_representation(mk(2, ["+1", "+2", "+1+2"]))
    assert sorted(q.lt) == [
        (-2, 0), (-2, 1), (-2, 2), (-1, 0),
        (-1, 1), (-1, 2), (0, 1), (0, 2),
    ]
    assert q.covers() == [(-2, 0), (-1, 0), (0, 1), (0, 2)]
    assert check_fischer_symmetry(q)


def test_fischer_symmetry_over_catalog():
    for p in iter_signed_posets(2):
        assert check_fischer_symmetry(fischer_representation(p))


def test_fischer_symmetry_rejects_lopsided_order():
    q = ClassicalPoset(1, frozenset({(-1, 0)}))
    assert not check_fischer_symmetry(q)
    # -1 < 1 without passing through 0 is also out
    q2 = ClassicalPoset(1, frozenset({(-1, 1)}))
    assert not check_fischer_symmetry(q2)


def test_maximal_chains_positive_octant():
    q = fischer_representation(mk(2, ["+1", "+2", "+1+2"]))
    assert maximal_chains(q) == [[-2, 0, 1], [-2, 0, 2], [-1, 0, 1], [-1, 0, 2]]


def test_graded_positive_octant():
    q = fischer_representation(mk(2, ["+1", "+2", "+1+2"]))
    report = is_graded(q)
    assert report.graded
    assert report.max_chain_length == 2
    assert report.rank == {-2: 0, -1: 0, 0: 1, 1: 2, 2: 2}
    assert gorenstein_index_from_grading(report) == 2
    assert canonical_interior_point(report, 2) == (1, 1)


def test_single_unit_root_not_graded():
    # chains [-2,0,2], [-1], [1]: the isolated nonzero labels count
    q = fischer_representation(mk(2, ["+2"]))
    assert maximal_chains(q) == [[-2, 0, 2], [-1], [1]]
    report = is_graded(q)
    assert not report.graded
    assert gorenstein_index_from_grading(report) is None


def test_empty_poset_graded_with_length_zero():
    report = is_graded(fischer_representation(mk(2, [])))
    assert report.graded and report.max_chain_length == 0
    assert gorenstein_index_from_grading(report) == 1
    assert canonical_interior_point(report, 2) == (0, 0)


def test_isolated_zero_label_does_not_break_grading():
    # No unit roots, so 0 is comparable to nothing and contributes a trivial
    # chain.  The nonzero labels form chains of length 2 throughout; the
    # polytope has a genuine interior point at the second dilate.
    p = mk(3, ["+1-2", "+1+3", "+2+3"])
    q = fischer_representation(p)
    assert sorted(len(c) - 1 for c in maximal_chains(q)) == [0, 2, 2]
    report = is_graded(q)
    assert report.graded and report.max_chain_length == 2
    assert canonical_interior_point(report, 3) == (1, 0, 1)
    assert check_gorenstein_triple(p).passed
    assert is_gorenstein(p)


def test_odd_chain_length_not_graded():
    # e1-e2 gives pair chains of length 1; all equal, but odd means the
    # centrally symmetric order cannot have a middle rank.
    q = fischer_representation(mk(2, ["+1-2"]))
    assert maximal_chains(q) == [[-1, -2], [0], [2, 1]]
    assert not is_graded(q).graded


def test_a_cover_that_skips_a_height_is_not_graded():
    # x < y < z and w < z: the one maximal element has the even height 2,
    # but the cover w < z climbs two heights, so the chains are 2 and 1 long.
    x, y, z, w = -2, -1, 1, 2
    q = ClassicalPoset(2, frozenset({(x, y), (y, z), (x, z), (w, z)}))
    assert maximal_chains(q) == [[-2, -1, 1], [0], [2, 1]]
    report = is_graded(q)
    assert (report.graded, report.max_chain_length, report.rank) == (False, 2, None)
    assert report == graded_by_chains(q)


def test_cycle_detected_on_unclosed_input():
    roots = frozenset(
        {parse_root("-1+2"), parse_root("-2+3"), parse_root("+1-3")}
    )
    with pytest.raises(CycleDetected):
        fischer_representation(SignedPoset(3, roots))


def test_interior_point_requires_grading():
    report = is_graded(fischer_representation(mk(2, ["+2"])))
    with pytest.raises(ValueError):
        canonical_interior_point(report, 2)


def test_gorenstein_examples():
    assert is_gorenstein(mk(2, []))
    assert not is_gorenstein(mk(2, ["+2"]))
    assert not is_gorenstein(mk(2, ["+1+2", "+2"]))


def test_gorenstein_cross_check_over_catalog():
    hits = 0
    for p in iter_signed_posets(2):
        check = check_gorenstein_triple(p)
        assert check.passed, check.detail
        assert check.detail["graded"] == is_gorenstein(p)
        hits += is_gorenstein(p)
    assert hits == 17


def test_fischer_halfspaces_cut_out_the_order_polytope():
    p = mk(2, ["+1+2", "+2"])
    ours = order_polytope(p)
    theirs = fischer_halfspaces(fischer_representation(p))
    for t in (1, 2):
        assert grid(ours, t) == grid(theirs, t)
    assert count_points(ours, 3) == count_points(theirs, 3)


def test_hasse_dot_output():
    dot = hasse_dot(fischer_representation(mk(2, ["+1+2", "+2"])))
    assert dot.startswith("digraph fischer {")
    assert "0 [shape=doublecircle, style=bold];" in dot
    assert '"-2" -> "0";' in dot
    assert dot.rstrip().endswith("}")


def test_gorenstein_from_the_minimal_representation_at_n4():
    # -1 is in P but not in M (-e1 = ½(-e1+e2) + ½(-e1-e2)); its relations
    # 1 < 0 < -1 made Ĝ(P) ungraded although h* = 1 + 6z + z² is palindromic.
    p = mk(4, "-1 -1-2 -1+2 -1-3 -1+3 -1-4 -1+4 -2+3 -2-4 -3-4".split())
    assert parse_root("-1") in p.roots - minimal_representation(p)
    assert not is_graded(fischer_representation(p)).graded
    report = is_graded(minimal_fischer_representation(p))
    assert report.graded and gorenstein_index_from_grading(report) == 3
    assert canonical_interior_point(report, 4) == (-2, -1, 0, -1)
    check = check_gorenstein_triple(p)
    assert check.passed, check.detail
    assert check.detail["counting_index"] == 3 and check.detail["fischer_symmetric"]
    assert is_gorenstein(p)


@pytest.mark.parametrize("n, expected", [(1, 3), (2, 17), (3, 363)])
def test_gorenstein_count_equals_palindromic_hstar(n, expected):
    flags = [is_gorenstein(p) for p in iter_signed_posets(n)]
    assert flags == [
        is_palindromic(hstar_from_counts(order_polytope(p))) for p in iter_signed_posets(n)
    ]
    assert sum(flags) == expected
