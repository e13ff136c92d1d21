from fractions import Fraction

import pytest

from reference_kernels import poly_eval
from signedposets import ehrhart, verify
from signedposets.catalog import enumerate_signed_posets
from signedposets.chains import chain_polytope
from signedposets.ehrhart import (
    count_points,
    ehrhart_polynomial,
    gorenstein_index_by_counts,
    hstar_from_counts,
    integer_box,
    is_palindromic,
    is_unimodal,
    poly_to_json,
    reciprocity_check,
)
from signedposets.geometry import order_polytope, signed_filters
from signedposets.errors import InternalInconsistency, UnboundedSystem
from signedposets.halfspaces import Halfspace, HalfspaceSystem, cube_rows
from signedposets.posets import from_generators
from signedposets.roots import parse_root


def mk(n, tokens):
    return from_generators(n, [parse_root(t) for t in tokens])


def cube(n):
    return HalfspaceSystem(n, tuple(cube_rows(n)))


def test_cube_counts():
    for n in (1, 2, 3):
        for t in range(4):
            assert count_points(cube(n), t) == (2 * t + 1) ** n
            if t >= 1:
                assert count_points(cube(n), t, strict=True) == (2 * t - 1) ** n
    assert count_points(cube(2), 0, strict=True) == 0


def test_ehrhart_polynomials_pinned():
    assert ehrhart_polynomial(cube(2)) == (1, 4, 4)
    assert ehrhart_polynomial(order_polytope(mk(2, ["-1+2", "+1+2"]))) == (1, 2, 1)
    assert ehrhart_polynomial(order_polytope(mk(2, ["+2"]))) == (1, 3, 2)
    assert ehrhart_polynomial(order_polytope(mk(1, ["+1"]))) == (1, 1)


def test_ehrhart_evaluates_to_counts():
    for p in enumerate_signed_posets(2):
        system = order_polytope(p)
        coeffs = ehrhart_polynomial(system)
        for t in range(4):
            assert poly_eval(coeffs, t) == count_points(system, t)
        assert poly_eval(coeffs, 1) == len(signed_filters(p))


def test_a_flat_system_has_no_ehrhart_polynomial():
    # The segment x1 = 0 inside [−1, 1]²: counts 1, 3, 5, raw h* (1, 0, −1).
    segment = HalfspaceSystem(
        2, (*cube_rows(2), Halfspace((1, 0), 0), Halfspace((-1, 0), 0))
    )
    with pytest.raises(InternalInconsistency, match="not full-dimensional"):
        ehrhart_polynomial(segment)


def test_hstar_reciprocity_and_the_chain_check_build_no_fraction(monkeypatch):
    catalog = [p for n in (1, 2) for p in enumerate_signed_posets(n)]

    def no_fraction(*args):
        raise AssertionError("ehrhart built a Fraction")

    monkeypatch.setattr(ehrhart, "Fraction", no_fraction)
    for p in catalog:
        for system in (order_polytope(p), chain_polytope(p)):
            assert hstar_from_counts(system)[0] == 1
            assert reciprocity_check(system)
            gorenstein_index_by_counts(system)
        assert verify.check_chain_polytope(p).passed


def test_hstar_pinned_values():
    assert hstar_from_counts(order_polytope(mk(2, []))) == (1, 6, 1)
    assert hstar_from_counts(order_polytope(mk(2, ["+1", "+2"]))) == (1, 1)
    assert hstar_from_counts(order_polytope(mk(3, ["+3"]))) == (1, 14, 9)


def test_hstar_leading_coefficient_is_one():
    for p in enumerate_signed_posets(2):
        hstar = hstar_from_counts(order_polytope(p))
        assert hstar[0] == 1
        assert all(c >= 0 for c in hstar)


def test_reciprocity():
    assert reciprocity_check(cube(2))
    for p in enumerate_signed_posets(2):
        assert reciprocity_check(order_polytope(p))


def test_gorenstein_index_by_counts():
    assert gorenstein_index_by_counts(cube(2)) == 1  # reflexive
    assert gorenstein_index_by_counts(order_polytope(mk(2, ["+1", "+2"]))) == 2
    assert gorenstein_index_by_counts(order_polytope(mk(2, ["+2"]))) is None


def test_palindromic_and_unimodal():
    assert is_palindromic((1, 6, 1))
    assert is_palindromic((1,))
    assert not is_palindromic((1, 2))
    assert is_unimodal((1, 14, 9))
    assert is_unimodal((1, 2, 2, 1))
    assert not is_unimodal((1, 0, 2))


def test_format_rational():
    # Rationals are written as "p" or "p/q"; poly_to_json does the writing.
    assert poly_to_json((Fraction(3, 1),)) == ["3"]
    assert poly_to_json((Fraction(-1, 2),)) == ["-1/2"]


def test_poly_to_json():
    assert poly_to_json((Fraction(1), Fraction(5, 2))) == ["1", "5/2"]
    assert poly_to_json((Fraction(3, 1), Fraction(-1, 2), 4)) == ["3", "-1/2", 4]


def test_a_system_bounded_only_through_several_coordinates_is_not_counted():
    # x ≥ 0, y ≥ 0, x + y ≤ 1: no single-coordinate row bounds x or y above.
    triangle = HalfspaceSystem(
        2, (Halfspace((1, 0), 0), Halfspace((0, 1), 0), Halfspace((-1, -1), -1))
    )
    with pytest.raises(UnboundedSystem, match="coordinate 1 above"):
        count_points(triangle, 1)
    with pytest.raises(UnboundedSystem):
        integer_box(triangle, 0)
