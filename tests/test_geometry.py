"""Halfspace systems and the order polytope/cone geometry built on them."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from signedposets.catalog import enumerate_signed_posets
from signedposets.geometry import (
    interior_point,
    necessity_witness,
    order_cone,
    order_polytope,
    order_polytope_irredundant,
    row_is_necessary,
    signed_filters,
    vertices,
    homogenized_poset,
)
from signedposets.halfspaces import (
    Halfspace,
    HalfspaceSystem,
    cube_rows,
    dedupe_rows,
)
from signedposets.posets import from_generators
from signedposets.roots import inner_product, parse_root


def mk(n, tokens):
    return from_generators(n, [parse_root(t) for t in tokens])


def lattice_points(system, t):
    return [
        x
        for x in product(range(-t, t + 1), repeat=system.n)
        if system.contains(x, t)
    ]


def test_cube_rows():
    rows = cube_rows(2)
    assert len(rows) == 4
    assert {(r.a, r.b) for r in rows} == {
        ((1, 0), -1),
        ((-1, 0), -1),
        ((0, 1), -1),
        ((0, -1), -1),
    }
    cube = HalfspaceSystem(2, tuple(rows))
    assert cube.contains((1, -1))
    assert not cube.contains((2, 0))
    assert cube.contains((2, 0), t=2)
    assert not cube.contains((1, 0), strict=True)
    assert cube.contains((0, 0), strict=True)


def test_rows_coerced_to_tuple():
    cube = HalfspaceSystem(2, cube_rows(2))  # a plain list
    assert isinstance(cube.rows, tuple)
    hash(cube)  # memoized counting requires hashability


def test_dimension_checked():
    with pytest.raises(ValueError):
        HalfspaceSystem(3, (Halfspace((1, 0), 0),))


def test_dedupe_keeps_first_label():
    rows = [Halfspace((1, 0), 0, "first"), Halfspace((1, 0), 0, "second")]
    kept = dedupe_rows(rows)
    assert len(kept) == 1 and kept[0].label == "first"


small_rows = st.lists(
    st.builds(
        Halfspace,
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.integers(-2, 2),
        st.sampled_from(["", "row", "cube-lower(1)"]),
    ),
    max_size=5,
)


@given(small_rows)
def test_json_round_trip(rows):
    system = HalfspaceSystem(2, tuple(rows))
    again = HalfspaceSystem.from_json_dict(system.to_json_dict())
    assert again == system


def test_order_polytope_row_count():
    p = mk(2, ["-1+2", "+1+2"])
    assert len(order_polytope(p).rows) == len(p.roots) + 4
    assert len(order_cone(p).rows) == len(p.roots)


def test_signed_filters_fig1():
    # O_P is the triangle |x1| <= x2 <= 1; (0,1) is an edge midpoint, not a vertex
    p = mk(2, ["-1+2", "+1+2"])
    assert sorted(signed_filters(p)) == [(-1, 1), (0, 0), (0, 1), (1, 1)]
    assert sorted(vertices(p)) == [(-1, 1), (0, 0), (1, 1)]


def test_origin_filter_but_not_vertex():
    p = mk(2, [])
    filters = signed_filters(p)
    assert (0, 0) in filters
    assert len(filters) == 9
    assert (0, 0) not in vertices(p)
    assert len(vertices(p)) == 4  # the cube corners


def test_filters_are_the_lattice_points():
    for p in enumerate_signed_posets(2):
        assert sorted(signed_filters(p)) == sorted(lattice_points(order_polytope(p), 1))


def test_vertices_subset_of_filters():
    for p in enumerate_signed_posets(2):
        assert set(vertices(p)) <= set(signed_filters(p))


def test_irredundant_description():
    for p in enumerate_signed_posets(2):
        slim = order_polytope_irredundant(p)
        full = order_polytope(p)
        assert len(slim.rows) <= len(full.rows)
        for t in (1, 2):
            assert lattice_points(slim, t) == lattice_points(full, t)
        for index in range(len(slim.rows)):
            assert row_is_necessary(slim, index), slim.rows[index]


def test_irredundant_empty_poset_is_the_cube():
    slim = order_polytope_irredundant(mk(2, []))
    assert {(r.a, r.b) for r in slim.rows} == {(r.a, r.b) for r in cube_rows(2)}


def test_row_is_necessary_detects_duplicates():
    cube = HalfspaceSystem(2, tuple(cube_rows(2)))
    assert all(row_is_necessary(cube, i) for i in range(4))
    padded = HalfspaceSystem(2, tuple(cube_rows(2)) + (Halfspace((1, 0), -1, "dup"),))
    assert not row_is_necessary(padded, 4)


def test_necessity_witness_is_the_first_grid_point_violating_the_row_alone():
    # cube rows: x ≥ −1, −x ≥ −1, y ≥ −1, −y ≥ −1, in [−2, 2]² in product order
    cube = HalfspaceSystem(2, tuple(cube_rows(2)))
    assert [necessity_witness(cube, i) for i in range(4)] == [
        (-2, -1), (2, -1), (-1, -2), (-1, 2)
    ]
    padded = HalfspaceSystem(2, tuple(cube_rows(2)) + (Halfspace((1, 0), -1, "dup"),))
    assert necessity_witness(padded, 4) is None


def test_interior_point_pinned_values():
    assert interior_point(mk(2, ["-1+2"])) == (Fraction(1, 3), Fraction(2, 3))
    assert interior_point(mk(1, ["-1"])) == (Fraction(-1, 2),)
    assert interior_point(mk(1, [])) == (Fraction(1, 2),)


def test_interior_point_strictly_inside():
    for p in enumerate_signed_posets(2):
        q = interior_point(p)
        assert order_polytope(p).contains(q, strict=True)


def test_homogenization_lifts():
    p = mk(2, ["-1+2", "+1+2"])
    lifted = homogenized_poset(p)
    assert lifted.n == 3
    assert p.roots <= lifted.roots
    cone = order_cone(lifted)
    for x in product((-1, 0, 1), repeat=2):
        inside = order_polytope(p).contains(x)
        lifted_ok = all(row.evaluate((*x, 1)) >= row.b for row in cone.rows)
        assert inside == lifted_ok
