"""Each integer fast path against its slow route, and the count-cache contract.

The fast paths are: `dot` in integers, the witness-first `row_is_necessary`,
box bounds solved once at t = 1 and scaled, and the half-open oracle's
integer viewpoint.  Each is compared with the route it replaced on the whole
n ≤ 3 catalog.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import islice, product

from signedposets.catalog import enumerate_signed_posets
from signedposets.chains import chain_polytope
from signedposets.ehrhart import count_points, integer_box
from signedposets.geometry import (
    _lp_row_is_necessary,
    order_polytope_irredundant,
    row_is_necessary,
)
from signedposets.halfspaces import Halfspace, HalfspaceSystem, cube_rows, rows_from_key
from signedposets.jordan import half_open_contains_generic, reference_point
from signedposets.linalg import dot
from signedposets.perms import enumerate_signed_permutations
from signedposets.verify import subchain_trials

CATALOG = [p for n in (1, 2, 3) for p in enumerate_signed_posets(n)]


def test_dot_is_int_on_integers_and_fraction_on_fractions():
    value = dot((1, -2, 3), (4, 5, -6))
    assert type(value) is int and value == -24
    value = dot((1, -2), (Fraction(1, 3), Fraction(1, 2)))
    assert type(value) is Fraction and value == Fraction(-2, 3)
    assert dot((2, 0), (Fraction(1, 2), 7)) == 1


def test_witness_first_redundancy_equals_the_lp_on_irredundant_systems():
    rows = 0
    for p in CATALOG:
        irr = order_polytope_irredundant(p)
        for index in range(len(irr.rows)):
            assert row_is_necessary(irr, index) == _lp_row_is_necessary(irr, index)
            rows += 1
    assert rows > 4944  # the n = 3 systems alone have 4,944 rows


def test_witness_first_redundancy_equals_the_lp_where_rows_are_redundant():
    # A third of the 5,472 n = 3 trial rows are redundant, so the LP decides
    # them; every 25th trial keeps the test to a few seconds.
    verdicts = set()
    for _, _, trial in islice(subchain_trials(3), 0, None, 25):
        last = len(trial.rows) - 1
        verdict = row_is_necessary(trial, last)
        assert verdict == _lp_row_is_necessary(trial, last)
        verdicts.add(verdict)
    assert verdicts == {False, True}


def _direct_box(system, t):
    # The t-dilate as a system of its own, whose box at t = 1 is solved as is.
    dilate = HalfspaceSystem(
        system.n, tuple(Halfspace(row.a, t * row.b) for row in system.rows)
    )
    return integer_box(dilate, 1)


def test_scaled_box_equals_the_box_solved_at_each_dilate():
    for p in CATALOG:
        for system in (order_polytope_irredundant(p), chain_polytope(p)):
            for t in range(2, 5):  # t = 1 is the solved box itself
                assert integer_box(system, t) == _direct_box(system, t), (p, t)


def test_integer_viewpoint_equals_the_rational_reference_point():
    for n in (1, 2, 3):
        q = reference_point(n)
        for sigma in enumerate_signed_permutations(n):
            for t in (1, 2):
                for x in product(range(-t, t + 1), repeat=n):
                    assert half_open_contains_generic(sigma, x, t) == (
                        half_open_contains_generic(sigma, x, t, q=q)
                    )


def test_count_cache_keys_on_rows_not_labels():
    rows = cube_rows(2)
    plain = HalfspaceSystem(2, tuple(rows))
    relabelled = HalfspaceSystem(
        2, tuple(Halfspace(r.a, r.b, f"other {k}") for k, r in enumerate(rows))
    )
    assert plain != relabelled and plain.key == relabelled.key
    assert rows_from_key(plain.key) == (2, tuple((r.a, r.b) for r in rows))
    count_points.cache_clear()
    assert count_points(plain, 2) == count_points(relabelled, 2) == 25
    info = count_points.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_count_cache_behaves_as_an_lru_cache_of_4096_entries():
    reference = lru_cache(maxsize=4096)(lambda t: t)
    system = HalfspaceSystem(1, tuple(cube_rows(1)))
    count_points.cache_clear()
    assert count_points.cache_info() == reference.cache_info()
    for t in (1, 2, 1):
        count_points(system, t)
        reference(t)
    assert count_points.cache_info() == reference.cache_info()
    assert count_points.cache_info().maxsize == 4096
    count_points.cache_clear()
    reference.cache_clear()
    assert count_points.cache_info() == reference.cache_info()
    assert count_points(system, 3, strict=True) == 5


def test_signed_permutations_are_a_new_list_each_call():
    first = enumerate_signed_permutations(2)
    fresh = list(first)
    first.reverse()
    first.pop()
    assert enumerate_signed_permutations(2) == fresh
    assert enumerate_signed_permutations(2) is not enumerate_signed_permutations(2)
