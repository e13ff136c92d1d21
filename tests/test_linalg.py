"""The exact-arithmetic kernel, cross-checked against independent oracles
(Leibniz determinant expansion, minors)."""

from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import example, given
from hypothesis import strategies as st

from signedposets import linalg
from signedposets.catalog import enumerate_signed_posets
from signedposets.geometry import vertices
from signedposets.jordan import cell_determinant, jordan_holder
from signedposets.linalg import (
    det,
    minimize,
    nonneg_combination,
    rank,
    solve_standard,
)

entries = st.integers(min_value=-6, max_value=6)
matrix3 = st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)


@st.composite
def matrices(draw):
    """Integer matrices up to 5×4, and their transposes up to 4×5."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    return [list(col) for col in zip(*rows)] if draw(st.booleans()) else rows


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def minor_rank(rows):
    """The largest k with a nonzero k×k minor: a rank that eliminates nothing."""
    m, k = len(rows), len(rows[0])
    for size in range(min(m, k), 0, -1):
        for rs in combinations(range(m), size):
            for cs in combinations(range(k), size):
                if leibniz_det([[rows[i][j] for j in cs] for i in rs]):
                    return size
    return 0


@given(matrix3)
def test_det_matches_leibniz(rows):
    value = det(rows)
    assert type(value) is int and value == leibniz_det(rows)


@given(matrices())
@example([[0, 1, 2], [0, 2, 4], [0, 0, 1]])
@example([[0, 0], [0, 0], [0, 0]])
def test_rank_equals_the_largest_nonzero_minor(rows):
    assert rank(rows) == minor_rank(rows)


def test_vertices_and_cell_determinants_build_no_fraction(monkeypatch):
    catalog = [p for n in (1, 2) for p in enumerate_signed_posets(n)]
    windows = [(p, [s.inverse() for s in jordan_holder(p)]) for p in catalog]
    expected = [(vertices(p), [cell_determinant(w) for w in ws]) for p, ws in windows]

    def no_fraction(*args):
        raise AssertionError("linalg built a Fraction")

    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    # The determinants above sit in cell_determinant's cache; empty it so
    # that each one below is computed again under the raising Fraction.
    cell_determinant.cache_clear()
    got = [(vertices(p), [cell_determinant(w) for w in ws]) for p, ws in windows]
    assert got == expected


@given(matrix3)
def test_rank_bounds(rows):
    r = rank(rows)
    assert 0 <= r <= 3
    assert (r == 3) == (det(rows) != 0)


def test_rank_examples():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0, 0], [0, 1, 0]]) == 2


@given(
    st.lists(st.lists(entries, min_size=2, max_size=2), min_size=1, max_size=4),
    st.lists(entries, min_size=2, max_size=2),
)
def test_nonneg_combination_is_certificate(vectors, target):
    coeffs = nonneg_combination(vectors, target)
    if coeffs is not None:
        assert all(c >= 0 for c in coeffs)
        for i in range(2):
            assert sum(c * v[i] for c, v in zip(coeffs, vectors)) == target[i]


def test_nonneg_combination_negative_case():
    # e2 is not a nonnegative combination of e1 and e1+e2's negation
    assert nonneg_combination([(1, 0), (-1, -1)], (0, 1)) is None
    assert nonneg_combination([(1, 0), (0, 1)], (2, 3)) == [2, 3]


def test_solve_standard_known_lp():
    # min x1 + x2 s.t. x1 + x2 = 1, x >= 0 has optimum 1
    status, x, value = solve_standard([[1, 1]], [1], [1, 1])
    assert status == "optimal"
    assert value == 1
    assert sum(x) == 1
    status, _, _ = solve_standard([[1, 0]], [-1], [0, 0])
    assert status == "infeasible"


def test_minimize_free_variables():
    # min x s.t. x >= -3 (free variable can go negative)
    status, value, point = minimize([1], [((1,), -3)])
    assert (status, value) == ("optimal", Fraction(-3))
    assert point == (Fraction(-3),)
    status, _, _ = minimize([1], [((-1,), 0)])  # min x s.t. x <= 0: unbounded
    assert status == "unbounded"


def test_minimize_no_constraints():
    assert minimize([0, 0], [])[0] == "optimal"
    assert minimize([1, 0], [])[0] == "unbounded"

