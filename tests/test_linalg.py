"""The exact-arithmetic kernel, cross-checked against independent oracles
(Leibniz determinant expansion, direct substitution)."""

from fractions import Fraction
from itertools import permutations

from hypothesis import given
from hypothesis import strategies as st

from signedposets.linalg import (
    det,
    dot,
    minimize,
    nonneg_combination,
    rank,
    solve_square,
    solve_standard,
)

entries = st.integers(min_value=-6, max_value=6)
matrix3 = st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)


def leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


@given(matrix3)
def test_det_matches_leibniz(rows):
    assert det(rows) == leibniz_det(rows)


@given(matrix3, st.lists(entries, min_size=3, max_size=3))
def test_solve_square_substitutes(rows, rhs):
    x = solve_square(rows, rhs)
    if det(rows) == 0:
        assert x is None
    else:
        assert x is not None
        for row, b in zip(rows, rhs):
            assert dot(row, x) == b


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

