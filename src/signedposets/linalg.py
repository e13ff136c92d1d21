"""Exact rational linear algebra: Gaussian elimination and a small two-phase simplex.

Everything here is exact: `dot` stays in integers on integer input, and the
rest works over `fractions.Fraction` — there is no floating point and
therefore no tolerance anywhere in the package.  The systems solved are
tiny (at most ~6 equations and a few dozen variables), so a dense tableau with
Bland's anti-cycling rule is entirely adequate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Rat = int | Fraction
Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def dot(a: Sequence[Rat], x: Sequence[Rat]) -> Rat:
    """Exact inner product: an int for integer vectors, a Fraction otherwise.

    >>> dot((1, -1), (3, 2))
    1
    >>> dot((1, -1), (Fraction(1, 2), 2))
    Fraction(-3, 2)
    """
    if len(a) != len(x):
        raise ValueError("dimension mismatch")
    return sum(ai * xi for ai, xi in zip(a, x))


def rank(rows: Sequence[Sequence[Rat]]) -> int:
    """Rank of a matrix given as a list of rows, by fraction-exact elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def det(rows: Sequence[Sequence[Rat]]) -> Fraction:
    """Determinant of a square matrix (exact)."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("matrix not square")
    sign = 1
    result = _ONE
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return _ZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivot = m[col][col]
        result *= pivot
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] / pivot
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return sign * result


def solve_square(rows: Sequence[Sequence[Rat]], rhs: Sequence[Rat]) -> Optional[Vec]:
    """Unique solution of a square system, or None when the matrix is singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return tuple(m[i][n] for i in range(n))


class _Tableau:
    """Dense simplex tableau for `min c·x  s.t.  Ax = b, x ≥ 0` with Bland's rule."""

    def __init__(self, a: list[list[Fraction]], b: list[Fraction]):
        self.m = len(a)
        self.nv = len(a[0]) if a else 0
        # Flip rows so the right-hand side is nonnegative, then append an
        # artificial identity; the artificial variables form the initial basis.
        rows = []
        for i in range(self.m):
            row = a[i][:] if b[i] >= 0 else [-x for x in a[i]]
            rhs = b[i] if b[i] >= 0 else -b[i]
            art = [_ONE if j == i else _ZERO for j in range(self.m)]
            rows.append(row + art + [rhs])
        self.t = rows
        self.total = self.nv + self.m
        self.basis = [self.nv + i for i in range(self.m)]

    def _pivot(self, r: int, c: int) -> None:
        t = self.t
        inv = 1 / t[r][c]
        t[r] = [x * inv for x in t[r]]
        for i in range(self.m):
            if i != r and t[i][c] != 0:
                f = t[i][c]
                t[i] = [x - f * y for x, y in zip(t[i], t[r])]
        self.basis[r] = c

    def _run(self, cost: list[Fraction], allowed: int) -> str:
        """Bland-rule iterations; entering variables restricted to index < allowed."""
        t = self.t
        while True:
            # Multipliers for the current basis, then first negative reduced cost.
            enter = -1
            for j in range(allowed):
                if j in self.basis:
                    continue
                red = cost[j] - sum(
                    cost[self.basis[i]] * t[i][j]
                    for i in range(self.m)
                    if cost[self.basis[i]] != 0
                )
                if red < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best: Optional[Fraction] = None
            for i in range(self.m):
                if t[i][enter] > 0:
                    ratio = t[i][-1] / t[i][enter]
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter)

    def value(self, cost: list[Fraction]) -> Fraction:
        return sum(
            (cost[self.basis[i]] * self.t[i][-1] for i in range(self.m)), _ZERO
        )

    def solution(self) -> list[Fraction]:
        x = [_ZERO] * self.nv
        for i, j in enumerate(self.basis):
            if j < self.nv:
                x[j] = self.t[i][-1]
        return x


def solve_standard(
    a: Sequence[Sequence[Rat]], b: Sequence[Rat], c: Sequence[Rat]
) -> tuple[str, Optional[list[Fraction]], Optional[Fraction]]:
    """Two-phase simplex for `min c·x  s.t.  Ax = b, x ≥ 0`.

    Returns (status, x, value) with status one of "optimal", "infeasible",
    "unbounded"; x and value are None unless status is "optimal".
    """
    a = [[Fraction(x) for x in row] for row in a]
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c]
    tab = _Tableau(a, b)

    phase1 = [_ZERO] * tab.nv + [_ONE] * tab.m
    tab._run(phase1, tab.total)
    if tab.value(phase1) > 0:
        return "infeasible", None, None
    # Drive any artificial still in the basis out of it (or recognize the row
    # as redundant and leave it; a zero row can never pivot again).
    for i in range(tab.m):
        if tab.basis[i] >= tab.nv:
            col = next((j for j in range(tab.nv) if tab.t[i][j] != 0), None)
            if col is not None:
                tab._pivot(i, col)

    phase2 = c + [_ZERO] * tab.m
    status = tab._run(phase2, tab.nv)
    if status == "unbounded":
        return "unbounded", None, None
    return "optimal", tab.solution(), tab.value(phase2)


def nonneg_combination(
    vectors: Sequence[Sequence[Rat]], target: Sequence[Rat]
) -> Optional[list[Fraction]]:
    """Coefficients λ ≥ 0 with Σ λ_k·vectors[k] = target, or None if impossible.

    >>> nonneg_combination([(1, 0), (0, 1)], (2, 3))
    [Fraction(2, 1), Fraction(3, 1)]
    >>> nonneg_combination([(1, 0)], (-1, 0)) is None
    True
    """
    m = len(target)
    if any(len(v) != m for v in vectors):
        raise ValueError("dimension mismatch")
    a = [[Fraction(v[i]) for v in vectors] for i in range(m)]
    status, x, _ = solve_standard(a, list(target), [_ZERO] * len(vectors))
    if status != "optimal":
        return None
    return x


def minimize(
    objective: Sequence[Rat],
    rows: Sequence[tuple[Sequence[Rat], Rat]],
) -> tuple[str, Optional[Fraction], Optional[Vec]]:
    """`min c·x  s.t.  ⟨a_i, x⟩ ≥ b_i` with x free (unrestricted sign).

    Returns (status, value, x).  Internally splits x = u − v and adds one
    surplus variable per row.
    """
    n = len(objective)
    m = len(rows)
    if m == 0:
        # No constraints: x = 0 is optimal iff the objective is identically zero.
        if any(Fraction(x) != 0 for x in objective):
            return "unbounded", None, None
        return "optimal", _ZERO, tuple([_ZERO] * n)
    a_std: list[list[Fraction]] = []
    b_std: list[Fraction] = []
    for coeffs, rhs in rows:
        if len(coeffs) != n:
            raise ValueError("dimension mismatch")
        pos = [Fraction(x) for x in coeffs]
        neg = [-x for x in pos]
        surplus = [_ZERO] * m
        a_std.append(pos + neg + surplus)
        b_std.append(Fraction(rhs))
    for i in range(m):
        a_std[i][2 * n + i] = Fraction(-1)
    c_std = [Fraction(x) for x in objective] + [-Fraction(x) for x in objective]
    c_std += [_ZERO] * m
    status, x_std, value = solve_standard(a_std, b_std, c_std)
    if status != "optimal":
        return status, None, None
    point = tuple(x_std[i] - x_std[n + i] for i in range(n))
    return "optimal", value, point


def feasible_point(
    rows: Sequence[tuple[Sequence[Rat], Rat]], n: int
) -> Optional[Vec]:
    """Some exact point satisfying every row ⟨a_i, x⟩ ≥ b_i, or None."""
    status, _, point = minimize([_ZERO] * n, rows)
    return point if status == "optimal" else None
