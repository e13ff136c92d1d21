"""Exact integer linear algebra: Bareiss elimination and a small two-phase simplex.

Everything here is exact: there is no floating point and therefore no
tolerance anywhere in the package.  `dot` stays in integers on integer input.
`rank` and `det` take integer rows and eliminate fraction-free, and `det`
returns an int.  The simplex is fraction-free as well: rational data are
scaled to integers on entry, and the tableau is kept as integers over one
common denominator; only its answers come back as `fractions.Fraction`.
Both eliminate by the same Bareiss step, `_eliminate`.  The LPs solved are
small, so a dense tableau with Bland's anti-cycling rule is entirely
adequate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

Rat = int | Fraction
Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)


def dot(a: Sequence[Rat], x: Sequence[Rat]) -> Rat:
    """Exact inner product: an int for integer vectors, a Fraction otherwise.

    >>> dot((1, -1), (3, 2))
    1
    >>> dot((1, -1), (Fraction(1, 2), 2))
    Fraction(-3, 2)
    """
    if len(a) != len(x):
        raise ValueError("dimension mismatch")
    return sum(map(mul, a, x))


def _eliminate(row: list[int], pivot_row: list[int], c: int, p: int, d: int) -> list[int]:
    """One Bareiss step: `row` cleared at column c by the pivot p of `pivot_row`.

    Every entry becomes `(p·x − f·y) // d`, with f = row[c] and d the previous
    pivot; the division is exact (Bareiss, Math. Comp. 22, 1968).
    """
    f = row[c]
    if f:
        return [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
    if p == d:
        return row
    return [p * x // d for x in row]


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free forward elimination of integer rows: (rank, last pivot).

    After k Bareiss steps each entry below the pivot rows is a (k+1)×(k+1)
    minor, so the last pivot, signed by the row swaps, is the determinant of
    a square matrix of full rank.
    """
    m = [list(row) for row in rows]
    r, d, sign = 0, 1, 1
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        p = m[r][c]
        for i in range(r + 1, len(m)):
            m[i] = _eliminate(m[i], m[r], c, p, d)
        d = p
        r += 1
    return r, sign * d


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix given as a list of rows.

    >>> rank([[1, 2], [2, 4]])
    1
    """
    return _echelon(rows)[0]


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, as an int.

    >>> det([[2, 1], [1, 3]])
    5
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix not square")
    r, pivot = _echelon(rows)
    return pivot if r == n else 0


def _integers(values: Sequence[Rat]) -> tuple[int, list[int]]:
    """The least s > 0 with s·v integral for every v, and the integers s·v."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [int(v * scale) for v in values]


class _Tableau:
    """Fraction-free simplex tableau for `min c·x  s.t.  Ax = b, x ≥ 0`, Bland's rule.

    The exact tableau is `t / d`: integer rows over one common denominator
    d > 0, which is the absolute determinant of the current basis (scaled by
    the rows' denominators on entry).  A pivot is a Bareiss step,
    `(p·x − f·y) // d` with p the pivot, and every division is exact.  The
    objective row `z` (reduced costs, then minus the value, times d) is
    carried through the same steps.
    """

    def __init__(self, a: Sequence[Sequence[Rat]], b: Sequence[Rat]):
        self.m = len(a)
        self.nv = len(a[0]) if a else 0
        # Flip rows so the right-hand side is nonnegative, then append an
        # artificial identity; the artificial variables form the initial
        # basis.  Each row is scaled to integers (scaling a row, artificial
        # column included, leaves the exact tableau as it is), and d starts
        # as the product of the row scales, the determinant of that basis.
        scaled = [_integers([*row, rhs]) for row, rhs in zip(a, b)]
        self.d = math.prod(scale for scale, _ in scaled)
        rows = []
        for i, (scale, row) in enumerate(scaled):
            factor = self.d // scale if row[-1] >= 0 else -self.d // scale
            art = [0] * self.m
            art[i] = self.d
            rows.append([factor * x for x in row[:-1]] + art + [factor * row[-1]])
        self.t = rows
        self.total = self.nv + self.m
        self.basis = [self.nv + i for i in range(self.m)]
        self.z: list[int] = []
        self.scale = 1

    def set_cost(self, cost: Sequence[Rat]) -> None:
        """Price the current basis: z_j = d·c_j − Σ_i c_basis(i)·t_ij, cost in integers."""
        self.scale, c = _integers(cost)
        z = [self.d * x for x in c] + [0]
        for i, row in enumerate(self.t):
            cb = c[self.basis[i]]
            if cb:
                z = [x - cb * y for x, y in zip(z, row)]
        self.z = z

    def _pivot(self, r: int, c: int) -> None:
        t, d = self.t, self.d
        row = t[r]
        p = row[c]
        if p < 0:  # the same exact row, with a positive pivot so that d stays > 0
            row = t[r] = [-x for x in row]
            p = -p
        for i in range(self.m):
            if i != r:
                t[i] = _eliminate(t[i], row, c, p, d)
        self.z = _eliminate(self.z, row, c, p, d)
        self.d = p
        self.basis[r] = c

    def run(self, allowed: int) -> str:
        """Bland-rule iterations; entering variables restricted to index < allowed."""
        t = self.t
        while True:
            # First negative reduced cost; basic columns price at exactly 0.
            z = self.z
            enter = next((j for j in range(allowed) if z[j] < 0), -1)
            if enter < 0:
                return "optimal"
            # Least ratio rhs/entry over positive entries, compared by
            # cross-multiplication; ties go to the smaller basic index.
            leave = -1
            for i in range(self.m):
                entry = t[i][enter]
                if entry > 0:
                    if leave < 0:
                        leave = i
                        continue
                    lhs = t[i][-1] * t[leave][enter]
                    rhs = t[leave][-1] * entry
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave = i
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter)

    def value(self) -> Fraction:
        return Fraction(-self.z[-1], self.d * self.scale)

    def solution(self) -> list[Fraction]:
        x = [_ZERO] * self.nv
        for i, j in enumerate(self.basis):
            if j < self.nv:
                x[j] = Fraction(self.t[i][-1], self.d)
        return x


def solve_standard(
    a: Sequence[Sequence[Rat]], b: Sequence[Rat], c: Sequence[Rat]
) -> tuple[str, Optional[list[Fraction]], Optional[Fraction]]:
    """Two-phase simplex for `min c·x  s.t.  Ax = b, x ≥ 0`.

    Returns (status, x, value) with status one of "optimal", "infeasible",
    "unbounded"; x and value are None unless status is "optimal".
    """
    tab = _Tableau(a, b)
    tab.set_cost([0] * tab.nv + [1] * tab.m)
    tab.run(tab.total)
    if tab.value() > 0:
        return "infeasible", None, None
    # Drive any artificial still in the basis out of it (or recognize the row
    # as redundant and leave it; a zero row can never pivot again).
    for i in range(tab.m):
        if tab.basis[i] >= tab.nv:
            col = next((j for j in range(tab.nv) if tab.t[i][j] != 0), None)
            if col is not None:
                tab._pivot(i, col)

    tab.set_cost([*c, *[0] * tab.m])
    if tab.run(tab.nv) == "unbounded":
        return "unbounded", None, None
    return "optimal", tab.solution(), tab.value()


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
    a = [[v[i] for v in vectors] for i in range(m)]
    status, x, _ = solve_standard(a, target, [0] * len(vectors))
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
        if any(x != 0 for x in objective):
            return "unbounded", None, None
        return "optimal", _ZERO, tuple([_ZERO] * n)
    a_std: list[list[Rat]] = []
    b_std: list[Rat] = []
    for i, (coeffs, rhs) in enumerate(rows):
        if len(coeffs) != n:
            raise ValueError("dimension mismatch")
        surplus = [0] * m
        surplus[i] = -1
        a_std.append([*coeffs, *(-x for x in coeffs), *surplus])
        b_std.append(rhs)
    c_std = [*objective, *(-x for x in objective), *[0] * m]
    status, x_std, value = solve_standard(a_std, b_std, c_std)
    if status != "optimal":
        return status, None, None
    point = tuple(x_std[i] - x_std[n + i] for i in range(n))
    return "optimal", value, point
