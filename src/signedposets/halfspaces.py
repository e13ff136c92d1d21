"""Halfspace systems: the universal carrier for cones and polytopes here.

A system is a finite list of weak inequalities ⟨a, x⟩ ≥ b with integer data.
Dilation by t scales the right-hand sides (rows with b = 0 — the poset rows —
are dilation-invariant).  Strict membership uses the same rows strictly.
Labels are for reading only.  On lattice points the t-dilate's rows are
⟨a, x⟩ ≥ c, c = t·b (t·b + 1 if strict): `integer_bounds` and the label-free
`normals` are the integer program that lattice kernels scan and key on, so
C_P's strict t-dilate (every b = −1) is its weak (t − 1)-dilate there.
`contains` also tests rational points, so it compares with t·b itself.

Lattice membership on a cube grid [−r, r]^n is decided by bitmask: bit k of
`row_mask(n, r, a, c)` says whether ⟨a, x_k⟩ ≥ c at the k-th point of
`grid_points(n, r)`, and `HalfspaceSystem.grid_mask(r, t)` ANDs its rows'
masks at c = t·b, the weak t-dilate; strict membership is only counted
(`ehrhart.count_points`) or tested (`contains`).
The comparisons are the same exact integer ones that `contains` makes, each
made once per (n, r, a, c) while the mask stays cached; the checks compare
and combine whole grids with one integer operation.  Nothing is built at
import.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, product
from operator import mul
from typing import Iterable, Sequence

from .linalg import dot


@dataclass(frozen=True, order=True)
class Halfspace:
    """One row ⟨a, x⟩ ≥ b."""

    a: tuple[int, ...]
    b: int
    label: str = ""

    def evaluate(self, x: Sequence[int | Fraction]):
        return dot(self.a, x)


@dataclass(frozen=True)
class HalfspaceSystem:
    n: int
    rows: tuple[Halfspace, ...]

    def __post_init__(self):
        if not isinstance(self.rows, tuple):  # keep the system hashable
            object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            if len(row.a) != self.n:
                raise ValueError(f"row {row} has wrong dimension (expected {self.n})")

    @cached_property
    def normals(self) -> tuple[int, ...]:
        """a_1, a_2, … flattened: the rows' normals, without b or labels."""
        return tuple([c for row in self.rows for c in row.a])

    def integer_bounds(self, t: int = 1, strict: bool = False) -> tuple[int, ...]:
        """Each row's c = t·b + strict: an integer x has ⟨a, x⟩ ≥ t·b (> if strict) iff ⟨a, x⟩ ≥ c."""
        return tuple([t * row.b + strict for row in self.rows])

    def contains(
        self, x: Sequence[int | Fraction], t: int = 1, strict: bool = False
    ) -> bool:
        """Does x satisfy every row of the t-dilate (strictly, if asked)?"""
        if len(x) != self.n:
            raise ValueError("dimension mismatch")
        for row in self.rows:
            value = sum(map(mul, row.a, x))
            bound = t * row.b
            if value < bound or (strict and value == bound):
                return False
        return True

    def grid_mask(self, r: int, t: int = 1) -> int:
        """The mask of the points of [−r, r]^n in the t-dilate, bit k for the
        k-th point of `grid_points(n, r)`."""
        mask = (1 << (2 * r + 1) ** self.n) - 1
        for row, c in zip(self.rows, self.integer_bounds(t)):
            mask &= row_mask(self.n, r, row.a, c)
        return mask

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "rows": [
                {"a": list(row.a), "b": row.b, "label": row.label}
                for row in self.rows
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "HalfspaceSystem":
        rows = tuple(
            Halfspace(tuple(row["a"]), row["b"], row.get("label", ""))
            for row in data["rows"]
        )
        return HalfspaceSystem(data["n"], rows)


# A sweep reads its points at one n, at r = 1 (and r = 2 for redundancy).
@lru_cache(maxsize=8)
def grid_points(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The lattice points of [−r, r]^n in `itertools.product` order, which is
    ascending lexicographic."""
    return tuple(product(range(-r, r + 1), repeat=n))


# Keyed on (n, r, a, c): the n = 3 sweep uses 111 entries, 300 n = 4 posets 241.
@lru_cache(maxsize=1024)
def row_mask(n: int, r: int, a: tuple[int, ...], c: int) -> int:
    """The int whose bit k is set iff ⟨a, x_k⟩ ≥ c, x_k the k-th point of
    `grid_points(n, r)`.

    >>> bin(row_mask(2, 1, (1, -1), 0))  # x1 ≥ x2 on {−1, 0, 1}²
    '0b111011001'
    """
    side = range(-r, r + 1)
    values = [0]
    for coefficient in a:  # the last coordinate varies fastest, as in product
        steps = [coefficient * v for v in side]
        values = [value + step for value in values for step in steps]
    return int("".join(["1" if value >= c else "0" for value in reversed(values)]), 2)


def select(items: Sequence, mask: int) -> list:
    """The items whose bit is set in `mask`, in their order."""
    return list(compress(items, map("1".__eq__, bin(mask)[:1:-1])))


def cube_rows(n: int) -> list[Halfspace]:
    """The 2n rows of [−1, 1]^n: x_i ≥ −1 and −x_i ≥ −1."""
    rows = []
    for i in range(1, n + 1):
        lower = tuple(1 if j == i else 0 for j in range(1, n + 1))
        upper = tuple(-1 if j == i else 0 for j in range(1, n + 1))
        rows.append(Halfspace(lower, -1, f"cube-lower({i})"))
        rows.append(Halfspace(upper, -1, f"cube-upper({i})"))
    return rows


def dedupe_rows(rows: Iterable[Halfspace]) -> tuple[Halfspace, ...]:
    """Drop repeated (a, b) rows, keeping the first label seen."""
    seen = set()
    out = []
    for row in rows:
        key = (row.a, row.b)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return tuple(out)
