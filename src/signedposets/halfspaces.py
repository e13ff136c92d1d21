"""Halfspace systems: the universal carrier for cones and polytopes here.

A system is a finite list of weak inequalities ⟨a, x⟩ ≥ b with integer data.
Dilation by t scales the right-hand sides (rows with b = 0 — the poset rows —
are dilation-invariant).  Strict membership uses the same rows strictly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    def contains(
        self, x: Sequence[int | Fraction], t: int = 1, strict: bool = False
    ) -> bool:
        """Does x satisfy every row of the t-dilate (strictly, if asked)?"""
        for row in self.rows:
            value = row.evaluate(x)
            bound = t * row.b
            if value < bound or (strict and value == bound):
                return False
        return True

    def without(self, index: int) -> "HalfspaceSystem":
        """The system with one row dropped (for redundancy probing)."""
        return HalfspaceSystem(
            self.n, tuple(r for i, r in enumerate(self.rows) if i != index)
        )

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
