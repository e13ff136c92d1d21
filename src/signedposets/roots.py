"""Roots of the rank-n type-B root system.

A root is either a signed unit vector ±e_i or a signed combination
±e_i ± e_j with i < j.  Roots are immutable and canonically ordered by their
entry tuples, so sets of roots have structural (= vector) equality and every
sorted listing is deterministic.

The text token grammar used by the CLI and poset files writes a root as its
signed indices concatenated, smaller index first: ``+2``, ``-1``, ``+1+2``,
``-1+2``, ``-1-2``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence


@dataclass(frozen=True, order=True)
class Root:
    """One element of B_n: ``entries`` is ((i, s),) or ((i, s_i), (j, s_j)) with i < j."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.entries) not in (1, 2):
            raise ValueError(f"a root has one or two entries, got {self.entries!r}")
        for idx, sign in self.entries:
            if idx < 1:
                raise ValueError(f"root indices are 1-based, got {idx}")
            if sign not in (1, -1):
                raise ValueError(f"root signs are +1 or -1, got {sign}")
        if len(self.entries) == 2 and self.entries[0][0] >= self.entries[1][0]:
            raise ValueError(f"root indices must be strictly increasing: {self.entries!r}")

    @staticmethod
    def unit(i: int, sign: int = 1) -> "Root":
        return Root(((i, sign),))

    @staticmethod
    def pair(i: int, si: int, j: int, sj: int) -> "Root":
        return Root(((i, si), (j, sj)))

    def __neg__(self) -> "Root":
        return Root(tuple((i, -s) for i, s in self.entries))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def max_index(self) -> int:
        return self.entries[-1][0]

    def sign_at(self, i: int) -> int:
        """Sign of coordinate i (0 when i is not in the support)."""
        for idx, sign in self.entries:
            if idx == i:
                return sign
        return 0

    def vector(self, n: int) -> tuple[int, ...]:
        """The denoted vector in Z^n."""
        if self.max_index > n:
            raise IndexError(f"root {self} does not fit in dimension {n}")
        v = [0] * n
        for i, s in self.entries:
            v[i - 1] = s
        return tuple(v)

    def token(self) -> str:
        # Interned: reports that keep their posets' tokens share the strings.
        return sys.intern("".join(f"{'+' if s > 0 else '-'}{i}" for i, s in self.entries))

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.token()

    def __repr__(self) -> str:
        return f"Root({self.token()!r})"


_TOKEN_RE = re.compile(r"^([+-]\d+)([+-]\d+)?$")


def parse_root(token: str) -> Root:
    """Parse a text token like ``-1+2`` into a Root.

    >>> parse_root("-1+2")
    Root('-1+2')
    >>> parse_root("+2").entries
    ((2, 1),)
    """
    m = _TOKEN_RE.match(token.strip())
    if not m:
        raise ValueError(f"malformed root token {token!r}")
    parts = [p for p in m.groups() if p is not None]
    entries = tuple((int(p[1:]), 1 if p[0] == "+" else -1) for p in parts)
    if len(entries) == 2 and entries[0][0] >= entries[1][0]:
        raise ValueError(f"two-index token must list the smaller index first: {token!r}")
    return Root(entries)


def from_vector(vec: Sequence[int]) -> Root:
    """Inverse of Root.vector, for vectors that actually denote roots."""
    entries = tuple((i + 1, v) for i, v in enumerate(vec) if v != 0)
    if not all(v in (1, -1) for _, v in entries):
        raise ValueError(f"{vec!r} is not a root vector")
    return Root(entries)


def all_roots(n: int) -> list[Root]:
    """All 2n² roots of B_n in canonical (sorted) order."""
    out = []
    for i in range(1, n + 1):
        for s in (1, -1):
            out.append(Root.unit(i, s))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for si in (1, -1):
                for sj in (1, -1):
                    out.append(Root.pair(i, si, j, sj))
    return sorted(out)


def antipodal_pairs(n: int) -> Iterator[tuple[Root, Root]]:
    """The n² pairs {α, −α}, each listed once with the smaller root first."""
    seen = set()
    for alpha in all_roots(n):
        if alpha in seen:
            continue
        seen.add(alpha)
        seen.add(-alpha)
        yield (alpha, -alpha) if alpha < -alpha else (-alpha, alpha)


def inner_product(alpha: Root, x: Sequence[int | Fraction]):
    """⟨α, x⟩ for a rational vector x of length n.

    >>> inner_product(parse_root("-1+2"), (3, 5))
    2
    """
    total = 0
    for i, s in alpha.entries:
        if i > len(x):
            raise IndexError(f"root index {i} out of range for vector of length {len(x)}")
        total += s * x[i - 1]
    return total
