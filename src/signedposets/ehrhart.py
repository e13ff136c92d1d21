"""Exact lattice-point counting and Ehrhart/h* machinery.

Counting is a depth-first scan of an integer box in integers: each row's
partial sum bounds the next coordinate to an interval, which prunes branches
and counts the last coordinate without a loop.  It reads only the integer
program ⟨a, x⟩ ≥ c, the rows' normals and the bounds c of
`HalfspaceSystem.integer_bounds`, with no t and no strictness, and counts
are cached on that program in an LRU cache of fixed size.  The box comes
from the rows with a single nonzero coordinate, by one integer formula on
those bounds; no LP is solved here.  Every system the library counts has
such rows on each coordinate side (O_P's and C_P's cube rows among them).
Ehrhart data has one form, the integer h* of the counts at t = 0..n; nothing
is interpolated.  ehr(t) = Σ_j h*_j·C(t+n−j, n) is evaluated in integers at
any integer t, and only `ehrhart_polynomial` divides, by n!, into `Fraction`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import InternalInconsistency, NegativeHstar, UnboundedSystem
from .halfspaces import HalfspaceSystem


def _integer_box(n: int, normals: tuple, bounds: tuple) -> list[tuple[int, int]]:
    """Integer bounds of each coordinate from the single-coordinate rows:
    a·x_i ≥ c gives x_i ≥ ⌈c/a⌉ when a > 0 and x_i ≤ ⌊c/a⌋ when a < 0."""
    lo: list[Optional[int]] = [None] * n
    hi: list[Optional[int]] = [None] * n
    for k, c in enumerate(bounds):
        row = normals[k * n : k * n + n]
        support = [i for i, a in enumerate(row) if a != 0]
        if len(support) != 1:
            continue
        (i,) = support
        a = row[i]
        if a > 0:
            bound = -(-c // a)
            lo[i] = bound if lo[i] is None else max(lo[i], bound)
        else:
            bound = c // a
            hi[i] = bound if hi[i] is None else min(hi[i], bound)
    for i in range(n):
        if lo[i] is None or hi[i] is None:
            side = "below" if lo[i] is None else "above"
            raise UnboundedSystem(
                f"no single-coordinate row bounds coordinate {i + 1} {side}; "
                "cannot count lattice points"
            )
    return list(zip(lo, hi))


def integer_box(system: HalfspaceSystem, t: int) -> list[tuple[int, int]]:
    """Per-coordinate integer bounds enclosing the t-dilate, t = 0 included.

    Only rows with a single nonzero coordinate give bounds; a system with a
    coordinate side that no such row bounds raises `UnboundedSystem`, even
    when rows on several coordinates bound it.
    """
    return _integer_box(system.n, system.normals, system.integer_bounds(t))


@lru_cache(maxsize=4096)
def _count(n: int, normals: tuple, bounds: tuple) -> int:
    """Points x of the integer box with ⟨a, x⟩ ≥ b for every row, depth first.

    Coordinates are fixed in order, keeping each row's partial sum.  At depth
    d a row bounds x_d: its partial sum, plus a_d·x_d, plus the most the
    coordinates after d can add within the box must reach b.  That interval
    prunes every branch no completion can satisfy, and at the last coordinate
    it is exact, so the last coordinate is counted, not looped over.  A row
    only needs checking at the coordinates where it is nonzero: between
    them its partial sum and bound do not move.
    """
    box = _integer_box(n, normals, bounds)
    if any(lo > hi for lo, hi in box):
        return 0
    # levels[d]: (row, a_d, b − the largest Σ_{k > d} a_k·x_k over the box)
    # for each row nonzero at d.
    levels: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for r, b in enumerate(bounds):
        reach = 0
        for d in reversed(range(n)):
            c = normals[r * n + d]
            if c:
                levels[d].append((r, c, b - reach))
                lo, hi = box[d]
                reach += c * (hi if c > 0 else lo)
        if reach < b:  # no point of the box satisfies this row
            return 0
    partial = [0] * len(bounds)
    last = n - 1

    def count(d: int) -> int:
        lo, hi = box[d]
        for r, c, need in levels[d]:
            gap = need - partial[r]  # c·x_d ≥ gap
            if c > 0:
                lo = max(lo, -(-gap // c))
            else:
                hi = min(hi, gap // c)
        if lo > hi:
            return 0
        if d == last:
            return hi - lo + 1
        touched = levels[d]
        for r, c, _ in touched:
            partial[r] += c * lo
        total = 0
        for _ in range(lo, hi + 1):
            total += count(d + 1)
            for r, c, _ in touched:
                partial[r] += c
        for r, c, _ in touched:
            partial[r] -= c * (hi + 1)
        return total

    return count(0)


def count_points(system: HalfspaceSystem, t: int, strict: bool = False) -> int:
    """|tP ∩ Z^n| (or the strict-interior count) by a depth-first box scan.

    Cached on the integer program scanned, `system.normals` and
    `system.integer_bounds(t, strict)`, in an LRU of 4,096 entries.  Systems
    that differ only in labels share an entry, and so do a strict count and
    a weak one with equal bounds, as C_P's strict count at t and weak count
    at t − 1 are; h*, reciprocity and the Gorenstein index all sit on the
    same values.  `count_points.cache_info()` and `count_points.cache_clear()`
    work as for `functools.lru_cache`.  The box comes from single-coordinate
    rows only (see `integer_box`), so a system without them raises
    `UnboundedSystem`.
    """
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    return _count(system.n, system.normals, system.integer_bounds(t, strict))


count_points.cache_info = _count.cache_info
count_points.cache_clear = _count.cache_clear


def _hstar(system: HalfspaceSystem) -> list[int]:
    """The raw h*-vector of the counts at t = 0..n, untrimmed and unchecked:
    h*_j = Σ_i (−1)^i C(n+1, i) ehr(j−i), j = 0..n."""
    n = system.n
    counts = [count_points(system, t) for t in range(n + 1)]
    return [
        sum((-1) ** i * math.comb(n + 1, i) * counts[j - i] for i in range(j + 1))
        for j in range(n + 1)
    ]


def ehrhart_values(system: HalfspaceSystem, ts: Iterable[int]) -> list[int]:
    """ehr(t) = Σ_j h*_j·C(t+n−j, n) at each integer t, negative t included.

    C(x, n) = x(x−1)…(x−n+1)/n! is exact in integers.  The h* is raw, so a
    non-lattice polytope (h* may be negative) still evaluates.  On [−1, 1]²,
    h* = (1, 6, 1), ehr(t) = 1 + 4t + 4t² and (−1)²·ehr(−t) = (2t − 1)²:

    >>> from signedposets.halfspaces import cube_rows
    >>> square = HalfspaceSystem(2, tuple(cube_rows(2)))
    >>> hstar_from_counts(square)
    (1, 6, 1)
    >>> ehrhart_values(square, range(4))
    [1, 9, 25, 49]
    >>> ehrhart_values(square, (-1, -2, -3))
    [1, 9, 25]
    """
    n, hstar = system.n, _hstar(system)
    return [
        sum(h * math.prod(range(t - j + 1, t + n - j + 1)) for j, h in enumerate(hstar))
        // math.factorial(n)
        for t in ts
    ]


def ehrhart_polynomial(system: HalfspaceSystem) -> tuple[Fraction, ...]:
    """Coefficients of ehr(t) = Σ_j h*_j·C(t+n−j, n), lowest degree first.

    The sum is expanded in integers and divided by n! once.  Its leading
    coefficient Σ h*/n! must be positive, or the polytope is not
    full-dimensional.

    >>> from signedposets.halfspaces import cube_rows
    >>> square = HalfspaceSystem(2, tuple(cube_rows(2)))
    >>> [str(c) for c in ehrhart_polynomial(square)]  # 1 + 4t + 4t²
    ['1', '4', '4']
    """
    n = system.n
    numerators = [0] * (n + 1)
    for j, h in enumerate(_hstar(system)):
        product = [1]  # coefficients of ∏ (t + c), lowest degree first
        for c in range(1 - j, n - j + 1):
            product = [c * lo + hi for lo, hi in zip(product + [0], [0] + product)]
        for k, value in enumerate(product):
            numerators[k] += h * value
    if numerators[n] <= 0:
        raise InternalInconsistency(
            f"Ehrhart polynomial of degree < {n} (Σ h* = {numerators[n]}); "
            "the polytope is not full-dimensional"
        )
    return tuple(Fraction(c, math.factorial(n)) for c in numerators)


def hstar_from_counts(system: HalfspaceSystem) -> tuple[int, ...]:
    """h*-vector from the counts at t = 0..n, trailing zeros trimmed.

    A negative entry means the counting kernel is broken (or the polytope is
    not a lattice polytope) and raises `NegativeHstar`.
    """
    hstar = _hstar(system)
    if any(value < 0 for value in hstar):
        raise NegativeHstar(f"h* = {hstar}")
    while len(hstar) > 1 and hstar[-1] == 0:
        hstar.pop()
    return tuple(hstar)


def reciprocity_check(system: HalfspaceSystem) -> bool:
    """Ehrhart–Macdonald: (−1)^n ehr(−t) must equal the strict count, t = 1..n+1."""
    n = system.n
    values = ehrhart_values(system, range(-1, -n - 2, -1))
    return all(
        (-1) ** n * value == count_points(system, t, strict=True)
        for t, value in enumerate(values, 1)
    )


def gorenstein_index_by_counts(system: HalfspaceSystem) -> Optional[int]:
    """Smallest k with strict(t<k) = 0, strict(k) = 1, strict(k+t) = ehr(t) for t ≤ n.

    Returns None when no such k ≤ n+1 exists.  (The first interior point of
    any full-dimensional polytope here appears by dilate n+1, so the search
    range is complete.)
    """
    n = system.n
    weak = [count_points(system, t) for t in range(n + 1)]
    for k in range(1, n + 2):
        if count_points(system, k - 1, strict=True) != 0:
            return None
        if count_points(system, k, strict=True) != 1:
            continue
        if all(
            count_points(system, k + t, strict=True) == weak[t] for t in range(n + 1)
        ):
            return k
    return None


def is_palindromic(hstar: Sequence[int]) -> bool:
    """h_j = h_{s−j} on the trimmed vector of degree s."""
    return list(hstar) == list(reversed(hstar))


def is_unimodal(hstar: Sequence[int]) -> bool:
    """Coefficients rise (weakly) then fall (weakly)."""
    i = 1
    while i < len(hstar) and hstar[i - 1] <= hstar[i]:
        i += 1
    while i < len(hstar) and hstar[i - 1] >= hstar[i]:
        i += 1
    return i == len(hstar)


def poly_to_json(coeffs: Sequence[Fraction | int]) -> list:
    """Integers as they are, fractions as their text "p" or "p/q"."""
    return [c if isinstance(c, int) else str(c) for c in coeffs]
