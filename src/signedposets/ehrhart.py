"""Exact lattice-point counting and Ehrhart/h* machinery.

Counting is a depth-first scan of an integer box in integers: each row's
partial sum bounds the next coordinate to an interval, which prunes branches
and counts the last coordinate without a loop.  The box comes from the rows
with a single nonzero coordinate, by one integer formula for every dilate;
no LP is solved here.  Every system the library counts has such rows on each
coordinate side (O_P's and C_P's cube rows among them).  Counts are cached on
the systems' integer rows in an LRU cache of fixed size.
Interpolation uses the nodes t = 0..n, the smallest exact determining set for
a degree-n polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import (
    InternalInconsistency,
    NegativeHstar,
    NonIntegralHstar,
    UnboundedSystem,
)
from .halfspaces import HalfspaceSystem, Rows, rows_from_key

Poly = tuple[Fraction, ...]


def poly_eval(coeffs: Sequence[Fraction | int], t) -> Fraction:
    """Evaluate Σ c_k t^k exactly."""
    total = Fraction(0)
    power = Fraction(1)
    for c in coeffs:
        total += c * power
        power *= t
    return total


def _integer_box(n: int, rows: Rows, t: int) -> list[tuple[int, int]]:
    """Integer bounds of each coordinate over the t-dilate, from its
    single-coordinate rows: c·x_i ≥ t·b gives x_i ≥ ⌈t·b/c⌉ when c > 0 and
    x_i ≤ ⌊t·b/c⌋ when c < 0."""
    lo: list[Optional[int]] = [None] * n
    hi: list[Optional[int]] = [None] * n
    for a, b in rows:
        support = [i for i, c in enumerate(a) if c != 0]
        if len(support) != 1:
            continue
        (i,) = support
        c = a[i]
        if c > 0:
            bound = -(-t * b // c)
            lo[i] = bound if lo[i] is None else max(lo[i], bound)
        else:
            bound = t * b // c
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
    return _integer_box(*rows_from_key(system.key), t)


@lru_cache(maxsize=4096)
def _count(key: tuple[int, ...], t: int, strict: bool) -> int:
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    n, rows = rows_from_key(key)
    box = _integer_box(n, rows, t)
    if any(lo > hi for lo, hi in box):
        return 0
    # In integers a strict row ⟨a, x⟩ > t·b is ⟨a, x⟩ ≥ t·b + 1.
    return _scan(box, [(a, t * b + strict) for a, b in rows])


def _scan(box: list[tuple[int, int]], rows: list[tuple[tuple[int, ...], int]]) -> int:
    """Points x of the box with ⟨a, x⟩ ≥ b for every row, depth first.

    Coordinates are fixed in order, keeping each row's partial sum.  At depth
    d a row bounds x_d: its partial sum, plus a_d·x_d, plus the most the
    coordinates after d can add within the box must reach b.  That interval
    prunes every branch no completion can satisfy, and at the last coordinate
    it is exact, so the last coordinate is counted, not looped over.  A row
    only needs checking at the coordinates where it is nonzero: between
    them its partial sum and bound do not move.
    """
    n = len(box)
    # levels[d]: (row, a_d, b − the largest Σ_{k > d} a_k·x_k over the box)
    # for each row nonzero at d.
    levels: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for r, (a, b) in enumerate(rows):
        reach = 0
        for d in reversed(range(n)):
            c = a[d]
            if c:
                levels[d].append((r, c, b - reach))
                lo, hi = box[d]
                reach += c * (hi if c > 0 else lo)
        if reach < b:  # no point of the box satisfies this row
            return 0
    partial = [0] * len(rows)
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

    Cached on the rows' integers (`system.key`), so systems that differ only
    in labels share an entry, in an LRU cache of 4,096 entries: the
    verification sweeps ask for the same counts many times (h*, reciprocity
    and the Gorenstein index all sit on the same values).
    `count_points.cache_info()` and `count_points.cache_clear()` work as for
    `functools.lru_cache`.  The box comes from single-coordinate rows only
    (see `integer_box`), so a system without them raises `UnboundedSystem`.
    """
    return _count(system.key, t, strict)


count_points.cache_info = _count.cache_info
count_points.cache_clear = _count.cache_clear


def ehrhart_polynomial(system: HalfspaceSystem) -> Poly:
    """Exact Lagrange interpolation of t ↦ |tP ∩ Z^n| through t = 0..n."""
    n = system.n
    counts = [count_points(system, t) for t in range(n + 1)]
    coeffs = [Fraction(0)] * (n + 1)
    for t, value in enumerate(counts):
        # Lagrange basis polynomial for node t over nodes 0..n.
        basis = [Fraction(1)]
        denom = Fraction(1)
        for s in range(n + 1):
            if s == t:
                continue
            # multiply basis by (x - s)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] -= c * s
                nxt[k + 1] += c
            basis = nxt
            denom *= t - s
        scale = Fraction(value) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    if coeffs[n] <= 0:
        raise InternalInconsistency(
            f"Ehrhart interpolation gave degree < {n} (leading {coeffs[n]}); "
            "the polytope is not full-dimensional"
        )
    return tuple(coeffs)


def hstar_from_counts(system: HalfspaceSystem) -> tuple[int, ...]:
    """h*-vector from raw counts: h*_j = Σ_i (−1)^i C(n+1, i) ehr(j−i).

    Integrality and nonnegativity are asserted; failures mean the counting
    kernel is broken and raise loudly.
    """
    n = system.n
    counts = [count_points(system, t) for t in range(n + 1)]
    hstar = []
    for j in range(n + 1):
        value = sum(
            (-1) ** i * math.comb(n + 1, i) * counts[j - i] for i in range(j + 1)
        )
        hstar.append(value)
    for value in hstar:
        if not isinstance(value, int):  # pragma: no cover - ints in, ints out
            raise NonIntegralHstar(f"h* = {hstar}")
        if value < 0:
            raise NegativeHstar(f"h* = {hstar}")
    while len(hstar) > 1 and hstar[-1] == 0:
        hstar.pop()
    return tuple(hstar)


def reciprocity_check(system: HalfspaceSystem) -> bool:
    """Ehrhart–Macdonald: (−1)^n ehr(−t) must equal the strict count, t = 1..n+1."""
    n = system.n
    ehr = ehrhart_polynomial(system)
    sign = (-1) ** n
    return all(
        sign * poly_eval(ehr, -t) == count_points(system, t, strict=True)
        for t in range(1, n + 2)
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


def format_rational(value: Fraction) -> str:
    """Serialize a rational as "p" or "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def poly_to_json(coeffs: Sequence[Fraction | int]) -> list:
    return [
        c if isinstance(c, int) else format_rational(c) for c in coeffs
    ]
