"""Jordan–Hölder sets, natural labelings, descents, and the simplex triangulation.

JH(P) is the set of signed permutations whose one-line word, read as an
integer vector, weakly satisfies every poset inequality.  It is never empty,
indexes the unimodular simplices Δ_σ triangulating O_P, and its natural
descent statistic generates h*.  `jordan_holder` decides it by bitmask: each
root has a cached mask over the group's words, in ascending lex order, of
the words it holds on, and JH(P) is the AND of its roots' masks.

The half-open cells are taken with respect to one viewpoint, the reference
point p = (1, 2, …, n)/(n+1): a facet is removed exactly where NatDes says
so, and the generic beyond-facet construction is kept as a slow debug oracle
for that characterization.  The oracle carries p in integers, as
(1, 2, …, n) at scale n+1, so membership needs no rationals (half-open
membership is a sign test on facet forms; Köppe–Verdoolaege, EJC 15, 2008).

Which half-open cell holds a lattice point x depends on n and x alone: it is
the window `owner(x)`, read off by sorting the coordinates by (|x_j|, ±j).
`owner_table(n, t)` records, for each window, the mask of the points of the
cube dilate [−t, t]^n that it owns (bit k for the k-th point in `product`
order), built on first use and kept per (n, t), and proves before it
returns that the half-open cells of all 2^n·n! windows partition that cube,
with the generic oracle in agreement up to t = 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations_with_replacement, product
from operator import mul
from typing import Sequence

from .errors import InternalInconsistency
from .halfspaces import select
from .linalg import det
from .perms import SignedPermutation, act_poset, enumerate_signed_permutations
from .posets import SignedPoset, per_poset
from .roots import Root, inner_product


@dataclass(frozen=True)
class DescentData:
    natdes_set: frozenset[int]

    @property
    def natdes(self) -> int:
        return len(self.natdes_set)


def natdes(sigma: SignedPermutation) -> DescentData:
    """Descents of σ with the convention σ(0) = 0.

    >>> natdes(SignedPermutation((-1, 2))).natdes_set
    frozenset({0})
    >>> natdes(SignedPermutation((-1, -2))).natdes
    2
    """
    word = (0,) + sigma.images
    return DescentData(
        frozenset(i for i in range(sigma.n) if word[i] > word[i + 1])
    )


# Keyed on (n, α): 2n² roots at each n, and a sweep works at one n.
@lru_cache(maxsize=128)
def _word_mask(n: int, alpha: Root) -> int:
    """Bit k set iff ⟨α, (ω(1),…,ω(n))⟩ ≥ 0 for the k-th word ω of the group."""
    return int(
        "".join(
            ["1" if inner_product(alpha, omega.images) >= 0 else "0"
             for omega in reversed(enumerate_signed_permutations(n))]
        ),
        2,
    )


def jordan_holder(p: SignedPoset) -> list[SignedPermutation]:
    """All ω with ⟨α, (ω(1),…,ω(n))⟩ ≥ 0 for every α ∈ P, ascending lex.

    Nonempty for every signed poset; an empty result would contradict
    full-dimensionality of the order cone and raises InternalInconsistency.
    """
    group = enumerate_signed_permutations(p.n)
    mask = (1 << len(group)) - 1
    for alpha in p.roots:
        mask &= _word_mask(p.n, alpha)
    out = select(group, mask)
    if not out:
        raise InternalInconsistency(f"empty Jordan–Hölder set for {p!r}")
    return out


@per_poset
def jh_representative(p: SignedPoset) -> SignedPermutation:
    """The canonical (lexicographically greatest) element of JH(P)."""
    return max(jordan_holder(p))


def is_naturally_labeled(p: SignedPoset) -> bool:
    """Does the identity lie in JH(P)?  Tests id only — no scan."""
    ident = tuple(range(1, p.n + 1))
    return all(inner_product(alpha, ident) >= 0 for alpha in p.roots)


@per_poset
def naturalize(p: SignedPoset) -> tuple[SignedPermutation, SignedPoset]:
    """A witness ω ∈ JH(P) and the naturally labeled poset ωP.

    Applying any ω ∈ JH(P) to P produces a naturally labeled poset, because
    ⟨ωα, (1,…,n)⟩ = ⟨α, (ω(1),…,ω(n))⟩ ≥ 0 for all α ∈ P.  The canonical
    representative is used; the postcondition is re-checked and a failure
    raises InternalInconsistency.
    """
    omega = jh_representative(p)
    image = act_poset(omega, p)
    if not is_naturally_labeled(image):
        raise InternalInconsistency(
            f"act_poset({omega!r}, P) is not naturally labeled for {p!r}"
        )
    return omega, image


@dataclass(frozen=True)
class SimplexCell:
    """Δ_σ = {0 ≤ ε_1 x_{π_1} ≤ … ≤ ε_n x_{π_n} ≤ 1}, half-opened along NatDes."""

    sigma: SignedPermutation
    strict_positions: frozenset[int]

    @property
    def n(self) -> int:
        return self.sigma.n


def cell(sigma: SignedPermutation) -> SimplexCell:
    return SimplexCell(sigma, natdes(sigma).natdes_set)


def _chain_values(sigma: SignedPermutation, x: Sequence) -> list:
    return [e * x[i - 1] for i, e in zip(sigma.pi, sigma.eps)]


def half_open_contains(cell_: SimplexCell, x: Sequence, t: int = 1) -> bool:
    """Membership in the half-open cell t·ℍ_pΔ_σ.

    Position 0 governs 0 vs ε_1x_{π_1}; position i ≥ 1 governs the step from
    ε_ix_{π_i} to ε_{i+1}x_{π_{i+1}}; the top bound ≤ t is always weak.
    """
    values = _chain_values(cell_.sigma, x)
    previous = 0
    for i, value in enumerate(values):
        if value < previous or (value == previous and i in cell_.strict_positions):
            return False
        previous = value
    return values[-1] <= t


def cell_vertices(sigma: SignedPermutation) -> list[tuple[int, ...]]:
    """The n+1 vertices of Δ_σ: 0 and the partial sums of ε_ie_{π_i} from the top."""
    pi, eps = sigma.pi, sigma.eps
    out = [tuple([0] * sigma.n)]
    current = [0] * sigma.n
    for i in range(sigma.n - 1, -1, -1):
        current[pi[i] - 1] = eps[i]
        out.append(tuple(current))
    return out


# Keyed on the window: 2^n·n! of them at each n, 442 for n ≤ 4 together.
@lru_cache(maxsize=512)
def cell_determinant(sigma: SignedPermutation) -> int:
    """Determinant of the edge-vector matrix of Δ_σ (±1: the cells are unimodular)."""
    verts = cell_vertices(sigma)
    edges = [
        [b - a for a, b in zip(verts[i], verts[i + 1])] for i in range(sigma.n)
    ]
    return det(edges)


def half_open_contains_generic(sigma: SignedPermutation, x: Sequence, t: int = 1) -> bool:
    """Debug oracle: half-open membership via the literal beyond-facet rule.

    A facet row of Δ_σ is removed iff the viewpoint p = (1, …, n)/(n+1)
    violates it; membership then requires x to satisfy removed rows strictly
    and kept rows weakly, all at dilate t.  p is carried exactly in integers,
    as (1, …, n) at scale n + 1: the facet forms are linear, so only the top
    facet's right-hand side sees the scale.  The coordinates of p are
    nonzero, distinct and below 1, so p lies on no facet hyperplane.
    """
    n = sigma.n
    scale = n + 1
    values_x = _chain_values(sigma, x)
    values_q = _chain_values(sigma, range(1, scale))
    # Facet forms, written as (value at x, value at p):
    rows = [(values_x[0], values_q[0])]
    rows += [
        (values_x[i + 1] - values_x[i], values_q[i + 1] - values_q[i])
        for i in range(n - 1)
    ]
    for vx, vq in rows:
        if vx < 0 or (vx == 0 and vq < 0):
            return False
    # Top facet ε_n x_{π_n} ≤ t (p is compared at the unit dilate).
    top_x, top_q = values_x[-1], values_q[-1]
    return top_x < t or (top_x == t and top_q < scale)


def owner(x: Sequence[int]) -> tuple[int, ...]:
    """The window word of the half-open cell that holds the lattice point x.

    Sort the signed labels ±j (+ where x_j ≥ 0) by (|x_j|, ±j).  The chain
    values |x_j| then ascend, a zero at the front keeps ε_1 = +1, and ties
    ascend in the signed label, so no tie falls on a natural descent.

    >>> owner((0, -1))
    (1, -2)
    >>> owner((-2, 1, -1))
    (-3, 2, -1)
    """
    return tuple(
        label
        for _, label in sorted(
            (abs(v), j if v >= 0 else -j) for j, v in enumerate(x, start=1)
        )
    )


@dataclass(frozen=True)
class OwnerTable:
    """`cell_masks`: for each window that owns a point of the cube dilate
    [−t, t]^n, the mask of its points in `product` order.

    `counterexample` is None once the half-open cells of all 2^n·n! windows
    are proved to partition the cube dilate; otherwise it is a pair
    (x, window) at which the proof failed.
    """

    n: int
    t: int
    cell_masks: dict[tuple[int, ...], int]
    counterexample: tuple[tuple[int, ...], tuple[int, ...]] | None


# The generic-viewpoint oracle, the slowest test of the proof, runs up to here.
GENERIC_T_MAX = 2


# Built on first use, never at import.  A triangulation check asks for
# t = 1..max(3, n), so eight entries hold n = 3 and n = 4 together (3 + 4).
@lru_cache(maxsize=8)
def owner_table(n: int, t: int) -> OwnerTable:
    """The owners of [−t, t]^n, with the proof that the half-open cells partition it.

    The proof has two parts.  Every x lies in the half-open cell of owner(x).
    For every window w and every lattice point x of the closed cell t·Δ_w
    (the chains 0 ≤ v_1 ≤ … ≤ v_n ≤ t, C(n+t, n) of them), x lies in the
    half-open cell of w exactly when owner(x) = w, and the generic-viewpoint
    oracle agrees.  Both membership tests reject every point outside the
    closed cell, so together these cover every (window, point) pair: each
    point has exactly one half-open cell, the one `owner` names.  A failure
    is returned, not raised, so that the cache keeps it.
    """
    table = OwnerTable(n, t, {}, None)
    cells = {sigma.images: cell(sigma) for sigma in enumerate_signed_permutations(n)}
    owners = []  # the owner's cell of the point of index Σ_j (x_j + t)·(2t + 1)^(n−1−j)
    owned = {}  # window -> the indices of its points
    for k, x in enumerate(product(range(-t, t + 1), repeat=n)):
        w = owner(x)
        owners.append(cells[w])
        if not half_open_contains(cells[w], x, t):
            return replace(table, counterexample=(x, w))
        owned.setdefault(w, []).append(k)
    chains = list(combinations_with_replacement(range(t + 1), n))
    weights = [(2 * t + 1) ** (n - 1 - j) for j in range(n)]
    origin = t * sum(weights)
    for w, cell_ in cells.items():
        # Coordinate j takes the chain value at position |σ⁻¹(j)|, signed.
        slots = [(abs(k) - 1, 1 if k > 0 else -1) for k in cell_.sigma.inverse().images]
        for chain in chains:
            x = tuple([sign * chain[k] for k, sign in slots])
            inside = half_open_contains(cell_, x, t)
            if inside != (owners[origin + sum(map(mul, weights, x))] is cell_) or (
                t <= GENERIC_T_MAX and inside != half_open_contains_generic(cell_.sigma, x, t)
            ):
                return replace(table, counterexample=(x, w))
    masks = {}
    for w, ks in owned.items():  # set bytes, not ints: one big-int build a window
        bits = bytearray((len(owners) + 7) // 8)
        for k in ks:
            bits[k >> 3] |= 1 << (k & 7)
        masks[w] = int.from_bytes(bits, "little")
    return replace(table, cell_masks=masks)


def hstar_by_descents(p: SignedPoset) -> tuple[int, ...]:
    """h* of O_P as a descent generating polynomial over JH of a naturalization.

    h*(z) = Σ_{σ ∈ JH(P′)} z^{natdes(σ⁻¹)} with P′ = naturalize(P): the cell
    of O_{P′} owned by σ is cell(σ⁻¹), the one whose interior holds the
    scaled word (σ(1),…,σ(n))/(n+1), and its half-open version misses
    natdes(σ⁻¹) facets.  Taking descents of σ itself instead agrees up to
    n = 2 but diverges at n = 3 (e.g. P = {e3}), where only the inverse
    statistic matches the lattice-point count.  h* is an isomorphism
    invariant, so the choice of naturalization does not matter.
    """
    _, image = naturalize(p)
    counts = Counter(natdes(tau.inverse()).natdes for tau in jordan_holder(image))
    degree = max(counts)
    return tuple(counts.get(j, 0) for j in range(degree + 1))
