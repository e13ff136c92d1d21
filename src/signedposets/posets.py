"""Signed posets: positive-linear-closed, asymmetric subsets of B_n.

Closure is computed on root bitmasks by Reiner's pairwise rule (V. Reiner,
"Signed posets", JCTA 62, 1993): α, β ∈ P and cα + dβ ∈ B_n with c, d > 0
put that root in P.  Between two roots of B_n that rule yields α + β,
(α + β)/2, or α + 2β = (α + β) + β where α + β is itself a root; so the
fixpoint over one integer table per n, {α+β, (α+β)/2} ∩ B_n for every pair,
is the rule's fixpoint (`close_mask`).  It lies inside plc(S) = cone(S) ∩ B_n,
so `plc` raises AsymmetryViolation on a ±α pair in it; an asymmetric one is
a signed poset in Reiner's sense and equals plc(S).  `closed_by_filters`
and `derives` are the integer certificates by which `verify` proves that,
and the tests pin `plc` to the LP definition, `cone_contains`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple, Sequence

from .errors import AsymmetryViolation, CycleDetected
from .roots import Root, all_roots, inner_product


class RootKernel(NamedTuple):
    """Bit k of a mask stands for roots[k], in `all_roots(n)` order."""

    roots: tuple[Root, ...]
    index: dict[Root, int]
    made: tuple[tuple[int, ...], ...]  # made[i][j]: {α_i+α_j, (α_i+α_j)/2} ∩ B_n
    partners: tuple[int, ...]  # partners[i]: the j with made[i][j] nonempty
    negation: tuple[int, ...]  # negation[k] is the index of −roots[k]

    def mask(self, roots: Iterable[Root]) -> int:
        out = 0
        for alpha in roots:
            out |= 1 << self.index[alpha]
        return out

    def members(self, mask: int) -> frozenset[Root]:
        return frozenset(self.roots[k] for k in _bits(mask))

    def permuted(self, mask: int, perm: Sequence[int]) -> int:
        """The image of the mask under the root permutation k ↦ perm[k]."""
        out = 0
        for k in _bits(mask):
            out |= 1 << perm[k]
        return out

    def negated(self, mask: int) -> int:
        return self.permuted(mask, self.negation)

    def clash(self, mask: int) -> int:
        """The members whose negatives are members too (0 iff asymmetric)."""
        return mask & self.negated(mask)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def root_kernel(n: int) -> RootKernel:
    """The pair table of B_n, built with integer arithmetic on first use."""
    roots = tuple(all_roots(n))
    vectors = [alpha.vector(n) for alpha in roots]
    at = {v: k for k, v in enumerate(vectors)}
    made = []
    for i, a in enumerate(vectors):
        row = []
        for j, b in enumerate(vectors):
            total = tuple(x + y for x, y in zip(a, b))
            mask = 1 << at[total] if total in at else 0
            if j != i and all(v % 2 == 0 for v in total):
                half = tuple(v // 2 for v in total)
                if half in at:
                    mask |= 1 << at[half]
            row.append(mask)
        made.append(tuple(row))
    partners = tuple(sum(1 << j for j, mask in enumerate(row) if mask) for row in made)
    negation = tuple(at[tuple(-x for x in v)] for v in vectors)
    index = {alpha: k for k, alpha in enumerate(roots)}
    return RootKernel(roots, index, tuple(made), partners, negation)


def close_mask(kernel: RootKernel, mask: int, closed: int = 0) -> int:
    """Pairwise fixpoint of closed ∪ mask, where `closed` is already a fixpoint.

    Each root, when it joins, is combined with every root already in; so
    every pair of members is combined once.
    """
    made, partners = kernel.made, kernel.partners
    todo = mask & ~closed
    while todo:
        low = todo & -todo
        todo ^= low
        closed |= low
        i = low.bit_length() - 1
        row = made[i]
        hits = closed & partners[i]
        while hits:
            bit = hits & -hits
            hits ^= bit
            todo |= row[bit.bit_length() - 1]
        todo &= ~closed
    return closed


def cone_contains(gamma: Root, s: Iterable[Root], n: int) -> bool:
    """Is γ a nonnegative rational combination of the roots in s?  (The LP.)

    >>> from .roots import parse_root as r
    >>> cone_contains(r("+2"), {r("-1+2"), r("+1+2")}, 2)
    True
    >>> cone_contains(r("+1"), {r("-1+2"), r("+1+2")}, 2)
    False
    """
    from .linalg import nonneg_combination

    s = list(s)
    if gamma in s:
        return True
    if not s:
        return False
    vectors = [alpha.vector(n) for alpha in s]
    return nonneg_combination(vectors, gamma.vector(n)) is not None


def plc(s: Iterable[Root], n: int) -> frozenset[Root]:
    """Positive linear closure of s inside B_n: {γ ∈ B_n : γ ∈ cone(s)}.

    Raises AsymmetryViolation, naming the smallest offending root, when the
    closure contains some ±α pair: the roots s then span no signed poset.

    >>> from .roots import parse_root as r
    >>> sorted(a.token() for a in plc([r("-1+2"), r("+1+2")], 2))
    ['+1+2', '+2', '-1+2']
    """
    s = frozenset(s)
    for alpha in s:
        if alpha.max_index > n:
            raise IndexError(f"root {alpha} does not fit in dimension {n}")
    kernel = root_kernel(n)
    closed = close_mask(kernel, kernel.mask(s))
    clash = kernel.clash(closed)
    if clash:
        raise AsymmetryViolation(kernel.roots[(clash & -clash).bit_length() - 1])
    return kernel.members(closed)


@dataclass(frozen=True)
class SignedPoset:
    """A signed poset: ground size n plus a closed asymmetric root set.

    The constructor checks asymmetry and index bounds (cheap); closure is the
    responsibility of the factory functions (`from_generators`), and
    `verify.check_minimal_representation` proves it.
    """

    n: int
    roots: frozenset[Root]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground size must be positive")
        object.__setattr__(self, "roots", frozenset(self.roots))
        for alpha in self.roots:
            if alpha.max_index > self.n:
                raise IndexError(f"root {alpha} does not fit in dimension {self.n}")
            if -alpha in self.roots:
                raise AsymmetryViolation(alpha)

    def sorted_roots(self) -> list[Root]:
        return sorted(self.roots)

    def tokens(self) -> list[str]:
        return [alpha.token() for alpha in self.sorted_roots()]

    def __contains__(self, alpha: Root) -> bool:
        return alpha in self.roots

    def __len__(self) -> int:
        return len(self.roots)

    def __repr__(self) -> str:
        return f"SignedPoset(n={self.n}, {{{' '.join(self.tokens())}}})"


def from_generators(n: int, generators: Iterable[Root]) -> SignedPoset:
    """The signed poset plc(generators); AsymmetryViolation if there is none."""
    return SignedPoset(n, plc(generators, n))


# The constructors that the checks of one poset call again and again keep
# their value per frozen poset.  One operation touches at most P, its
# naturalized image and P̂, so four entries each hold them all.
per_poset = lru_cache(maxsize=4)


@per_poset
def minimal_representation(p: SignedPoset) -> frozenset[Root]:
    """The unique minimal subset M ⊆ P with plc(M) = P.

    M = {α ∈ P : α ∉ closure(P ∖ α)}, the roots that are not nonnegative
    combinations of the others.  That M regenerates P is the theory;
    `verify.check_minimal_representation` proves it, with no LP.
    """
    kernel = root_kernel(p.n)
    full = kernel.mask(p.roots)
    return kernel.members(
        sum(1 << k for k in _bits(full) if not close_mask(kernel, full ^ 1 << k) >> k & 1)
    )


@lru_cache(maxsize=None)
def _negative_masks(n: int) -> tuple[int, ...]:
    """For each x ∈ {−1, 0, 1}ⁿ, the mask of the roots α with ⟨α, x⟩ < 0."""
    roots = root_kernel(n).roots
    return tuple(
        sum(1 << k for k, alpha in enumerate(roots) if inner_product(alpha, x) < 0)
        for x in product((-1, 0, 1), repeat=n)
    )


def _separated(mask: int, n: int) -> int:
    """The mask of the roots negative at some x ∈ {−1, 0, 1}ⁿ where the roots
    of `mask` are nonnegative: none of them is in their cone (Farkas' lemma)."""
    out = 0
    for negative in _negative_masks(n):
        if not negative & mask:
            out |= negative
    return out


def closed_by_filters(p: SignedPoset) -> bool:
    """Whether each root outside P is negative at a signed filter of P."""
    mask = root_kernel(p.n).mask(p.roots)
    return _separated(mask, p.n) | mask == (1 << 2 * p.n**2) - 1  # 2n² roots


def derives(m: frozenset, p: SignedPoset) -> bool:
    """Whether M ⊆ P reaches all of P, each new root γ as α + β or (α + β)/2
    of roots α, β reached before it (β = γ − α or 2γ − α), so P ⊆ cone(M).
    On integer vectors, not the kernel's table."""
    reached = {alpha.vector(p.n) for alpha in m}
    todo = {alpha.vector(p.n) for alpha in p.roots} - reached
    while new := {
        g for g in todo for a in reached for k in (1, 2)
        if tuple(k * x - y for x, y in zip(g, a)) in reached
    }:
        reached |= new
        todo -= new
    return not todo and m <= p.roots


def embed_classical_poset(
    n: int, relations: Iterable[tuple[int, int]]
) -> SignedPoset:
    """Embed a partial order on [n] as the signed poset {e_j − e_i : i < j in Π}.

    `relations` lists ordered pairs (i, j) meaning i < j in the order; they may
    or may not already be transitively closed.  The closure is transitive,
    since (e_j − e_i) + (e_k − e_j) = e_k − e_i, so a directed cycle closes
    to a symmetric set; CycleDetected then, and for a relation (i, i).
    """
    gens = []
    for i, j in relations:
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"relation ({i},{j}) out of range for [{n}]")
        if i == j:
            raise CycleDetected(f"element {i} is below itself")
        lo, hi = min(i, j), max(i, j)
        # e_j − e_i: sign +1 at j, −1 at i.
        gens.append(Root.pair(lo, 1 if lo == j else -1, hi, 1 if hi == j else -1))
    try:
        return from_generators(n, gens)
    except AsymmetryViolation as exc:
        raise CycleDetected(f"the relations have a directed cycle: {exc}") from exc


def classical_relations(p: SignedPoset) -> set[tuple[int, int]]:
    """The pairs (i, j) with e_j − e_i ∈ P (inverse view of embed_classical_poset)."""
    out = set()
    for alpha in p.roots:
        if len(alpha.entries) == 2:
            (i, si), (j, sj) = alpha.entries
            if si == -1 and sj == 1:
                out.add((i, j))
            elif si == 1 and sj == -1:
                out.add((j, i))
    return out


def bidirected_dot(p: SignedPoset) -> str:
    """P's bidirected graph in DOT: one edge per root, ±e_j a loop on j and a
    two-index root an edge on its support.  The root's coefficient signs
    label the ends, and roots outside the minimal representation are dotted.
    """
    minimal = minimal_representation(p)
    lines = ["graph signed_poset {", "  node [shape=circle];"]
    lines += [f"  {v};" for v in range(1, p.n + 1)]
    for alpha in p.sorted_roots():
        style = "solid" if alpha in minimal else "dotted"
        ends = [(i, "+" if s > 0 else "-") for i, s in alpha.entries]
        if len(ends) == 1:
            ((v, s),) = ends
            lines.append(f'  {v} -- {v} [style={style}, label="{s}"];')
        else:
            (u, su), (v, sv) = ends
            lines.append(
                f'  {u} -- {v} [style={style}, taillabel="{su}", headlabel="{sv}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
