"""Fischer representation on [−n, n] and the Gorenstein characterization.

A set of roots turns into a classical poset on the 2n+1 labels −n..n by one
rule, transitively closed by Warshall's algorithm: u < v when c(v) − c(u) is
one of the roots, for the label map c(0) = 0, c(±i) = ±e_i (`label_vector`).
Ĝ(P) comes from all of a signed poset P, Ĝ(M) from its minimal
representation M.  O_P is Gorenstein exactly when Ĝ(M) is graded (checked on
every n ≤ 4 poset), the signed analogue of Hibi's "O_P is Gorenstein iff P̂
is pure".  `is_graded` decides it in one pass over the labels' heights,
without listing the maximal chains, and `verify.check_gorenstein_triple`
cross-checks it against both the palindromic-h* and the counting
characterizations.  Ĝ(P), which has every relation P implies, is the one
held to Fischer's central symmetry, and `chains` reads the signed chains
off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CycleDetected
from .halfspaces import Halfspace, HalfspaceSystem, cube_rows, dedupe_rows
from .posets import SignedPoset, minimal_representation, per_poset


@dataclass(frozen=True)
class ClassicalPoset:
    """Strict order on the labels −n..n, stored transitively closed."""

    n: int
    lt: frozenset[tuple[int, int]]

    def elements(self) -> list[int]:
        return list(range(-self.n, self.n + 1))

    def less(self, u: int, v: int) -> bool:
        return (u, v) in self.lt

    def covers(self) -> list[tuple[int, int]]:
        """Pairs u < v with nothing strictly between."""
        out = []
        for u, v in self.lt:
            if not any(self.less(u, w) and self.less(w, v) for w in self.elements()):
                out.append((u, v))
        return sorted(out)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "covers": [list(c) for c in self.covers()]}


@per_poset
def fischer_representation(p: SignedPoset) -> ClassicalPoset:
    """Ĝ(P): u < v for each root c(v) − c(u) of P, transitively closed,
    antisymmetry asserted.

    A root s·e_i + r·e_j gives −s·i < r·j and −r·j < s·i; a root s·e_i gives
    −s·i < 0 < s·i, the same rule with r·j read as the label 0.  Since P is
    closed, u < v in Ĝ(P) with |u| ≠ |v| holds exactly when c(v) − c(u) ∈ P:
    a path of roots from u to v sums to c(v) − c(u), a root in cone(P).
    """
    return _fischer_closure(p, p.roots)


@per_poset
def minimal_fischer_representation(p: SignedPoset) -> ClassicalPoset:
    """Ĝ(M): the same rules on the minimal representation M of P only.

    Its gradedness decides whether O_P is Gorenstein.  A root of P ∖ M is a
    positive combination of others and cuts no facet of O_P, but in Ĝ(P) its
    relations still add covers.  For P = plc(−e1 ± e2, −e1 ± e3, −e1 ± e4,
    −e2 + e3, −e2 − e4, −e3 − e4), −e1 = ½(−e1 + e2) + ½(−e1 − e2) is not in
    M; Ĝ(P) has the chain 1 < 0 < −1 next to chains of length 4 and is not
    graded, although O_P is Gorenstein (h* = 1 + 6z + z²).  Ĝ(M) is graded.
    Since plc(M) = P, the rows of Ĝ(M) still describe O_P.  Ĝ(M) need not
    satisfy `check_fischer_symmetry`'s rule −i<i ⟹ −i<0<i, which comes from
    the closure of P: for fig1, M = {−e1+e2, e1+e2} gives −2 < 2 and leaves
    out e2.
    """
    return _fischer_closure(p, minimal_representation(p))


def _fischer_closure(p: SignedPoset, roots) -> ClassicalPoset:
    """Warshall's closure: `above[u]` collects the labels above u, and every
    u is routed through every w once; a label above itself is a cycle."""
    labels = range(-p.n, p.n + 1)
    above: dict[int, set[int]] = {u: set() for u in labels}
    for alpha in roots:
        # The entries s·e_i read as labels s·i; a unit root's second label is 0.
        a, b, *_ = [s * i for i, s in alpha.entries] + [0]
        above[-a].add(b)
        above[-b].add(a)
    for w in labels:
        for u in labels:
            if w in above[u]:
                above[u] |= above[w]
    for u in labels:
        if u in above[u]:
            raise CycleDetected(f"Fischer relations of {p!r} contain a cycle through {u}")
    return ClassicalPoset(p.n, frozenset((u, v) for u in labels for v in above[u]))


def check_fischer_symmetry(q: ClassicalPoset) -> bool:
    """Central symmetry (u<v ⟺ −v<−u) and −i<i ⟹ −i<0<i."""
    for u, v in q.lt:
        if (-v, -u) not in q.lt:
            return False
    for i in q.elements():
        if q.less(-i, i) and not (q.less(-i, 0) and q.less(0, i)):
            return False
    return True


@dataclass(frozen=True)
class GradedReport:
    graded: bool
    max_chain_length: int
    rank: Optional[dict[int, int]] = None


def is_graded(q: ClassicalPoset) -> GradedReport:
    """Do all maximal chains have one even length?  Ranks are the heights.

    The height of v is its longest chain from below, found in order of how
    many labels lie below.  The maximal chains share one length exactly when
    every cover raises the height by one and every maximal element has the
    same height, which is then that length and the rank of each label.  The
    zero label, when it is comparable to nothing, is left out of the maximal
    elements: it carries no polytope coordinate, so its trivial chain cannot
    obstruct the Gorenstein property.  (Isolated nonzero labels still count —
    an untouched coordinate contributes a [−1, 1] factor whose index is
    pinned at 1.)  Whenever the zero label is comparable to anything, its
    chains pass through it symmetrically and the evenness condition is
    automatic, so the two readings agree there.

    fig1's Ĝ(M) is the chain −2 < −1 < 2 beside −2 < 1 < 2, with 0 apart:

    >>> from signedposets.posets import from_generators
    >>> from signedposets.roots import parse_root
    >>> fig1 = from_generators(2, [parse_root("-1+2"), parse_root("+1+2")])
    >>> is_graded(minimal_fischer_representation(fig1))
    GradedReport(graded=True, max_chain_length=2, rank={-2: 0, -1: 1, 0: 0, 1: 1, 2: 2})
    """
    below: dict[int, list[int]] = {v: [] for v in q.elements()}
    for u, v in q.lt:
        below[v].append(u)
    height: dict[int, int] = {}
    for v in sorted(below, key=lambda v: len(below[v])):
        height[v] = max((height[u] + 1 for u in below[v]), default=0)
    maximal = set(below) - {u for u, _ in q.lt}
    tops = {height[v] for v in maximal if v or below[v]}  # an isolated 0 aside
    length = max(height.values())
    if (len(tops) > 1 or length % 2
            or any(height[v] != height[u] + 1 for u, v in q.covers())):
        return GradedReport(False, length)
    return GradedReport(True, length, {v: height[v] for v in below})


def gorenstein_index_from_grading(report: GradedReport) -> Optional[int]:
    """Chains of length 2k−2 mean Gorenstein index k (`is_graded` reports
    graded only for an even common length)."""
    if not report.graded:
        return None
    return report.max_chain_length // 2 + 1


def canonical_interior_point(report: GradedReport, n: int) -> tuple[int, ...]:
    """(ρ(1)−m, …, ρ(n)−m) with m the middle rank: the unique interior point
    of the k-dilate.  The middle rank is half the common chain length; it
    equals ρ(0) whenever the zero label is comparable to anything.
    """
    if not report.graded or report.rank is None:
        raise ValueError("interior point requires a graded representation")
    base = report.max_chain_length // 2
    return tuple(report.rank[i] - base for i in range(1, n + 1))


def is_gorenstein(p: SignedPoset) -> bool:
    """Gradedness of Ĝ(M), the fast answer.

    `verify.check_gorenstein_triple` cross-checks it against the counting
    Gorenstein index and the palindromicity of h*.
    """
    return is_graded(minimal_fischer_representation(p)).graded


def label_vector(label: int, n: int) -> tuple[int, ...]:
    """Fischer's label map: c(0) = 0, c(i) = e_i and c(−i) = −e_i in Z^n."""
    vec = [0] * n
    if label:
        vec[abs(label) - 1] = 1 if label > 0 else -1
    return tuple(vec)


def relation_vector(u: int, v: int, n: int) -> tuple[int, ...]:
    """c(v) − c(u): the row of a relation u < v, and for |u| ≠ |v| in Ĝ(P)
    the root of P behind it."""
    return tuple(x - y for x, y in zip(label_vector(v, n), label_vector(u, n)))


def fischer_halfspaces(q: ClassicalPoset) -> HalfspaceSystem:
    """O_{Ĝ(P)}: cube rows plus one row ⟨c(v) − c(u), x⟩ ≥ 0 per relation u < v.

    Equivalent rows produced by symmetric relations are deduplicated.  The
    result describes the same set as order_polytope(P).
    """
    rows = [
        Halfspace(relation_vector(u, v, q.n), 0, f"relation {u}<{v}")
        for u, v in sorted(q.lt)
    ]
    return HalfspaceSystem(q.n, dedupe_rows(rows + cube_rows(q.n)))


def hasse_dot(q: ClassicalPoset) -> str:
    """DOT digraph of the cover relations; the zero element is drawn distinctly."""
    lines = ["digraph fischer {", "  rankdir=BT;", "  node [shape=circle];",
             '  0 [shape=doublecircle, style=bold];']
    for v in q.elements():
        if v != 0:
            lines.append(f'  "{v}";')
    for u, v in q.covers():
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
