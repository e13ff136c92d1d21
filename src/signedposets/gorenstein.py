"""Fischer representation on [−n, n] and the Gorenstein characterization.

A signed poset P turns into a classical poset Ĝ(P) on the 2n+1 labels
−n..n via five generation rules (one per root shape), transitively closed.
O_P is Gorenstein exactly when Ĝ(P) is graded; the library answer comes from
chain lengths, and `verify.check_gorenstein_triple` cross-checks it against
both the palindromic-h* and the counting characterizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CycleDetected, OracleMismatch
from .halfspaces import Halfspace, HalfspaceSystem, cube_rows, dedupe_rows
from .posets import SignedPoset


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


def _transitive_closure(pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for u, v in list(closure):
            for w, x in list(closure):
                if v == w and (u, x) not in closure:
                    closure.add((u, x))
                    changed = True
    return closure


def fischer_representation(p: SignedPoset) -> ClassicalPoset:
    """Ĝ(P): generators per root shape, transitively closed, antisymmetry asserted.

    Rules (a, b are the support indices of a two-index root, read with signs):
    −e_a+e_b gives a<b and −b<−a; −e_a−e_b gives a<−b and b<−a;
    e_a+e_b gives −a<b and −b<a; −e_a gives a<0 and 0<−a; e_a gives −a<0 and 0<a.
    """
    pairs: set[tuple[int, int]] = set()
    for alpha in p.roots:
        if len(alpha.entries) == 1:
            ((i, s),) = alpha.entries
            if s > 0:
                pairs.update({(-i, 0), (0, i)})
            else:
                pairs.update({(i, 0), (0, -i)})
        else:
            (i, si), (j, sj) = alpha.entries
            if (si, sj) == (-1, 1):  # −e_i + e_j
                pairs.update({(i, j), (-j, -i)})
            elif (si, sj) == (1, -1):  # e_i − e_j = −e_j + e_i
                pairs.update({(j, i), (-i, -j)})
            elif (si, sj) == (-1, -1):  # −e_i − e_j
                pairs.update({(i, -j), (j, -i)})
            else:  # e_i + e_j
                pairs.update({(-i, j), (-j, i)})
    closure = _transitive_closure(pairs)
    for u, v in closure:
        if u == v or (v, u) in closure:
            raise CycleDetected(
                f"Fischer relations of {p!r} contain a cycle through {u} and {v}"
            )
    return ClassicalPoset(p.n, frozenset(closure))


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


def maximal_chains(q: ClassicalPoset) -> list[list[int]]:
    """All maximal chains, as label sequences, via DFS over cover relations."""
    covers = q.covers()
    succ: dict[int, list[int]] = {v: [] for v in q.elements()}
    pred_count: dict[int, int] = {v: 0 for v in q.elements()}
    for u, v in covers:
        succ[u].append(v)
        pred_count[v] += 1
    chains = []

    def extend(chain: list[int]) -> None:
        tail = succ[chain[-1]]
        if not tail:
            chains.append(chain)
            return
        for v in sorted(tail):
            extend(chain + [v])

    for v in sorted(q.elements()):
        if pred_count[v] == 0:
            extend([v])
    return chains


def is_graded(q: ClassicalPoset) -> GradedReport:
    """All maximal chains the same even length?  Rank by longest path when graded.

    The singleton chain at the zero label is ignored: the zero label carries
    no polytope coordinate, so when it is comparable to nothing its trivial
    chain cannot obstruct the Gorenstein property.  (Isolated nonzero labels
    still count — an untouched coordinate contributes a [−1, 1] factor whose
    index is pinned at 1.)  Whenever the zero label is comparable to anything,
    its chains pass through it symmetrically and the evenness condition is
    automatic, so the two readings agree there.
    """
    chains = maximal_chains(q)
    lengths = sorted({len(c) - 1 for c in chains if c != [0]})
    if len(lengths) > 1 or (lengths and lengths[0] % 2 != 0):
        return GradedReport(False, lengths[-1])
    length = lengths[0] if lengths else 0
    rank: dict[int, int] = {}
    for chain in chains:
        for height, v in enumerate(chain):
            rank[v] = max(rank.get(v, 0), height)
    return GradedReport(True, length, rank)


def gorenstein_index_from_grading(report: GradedReport) -> Optional[int]:
    """Chains of length 2k−2 mean Gorenstein index k."""
    if not report.graded:
        return None
    if report.max_chain_length % 2 != 0:  # pragma: no cover - is_graded forbids
        raise OracleMismatch(
            "graded Fischer representation with odd maximal chain length",
            {"length": report.max_chain_length},
        )
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
    """Gradedness of Ĝ(P), the fast answer.

    `verify.check_gorenstein_triple` cross-checks it against the counting
    Gorenstein index and the palindromicity of h*.
    """
    return is_graded(fischer_representation(p)).graded


def fischer_halfspaces(q: ClassicalPoset) -> HalfspaceSystem:
    """O_{Ĝ(P)}: cube rows plus one row per relation under the label map.

    Labels map to coefficient vectors by c(0) = 0, c(i) = e_i, c(−i) = −e_i;
    a relation u < v becomes ⟨c(v) − c(u), x⟩ ≥ 0.  Equivalent rows produced
    by symmetric relations are deduplicated.  The result describes the same
    set as order_polytope(P).
    """

    def coord(label: int) -> list[int]:
        vec = [0] * q.n
        if label > 0:
            vec[label - 1] = 1
        elif label < 0:
            vec[-label - 1] = -1
        return vec

    rows = []
    for u, v in sorted(q.lt):
        a = tuple(x - y for x, y in zip(coord(v), coord(u)))
        rows.append(Halfspace(a, 0, f"relation {u}<{v}"))
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
