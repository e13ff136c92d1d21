"""The slow reference kernels that the integer fast paths are pinned to.

`lp_oracle` is the simplex the library used before it went fraction-free: a
dense `Fraction` tableau with Bland's rule, the same two phases and the same
tie-break, so it makes the same pivots and must return the same
(status, x, value).  `count_by_box_scan` is the count before the depth-first
scan: every point of the integer box, each row checked in turn.
`triangulation_by_cell_scan` is the triangulation check before the owner
table: every lattice point of each dilate of O_P tested against every JH
cell, and against the generic-viewpoint oracle at t ≤ 2.
`half_open_contains_at` is that oracle before it went to integers: the
beyond-facet rule at any rational viewpoint, `reference_point(n)` among them.
`ehrhart_by_interpolation` is the Ehrhart polynomial before it came from h*:
the `Fraction` Lagrange interpolation of the counts at t = 0..n, evaluated by
`poly_eval`; `reciprocity_by_interpolation` is reciprocity on it.
`lp_closure` is plc by its definition, one exact LP per root, and
`is_closed` asks it whether a root set is closed;
`minimal_representation_by_lp` is the minimal-representation check before
its integer certificates: the same three claims, each decided by the LP.
The per-point loops that grid masks replaced: `triangulation_by_owner_scan`
is the triangulation check comparing `contains` with ownership at each cube
point, `jordan_holder_by_scan` tests each signed permutation against each
root, `row_is_necessary_by_scan` looks for a witness point by point before
the LP, and `grid_mask_by_contains` asks `contains` at each grid point.
`strictly_inside_by_fractions` is the interior-point test before it went to
integers: ω/(n+1) in `Fraction`s against the rows of O_P.
`chains_by_steps` enumerates the signed chains before they were read off
Ĝ(P): at each step the witness root is built from the step and tested for
membership in P, and so is its sum with the previous witness.
`fischer_relations_by_cases` is Ĝ's relation set before the one rule: five
generation cases, one per root shape, closed by `_transitive_closure`, the
pair fixpoint that Ĝ was closed by before Warshall's closure.
`graded_by_chains` is gradedness before the height pass: every maximal chain
listed by `maximal_chains`, a depth-first walk over the covers.
"""

from fractions import Fraction
from itertools import product
from typing import Optional

from signedposets import verify
from signedposets.chains import SignedChain
from signedposets.ehrhart import count_points, integer_box
from signedposets.geometry import _lp_row_is_necessary, order_polytope
from signedposets.gorenstein import ClassicalPoset, GradedReport
from signedposets.halfspaces import grid_points
from signedposets.jordan import (
    cell,
    cell_determinant,
    half_open_contains,
    half_open_contains_generic,
    jordan_holder,
    naturalize,
    owner,
    owner_table,
)
from signedposets.linalg import dot
from signedposets.perms import SignedPermutation, enumerate_signed_permutations
from signedposets.posets import cone_contains
from signedposets.roots import Root, all_roots, from_vector, inner_product
from signedposets.verify import T_MAX, CheckResult

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Tableau:
    """Dense simplex tableau for `min c·x  s.t.  Ax = b, x ≥ 0` with Bland's rule."""

    def __init__(self, a: list[list[Fraction]], b: list[Fraction]):
        self.m = len(a)
        self.nv = len(a[0]) if a else 0
        rows = []
        for i in range(self.m):
            row = a[i][:] if b[i] >= 0 else [-x for x in a[i]]
            rhs = b[i] if b[i] >= 0 else -b[i]
            art = [_ONE if j == i else _ZERO for j in range(self.m)]
            rows.append(row + art + [rhs])
        self.t = rows
        self.total = self.nv + self.m
        self.basis = [self.nv + i for i in range(self.m)]

    def pivot(self, r: int, c: int) -> None:
        t = self.t
        inv = 1 / t[r][c]
        t[r] = [x * inv for x in t[r]]
        for i in range(self.m):
            if i != r and t[i][c] != 0:
                f = t[i][c]
                t[i] = [x - f * y for x, y in zip(t[i], t[r])]
        self.basis[r] = c

    def run(self, cost: list[Fraction], allowed: int) -> str:
        t = self.t
        while True:
            enter = -1
            for j in range(allowed):
                if j in self.basis:
                    continue
                red = cost[j] - sum(
                    cost[self.basis[i]] * t[i][j]
                    for i in range(self.m)
                    if cost[self.basis[i]] != 0
                )
                if red < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best: Optional[Fraction] = None
            for i in range(self.m):
                if t[i][enter] > 0:
                    ratio = t[i][-1] / t[i][enter]
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)

    def value(self, cost: list[Fraction]) -> Fraction:
        return sum(
            (cost[self.basis[i]] * self.t[i][-1] for i in range(self.m)), _ZERO
        )

    def solution(self) -> list[Fraction]:
        x = [_ZERO] * self.nv
        for i, j in enumerate(self.basis):
            if j < self.nv:
                x[j] = self.t[i][-1]
        return x


def lp_oracle(a, b, c):
    """`solve_standard` over `Fraction`: (status, x, value) of `min c·x, Ax = b, x ≥ 0`."""
    a = [[Fraction(x) for x in row] for row in a]
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c]
    tab = _Tableau(a, b)
    phase1 = [_ZERO] * tab.nv + [_ONE] * tab.m
    tab.run(phase1, tab.total)
    if tab.value(phase1) > 0:
        return "infeasible", None, None
    for i in range(tab.m):
        if tab.basis[i] >= tab.nv:
            col = next((j for j in range(tab.nv) if tab.t[i][j] != 0), None)
            if col is not None:
                tab.pivot(i, col)
    phase2 = c + [_ZERO] * tab.m
    if tab.run(phase2, tab.nv) == "unbounded":
        return "unbounded", None, None
    return "optimal", tab.solution(), tab.value(phase2)


def count_by_box_scan(system, t: int, strict: bool = False) -> int:
    """|tP ∩ Z^n| (or the strict count) by scanning every point of the integer box."""
    box = integer_box(system, t)
    rows = [(row.a, t * row.b) for row in system.rows]
    count = 0
    for x in product(*(range(lo, hi + 1) for lo, hi in box)):
        for a, b in rows:
            value = sum(ai * xi for ai, xi in zip(a, x))
            if value < b or (strict and value == b):
                break
        else:
            count += 1
    return count


def _lattice_points(system, t: int) -> list[tuple[int, ...]]:
    return [
        x
        for x in product(range(-t, t + 1), repeat=system.n)
        if system.contains(x, t)
    ]


def triangulation_by_cell_scan(p) -> CheckResult:
    """Half-open cells of the naturalized image partition every dilate."""
    _, image = naturalize(p)
    system = order_polytope(image)
    jh = jordan_holder(image)
    windows = [sigma.inverse() for sigma in jh]  # σ ∈ JH owns the cell of σ⁻¹
    cells = [cell(tau) for tau in windows]
    unimodular = all(cell_determinant(tau) in (1, -1) for tau in windows)

    partition_ok = True
    oracle_ok = True
    bad: Optional[dict] = None
    for t in range(1, max(T_MAX, p.n) + 1):
        for x in _lattice_points(system, t):
            owners = sum(1 for c in cells if half_open_contains(c, x, t))
            if owners != 1:
                partition_ok = False
                bad = {"t": t, "x": list(x), "owners": owners}
                break
            if t <= 2:
                for tau, c in zip(windows, cells):
                    if half_open_contains(c, x, t) != half_open_contains_generic(
                        tau, x, t
                    ):
                        oracle_ok = False
                        bad = {"t": t, "x": list(x), "window": list(tau.images)}
                        break
            if not oracle_ok:
                break
        if not (partition_ok and oracle_ok):
            break

    detail = {"cells": len(jh), "unimodular": unimodular}
    if bad:
        detail["counterexample"] = bad
    return CheckResult(
        "triangulation",
        unimodular and partition_ok and oracle_ok,
        detail,
    )


def reference_point(n: int) -> tuple[Fraction, ...]:
    """p = (1/(n+1), …, n/(n+1)), the half-opening viewpoint."""
    return tuple(Fraction(i, n + 1) for i in range(1, n + 1))


def half_open_contains_at(sigma: SignedPermutation, x, t: int, q) -> bool:
    """Half-open membership in t·Δ_σ by the beyond-facet rule at viewpoint q.

    A facet row of Δ_σ is removed iff q violates it; membership then requires
    x to satisfy removed rows strictly and kept rows weakly, all at dilate t.
    Raises ValueError if q lies on a facet hyperplane (non-generic).
    """
    values_x = [e * x[i - 1] for i, e in zip(sigma.pi, sigma.eps)]
    values_q = [e * q[i - 1] for i, e in zip(sigma.pi, sigma.eps)]
    rows = [(values_x[0], values_q[0])]
    rows += [
        (values_x[i + 1] - values_x[i], values_q[i + 1] - values_q[i])
        for i in range(sigma.n - 1)
    ]
    for vx, vq in rows:
        if vq == 0:
            raise ValueError("viewpoint is not generic for this cell")
        if vx < 0 or (vx == 0 and vq < 0):
            return False
    # Top facet ε_n x_{π_n} ≤ t (q is compared at the unit dilate).
    top_x, top_q = values_x[-1], values_q[-1]
    if top_q == 1:
        raise ValueError("viewpoint is not generic for this cell")
    if top_x > t or (top_x == t and top_q > 1):
        return False
    return True


def poly_eval(coeffs, t) -> Fraction:
    """Evaluate Σ c_k t^k exactly."""
    total = _ZERO
    power = _ONE
    for c in coeffs:
        total += c * power
        power *= t
    return total


def ehrhart_by_interpolation(system) -> tuple[Fraction, ...]:
    """Exact Lagrange interpolation of t ↦ |tP ∩ Z^n| through t = 0..n."""
    n = system.n
    counts = [count_points(system, t) for t in range(n + 1)]
    coeffs = [_ZERO] * (n + 1)
    for t, value in enumerate(counts):
        # Lagrange basis polynomial for node t over nodes 0..n.
        basis = [_ONE]
        denom = _ONE
        for s in range(n + 1):
            if s == t:
                continue
            # multiply basis by (x - s)
            nxt = [_ZERO] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] -= c * s
                nxt[k + 1] += c
            basis = nxt
            denom *= t - s
        scale = Fraction(value) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    return tuple(coeffs)


def reciprocity_by_interpolation(system) -> bool:
    """(−1)^n ehr(−t) = strict count at t = 1..n+1, on the interpolation."""
    ehr = ehrhart_by_interpolation(system)
    return all(
        (-1) ** system.n * poly_eval(ehr, -t) == count_points(system, t, strict=True)
        for t in range(1, system.n + 2)
    )


def lp_closure(s, n: int) -> frozenset:
    """{γ ∈ B_n : γ ∈ cone(s)} by one exact LP per root: the definition of plc."""
    s = frozenset(s)
    return s | frozenset(
        gamma for gamma in all_roots(n) if gamma not in s and cone_contains(gamma, s, n)
    )


def is_closed(p) -> bool:
    """Does plc fix the root set?  (The definition, by the LP.)"""
    return lp_closure(p.roots, p.n) == p.roots


def minimal_representation_by_lp(p) -> CheckResult:
    """`check_minimal_representation` by the LP: P is LP-closed, no m ∈ M lies
    in cone(M ∖ m), and P ∖ M ⊆ cone(M).  M is `verify.minimal_representation`,
    looked up when called, so a test that patches it patches both checks."""
    m = verify.minimal_representation(p)
    closed = is_closed(p)
    irredundant = all(not cone_contains(alpha, m - {alpha}, p.n) for alpha in m)
    regenerated = all(cone_contains(alpha, m, p.n) for alpha in p.roots - m)
    return CheckResult(
        "minimal-representation",
        closed and regenerated and irredundant,
        {"poset_size": len(p.roots), "minrep_size": len(m)},
    )


def triangulation_by_owner_scan(p) -> CheckResult:
    """`check_triangulation` point by point: `contains` against ownership at
    every cube point.  JH is `verify.jordan_holder`, looked up when called,
    so a test that patches it patches both checks."""
    _, image = naturalize(p)
    system = order_polytope(image)
    jh = verify.jordan_holder(image)
    windows = [sigma.inverse() for sigma in jh]
    unimodular = all(cell_determinant(tau) in (1, -1) for tau in windows)
    owned = {tau.images for tau in windows}

    bad: Optional[dict] = None
    for t in range(1, max(T_MAX, p.n) + 1):
        table = owner_table(p.n, t)
        if table.counterexample is not None:
            x, window = table.counterexample
            bad = {"t": t, "x": list(x), "window": list(window)}
            break
        for x in grid_points(p.n, t):
            w = owner(x)
            inside = system.contains(x, t)
            if inside != (w in owned):
                bad = {"t": t, "x": list(x), "owner": list(w), "in_polytope": inside}
                break
        if bad:
            break

    detail = {"cells": len(jh), "unimodular": unimodular}
    if bad:
        detail["counterexample"] = bad
    return CheckResult("triangulation", unimodular and not bad, detail)


def jordan_holder_by_scan(p) -> list:
    """JH(P): each signed permutation tested against each root, ascending lex."""
    roots = p.sorted_roots()
    return [
        omega
        for omega in enumerate_signed_permutations(p.n)
        if all(inner_product(alpha, omega.as_point()) >= 0 for alpha in roots)
    ]


def row_is_necessary_by_scan(system, index: int) -> bool:
    """A witness in [−2, 2]^n looked for point by point, then the LP."""
    row = system.rows[index]
    others = [(r.a, r.b) for i, r in enumerate(system.rows) if i != index]
    for x in product(range(-2, 3), repeat=system.n):
        if dot(row.a, x) < row.b and all(dot(a, x) >= b for a, b in others):
            return True
    return _lp_row_is_necessary(system, index)


def grid_mask_by_contains(system, r: int, t: int = 1) -> int:
    """`HalfspaceSystem.grid_mask` by `contains` at each point of [−r, r]^n."""
    return sum(
        1 << k
        for k, x in enumerate(grid_points(system.n, r))
        if system.contains(x, t)
    )


def strictly_inside_by_fractions(p, word) -> bool:
    """Whether q = word/(n+1), in `Fraction`s, is strictly inside O_P."""
    return order_polytope(p).contains(tuple(Fraction(v, p.n + 1) for v in word), strict=True)


def _witness_for(p, c: int, d: int, s: int) -> Optional[Root]:
    """The unique root of P supporting the step (c, d, s), if any.

    The two candidates are negatives of each other, so asymmetry of P leaves
    at most one.
    """
    lo, hi = min(c, d), max(c, d)
    if s == 1:
        candidate = Root.pair(lo, 1 if lo == c else -1, hi, 1 if hi == c else -1)
    else:
        candidate = Root.pair(lo, 1, hi, 1)
    if candidate in p.roots:
        return candidate
    if -candidate in p.roots:
        return -candidate
    return None


def _sum_in_poset(p, a: Root, b: Root) -> bool:
    """Is α + β again a root of P?  (False when the sum is not a root at all.)"""
    vec = [x + y for x, y in zip(a.vector(p.n), b.vector(p.n))]
    if any(v not in (-1, 0, 1) for v in vec) or not any(vec):
        return False
    return from_vector(vec) in p.roots


def chains_by_steps(p) -> list[SignedChain]:
    """All chains of P with distinct entries, by depth-first extension.

    Singletons are always chains.  For longer chains the witness at each step
    is forced (asymmetry), so the existential over witness tuples reduces to
    checking the consecutive-sum condition along the way.
    """
    out: list[SignedChain] = [
        SignedChain((i,), (), ()) for i in range(1, p.n + 1)
    ]

    def extend(chain: SignedChain) -> None:
        for d in range(1, p.n + 1):
            if d in chain.c:
                continue
            for s in (1, -1):
                alpha = _witness_for(p, chain.c[-1], d, s)
                if alpha is None:
                    continue
                if chain.witness and not _sum_in_poset(p, chain.witness[-1], alpha):
                    continue
                longer = SignedChain(
                    chain.c + (d,), chain.s + (s,), chain.witness + (alpha,)
                )
                out.append(longer)
                extend(longer)

    for i in range(1, p.n + 1):
        extend(SignedChain((i,), (), ()))
    return sorted(out, key=lambda ch: (len(ch.c), ch.c, ch.s))


def fischer_relations_by_cases(roots) -> frozenset:
    """Ĝ's relations on −n..n from a root set, one generation case per root shape."""
    pairs: set[tuple[int, int]] = set()
    for alpha in roots:
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
    return frozenset(_transitive_closure(pairs))


def _transitive_closure(pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """The pair fixpoint: rescan the relation until no pair (u, v), (v, x)
    adds a new (u, x)."""
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


def graded_by_chains(q: ClassicalPoset) -> GradedReport:
    """`is_graded` by listing the maximal chains: graded when all but the
    isolated zero label's have one even length, ranked by the longest
    position of each label in them."""
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
