"""Signed chains, the chain polytope C_P, antichains, and reflexivity.

A signed chain is an index sequence C = (c_1, …, c_k) with distinct entries
and signs S = (s_1, …, s_{k−1}).  It names the labels u_k = s_1⋯s_{k−1}·c_k
of Fischer's poset Ĝ(P) (`gorenstein`), where u < v when c(v) − c(u) is a
root of P, for c(±i) = ±e_i.  By definition each step ±(u_{k+1} − u_k) is a
root of P and so are the sums of consecutive steps.  For P closed, these are
exactly the chains u_1 < … < u_k and u_1 > … > u_k of Ĝ(P), because:
  1. a step ±(c(u_{k+1}) − c(u_k)) in P is a relation of Ĝ(P), one way or
     the other;
  2. two consecutive steps sum to a root only when they point the same way
     (otherwise the sum has ±2 at c_k), so the labels are monotone;
  3. u < v in Ĝ(P) with |u| ≠ |v| puts c(v) − c(u), a root in cone(P), in
     P; so every step of a monotone chain, and every sum of steps, is in P.
The witness of a step is that root, c(hi) − c(lo).

Each chain contributes the inequality pair −1 ≤ Σ_k (s_1⋯s_{k−1}) x_{c_k} ≤ 1;
singletons give the cube, so C_P ⊆ [−1,1]^n always, and every right-hand
side is 1 — C_P is reflexive by construction.

Chain entries are kept distinct (repeats would make the chain set infinite
without changing the polytope's defining rows in any example we know).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

from .ehrhart import count_points, ehrhart_polynomial, poly_to_json
from .geometry import cube_vertices, order_polytope, signed_filters, vertices
from .gorenstein import fischer_representation, relation_vector
from .halfspaces import Halfspace, HalfspaceSystem, dedupe_rows, grid_points, select
from .posets import SignedPoset, per_poset
from .roots import Root, from_vector, inner_product


@dataclass(frozen=True)
class SignedChain:
    c: tuple[int, ...]
    s: tuple[int, ...]
    witness: tuple[Root, ...]

    def __post_init__(self):
        if len(self.s) != len(self.c) - 1 or len(self.witness) != len(self.s):
            raise ValueError("chain components have inconsistent lengths")

    def coefficients(self, n: int) -> tuple[int, ...]:
        """The row vector: coordinate c_k carries the sign prefix s_1⋯s_{k−1}."""
        vec = [0] * n
        w = 1
        for k, idx in enumerate(self.c):
            if k > 0:
                w *= self.s[k - 1]
            vec[idx - 1] = w
        return tuple(vec)

    def to_json_dict(self) -> dict:
        return {
            "C": list(self.c),
            "S": list(self.s),
            "witness": [alpha.token() for alpha in self.witness],
        }


def enumerate_chains(p: SignedPoset) -> list[SignedChain]:
    """All chains of P with distinct entries, sorted by (length, C, S).

    Each is a walk up or down the relations of Ĝ(P) from a positive first
    label, through labels of distinct |label|.  That this gives the chains
    defined by roots (module docstring) needs P closed; every factory builds
    it closed, and `verify.check_minimal_representation` proves it.
    """
    steps: dict[tuple[int, int], list[int]] = {}  # (label, +1 up or −1 down)
    for lo, hi in fischer_representation(p).lt:
        if lo and hi and abs(lo) != abs(hi):
            steps.setdefault((lo, 1), []).append(hi)
            steps.setdefault((hi, -1), []).append(lo)
    singles = [SignedChain((i,), (), ()) for i in range(1, p.n + 1)]
    out = list(singles)

    def extend(chain: SignedChain, label: int, way: int) -> None:
        for nxt in steps.get((label, way), ()):
            if abs(nxt) in chain.c:
                continue
            lo, hi = (label, nxt) if way == 1 else (nxt, label)
            longer = SignedChain(
                chain.c + (abs(nxt),),
                chain.s + (1 if (label > 0) == (nxt > 0) else -1,),
                chain.witness + (from_vector(relation_vector(lo, hi, p.n)),),
            )
            out.append(longer)
            extend(longer, nxt, way)

    for single in singles:
        for way in (1, -1):
            extend(single, single.c[0], way)
    return sorted(out, key=lambda ch: (len(ch.c), ch.c, ch.s))


@per_poset
def chain_polytope(p: SignedPoset) -> HalfspaceSystem:
    """C_P: the pair of rows ±⟨w, x⟩ ≥ −1 for each chain's coefficient vector w."""
    rows = []
    for chain in enumerate_chains(p):
        w = chain.coefficients(p.n)
        tag = f"chain C={list(chain.c)} S={list(chain.s)}"
        rows.append(Halfspace(w, -1, tag))
        rows.append(Halfspace(tuple(-x for x in w), -1, tag))
    return HalfspaceSystem(p.n, dedupe_rows(rows))


def antichains(p: SignedPoset) -> list[tuple[int, ...]]:
    """All a ∈ {−1,0,1}^n with ⟨α, a⟩ ≠ 0 for two-index α ∈ P unless both coords vanish."""
    two_index = [alpha for alpha in p.roots if len(alpha.entries) == 2]
    out = []
    for a in product((-1, 0, 1), repeat=p.n):
        ok = True
        for alpha in two_index:
            i, j = alpha.support
            if inner_product(alpha, a) == 0 and not (a[i - 1] == 0 and a[j - 1] == 0):
                ok = False
                break
        if ok:
            out.append(a)
    return sorted(out)


def verify_antichain_characterization(p: SignedPoset) -> dict:
    """Compare antichains with the lattice points of C_P; mismatches are data."""
    anti = set(antichains(p))
    system = chain_polytope(p)
    # C_P ⊆ [−1,1]^n, so the grid mask on {−1,0,1}^n sees every lattice point.
    points = set(select(grid_points(p.n, 1), system.grid_mask(1)))
    return {
        "match": anti == points,
        "antichain_count": len(anti),
        "lattice_point_count": len(points),
        "only_antichains": sorted(anti - points),
        "only_points": sorted(points - anti),
    }


def is_reflexive(system: HalfspaceSystem) -> bool:
    """Every row, normalized to ⟨a, x⟩ ≤ b with gcd(a) = 1, must have b = 1.

    This is the row half of Hibi's criterion; the other half, a lattice
    polytope, is what `verify.check_chain_polytope` tests by counting points.
    """
    for row in system.rows:
        # ⟨a, x⟩ ≥ b  ⟺  ⟨−a, x⟩ ≤ −b
        g = gcd(*(abs(c) for c in row.a))
        if g == 0:
            continue
        if (-row.b) % g != 0 or (-row.b) // g != 1:
            return False
    return True


def compare_order_chain(p: SignedPoset) -> dict:
    """Side-by-side report on O_P versus C_P (Ehrhart, vertices, interior origin)."""
    o_system = order_polytope(p)
    c_system = chain_polytope(p)
    ehr_o = ehrhart_polynomial(o_system)
    ehr_c = ehrhart_polynomial(c_system)
    has_unit_root = any(len(alpha.entries) == 1 for alpha in p.roots)
    report = {
        "ehrhart_order": poly_to_json(ehr_o),
        "ehrhart_chain": poly_to_json(ehr_c),
        "ehrhart_equal": ehr_o == ehr_c,
        "order_vertex_count": len(vertices(p)),
        "chain_vertex_count": len(cube_vertices(c_system)),
        "order_lattice_points": len(signed_filters(p)),
        "chain_lattice_points": count_points(c_system, 1),
        "origin_interior_chain": c_system.contains((0,) * p.n, strict=True),
        "has_unit_root": has_unit_root,
    }
    if has_unit_root:
        report["order_interior_points_t1"] = count_points(o_system, 1, strict=True)
    return report

