"""Signed chains, the chain polytope C_P, antichains, and reflexivity.

A chain is an index sequence with interlocking sign data: consecutive pairs
must be supported by roots of P (sign +1 wants ±(e_c − e_d), sign −1 wants
±(e_c + e_d)) whose consecutive sums again lie in P.  Each chain contributes
the inequality pair −1 ≤ Σ_k (s_1⋯s_{k−1}) x_{c_k} ≤ 1; singletons give the
cube, so C_P ⊆ [−1,1]^n always, and every right-hand side is 1 — C_P is
reflexive by construction.

Chain entries are kept distinct (repeats would make the chain set infinite
without changing the polytope's defining rows in any example we know).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Optional

from .ehrhart import count_points, ehrhart_polynomial, poly_to_json
from .geometry import cube_vertices, order_polytope, signed_filters, vertices
from .halfspaces import Halfspace, HalfspaceSystem, dedupe_rows
from .posets import SignedPoset
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


def _witness_for(p: SignedPoset, c: int, d: int, s: int) -> Optional[Root]:
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


def _sum_in_poset(p: SignedPoset, a: Root, b: Root) -> bool:
    """Is α + β again a root of P?  (False when the sum is not a root at all.)"""
    vec = [x + y for x, y in zip(a.vector(p.n), b.vector(p.n))]
    if any(v not in (-1, 0, 1) for v in vec) or not any(vec):
        return False
    return from_vector(vec) in p.roots


def enumerate_chains(p: SignedPoset) -> list[SignedChain]:
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
    points = {
        x
        for x in product((-1, 0, 1), repeat=p.n)
        if system.contains(x)
    }
    # C_P ⊆ [−1,1]^n, so scanning {−1,0,1}^n sees every lattice point.
    return {
        "match": anti == points,
        "antichain_count": len(anti),
        "lattice_point_count": len(points),
        "only_antichains": sorted(anti - points),
        "only_points": sorted(points - anti),
    }


def is_reflexive(system: HalfspaceSystem) -> bool:
    """Every row, normalized to ⟨a, x⟩ ≤ b with gcd(a) = 1, must have b = 1.

    `verify.check_chain_polytope` cross-checks this by counting points.
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
    ehr_o = ehrhart_polynomial(o_system, p.n)
    ehr_c = ehrhart_polynomial(c_system, p.n)
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

