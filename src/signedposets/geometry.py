"""Order cones and order polytopes of signed posets.

O_P = {x ∈ [−1,1]^n : ⟨α, x⟩ ≥ 0 for all α ∈ P}; K_P drops the cube.  The
irredundant description keeps only the minimal-representation rows plus the
cube bounds actually needed (pmax/nmax).  Lattice-point structure: the signed
filters {−1,0,1}^n are exactly the lattice points, and the vertices are the
filters whose active rows have full rank.  The filters, the vertices'
candidates and the redundancy witnesses are read off grid masks
(`halfspaces.grid_mask`), not tested point by point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import InternalInconsistency
from .halfspaces import (
    Halfspace,
    HalfspaceSystem,
    cube_rows,
    grid_points,
    row_mask,
    select,
)
from .linalg import minimize, rank
from .posets import SignedPoset, from_generators, minimal_representation, per_poset
from .roots import Root


def _root_rows(roots: Iterable[Root], n: int) -> list[Halfspace]:
    return [
        Halfspace(alpha.vector(n), 0, f"root {alpha.token()}") for alpha in sorted(roots)
    ]


@per_poset
def order_polytope(p: SignedPoset) -> HalfspaceSystem:
    """Full H-description: every poset row plus all 2n cube rows."""
    return HalfspaceSystem(p.n, tuple(_root_rows(p.roots, p.n) + cube_rows(p.n)))


def order_cone(p: SignedPoset) -> HalfspaceSystem:
    """K_P: poset rows only (no cube)."""
    return HalfspaceSystem(p.n, tuple(_root_rows(p.roots, p.n)))


def pos_neg_max(p: SignedPoset) -> tuple[frozenset[int], frozenset[int]]:
    """Indices whose incident roots are all positive (pmax) resp. negative (nmax) there.

    Isolated indices are vacuously in both.
    """
    pmax, nmax = set(), set()
    for i in range(1, p.n + 1):
        signs = {alpha.sign_at(i) for alpha in p.roots} - {0}
        if -1 not in signs:
            pmax.add(i)
        if 1 not in signs:
            nmax.add(i)
    return frozenset(pmax), frozenset(nmax)


def order_polytope_irredundant(p: SignedPoset) -> HalfspaceSystem:
    """Minimal-representation rows plus x_i ≤ 1 for i ∈ pmax and x_i ≥ −1 for i ∈ nmax."""
    pmax, nmax = pos_neg_max(p)
    rows = _root_rows(minimal_representation(p), p.n)
    for i in range(1, p.n + 1):
        if i in pmax:
            upper = tuple(-1 if j == i else 0 for j in range(1, p.n + 1))
            rows.append(Halfspace(upper, -1, f"cube-upper({i})"))
        if i in nmax:
            lower = tuple(1 if j == i else 0 for j in range(1, p.n + 1))
            rows.append(Halfspace(lower, -1, f"cube-lower({i})"))
    return HalfspaceSystem(p.n, tuple(rows))


# Integer witnesses of a necessary row are looked for in [−2, 2]^n.
_WITNESS_R = 2


def necessity_witness(system: HalfspaceSystem, index: int) -> tuple[int, ...] | None:
    """The first point of [−2, 2]^n that satisfies every other row and violates
    this one, which proves the row necessary, or None: one AND of the other
    rows' grid mask with the complement of this row's."""
    row = system.rows[index]
    others = HalfspaceSystem(system.n, system.rows[:index] + system.rows[index + 1 :])
    found = others.grid_mask(_WITNESS_R) & ~row_mask(system.n, _WITNESS_R, row.a, row.b)
    return grid_points(system.n, _WITNESS_R)[(found & -found).bit_length() - 1] if found else None


def row_is_necessary(system: HalfspaceSystem, index: int) -> bool:
    """Exact redundancy probe: can ⟨a, x⟩ go below b while all other rows hold?

    Yes if there is a `necessity_witness`.  Else the LP minimizes the row's
    form over the other rows, and the row is necessary iff the minimum is
    below b or unbounded; some necessary rows have only rational witnesses.
    """
    return necessity_witness(system, index) is not None or _lp_row_is_necessary(system, index)


def _lp_row_is_necessary(system: HalfspaceSystem, index: int) -> bool:
    row = system.rows[index]
    others = [(r.a, r.b) for i, r in enumerate(system.rows) if i != index]
    status, value, _ = minimize(row.a, others)
    if status == "unbounded":
        return True
    if status == "infeasible":  # pragma: no cover - systems here are nonempty
        return False
    return value < row.b


def signed_filters(p: SignedPoset) -> list[tuple[int, ...]]:
    """All x ∈ {−1,0,1}^n with ⟨α, x⟩ ≥ 0 for every α ∈ P, sorted.

    These are exactly the lattice points of O_P: the points of K_P's grid
    mask on {−1,0,1}^n, whose `product` order is sorted.
    """
    return select(grid_points(p.n, 1), order_cone(p).grid_mask(1))


def cube_vertices(system: HalfspaceSystem) -> list[tuple[int, ...]]:
    """Points of {−1,0,1}^n inside the system whose active rows have rank n, sorted.

    These are the vertices of a polytope inside [−1,1]^n whose vertices are
    lattice points, as O_P's and C_P's are.
    """
    out = []
    for x in select(grid_points(system.n, 1), system.grid_mask(1)):
        active = [row.a for row in system.rows if row.evaluate(x) == row.b]
        if len(active) >= system.n and rank(active) == system.n:
            out.append(x)
    return out


def vertices(p: SignedPoset) -> list[tuple[int, ...]]:
    """Filters at which the active rows of the full description have rank n."""
    return cube_vertices(order_polytope(p))


def homogenized_poset(p: SignedPoset) -> SignedPoset:
    """P̂ on [n+1]: adjoin e_{n+1} ± e_i for every i, then close.

    The order cone of P̂ is the homogenization {(x, t) : t ≥ 0, x ∈ t·O_P}.
    """
    m = p.n + 1
    gens = list(p.roots)
    for i in range(1, p.n + 1):
        gens.append(Root.pair(i, 1, m, 1))
        gens.append(Root.pair(i, -1, m, 1))
    return from_generators(m, gens)


def interior_point(p: SignedPoset) -> tuple[Fraction, ...]:
    """A canonical rational point strictly inside O_P (so dim O_P = n always).

    Take the selected Jordan–Hölder representative ω and scale its one-line
    word: q = (ω(1), …, ω(n)) / (n+1).  Every poset row is strictly positive
    at q because ⟨α, ω⟩ ≥ 0 and the entries of ω have distinct absolute
    values (no cancellation to zero is possible), and |q_i| ≤ n/(n+1) < 1.
    The postcondition is tested in integers: q is strictly inside O_P
    exactly when ω is strictly inside (n+1)·O_P.
    """
    from .jordan import jh_representative

    omega = jh_representative(p).as_point()
    if not order_polytope(p).contains(omega, t=p.n + 1, strict=True):
        raise InternalInconsistency(
            f"constructed point {omega}/{p.n + 1} is not strictly interior to O_P for {p!r}"
        )
    return tuple(Fraction(v, p.n + 1) for v in omega)
