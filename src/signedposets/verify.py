"""Cross-oracle verification suites.

Every structural claim the library makes is re-checked here by an
independent route, and no check solves an LP: P's closure and minimal
representation M by integer certificates (signed filters, and a derivation
of P from M); descent-counted h* against lattice-point-counted h*; the
irredundant description's rows proved necessary by integer witness points,
its cube bounds derived from its rows, and its lattice points against O_P's,
by grid mask; the half-open triangulation against plain point membership
(`jordan.owner_table` proves the cells' partition of each cube dilate once
per (n, t) and keeps each cell's mask of cube points, so a poset's JH cells
need one OR of masks, compared with tO_P's grid mask); Fischer gradedness
against counting Gorenstein indices; the chain polytope's Ehrhart
polynomial, evaluated from the h* of its counts at t = 0..n, against its
counts at t = n+1 and n+2.  A failed check is report content; the
library itself only raises when its own postconditions break.

`verify_poset` runs the battery on one poset; `verify_catalog` sweeps every
signed poset on [n] and adds the catalog-level properties (isomorphism
invariance, the maximal-chain non-sufficiency witness).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .catalog import iter_signed_posets
from .chains import (
    chain_polytope,
    enumerate_chains,
    is_reflexive,
    verify_antichain_characterization,
)
from .ehrhart import (
    count_points,
    ehrhart_polynomial,
    ehrhart_values,
    gorenstein_index_by_counts,
    hstar_from_counts,
    is_palindromic,
    is_unimodal,
    reciprocity_check,
)
from .geometry import (
    homogenized_poset,
    interior_point,
    necessity_witness,
    order_cone,
    order_polytope,
    order_polytope_irredundant,
    signed_filters,
    vertices,
)
from .gorenstein import (
    canonical_interior_point,
    check_fischer_symmetry,
    fischer_halfspaces,
    fischer_representation,
    gorenstein_index_from_grading,
    is_gorenstein,
    is_graded,
    minimal_fischer_representation,
)
from .halfspaces import Halfspace, HalfspaceSystem, cube_rows, dedupe_rows, grid_points
from .jordan import (
    cell_determinant,
    hstar_by_descents,
    jordan_holder,
    naturalize,
    owner,
    owner_table,
)
from .perms import act_poset, enumerate_signed_permutations
from .posets import (
    SignedPoset,
    _separated,
    closed_by_filters,
    derives,
    minimal_representation,
    root_kernel,
)


# The checks that count dilates look at t = 1..T_MAX; the triangulation looks
# at t = 1..max(T_MAX, n).
T_MAX = 3


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict


@dataclass(frozen=True, slots=True)
class PosetReport:
    """One poset's check results, stored compactly.

    Sweeps, and callers that keep every report, hold many of these.  So the
    names, verdicts and detail keys of the checks are one `layout` tuple,
    shared by every report with the same layout, and the detail values are
    one flat tuple, in which each list of ints or strs is a tuple shared by
    the reports with an equal list; `checks` rebuilds the `CheckResult`s and
    those lists.  Dropping all 941 kept n = 3 reports frees about 0.4 KB a
    report; with a list of its own in each report, it was 1.0 KB.
    """

    n: int
    tokens: tuple[str, ...]
    layout: tuple[tuple[str, bool, tuple[str, ...]], ...]
    values: tuple

    @classmethod
    def from_checks(
        cls, n: int, tokens: tuple[str, ...], checks: Iterable[CheckResult]
    ) -> "PosetReport":
        checks = tuple(checks)
        layout = _shared(tuple((c.name, c.passed, tuple(c.detail)) for c in checks))
        values = tuple(_frozen(v) for c in checks for v in c.detail.values())
        return cls(n, tokens, layout, values)

    @property
    def checks(self) -> tuple[CheckResult, ...]:
        out = []
        start = 0
        for name, passed, keys in self.layout:
            stop = start + len(keys)
            values = map(_thawed, self.values[start:stop])
            out.append(CheckResult(name, passed, dict(zip(keys, values))))
            start = stop
        return tuple(out)

    @property
    def passed(self) -> bool:
        return all(passed for _, passed, _ in self.layout)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "roots": list(self.tokens),
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


@lru_cache(maxsize=256)
def _shared(layout: tuple) -> tuple:
    """The first stored copy of an equal layout, so reports share one."""
    return layout


@lru_cache(maxsize=1024)
def _shared_value(value: tuple) -> tuple:
    """The first stored copy of an equal detail tuple, so reports share one."""
    return value


def _frozen(value):
    """A list of ints, or of strs, as a shared tuple; any other value as it is.

    Equal tuples of one such type are interchangeable, which is not so for
    ints and bools or Fractions, so no other list is shared.  No detail
    value is a tuple, so `_thawed` knows which values to turn back.
    """
    if type(value) is list and {type(v) for v in value} in ({int}, {str}, set()):
        return _shared_value(tuple(value))
    return value


def _thawed(value):
    return list(value) if type(value) is tuple else value


def check_minimal_representation(p: SignedPoset) -> CheckResult:
    """The bitmask kernel's M, proved with integer certificates and no LP:
    P is closed, each α ∈ M is separated from cone(M ∖ α), and M ⊆ P
    derives all of P.  Together, plc(M) = P with M minimal."""
    m = minimal_representation(p)
    kernel = root_kernel(p.n)
    mask = kernel.mask(m)
    irredundant = all(_separated(mask ^ 1 << k, p.n) >> k & 1 for k in map(kernel.index.get, m))
    return CheckResult(
        "minimal-representation",
        closed_by_filters(p) and irredundant and derives(m, p),
        {"poset_size": len(p.roots), "minrep_size": len(m)},
    )


def check_jordan_holder(p: SignedPoset) -> CheckResult:
    jh = jordan_holder(p)
    omega, image = naturalize(p)
    image_jh = jordan_holder(image)
    identity_ok = image.n == p.n and any(tau.is_identity() for tau in image_jh)
    return CheckResult(
        "jordan-holder",
        len(jh) >= 1 and identity_ok and len(image_jh) == len(jh),
        {"jh_size": len(jh), "omega": list(omega.images)},
    )


def check_interior_point(p: SignedPoset) -> CheckResult:
    """The reported point q lies strictly inside O_P, tested in integers: q
    is ω/(n+1) for the integer point ω = (n+1)·q, and ω must lie strictly
    inside (n+1)·O_P."""
    q = interior_point(p)
    scale = p.n + 1
    omega = [c.numerator * (scale // c.denominator) for c in q]
    ok = all(scale % c.denominator == 0 for c in q) and order_polytope(p).contains(
        omega, t=scale, strict=True
    )
    return CheckResult(
        "interior-point", ok, {"q": [str(c) for c in q]}
    )


def check_hstar_oracles(p: SignedPoset) -> CheckResult:
    by_desc = hstar_by_descents(p)
    by_count = hstar_from_counts(order_polytope(p))
    jh_size = len(jordan_holder(p))
    passed = by_desc == by_count and sum(by_desc) == jh_size and by_desc[0] == 1
    return CheckResult(
        "hstar-oracles",
        passed,
        {"by_descents": list(by_desc), "by_counts": list(by_count), "jh_size": jh_size},
    )


def check_ehrhart_reciprocity(p: SignedPoset) -> CheckResult:
    system = order_polytope(p)
    # Degree n: ehrhart_polynomial raises unless its leading coefficient is > 0.
    ehr = ehrhart_polynomial(system)
    return CheckResult(
        "ehrhart-reciprocity",
        reciprocity_check(system),
        {"degree": len(ehr) - 1},
    )


def check_filters_vertices(p: SignedPoset) -> CheckResult:
    filters = signed_filters(p)
    verts = vertices(p)
    counted = count_points(order_polytope(p), 1)
    # vertices ⊆ filters certifies conv(filters) = O_P: the hull of any
    # subset of O_P containing all vertices is O_P itself.
    passed = (
        counted == len(filters)
        and set(verts) <= set(filters)
        and len(verts) >= p.n + 1
    )
    return CheckResult(
        "filters-vertices",
        passed,
        {"filters": len(filters), "vertices": len(verts), "counted": counted},
    )


def check_irredundant_description(p: SignedPoset) -> CheckResult:
    """irr, the rows of M plus the cube rows of pmax and nmax, is O_P, and
    each of its rows is necessary, with no LP.

    irr keeps a subset of O_P's rows, so O_P ⊆ irr, and its `derived_bounds`
    must hold all 2n sides of the cube, so irr ⊆ [−1, 1]^n.  The cube
    [−t, t]^n then holds every lattice point of both t-dilates, and their
    grid masks there must be equal at t = 1..T_MAX.  Each row of irr needs a
    `necessity_witness` that, evaluated again row by row, violates it alone.
    """
    full = order_polytope(p)
    irr = order_polytope_irredundant(p)
    passed = (
        {(row.a, row.b) for row in irr.rows} <= {(row.a, row.b) for row in full.rows}
        and len(derived_bounds(irr)) == 2 * p.n
        and all(irr.grid_mask(t, t) == full.grid_mask(t, t) for t in range(1, T_MAX + 1))
        and all(_witnessed(irr, i) for i in range(len(irr.rows)))
    )
    return CheckResult(
        "irredundant-description",
        passed,
        {"full_rows": len(full.rows), "irredundant_rows": len(irr.rows)},
    )


def derived_bounds(system: HalfspaceSystem) -> set[tuple[int, int]]:
    """The (k, s) such that s·x_k ≥ −1 follows from the rows, s = ±1.

    Seeds are rows s·x_k ≥ b with b ≥ −1.  From a row s·x_k + c·x_j ≥ b ≥ 0
    with c = ±1 and a derived (j, −c), that is c·x_j ≤ 1, follows (k, s).
    Each step is an exact integer inference on unit coefficients.
    """
    terms = [(tuple((k, c) for k, c in enumerate(row.a) if c), row.b) for row in system.rows]
    bounds = {t[0] for t, b in terms if len(t) == 1 and abs(t[0][1]) == 1 and b >= -1}
    pairs = [t for t, b in terms if len(t) == 2 and {abs(c) for _, c in t} == {1} and b >= 0]
    while new := {ks for t in pairs for ks, (j, c) in (t, t[::-1]) if (j, -c) in bounds} - bounds:
        bounds |= new
    return bounds


def _witnessed(system: HalfspaceSystem, index: int) -> bool:
    """Whether the row's `necessity_witness` violates it and no other row."""
    x = necessity_witness(system, index)
    return x is not None and all(
        (row.evaluate(x) >= row.b) != (k == index) for k, row in enumerate(system.rows)
    )


def check_triangulation(p: SignedPoset) -> CheckResult:
    """The JH cells of the naturalized image are unimodular, and their
    half-open versions hold exactly the lattice points of each dilate.

    `owner_table` proves once per (n, t) that the half-open cells of all
    windows partition the cube dilate [−t, t]^n, and keeps the mask of the
    cube points that each cell holds.  Per poset it is then enough that
    x ∈ tO_P ⟺ owner(x) ∈ {σ⁻¹ : σ ∈ JH} for every x of that cube, that is,
    that tO_P's grid mask equals the OR of the JH cells' masks: each lattice
    point of tO_P has exactly one JH cell, and no JH cell reaches outside
    O_P.  The lowest differing bit names the counterexample, the first point
    in `product` order.  A half-open cell with k strict facets holds a
    lattice point from t = k on, and a cell has at most n, so the check looks
    at t = 1..max(T_MAX, n): every cell is seen, the one cell of window
    (−1, …, −n) with n strict facets included.
    """
    _, image = naturalize(p)
    system = order_polytope(image)
    jh = jordan_holder(image)
    windows = [sigma.inverse() for sigma in jh]  # σ ∈ JH owns the cell of σ⁻¹
    unimodular = all(cell_determinant(tau) in (1, -1) for tau in windows)
    owned = {tau.images for tau in windows}

    bad: Optional[dict] = None
    for t in range(1, max(T_MAX, p.n) + 1):
        table = owner_table(p.n, t)
        if table.counterexample is not None:
            x, window = table.counterexample
            bad = {"t": t, "x": list(x), "window": list(window)}
            break
        inside = system.grid_mask(t, t)
        cells = 0
        for w in owned:
            cells |= table.cell_masks.get(w, 0)
        if differ := inside ^ cells:
            k = (differ & -differ).bit_length() - 1
            x = grid_points(p.n, t)[k]
            bad = {
                "t": t,
                "x": list(x),
                "owner": list(owner(x)),
                "in_polytope": bool(inside >> k & 1),
            }
            break

    detail = {"cells": len(jh), "unimodular": unimodular}
    if bad:
        detail["counterexample"] = bad
    return CheckResult("triangulation", unimodular and not bad, detail)


def check_gorenstein_triple(p: SignedPoset) -> CheckResult:
    system = order_polytope(p)
    symmetric = check_fischer_symmetry(fischer_representation(p))
    report = is_graded(minimal_fischer_representation(p))
    k_count = gorenstein_index_by_counts(system)
    palindromic = is_palindromic(hstar_from_counts(system))

    agree = report.graded == (k_count is not None) == palindromic
    detail = {
        "graded": report.graded,
        "counting_index": k_count,
        "palindromic": palindromic,
        "fischer_symmetric": symmetric,
    }
    passed = agree and symmetric
    if report.graded and k_count is not None:
        k_grad = gorenstein_index_from_grading(report)
        z = canonical_interior_point(report, p.n)
        unique_interior = count_points(system, k_count, strict=True) == 1
        z_interior = system.contains(z, t=k_count, strict=True)
        detail.update(
            {"grading_index": k_grad, "canonical_point": list(z)}
        )
        passed = passed and k_grad == k_count and unique_interior and z_interior
    return CheckResult("gorenstein-triple", passed, detail)


def check_hstar_unimodal_when_gorenstein(p: SignedPoset) -> CheckResult:
    system = order_polytope(p)
    hstar = hstar_from_counts(system)
    palindromic = is_palindromic(hstar)
    unimodal = is_unimodal(hstar) if palindromic else True
    return CheckResult(
        "hstar-unimodal-when-gorenstein",
        unimodal,
        {"hstar": list(hstar), "applicable": palindromic},
    )


def check_fischer_halfspaces(p: SignedPoset) -> CheckResult:
    """The relation rows of Ĝ(M), and of Ĝ(P), carve out the same polytope as
    O_P: the same points at t = 1, 2, by grid mask on [−t, t]^n, which holds
    both t-dilates since both systems carry the cube rows."""
    system = order_polytope(p)
    points = [system.grid_mask(t, t) for t in (1, 2)]
    fh = fischer_halfspaces(minimal_fischer_representation(p))
    passed = all(
        [fischer.grid_mask(t, t) for t in (1, 2)] == points
        for fischer in (fh, fischer_halfspaces(fischer_representation(p)))
    )
    return CheckResult("fischer-halfspaces", passed, {"rows": len(fh.rows)})


def check_chain_polytope(p: SignedPoset) -> CheckResult:
    """C_P: reflexive rows, the origin inside, antichains as its t = 1 points,
    Ehrhart–Macdonald reciprocity, and counts that stay polynomial.

    Reflexive rows alone do not make C_P reflexive: Hibi's criterion also
    needs a lattice polytope.  The counts at t = n+1 and n+2 must equal the
    polynomial that the h* of the counts at t = 0..n gives, as they do for a
    lattice polytope; a rational vertex makes the count a quasi-polynomial,
    which the rows {x ≤ 1, y ≤ 1, x + 2y ≥ −1, 2x + y ≥ −1} (vertex
    (−⅓, −⅓)) miss by one point at t = 3.  Every b is −1, so reciprocity's
    strict count at t is the integer program of the weak count at t − 1: it
    re-reads the cached scans behind the h*, testing (−1)^n·ehr(−t) = ehr(t − 1).
    """
    cp = chain_polytope(p)
    rows_ok = is_reflexive(cp)
    ts = (p.n + 1, p.n + 2)
    polynomial_ok = ehrhart_values(cp, ts) == [count_points(cp, t) for t in ts]
    origin_ok = cp.contains((0,) * p.n, strict=True)
    anti = verify_antichain_characterization(p)
    return CheckResult(
        "chain-polytope",
        rows_ok
        and polynomial_ok
        and origin_ok
        and anti["match"]
        and reciprocity_check(cp),
        {
            "rows": len(cp.rows),
            "antichains": anti["antichain_count"],
            "reflexive_rows": rows_ok,
            "polynomial_counts": polynomial_ok,
        },
    )


def check_homogenization(p: SignedPoset) -> CheckResult:
    """P ⊆ P̂, and K_P̂ at height 1 has the lattice points of O_P: a row
    ⟨a, (x, 1)⟩ ≥ b of K_P̂ holds at x exactly where ⟨a[:n], x⟩ ≥ b − a[n],
    so those rows' grid mask over {−1, 0, 1}^n is O_P's."""
    lifted = homogenized_poset(p)
    at_height_1 = HalfspaceSystem(
        p.n,
        tuple(Halfspace(row.a[: p.n], row.b - row.a[p.n]) for row in order_cone(lifted).rows),
    )
    grid_ok = at_height_1.grid_mask(1) == order_polytope(p).grid_mask(1)
    return CheckResult(
        "homogenization",
        p.roots <= lifted.roots and grid_ok,
        {"lifted_size": len(lifted.roots)},
    )


ALL_CHECKS: tuple[tuple[str, Callable[[SignedPoset], CheckResult]], ...] = (
    ("minimal-representation", check_minimal_representation),
    ("jordan-holder", check_jordan_holder),
    ("interior-point", check_interior_point),
    ("hstar-oracles", check_hstar_oracles),
    ("ehrhart-reciprocity", check_ehrhart_reciprocity),
    ("filters-vertices", check_filters_vertices),
    ("irredundant-description", check_irredundant_description),
    ("triangulation", check_triangulation),
    ("gorenstein-triple", check_gorenstein_triple),
    ("hstar-unimodal-when-gorenstein", check_hstar_unimodal_when_gorenstein),
    ("fischer-halfspaces", check_fischer_halfspaces),
    ("chain-polytope", check_chain_polytope),
    ("homogenization", check_homogenization),
)


def verify_poset(p: SignedPoset) -> PosetReport:
    """Run every check; one that raises, whatever the exception, fails."""
    results = []
    for name, fn in ALL_CHECKS:
        try:
            results.append(fn(p))
        except Exception as exc:
            results.append(
                CheckResult(name, False, {"exception": type(exc).__name__, "message": str(exc)})
            )
    return PosetReport.from_checks(p.n, tuple(p.tokens()), results)


def _window_of(sub, sup) -> bool:
    m = len(sub.c)
    return any(
        sup.c[k : k + m] == sub.c and sup.s[k : k + m - 1] == sub.s
        for k in range(len(sup.c) - m + 1)
    )


def subchain_sufficiency_witness(n: int = 3, force: bool = False) -> Optional[dict]:
    """A poset where dropping rows of non-maximal chains changes C_P.

    Classically maximal chains suffice; the signed analogue fails.  Keeps the
    cube (singleton chains) and the rows of window-maximal chains, then looks
    for a dropped row that still cuts, shown by a `necessity_witness` point
    and no LP.  Returns the first witness.
    """
    for p, chain, trial in subchain_trials(n, force):
        if _witnessed(trial, len(trial.rows) - 1):
            return {
                "poset": p.tokens(),
                "chain": chain.to_json_dict(),
                "row": list(trial.rows[-1].a),
                "kept_rows": len(trial.rows) - 1,
            }
    return None


def subchain_trials(n: int = 3, force: bool = False):
    """(P, dropped chain, trial system) in the witness search's order.

    The trial system is the kept rows (cube and window-maximal chains) plus
    one row of a dropped chain, last; the question is whether that row cuts.
    """
    for p in iter_signed_posets(n, force=force):
        chains = enumerate_chains(p)
        long_chains = [c for c in chains if len(c.c) >= 2]
        if not any(len(c.c) >= 3 for c in long_chains):
            continue
        maximal = [
            c
            for c in long_chains
            if not any(
                len(d.c) > len(c.c) and _window_of(c, d) for d in long_chains
            )
        ]
        dropped = [c for c in long_chains if c not in maximal]
        if not dropped:
            continue
        kept = list(cube_rows(p.n))
        for chain in maximal:
            w = chain.coefficients(p.n)
            kept.append(Halfspace(w, -1, "max-chain"))
            kept.append(Halfspace(tuple(-x for x in w), -1, "max-chain"))
        kept = list(dedupe_rows(kept))
        kept_keys = {(row.a, row.b) for row in kept}
        for chain in dropped:
            w = chain.coefficients(p.n)
            for a in (w, tuple(-x for x in w)):
                if (a, -1) in kept_keys:
                    continue
                yield p, chain, HalfspaceSystem(
                    p.n, tuple(kept) + (Halfspace(a, -1, "dropped"),)
                )


def isomorphism_invariance_report(n: int = 2) -> dict:
    """h* and the Gorenstein flag across every group action on every poset."""
    group = enumerate_signed_permutations(n)
    failures = []
    total = 0
    for p in iter_signed_posets(n):
        total += 1
        base_h = hstar_by_descents(p)
        base_g = is_gorenstein(p)
        for omega in group:
            q = act_poset(omega, p)
            h = hstar_by_descents(q)
            g = is_gorenstein(q)
            if h != base_h or g != base_g:
                failures.append(
                    {
                        "poset": p.tokens(),
                        "omega": list(omega.images),
                        "hstar": list(h),
                        "expected": list(base_h),
                    }
                )
    return {
        "n": n,
        "group_order": len(group),
        "posets": total,
        "invariant": not failures,
        "failures": failures[:10],
    }


@dataclass(frozen=True)
class CatalogReport:
    n: int
    poset_count: int
    check_passes: dict
    failures: tuple
    extras: dict
    elapsed_s: float

    @property
    def passed(self) -> bool:
        """No failed check, and each extra that is present holds."""
        invariance = self.extras.get("isomorphism_invariance", {"invariant": True})
        witness = self.extras.get("subchain_witness", {})
        return not self.failures and invariance["invariant"] and witness is not None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "posets": self.poset_count,
            "passed": self.passed,
            "check_passes": self.check_passes,
            "failures": [
                {"roots": list(tokens), "check": name, "detail": detail}
                for tokens, name, detail in self.failures
            ],
            "extras": self.extras,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def verify_catalog(
    n: int,
    force: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> CatalogReport:
    start = time.monotonic()
    passes: Counter = Counter()
    failures: list[tuple[tuple[str, ...], str, dict]] = []
    posets = list(iter_signed_posets(n, force=force))
    total = len(posets)
    sweep_start = time.monotonic()
    for done, p in enumerate(posets, 1):
        report = verify_poset(p)
        for c in report.checks:
            if c.passed:
                passes[c.name] += 1
            elif len(failures) < 25:
                failures.append((report.tokens, c.name, c.detail))
        if log and (done % 100 == 0 or done == total):
            rate = done / max(time.monotonic() - sweep_start, 1e-9)
            log(
                f"verified {done}/{total} posets on [{n}] "
                f"({rate:.1f}/s, ETA {(total - done) / rate:.0f} s)"
            )

    extras: dict = {}
    if n <= 2:
        extras["isomorphism_invariance"] = isomorphism_invariance_report(n)
    if n >= 3:
        extras["subchain_witness"] = subchain_sufficiency_witness(n, force=force)
    return CatalogReport(
        n, total, dict(sorted(passes.items())), tuple(failures), extras, time.monotonic() - start
    )
