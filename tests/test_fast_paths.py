"""Each integer fast path against its slow route, and the count-cache contract.

The fast paths are: `dot` in integers, the witness-first `row_is_necessary`,
the half-open oracle's integer viewpoint, the fraction-free simplex, the
depth-first lattice count, the triangulation check by owner table, the
Ehrhart polynomial from integer h*, the minimal-representation check by
integer certificates, lattice membership by grid mask (`grid_mask`,
the triangulation by cell masks, `jordan_holder` by word masks and the
redundancy witnesses by mask), the signed chains read off Ĝ(P), Ĝ(P)
and Ĝ(M) by one rule and Warshall's closure, and gradedness by one height
pass.  Each is compared with the route it replaced on the
whole n ≤ 3 catalog (the simplex on the LPs of a seeded n = 3 sweep and on
fuzzed small LPs; the count, the triangulation, the Ehrhart polynomial, the
minimal-representation check, `jordan_holder`, the chains, Ĝ and its
gradedness also on seeded n = 4 posets, and gradedness on seeded random
classical posets too).  The replaced kernels live in `reference_kernels.py`.
The count solves no LP.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product

from hypothesis import example, given
from hypothesis import strategies as st

import reference_kernels
from reference_kernels import (
    chains_by_steps,
    count_by_box_scan,
    ehrhart_by_interpolation,
    _transitive_closure,
    fischer_relations_by_cases,
    graded_by_chains,
    grid_mask_by_contains,
    half_open_contains_at,
    jordan_holder_by_scan,
    lp_oracle,
    minimal_representation_by_lp,
    poly_eval,
    reciprocity_by_interpolation,
    reference_point,
    row_is_necessary_by_scan,
    strictly_inside_by_fractions,
    triangulation_by_cell_scan,
    triangulation_by_owner_scan,
)
from signedposets.catalog import enumerate_signed_posets
from signedposets.chains import chain_polytope, enumerate_chains
from signedposets import ehrhart, geometry, linalg, verify
from signedposets.ehrhart import (
    count_points,
    ehrhart_polynomial,
    ehrhart_values,
    reciprocity_check,
)
from signedposets.errors import AsymmetryViolation
from signedposets.geometry import (
    _lp_row_is_necessary,
    order_polytope,
    order_polytope_irredundant,
    row_is_necessary,
)
from signedposets.gorenstein import (
    ClassicalPoset,
    fischer_halfspaces,
    fischer_representation,
    is_graded,
    minimal_fischer_representation,
)
from signedposets.halfspaces import Halfspace, HalfspaceSystem, cube_rows
from signedposets.jordan import half_open_contains_generic, jordan_holder
from signedposets.linalg import dot, solve_standard
from signedposets.perms import enumerate_signed_permutations
from signedposets.posets import from_generators, minimal_representation
from signedposets.roots import all_roots, parse_root
from signedposets.verify import (
    check_chain_polytope,
    check_fischer_halfspaces,
    check_interior_point,
    check_irredundant_description,
    check_minimal_representation,
    check_triangulation,
    subchain_trials,
    verify_poset,
)

CATALOG = [p for n in (1, 2, 3) for p in enumerate_signed_posets(n)]


def test_dot_is_int_on_integers_and_fraction_on_fractions():
    value = dot((1, -2, 3), (4, 5, -6))
    assert type(value) is int and value == -24
    value = dot((1, -2), (Fraction(1, 3), Fraction(1, 2)))
    assert type(value) is Fraction and value == Fraction(-2, 3)
    assert dot((2, 0), (Fraction(1, 2), 7)) == 1


def test_witness_first_redundancy_equals_the_lp_on_irredundant_systems():
    rows = 0
    for p in CATALOG:
        irr = order_polytope_irredundant(p)
        for index in range(len(irr.rows)):
            assert row_is_necessary(irr, index) == _lp_row_is_necessary(irr, index)
            rows += 1
    assert rows > 4944  # the n = 3 systems alone have 4,944 rows


def test_witness_by_mask_equals_the_point_scan(monkeypatch):
    # With the LP answering "redundant", each verdict says whether an integer
    # witness was found.
    for module in (geometry, reference_kernels):
        monkeypatch.setattr(module, "_lp_row_is_necessary", lambda system, index: False)
    probes = [
        (irr, index)
        for irr in map(order_polytope_irredundant, CATALOG)
        for index in range(len(irr.rows))
    ]
    probes += [
        (trial, len(trial.rows) - 1)
        for _, _, trial in islice(subchain_trials(3), 0, None, 25)
    ]
    found = {row_is_necessary(*probe) for probe in probes}
    assert found == {False, True}
    for probe in probes:
        assert row_is_necessary(*probe) == row_is_necessary_by_scan(*probe)


def test_witness_first_redundancy_equals_the_lp_where_rows_are_redundant():
    # A third of the 5,472 n = 3 trial rows are redundant, so the LP decides
    # them; every 25th trial keeps the test to a few seconds.
    verdicts = set()
    for _, _, trial in islice(subchain_trials(3), 0, None, 25):
        last = len(trial.rows) - 1
        verdict = row_is_necessary(trial, last)
        assert verdict == _lp_row_is_necessary(trial, last)
        verdicts.add(verdict)
    assert verdicts == {False, True}


def test_integer_viewpoint_equals_the_rational_reference_point():
    for n in (1, 2, 3):
        q = reference_point(n)
        for sigma in enumerate_signed_permutations(n):
            for t in (1, 2):
                for x in product(range(-t, t + 1), repeat=n):
                    assert half_open_contains_generic(sigma, x, t) == (
                        half_open_contains_at(sigma, x, t, q)
                    )


def test_count_cache_keys_on_rows_not_labels():
    rows = cube_rows(2)
    plain = HalfspaceSystem(2, tuple(rows))
    relabelled = HalfspaceSystem(
        2, tuple(Halfspace(r.a, r.b, f"other {k}") for k, r in enumerate(rows))
    )
    assert plain != relabelled and plain.normals == relabelled.normals
    count_points.cache_clear()
    assert count_points(plain, 2) == count_points(relabelled, 2) == 25
    info = count_points.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def _count_with_cache_change(system, t, strict=False):
    before = count_points.cache_info()
    count = count_points(system, t, strict)
    after = count_points.cache_info()
    return count, (after.hits - before.hits, after.misses - before.misses)


def test_strict_count_is_the_cached_weak_count_one_dilate_down():
    # With every b = −1, ⟨a, x⟩ > −t and ⟨a, x⟩ ≥ −(t − 1) are one integer
    # program; a row with b = −2 makes them two (−2t + 1 against −2t + 2),
    # except at t − 1 = 0, where every b gives 0.
    fig1 = from_generators(2, [parse_root("-1+2"), parse_root("+1+2")])
    for system in (HalfspaceSystem(3, tuple(cube_rows(3))), chain_polytope(fig1)):
        assert {row.b for row in system.rows} == {-1}
        first = system.rows[0]
        bent = HalfspaceSystem(system.n, (Halfspace(first.a, -2),) + system.rows[1:])
        count_points.cache_clear()
        for t in range(1, 6):
            weak, _ = _count_with_cache_change(system, t - 1)
            assert _count_with_cache_change(system, t, strict=True) == (weak, (1, 0))
            assert weak == count_by_box_scan(system, t, strict=True)
        for t in range(2, 6):
            for dilate, strict in ((t - 1, False), (t, True)):
                count, (_, misses) = _count_with_cache_change(bent, dilate, strict)
                assert misses == 1
                assert count == count_by_box_scan(bent, dilate, strict)


def test_count_cache_behaves_as_an_lru_cache_of_4096_entries():
    reference = lru_cache(maxsize=4096)(lambda t: t)
    system = HalfspaceSystem(1, tuple(cube_rows(1)))
    count_points.cache_clear()
    assert count_points.cache_info() == reference.cache_info()
    for t in (1, 2, 1):
        count_points(system, t)
        reference(t)
    assert count_points.cache_info() == reference.cache_info()
    assert count_points.cache_info().maxsize == 4096
    count_points.cache_clear()
    reference.cache_clear()
    assert count_points.cache_info() == reference.cache_info()
    assert count_points(system, 3, strict=True) == 5


def test_signed_permutations_are_a_new_list_each_call():
    first = enumerate_signed_permutations(2)
    fresh = list(first)
    first.reverse()
    first.pop()
    assert enumerate_signed_permutations(2) == fresh
    assert enumerate_signed_permutations(2) is not enumerate_signed_permutations(2)


def test_simplex_equals_the_fraction_tableau_on_a_seeded_sweep(monkeypatch):
    lps = []

    def record(a, b, c):
        lps.append(([list(row) for row in a], list(b), list(c)))
        return solve_standard(a, b, c)

    monkeypatch.setattr(linalg, "solve_standard", record)
    for p in random.Random("lp-oracle").sample(CATALOG[36:], 25):
        verify_poset(p)
        minimal_representation_by_lp(p)
    monkeypatch.undo()
    statuses = set()
    for a, b, c in lps:
        answer = solve_standard(a, b, c)
        assert answer == lp_oracle(a, b, c), (a, b, c)
        statuses.add(answer[0])
    assert len(lps) > 300 and statuses == {"optimal", "infeasible"}


# Small LPs over ints or fractions.  Equal rows, multiples and zero
# right-hand sides make degenerate bases common.
_entries = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def _small_lps(draw):
    nv = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    a = draw(st.lists(st.lists(_entries, min_size=nv, max_size=nv), min_size=m, max_size=m))
    b = draw(st.lists(st.one_of(st.just(0), _entries), min_size=m, max_size=m))
    if draw(st.booleans()):
        k = draw(st.integers(0, m - 1))
        s = draw(st.sampled_from([1, 2, Fraction(-1, 2)]))
        a.append([s * x for x in a[k]])
        b.append(s * b[k])
    c = draw(st.lists(_entries, min_size=nv, max_size=nv))
    return a, b, c


# Beale's example: Dantzig's rule cycles on it, Bland's rule does not.
_BEALE = (
    [
        [1, 0, 0, Fraction(1, 4), -8, -1, 9],
        [0, 1, 0, Fraction(1, 2), -12, Fraction(-1, 2), 3],
        [0, 0, 1, 0, 0, 1, 0],
    ],
    [0, 0, 1],
    [0, 0, 0, Fraction(-3, 4), 20, Fraction(-1, 2), 6],
)


@given(_small_lps())
@example(_BEALE)
@example(([[1, 1]], [-1], [1, 1]))  # infeasible
@example(([[1, -1]], [0], [-1, 0]))  # unbounded
@example(([[1, 1], [2, 2]], [1, 2], [1, 0]))  # a redundant row
# A tie in the ratio test: taking the larger basic index gives another optimum.
@example(([[1, 2, 1, 2, 1], [-1, -1, -1, 0, 1]], [1, 0], [-1, -1, 2, 1, 1]))
def test_simplex_equals_the_fraction_tableau_on_small_lps(lp):
    a, b, c = lp
    status, x, value = answer = solve_standard(a, b, c)
    assert answer == lp_oracle(a, b, c)
    if status == "optimal":
        assert all(v >= 0 for v in x) and dot(c, x) == value
        assert all(dot(row, x) == rhs for row, rhs in zip(a, b))


def test_simplex_solves_beale_without_cycling():
    status, x, value = solve_standard(*_BEALE)
    assert (status, value) == ("optimal", Fraction(-5, 4))
    assert x == [Fraction(3, 4), 0, 0, 1, 0, 1, 0]


def _rows(system):
    return tuple((row.a, row.b) for row in system.rows)


def _count_agrees(system, tmax):
    for t in range(tmax + 1):
        for strict in (False, True):
            assert count_points(system, t, strict) == count_by_box_scan(system, t, strict), (
                _rows(system), t, strict
            )


def _boxed_irredundant(p):
    # The pruned O_P plus the cube rows it leaves out: the same polytope, and
    # one whose single-coordinate rows give the count a box.
    irr = order_polytope_irredundant(p)
    kept = {(row.a, row.b) for row in irr.rows}
    left_out = tuple(row for row in cube_rows(p.n) if (row.a, row.b) not in kept)
    return HalfspaceSystem(p.n, irr.rows + left_out)


def test_depth_first_count_equals_the_box_scan_up_to_n3():
    for p in CATALOG:
        for system in (order_polytope(p), _boxed_irredundant(p), chain_polytope(p)):
            _count_agrees(system, 3)


@st.composite
def _boxed_systems(draw):
    # The cube [−1, 1]^n bounds every dilate without an LP; the extra rows
    # have coefficients beyond ±1, which no O_P or C_P row has.
    n = draw(st.integers(1, 3))
    extra = draw(
        st.lists(
            st.tuples(st.tuples(*[st.integers(-3, 3)] * n), st.integers(-3, 1)), max_size=3
        )
    )
    rows = list(cube_rows(n)) + [Halfspace(a, b) for a, b in extra]
    return HalfspaceSystem(n, tuple(rows))


@given(_boxed_systems(), st.integers(0, 3), st.booleans())
def test_depth_first_count_equals_the_box_scan_on_general_rows(system, t, strict):
    assert count_points(system, t, strict) == count_by_box_scan(system, t, strict)


def _seeded_posets(n, count, seed):
    rng = random.Random(seed)
    roots = all_roots(n)
    posets = []
    while len(posets) < count:
        try:
            posets.append(from_generators(n, rng.sample(roots, rng.randint(1, n))))
        except AsymmetryViolation:
            continue
    return posets


def test_minimal_representation_check_equals_the_lp_up_to_n3_and_at_n4():
    for p in CATALOG + _seeded_posets(4, 200, "minrep-lp:4"):
        assert check_minimal_representation(p) == minimal_representation_by_lp(p), p.tokens()


def test_depth_first_count_equals_the_box_scan_at_n4():
    for p in _seeded_posets(4, 30, "count-oracle:4"):
        for system in (order_polytope(p), _boxed_irredundant(p), chain_polytope(p)):
            _count_agrees(system, 3)


def _grid_systems(p):
    return (
        order_polytope(p),
        order_polytope_irredundant(p),
        chain_polytope(p),
        fischer_halfspaces(minimal_fischer_representation(p)),
        fischer_halfspaces(fischer_representation(p)),
    )


def test_grid_mask_equals_contains_up_to_n3():
    # Each distinct row of every system alone at r = 1..3, at t = 1 and at
    # t = r; then each distinct system at r = 1.
    systems = {}
    for p in CATALOG:
        for system in _grid_systems(p):
            systems.setdefault(_rows(system), system)
    rows = {
        (system.n, row.a, row.b): HalfspaceSystem(system.n, (row,))
        for system in systems.values()
        for row in system.rows
    }
    assert len(systems) > 3000 and len(rows) > 70
    for one in rows.values():
        for r in (1, 2, 3):
            for t in {1, r}:
                assert one.grid_mask(r, t) == grid_mask_by_contains(one, r, t)
    for system in systems.values():
        assert system.grid_mask(1) == grid_mask_by_contains(system, 1)


def test_set_claims_compare_grid_masks_and_count_nothing(monkeypatch):
    # Both checks claim that two descriptions have the same lattice points.
    def no_count(*args, **kwargs):
        raise AssertionError("a set claim counted lattice points")

    monkeypatch.setattr(verify, "count_points", no_count)
    for p in CATALOG + _seeded_posets(4, 30, "count-oracle:4"):
        assert check_irredundant_description(p).passed, p.tokens()
        assert check_fischer_halfspaces(p).passed, p.tokens()


def test_triangulation_by_mask_equals_the_owner_scan_up_to_n3_and_at_n4():
    for p in CATALOG + _seeded_posets(4, 30, "count-oracle:4"):
        assert check_triangulation(p) == triangulation_by_owner_scan(p), p.tokens()


def test_jordan_holder_by_mask_equals_the_scan_up_to_n3_and_at_n4():
    for p in CATALOG + _seeded_posets(4, 200, "jh-scan:4"):
        assert jordan_holder(p) == jordan_holder_by_scan(p), p.tokens()


def test_triangulation_by_owner_equals_the_cell_scan_up_to_n3():
    for p in CATALOG:
        assert check_triangulation(p) == triangulation_by_cell_scan(p), p.tokens()


def test_triangulation_by_owner_equals_the_cell_scan_at_n4():
    # Both look at t = 1..4.  The ten one-root posets (|JH| = 192) take the
    # cell scan 2-3 s each, so the first with a long root (−1+2) and the first
    # with a short root (+1) stand for them; the 20 others are all scanned.
    posets = _seeded_posets(4, 30, "count-oracle:4")
    one_root = [p for p in posets if len(p.roots) == 1]
    for p in [p for p in posets if len(p.roots) > 1] + one_root[:2]:
        assert check_triangulation(p) == triangulation_by_cell_scan(p), p.tokens()


def _ehrhart_agrees(p):
    for system in (order_polytope(p), chain_polytope(p)):
        ehr = ehrhart_by_interpolation(system)
        assert ehrhart_polynomial(system) == ehr, p.tokens()
        ts = range(-system.n - 2, system.n + 4)
        assert ehrhart_values(system, ts) == [poly_eval(ehr, t) for t in ts]
        assert reciprocity_check(system) == reciprocity_by_interpolation(system)
    cp = chain_polytope(p)
    ehr = ehrhart_by_interpolation(cp)
    assert check_chain_polytope(p).detail["polynomial_counts"] == all(
        poly_eval(ehr, t) == count_points(cp, t) for t in (p.n + 1, p.n + 2)
    )


def test_ehrhart_from_hstar_equals_the_interpolation_up_to_n3():
    for p in CATALOG:
        _ehrhart_agrees(p)


def test_ehrhart_from_hstar_equals_the_interpolation_at_n4():
    for p in _seeded_posets(4, 30, "count-oracle:4"):
        _ehrhart_agrees(p)


def test_every_count_of_a_verify_sweep_solves_no_lp(monkeypatch):
    counted = {}

    def record(system, t, strict=False):
        counted[system, t, strict] = value = count_points(system, t, strict)
        return value

    for module in (ehrhart, verify):
        monkeypatch.setattr(module, "count_points", record)
    for p in CATALOG[:60]:  # n ≤ 2, and 24 posets of n = 3
        assert verify_poset(p).passed
    monkeypatch.undo()

    def no_lp(*args):
        raise AssertionError("the count solved an LP")

    monkeypatch.setattr(linalg, "solve_standard", no_lp)
    count_points.cache_clear()
    for (system, t, strict), value in counted.items():
        assert count_points(system, t, strict) == value
    assert len(counted) > 400


def test_interior_point_in_integers_equals_the_fraction_test_up_to_n3_and_at_n4():
    # At every word of the group, JH(P)'s and the others': ω/(n+1) is strictly
    # inside O_P exactly when ω is strictly inside (n+1)·O_P, that is, when
    # ω ∈ JH(P).
    for p in CATALOG + _seeded_posets(4, 30, "count-oracle:4"):
        system, jh = order_polytope(p), set(jordan_holder(p))
        for word in enumerate_signed_permutations(p.n):
            omega = word.as_point()
            integer = system.contains(omega, t=p.n + 1, strict=True)
            assert integer == strictly_inside_by_fractions(p, omega) == (word in jh), p.tokens()
        assert check_interior_point(p).passed, p.tokens()


def test_chains_read_off_fischer_equal_the_step_rule_up_to_n3_and_at_n4():
    for p in CATALOG + _seeded_posets(4, 30, "count-oracle:4"):
        walked = [chain.to_json_dict() for chain in enumerate_chains(p)]
        assert walked == [chain.to_json_dict() for chain in chains_by_steps(p)], p.tokens()


def test_fischer_by_one_rule_equals_the_five_cases_up_to_n3_and_at_n4():
    for p in CATALOG + _seeded_posets(4, 30, "count-oracle:4"):
        assert fischer_representation(p).lt == fischer_relations_by_cases(p.roots), p.tokens()
        minimal = fischer_relations_by_cases(minimal_representation(p))
        assert minimal_fischer_representation(p).lt == minimal, p.tokens()


def test_gradedness_by_heights_equals_the_chains_up_to_n3_and_at_n4():
    for p in CATALOG + _seeded_posets(4, 30, "count-oracle:4"):
        for q in (fischer_representation(p), minimal_fischer_representation(p)):
            assert is_graded(q) == graded_by_chains(q), p.tokens()


def test_gradedness_by_heights_equals_the_chains_on_random_classical_posets():
    # Orders on 2n+1 ≤ 9 labels with no symmetry: shapes that Ĝ never has.
    rng = random.Random("graded-by-heights")
    verdicts = set()
    for n in (1, 2, 3, 4):
        for _ in range(300):
            order = rng.sample(range(-n, n + 1), 2 * n + 1)
            density = rng.random()
            pairs = {(u, v) for k, u in enumerate(order) for v in order[k + 1:]
                     if rng.random() < density}
            q = ClassicalPoset(n, frozenset(_transitive_closure(pairs)))
            assert is_graded(q) == graded_by_chains(q), sorted(q.lt)
            verdicts.add(is_graded(q).graded)
    assert verdicts == {True, False}
