"""Positive-linear-closure semantics, cross-checked against a Caratheodory
oracle that is independent of the simplex code path, and the bitmask closure
kernel cross-checked against the LP."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_kernels import is_closed, lp_closure

from signedposets.catalog import enumerate_signed_posets, iter_signed_posets
from signedposets.errors import AsymmetryViolation, CycleDetected
from signedposets.geometry import homogenized_poset
from signedposets.posets import (
    SignedPoset,
    bidirected_dot,
    classical_relations,
    close_mask,
    cone_contains,
    embed_classical_poset,
    from_generators,
    minimal_representation,
    plc,
    root_kernel,
)
from signedposets.roots import Root, all_roots, antipodal_pairs, parse_root


def mk(n, tokens):
    return from_generators(n, [parse_root(t) for t in tokens])


def gauss_solve(columns, target):
    """Unique solution of [columns]·x = target, or None (inconsistent or
    underdetermined).  Plain elimination, written here so the test does not
    lean on the package's own linear algebra."""
    m, k = len(target), len(columns)
    aug = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])] for i in range(m)]
    pivots = []
    row = 0
    for col in range(k):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None  # dependent columns: caller tries another subset
        aug[row], aug[pivot] = aug[pivot], aug[row]
        aug[row] = [x / aug[row][col] for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, m):
        if aug[r][k] != 0:
            return None
    return [aug[i][k] for i in range(k)]


def caratheodory_contains(gamma, roots, n):
    """gamma in cone(roots) iff some subset of <= n members combines it
    with nonnegative coefficients."""
    vecs = [r.vector(n) for r in roots]
    target = gamma.vector(n)
    if all(v == 0 for v in target):
        return True
    for size in range(1, n + 1):
        for subset in combinations(vecs, size):
            coeffs = gauss_solve(subset, target)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


subsets2 = st.builds(
    lambda picks: [pair[flip] for pair, flip in picks if flip is not None],
    st.lists(
        st.tuples(
            st.sampled_from(list(antipodal_pairs(2))),
            st.sampled_from([0, 1, None]),
        ),
        max_size=4,
    ),
)


@given(subsets2, st.sampled_from(all_roots(2)))
def test_cone_contains_matches_caratheodory(roots, gamma):
    roots = list(dict.fromkeys(roots))
    assert cone_contains(gamma, roots, 2) == caratheodory_contains(gamma, roots, 2)


def test_cone_contains_matches_caratheodory_n3():
    roots = [parse_root(t) for t in ["+1-2", "+2+3", "-1"]]
    for gamma in all_roots(3):
        assert cone_contains(gamma, roots, 3) == caratheodory_contains(gamma, roots, 3)


def test_closure_of_figure_one_generators():
    generators = [parse_root("-1+2"), parse_root("+1+2")]
    closure = plc(generators, 2)
    assert closure == {parse_root("-1+2"), parse_root("+1+2"), parse_root("+2")}


@given(subsets2)
@settings(max_examples=60)
def test_plc_is_a_closure_operator(roots):
    try:
        closed = plc(roots, 2)
    except AsymmetryViolation:
        return  # contradictory generators have no closure
    assert set(roots) <= closed
    assert plc(closed, 2) == closed


@given(subsets2, subsets2)
@settings(max_examples=40)
def test_plc_monotone(a, b):
    try:
        small, big = plc(a, 2), plc(list(a) + list(b), 2)
    except AsymmetryViolation:
        return
    assert small <= big


def test_from_generators_rejects_contradictions():
    with pytest.raises(AsymmetryViolation):
        mk(2, ["+1", "-1"])
    # contradiction only surfaces after closing: e2 = e1 + (-e1+e2)
    with pytest.raises(AsymmetryViolation) as caught:
        mk(2, ["+1", "-1+2", "-2"])
    # -e1 = (-e1+e2) + (-e2) is the smallest root whose negative is also in
    assert caught.value.root == parse_root("-1")


def test_direct_construction_checks_asymmetry_and_bounds():
    with pytest.raises(AsymmetryViolation):
        SignedPoset(2, frozenset({parse_root("+1+2"), parse_root("-1-2")}))
    with pytest.raises(IndexError):
        SignedPoset(2, frozenset({parse_root("+3")}))
    with pytest.raises(ValueError):
        SignedPoset(0, frozenset())


def test_is_closed():
    assert is_closed(mk(2, ["-1+2", "+1+2"]))
    assert not is_closed(SignedPoset(2, frozenset({parse_root("-1+2"), parse_root("+1+2")})))


def test_minimal_representation_regenerates():
    for p in enumerate_signed_posets(2):
        m = minimal_representation(p)
        assert m <= p.roots
        assert plc(m, p.n) == p.roots


def test_minimal_representation_fig1():
    p = mk(2, ["-1+2", "+1+2"])
    assert minimal_representation(p) == {parse_root("-1+2"), parse_root("+1+2")}


def test_embed_classical_poset_round_trip():
    relations = {(1, 2), (2, 3), (1, 3)}
    p = embed_classical_poset(3, relations)
    assert p.tokens() == ["-1+2", "-1+3", "-2+3"]
    assert classical_relations(p) == relations


def test_embedding_closes_transitively():
    # generators for 1<2<3 only; closure must add the (1,3) relation
    p = embed_classical_poset(3, [(1, 2), (2, 3)])
    assert parse_root("-1+3") in p


@pytest.mark.parametrize("relations", [[(1, 2), (2, 3), (3, 1)], [(1, 2), (2, 2)]])
def test_embedding_rejects_cycles(relations):
    with pytest.raises(CycleDetected):
        embed_classical_poset(3, relations)


def test_bidirected_graph_shape():
    p = mk(2, ["-1+2", "+1+2"])
    edges = [line for line in bidirected_dot(p).splitlines() if " -- " in line]
    assert len(edges) == len(p.roots)
    # fig1: +2 = ½(−1+2) + ½(+1+2) is the one root outside M, a dotted loop
    assert [e for e in edges if "dotted" in e] == ['  2 -- 2 [style=dotted, label="+"];']
    assert "+2" in p.tokens()


def lp_minimal_representation(p):
    """The definition: the roots of P outside the cone of the others."""
    return {a for a in p.roots if not cone_contains(a, p.roots - {a}, p.n)}


def test_minimal_representation_matches_lp_definition_n3():
    for p in iter_signed_posets(3):
        assert minimal_representation(p) == lp_minimal_representation(p)


@pytest.mark.parametrize("n, count", [(4, 200), (5, 100)])
def test_kernel_plc_matches_lp_loop(n, count):
    rng = random.Random(f"kernel-plc:{n}")
    kernel = root_kernel(n)
    roots = all_roots(n)
    asymmetric = 0
    for _ in range(count):
        gens = rng.sample(roots, rng.randint(1, n))
        fixpoint = close_mask(kernel, kernel.mask(gens))
        lp = lp_closure(gens, n)
        # the pairwise fixpoint never leaves the cone ...
        assert kernel.members(fixpoint) <= lp
        # ... and reaches all of it whenever it is a signed poset
        if not kernel.clash(fixpoint):
            asymmetric += 1
            assert kernel.members(fixpoint) == lp
            assert plc(gens, n) == lp
        else:
            # a ±α pair in the fixpoint is one in the cone too
            assert any(-alpha in lp for alpha in lp)
            with pytest.raises(AsymmetryViolation):
                plc(gens, n)
    assert asymmetric >= count // 4


def test_plc_is_the_lp_closure_or_raises_on_every_subset_of_b2():
    roots = all_roots(2)
    raised = 0
    for k in range(1 << len(roots)):
        gens = [alpha for i, alpha in enumerate(roots) if k >> i & 1]
        lp = lp_closure(gens, 2)
        symmetric = any(-alpha in lp for alpha in lp)
        try:
            assert plc(gens, 2) == lp
        except AsymmetryViolation as exc:
            raised += 1
            assert symmetric and exc.root in lp and -exc.root in lp
        else:
            assert not symmetric
    assert 0 < raised < 256


def test_homogenized_poset_matches_lp_route():
    catalog = list(iter_signed_posets(3))
    for p in random.Random("homogenize").sample(catalog, 30):
        gens = set(p.roots)
        for i in range(1, 4):
            gens |= {Root.pair(i, 1, 4, 1), Root.pair(i, -1, 4, 1)}
        assert homogenized_poset(p).roots == lp_closure(gens, 4)


def test_pair_table_is_sum_and_half_sum():
    kernel = root_kernel(3)
    vectors = [a.vector(3) for a in kernel.roots]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            made = {kernel.roots[k].vector(3) for k in range(len(vectors)) if kernel.made[i][j] >> k & 1}
            total = tuple(x + y for x, y in zip(a, b))
            expected = {total} & set(vectors)
            if i != j and all(v % 2 == 0 for v in total):
                expected |= {tuple(v // 2 for v in total)} & set(vectors)
            assert made == expected
            assert bool(kernel.partners[i] >> j & 1) == bool(made)
