"""Jordan–Hölder sets, the unimodular cells, and the descent h* statistic.

The cell owned by σ ∈ JH(P) is cell(σ⁻¹): the chamber whose interior
contains the scaled one-line word of σ.  Several tests below pin
that convention, because the direct (non-inverse) reading agrees on all
n ≤ 2 examples and silently breaks at n = 3.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given
from hypothesis import strategies as st

from signedposets.catalog import enumerate_signed_posets
from signedposets.ehrhart import hstar_from_counts
from signedposets.geometry import order_polytope
from signedposets.halfspaces import grid_points
from signedposets.jordan import (
    cell,
    cell_determinant,
    cell_vertices,
    half_open_contains,
    half_open_contains_generic,
    hstar_by_descents,
    is_naturally_labeled,
    jh_representative,
    jordan_holder,
    natdes,
    naturalize,
    owner,
    owner_table,
)
from signedposets.perms import SignedPermutation, enumerate_signed_permutations
from signedposets.posets import from_generators
from signedposets.roots import parse_root


def mk(n, tokens):
    return from_generators(n, [parse_root(t) for t in tokens])


def test_natdes_convention():
    # the word is padded with sigma(0) = 0, so a leading negative is a descent
    assert natdes(SignedPermutation((1, 2))).natdes == 0
    assert natdes(SignedPermutation((-1, 2))).natdes_set == frozenset({0})
    assert natdes(SignedPermutation((2, 1))).natdes_set == frozenset({1})
    assert natdes(SignedPermutation((-1, -2))).natdes == 2


def test_jordan_holder_fig1():
    p = mk(2, ["-1+2", "+1+2"])
    assert [w.images for w in jordan_holder(p)] == [(-1, 2), (1, 2)]
    assert jh_representative(p).images == (1, 2)


def test_jordan_holder_empty_poset_is_whole_group():
    for n in (1, 2):
        assert len(jordan_holder(mk(n, []))) == 2**n * [1, 1, 2][n]


def test_naturally_labeled():
    assert is_naturally_labeled(mk(2, ["-1+2"]))
    assert not is_naturally_labeled(mk(2, ["+1-2"]))
    assert is_naturally_labeled(mk(2, []))


def test_naturalize_postcondition():
    for p in enumerate_signed_posets(2):
        omega, image = naturalize(p)
        assert is_naturally_labeled(image)
        assert omega in jordan_holder(p)
        assert len(jordan_holder(image)) == len(jordan_holder(p))


perm_words = st.sampled_from(enumerate_signed_permutations(3))


@given(perm_words)
def test_cells_are_unimodular(sigma):
    assert cell_determinant(sigma) in (1, -1)
    verts = cell_vertices(sigma)
    assert len(verts) == 4
    assert verts[0] == (0, 0, 0)


@given(perm_words)
def test_cell_contains_its_own_scaled_word(sigma):
    # the interior representative of cell(tau) is the scaled word of tau^{-1}
    q = tuple(Fraction(v, 4) for v in sigma.inverse().as_point())
    assert half_open_contains(cell(sigma), q)


def test_chamber_is_the_inverse_cell():
    for n in (2, 3):
        group = enumerate_signed_permutations(n)
        for sigma in group:
            q = tuple(Fraction(v, n + 1) for v in sigma.as_point())
            owners = [tau for tau in group if half_open_contains(cell(tau), q)]
            assert owners == [sigma.inverse()]


@given(perm_words, st.integers(min_value=1, max_value=2))
def test_half_open_matches_generic_oracle(sigma, t):
    cell_ = cell(sigma)
    for x in product(range(-t, t + 1), repeat=3):
        assert half_open_contains(cell_, x, t) == half_open_contains_generic(
            sigma, x, t
        )


def test_half_open_cells_partition_the_cube():
    # the 2^n n! half-open cells tile [-t, t]^n with no overlaps; the one
    # cell that holds x is the one owner(x) names, and the table's cell masks
    # hold each grid point once, in its owner's mask
    for n in (1, 2, 3):
        group = enumerate_signed_permutations(n)
        cells = [cell(sigma) for sigma in group]
        for t in (1, 2, 3):
            table = owner_table(n, t)
            assert table.counterexample is None
            points = grid_points(n, t)
            assert sum(bin(m).count("1") for m in table.cell_masks.values()) == len(points)
            for k, x in enumerate(points):
                owners = [c.sigma.images for c in cells if half_open_contains(c, x, t)]
                assert owners == [owner(x)], (x, owners)
                assert table.cell_masks[owner(x)] >> k & 1, x


def test_owner_table_is_built_once_per_rank_and_dilate():
    owner_table.cache_clear()
    first = owner_table(2, 2)
    assert owner_table(2, 2) is first
    assert owner_table.cache_info().misses == 1 and owner_table.cache_info().maxsize == 8


def test_hstar_by_descents_pinned():
    assert hstar_by_descents(mk(2, ["-1+2", "+1+2"])) == (1, 1)
    assert hstar_by_descents(mk(1, [])) == (1, 1)
    assert hstar_by_descents(mk(2, ["+1", "+2"])) == (1, 1)


def test_hstar_inverse_statistic_is_load_bearing():
    # for P = {e3} the distributions of natdes over JH and over its inverses
    # differ; only the inverse one equals the lattice-point h*
    p = mk(3, ["+3"])
    direct = [0, 0, 0, 0]
    for tau in jordan_holder(p):
        direct[natdes(tau).natdes] += 1
    assert tuple(direct[:3]) == (1, 16, 7)
    assert hstar_by_descents(p) == (1, 14, 9)
    assert hstar_from_counts(order_polytope(p)) == (1, 14, 9)


def test_hstar_sums_to_jh_size():
    for p in enumerate_signed_posets(2):
        assert sum(hstar_by_descents(p)) == len(jordan_holder(p))


def test_hstar_matches_counts_sample():
    for tokens in [["-1+2"], ["+1+2"], ["-1"], ["-1+2", "+2", "+1+2"]]:
        p = mk(2, tokens)
        assert hstar_by_descents(p) == hstar_from_counts(order_polytope(p))
