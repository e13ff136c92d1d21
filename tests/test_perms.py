import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from signedposets.catalog import enumerate_signed_posets
from signedposets.errors import InputError
from signedposets.perms import (
    MAX_GROUP_N,
    SignedPermutation,
    act,
    act_poset,
    are_isomorphic,
    enumerate_signed_permutations,
    orbit,
)
from signedposets.posets import from_generators, minimal_representation
from signedposets.roots import all_roots, parse_root


def mk(n, tokens):
    return from_generators(n, [parse_root(t) for t in tokens])


perm3 = st.sampled_from(enumerate_signed_permutations(3))


def compose(sigma, tau):
    """(sigma ∘ tau)(i) = sigma(tau(i))."""
    return SignedPermutation(tuple(sigma(tau(i)) for i in range(1, tau.n + 1)))


def test_enumeration_count_and_order():
    for n in (1, 2, 3):
        group = enumerate_signed_permutations(n)
        assert len(group) == 2**n * __import__("math").factorial(n)
        words = [w.images for w in group]
        assert words == sorted(words)
    assert [w.images for w in enumerate_signed_permutations(1)] == [(-1,), (1,)]


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_signed_permutations(10)
    with pytest.raises(ValueError):
        enumerate_signed_permutations(0)
    # Refused before anything is built, and blamed on the input.
    with pytest.raises(InputError):
        enumerate_signed_permutations(MAX_GROUP_N + 1)


def test_word_validation():
    with pytest.raises(ValueError):
        SignedPermutation((1, 1))
    with pytest.raises(ValueError):
        SignedPermutation((1, 3))


@given(perm3)
def test_inverse_is_inverse(sigma):
    assert compose(sigma, sigma.inverse()).is_identity()
    assert compose(sigma.inverse(), sigma).is_identity()
    assert sigma.inverse().inverse() == sigma


@given(perm3, perm3)
def test_inverse_antihomomorphism(sigma, tau):
    assert compose(sigma, tau).inverse() == compose(tau.inverse(), sigma.inverse())


@given(perm3, st.sampled_from(all_roots(3)))
def test_act_is_linear_in_sign(sigma, alpha):
    assert act(sigma, -alpha) == -act(sigma, alpha)


@given(perm3, perm3, st.sampled_from(all_roots(3)))
def test_act_composes(sigma, tau, alpha):
    assert act(sigma, act(tau, alpha)) == act(compose(sigma, tau), alpha)


def test_act_examples():
    omega = SignedPermutation((-2, 1))
    assert act(omega, parse_root("+1")) == parse_root("-2")
    assert act(omega, parse_root("+1+2")) == parse_root("+1-2")
    assert act(SignedPermutation.identity(2), parse_root("-1+2")) == parse_root("-1+2")


def test_act_poset_preserves_sizes():
    # spec-level invariant: |P| and |minrep(P)| are action invariants
    group = enumerate_signed_permutations(2)
    for p in enumerate_signed_posets(2):
        m = len(minimal_representation(p))
        for omega in group:
            q = act_poset(omega, p)
            assert len(q) == len(p)
            assert len(minimal_representation(q)) == m


def test_isomorphism_witness_pinned():
    w = are_isomorphic(mk(2, ["+1"]), mk(2, ["+2"]))
    assert w is not None and w.images == (2, 1)


def test_isomorphism_reflexive_and_sound():
    for p in enumerate_signed_posets(2):
        w = are_isomorphic(p, p)
        assert w is not None
        assert act_poset(w, p).roots == p.roots


def test_isomorphism_negative():
    assert are_isomorphic(mk(2, ["+1"]), mk(2, ["+1+2"])) is None
    assert are_isomorphic(mk(2, []), mk(2, ["+1"])) is None


def test_orbit_sizes_divide_group_order():
    for p in enumerate_signed_posets(2):
        assert 8 % len(orbit(p)) == 0
    assert orbit(mk(2, [])) == {frozenset()}


def generators(n):
    """The n − 1 adjacent transpositions and the sign change of 1."""
    swaps = []
    for i in range(1, n):
        word = list(range(1, n + 1))
        word[i - 1], word[i] = word[i], word[i - 1]
        swaps.append(SignedPermutation(tuple(word)))
    return swaps + [SignedPermutation((-1,) + tuple(range(2, n + 1)))]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjacent_swaps_and_one_sign_change_generate_the_group(n):
    # so invariance under these n actions is invariance under all of S_n^B
    reached = {SignedPermutation.identity(n)}
    frontier = reached
    while frontier:
        frontier = {compose(w, s) for w in frontier for s in generators(n)} - reached
        reached |= frontier
    assert reached == set(enumerate_signed_permutations(n))
    assert len(reached) == 2**n * math.factorial(n)


def test_as_point():
    assert SignedPermutation((-1, 2)).as_point() == (-1, 2)
    assert SignedPermutation((3, -1, 2)).pi == (3, 1, 2)
    assert SignedPermutation((3, -1, 2)).eps == (1, -1, 1)
