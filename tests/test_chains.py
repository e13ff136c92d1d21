import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from signedposets.catalog import enumerate_signed_posets, iter_signed_posets
from signedposets.chains import (
    SignedChain,
    antichains,
    chain_polytope,
    compare_order_chain,
    enumerate_chains,
    is_reflexive,
    verify_antichain_characterization,
)
from signedposets.ehrhart import (
    count_points,
    ehrhart_polynomial,
    gorenstein_index_by_counts,
    hstar_from_counts,
)
from signedposets.geometry import cube_vertices, order_polytope
from signedposets.gorenstein import ClassicalPoset, fischer_representation
from signedposets.halfspaces import Halfspace, HalfspaceSystem
from signedposets.linalg import det
from signedposets.posets import from_generators
from signedposets.roots import parse_root
from signedposets.verify import check_chain_polytope


def mk(n, tokens):
    return from_generators(n, [parse_root(t) for t in tokens])


def test_chain_components_validated():
    with pytest.raises(ValueError):
        SignedChain((1, 2), (), ())


def test_singletons_are_always_chains():
    for p in enumerate_signed_posets(2):
        chains = enumerate_chains(p)
        singles = [ch for ch in chains if len(ch.c) == 1]
        assert [ch.c for ch in singles] == [(1,), (2,)]
        assert all(ch.s == () and ch.witness == () for ch in singles)


def test_chains_fig1():
    p = mk(2, ["-1+2", "+1+2"])
    listing = [(ch.c, ch.s, [w.token() for w in ch.witness]) for ch in enumerate_chains(p)]
    assert listing == [
        ((1,), (), []),
        ((2,), (), []),
        ((1, 2), (-1,), ["+1+2"]),
        ((1, 2), (1,), ["-1+2"]),
        ((2, 1), (-1,), ["+1+2"]),
        ((2, 1), (1,), ["-1+2"]),
    ]


def test_chain_polytope_check_fails_without_one_fischer_relation(monkeypatch):
    # The chains are read off Ĝ(P).  Without fig1's 1 < 2 (from −1+2) the
    # chains (1, 2) and (2, 1) with S = (1,) are gone, so C_P loses the rows
    # ±(x1 + x2) and takes in (1, 1) and (−1, −1), which are no antichains.
    p = mk(2, ["-1+2", "+1+2"])
    q = fischer_representation(p)
    assert (1, 2) in q.lt and check_chain_polytope(p).passed
    cut = ClassicalPoset(q.n, q.lt - {(1, 2)})
    monkeypatch.setattr("signedposets.chains.fischer_representation", lambda _: cut)
    chain_polytope.cache_clear()
    try:
        result = check_chain_polytope(p)
        report = verify_antichain_characterization(p)
    finally:
        monkeypatch.undo()
        chain_polytope.cache_clear()
    assert not result.passed
    assert report["only_points"] == [(-1, -1), (1, 1)] and report["only_antichains"] == []


def test_chain_entries_distinct():
    emb = mk(3, ["-1+2", "-2+3"])
    for ch in enumerate_chains(emb):
        assert len(set(ch.c)) == len(ch.c)


def test_three_chain():
    emb = mk(3, ["-1+2", "-2+3"])  # closure adds -1+3
    long = [ch for ch in enumerate_chains(emb) if len(ch.c) == 3]
    assert {(ch.c, ch.s) for ch in long} == {((1, 2, 3), (1, 1)), ((3, 2, 1), (1, 1))}


def test_coefficients_sign_prefix():
    ch = SignedChain((2, 1, 3), (-1, 1), (parse_root("+1+2"), parse_root("-1-3")))
    # w = (s_1, 1, s_1*s_2) placed at coordinates (1, 2, 3) resp.
    assert ch.coefficients(3) == (-1, 1, -1)
    assert ch.to_json_dict() == {
        "C": [2, 1, 3],
        "S": [-1, 1],
        "witness": ["+1+2", "-1-3"],
    }


def test_reversal_gives_same_row():
    for p in enumerate_signed_posets(2):
        chains = enumerate_chains(p)
        keys = {(ch.c, ch.s) for ch in chains}
        for ch in chains:
            if len(ch.c) < 2:
                continue
            rev = (tuple(reversed(ch.c)), tuple(reversed(ch.s)))
            assert rev in keys
            mate = next(c for c in chains if (c.c, c.s) == rev)
            w = ch.coefficients(2)
            mw = mate.coefficients(2)
            assert mw == w or mw == tuple(-x for x in w)


def test_chain_polytope_fig1_is_the_diamond():
    system = chain_polytope(mk(2, ["-1+2", "+1+2"]))
    points = [
        x for x in product((-1, 0, 1), repeat=2) if system.contains(x)
    ]
    assert sorted(points) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]


def test_chain_polytope_rows_deduped():
    system = chain_polytope(mk(2, ["-1+2", "+1+2"]))
    keys = [(r.a, r.b) for r in system.rows]
    assert len(keys) == len(set(keys))


def test_antichains_fig1():
    p = mk(2, ["-1+2", "+1+2"])
    points = antichains(p)
    assert len(points) == 5
    report = verify_antichain_characterization(p)
    assert report["match"], report


def test_antichain_characterization_catalog2():
    for p in enumerate_signed_posets(2):
        assert verify_antichain_characterization(p)["match"]


def test_reflexive():
    for tokens in [[], ["-1+2"], ["-1+2", "+1+2"], ["+1", "+2"]]:
        p = mk(2, tokens)
        cp = chain_polytope(p)
        assert is_reflexive(cp)
        assert gorenstein_index_by_counts(cp) == 1
    fat = HalfspaceSystem(2, (Halfspace((1, 0), -2), Halfspace((-1, 0), -2),
                              Halfspace((0, 1), -1), Halfspace((0, -1), -1)))
    assert not is_reflexive(fat)


def test_chain_hstar_pinned():
    assert hstar_from_counts(chain_polytope(mk(2, ["+1+2"]))) == (1, 4, 1)


def test_compare_order_chain_nonequivalence():
    # O_P and C_P of the same poset need not be Ehrhart-equivalent
    report = compare_order_chain(mk(2, ["+2"]))
    assert not report["ehrhart_equal"]
    assert report["order_interior_points_t1"] == 0
    assert report["origin_interior_chain"]
    assert ehrhart_polynomial(order_polytope(mk(2, ["+2"]))) == (1, 3, 2)
    assert ehrhart_polynomial(chain_polytope(mk(2, ["+2"]))) == (1, 4, 4)
    assert count_points(order_polytope(mk(2, ["+2"])), 1, strict=True) == 0


def test_shifted_interior_counts():
    # reflexivity in counting form: interior(t+1) = weak(t)
    for tokens in [[], ["-1+2", "+1+2"]]:
        system = chain_polytope(mk(2, tokens))
        for t in range(3):
            assert count_points(system, t + 1, strict=True) == count_points(system, t)


def brute_force_vertices(system):
    """Vertices of a bounded system: feasible solutions of full-rank n-row
    subsets, by Cramer's rule.  Exponential in the row count; the oracle for
    `cube_vertices`."""
    found = set()
    for subset in combinations(system.rows, system.n):
        mat = [row.a for row in subset]
        d = det(mat)
        if d == 0:
            continue
        b = [row.b for row in subset]
        point = tuple(
            Fraction(det([[*a[:j], bi, *a[j + 1 :]] for a, bi in zip(mat, b)]), d)
            for j in range(system.n)
        )
        if system.contains(point):
            found.add(point)
    return found


def test_chain_vertices_are_cube_points_with_full_rank():
    sample = [p for n in (1, 2) for p in iter_signed_posets(n)]
    sample.append(mk(2, ["-1+2", "+1+2"]))
    sample += random.Random("chain-vertices").sample(list(iter_signed_posets(3)), 40)
    for p in sample:
        system = chain_polytope(p)
        assert set(cube_vertices(system)) == brute_force_vertices(system), p
