"""Exhaustive enumeration of signed posets at small rank."""

import hashlib
import importlib.util
from itertools import product
from pathlib import Path

import pytest

from reference_kernels import is_closed
from signedposets import verify
from signedposets.catalog import (
    _group_root_permutations,
    canonical_form,
    census,
    enumerate_signed_posets,
    iter_signed_posets,
    naturally_labeled_count,
)
from signedposets.geometry import order_polytope_irredundant
from signedposets.gorenstein import is_gorenstein
from signedposets.perms import act_poset, enumerate_signed_permutations
from signedposets.posets import SignedPoset, root_kernel
from signedposets.roots import Root
from signedposets.verify import check_minimal_representation, verify_poset


def _report_digest():
    path = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def walk_pairs(n):
    """The antipodal pairs in the order of the assignment walk: ±e_a, then
    ±(e_a+e_b) and ±(e_a−e_b) for each b > a."""
    pairs = []
    for a in range(1, n + 1):
        pairs.append((Root.unit(a, 1), Root.unit(a, -1)))
        for b in range(a + 1, n + 1):
            pairs.append((Root.pair(a, 1, b, 1), Root.pair(a, -1, b, -1)))
            pairs.append((Root.pair(a, 1, b, -1), Root.pair(a, -1, b, 1)))
    return pairs


def walk_key(p, pairs):
    return tuple(1 if pos in p.roots else 2 if neg in p.roots else 0 for pos, neg in pairs)


def test_census_n1():
    assert census(1) == {
        "n": 1,
        "total": 3,
        "by_size": {"0": 1, "1": 2},
        "isomorphism_classes": 2,
    }


def test_census_n2():
    assert census(2) == {
        "n": 2,
        "total": 33,
        "by_size": {"0": 1, "1": 8, "2": 8, "3": 8, "4": 8},
        "isomorphism_classes": 7,
    }


def test_everything_enumerated_is_closed():
    for p in iter_signed_posets(2):
        assert is_closed(p)


def test_enumerator_equals_lp_filter_of_all_assignments():
    # every one of the 3^(n²) asymmetric assignments, in walk order, kept
    # when the LP finds it closed
    for n in (1, 2):
        pairs = walk_pairs(n)
        lp_filtered = []
        for choice in product((0, 1, 2), repeat=len(pairs)):
            roots = frozenset(pair[c - 1] for c, pair in zip(choice, pairs) if c)
            p = SignedPoset(n, roots)
            if is_closed(p):
                lp_filtered.append(p)
        assert list(iter_signed_posets(n)) == lp_filtered


def test_n3_catalog_is_in_walk_order():
    pairs = walk_pairs(3)
    keys = [walk_key(p, pairs) for p in iter_signed_posets(3)]
    assert len(keys) == 941
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_n3_catalog_is_lp_closed():
    assert all(is_closed(p) for p in iter_signed_posets(3))


def irredundant_certified(p):
    """irr's derived bounds hold all 2n cube sides, and each row of irr has a
    witness point that violates it alone: the check's certificates, no LP."""
    irr = order_polytope_irredundant(p)
    return len(verify.derived_bounds(irr)) == 2 * p.n and all(
        verify._witnessed(irr, index) for index in range(len(irr.rows))
    )


def test_n4_total():
    # each one proved closed, with its minimal representation, by certificates,
    # and its irredundant description in the cube, with every row necessary
    posets = enumerate_signed_posets(4, force=True)
    assert len(posets) == 60201
    failed = [p for p in posets if not check_minimal_representation(p).passed]
    assert failed == []
    uncertified = [p for p in posets if not irredundant_certified(p)]
    assert uncertified == []


def test_canonical_form_constant_on_orbits():
    group = enumerate_signed_permutations(2)
    for p in iter_signed_posets(2):
        canon = canonical_form(p)
        for w in group:
            assert canonical_form(act_poset(w, p)) == canon


def test_canonical_forms_count_classes():
    reps = {canonical_form(p) for p in iter_signed_posets(2)}
    assert len(reps) == 7


def test_enumerate_up_to_iso():
    reps = enumerate_signed_posets(2, up_to_iso=True)
    assert len(reps) == 7
    assert all(canonical_form(p) == p for p in reps)


def test_n3_isomorphism_classes():
    reps = enumerate_signed_posets(3, up_to_iso=True)
    assert len(reps) == 35
    assert all(canonical_form(p) == p for p in reps)
    # a poset's minimum over the group and the enumerator's orbit minima agree
    assert {canonical_form(p) for p in iter_signed_posets(3)} == set(reps)


def test_n4_gate_on_the_isomorphism_classes():
    # h* and the Gorenstein flag are invariant under the group (test_verify),
    # so each representative speaks for its orbit, and the orbits tile the catalog
    n4_classes = enumerate_signed_posets(4, up_to_iso=True, force=True)
    assert len(n4_classes) == 266
    kernel = root_kernel(4)
    perms = _group_root_permutations(4)
    masks = [kernel.mask(p.roots) for p in n4_classes]
    sizes = [len({kernel.permuted(mask, perm) for perm in perms}) for mask in masks]
    assert sum(sizes) == 60201
    reports = [verify_poset(p) for p in n4_classes]
    failed = [(p.tokens(), c.name) for p, r in zip(n4_classes, reports) for c in r.failures()]
    assert failed == []
    assert sum(size for p, size in zip(n4_classes, sizes) if is_gorenstein(p)) == 12353
    # the `n = 4 classes` line of `scripts/report_digest.py`
    assert hashlib.sha256(_report_digest().report_bytes(reports)).hexdigest() == (
        "32ecd6b07e0883629ec5adb3c139ff6751f920cd822b27969e0662e64cc82964"
    )


def test_naturally_labeled_counts():
    assert naturally_labeled_count(1) == 2
    assert naturally_labeled_count(2) == 11


def test_large_rank_needs_force():
    with pytest.raises(ValueError):
        next(iter_signed_posets(4))
    with pytest.raises(ValueError):
        census(4)
