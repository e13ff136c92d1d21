"""The memoized constructors: each builds its object once per poset, a cold
cache gives the same reports as a warm one, and every memoized value is
hashable and immutable, so no caller can change what the next one reads."""

import dataclasses
import importlib
import inspect
import pkgutil
import random
import typing
from fractions import Fraction

import pytest

import signedposets
from signedposets import jordan
from signedposets.catalog import enumerate_signed_posets
from signedposets.perms import enumerate_signed_permutations
from signedposets.posets import SignedPoset, from_generators
from signedposets.roots import all_roots, parse_root
from signedposets.verify import verify_poset

PER_POSET = {
    "chains.chain_polytope",
    "geometry.order_polytope",
    "gorenstein.fischer_representation",
    "gorenstein.minimal_fischer_representation",
    "jordan.jh_representative",
    "jordan.naturalize",
    "posets.minimal_representation",
}
# The cache of per-window facts, keyed on no poset.
PER_WINDOW = (jordan.cell_determinant,)
# Every other cache of the package.  A new cache must be named here or in
# PER_POSET, so that none escapes the checks below unseen.
OTHER_CACHES = {
    "catalog._group_root_permutations",
    "ehrhart._count",
    "ehrhart.count_points",
    "halfspaces.grid_points",
    "halfspaces.row_mask",
    "jordan._word_mask",
    "jordan.cell_determinant",
    "jordan.owner_table",
    "perms._group",
    "posets._negative_masks",
    "posets.root_kernel",
    "verify._shared",
    "verify._shared_value",
}


def _caches() -> dict:
    """Every module-level function of the package with a cache."""
    out = {}
    for info in pkgutil.iter_modules(signedposets.__path__):
        module = importlib.import_module(f"signedposets.{info.name}")
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_clear") and fn.__module__ == module.__name__:
                out[f"{info.name}.{name}"] = fn
    return out


def _takes_a_poset(fn) -> bool:
    """Is the first parameter annotated as a signed poset, in any spelling?"""
    first = next(iter(inspect.signature(fn).parameters.values()), None)
    if first is None:
        return False
    annotation = first.annotation
    while isinstance(annotation, str):  # quoted, and quoted again by the future import
        annotation = eval(annotation, inspect.unwrap(fn).__globals__)
    return annotation is SignedPoset or SignedPoset in typing.get_args(annotation)


CACHES = _caches()
MEMOS = {name: fn for name, fn in CACHES.items() if _takes_a_poset(fn)}


def clear_memos():
    for fn in (*MEMOS.values(), *PER_WINDOW):
        fn.cache_clear()


def mk(n, tokens):
    return from_generators(n, [parse_root(t) for t in tokens])


def test_the_memoized_constructors_are_found_and_bounded():
    assert set(CACHES) == PER_POSET | OTHER_CACHES
    assert set(MEMOS) == PER_POSET
    for fn in (*MEMOS.values(), *PER_WINDOW):
        assert fn.cache_parameters()["maxsize"] is not None


@pytest.mark.parametrize(
    "tokens, naturally_labeled",
    [(["-1+2", "-2+3"], True), (["-1", "+1-2", "+2+3"], False)],
)
def test_one_verify_builds_each_object_once(tokens, naturally_labeled):
    # Every constructor is asked about P alone, and more than once, except
    # that the triangulation check asks for O_P of P's naturalized image
    # too: one more build when that image is not P.
    p = mk(3, tokens)
    assert (jordan.naturalize(p)[1] == p) == naturally_labeled
    clear_memos()
    before = {name: fn.cache_info() for name, fn in MEMOS.items()}
    assert verify_poset(p).passed
    for name, fn in MEMOS.items():
        info = fn.cache_info()
        builds = 2 if name == "geometry.order_polytope" and not naturally_labeled else 1
        assert info.misses - before[name].misses == builds, name
        assert info.hits > before[name].hits, name


def _seeded_n3(count, seed):
    return random.Random(seed).sample(enumerate_signed_posets(3), count)


def test_cold_memos_give_the_same_reports():
    posets = [p for n in (1, 2) for p in enumerate_signed_posets(n)]
    posets += _seeded_n3(100, "memo-reports")
    warm = [verify_poset(p).to_json_dict() for p in posets]
    cold = []
    for p in posets:
        clear_memos()
        cold.append(verify_poset(p).to_json_dict())
    assert cold == warm


def _immutable(value) -> bool:
    if value is None or isinstance(value, (int, str, Fraction)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(map(_immutable, value))
    if dataclasses.is_dataclass(value):
        return type(value).__dataclass_params__.frozen and all(
            _immutable(getattr(value, field.name)) for field in dataclasses.fields(value)
        )
    return False


def test_every_memoized_value_is_hashable_and_immutable():
    posets = [p for n in (1, 2) for p in enumerate_signed_posets(n)]
    posets += _seeded_n3(40, "memo-values")
    rng, n4 = random.Random("memo-values:4"), []
    while len(n4) < 20:
        try:
            n4.append(from_generators(4, rng.sample(all_roots(4), rng.randint(1, 4))))
        except signedposets.AsymmetryViolation:
            continue
    posets += n4
    for p in posets:
        for name, fn in MEMOS.items():
            value = fn(p)
            hash(value)
            assert _immutable(value), (name, p.tokens())
    for sigma in enumerate_signed_permutations(3):
        value = jordan.cell_determinant(sigma)
        hash(value)
        assert _immutable(value), sigma
