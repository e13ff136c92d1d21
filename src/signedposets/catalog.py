"""Exhaustive catalogs of signed posets on small ground sets.

Every signed poset is the closure of its roots added one at a time, and each
intermediate closure is again a signed poset.  So the catalog grows from the
empty poset: close each known poset with one more root (neither it nor its
negative already present) through the bitmask kernel of `posets`, and keep
every asymmetric result not seen before.  No LP is solved.  Posets are
listed in lexicographic order of their assignment (per antipodal pair in
`_walk_order`: 0 absent, 1 positive, 2 negative), which fixes each poset's
position in the catalog.
"""

from __future__ import annotations

from typing import Iterator

from .errors import InputError
from .perms import act, enumerate_signed_permutations
from .posets import RootKernel, SignedPoset, close_mask, root_kernel
from .roots import Root


def _closed_masks(kernel: RootKernel) -> set[int]:
    """The masks of every signed poset, grown one root at a time from ∅."""
    everything = (1 << len(kernel.roots)) - 1
    seen = {0}
    frontier = [0]
    while frontier:
        grown = []
        for mask in frontier:
            free = everything & ~(mask | kernel.negated(mask))
            while free:
                bit = free & -free
                free ^= bit
                closed = close_mask(kernel, bit, mask)
                if closed not in seen and not kernel.clash(closed):
                    seen.add(closed)
                    grown.append(closed)
        frontier = grown
    return seen


def _walk_order(n: int, kernel: RootKernel):
    """Sort key: per antipodal pair 0 (absent), 1 (positive), 2 (negative)."""
    pairs = []
    for a in range(1, n + 1):
        pairs.append((Root.unit(a, 1), Root.unit(a, -1)))
        for b in range(a + 1, n + 1):
            pairs.append((Root.pair(a, 1, b, 1), Root.pair(a, -1, b, -1)))
            pairs.append((Root.pair(a, 1, b, -1), Root.pair(a, -1, b, 1)))
    bits = [(kernel.index[pos], kernel.index[neg]) for pos, neg in pairs]

    def key(mask: int) -> tuple[int, ...]:
        return tuple(1 if mask >> i & 1 else 2 if mask >> j & 1 else 0 for i, j in bits)

    return key


def iter_signed_posets(n: int, force: bool = False) -> Iterator[SignedPoset]:
    """Every signed poset on [n], in the order of the assignment walk.

    Raises InputError at once for n < 1, and for n ≥ 4 unless ``force`` is set.
    """
    if n < 1:
        raise InputError("ground size must be positive")
    if n >= 4 and not force:
        raise InputError(
            f"the catalog at n={n} is large (60,201 posets at n=4); pass force=True"
        )
    kernel = root_kernel(n)
    masks = sorted(_closed_masks(kernel), key=_walk_order(n, kernel))
    return (SignedPoset(n, kernel.members(mask)) for mask in masks)


def _group_root_permutations(n: int) -> list[tuple[int, ...]]:
    """For each signed permutation ω, the induced permutation of root indices."""
    kernel = root_kernel(n)
    return [
        tuple(kernel.index[act(omega, alpha)] for alpha in kernel.roots)
        for omega in enumerate_signed_permutations(n)
    ]


def canonical_mask(mask: int, root_perms: list[tuple[int, ...]]) -> int:
    best = None
    for perm in root_perms:
        image = 0
        rest = mask
        while rest:
            k = (rest & -rest).bit_length() - 1
            image |= 1 << perm[k]
            rest &= rest - 1
        if best is None or image < best:
            best = image
    return best if best is not None else 0


def canonical_form(p: SignedPoset) -> SignedPoset:
    """The orbit representative with the smallest bitmask over sorted roots."""
    kernel = root_kernel(p.n)
    mask = canonical_mask(kernel.mask(p.roots), _group_root_permutations(p.n))
    return SignedPoset(p.n, kernel.members(mask))


def enumerate_signed_posets(
    n: int, up_to_iso: bool = False, force: bool = False
) -> list[SignedPoset]:
    """The catalog, sorted by size then by sorted root list.

    With ``up_to_iso`` each isomorphism class appears once, represented by
    its canonical form.
    """
    posets = iter_signed_posets(n, force=force)
    if up_to_iso:
        kernel = root_kernel(n)
        perms = _group_root_permutations(n)
        reps = {canonical_mask(kernel.mask(p.roots), perms) for p in posets}
        posets = (SignedPoset(n, kernel.members(mask)) for mask in sorted(reps))
    return sorted(posets, key=lambda p: (len(p.roots), p.sorted_roots()))


def census(n: int, force: bool = False) -> dict:
    """Counts by size, plus the up-to-isomorphism totals."""
    all_posets = enumerate_signed_posets(n, force=force)
    by_size: dict[int, int] = {}
    for p in all_posets:
        by_size[len(p.roots)] = by_size.get(len(p.roots), 0) + 1
    classes = enumerate_signed_posets(n, up_to_iso=True, force=force)
    return {
        "n": n,
        "total": len(all_posets),
        "by_size": {str(k): by_size[k] for k in sorted(by_size)},
        "isomorphism_classes": len(classes),
    }


def naturally_labeled_count(n: int, force: bool = False) -> int:
    from .jordan import is_naturally_labeled

    return sum(1 for p in iter_signed_posets(n, force=force) if is_naturally_labeled(p))
