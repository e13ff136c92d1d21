"""Signed permutations of [n] (the hyperoctahedral group) and their action on roots.

One-line notation: ω is stored as (ω(1), …, ω(n)) with |ω| a permutation of
[n]; ω(−i) = −ω(i) is implicit.  The generator action extends linearly:
ω e_i = sign(ω(i)) e_{|ω(i)|}.

Deterministic choices: enumeration is ascending lexicographic on one-line
words; wherever a single representative must be *selected* (isomorphism
witness here, Jordan–Hölder representatives elsewhere) the lexicographically
greatest candidate is returned — that convention reproduces all the pinned
small examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations, product
from typing import Optional

from .errors import InputError
from .posets import SignedPoset
from .roots import Root, from_vector


@dataclass(frozen=True, order=True)
class SignedPermutation:
    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)):
            raise ValueError(f"{self.images!r} is not a signed permutation word")

    @property
    def n(self) -> int:
        return len(self.images)

    @cached_property
    def pi(self) -> tuple[int, ...]:
        """Underlying unsigned permutation π with π_i = |ω(i)|."""
        return tuple(abs(v) for v in self.images)

    @cached_property
    def eps(self) -> tuple[int, ...]:
        """Sign vector ε with ε_i = sign(ω(i))."""
        return tuple(1 if v > 0 else -1 for v in self.images)

    @staticmethod
    def identity(n: int) -> "SignedPermutation":
        return SignedPermutation(tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        """ω(i) for i ∈ ±[n], with ω(−i) = −ω(i)."""
        if i > 0:
            return self.images[i - 1]
        return -self.images[-i - 1]

    def inverse(self) -> "SignedPermutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[abs(v) - 1] = i if v > 0 else -i
        return SignedPermutation(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.n + 1))

    def as_point(self) -> tuple[int, ...]:
        """The one-line word read as an integer vector (ω(1), …, ω(n))."""
        return self.images

    def __repr__(self) -> str:
        return f"SignedPermutation({list(self.images)!r})"


# The largest n whose group is built: S_8^B has 10,321,920 elements, about
# 2 GB at the ~200 B an element measured at n = 6; S_9^B would take ~37 GB.
MAX_GROUP_N = 8


def enumerate_signed_permutations(n: int) -> list[SignedPermutation]:
    """All 2^n·n! signed permutations, ascending lexicographic by one-line word.

    The groups of the two most recently asked n are kept (n = 5 has 3,840
    elements), and each call returns a new list of the shared, immutable
    elements.

    >>> [w.images for w in enumerate_signed_permutations(1)]
    [(-1,), (1,)]
    >>> len(enumerate_signed_permutations(2))
    8
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_GROUP_N:
        raise InputError(f"refusing to enumerate S_{n}^B = {2**n} * {n}! elements")
    return list(_group(n))


# Each caller works at a single n, so two groups bound the memory.
@lru_cache(maxsize=2)
def _group(n: int) -> tuple[SignedPermutation, ...]:
    words = []
    for pi in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            words.append(tuple(s * v for s, v in zip(signs, pi)))
    words.sort()
    return tuple(SignedPermutation(w) for w in words)


def act(omega: SignedPermutation, alpha: Root) -> Root:
    """ω·α, by linear extension of ω e_i = sign(ω(i)) e_{|ω(i)|}.

    >>> from .roots import parse_root as r
    >>> act(SignedPermutation((-1, 2)), r("+1"))
    Root('-1')
    >>> act(SignedPermutation((2, 1)), r("+1-2"))
    Root('-1+2')
    """
    vec = [0] * omega.n
    for i, s in alpha.entries:
        image = omega(i)
        vec[abs(image) - 1] = s * (1 if image > 0 else -1)
    return from_vector(vec)


def act_poset(omega: SignedPermutation, p: SignedPoset) -> SignedPoset:
    """Apply ω to every root of P.

    The action is a signed permutation of coordinates, hence maps B_n onto
    B_n and preserves nonnegative combinations, so the image of a closed
    asymmetric set is again closed and asymmetric — no re-closure needed.
    """
    if omega.n != p.n:
        raise ValueError("signed permutation and poset have different ground sizes")
    return SignedPoset(p.n, frozenset(act(omega, alpha) for alpha in p.roots))


def are_isomorphic(p1: SignedPoset, p2: SignedPoset) -> Optional[SignedPermutation]:
    """Search S_n^B for ω with ωP1 = P2; lexicographically greatest witness or None."""
    if p1.n != p2.n:
        return None
    if len(p1.roots) != len(p2.roots):
        return None
    # cheap invariant: the multiset of root arities must match
    if sorted(len(a.entries) for a in p1.roots) != sorted(
        len(a.entries) for a in p2.roots
    ):
        return None
    for omega in reversed(enumerate_signed_permutations(p1.n)):
        if act_poset(omega, p1).roots == p2.roots:
            return omega
    return None


def orbit(p: SignedPoset):
    """All distinct images ωP (as root frozensets), for isomorphism-class work."""
    return {act_poset(omega, p).roots for omega in enumerate_signed_permutations(p.n)}
