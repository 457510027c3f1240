"""Permutation groups, from which every benchmark document is built.

A permutation is a tuple of images; composition reads left to right,
``then(x, y)`` being "x then y", which is the additive ``x + y`` of the
library's documents.  Every crossed module the benchmark uses has the
shape ``delta: N -> G`` with ``N`` normal in ``G`` and ``G`` acting on
``N`` by conjugation, where ``delta`` is either the inclusion or, for
abelian ``N``, the zero map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

Perm = tuple


def then(x: Perm, y: Perm) -> Perm:
    return tuple(y[i] for i in x)


def inverse(x: Perm) -> Perm:
    inv = [0] * len(x)
    for i, xi in enumerate(x):
        inv[xi] = i
    return tuple(inv)


def identity(n: int) -> Perm:
    return tuple(range(n))


def closure(gens, n: int) -> list[Perm]:
    """All products of the generators, identity first, in breadth-first order."""
    e = identity(n)
    seen = {e}
    order = [e]
    frontier = [e]
    while frontier:
        grown = []
        for x in frontier:
            for g in gens:
                y = then(x, g)
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    grown.append(y)
        frontier = grown
    return order


def cycle(n: int, *points: int) -> Perm:
    image = list(range(n))
    for i, p in enumerate(points):
        image[p] = points[(i + 1) % len(points)]
    return tuple(image)


def cyclic(n: int) -> list[Perm]:
    return closure([cycle(n, *range(n))] if n > 1 else [], n)


def dihedral(n: int) -> list[Perm]:
    """Symmetries of the n-gon, order 2n."""
    return closure([cycle(n, *range(n)), tuple((-i) % n for i in range(n))], n)


def symmetric(n: int) -> list[Perm]:
    return closure([cycle(n, 0, 1), cycle(n, *range(n))], n)


def alternating(n: int) -> list[Perm]:
    return closure([cycle(n, i, i + 1, i + 2) for i in range(n - 2)], n)


def product(g: list[Perm], h: list[Perm]) -> list[Perm]:
    """Direct product acting on disjoint point sets."""
    n = len(g[0])
    gens = [x + tuple(range(n, n + len(h[0]))) for x in g]
    gens += [tuple(range(n)) + tuple(n + i for i in y) for y in h]
    return closure(gens, n + len(h[0]))


@dataclass(frozen=True)
class Spec:
    """delta: N -> G with conjugation action; ``inclusion`` False means delta = 0."""

    label: str
    G: tuple
    N: tuple
    inclusion: bool

    @cached_property
    def e(self) -> Perm:
        return identity(len(self.G[0]))

    def delta(self, m: Perm) -> Perm:
        return m if self.inclusion else self.e

    def act(self, m: Perm, p: Perm) -> Perm:
        return then(then(inverse(p), m), p)


def center(g: list[Perm]) -> list[Perm]:
    return [z for z in g if all(then(z, x) == then(x, z) for x in g)]


def trivial(g: list[Perm]) -> list[Perm]:
    return [g[0]]


def subgroup(g: list[Perm], gens) -> list[Perm]:
    members = closure(list(gens), len(g[0]))
    if not set(members) <= set(g):
        raise ValueError("generators leave the group")
    return members


def is_normal(g: list[Perm], n: list[Perm]) -> bool:
    members = set(n)
    return all(then(then(inverse(p), m), p) in members for p in g for m in n)


def is_abelian(n: list[Perm]) -> bool:
    return all(then(x, y) == then(y, x) for x in n for y in n)
