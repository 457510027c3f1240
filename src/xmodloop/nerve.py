"""Low-dimensional simplicial nerve of a crossed module of groups.

Dimension 0 is a point and dimension 1 is P.  A 2-simplex is a quadruple
(m; c, a, b) with delta(m) = -c + a + b, thought of as a triangle with
edges a: 0->1, b: 1->2, c: 0->2.  A 3-simplex is a tetrahedron with edges

    a: 0->1, b: 1->2, c: 0->2, d: 0->3, e: 1->3, f: 2->3

whose four faces are 2-simplices

    s0 = (m0; e, b, f), s1 = (m1; d, c, f), s2 = (m2; d, a, e), s3 = (m3; c, a, b)

subject to the closure rule (m3)^f - m0 - m2 + m1 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import CountMismatch, IndexOutOfRange, InternalInvariantBroken
from .xmod import CrossedModule


@dataclass(frozen=True)
class Simplex2:
    m: str
    c: str
    a: str
    b: str

    def __str__(self) -> str:
        return f"({self.m}; {self.c}, {self.a}, {self.b})"


@dataclass(frozen=True)
class Simplex3:
    a: str
    b: str
    c: str
    d: str
    e: str
    f: str
    m0: str
    m1: str
    m2: str
    m3: str

    def face(self, i: int) -> Simplex2:
        """The face opposite vertex i."""
        if i == 0:
            return Simplex2(self.m0, self.e, self.b, self.f)
        if i == 1:
            return Simplex2(self.m1, self.d, self.c, self.f)
        if i == 2:
            return Simplex2(self.m2, self.d, self.a, self.e)
        if i == 3:
            return Simplex2(self.m3, self.c, self.a, self.b)
        raise IndexOutOfRange(i)

    def faces(self) -> tuple[Simplex2, Simplex2, Simplex2, Simplex2]:
        return tuple(self.face(i) for i in range(4))

    def key(self) -> tuple[str, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.f,
                self.m0, self.m1, self.m2, self.m3)


def is_simplex2(x: CrossedModule, s: Simplex2) -> bool:
    return x.delta(s.m) == x.P.add(x.P.add(x.P.neg(s.c), s.a), s.b)


def is_simplex3(x: CrossedModule, s: Simplex3) -> bool:
    """All four boundary equations plus the closure rule."""
    P, M = x.P, x.M
    conditions = (
        x.delta(s.m0) == P.add(P.add(P.neg(s.e), s.b), s.f),
        x.delta(s.m1) == P.add(P.add(P.neg(s.d), s.c), s.f),
        x.delta(s.m2) == P.add(P.add(P.neg(s.d), s.a), s.e),
        x.delta(s.m3) == P.add(P.add(P.neg(s.c), s.a), s.b),
    )
    if not all(conditions):
        return False
    total = M.add(M.add(M.add(x.act(s.m3, s.f), M.neg(s.m0)), M.neg(s.m2)), s.m1)
    return total == M.identity


def nerve_k2(x: CrossedModule) -> list[Simplex2]:
    """All 2-simplices, in lexicographic (a, b, c, m) canonical order.

    Their number is cross-checked against ``k2_count_formula``.
    """
    simplices: list[Simplex2] = []
    for a in x.P:
        for b in x.P:
            for c in x.P:
                boundary = x.P.add(x.P.add(x.P.neg(c), a), b)
                for m in x.M:
                    if x.delta(m) == boundary:
                        simplices.append(Simplex2(m, c, a, b))
    expected = k2_count_formula(x)
    if expected != len(simplices):
        raise CountMismatch(expected, len(simplices))
    return simplices


def k2_count_formula(x: CrossedModule) -> int:
    """|M| * |P|^2: each (a, b, m) forces c = a + b - delta(m)."""
    return len(x.M) * len(x.P) ** 2


def nerve_k3(x: CrossedModule) -> list[Simplex3]:
    """All 3-simplices, sorted lexicographically on the full edge/face data.

    Enumeration solves the boundary equations: a, b, d and m1, m2, m3 are
    free, then c, e, f and m0 are forced.  The remaining boundary equation
    for m0 holds automatically; every emitted simplex is still re-checked
    against all five rules.
    """
    P, M = x.P, x.M
    simplices: list[Simplex3] = []
    for a, b, d in product(P, P, P):
        for m1, m2, m3 in product(M, M, M):
            c = P.sub(P.add(a, b), x.delta(m3))
            e = P.add(P.add(P.neg(a), d), x.delta(m2))
            f = P.add(P.add(P.neg(c), d), x.delta(m1))
            m0 = M.add(M.add(M.neg(m2), m1), x.act(m3, f))
            s = Simplex3(a, b, c, d, e, f, m0, m1, m2, m3)
            if not is_simplex3(x, s):
                raise InternalInvariantBroken(
                    "solved 3-simplex fails a boundary or closure rule", s.key())
            simplices.append(s)
    index_p, index_m = x.P.index, x.M.index
    simplices.sort(key=lambda s: (index_p(s.a), index_p(s.b), index_p(s.c), index_p(s.d),
                                  index_p(s.e), index_p(s.f), index_m(s.m0), index_m(s.m1),
                                  index_m(s.m2), index_m(s.m3)))
    return simplices
