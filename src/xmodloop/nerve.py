"""Low-dimensional simplicial nerve of a crossed module of groups.

Dimension 0 is a point and dimension 1 is P.  A 2-simplex is a quadruple
(m; c, a, b) with delta(m) = -c + a + b, thought of as a triangle with
edges a: 0->1, b: 1->2, c: 0->2.  A 3-simplex is a tetrahedron with edges

    a: 0->1, b: 1->2, c: 0->2, d: 0->3, e: 1->3, f: 2->3

whose four faces are 2-simplices

    s0 = (m0; e, b, f), s1 = (m1; d, c, f), s2 = (m2; d, a, e), s3 = (m3; c, a, b)

subject to the closure rule (m3)^f - m0 - m2 + m1 = 0.

Enumeration and counting compute on positions: the group tables of P
and M (``_table``, ``_inv``) and the crossed module's action and
boundary tables (``act_table``, ``boundary``).  The rules are stated
once, on positions, by ``_rule2`` and ``_rules3``; ``is_simplex2`` and
``is_simplex3`` map labels to positions and apply them.  ``k2_rows`` and
``k3_rows`` are the sorted, re-checked rows of positions; ``nerve_k2`` and
``nerve_k3`` label them, and the CLI writes its listings straight from
them, naming each element once.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CountMismatch, IndexOutOfRange, InternalInvariantBroken
from .xmod import CrossedModule


class Simplex2(NamedTuple):
    m: str
    c: str
    a: str
    b: str

    def __str__(self) -> str:
        return f"({self.m}; {self.c}, {self.a}, {self.b})"


class Simplex3(NamedTuple):
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
        return tuple(self)


def _rule2(x: CrossedModule):
    """The boundary rule delta(m) = -c + a + b of a 2-simplex (m; c, a, b), on positions."""
    pt, pinv, delta = x.P._table, x.P._inv, x.boundary

    def holds(m: int, c: int, a: int, b: int) -> bool:
        return delta[m] == pt[pt[pinv[c]][a]][b]
    return holds


def _rules3(x: CrossedModule):
    """The boundary rule on each face and the closure rule, on rows of positions
    (a, b, c, d, e, f, m0, m1, m2, m3); act[p][m] is the position of m^p."""
    mt, minv, act, zero = x.M._table, x.M._inv, x.act_table, x.M.zero
    face = _rule2(x)

    def holds(row: tuple) -> bool:
        a, b, c, d, e, f, m0, m1, m2, m3 = row
        return (face(m0, e, b, f) and face(m1, d, c, f) and face(m2, d, a, e)
                and face(m3, c, a, b)
                and mt[mt[mt[act[f][m3]][minv[m0]]][minv[m2]]][m1] == zero)
    return holds


def is_simplex2(x: CrossedModule, s: Simplex2) -> bool:
    """The boundary rule, on the positions of s's labels."""
    m, c, a, b = s
    P = x.P
    return _rule2(x)(x.M.index(m), P.index(c), P.index(a), P.index(b))


def is_simplex3(x: CrossedModule, s: Simplex3) -> bool:
    """All four boundary equations plus the closure rule, on the positions of
    s's labels: the predicate that re-checks every enumerated 3-simplex."""
    row = (*map(x.P.index, s[:6]), *map(x.M.index, s[6:]))
    return _rules3(x)(row)


def k2_rows(x: CrossedModule) -> list[tuple[int, int, int, int]]:
    """Every 2-simplex as a row of positions (a, b, c, m), sorted.

    Each (a, b, m) forces c = a + b - delta(m); every row is re-checked
    against the rule, and their number against ``k2_count_formula``.
    """
    pt, pinv, d = x.P._table, x.P._inv, x.boundary
    holds = _rule2(x)
    Pe, Me = x.P.elements, x.M.elements
    rows = []
    for a in range(len(pt)):
        for b in range(len(pt)):
            row_ab = pt[pt[a][b]]
            for m in range(len(Me)):
                c = row_ab[pinv[d[m]]]
                if not holds(m, c, a, b):
                    raise InternalInvariantBroken(
                        "solved 2-simplex fails its boundary rule", (Me[m], Pe[c], Pe[a], Pe[b]))
                rows.append((a, b, c, m))
    expected = k2_count_formula(x)
    if expected != len(rows):
        raise CountMismatch(expected, len(rows))
    rows.sort()
    return rows


def nerve_k2(x: CrossedModule) -> list[Simplex2]:
    """All 2-simplices, in lexicographic (a, b, c, m) canonical order: the
    labels of ``k2_rows``."""
    Pe, Me = x.P.elements, x.M.elements
    return [Simplex2(Me[m], Pe[c], Pe[a], Pe[b]) for a, b, c, m in k2_rows(x)]


def k2_count_formula(x: CrossedModule) -> int:
    """|M| * |P|^2: each (a, b, m) forces c = a + b - delta(m)."""
    return len(x.M) * len(x.P) ** 2


def _k3_solved(x: CrossedModule):
    """Every 3-simplex as a row of positions (a, b, c, d, e, f, m0, m1, m2, m3).

    a, b, d and m1, m2, m3 are free, then c, e, f and m0 are forced.  The
    boundary equation for m0 holds by CM1 and the closure rule by the
    choice of m0; every row is still re-checked against all five rules.
    """
    pt, pinv, mt, minv = x.P._table, x.P._inv, x.M._table, x.M._inv
    act, delta = x.act_table, x.boundary
    holds = _rules3(x)
    ps, ms = range(len(pt)), range(len(mt))
    columns = list(zip(*act))  # columns[m][p] = m^p
    for a in ps:
        row_a, row_na = pt[a], pt[pinv[a]]
        for b in ps:
            row_ab = pt[row_a[b]]
            for m3 in ms:
                c = row_ab[pinv[delta[m3]]]  # c = a + b - delta(m3)
                row_nc, act_m3 = pt[pinv[c]], columns[m3]
                for d in ps:
                    row_nad, row_ncd = pt[row_na[d]], pt[row_nc[d]]
                    for m2 in ms:
                        e = row_nad[delta[m2]]  # e = -a + d + delta(m2)
                        row_nm2 = mt[minv[m2]]
                        for m1 in ms:
                            f = row_ncd[delta[m1]]  # f = -c + d + delta(m1)
                            # m0 = -m2 + m1 + m3^f
                            row = (a, b, c, d, e, f, mt[row_nm2[m1]][act_m3[f]], m1, m2, m3)
                            if not holds(row):
                                raise InternalInvariantBroken(
                                    "solved 3-simplex fails a boundary or closure rule",
                                    _simplex3(x, row).key())
                            yield row


def _simplex3(x: CrossedModule, row: tuple) -> Simplex3:
    Pe, Me = x.P.elements, x.M.elements
    a, b, c, d, e, f, m0, m1, m2, m3 = row
    return Simplex3(Pe[a], Pe[b], Pe[c], Pe[d], Pe[e], Pe[f], Me[m0], Me[m1], Me[m2], Me[m3])


def k3_rows(x: CrossedModule) -> list[tuple]:
    """Every 3-simplex as a row of positions (a, b, c, d, e, f, m0, m1, m2, m3),
    sorted; see ``_k3_solved``."""
    return sorted(_k3_solved(x))


def nerve_k3(x: CrossedModule) -> list[Simplex3]:
    """All 3-simplices, sorted lexicographically on the positions of
    (a, b, c, d, e, f, m0, m1, m2, m3): the labels of ``k3_rows``."""
    Pe, Me = x.P.elements, x.M.elements
    return [Simplex3(Pe[a], Pe[b], Pe[c], Pe[d], Pe[e], Pe[f], Me[m0], Me[m1], Me[m2], Me[m3])
            for a, b, c, d, e, f, m0, m1, m2, m3 in k3_rows(x)]


def k3_count(x: CrossedModule) -> int:
    """The number of 3-simplices, |M|^3 |P|^3, from the same enumeration and
    re-check as ``nerve_k3``, building and sorting no list."""
    count = 0
    for _ in _k3_solved(x):
        count += 1
    return count
