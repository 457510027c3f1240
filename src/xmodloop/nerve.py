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
once, in row form, by ``_rules``: ``face(c, a)`` is the row of -c + a in
P's table, so (m; c, a, b) is a 2-simplex exactly when
delta(m) = face(c, a)[b], and ``closure(v, m0, m2)`` is the row of
v - m0 - m2 in M's table, read at m1 with v = m3^f.  ``is_simplex2`` and
``is_simplex3`` map labels to positions and read them; so do the two
solvers, ``k2_rows`` and ``_k3_solved``, which evaluate each rule at the
outermost loop level where its inputs are fixed and re-check every row
they emit.  They walk M in the order of the edge each element forces, so
``k2_rows`` emits its rows sorted and ``_k3_solved`` in nearly sorted
runs.  ``k2_rows`` and ``k3_rows`` are the sorted, re-checked rows of
positions; ``nerve_k2`` and ``nerve_k3`` label them, and the CLI writes
its listings straight from them, naming each element once.
"""

from __future__ import annotations

from operator import itemgetter
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


def _rules(x: CrossedModule):
    """The nerve's rules in row form, on positions: ``face`` and ``closure``.

    ``face(c, a)`` is the row of -c + a in P's table, so (m; c, a, b) is a
    2-simplex exactly when ``delta[m] == face(c, a)[b]``.
    ``closure(v, m0, m2)`` is the row of v - m0 - m2 in M's table; with
    v = m3^f, the closure rule of a 3-simplex is
    ``closure(v, m0, m2)[m1] == zero``.
    """
    pt, pinv, mt, minv = x.P._table, x.P._inv, x.M._table, x.M._inv

    def face(c: int, a: int) -> list:
        return pt[pt[pinv[c]][a]]

    def closure(v: int, m0: int, m2: int) -> list:
        return mt[mt[mt[v][minv[m0]]][minv[m2]]]
    return face, closure


def _walks(pt: list, values: list) -> list:
    """For each t in P, the pairs (m, t + values[m]) of M, stably sorted by
    t + values[m]: ties keep m ascending."""
    return [sorted(enumerate(map(row.__getitem__, values)), key=itemgetter(1)) for row in pt]


def is_simplex2(x: CrossedModule, s: Simplex2) -> bool:
    """The boundary rule, on the positions of s's labels."""
    m, c, a, b = s
    P = x.P
    face, _ = _rules(x)
    return x.boundary[x.M.index(m)] == face(P.index(c), P.index(a))[P.index(b)]


def is_simplex3(x: CrossedModule, s: Simplex3) -> bool:
    """The boundary rule of each face and the closure rule, on the positions
    of s's labels: the rules that every solved 3-simplex is re-checked against."""
    a, b, c, d, e, f = map(x.P.index, s[:6])
    m0, m1, m2, m3 = map(x.M.index, s[6:])
    face, closure = _rules(x)
    delta = x.boundary
    return (delta[m0] == face(e, b)[f] and delta[m1] == face(d, c)[f]
            and delta[m2] == face(d, a)[e] and delta[m3] == face(c, a)[b]
            and closure(x.act_table[f][m3], m0, m2)[m1] == x.M.zero)


def k2_rows(x: CrossedModule) -> list[tuple[int, int, int, int]]:
    """Every 2-simplex as a row of positions (a, b, c, m), sorted.

    Each (a, b, m) forces c = a + b - delta(m).  For each (a, b), m is
    walked in the stable order of a + b - delta(m), so c never decreases
    and ties keep m ascending: the rows come out sorted, and the closing
    sort is one linear pass that keeps the order a contract.  Every row is
    re-checked against the boundary rule, read through ``face(c, a)``,
    which is looked up once per (a, c); their number is checked against
    ``k2_count_formula``.
    """
    pt, pinv, delta = x.P._table, x.P._inv, x.boundary
    face, _ = _rules(x)
    ps = range(len(pt))
    minus = _walks(pt, [pinv[p] for p in delta])  # minus[t]: (m, t - delta(m))
    Pe, Me = x.P.elements, x.M.elements
    rows = []
    append = rows.append
    for a in ps:
        row_a, left = pt[a], [face(c, a) for c in ps]
        for b in ps:
            for m, c in minus[row_a[b]]:  # c = a + b - delta(m)
                if delta[m] != left[c][b]:
                    raise InternalInvariantBroken(
                        "solved 2-simplex fails its boundary rule", (Me[m], Pe[c], Pe[a], Pe[b]))
                append((a, b, c, m))
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

    a, b, d and m1, m2, m3 are free, then c = a + b - delta(m3),
    e = -a + d + delta(m2), f = -c + d + delta(m1) and m0 = -m2 + m1 + m3^f
    are forced.  The boundary equation for m0 holds by CM1 and the closure
    rule by the choice of m0; still, every yielded row satisfies all five
    rules, each evaluated at the outermost loop level where its inputs are
    fixed:

    - face 3, (m3; c, a, b), once per (a, b, m3), and face 2, (m2; d, a, e),
      once per (a, d, m2), before b is walked; both read face(., a) rows
      looked up once per a;
    - face 1, (m1; d, c, f), face 0, (m0; e, b, f), and the closure rule per
      row, with the rows face(d, c) and face(e, b) looked up where d and e
      are fixed.

    The verdicts of faces 3 and 2 are read with the row's own three, so the
    row that raises is the first failing row in scan order, whichever rule
    it fails, and the count and the listing report the same one.  m3 is
    walked in the order of a + b - delta(m3), and m2 and m1 in the order of
    their e and f (``_walks``), so c, e and f never decrease where their
    prefix is fixed and the rows come out in nearly sorted runs.
    """
    pt, pinv, mt, minv = x.P._table, x.P._inv, x.M._table, x.M._inv
    delta, zero = x.boundary, x.M.zero
    face, closure = _rules(x)
    ps = range(len(pt))
    columns = list(zip(*x.act_table))  # columns[m][p] = m^p
    minus = _walks(pt, [pinv[p] for p in delta])  # minus[t]: (m, t - delta(m))
    plus = _walks(pt, delta)  # plus[t]: (m, t + delta(m))
    for a in ps:
        row_a, row_na, left = pt[a], pt[pinv[a]], [face(d, a) for d in ps]
        # face 2 at every (d, m2), with e = -a + d + delta(m2)
        walk2 = [[(m2, e, delta[m2] == left[d][e]) for m2, e in plus[row_na[d]]] for d in ps]
        for b in ps:
            for m3, c in minus[row_a[b]]:  # c = a + b - delta(m3)
                ok3 = delta[m3] == left[c][b]
                row_nc, act_m3 = pt[pinv[c]], columns[m3]
                for d in ps:
                    face_dc, walk1 = face(d, c), plus[row_nc[d]]  # f = -c + d + delta(m1)
                    for m2, e, ok2 in walk2[d]:
                        face_eb, row_nm2, ok = face(e, b), mt[minv[m2]], ok2 and ok3
                        for m1, f in walk1:
                            v = act_m3[f]
                            m0 = mt[row_nm2[m1]][v]  # m0 = -m2 + m1 + m3^f
                            row = (a, b, c, d, e, f, m0, m1, m2, m3)
                            if not (ok and delta[m1] == face_dc[f] and delta[m0] == face_eb[f]
                                    and closure(v, m0, m2)[m1] == zero):
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
    sorted; see ``_k3_solved``.

    The solver's rows come out in nearly sorted runs, not sorted: ties in
    c, e or f interleave the rows of different m3, m2 or m1.  ``sorted``
    merges the runs; the rows are distinct, so its output does not depend
    on the order they arrive in."""
    return sorted(_k3_solved(x))


def nerve_k3(x: CrossedModule) -> list[Simplex3]:
    """All 3-simplices, sorted lexicographically on the positions of
    (a, b, c, d, e, f, m0, m1, m2, m3): the labels of ``k3_rows``."""
    return [_simplex3(x, row) for row in k3_rows(x)]


def k3_count(x: CrossedModule) -> int:
    """The number of 3-simplices, |M|^3 |P|^3, from the same enumeration and
    re-check as ``nerve_k3``, building and sorting no list."""
    count = 0
    for _ in _k3_solved(x):
        count += 1
    return count
