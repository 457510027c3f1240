"""Loop-space structure of a crossed module.

For a base element a of P, the vertex group P(a) consists of the pairs
(m, p) with delta(m) = [a, p] = -a - p + a + p under the composition
(n, q) + (m, p) = (m + n^p, q + p), and the loop crossed module at a is

    delta_a: M -> P(a),  delta_a(m) = (-m^a + m, delta m),  n^(m,p) = n^p.

The groupoid-level model has objects P, morphisms all triples (m, p, a)
with source p + a + delta(m) - p and target a, and M as the fibre over
every object, on which (m, p, a) acts by n -> n^p.  ``pi_loop`` reads
the 2-type of the component of a as ``xmod.homotopy`` of L[a].

Both constructions compute on x's position tables: the group tables
of M and P (``_table``, ``_inv``), the action (``act_table``) and the
boundary.  Every table holds positions; each morphism or element label
is built once, for the listings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain

from .documents import _render
from .errors import InternalInvariantBroken
from .groups import (
    FiniteGroup,
    _action_law_failures,
    _displacements,
    _hom_failures,
    _partition,
    _semidirect_table,
    conjugacy_classes,
)
from .groupoids import (
    FiniteGroupoid,
    GroupoidXMod,
    GXModMorphism,
    _object,
    action_groupoid,
    as_groupoid_xmod,
    make_gxm,
)
from .xmod import CrossedModule, HomotopyData, _cm_failures, _homotopy, homotopy


@dataclass(frozen=True, eq=False)
class LoopData:
    """L[a] = (delta_a: M -> P(a)) at one base element a: L[a] is ``xmod``, P(a) ``xmod.P``."""

    xmod: CrossedModule
    _pairs: list = field(repr=False)  # (i, j) for the element (m_i, p_j) of P(a), in order

    @property
    def Pa(self) -> FiniteGroup:  # P(a) is xmod.P; perfbench's tests read it as Pa
        return self.xmod.P


@lru_cache(maxsize=None)
def loop_data(x: CrossedModule, a: str) -> LoopData:
    """P(a) and L[a], built from x's tables and validated once, on positions.

    P(a) is the pairs (m_i, p_j) with delta(m_i) = [a, p_j], in (i, j)
    order, read off the j grouped by [a, p_j] in delta's image: |M| + |P| +
    |P(a)| steps, not |M| |P|.  Its table is computed on positions and validated as a group
    (``groups.FiniteGroup``).  The pair (m, p) acts on M by column p of
    x's action, so each action row of L[a] is a row of ``x.act_table``,
    shared, not copied.  delta_a's additivity, the action laws, CM1 and
    CM2 are then proved on these tables, as for any crossed module; they
    follow from x's axioms, so a failure raises InternalInvariantBroken.
    L[a], read as ``loop_data(x, a).xmod``, is named "<name>-loop[<a>]", with
    a written as its document name.
    """
    M, P = x.M, x.P
    ia = P.index(a)
    Me, Pe, mt, pt, pinv = M.elements, P.elements, M._table, P._table, P._inv
    act, d = x.act_table, x.boundary
    nP = len(P)
    # the j with [a, p_j] = -a - p_j + a + p_j = c, for each value c of delta
    image, solutions = set(d), {}
    for j in range(nP):
        c = pt[pt[pt[pinv[ia]][pinv[j]]][ia]][j]
        if c in image:
            solutions.setdefault(c, []).append(j)
    found = [(i, j) for i in range(len(M)) for j in solutions.get(d[i], ())]
    pairs = [(Me[i], Pe[j]) for i, j in found]
    position = {i * nP + j: r for r, (i, j) in enumerate(found)}
    table = []
    for n, q in found:  # (n, q) + (m, p) = (m + n^p, q + p), on positions
        row_q = pt[q]
        row = [position.get(mt[m][act[p][n]] * nP + row_q[p]) for m, p in found]
        if None in row:
            m, p = found[row.index(None)]
            raise InternalInvariantBroken(
                f"P({a}) is not closed under composition", (Me[n], Pe[q], Me[m], Pe[p]))
        table.append(row)
    Pa = FiniteGroup(pairs, table, position[M.zero * nP + P.zero])
    # delta_a(m) = (-m^a + m, delta m)
    boundary = [position.get(v * nP + d[i]) for i, v in enumerate(_displacements(M, act[ia]))]
    if None in boundary:
        i = boundary.index(None)
        raise InternalInvariantBroken(f"delta_{a} maps {Me[i]} outside P({a})", (Me[i],))
    rows = [act[j] for _, j in found]
    failure = next(chain(_hom_failures(M, Pa, boundary), _action_law_failures(Pa, M, rows),
                         _cm_failures(M, Pa, rows, boundary)), None)
    if failure is not None:
        raise InternalInvariantBroken(
            f"loop crossed module at {a} fails an axiom: {failure}", failure.witness)
    return LoopData(CrossedModule(M, Pa, rows, boundary,
                                     name=f"{x.name or 'xmod'}-loop[{_render(a)}]"), found)


def components(x: CrossedModule) -> list[list[str]]:
    """Equivalence classes of P under b ~ p + b + delta(m) - p, one orbit sweep each.

    The moves b -> p + b + d - p (p in P, d in im delta) are closed under
    composition: by CM1, the move for (m, p) followed by the move for
    (m', p') is the move for (m + m'^p, p' + p).  So the moves applied
    once to b already give the whole class of b, at |P| |im delta| moves
    per class, on positions.  The number of classes is cross-checked
    against the count of conjugacy classes of Cok(delta), computed
    independently.
    """
    P = x.P
    pt, pinv, every = P._table, P._inv, range(len(P))
    boundaries = set(x.boundary)

    def orbit(b):
        return {pt[v][pinv[p]] for p in every for v in map(pt[pt[p][b]].__getitem__, boundaries)}

    classes = [[P.elements[i] for i in block] for block in _partition(every, orbit)]
    expected = len(conjugacy_classes(homotopy(x).pi1))
    if len(classes) != expected:
        raise InternalInvariantBroken(
            f"{len(classes)} components but {expected} conjugacy classes in pi1",
            (len(classes), expected))
    return classes


@lru_cache(maxsize=None)
def loop_gpd_xmod(x: CrossedModule) -> GroupoidXMod:
    """The full loop crossed module over a groupoid, as an action groupoid.

    Objects are the elements of P and morphisms the tuples (m, p, a) from
    p + a + delta(m) - p to a; M is the fibre over every object.  The
    base is the action groupoid of one group G on P.  G is the pairs
    (m, p) under the law of P(a),

        (n, q) + (m, p) = (m + n^p, q + p),

    and (m, p) sends a to p + a + delta(m) - p, the source of (m, p, a).
    So the composite of u = (n, q, b) followed by v = (m, p, a) is
    (m + n^p, q + p, a), defined exactly when b is the source of v.  This
    is not ``groups.semidirect_product`` of M, which adds the M parts the
    other way round, but that product's table for the opposite group of M
    (``groups._semidirect_table``).  G is validated as a group, and
    ``action_groupoid`` proves the action law (h + g) . a = h . (g . a),
    which holds by CM1, from G's generators; the groupoid laws follow.

    Every table is computed on positions, from the group tables of M and
    P and x's action and boundary tables: the pair (m_i, p_j) sits at
    position i |P| + j of G and the morphism (m_i, p_j, a_k) at
    (i |P| + j) |P| + k.  (m_i, p_j) acts on M by n -> n^p_j, row j of
    ``x.act_table``, and the boundary at a is m -> (-m^a + m, delta m);
    ``make_gxm`` proves the crossed-module laws.
    """
    M, P = x.M, x.P
    Pe, pt, pinv = P.elements, P._table, P._inv
    act, d = x.act_table, x.boundary
    nM, nP = len(M), len(P)
    pairs = [(m, p) for m in M.elements for p in Pe]
    # (n, q) + (m, p) = (m + n^p, q + p): the twisted law of the opposite group of M
    table = _semidirect_table([list(column) for column in zip(*M._table)], pt, act)
    G = FiniteGroup(pairs, table, M.zero * nP + P.zero)
    # (m, p) . a = p + a + delta(m) - p
    moves = [[pt[pt[pt[j][k]][d[i]]][pinv[j]] for k in range(nP)]
             for i in range(nM) for j in range(nP)]
    # the arrow (g_i, a_k), g_i = (m, p), is named (m, p, a_k)
    base = action_groupoid(G, Pe, moves, lambda i, k: (*pairs[i], Pe[k]))
    # delta_a(m) = (-m^a + m, delta m, a)
    boundary = [[v * nP + d[i] for i, v in enumerate(_displacements(M, row))] for row in act]
    # (n, s)^(m_i, p_j, a) = (n^p_j, a): G acts on M through row j of the action
    return make_gxm(base, M, [act[j] for _ in range(nM) for j in range(nP)], boundary)


def theta(x: CrossedModule, a: str) -> GXModMorphism:
    """The isomorphism from the loop groupoid restricted at a onto L[a].

    The stabiliser of a and ``LoopData._pairs`` both list (m_i, p_j) at
    ascending i |P| + j, and the two scans must agree; so the vertex
    slice is L[a]'s tables lifted to G's positions by the stabiliser.
    The comparison is the proof: G's table on stabiliser x stabiliser
    must be P(a)'s, the boundary at a delta_a's and G's action at the
    stabiliser L[a]'s rows, entry by entry, or InternalInvariantBroken
    names the law (``composition``, ``boundary`` or ``action``).  Equal
    tables make the identity on positions a homomorphism with both
    squares, and the stabiliser closed under +.  The source is L[a] over
    the one object a, each arrow named as in the loop groupoid; theta
    sends a to the object of L[a], (m, p, a) to (m, p) and M to M.
    """
    gxm = loop_gpd_xmod(x)
    base = gxm.base
    k = _object(base, a)
    stabiliser, lx = base.stabiliser(k), loop_data(x, a)
    La = lx.xmod
    if stabiliser != [i * len(x.P) + j for i, j in lx._pairs]:
        raise InternalInvariantBroken(f"the stabiliser of {a} is not P({a})", (a,))
    gt, lift = base.group._table, stabiliser.__getitem__
    for law, here, there in (
            ("composition", [list(map(gt[g].__getitem__, stabiliser)) for g in stabiliser],
             [list(map(lift, row)) for row in La.P._table]),
            ("boundary", gxm.boundary[k], list(map(lift, La.boundary))),
            ("action", list(map(gxm.act.__getitem__, stabiliser)), La.act_table)):
        if here != there:
            raise InternalInvariantBroken(
                f"the loop groupoid at {a} and L[{a}] differ in {law}", (a, law))
    target = as_groupoid_xmod(La)
    vertex = FiniteGroupoid(La.P, (a,), target.base.act, lambda r, _: base.name(lift(r), k))
    return GXModMorphism(replace(target, base=vertex), target, list(range(len(La.P))), [0],
                         list(range(len(x.M))))


def pi_loop(x: CrossedModule, a: str) -> HomotopyData:
    """The homotopy of L[a]: pi1 = Cok(delta_a), pi2 = Ker(delta_a) and the action.

    ``xmod.homotopy`` reads them, with every check it makes; its body is
    called uncached, since ``loop_data`` already holds L[a].  The
    fixed-point identity Ker(delta_a) = {k in Ker(delta) : k^a = k}
    holds elementwise and is asserted, not assumed.
    """
    data = _homotopy(loop_data(x, a).xmod)
    inside = data.kernel_subgroup._positions
    zero, row = x.P.zero, x.act_table[x.P.index(a)]
    fixed = [i for i, v in enumerate(row) if x.boundary[i] == zero and v == i]
    if list(inside) != fixed:
        raise InternalInvariantBroken(
            f"Ker(delta_{a}) differs from the fixed points of {a}",
            tuple(sorted(x.M.elements[i] for i in set(inside) ^ set(fixed))))
    return data
