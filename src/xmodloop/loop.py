"""Loop-space structure of a crossed module.

For a base element a of P, the vertex group P(a) consists of the pairs
(m, p) with delta(m) = [a, p] = -a - p + a + p under the composition
(n, q) + (m, p) = (m + n^p, q + p), and the loop crossed module at a is

    delta_a: M -> P(a),  delta_a(m) = (-m^a + m, delta m),  n^(m,p) = n^p.

The groupoid-level model has objects P, morphisms all triples (m, p, a)
with source p + a + delta(m) - p and target a, and M as the fibre over
every object, on which (m, p, a) acts by n -> n^p.

Both constructions compute on positions: the group tables of M and P
(``_table``, ``_inv``) and the action and boundary read once per (m, p)
(``xmod._positions``).  Each morphism or element label is built once, and
every composite in a table is one of those shared tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .documents import _render
from .errors import InternalInvariantBroken, XModError
from .groups import (
    FiniteGroup,
    GroupAction,
    Homomorphism,
    _partition,
    conjugacy_classes,
    group_action,
    homomorphism,
    image,
    kernel,
    make_group,
    quotient,
)
from .groupoids import (
    GroupoidXMod,
    GXModMorphism,
    action_groupoid,
    as_groupoid_xmod,
    make_gxm,
    make_gxm_morphism,
    restrict,
)
from .xmod import CrossedModule, _positions, homotopy, make_xmod


@dataclass(frozen=True, eq=False)
class LoopData:
    """P(a), delta_a and the P(a)-action on M for one base element a."""

    base: str
    Pa: FiniteGroup
    delta_a: Homomorphism
    action: GroupAction


@lru_cache(maxsize=None)
def loop_data(x: CrossedModule, a: str) -> LoopData:
    M, P = x.M, x.P
    ia = P.index(a)
    Me, Pe, mt, pt, minv, pinv = M.elements, P.elements, M._table, P._table, M._inv, P._inv
    act, d = _positions(x)
    nP = len(P)
    # [a, p] = -a - p + a + p
    commutator = [pt[pt[pt[pinv[ia]][pinv[j]]][ia]][j] for j in range(nP)]
    found = [(i, j) for i in range(len(M)) for j in range(nP) if d[i] == commutator[j]]
    pairs = [(Me[i], Pe[j]) for i, j in found]
    position = {i * nP + j: r for r, (i, j) in enumerate(found)}
    table = []
    for n, q in found:
        row_n, row_q, row = act[n], pt[q], []
        for m, p in found:
            r = position.get(mt[m][row_n[p]] * nP + row_q[p])
            if r is None:
                raise InternalInvariantBroken(
                    f"P({a}) is not closed under composition", (Me[n], Pe[q], Me[m], Pe[p]))
            row.append(pairs[r])
        table.append(row)
    Pa = make_group(pairs, table, (M.identity, P.identity))
    mapping = {Me[i]: (Me[mt[minv[act[i][ia]]][i]], Pe[d[i]]) for i in range(len(M))}
    delta_a = homomorphism(M, Pa, mapping)
    act_table = {(Me[n], pair): Me[act[n][p]] for n in range(len(M))
                 for pair, (_, p) in zip(pairs, found)}
    action = group_action(Pa, M, act_table)
    return LoopData(a, Pa, delta_a, action)


def components(x: CrossedModule) -> list[list[str]]:
    """Equivalence classes of P under b ~ p + b + delta(m) - p, one orbit sweep each.

    The moves b -> p + b + d - p (p in P, d in im delta) are closed under
    composition: by CM1, the move for (m, p) followed by the move for
    (m', p') is the move for (m + m'^p, p' + p).  So the moves applied
    once to b already give the whole class of b, at |P| |im delta| moves
    per class.  The number of classes is cross-checked against the count
    of conjugacy classes of Cok(delta), computed independently.
    """
    P = x.P
    boundaries = {x.delta(m) for m in x.M}
    classes = _partition(P, lambda b: {P.sub(P.add(P.add(p, b), d), p)
                                       for p in P for d in boundaries})
    expected = len(conjugacy_classes(homotopy(x).pi1))
    if len(classes) != expected:
        raise InternalInvariantBroken(
            f"{len(classes)} components but {expected} conjugacy classes in pi1",
            (len(classes), expected))
    return classes


def loop_xmod_at(x: CrossedModule, a: str) -> CrossedModule:
    """The loop crossed module at a; its axioms are re-verified on assembly.

    It is named "<name>-loop[<a>]", with a written as its document name.
    """
    data = loop_data(x, a)
    try:
        return make_xmod(x.M, data.Pa, data.delta_a, data.action,
                         name=f"{x.name or 'xmod'}-loop[{_render(a)}]")
    except XModError as exc:
        raise InternalInvariantBroken(
            f"loop crossed module at {a} fails an axiom: {exc}", exc.witness) from exc


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
    is not ``groups.semidirect_product``, which adds the M parts the other
    way round.  G is validated as a group, and ``action_groupoid`` proves
    the action law (h + g) . a = h . (g . a), which holds by CM1, from G's
    generators; the groupoid laws follow.

    Every table is computed on positions, from the group tables of M and
    P and one lookup of m^p and delta(m) per (m, p): the pair (m_i, p_j)
    sits at position i |P| + j of G and the morphism (m_i, p_j, a_k) at
    (i |P| + j) |P| + k.  (m_i, p_j) acts on M by n -> n^p_j, column j of
    the action of ``xmod._positions``, and the boundary at a is
    m -> (-m^a + m, delta m); ``make_gxm`` proves the crossed-module laws.
    """
    M, P = x.M, x.P
    Me, Pe, mt, pt, minv, pinv = M.elements, P.elements, M._table, P._table, M._inv, P._inv
    act, d = _positions(x)
    nM, nP = len(M), len(P)
    pairs = [(m, p) for m in Me for p in Pe]
    cells = list(product(range(nM), range(nP)))
    table = []
    for n, q in cells:  # (n, q) + (m, p) = (m + n^p, q + p), on positions
        row_n, row_q = act[n], pt[q]
        table.append([pairs[mt[m][row_n[p]] * nP + row_q[p]] for m, p in cells])
    G = make_group(pairs, table, (M.identity, P.identity))
    # (m, p) . a = p + a + delta(m) - p
    moves = [[pt[pt[pt[j][k]][d[i]]][pinv[j]] for k in range(nP)] for i, j in cells]
    morphisms = [(m, p, a) for m, p in pairs for a in Pe]
    base = action_groupoid(G, Pe, moves, morphisms)
    # (n, s)^(m_i, p_j, a) = (n^p_j, a): G acts on M through column j of the action
    columns = [[row[j] for row in act] for j in range(nP)]
    # delta_a(m) = (-m^a + m, delta m, a)
    boundary = [[mt[minv[act[i][k]]][i] * nP + d[i] for i in range(nM)] for k in range(nP)]
    return make_gxm(base, M, [columns[j] for _ in range(nM) for j in range(nP)], boundary)


def theta(x: CrossedModule, a: str) -> GXModMorphism:
    """The isomorphism from the loop groupoid restricted at a onto L[a].

    Its source is ``restrict`` to a, its stabiliser, which is P(a), and
    all of M; the cut checks only closure and invariance, so P(a) is
    validated once, by ``loop_data``.  theta sends a to the object of
    L[a], (m, p, a) to (m, p) and M to M by the identity; it is validated
    as a structure-preserving bijection in every dimension.
    """
    gxm = loop_gpd_xmod(x)
    src = restrict(gxm, gxm.base.stabiliser(a), (a,), x.M)
    lx = loop_xmod_at(x, a)
    group_map = [lx.P.index(g) for g in src.base.group]
    f = make_gxm_morphism(src, as_groupoid_xmod(lx), group_map, [0], list(range(len(x.M))))
    if not f.is_isomorphism():
        raise InternalInvariantBroken(f"theta at {a} is not bijective", (a,))
    return f


@dataclass(frozen=True, eq=False)
class LoopHomotopy:
    """pi1 and pi2 of the loop-space component at a."""

    pi1: FiniteGroup
    pi2: FiniteGroup
    projection: Homomorphism  # P(a) -> pi1


def pi_loop(x: CrossedModule, a: str) -> LoopHomotopy:
    """Cok and Ker of delta_a; the kernel is checked to equal the fixed points.

    The fixed-point identity Ker(delta_a) = {k in Ker(delta) : k^a = k}
    holds elementwise and is asserted, not assumed.
    """
    data = loop_data(x, a)
    pi1, projection = quotient(data.Pa, image(data.delta_a))
    ker = kernel(data.delta_a)
    pi2 = ker.as_group()
    fixed = {k for k in kernel(x.delta) if x.act(k, a) == k}
    if set(pi2.elements) != fixed:
        raise InternalInvariantBroken(
            f"Ker(delta_{a}) differs from the fixed points of {a}",
            tuple(sorted(set(pi2.elements) ^ fixed)))
    return LoopHomotopy(pi1, pi2, projection)
