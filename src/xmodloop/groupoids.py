"""Finite groupoids and crossed modules over groupoids, all extensional.

Composition is additive and reads left to right: for p: x -> y and
q: y -> z the composite p + q: x -> z is defined exactly when
target(p) = source(q).  Every groupoid the library builds is an action
groupoid, and every law holds over every composable tuple.

Groupoids.  A ``FiniteGroupoid`` is a validated ``FiniteGroup`` G, its
objects X and an integer table of |G| x |X| entries: ``act[i][k]`` is
the position of g_i . x_k.  An arrow is a pair of positions (i, k), the
arrow (g_i, x_k): g_i . x_k -> x_k; ``name(i, k)`` names it, and a name
is built only when a witness, a vertex-group label or a listing reads
it.  Nothing is looked up by name: source, target, composite, identity
and inverse are G's tables and ``act`` read at positions,

    (g, y) + (h, z) = (g + h, z)  when h . z = y,
    identity(x) = (0, x),  -(g, x) = (-g, g . x).

The identity, inverse and associativity laws follow from G's group laws.
What is left is the action law (h + g) . x = h . (g . x), which makes
each composite start where its first factor does, and 0 . x = x.
``action_groupoid`` checks 0 . x = x at every object and proves the
action law from G's generators S_G through ``groups._failures``: |S_G|
|G| rows of |X| entries.  Only when that proof fails does it compare
every row (h, g), reporting the first failure in (h, g, x) order.  It
is the only groupoid constructor.  The component of x_k (``pi0``) is
its orbit, column k of ``act``, and the vertex group at x_k is the cut
of G at the stabiliser of x_k (``vertex_group``), since
(g, x) + (h, x) = (g + h, x).  Only the public entry points read a
name, the object they are asked about.

Crossed modules.  The fibre at every object is one group M, and the
arrow (g, x) acts on it by m -> m^g whatever x is.  So a ``GroupoidXMod``
is M, G's action on M as a |G| x |M| table of positions (``act[i][t]``
is m_t^(g_i)) and the boundary as a |X| x |M| table of positions in G
(d_(x_k)(m_t) is the arrow (g, x_k) for g at ``boundary[k][t]``).
``make_gxm`` checks, in order, with S_G and S_M the generators of G and M:

- ``boundary-vertex`` (each d_x(m) is an arrow x -> x) and
  ``boundary-hom`` (from S_M and 0: |X| |M| (|S_M| + 1) checks);
- the action: m^0 = m, then ``composition`` (m^g)^h = m^(g + h).  The h
  for which it holds contain 0 and are closed under +, since
  (m^g)^(h1 + h2) = ((m^g)^h1)^h2 = (m^(g + h1))^h2 = m^(g + h1 + h2), so
  h in S_G suffices: |S_G| |G| rows of |M|.  Then ``additivity``
  (m + n)^g = m^g + n^g, given composition, at n in 0 and S_M and g in
  S_G: (|S_M| + 1) |S_G| rows of |M|;
- CM1, d_x(m^g) = -g + d_(g.x)(m) + g: it holds at g = 0, and at g + s if
  at g and s, by composition and the action law on X:
  d_x(m^(g+s)) = -s + d_(s.x)(m^g) + s = -(g+s) + d_((g+s).x)(m) + (g+s),
  so it is proved for each generator of G and each object: |S_G| |X| rows;
- CM2, m^d_x(n) = -n + m + n: it holds for n = 0, and for n + s if for n
  and s, by boundary-hom and composition: m^d(n+s) = (m^d(n))^d(s) =
  -s + (-n + m + n) + s, so it is proved for each object at S_M: |X| |S_M|
  rows.  Each proof runs after the laws it uses; only a failing proof
  compares every row, and the first failure in scan order is raised
  (``groups._failures``).  The action and CM rows are the ones a crossed
  module of groups is checked by (``groups._composition``,
  ``groups._additivity``, ``xmod._cm1``, ``xmod._cm2``).

Restriction.  ``restrict`` cuts out a subgroup H of G, objects X' and a
subgroup N of M, each given as positions.  Each law of the piece is a
law of the whole at elements of the piece, so the piece keeps every law
as long as its tables stay inside it: H is closed under + and -, H maps
X' and N into themselves, and each d_x(N), x in X', lies in H (and in
the stabiliser of x, so in the piece's vertex group).  ``restrict`` checks only these
and validates no law again.  Only the fibre of ``exactseq.fibration_psi``
(the pairs (m, 0), every object and N = 0) is still a restriction.

Homotopy.  At x, d_x maps M into the vertex group, whose arrows act on
M; this is a crossed module of groups (``_vertex_xmod``), each law of it
a law of the whole at x, so it is not validated again.  ``homotopy_at``
reads it with ``xmod.homotopy``, as the base and each L[a] are.

Morphisms.  A ``GXModMorphism`` is three maps of positions: f: G -> G',
f0: X -> X' and f2: M -> M', sending (g, x) to (f(g), f0(x)).
``check_morphism`` proves f and f2 homomorphisms from generators, then
f0 equivariant, f0(g . x) = f(g) . f0(x) (closed under + once f is, so
checked for g in S_G), the boundary square f(d_x(m)) = d'_(f0 x)(f2 m)
at S_M (both sides are homomorphisms in m) and the action square
f2(m^g) = f2(m)^f(g) for g in S_G (f2(m^(g+s)) = f2(m^g)^f(s) =
f2(m)^(f(g) + f(s))).  ``make_gxm_morphism`` builds one after that
check; ``loop.theta`` builds the identity between tables it compared
entry by entry, which proves every law above.  So ``is_fibration``
checks only surjectivity: the star at a maps onto the star at f0(a)
exactly when f is onto G', and f2 must be onto M'.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import product, starmap
from operator import itemgetter

from .errors import (
    CM1Violation,
    CM2Violation,
    InvalidAction,
    InvalidGroupoid,
    InvalidGroupoidXMod,
    InvalidMorphism,
    UnknownObject,
    Violation,
)
from .groups import (
    FiniteGroup,
    _additive_failures,
    _additivity,
    _composition,
    _cut,
    _failures,
    _partition,
    _position,
)
from .xmod import CrossedModule, HomotopyData, _cm1, _cm2, _homotopy


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    """The action groupoid of a finite group on a finite set of objects.

    The arrow (g_i, x_k) from g_i . x_k to x_k is the pair of positions
    (i, k), where act[i][k] is the position of g_i . x_k; ``name(i, k)``
    names it and ``morphisms`` every arrow, at i |objects| + k, when read.
    Build one with ``action_groupoid``, which checks every law.
    """

    group: FiniteGroup
    objects: tuple
    act: list  # act[i][k] = position of g_i . x_k in objects
    name: Callable  # name(i, k) = the name of the arrow (g_i, x_k)

    @property
    def morphisms(self) -> tuple:
        return tuple(starmap(self.name, product(range(len(self.group)), range(len(self.objects)))))

    def stabiliser(self, k: int) -> list[int]:
        """The positions i with g_i . x_k = x_k, in group order."""
        return [i for i, row in enumerate(self.act) if row[k] == k]


def _object(base: FiniteGroupoid, x) -> int:
    """The position of the object x; ``UnknownObject`` names x when it is none."""
    try:
        return base.objects.index(x)
    except ValueError:
        raise UnknownObject(x) from None


def action_groupoid(group: FiniteGroup, objects, act, name) -> FiniteGroupoid:
    """The action groupoid of a validated group on objects, checking every law.

    ``act[i][k]`` is the position in ``objects`` of g_i . x_k, and
    ``name(i, k)`` names the arrow (g_i, x_k) for witnesses and listings.
    G's labels are distinct, and the objects must be (``objects-distinct``),
    so a name built from G's label at i and the object at k is distinct
    by construction and no name is checked.  Each entry of ``act`` must
    be an object (law ``source``) and the identity must fix every object
    (``identity-missing``).  The action law (h + g) . x = h . (g . x)
    holds for h = 0, and for h1 + h2 once it holds for h1 and h2 (G is
    associative); so it is proved for h in G's generators, and every row
    (h, g) is compared, failures reported in (h, g, x) order, only when
    that proof fails.  A failure at (h, g, x) is the composite w of
    u = (h, g . x) and v = (g, x) starting elsewhere than u:
    ``composition-endpoints`` with witness (u, v, w).
    """
    objects = tuple(objects)
    n, nx = len(group), len(objects)
    if len(set(objects)) != nx:
        raise InvalidGroupoid("objects-distinct", (objects,))
    act = [list(row) for row in act]
    if len(act) != n or any(len(row) != nx for row in act):
        raise InvalidGroupoid("action-shape", (len(act), n, nx))
    points = set(range(nx))
    for i, row in enumerate(act):
        if not points.issuperset(row):
            j = next(j for j, s in enumerate(row) if s not in points)
            raise InvalidGroupoid("source", (name(i, j),))
    table = group._table
    e = group.zero
    for j, s in enumerate(act[e]):
        if s != j:
            raise InvalidGroupoid("identity-missing", (objects[j],))

    def acts(h: int, g: int):  # h . (g . x) and (h + g) . x, for every x
        return list(map(act[h].__getitem__, act[g])), act[table[h][g]]

    for h, g, z in _failures(acts, product(range(n), range(n)),
                             product(group.generators, range(n))):
        raise InvalidGroupoid("composition-endpoints",
                              (name(h, act[g][z]), name(g, z), name(table[h][g], z)))
    return FiniteGroupoid(group, objects, act, name)


def _vertex(base: FiniteGroupoid, k: int) -> tuple[FiniteGroup, list[int]]:
    """The vertex group at x_k, and the positions in G of its elements, in group order."""
    return _cut(base.group, base.stabiliser(k), lambda i: base.name(i, k))


def vertex_group(groupoid: FiniteGroupoid, x: str) -> FiniteGroup:
    """The group of morphisms x -> x under groupoid composition, each named by its arrow.

    The arrows x -> x are (g, x) for g in the stabiliser of x, and for two
    of them (g, x) + (h, x) = (g + h, x), defined since h . x = x.  So
    g -> (g, x) is an isomorphism from the stabiliser onto the vertex
    group, which is the cut of G at the stabiliser (``groups._cut``).
    """
    return _vertex(groupoid, _object(groupoid, x))[0]


@dataclass(frozen=True, eq=False)
class GroupoidXMod:
    """A crossed module over an action groupoid, with one fibre group M over every object.

    Its tables are described in the module docstring; build one with ``make_gxm``.
    """

    base: FiniteGroupoid
    fibre: FiniteGroup  # M, the fibre over every object
    act: list  # act[i][t] = position of m_t^(g_i) in M
    boundary: list  # boundary[k][t] = position in G of the group part of d_(x_k)(m_t)

    @property
    def fibres(self) -> dict:
        """The fibre over each object, which is M over every object."""
        return dict.fromkeys(self.base.objects, self.fibre)


def make_gxm(base: FiniteGroupoid, fibre: FiniteGroup, act, boundary) -> GroupoidXMod:
    """Assemble a crossed module over an action groupoid, checking every law.

    ``act`` has a row of |M| positions in M per element of G and
    ``boundary`` a row of |M| positions in G per object; a table of the
    wrong shape fails ``boundary-missing`` or ``action-domain``, and an
    action entry outside M ``action-codomain``.  The laws, their order and
    their proofs are in the module docstring.
    """
    G, M, objects, name = base.group, fibre, base.objects, base.name
    gt, xact, mt = G._table, base.act, M._table
    n, nx, nm = len(G), len(objects), len(M)
    mlabel, glabel, arrows = M.elements, G.elements, range(len(G))
    boundary = [list(row) for row in boundary]
    if len(boundary) != nx or any(len(row) != nm for row in boundary):
        raise InvalidGroupoidXMod("boundary-missing", (len(boundary), nx, nm))
    for k, row in enumerate(boundary):
        for t, g in enumerate(row):
            if g not in arrows or xact[g][k] != k:
                raise InvalidGroupoidXMod("boundary-vertex", (
                    mlabel[t], objects[k], name(g, k) if g in arrows else g))
        for s, t in _additive_failures(M, row, gt):
            raise InvalidGroupoidXMod("boundary-hom", (objects[k], mlabel[s], mlabel[t]))
    act = [list(row) for row in act]
    if len(act) != n or any(len(row) != nm for row in act):
        raise InvalidGroupoidXMod("action-domain", (len(act), n, nm))
    points = set(range(nm))
    for i, row in enumerate(act):
        if not points.issuperset(row):
            t = next(t for t, v in enumerate(row) if v not in points)
            raise InvalidGroupoidXMod("action-codomain", (mlabel[t], glabel[i], row[t]))
    for t, v in enumerate(act[G.zero]):
        if v != t:
            raise InvalidAction("identity", (mlabel[t],))
    gens, every = G.generators, range(nm)
    for g, h, t in _failures(partial(_composition, act, gt), product(arrows, arrows),
                             product(arrows, gens)):
        raise InvalidAction("composition", (mlabel[t], glabel[g], glabel[h]))
    zero_and_gens = (M.zero, *M.generators)
    for u, g, t in _failures(partial(_additivity, act, mt), product(every, arrows),
                             product(zero_and_gens, gens), itemgetter(1, 2, 0)):
        raise InvalidAction("additivity", (mlabel[t], mlabel[u], glabel[g]))

    def cm1(g, k):  # at x = x_k, for every m
        return _cm1(G, act, boundary[k], boundary[xact[g][k]], g)

    for g, k, t in _failures(cm1, product(arrows, range(nx)), product(gens, range(nx))):
        raise CM1Violation(mlabel[t], name(g, k))

    def cm2(k, u):  # at x = x_k and n = m_u, for every m
        return _cm2(M, act, boundary[k], u)

    for _, u, t in _failures(cm2, product(range(nx), every), product(range(nx), M.generators)):
        raise CM2Violation(mlabel[t], mlabel[u])
    return GroupoidXMod(base, M, act, boundary)


def pi0(gxm: GroupoidXMod) -> list[list[str]]:
    """Connected components of the base groupoid, least representative first.

    The component of x_k is its orbit, the objects g . x_k: column k of
    ``act``.  A validated groupoid is closed under composites and
    inverses, so every object joined to x_k by a path is joined to it by
    one arrow.  One pass over each column suffices.
    """
    base = gxm.base
    act, objects = base.act, base.objects
    blocks = _partition(range(len(objects)), lambda k: {row[k] for row in act})
    return [[objects[k] for k in block] for block in blocks]


def _vertex_xmod(gxm: GroupoidXMod, x: str) -> CrossedModule:
    """d_x: M -> the vertex group at x, acted on by its arrows (module docstring)."""
    k = _object(gxm.base, x)
    vertex, positions = _vertex(gxm.base, k)
    local = {g: r for r, g in enumerate(positions)}
    return CrossedModule(gxm.fibre, vertex, [gxm.act[g] for g in positions],
                         [local[g] for g in gxm.boundary[k]])


def homotopy_at(gxm: GroupoidXMod, x: str) -> HomotopyData:
    """pi1 = Cok(d_x), pi2 = Ker(d_x) and the action: ``xmod.homotopy`` of the vertex module."""
    return _homotopy(_vertex_xmod(gxm, x))


def _slice(rows, columns, local, error) -> list[list[int]]:
    """Each row at ``columns``, renumbered by ``local``; raises error(r, c) at the first miss."""
    cut = []
    for r, row in enumerate(rows):
        values = [local.get(row[c]) for c in columns]
        if None in values:
            raise error(r, columns[values.index(None)])
        cut.append(values)
    return cut


def restrict(gxm: GroupoidXMod, elements, objects, fibre) -> GroupoidXMod:
    """The piece of gxm on a subgroup H of its base group, some objects and a subgroup N of M.

    All three are given as positions: ``elements`` in G, ``objects`` in
    the base's objects and ``fibre`` in M.  A position out of range raises
    ``UnknownElement`` or ``UnknownObject``.  ``elements`` and ``fibre``
    must be closed under - and + (``NotClosed``), and H must map
    ``objects`` into themselves (``objects-invariant``), N into itself
    (``action-codomain``) and each d_x(N) into H (``boundary-vertex``).
    The piece is H acting on ``objects``, in that order; each arrow keeps
    its name in gxm, and distinct arrows of the piece are distinct there.
    When ``fibre`` holds every position of M, N is M itself: it is not
    cut, and H's action rows are gxm's.  No law is validated again.
    """
    base, M, nx = gxm.base, gxm.fibre, len(gxm.base.objects)
    group, parent = _cut(base.group, elements)
    kept = list(objects)
    for k in kept:
        if k not in range(nx):
            raise UnknownObject(k)
    names = tuple(base.objects[k] for k in kept)
    if len(set(kept)) != len(kept):
        raise InvalidGroupoid("objects-distinct", (names,))
    act = _slice([base.act[i] for i in parent], kept, {k: r for r, k in enumerate(kept)},
                 lambda r, k: InvalidGroupoid("objects-invariant",
                                              (group.elements[r], base.objects[k])))
    piece = FiniteGroupoid(group, names, act, lambda r, c: base.name(parent[r], kept[c]))
    acts, inside = [gxm.act[i] for i in parent], [_position(M, t) for t in fibre]
    if len(set(inside)) == len(M):
        sub, inside, sub_act = M, range(len(M)), acts
    else:
        sub, inside = _cut(M, inside)
        sub_act = _slice(acts, inside, {t: r for r, t in enumerate(inside)}, lambda r, t: (
            InvalidGroupoidXMod("action-codomain", (M.elements[t], group.elements[r],
                                                    M.elements[acts[r][t]]))))
    bounds = [gxm.boundary[k] for k in kept]
    sub_boundary = _slice(bounds, inside, {i: r for r, i in enumerate(parent)}, lambda r, t: (
        InvalidGroupoidXMod("boundary-vertex", (M.elements[t], names[r],
                                                base.name(bounds[r][t], kept[r])))))
    return GroupoidXMod(piece, sub, sub_act, sub_boundary)


def as_groupoid_xmod(x: CrossedModule) -> GroupoidXMod:
    """A crossed module of groups, viewed over the one-object groupoid of P.

    The base is P acting on one point, the boundary is delta and the
    action is x's; the tables are x's own, not copies.  Each law of the
    result is then a law of x, which was validated when x was built, and
    the base's laws hold trivially (every element fixes the one point),
    so nothing is checked again.
    """
    P = x.P
    base = FiniteGroupoid(P, ("*",), [[0] for _ in P.elements], lambda i, k: P.elements[i])
    return GroupoidXMod(base, x.M, x.act_table, [x.boundary])


@dataclass(frozen=True, eq=False)
class GXModMorphism:
    """A map of crossed modules over action groupoids: (g_i, x_k) goes to
    (g'_(group_map[i]), x'_(obj_map[k])) and m_t to m'_(fibre_map[t])."""

    source: GroupoidXMod
    target: GroupoidXMod
    group_map: list
    obj_map: list
    fibre_map: list

    def is_isomorphism(self) -> bool:
        target = self.target
        return all(sorted(mapping) == list(range(size)) for mapping, size in (
            (self.obj_map, len(target.base.objects)), (self.group_map, len(target.base.group)),
            (self.fibre_map, len(target.fibre))))


def _unmapped(mapping, n: int, codomain: int) -> list[int]:
    """The positions below n whose image is not a position below codomain."""
    image = range(codomain)
    return [i for i in range(n) if i >= len(mapping) or mapping[i] not in image]


def check_morphism(source: GroupoidXMod, target: GroupoidXMod,
                   group_map, obj_map, fibre_map) -> list[Violation]:
    """Report-valued check of the morphism laws, on positions.

    In order, each in scan order: ``object-map`` and ``morphism-map`` (no
    position of the target), ``endpoints`` (each arrow whose image starts
    elsewhere: f0 not equivariant), ``identity`` (at each object, when
    f(0) != 0), ``composition``, ``dim2-map``, ``dim2-hom`` and
    ``boundary-square``, and on an empty report ``action-square``.  Each
    law is stated as a row function; every row is compared only when its
    proof or a premise fails (``groups._failures``).
    """
    report: list[Violation] = []
    sb, tb, M = source.base, target.base, source.fibre
    G, H = sb.group, tb.group
    objects, nx, nm = sb.objects, len(sb.objects), len(M)
    report += [Violation("object-map", f"no valid image for object {objects[k]}",
                         (objects[k],)) for k in _unmapped(obj_map, nx, len(tb.objects))]
    if report:
        return report
    report += [Violation("morphism-map", f"no valid image for {G.elements[i]}",
                         (G.elements[i],)) for i in _unmapped(group_map, len(G), len(H))]
    if report:
        return report
    f, f0, ht = group_map, obj_map, H._table
    arrows = range(len(G))
    gens = G.generators
    identity_kept = f[G.zero] == H.zero

    unadditive = list(_additive_failures(G, f, ht))

    def equivariant(g):  # f0(g . x) and f(g) . f0(x), for every x
        image = tb.act[f[g]]
        return [f0[y] for y in sb.act[g]], [image[z] for z in f0]

    proof = product(gens) if identity_kept and not unadditive else None
    report += [Violation("endpoints", f"image of {u} has wrong endpoints", (u,))
               for u in (sb.name(g, k)
                         for g, k in _failures(equivariant, product(arrows), proof))]
    if report:
        return report
    if not identity_kept:
        report += [Violation("identity", f"identity at {x} is not preserved", (x,))
                   for x in objects]
    report += [Violation("composition", f"f({G.elements[g]} + {G.elements[h]}) != "
                         f"f({G.elements[g]}) + f({G.elements[h]})",
                         (G.elements[g], G.elements[h])) for g, h in unadditive]
    f2, mlabel = fibre_map, M.elements
    unmapped = _unmapped(f2, nm, len(target.fibre))
    report += [Violation("dim2-map", f"no valid image for {mlabel[t]}", (mlabel[t],))
               for t in unmapped]
    if not unmapped:
        unhom = [(mlabel[s], mlabel[t])
                 for s, t in _additive_failures(M, f2, target.fibre._table)]
        report += [Violation("dim2-hom", f"f2({m} + {n}) != f2({m}) + f2({n})", (m, n))
                   for m, n in unhom]

        targets = [target.boundary[z] for z in f0]

        def squares(t):  # f(d_x(m)) and d'_(f0 x)(f2 m), for every x, at m = m_t
            f2t = f2[t]
            return [f[b[t]] for b in source.boundary], [b[f2t] for b in targets]

        premises = identity_kept and not unadditive and not unhom
        report += [Violation("boundary-square", f"f1(delta {mlabel[t]}) != delta(f2 "
                             f"{mlabel[t]}) at {objects[k]}", (objects[k], mlabel[t]))
                   for t, k in _failures(squares, product(range(nm)),
                                         product(M.generators) if premises else None,
                                         itemgetter(1, 0))]
    if report:
        return report

    def acts(g):  # f2(m^g) and f2(m)^f(g), for every m
        image = target.act[f[g]]
        return [f2[v] for v in source.act[g]], [image[w] for w in f2]

    return [Violation("action-square", f"f2({mlabel[t]}^{G.elements[g]}) != "
                      f"f2({mlabel[t]})^f1({G.elements[g]})", (mlabel[t], G.elements[g]))
            for g, t in _failures(acts, product(arrows), product(gens))]


def make_gxm_morphism(source: GroupoidXMod, target: GroupoidXMod,
                      group_map, obj_map, fibre_map) -> GXModMorphism:
    report = check_morphism(source, target, group_map, obj_map, fibre_map)
    if report:
        first = report[0]
        raise InvalidMorphism(first.kind, first.witness)
    return GXModMorphism(source, target, list(group_map), list(obj_map), list(fibre_map))


def is_fibration(f: GXModMorphism) -> list[Violation]:
    """Fibration report: star-surjectivity, then fibrewise dim-2 surjectivity.

    f was built by ``make_gxm_morphism`` or ``loop.theta``, which prove
    every morphism law, so only surjectivity is checked.  By equivariance f sends the
    star at a, the arrows (g, -g . a), onto the arrows (f(g), -f(g) . f0(a))
    of the star at f0(a); so at each a, each (h, -h . f0(a)) with h not in
    the image of f is reported, then each element of M' not in the image
    of f2.  With inverses, target-stars need no separate check.
    """
    source, target, tb = f.source, f.target, f.target.base
    H = tb.group
    missed = sorted(set(range(len(H))).difference(f.group_map))
    report = [Violation("star-surjectivity", f"no morphism at {a} maps to {w} at "
                        f"{tb.objects[k]}", (a, w))
              for a, k in zip(source.base.objects, f.obj_map)
              for w in (tb.name(h, tb.act[H._inv[h]][k]) for h in missed)]
    missed = sorted(set(range(len(target.fibre))).difference(f.fibre_map))
    return report + [Violation("dim2-surjectivity", f"fibre element {n} at {tb.objects[k]} "
                               f"is not hit from {a}", (a, n))
                     for a, k in zip(source.base.objects, f.obj_map)
                     for n in (target.fibre.elements[t] for t in missed)]
