"""Finite groupoids and crossed modules over groupoids, all extensional.

Composition is additive and reads left to right: for p: x -> y and
q: y -> z the composite p + q: x -> z is defined exactly when
target(p) = source(q).  Every groupoid the library builds is an action
groupoid, and every law holds over every composable tuple.

Representation.  A ``FiniteGroupoid`` is a validated ``FiniteGroup`` G,
its objects X and an integer table of |G| x |X| entries: ``act[i][k]``
is the position of g_i . x_k.  The morphism at position i |X| + k is the
arrow (g_i, x_k): g_i . x_k -> x_k.  Source, target, composite, identity
and inverse are lookups in G's tables and in ``act``:

    (g, y) + (h, z) = (g + h, z)  when h . z = y,
    identity(x) = (0, x),  -(g, x) = (-g, g . x).

The identity, inverse and associativity laws follow from G's group laws.
What is left is the action law (h + g) . x = h . (g . x), which makes
each composite start where its first factor does, and 0 . x = x.
``action_groupoid`` checks 0 . x = x at every object and proves the
action law from G's generators through ``groups._failures``; only when
that proof fails does it scan every (h, g, x).  So the verdict covers
every tuple.  ``restrict`` cuts out a subgroup of G together with a set
of objects it leaves invariant, such as the source of ``loop.theta`` or
the fibre of ``exactseq.fibration_psi``.  ``make_groupoid`` validates a
groupoid written out as a full composition table; the library never
builds one, and tests use it as an oracle.

Cost.  The action law costs |S_G| |G| rows of |X| entries, for G's
generators S_G.  Closing the identities under x -> x + s for the arrows
s = (t, y), t in S_G, reaches every morphism, so these |S_G| |X| arrows
are the groupoid's ``generators``.  ``make_gxm`` and ``check_morphism``
prove each law closed under composition from them, through
``groups._failures``: action composition and the ``composition`` law
of a morphism at the |G| arrows into each generator (``before``),
additivity at every pair of fibre elements and CM1 and
``action-square`` at every fibre element, for each generator; CM2,
``boundary-hom`` and ``dim2-hom`` at each fibre's generators and 0.
``make_gxm`` checks its action table in one pass over the expected
keys, which also builds the rows of fibre positions that the
composition and additivity laws compare; only a table that fails it
runs the ordered searches that pick the witness in the table's own
order.  Only ``make_gxm_morphism`` builds a ``GXModMorphism``, after the
laws hold: ``is_fibration`` does not recheck them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import (
    CM1Violation,
    CM2Violation,
    InvalidAction,
    InvalidGroupoid,
    InvalidGroupoidXMod,
    InvalidMorphism,
    UnknownElement,
    UnknownObject,
    Violation,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    _additive_failures,
    _failures,
    _partition,
    _right_generators,
    group_action,
    homomorphism,
    image,
    kernel,
    make_group,
    quotient,
    subgroup,
)
from .xmod import CrossedModule, make_xmod


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    """The action groupoid of a finite group on a finite set of objects.

    The morphism at position i |objects| + k is the arrow (g_i, x_k) from
    g_i . x_k to x_k, where act[i][k] is the position of g_i . x_k.
    Build one with ``action_groupoid``, which checks every law.
    """

    group: FiniteGroup
    objects: tuple
    morphisms: tuple
    act: list  # act[i][k] = position of g_i . x_k in objects
    generators: tuple  # closing the identities under x -> x + s reaches every morphism
    _arrows: dict = field(repr=False)  # morphism (g_i, x_k) -> (i, k)
    _object_position: dict = field(repr=False)  # object -> position

    def __contains__(self, u) -> bool:
        return u in self._arrows

    def _arrow(self, u) -> tuple[int, int]:
        """(i, k) for the morphism u = (g_i, x_k)."""
        arrow = self._arrows.get(u)
        if arrow is None:
            raise UnknownElement(u)
        return arrow

    def _object(self, x) -> int:
        k = self._object_position.get(x)
        if k is None:
            raise UnknownObject(x)
        return k

    def source(self, u):
        i, k = self._arrow(u)
        return self.objects[self.act[i][k]]

    def target(self, u):
        return self.objects[self._arrow(u)[1]]

    def compose(self, u, v):
        """u + v, or None when target(u) != source(v)."""
        arrows = self._arrows
        if u not in arrows or v not in arrows:
            raise UnknownElement(v if u in arrows else u)
        (i, k), (j, z) = arrows[u], arrows[v]
        if self.act[j][z] != k:
            return None
        return self.morphisms[self.group._table[i][j] * len(self.objects) + z]

    def identity(self, x):
        e = self.group._index[self.group.identity]
        return self.morphisms[e * len(self.objects) + self._object(x)]

    def inverse(self, u):
        i, k = self._arrow(u)
        return self.morphisms[self.group._inv[i] * len(self.objects) + self.act[i][k]]

    def star(self, x) -> list:
        """The morphisms with source x, in morphism order: the inverses of those into x."""
        k, n, inv = self._object(x), len(self.objects), self.group._inv
        return [self.morphisms[p] for p in sorted(inv[i] * n + row[k]
                                                  for i, row in enumerate(self.act))]

    def before(self, v) -> list:
        """The pairs (u, u + v) for every u with target source(v), in morphism order.

        For v = (h, z) these are u = (g, h . z) and u + v = (g + h, z), g in G.
        """
        j, z = self._arrow(v)
        n, y, ms = len(self.objects), self.act[j][z], self.morphisms
        return [(ms[i * n + y], ms[row[j] * n + z]) for i, row in enumerate(self.group._table)]

    def stabiliser(self, x) -> list:
        """The elements g of the group with g . x = x, in group order."""
        k = self._object(x)
        return [g for g, row in zip(self.group.elements, self.act) if row[k] == k]

    def vertex_morphisms(self, x) -> list:
        """The morphisms x -> x, in morphism order: (g, x) for g in the stabiliser of x."""
        k, n = self._object(x), len(self.objects)
        return [self.morphisms[i * n + k] for i, row in enumerate(self.act) if row[k] == k]


def action_groupoid(group: FiniteGroup, objects, act, morphisms) -> FiniteGroupoid:
    """The action groupoid of a validated group on objects, checking every law.

    ``act[i][k]`` is the position in ``objects`` of g_i . x_k, and
    ``morphisms`` labels the arrows (g_i, x_k) at positions i |objects| + k.
    Each entry of ``act`` must be an object (law ``source``) and the
    identity must fix every object (``identity-missing``).  The action law
    (h + g) . x = h . (g . x) holds for h = 0, and for h1 + h2 once it
    holds for h1 and h2 (G is associative); so it is proved for h in G's
    generators and scanned over every (h, g, x), in that order, only
    when that proof fails.  A failure at (h, g, x) is the composite w of
    u = (h, g . x) and v = (g, x) starting elsewhere than u:
    ``composition-endpoints`` with witness (u, v, w), as in
    ``make_groupoid``.
    """
    objects = tuple(objects)
    morphisms = tuple(morphisms)
    n, nx = len(group), len(objects)
    if len(set(objects)) != nx:
        raise InvalidGroupoid("objects-distinct", (objects,))
    if len(morphisms) != n * nx or len(set(morphisms)) != n * nx:
        raise InvalidGroupoid("morphisms-distinct", (morphisms,))
    act = [list(row) for row in act]
    if len(act) != n or any(len(row) != nx for row in act):
        raise InvalidGroupoid("action-shape", (len(act), n, nx))
    points = set(range(nx))
    for i, row in enumerate(act):
        if not points.issuperset(row):
            j = next(j for j, s in enumerate(row) if s not in points)
            raise InvalidGroupoid("source", (morphisms[i * nx + j],))
    table = group._table
    e = group._index[group.identity]
    for j, s in enumerate(act[e]):
        if s != j:
            raise InvalidGroupoid("identity-missing", (objects[j],))

    def acts(h: int, g: int) -> bool:
        """(h + g) . x = h . (g . x) for every x, one whole row at a time."""
        row_h = act[h]
        return [row_h[s] for s in act[g]] == act[table[h][g]]

    gens = [group._index[s] for s in group.generators]
    for h, g in _failures(acts, product(range(n), range(n)), product(gens, range(n))):
        row_h, row_hg = act[h], act[table[h][g]]
        z = next(z for z, y in enumerate(act[g]) if row_h[y] != row_hg[z])
        raise InvalidGroupoid("composition-endpoints", (morphisms[h * nx + act[g][z]],
                              morphisms[g * nx + z], morphisms[table[h][g] * nx + z]))
    return FiniteGroupoid(group, objects, morphisms, act,
                          tuple(morphisms[s * nx + z] for s in gens for z in range(nx)),
                          dict(zip(morphisms, product(range(n), range(nx)))),
                          {x: i for i, x in enumerate(objects)})


_MISSING = object()  # what a table gives for a key it lacks; no label equals it


def make_groupoid(objects, morphisms, source, target, compose, identities) -> None:
    """Validate a groupoid written out as a full composition table.

    Raises ``InvalidGroupoid`` at the first broken law; returns nothing.
    The library builds action groupoids only; this checks written-out
    tables, such as an action groupoid's own, against every law.

    A broken composition table is reported at the first extra key in
    ``compose`` order, else at the first missing composable pair, else at
    the first composite in ``compose`` order that is not a morphism with
    the right endpoints; never in set order, which would make the witness
    depend on the hash seed.  Associativity is proved by Light's test on
    the generators (see ``groups._right_generators``) and scanned in full
    only when that fails.
    """
    objects = tuple(objects)
    morphisms = tuple(morphisms)
    if len(set(objects)) != len(objects):
        raise InvalidGroupoid("objects-distinct", (objects,))
    if len(set(morphisms)) != len(morphisms):
        raise InvalidGroupoid("morphisms-distinct", (morphisms,))
    object_set = set(objects)
    out_of: dict[str, list[str]] = {x: [] for x in objects}
    for u in morphisms:
        x = source.get(u)
        if x not in object_set:
            raise InvalidGroupoid("source", (u,))
        if target.get(u) not in object_set:
            raise InvalidGroupoid("target", (u,))
        out_of[x].append(u)
    pos = {u: i for i, u in enumerate(morphisms)}
    for x in objects:
        e = identities.get(x)
        if e not in pos or source[e] != x or target[e] != x:
            raise InvalidGroupoid("identity-missing", (x,))
    pairs = [(u, v) for u in morphisms for v in out_of[target[u]]]
    composable = set(pairs)
    for key in compose:
        if key not in composable:
            raise InvalidGroupoid("composition-domain", key)
    for pair in pairs:
        if pair not in compose:
            raise InvalidGroupoid("composition-domain", pair)
    for (u, v), w in compose.items():
        if w not in pos or source[w] != source[u] or target[w] != target[v]:
            raise InvalidGroupoid("composition-endpoints", (u, v, w))
    # after[i] maps j to the position of u_i + u_j, in out_of order: the laws
    # below compare positions, which hash faster than tuple labels.
    after = [{pos[v]: pos[compose[(u, v)]] for v in out_of[target[u]]} for u in morphisms]
    units = [(pos[identities[source[u]]], pos[identities[target[u]]]) for u in morphisms]
    for i, u in enumerate(morphisms):
        e_source, e_target = units[i]
        if after[e_source][i] != i or after[i][e_target] != i:
            raise InvalidGroupoid("identity-law", (u,))
    gens = _right_generators(range(len(morphisms)), [pos[identities[x]] for x in objects],
                             lambda i, j: after[i].get(j))
    into: dict = {x: [] for x in objects}  # x -> positions of the morphisms with target x
    for i, u in enumerate(morphisms):
        into[target[u]].append(i)

    def associates(i: int, j: int) -> bool:
        """(i + j) + k = i + (j + k) for every k out of j, one whole row at a time."""
        j_then = after[j]
        return (list(map(after[after[i][j]].__getitem__, j_then))
                == list(map(after[i].__getitem__, j_then.values())))

    # Light's test: the pairs (i, s) for the generators s prove every pair
    scan = ((i, j) for i in range(len(morphisms)) for j in after[i])
    proof = ((i, s) for s in gens for i in into[source[morphisms[s]]])
    for i, j in _failures(associates, scan, proof):
        ij_then, i_then = after[after[i][j]], after[i]
        k = next(k for k, jk in after[j].items() if ij_then[k] != i_then[jk])
        raise InvalidGroupoid("associativity", (morphisms[i], morphisms[j], morphisms[k]))
    for i, u in enumerate(morphisms):
        e_source, e_target = units[i]
        if not any(ij == e_source and after[j].get(i) == e_target for j, ij in after[i].items()):
            raise InvalidGroupoid("inverse", (u,))


def _composable(base: FiniteGroupoid):
    """Every composable (u, v, u + v): u in morphism order, then v in star order."""
    stars = {x: base.star(x) for x in base.objects}
    for u in base.morphisms:
        for v in stars[base.target(u)]:
            yield u, v, base.compose(u, v)


def _composites_of_generators(base: FiniteGroupoid):
    """(u, s, u + s) for each generator s and each u ending where s starts."""
    return ((u, s, w) for s in base.generators for u, w in base.before(s))


def vertex_group(groupoid: FiniteGroupoid, x: str) -> FiniteGroup:
    """The group of morphisms x -> x under groupoid composition: the stabiliser of x."""
    vertex = groupoid.vertex_morphisms(x)
    table = [[groupoid.compose(u, v) for v in vertex] for u in vertex]
    return make_group(vertex, table, groupoid.identity(x), name=f"vertex@{x}")


@dataclass(frozen=True, eq=False)
class GroupoidXMod:
    """A crossed module over a groupoid: per-object fibres, boundary, action.

    Fibre element labels are globally distinct, so the boundary and the
    action can be stored as flat tables.
    """

    base: FiniteGroupoid
    fibres: dict
    boundary: dict
    action: dict  # (m, u) -> element of the fibre at target(u), m in the fibre at source(u)
    object_of: dict

    def fibre_at(self, x: str) -> FiniteGroup:
        group = self.fibres.get(x)
        if group is None:
            raise UnknownObject(x)
        return group

    def all_fibre_elements(self) -> list[str]:
        return [m for x in self.base.objects for m in self.fibres[x]]


def make_gxm(base: FiniteGroupoid, fibres: dict, boundary: dict, action: dict) -> GroupoidXMod:
    """Assemble a crossed module over a groupoid, checking every law.

    Each law closed under composition is proved from generators (see
    ``groups._right_generators``) and scanned in full, to raise the same
    first witness as before, only when that proof fails (``_failures``).
    The boundary is a homomorphism once it respects every generator of
    the fibre and 0.  Action composition holds once it holds for v in the
    base's generators, and then additivity once each generator acts
    additively; both compare whole rows of fibre positions.  CM1 and CM2
    come last, after every premise of their proofs (the identity laws,
    boundary-hom and composition):

    - CM1 holds at identities, and at u + s if it holds at u and s:
      d(m^(u+s)) = -s + d(m^u) + s = -s - u + d(m) + u + s = -(u+s) + d(m) + (u+s).
    - CM2 holds for n = 0, and for n + s if it holds for n and s:
      m^d(n+s) = (m^d(n))^d(s) = -s + (-n + m + n) + s = -(n+s) + m + (n+s).
    So s runs over the base's generators for CM1 and each fibre's for CM2.
    """
    if set(fibres) != set(base.objects):
        raise InvalidGroupoidXMod("fibre-per-object", (tuple(fibres),))
    object_of: dict[str, str] = {}
    for x in base.objects:
        for m in fibres[x]:
            if m in object_of:
                raise InvalidGroupoidXMod("fibre-name-clash", (m, object_of[m], x))
            object_of[m] = x
    source, target, compose = base.source, base.target, base.compose

    def cm1(m, u) -> bool:
        return boundary[action[(m, u)]] == compose(compose(base.inverse(u), boundary[m]), u)

    def cm2(m, n) -> bool:
        return fibres[object_of[m]].conj(m, n) == action[(m, boundary[n])]

    for x in base.objects:
        group = fibres[x]
        for m in group:
            value = boundary.get(m)
            if value is None:
                raise InvalidGroupoidXMod("boundary-missing", (m,))
            if value not in base or source(value) != x or target(value) != x:
                raise InvalidGroupoidXMod("boundary-vertex", (m, value))
        for m, n in _additive_failures(group, boundary, compose):
            raise InvalidGroupoidXMod("boundary-hom", (m, n))

    def action_error() -> InvalidGroupoidXMod:
        # The witness is never taken in set order, which would make it
        # depend on the hash seed.
        def keys():
            return ((m, u) for u in base.morphisms for m in fibres[source(u)])

        if (len(action) != sum(len(fibres[source(u)]) for u in base.morphisms)
                or not all(map(action.__contains__, keys()))):
            expected = set(keys())
            extra = [key for key in action if key not in expected][:1]
            return InvalidGroupoidXMod("action-domain", extra[0] if extra else
                                       next(key for key in keys() if key not in action))
        return next(InvalidGroupoidXMod("action-codomain", (m, u, value))
                    for (m, u), value in action.items() if value not in fibres[target(u)])

    # One pass over the expected keys; only a failing table runs action_error.
    # rows[u][i] is the position of m_i^u in the fibre at target(u), for the
    # i-th element m_i of the fibre at source(u): the action laws below
    # compare whole rows of positions.
    rows = {}
    for u in base.morphisms:
        index = fibres[target(u)]._index
        row = [index.get(action.get((m, u), _MISSING)) for m in fibres[source(u)]]
        if None in row:
            raise action_error()
        rows[u] = row
    if len(action) != sum(map(len, rows.values())):
        raise action_error()
    for x in base.objects:
        row = rows[base.identity(x)]
        for i in range(len(row)):
            if row[i] != i:
                raise InvalidAction("identity", (fibres[x].elements[i], x))

    def composes(u, v, w) -> bool:
        """(m^u)^v = m^w for every m, where w = u + v."""
        row_v = rows[v]
        return [row_v[i] for i in rows[u]] == rows[w]

    for u, v, w in _failures(composes, _composable(base), _composites_of_generators(base)):
        row_v, row_uv = rows[v], rows[w]
        i = next(i for i, j in enumerate(rows[u]) if row_v[j] != row_uv[i])
        raise InvalidAction("composition", (fibres[source(u)].elements[i], u, v))

    def additive(u, i) -> bool:
        """(m_i + n)^u = m_i^u + n^u for every n."""
        row = rows[u]
        image = fibres[target(u)]._table[row[i]]
        return [row[k] for k in fibres[source(u)]._table[i]] == [image[j] for j in row]

    # given composition, additivity at each generator s gives it at u + s
    scan = ((u, i) for u in base.morphisms for i in range(len(rows[u])))
    proof = ((s, i) for s in base.generators for i in range(len(rows[s])))
    for u, i in _failures(additive, scan, proof):
        row, group = rows[u], fibres[source(u)]
        image = fibres[target(u)]._table[row[i]]
        j = next(j for j, k in enumerate(group._table[i]) if row[k] != image[row[j]])
        raise InvalidAction("additivity", (group.elements[i], group.elements[j], u))
    scan = ((m, u) for u in base.morphisms for m in fibres[source(u)])
    proof = ((m, s) for s in base.generators for m in fibres[source(s)])
    for m, u in _failures(cm1, scan, proof):
        raise CM1Violation(m, u)
    scan = ((m, n) for x in base.objects for m, n in product(fibres[x], repeat=2))
    proof = ((m, s) for x in base.objects for m, s in product(fibres[x], fibres[x].generators))
    for m, n in _failures(cm2, scan, proof):
        raise CM2Violation(m, n)
    return GroupoidXMod(base, dict(fibres), dict(boundary), dict(action), object_of)


def pi0(gxm: GroupoidXMod) -> list[list[str]]:
    """Connected components of the base groupoid, least representative first.

    The component of x is the set of targets of the morphisms leaving x,
    its orbit: a validated groupoid is closed under composites and
    inverses, so every object joined to x by a path is joined to it by
    one morphism.  One pass over each star suffices.
    """
    base = gxm.base
    return _partition(base.objects, lambda x: set(map(base.target, base.star(x))))


def _boundary_hom(gxm: GroupoidXMod, x: str) -> Homomorphism:
    fibre = gxm.fibre_at(x)
    vertex = vertex_group(gxm.base, x)
    return homomorphism(fibre, vertex, {m: gxm.boundary[m] for m in fibre})


def pi1_at(gxm: GroupoidXMod, x: str) -> FiniteGroup:
    """Cokernel of the boundary at x."""
    delta = _boundary_hom(gxm, x)
    quo, _ = quotient(delta.target, image(delta), name=f"pi1@{x}")
    return quo


def pi2_at(gxm: GroupoidXMod, x: str) -> FiniteGroup:
    """Kernel of the boundary at x."""
    delta = _boundary_hom(gxm, x)
    return kernel(delta).as_group(name=f"pi2@{x}")


def restrict_to_object(gxm: GroupoidXMod, x: str) -> CrossedModule:
    """The crossed module of groups sitting over a single object."""
    delta = _boundary_hom(gxm, x)
    fibre, vertex = delta.source, delta.target
    table = {(m, u): gxm.action[(m, u)] for m in fibre for u in vertex}
    action = group_action(vertex, fibre, table)
    return make_xmod(fibre, vertex, delta, action, name=f"restriction@{x}")


def restrict(gxm: GroupoidXMod, elements, fibres: dict) -> GroupoidXMod:
    """The piece of gxm on a subgroup of its base group and the objects of fibres.

    ``elements`` must form a subgroup H of ``gxm.base.group`` (``subgroup``
    checks it, and keeps H in the group's order), and H must map the
    objects of ``fibres`` into themselves (law ``objects-invariant``).
    The piece is the action groupoid of H on those objects, in the order
    of ``fibres``, with fibres[x], a subgroup of gxm's fibre at x, over
    each x.  Its morphisms keep their labels, in gxm's order.  The boundary
    and the action are sliced per kept morphism and fibre element, and
    ``make_gxm`` checks each law of the piece once.
    """
    base = gxm.base
    group = subgroup(base.group, elements).as_group()
    objects = tuple(fibres)
    kept = [base._object(x) for x in objects]
    position = {k: r for r, k in enumerate(kept)}
    n, parent = len(base.objects), [base.group.index(g) for g in group]
    act = []
    for g, i in zip(group, parent):
        moved = [position.get(base.act[i][k]) for k in kept]
        if None in moved:
            raise InvalidGroupoid("objects-invariant", (g, objects[moved.index(None)]))
        act.append(moved)
    morphisms = [base.morphisms[i * n + k] for i in parent for k in kept]
    piece = action_groupoid(group, objects, act, morphisms)
    boundary = {m: gxm.boundary.get(m) for fibre in fibres.values() for m in fibre}
    action = {(m, u): gxm.action.get((m, u)) for u in morphisms for m in fibres[piece.source(u)]}
    return make_gxm(piece, fibres, boundary, action)


def as_groupoid_xmod(x: CrossedModule) -> GroupoidXMod:
    """A crossed module of groups, viewed over the one-object groupoid of P.

    The base is P acting on one point, the boundary is delta and the
    action is x's.  Each law of the result is then a law of x, which
    ``make_xmod`` validated, so only the base's own check runs.
    """
    obj = "*"
    base = action_groupoid(x.P, (obj,), [[0] for _ in x.P], x.P.elements)
    boundary = {m: x.delta(m) for m in x.M}
    action = {(m, p): x.act(m, p) for m in x.M for p in x.P}
    return GroupoidXMod(base, {obj: x.M}, boundary, action, {m: obj for m in x.M})


@dataclass(frozen=True, eq=False)
class GXModMorphism:
    """A structure-preserving map of crossed modules over groupoids."""

    source: GroupoidXMod
    target: GroupoidXMod
    obj_map: dict
    mor_map: dict
    dim2_map: dict

    def is_isomorphism(self) -> bool:
        def bijective(mapping, domain, codomain):
            values = [mapping[d] for d in domain]
            return len(set(values)) == len(domain) and set(values) == set(codomain)

        return (bijective(self.obj_map, self.source.base.objects, self.target.base.objects)
                and bijective(self.mor_map, self.source.base.morphisms,
                              self.target.base.morphisms)
                and bijective(self.dim2_map, self.source.all_fibre_elements(),
                              self.target.all_fibre_elements()))


def check_morphism(source: GroupoidXMod, target: GroupoidXMod,
                   obj_map: dict, mor_map: dict, dim2_map: dict) -> list[Violation]:
    """Report-valued check of the morphism laws.

    With identities preserved, ``composition`` is proved for v in the
    source's generators, and ``dim2-hom`` for n in each fibre's generators
    and 0 (see ``groups._right_generators``); a failed certificate, or a
    broken identity, runs the full scan, which reports every failure.
    ``action-square`` runs only on an empty report, so identities and
    composition are kept and both actions are validated; it holds at
    identities, and at u + s if it holds at u and s:
    f2(m^(u+s)) = f2(m^u)^f1(s) = (f2(m)^f1(u))^f1(s) = f2(m)^f1(u+s).
    So it is proved for s in the source's generators and scanned over
    every (m, u) only when that proof fails.
    """
    report: list[Violation] = []
    src_base, tgt_base = source.base, target.base
    tgt_objects = set(tgt_base.objects)
    for x in src_base.objects:
        if obj_map.get(x) not in tgt_objects:
            report.append(Violation("object-map", f"no valid image for object {x}", (x,)))
    if report:
        return report
    for u in src_base.morphisms:
        fu = mor_map.get(u)
        if fu not in tgt_base:
            report.append(Violation("morphism-map", f"no valid image for {u}", (u,)))
            continue
        if (tgt_base.source(fu) != obj_map[src_base.source(u)]
                or tgt_base.target(fu) != obj_map[src_base.target(u)]):
            report.append(Violation("endpoints", f"image of {u} has wrong endpoints", (u,)))
    if report:
        return report

    def preserves(u, v, w) -> bool:
        return mor_map[w] == tgt_base.compose(mor_map[u], mor_map[v])

    identities_kept = True
    for x in src_base.objects:
        if mor_map[src_base.identity(x)] != tgt_base.identity(obj_map[x]):
            identities_kept = False
            report.append(Violation("identity", f"identity at {x} is not preserved", (x,)))
    proof = _composites_of_generators(src_base) if identities_kept else None
    report += [Violation("composition", f"f({u} + {v}) != f({u}) + f({v})", (u, v))
               for u, v, _ in _failures(preserves, _composable(src_base), proof)]
    for x in src_base.objects:
        fibre = source.fibres[x]
        target_fibre = target.fibres[obj_map[x]]
        unmapped = [m for m in fibre if dim2_map.get(m) not in target_fibre]
        report += [Violation("dim2-map", f"no valid image for {m}", (m,)) for m in unmapped]
        if unmapped:
            continue
        report += [Violation("dim2-hom", f"f2({m} + {n}) != f2({m}) + f2({n})", (m, n))
                   for m, n in _additive_failures(fibre, dim2_map, target_fibre.add)]
        for m in fibre:
            if mor_map[source.boundary[m]] != target.boundary[dim2_map[m]]:
                report.append(Violation("boundary-square",
                                        f"f1(delta {m}) != delta(f2 {m})", (m,)))
    if report:
        return report

    def squares(m, u) -> bool:
        return dim2_map[source.action[(m, u)]] == target.action[(dim2_map[m], mor_map[u])]

    scan = ((m, u) for u in src_base.morphisms for m in source.fibres[src_base.source(u)])
    proof = ((m, s) for s in src_base.generators for m in source.fibres[src_base.source(s)])
    return [Violation("action-square", f"f2({m}^{u}) != f2({m})^f1({u})", (m, u))
            for m, u in _failures(squares, scan, proof)]


def make_gxm_morphism(source: GroupoidXMod, target: GroupoidXMod,
                      obj_map: dict, mor_map: dict, dim2_map: dict) -> GXModMorphism:
    report = check_morphism(source, target, obj_map, mor_map, dim2_map)
    if report:
        first = report[0]
        raise InvalidMorphism(first.kind, first.witness)
    return GXModMorphism(source, target, dict(obj_map), dict(mor_map), dict(dim2_map))


def is_fibration(f: GXModMorphism) -> list[Violation]:
    """Fibration report: star-surjectivity, then fibrewise dim-2 surjectivity.

    f was built by ``make_gxm_morphism``, which checked every morphism
    law, so only surjectivity is checked here.  The star at an object
    collects the morphisms with that source; with groupoid inverses,
    surjectivity on target-stars is equivalent and is not checked
    separately.
    """
    report: list[Violation] = []
    src_base, tgt_base = f.source.base, f.target.base
    for a in src_base.objects:
        down = f.obj_map[a]
        hit = {f.mor_map[u] for u in src_base.star(a)}
        for w in tgt_base.star(down):
            if w not in hit:
                report.append(Violation(
                    "star-surjectivity",
                    f"no morphism at {a} maps to {w} at {down}", (a, w)))
    for a in src_base.objects:
        down = f.obj_map[a]
        hit = {f.dim2_map[m] for m in f.source.fibres[a]}
        for n in f.target.fibres[down]:
            if n not in hit:
                report.append(Violation(
                    "dim2-surjectivity",
                    f"fibre element {n} at {down} is not hit from {a}", (a, n)))
    return report
