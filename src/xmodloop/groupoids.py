"""Finite groupoids and crossed modules over groupoids, all extensional.

Composition is additive and reads left to right: for p: x -> y and
q: y -> z the composite p + q: x -> z is defined exactly when
target(p) = source(q).  Morphisms are stored as full tables, and every
law holds over every composable tuple.  Only this module reads those
tables: ``restrict`` cuts out a sub-crossed-module, such as the source of
``loop.theta`` or the fibre of ``exactseq.fibration_psi``, validated once.

Cost.  Each groupoid indexes its morphisms by source once, at
construction (``out_of``, in input order), and keeps a set of
generators S: closing the identities under x -> x + s reaches every
morphism (``groups._right_generators``).  Laws closed under composition
are proved from S by Light's test: associativity checks
(x + s) + y = x + (s + y) for s in S only, visiting the in(s) * out(s)
morphisms x into and y out of s; the action, homomorphism, CM1 and CM2
laws check |S| (or |S| + 1) generators per element.  Every such proof
goes through ``groups._failures``: only when it fails does the full scan
of every composable tuple run, to report the same first witness.
``check_morphism`` proves its ``composition``, ``dim2-hom`` and
``action-square`` laws so too, and only ``make_gxm_morphism`` builds a
``GXModMorphism``, after they hold: ``is_fibration`` does not recheck
them.  The composition table of ``make_groupoid`` and the action table
of ``make_gxm`` are each checked in one pass over the expected keys
(domain, values and endpoints together), which also builds the rows of
positions the laws read; only a table that fails it runs the ordered
searches that pick the witness in the table's own order.  The loop
groupoid of delta: M -> P has |M||P|^2 morphisms, |M|^2|P|^3 composable
pairs and |M|^3|P|^4 associativity triples in a full scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
)
from .xmod import CrossedModule, make_xmod


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    """A finite groupoid with an explicit partial composition table."""

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    source: dict
    target: dict
    compose: dict  # (u: x->y, v: y->z) -> u + v : x->z
    identities: dict
    inverses: dict
    out_of: dict  # x -> the morphisms with source x, in the order of `morphisms`
    generators: tuple  # closing the identities under x -> x + s reaches every morphism

    def star(self, x: str) -> list[str]:
        """Morphisms whose source is x."""
        if x not in self.objects:
            raise UnknownObject(x)
        return list(self.out_of[x])

    def vertex_morphisms(self, x: str) -> list[str]:
        if x not in self.objects:
            raise UnknownObject(x)
        return [u for u in self.out_of[x] if self.target[u] == x]


_MISSING = object()  # what a table gives for a key it lacks; no label equals it


def make_groupoid(objects, morphisms, source, target, compose, identities) -> FiniteGroupoid:
    """Build a groupoid, checking every law over every composable tuple.

    One pass over the composable pairs reads each composite, checks that
    it is a morphism with the right endpoints and builds the ``after``
    rows of positions that the laws use; a table with as many keys as
    composable pairs that passes it is exactly right.  Only a failing
    table runs the ordered searches that pick its witness: the first
    extra key in ``compose`` order, else the first missing pair, else the
    first bad composite in ``compose`` order.  Associativity is proved by
    Light's test on the generators (see ``groups._right_generators``) and
    scanned in full only when that fails.
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

    def composition_error() -> InvalidGroupoid:
        # The witness is never taken in set order, which would make it
        # depend on the hash seed.
        def pairs():
            return ((u, v) for u in morphisms for v in out_of[target[u]])

        if (len(compose) != sum(len(out_of[target[u]]) for u in morphisms)
                or not all(map(compose.__contains__, pairs()))):
            composable = set(pairs())
            extra = [key for key in compose if key not in composable][:1]
            return InvalidGroupoid("composition-domain", extra[0] if extra else
                                   next(pair for pair in pairs() if pair not in compose))
        return next(InvalidGroupoid("composition-endpoints", (u, v, w))
                    for (u, v), w in compose.items()
                    if w not in pos or source[w] != source[u] or target[w] != target[v])

    # after[i] maps j to the position of u_i + u_j, in out_of order: the laws
    # below compare positions, which hash faster than tuple labels.
    starts = [source[u] for u in morphisms]
    ends = [target[u] for u in morphisms]
    leaving = {x: [pos[v] for v in vs] for x, vs in out_of.items()}
    ends_leaving = {x: [ends[j] for j in js] for x, js in leaving.items()}
    after = []
    pairs_seen = 0
    for i, u in enumerate(morphisms):
        y = ends[i]
        row = [pos.get(compose.get((u, v), _MISSING)) for v in out_of[y]]
        if (None in row or [ends[k] for k in row] != ends_leaving[y]
                or [starts[k] for k in row].count(starts[i]) != len(row)):
            raise composition_error()
        after.append(dict(zip(leaving[y], row)))
        pairs_seen += len(row)
    if len(compose) != pairs_seen:
        raise composition_error()
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
    inverses = {}
    for i, u in enumerate(morphisms):
        e_source, e_target = units[i]
        found = next((j for j, ij in after[i].items()
                      if ij == e_source and after[j].get(i) == e_target), None)
        if found is None:
            raise InvalidGroupoid("inverse", (u,))
        inverses[u] = morphisms[found]
    return FiniteGroupoid(objects, morphisms, dict(source), dict(target),
                          dict(compose), dict(identities), inverses,
                          {x: tuple(us) for x, us in out_of.items()},
                          tuple(morphisms[s] for s in gens))


def _into(base: FiniteGroupoid, y) -> list:
    """The morphisms with target y: in a groupoid, the inverses of those leaving y."""
    return [base.inverses[u] for u in base.out_of[y]]


def vertex_group(groupoid: FiniteGroupoid, x: str) -> FiniteGroup:
    """The group of morphisms x -> x under groupoid composition."""
    vertex = groupoid.vertex_morphisms(x)
    table = [[groupoid.compose[(u, v)] for v in vertex] for u in vertex]
    return make_group(vertex, table, groupoid.identities[x], name=f"vertex@{x}")


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
    The boundary and each u-action are homomorphisms once they respect
    every generator of the fibre and 0.  Action composition holds once it
    holds for v in the base's generators, and then additivity once it
    holds at those generators.  CM1 and CM2 come last, after every premise
    of their proofs (the identity laws, boundary-hom and composition):

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
    morphism_set = set(base.morphisms)
    compose, source, target = base.compose, base.source, base.target

    def composes(m, u, v) -> bool:
        return action[(action[(m, u)], v)] == action[(m, compose[(u, v)])]

    def additive(m, n, u) -> bool:
        group, image = fibres[source[u]], fibres[target[u]]
        return action[(group.add(m, n), u)] == image.add(action[(m, u)], action[(n, u)])

    def cm1(m, u) -> bool:
        return boundary[action[(m, u)]] == compose[(compose[(base.inverses[u], boundary[m])], u)]

    def cm2(m, n) -> bool:
        return fibres[object_of[m]].conj(m, n) == action[(m, boundary[n])]

    for x in base.objects:
        group = fibres[x]
        for m in group:
            value = boundary.get(m)
            if value is None:
                raise InvalidGroupoidXMod("boundary-missing", (m,))
            if value not in morphism_set or source[value] != x or target[value] != x:
                raise InvalidGroupoidXMod("boundary-vertex", (m, value))
        for m, n in _additive_failures(group, boundary, lambda p, q: compose[(p, q)]):
            raise InvalidGroupoidXMod("boundary-hom", (m, n))

    def action_error() -> InvalidGroupoidXMod:
        # as composition_error in make_groupoid
        def keys():
            return ((m, u) for u in base.morphisms for m in fibres[source[u]])

        if (len(action) != sum(len(fibres[source[u]]) for u in base.morphisms)
                or not all(map(action.__contains__, keys()))):
            expected = set(keys())
            extra = [key for key in action if key not in expected][:1]
            return InvalidGroupoidXMod("action-domain", extra[0] if extra else
                                       next(key for key in keys() if key not in action))
        return next(InvalidGroupoidXMod("action-codomain", (m, u, value))
                    for (m, u), value in action.items() if value not in fibres[target[u]])

    # one pass over the expected keys; only a failing table runs action_error
    keys_seen = 0
    for u in base.morphisms:
        values = [action.get((m, u), _MISSING) for m in fibres[source[u]]]
        if not all(map(fibres[target[u]].__contains__, values)):
            raise action_error()
        keys_seen += len(values)
    if len(action) != keys_seen:
        raise action_error()
    for x in base.objects:
        for m in fibres[x]:
            if action[(m, base.identities[x])] != m:
                raise InvalidAction("identity", (m, x))
    scan = ((m, u, v) for u in base.morphisms for v in base.out_of[target[u]]
            for m in fibres[source[u]])
    proof = ((m, u, v) for v in base.generators for u in _into(base, source[v])
             for m in fibres[source[u]])
    for witness in _failures(composes, scan, proof):
        raise InvalidAction("composition", witness)
    scan = ((m, n, u) for u in base.morphisms for m, n in product(fibres[source[u]], repeat=2))
    proof = ((m, n, s) for s in base.generators for m in fibres[source[s]]
             for n in (fibres[source[s]].identity, *fibres[source[s]].generators))
    for witness in _failures(additive, scan, proof):
        raise InvalidAction("additivity", witness)
    scan = ((m, u) for u in base.morphisms for m in fibres[source[u]])
    proof = ((m, s) for s in base.generators for m in fibres[source[s]])
    for m, u in _failures(cm1, scan, proof):
        raise CM1Violation(m, u)
    scan = ((m, n) for x in base.objects for m, n in product(fibres[x], repeat=2))
    proof = ((m, s) for x in base.objects for m, s in product(fibres[x], fibres[x].generators))
    for m, n in _failures(cm2, scan, proof):
        raise CM2Violation(m, n)
    return GroupoidXMod(base, dict(fibres), dict(boundary), dict(action), object_of)


def pi0(gxm: GroupoidXMod) -> list[list[str]]:
    """Connected components of the base groupoid, least representative first.

    The component of x is the set of targets of the morphisms leaving x:
    a validated groupoid is closed under composites and inverses, so
    every object joined to x by a path is joined to it by one morphism.
    One pass over each star suffices.
    """
    base = gxm.base
    return _partition(base.objects, lambda x: {base.target[u] for u in base.out_of[x]})


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


def restrict(gxm: GroupoidXMod, morphisms, fibres: dict) -> GroupoidXMod:
    """The piece of gxm on the given morphisms, with fibres[x] at each object x.

    Each fibres[x] is a subgroup of gxm's fibre at x; orders are kept as
    given.  ``compose`` is sliced along the morphisms out of each kept
    target, not the whole table; ``make_groupoid`` and ``make_gxm`` then
    check each law of the piece once, so a piece that is not closed raises.
    """
    base = gxm.base
    morphisms = tuple(morphisms)
    kept = set(morphisms)
    source = {u: base.source.get(u) for u in morphisms}
    target = {u: base.target.get(u) for u in morphisms}
    compose = {(u, v): base.compose[(u, v)] for u in morphisms
               for v in base.out_of.get(target[u], ()) if v in kept}
    piece = make_groupoid(tuple(fibres), morphisms, source, target, compose,
                          {x: base.identities.get(x) for x in fibres})
    boundary = {m: gxm.boundary.get(m) for group in fibres.values() for m in group}
    action = {(m, u): gxm.action.get((m, u)) for u in morphisms for m in fibres[source[u]]}
    return make_gxm(piece, fibres, boundary, action)


def as_groupoid_xmod(x: CrossedModule) -> GroupoidXMod:
    """A crossed module of groups, viewed over the one-object groupoid."""
    obj = "*"
    elements = x.P.elements
    compose = {(u, v): elements[k] for u, row in zip(elements, x.P._table)
               for v, k in zip(elements, row)}
    base = make_groupoid((obj,), tuple(x.P.elements),
                         {u: obj for u in x.P}, {u: obj for u in x.P},
                         compose, {obj: x.P.identity})
    boundary = {m: x.delta(m) for m in x.M}
    action = {(m, p): x.act(m, p) for m in x.M for p in x.P}
    return make_gxm(base, {obj: x.M}, boundary, action)


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
    tgt_morphisms = set(tgt_base.morphisms)
    for x in src_base.objects:
        if obj_map.get(x) not in tgt_objects:
            report.append(Violation("object-map", f"no valid image for object {x}", (x,)))
    if report:
        return report
    for u in src_base.morphisms:
        fu = mor_map.get(u)
        if fu not in tgt_morphisms:
            report.append(Violation("morphism-map", f"no valid image for {u}", (u,)))
            continue
        if (tgt_base.source[fu] != obj_map[src_base.source[u]]
                or tgt_base.target[fu] != obj_map[src_base.target[u]]):
            report.append(Violation("endpoints", f"image of {u} has wrong endpoints", (u,)))
    if report:
        return report

    def preserves(u, v) -> bool:
        return mor_map[src_base.compose[(u, v)]] == tgt_base.compose[(mor_map[u], mor_map[v])]

    identities_kept = True
    for x in src_base.objects:
        if mor_map[src_base.identities[x]] != tgt_base.identities[obj_map[x]]:
            identities_kept = False
            report.append(Violation("identity", f"identity at {x} is not preserved", (x,)))
    scan = ((u, v) for u in src_base.morphisms for v in src_base.out_of[src_base.target[u]])
    proof = ((u, v) for v in src_base.generators for u in _into(src_base, src_base.source[v]))
    report += [Violation("composition", f"f({u} + {v}) != f({u}) + f({v})", (u, v))
               for u, v in _failures(preserves, scan, proof if identities_kept else None)]
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

    scan = ((m, u) for u in src_base.morphisms for m in source.fibres[src_base.source[u]])
    proof = ((m, s) for s in src_base.generators for m in source.fibres[src_base.source[s]])
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
