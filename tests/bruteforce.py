"""Independent brute-force oracles.

These deliberately take the dumbest route available: full filters over
raw products, no solved equations, no shared code with the library
internals beyond the group arithmetic itself.  Tests compare the library
against these and against frozen regression values.

``make_groupoid`` is the exception: it validates a groupoid written out
as a full composition table, and proves associativity by Light's test
on the library's generators (``groups._right_generators``), gating a
scan over single elements (``_failures`` below).
So are ``make_written_gxm`` and ``check_written_morphism``, the validators
of crossed modules over groupoids written out by object and by arrow
(``written_out_gxm``), which the library used until it stored one fibre
group acted on through G: they prove their laws the same way.  They read
a groupoid's source, target, composite, identity and inverse by arrow
name from ``written_out``, which rebuilds them from G's table and the
action table, since the library keeps arrows as positions only.
"""

from functools import cached_property
from itertools import product
from types import SimpleNamespace

from xmodloop.errors import (
    CM1Violation,
    CM2Violation,
    CodomainViolation,
    InvalidAction,
    InvalidGroupoid,
    InvalidGroupoidXMod,
    InvalidHomomorphism,
    UnknownElement,
    Violation,
)
from xmodloop.groups import FiniteGroup, _right_generators, make_group


def _failures(law, scan, proof=None):
    """The tuples of ``scan`` at which ``law`` fails, in scan order, as an iterator.

    When ``law`` holds at every tuple of ``proof`` (a generator argument,
    see ``groups._right_generators``), nothing is scanned and nothing
    returned; ``None`` means a premise of that argument failed.
    """
    if proof is not None and all(law(*t) for t in proof):
        return iter(())
    return (t for t in scan if not law(*t))


def generator_labels(group):
    """The library's generators of a group, which it holds as positions, read as labels."""
    return [group.elements[s] for s in group.generators]


def label_map(f):
    """A validated homomorphism written in labels, x -> f(x), in source order."""
    return {x: f(x) for x in f.source}


def label_action(action):
    """A validated action written in labels, (m, p) -> m^p, space-major."""
    return {(m, p): action.act(m, p) for m in action.space for p in action.actor}


def brute_k2(x):
    """All (m, c, a, b) with delta(m) = -c + a + b, as a set of tuples."""
    P, M = x.P, x.M
    found = set()
    for m, c, a, b in product(M, P, P, P):
        if x.delta(m) == P.add(P.add(P.neg(c), a), b):
            found.add((m, c, a, b))
    return found


def brute_k3(x):
    """All edge/face tuples (a, b, c, d, e, f, m0, m1, m2, m3).

    Filters every 6-tuple of edges against the four boundary equations
    (via delta-fibres) and then the closure rule.
    """
    P, M = x.P, x.M
    fibre = {}
    for m in M:
        fibre.setdefault(x.delta(m), []).append(m)
    zero = M.identity
    found = set()
    for a, b, c, d, e, f in product(P, P, P, P, P, P):
        need0 = P.add(P.add(P.neg(e), b), f)
        need1 = P.add(P.add(P.neg(d), c), f)
        need2 = P.add(P.add(P.neg(d), a), e)
        need3 = P.add(P.add(P.neg(c), a), b)
        for m0 in fibre.get(need0, ()):
            for m1 in fibre.get(need1, ()):
                for m2 in fibre.get(need2, ()):
                    for m3 in fibre.get(need3, ()):
                        total = M.add(M.add(M.add(x.act(m3, f), M.neg(m0)),
                                            M.neg(m2)), m1)
                        if total == zero:
                            found.add((a, b, c, d, e, f, m0, m1, m2, m3))
    return found


def brute_failed_rules3(x, t):
    """The rules that a label 10-tuple fails, in label arithmetic: a set of
    "face0" .. "face3" (the boundary rule of each face) and "closure"."""
    P, M = x.P, x.M
    a, b, c, d, e, f, m0, m1, m2, m3 = t
    holds = {"face0": x.delta(m0) == P.add(P.add(P.neg(e), b), f),
             "face1": x.delta(m1) == P.add(P.add(P.neg(d), c), f),
             "face2": x.delta(m2) == P.add(P.add(P.neg(d), a), e),
             "face3": x.delta(m3) == P.add(P.add(P.neg(c), a), b),
             "closure": M.add(M.add(M.add(x.act(m3, f), M.neg(m0)), M.neg(m2)), m1) == M.identity}
    return {rule for rule, ok in holds.items() if not ok}


def brute_is_simplex3(x, t):
    """The four boundary rules and the closure rule on a label 10-tuple, in label arithmetic."""
    return not brute_failed_rules3(x, t)


def brute_components(x):
    """The loop-space component partition of P, by pairwise relation scan."""
    P, M = x.P, x.M

    def related(a, b):
        return any(b == P.sub(P.add(P.add(p, a), x.delta(m)), p)
                   for m in M for p in P)

    blocks = []
    for a in P:
        placed = False
        for block in blocks:
            if related(block[0], a) and related(a, block[0]):
                block.append(a)
                placed = True
                break
        if not placed:
            blocks.append([a])
    return {frozenset(block) for block in blocks}


def brute_pa(x, a):
    """The underlying set of P(a) as (m, p) pairs, by direct filter."""
    P, M = x.P, x.M
    target = {}
    for m in M:
        for p in P:
            commutator = P.add(P.add(P.add(P.neg(a), P.neg(p)), a), p)
            if x.delta(m) == commutator:
                target[(m, p)] = True
    return set(target)


def brute_loop_gpd_tables(x):
    """The tables of the loop groupoid crossed module, by label arithmetic.

    Morphisms are (m, p, a) with source p + a + delta(m) - p and target a,
    the composite of (n, q, b) then (m, p, a) is (m + n^p, q + p, a) and
    the inverse of (m, p, a) is (-(m^-p), -p, its source); the written-out
    fibres, boundary and action are ``brute_loop_fibre_tables``.  Each dict
    is filled in the order the library lists its keys.
    """
    M, P = x.M, x.P
    morphisms = list(product(M, P, P))
    source = {u: P.sub(P.add(P.add(u[1], u[2]), x.delta(u[0])), u[1]) for u in morphisms}
    target = {u: u[2] for u in morphisms}
    leaving = {a: [] for a in P}
    for u in morphisms:
        leaving[source[u]].append(u)
    compose = {}
    for u in morphisms:
        n, q, b = u
        for v in leaving[b]:
            m, p, a = v
            compose[(u, v)] = (M.add(m, x.act(n, p)), P.add(q, p), a)
    return {
        "morphisms": morphisms,
        "source": source,
        "target": target,
        "compose": compose,
        "identities": {a: (M.identity, P.identity, a) for a in P},
        # (m, p) + (-(m^-p), -p) = (-(m^-p) + m^-p, p - p) = (0, 0)
        "inverses": {u: (M.neg(x.act(u[0], P.neg(u[1]))), P.neg(u[1]), source[u])
                     for u in morphisms},
        **brute_loop_fibre_tables(x),
    }


def brute_loop_group(x, a):
    """P(a), delta_a and the P(a)-action on M at base a, by label arithmetic.

    P(a) is the pairs (m, p) with delta(m) = [a, p], in (m, p) order, under
    (n, q) + (m, p) = (m + n^p, q + p); delta_a(m) = (-m^a + m, delta m) and
    n^(m, p) = n^p.
    """
    M, P = x.M, x.P
    pairs = [(m, p) for m in M for p in P if x.delta(m) == P.commutator(a, p)]
    table = [[(M.add(m, x.act(n, p)), P.add(q, p)) for m, p in pairs] for n, q in pairs]
    return {
        "elements": pairs,
        "table": table,
        "delta_a": {m: (M.add(M.neg(x.act(m, a)), m), x.delta(m)) for m in M},
        "action": {(n, (m, p)): x.act(n, p) for n in M for m, p in pairs},
    }


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


def brute_loop_fibre_tables(x):
    """The written-out fibres, boundary and action of the loop module, by label arithmetic.

    The fibre at a is M written as pairs (m, a), the boundary of (m, a) is
    (-m^a + m, delta m, a) and (n, b)^(m, p, a) = (n^p, a), for b the
    source of (m, p, a).  Each dict is filled in the order the written-out
    form lists its keys.
    """
    M, P = x.M, x.P
    fibres = {a: ([(m, a) for m in M], [[(M.add(m, n), a) for n in M] for m in M])
              for a in P}
    source = {u: P.sub(P.add(P.add(u[1], u[2]), x.delta(u[0])), u[1])
              for u in product(M, P, P)}
    return {
        "fibres": fibres,
        "boundary": {(m, a): (M.add(M.neg(x.act(m, a)), m), x.delta(m), a)
                     for a in P for m in M},
        "action": {((n, source[u]), u): (x.act(n, u[1]), u[2]) for u in source for n in M},
    }


def written_out_gxm(base, fibre, act, boundary, label=lambda m, x: (m, x)):
    """A crossed module over an action groupoid, written out by object and by arrow.

    This is the form the library stored before it kept one fibre group:
    ``fibres`` maps each object x to a copy of ``fibre`` on the labels
    label(m, x), ``boundary`` each fibre label to its arrow, and ``action``
    each (fibre label at the source of u, u) to a fibre label at the
    target of u, in morphism order.  ``act`` and ``boundary`` are the
    position tables of ``GroupoidXMod``; entries must be positions.
    """
    objects, ms, nx = base.objects, base.morphisms, len(base.objects)
    fibres = {}
    for x in objects:
        names = [label(m, x) for m in fibre]
        fibres[x] = make_group(names, [[names[v] for v in row] for row in fibre._table],
                               names[fibre.index(fibre.identity)])
    written_boundary = {fibres[x].elements[t]: ms[g * nx + k]
                        for k, x in enumerate(objects) for t, g in enumerate(boundary[k])}
    written_action = {}
    for p, u in enumerate(ms):
        i, k = divmod(p, nx)
        start, end = fibres[objects[base.act[i][k]]].elements, fibres[objects[k]].elements
        written_action.update(((start[t], u), end[v]) for t, v in enumerate(act[i]))
    return SimpleNamespace(base=written_out(base), fibres=fibres, boundary=written_boundary,
                           action=written_action)


def written_out_maps(source, target, group_map, obj_map, fibre_map):
    """The label maps of a morphism of written-out crossed modules, from its position maps."""
    sb, tb = source.base, target.base
    nx, tx = len(sb.objects), len(tb.objects)
    obj = {x: tb.objects[obj_map[k]] for k, x in enumerate(sb.objects)}
    mor = {u: tb.morphisms[group_map[p // nx] * tx + obj_map[p % nx]]
           for p, u in enumerate(sb.morphisms)}
    dim2 = {m: target.fibres[obj[x]].elements[fibre_map[t]]
            for x in sb.objects for t, m in enumerate(source.fibres[x].elements)}
    return obj, mor, dim2


class WrittenGroupoid:
    """An action groupoid's lookups by morphism name, rebuilt from G's table and ``act``.

    The arrow (g_i, x_k) at position i |X| + k goes from g_i . x_k to x_k,
    (g_i, x_k) + (g_j, x_z) = (g_i + g_j, x_z) when g_j . x_z = x_k, the
    identity at x_k is (0, x_k) and -(g_i, x_k) = (-g_i, g_i . x_k).
    ``stars`` lists the morphisms out of each object, in morphism order;
    ``generators`` the arrows (s, x), s among G's generators, s-major.
    ``compose``, the composable pairs (u, v) with u in morphism order and
    v in star order, is built on first use: it has |G|^2 |X| entries.
    """

    def __init__(self, base):
        G, objects, ms, act = base.group, base.objects, base.morphisms, base.act
        nx, every = len(objects), range(len(objects))
        arrows = [(i, k) for i in range(len(G)) for k in every]  # in morphism order
        out_of = [[] for _ in every]
        for p, (i, k) in enumerate(arrows):
            out_of[act[i][k]].append(p)
        e = G._index[G.identity]
        self._base, self.objects, self.morphisms = base, objects, ms
        self._position = {u: p for p, u in enumerate(ms)}
        self.source = {ms[p]: objects[act[i][k]] for p, (i, k) in enumerate(arrows)}
        self.target = {ms[p]: objects[k] for p, (i, k) in enumerate(arrows)}
        self.stars = {x: [ms[p] for p in out_of[k]] for k, x in enumerate(objects)}
        self.identities = {x: ms[e * nx + k] for k, x in enumerate(objects)}
        self.inverses = {ms[p]: ms[G._inv[i] * nx + act[i][k]] for p, (i, k) in enumerate(arrows)}
        self.generators = tuple(ms[s * nx + z] for s in G.generators for z in every)

    def composite(self, u, v):
        """u + v, or None when target(u) != source(v)."""
        base, nx = self._base, len(self.objects)
        (i, k), (j, z) = divmod(self._position[u], nx), divmod(self._position[v], nx)
        if base.act[j][z] != k:
            return None
        return self.morphisms[base.group._table[i][j] * nx + z]

    @cached_property
    def compose(self) -> dict:
        return {(u, v): self.composite(u, v)
                for u in self.morphisms for v in self.stars[self.target[u]]}

    @property
    def args(self) -> tuple:
        """The six arguments of ``make_groupoid``."""
        return (self.objects, self.morphisms, self.source, self.target, self.compose,
                self.identities)


def written_out(base) -> WrittenGroupoid:
    """An action groupoid's lookups written out by morphism name (``WrittenGroupoid``)."""
    return WrittenGroupoid(base)


def before(base, v) -> list:
    """The pairs (u, u + v) for every u with target source(v), in morphism order, on a
    written-out base."""
    return [(u, base.composite(u, v)) for u in base.morphisms
            if base.target[u] == base.source[v]]


_MISSING = object()  # what a table gives for a key it lacks; no label equals it


def _composable(base):
    """Every composable (u, v, u + v) of a written-out base: u in morphism order, then v
    in star order."""
    for u in base.morphisms:
        for v in base.stars[base.target[u]]:
            yield u, v, base.composite(u, v)


def _composites_of_generators(base):
    """(u, s, u + s) for each generator s and each u ending where s starts."""
    return ((u, s, w) for s in base.generators for u, w in before(base, s))


def make_written_gxm(base, fibres, boundary, action):
    """Validate a written-out crossed module over a groupoid, checking every law.

    Returns the written-out form; raises at the first broken law, in the
    order: fibre per object and distinct fibre labels, then at each object
    the boundary's values (``boundary-missing``, ``boundary-vertex``) and
    ``boundary-hom``, the action's keys and values (``action-domain``,
    ``action-codomain``), its ``identity``, ``composition`` and
    ``additivity``, CM1 and CM2.  Each law closed under composition is
    proved from generators and scanned in full, to raise the first
    witness, only when that proof fails (``_failures``).
    """
    base = written_out(base)
    if set(fibres) != set(base.objects):
        raise InvalidGroupoidXMod("fibre-per-object", (tuple(fibres),))
    object_of = {}
    for x in base.objects:
        for m in fibres[x]:
            if m in object_of:
                raise InvalidGroupoidXMod("fibre-name-clash", (m, object_of[m], x))
            object_of[m] = x
    source, target, compose = base.source.get, base.target.get, base.composite

    def cm1(m, u) -> bool:
        return boundary[action[(m, u)]] == compose(compose(base.inverses[u], boundary[m]), u)

    def cm2(m, n) -> bool:
        return fibres[object_of[m]].conj(m, n) == action[(m, boundary[n])]

    for x in base.objects:
        group = fibres[x]
        for m in group:
            value = boundary.get(m)
            if value is None:
                raise InvalidGroupoidXMod("boundary-missing", (m,))
            if source(value) != x or target(value) != x:
                raise InvalidGroupoidXMod("boundary-vertex", (m, value))
        for m, n in _additive_failures(group, boundary, compose):
            raise InvalidGroupoidXMod("boundary-hom", (m, n))

    def action_error():
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

    # rows[u][i] is the position of m_i^u in the fibre at target(u)
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
        row = rows[base.identities[x]]
        for i in range(len(row)):
            if row[i] != i:
                raise InvalidAction("identity", (fibres[x].elements[i], x))

    def composes(u, v, w) -> bool:
        row_v = rows[v]
        return [row_v[i] for i in rows[u]] == rows[w]

    for u, v, w in _failures(composes, _composable(base), _composites_of_generators(base)):
        row_v, row_uv = rows[v], rows[w]
        i = next(i for i, j in enumerate(rows[u]) if row_v[j] != row_uv[i])
        raise InvalidAction("composition", (fibres[source(u)].elements[i], u, v))

    def additive(u, i) -> bool:
        row = rows[u]
        image = fibres[target(u)]._table[row[i]]
        return [row[k] for k in fibres[source(u)]._table[i]] == [image[j] for j in row]

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
    proof = ((m, s) for x in base.objects
             for m, s in product(fibres[x], generator_labels(fibres[x])))
    for m, n in _failures(cm2, scan, proof):
        raise CM2Violation(m, n)
    return SimpleNamespace(base=base, fibres=fibres, boundary=boundary, action=action)


def check_written_morphism(source, target, obj_map, mor_map, dim2_map) -> list:
    """The report of the morphism laws between written-out crossed modules.

    Laws and order: ``object-map``; ``morphism-map`` and ``endpoints`` per
    morphism; ``identity`` per object and ``composition`` per composable
    pair; per object ``dim2-map``, ``dim2-hom`` and ``boundary-square``;
    and, only on an empty report, ``action-square``.  Composition,
    dim2-hom and action-square are proved from generators when their
    premises hold, as the library did before it stored position maps.
    """
    report = []
    src_base, tgt_base = source.base, target.base
    tgt_objects = set(tgt_base.objects)
    for x in src_base.objects:
        if obj_map.get(x) not in tgt_objects:
            report.append(Violation("object-map", f"no valid image for object {x}", (x,)))
    if report:
        return report
    for u in src_base.morphisms:
        fu = mor_map.get(u)
        if fu not in tgt_base.source:
            report.append(Violation("morphism-map", f"no valid image for {u}", (u,)))
            continue
        if (tgt_base.source[fu] != obj_map[src_base.source[u]]
                or tgt_base.target[fu] != obj_map[src_base.target[u]]):
            report.append(Violation("endpoints", f"image of {u} has wrong endpoints", (u,)))
    if report:
        return report

    def preserves(u, v, w) -> bool:
        return mor_map[w] == tgt_base.composite(mor_map[u], mor_map[v])

    identities_kept = True
    for x in src_base.objects:
        if mor_map[src_base.identities[x]] != tgt_base.identities[obj_map[x]]:
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

    scan = ((m, u) for u in src_base.morphisms for m in source.fibres[src_base.source[u]])
    proof = ((m, s) for s in src_base.generators for m in source.fibres[src_base.source[s]])
    return [Violation("action-square", f"f2({m}^{u}) != f2({m})^f1({u})", (m, u))
            for m, u in _failures(squares, scan, proof)]


# -- the laws of a crossed module of groups, on labels -----------------------
# The generators the library used before it proved these laws on position
# tables, kept unchanged as the oracle of ``test_label_oracle``: each law is
# proved at single tuples of labels and scanned in full when that fails.


def _additive_failures(source: FiniteGroup, mapping, add):
    """The pairs (x, y) of source, x-major, with mapping[x + y] != add(mapping[x], mapping[y]).

    ``add`` composes in an associative target.  Proved from y in the
    generators and 0: f(x + 0) = f(x) + f(0) forces f(0) = 0, and
    f(x + w + s) = f(x + w) + f(s) = f(x) + f(w) + f(s) = f(x) + f(w + s).
    """
    def additive(x, y) -> bool:
        return mapping[source.add(x, y)] == add(mapping[x], mapping[y])

    elements = source.elements
    return _failures(additive, ((x, y) for x in elements for y in elements),
                     product(elements, (source.identity, *generator_labels(source))))


def _homomorphism_failures(source: FiniteGroup, target: FiniteGroup, mapping: dict):
    """Yield each broken law of a candidate map; return whether it is total into target.

    Totality and codomain come first, in source order.  Additivity is
    checked only when the map is total (``_additive_failures``).
    """
    total = True
    for x in source:
        value = mapping.get(x)
        if value is None:
            total = False
            yield UnknownElement(x)
        elif value not in target:
            total = False
            yield CodomainViolation(x, value)
    if total:
        for x, y in _additive_failures(source, mapping, target.add):
            yield InvalidHomomorphism(x, y)
    return total


def _action_failures(actor: FiniteGroup, space: FiniteGroup, table: dict):
    """Yield each broken law of an action table; return whether it is total into space.

    Totality and codomain come first, actor-major; the laws m^0 = m,
    (m^p)^q = m^(p+q) and (m+n)^p = m^p + n^p are checked only when the
    table is total.  Given m^0 = m, composition is proved for q in the
    actor's generators; given composition, additivity is proved for p in
    those generators and n in the space's generators and 0 (see
    ``_right_generators``).  Each law whose certificate fails, or whose
    premise does, is scanned over every tuple (``_failures``).
    """
    total = True
    rows: dict = {}  # p -> {m -> m^p}, so the laws below look up by element
    for p in actor:
        row = rows[p] = {}
        for m in space:
            value = row[m] = table.get((m, p))
            if value is None:
                total = False
                yield InvalidAction("totality", (m, p))
            elif value not in space:
                total = False
                yield InvalidAction("codomain", (m, p, value))
    if not total:
        return total

    def composes(m, p, q) -> bool:
        return rows[q][rows[p][m]] == rows[actor.add(p, q)][m]

    def additive(m, n, p) -> bool:
        row = rows[p]
        return row[space.add(m, n)] == space.add(row[m], row[n])

    identity_holds = True
    for m in space:
        if rows[actor.identity][m] != m:
            identity_holds = False
            yield InvalidAction("identity", (m,))
    composition_holds = identity_holds
    for witness in _failures(composes, product(space, actor, actor),
                             product(space, actor, generator_labels(actor))
                             if identity_holds else None):
        composition_holds = False
        yield InvalidAction("composition", witness)
    additivity_proof = product(space, (space.identity, *generator_labels(space)),
                               generator_labels(actor))
    for witness in _failures(additive, product(space, space, actor),
                             additivity_proof if composition_holds else None):
        yield InvalidAction("additivity", witness)
    return total


def _crossed_module_failures(M: FiniteGroup, P: FiniteGroup, delta: dict, act: dict,
                             premises: bool = True):
    """Yield every CM1 failure, then every CM2 failure, over total plain tables.

    ``delta`` maps m -> delta(m) and ``act`` maps (m, p) -> m^p.  When
    ``premises`` holds (delta is a homomorphism and the action satisfies
    every action law), each law is proved from generators and scanned in
    full only when that proof fails (``_failures``):

    - CM1 holds at p = 0 (m^0 = m), and at p + s if it holds at p and s:
      delta(m^(p+s)) = delta((m^p)^s) = -s + delta(m^p) + s = -(p+s) + delta(m) + (p+s).
    - CM2 holds for n = 0 (delta(0) = 0 and m^0 = m), and for n + s if it
      holds for n and s: m^delta(n+s) = (m^delta(n))^delta(s)
      = -s + (-n + m + n) + s = -(n+s) + m + (n+s).
    So s runs over P's generators for CM1 and M's for CM2.  Without the
    premises both laws are scanned in full.
    """
    def cm1(m, p) -> bool:
        return delta[act[(m, p)]] == P.conj(delta[m], p)

    def cm2(m, n) -> bool:
        return M.conj(m, n) == act[(m, delta[n])]

    for m, p in _failures(cm1, product(M, P),
                          product(M, generator_labels(P)) if premises else None):
        yield CM1Violation(m, p)
    for m, n in _failures(cm2, product(M, M),
                          product(M, generator_labels(M)) if premises else None):
        yield CM2Violation(m, n)
