"""Finite group arithmetic on explicit composition tables.

A group is its validated table; nothing is presented by generators and
relations, so every law holds over every tuple.  Composition is written
additively (x + y, -x, 0) even for nonabelian groups.  Element order is
the input order and all derived listings follow it, which makes every
result deterministic.

Cost.  Laws that are closed under composition are proved from a few
generators instead of being enumerated (see ``_right_generators``):
associativity costs n^2 |S| for a group of order n with |S| <= log2 n
generators, and a homomorphism or an action law costs |S| + 1 checks
per element.  ``_failures`` is the one place where such a proof gates
a scan: when the proof fails, the full scan runs and reports exactly
what it always reported.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product, starmap

from .errors import (
    CodomainViolation,
    InvalidAction,
    InvalidHomomorphism,
    MalformedGroup,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    NotNormal,
    SizeLimitExceeded,
    SpaceNotAbelian,
    UnknownElement,
)

DEFAULT_MAX_ISO_ORDER = 512


def _right_generators(points, starts, after) -> list:
    """Points S such that closing ``starts`` under x -> x + s (s in S) reaches every point.

    ``after(x, s)`` is x + s, or None where the pair is not composable.
    The points are walked in input order, and each one not yet reached
    becomes the next generator.  In a group the reached set is the
    subgroup generated so far, and each new generator at least doubles
    it, so |S| <= log2 |G|.

    Light's test.  Let A be the set of a with (x + a) + y = x + (a + y)
    for all composable x, y.  Identities are in A by the identity law,
    and for a, b in A (using a, b, a, b in A in turn):
        (x + (a + b)) + y = ((x + a) + b) + y = (x + a) + (b + y)
                          = x + (a + (b + y)) = x + ((a + b) + y).
    So A is closed under composition, and associativity holds everywhere
    once it holds for s in S.  The same induction on words proves that a
    map respecting f(x + s) = f(x) + f(s) for all x and s in S + {0} is a
    homomorphism, and that an action with m^0 = m and (m^u)^s = m^(u+s)
    for s in S satisfies (m^u)^v = m^(u+v) for every v.
    """
    gens: list = []
    reached = list(starts)
    seen = set(reached)
    for p in points:
        if p in seen:
            continue
        gens.append(p)
        closed = len(reached)  # reached[:closed] is closed under the earlier generators
        for x in reached[:closed]:
            y = after(x, p)
            if y is not None and y not in seen:
                seen.add(y)
                reached.append(y)
        i = closed
        while i < len(reached):  # each newly reached point meets every generator once
            for s in gens:
                y = after(reached[i], s)
                if y is not None and y not in seen:
                    seen.add(y)
                    reached.append(y)
            i += 1
    return gens


def _failures(law, scan, proof=None):
    """The tuples of ``scan`` at which ``law`` fails, in scan order, as an iterator.

    ``proof`` lists the tuples from which a generator argument (see
    ``_right_generators``) proves the law everywhere: when the law holds
    at each of them, nothing is scanned and nothing returned.  ``None``
    means a premise of that argument failed, so the scan always runs.
    """
    if proof is not None and all(starmap(law, proof)):
        return iter(())
    return (t for t in scan if not law(*t))


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
                     product(elements, (source.identity, *source.generators)))


class FiniteGroup:
    """A finite group on hashable element labels, defined by its composition table.

    Construction validates closure, the declared identity, two-sided
    inverses and associativity, raising with a witness on the first
    failure.  ``generators`` is the greedy generating set of
    ``_right_generators``, in input order; associativity is proved from it.
    """

    def __init__(self, elements, table, identity):
        elements = list(elements)
        if not elements:
            raise MalformedGroup("a group needs at least one element")
        self.elements: list[str] = elements
        self._index: dict[str, int] = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        if len(self._index) != n:
            repeated = next(e for i, e in enumerate(elements) if self._index[e] != i)
            raise MalformedGroup(f"element identifier {repeated!r} occurs more than once",
                                 (repeated,))
        if identity not in self._index:
            raise UnknownElement(identity)
        if len(table) != n:
            raise MalformedGroup(f"composition table has {len(table)} rows, not {n}",
                                 (len(table),))
        for x, row in zip(elements, table):
            if len(row) != n:
                raise MalformedGroup(f"table row of {x} has {len(row)} entries, not {n}",
                                     (x, len(row)))
        idx_table: list[list[int]] = []
        for i, row in enumerate(table):
            idx_row = list(map(self._index.get, row))
            if None in idx_row:
                j = idx_row.index(None)
                raise NotClosed(elements[i], elements[j], row[j])
            idx_table.append(idx_row)
        self._table = idx_table
        self.identity = identity
        e = self._index[identity]
        for i in range(n):
            if idx_table[e][i] != i or idx_table[i][e] != i:
                raise NoIdentity(elements[i])
        inv: list[int] = []
        for i, row in enumerate(idx_table):
            j = -1
            try:  # the first j with i + j = 0 = j + i; list.index finds each candidate
                while j < 0 or idx_table[j][i] != e:
                    j = row.index(e, j + 1)
            except ValueError:
                raise NoInverse(elements[i]) from None
            inv.append(j)
        self._inv = inv
        gens = _right_generators(range(n), (e,), lambda i, j: idx_table[i][j])
        self.generators: tuple = tuple(elements[s] for s in gens)

        def associates(i, j) -> bool:
            """(i + j) + k = i + (j + k) for every k, one whole row at a time."""
            row_i = idx_table[i]
            return [row_i[k] for k in idx_table[j]] == idx_table[row_i[j]]

        # Light's test: the pairs (i, s) for the generators s prove every pair
        for i, j in _failures(associates, product(range(n), range(n)), product(range(n), gens)):
            ij, row_i = idx_table[i][j], idx_table[i]
            k = next(k for k, jk in enumerate(idx_table[j]) if idx_table[ij][k] != row_i[jk])
            raise NotAssociative(elements[i], elements[j], elements[k])

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def __repr__(self) -> str:
        return f"<FiniteGroup of order {len(self)}>"

    def index(self, x: str) -> int:
        i = self._index.get(x)
        if i is None:
            raise UnknownElement(x)
        return i

    def add(self, x: str, y: str) -> str:
        index = self._index
        try:
            return self.elements[self._table[index[x]][index[y]]]
        except KeyError:
            raise UnknownElement(y if x in index else x) from None

    def neg(self, x: str) -> str:
        try:
            return self.elements[self._inv[self._index[x]]]
        except KeyError:
            raise UnknownElement(x) from None

    def sub(self, x: str, y: str) -> str:
        return self.add(x, self.neg(y))

    def conj(self, x: str, p: str) -> str:
        """Conjugate x^p = -p + x + p."""
        return self.add(self.add(self.neg(p), x), p)

    def commutator(self, x: str, y: str) -> str:
        """[x, y] = -x - y + x + y."""
        return self.add(self.add(self.add(self.neg(x), self.neg(y)), x), y)

    def element_order(self, x: str) -> int:
        power = x
        n = 1
        while power != self.identity:
            power = self.add(power, x)
            n += 1
        return n

    def is_abelian(self) -> bool:
        return all(self.add(x, y) == self.add(y, x)
                   for x in self.elements for y in self.elements)


def make_group(elements, table, identity) -> FiniteGroup:
    """Build and fully validate a finite group from its table."""
    return FiniteGroup(elements, table, identity)


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A validated subgroup, stored as a subset of the parent's elements."""

    parent: FiniteGroup
    members: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, x) -> bool:
        return x in set(self.members)

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group on its own elements, cut from the parent's table."""
        return _cut(self.parent, self.members)[0]


def subgroup(parent: FiniteGroup, members) -> Subgroup:
    """Validate members and 0 as a subgroup, in parent order: closed under - and + (``_cut``)."""
    return Subgroup(parent, tuple(_cut(parent, members)[0].elements))


def _cut(parent: FiniteGroup, members) -> tuple[FiniteGroup, list[int]]:
    """The subgroup on members and 0 as a group in parent order, and its parent positions.

    Only closure is checked, under - and then + for each element in
    order: the identity, inverse and associativity laws of the validated
    parent hold on every subset, so the sliced table is not validated
    again.
    """
    found = {parent.index(x) for x in members}  # in input order: the first unknown is the witness
    positions = sorted(found | {parent._index[parent.identity]})
    local = {p: r for r, p in enumerate(positions)}
    elements, inv = parent.elements, parent._inv
    table = []
    for p in positions:
        if inv[p] not in local:
            raise NotClosed(elements[p], f"-{elements[p]}", elements[inv[p]])
        row = parent._table[p]
        cut = [local.get(row[q]) for q in positions]
        if None in cut:
            q = positions[cut.index(None)]
            raise NotClosed(elements[p], elements[q], elements[row[q]])
        table.append(cut)
    group = object.__new__(FiniteGroup)
    group.elements = [elements[p] for p in positions]
    group._index = {x: r for r, x in enumerate(group.elements)}
    group._table, group._inv = table, [local[inv[p]] for p in positions]
    group.identity = parent.identity
    gens = _right_generators(range(len(table)), (local[parent._index[parent.identity]],),
                             lambda i, j: table[i][j])
    group.generators = tuple(group.elements[s] for s in gens)
    return group, positions


def centralizer(group: FiniteGroup, a: str) -> Subgroup:
    """Elements p with -a + p + a = p."""
    group.index(a)
    members = [p for p in group if group.conj(p, a) == p]
    return subgroup(group, members)


def subgroup_generated(group: FiniteGroup, generators) -> Subgroup:
    """Least subgroup containing the generators, by breadth-first closure.

    The elements reached from 0 by right multiplication with generators
    form the submonoid they generate, which in a finite group is already
    the subgroup: -g is a positive power of g.
    """
    generators = list(generators)
    for g in generators:
        group.index(g)
    reached = [group.identity]
    seen = {group.identity}
    for x in reached:  # grows while it is walked: each element is expanded once
        for g in generators:
            y = group.add(x, g)
            if y not in seen:
                seen.add(y)
                reached.append(y)
    return subgroup(group, reached)


def kernel(f: Homomorphism) -> Subgroup:
    members = [x for x in f.source if f(x) == f.target.identity]
    return subgroup(f.source, members)


def image(f: Homomorphism) -> Subgroup:
    return subgroup(f.target, {f(x) for x in f.source})


def _partition(points, orbit) -> list[list]:
    """Split the points (a sequence, walked twice) into blocks, in input order.

    orbit(x) must return the set of the whole block of x, so each block is
    computed once, from its first point, and is listed in input order.
    """
    order = {x: i for i, x in enumerate(points)}
    placed: set = set()
    blocks: list[list] = []
    for x in points:
        if x not in placed:
            block = sorted(orbit(x), key=order.__getitem__)
            blocks.append(block)
            placed.update(block)
    return blocks


def conjugacy_classes(group: FiniteGroup) -> list[list[str]]:
    """The partition of the group into conjugacy classes, least element first."""
    return _partition(group, lambda a: {group.conj(a, p) for p in group})


def quotient(group: FiniteGroup, normal: Subgroup) -> tuple[FiniteGroup, Homomorphism]:
    """Quotient by a normal subgroup, on least coset representatives.

    Returns the quotient group together with the projection homomorphism.
    """
    if normal.parent is not group:
        raise ValueError("subgroup does not belong to this group")
    member_set = set(normal.members)
    for g in group:
        for x in normal:
            if group.conj(x, g) not in member_set:
                raise NotNormal(g, x)
    cosets = _partition(group, lambda g: {group.add(g, x) for x in normal})
    reps = [coset[0] for coset in cosets]
    rep_of = {g: coset[0] for coset in cosets for g in coset}
    table = [[rep_of[group.add(a, b)] for b in reps] for a in reps]
    quo = FiniteGroup(reps, table, rep_of[group.identity])
    proj = homomorphism(group, quo, {g: rep_of[g] for g in group})
    return quo, proj


@dataclass(frozen=True, eq=False)
class Homomorphism:
    """A validated group homomorphism given extensionally."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: dict

    def __call__(self, x: str) -> str:
        value = self.mapping.get(x)
        if value is None:
            raise UnknownElement(x)
        return value

    def is_injective(self) -> bool:
        return len(set(self.mapping.values())) == len(self.source)

    def is_surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.target.elements)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()


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


def homomorphism(source: FiniteGroup, target: FiniteGroup, mapping: dict) -> Homomorphism:
    """Validate totality, codomain and additivity of a candidate map."""
    for failure in _homomorphism_failures(source, target, mapping):
        raise failure
    return Homomorphism(source, target, dict(mapping))


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A right action of ``actor`` on ``space``, (m, p) -> m^p, as a table."""

    actor: FiniteGroup
    space: FiniteGroup
    table: dict

    def act(self, m: str, p: str) -> str:
        value = self.table.get((m, p))
        if value is None:
            raise UnknownElement((m, p))
        return value


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
                             product(space, actor, actor.generators) if identity_holds else None):
        composition_holds = False
        yield InvalidAction("composition", witness)
    additivity_proof = product(space, (space.identity, *space.generators), actor.generators)
    for witness in _failures(additive, product(space, space, actor),
                             additivity_proof if composition_holds else None):
        yield InvalidAction("additivity", witness)
    return total


def group_action(actor: FiniteGroup, space: FiniteGroup, table: dict) -> GroupAction:
    """Validate an action table: totality, codomain and the three action laws."""
    for failure in _action_failures(actor, space, table):
        raise failure
    return GroupAction(actor, space, dict(table))


def trivial_action(actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    return group_action(actor, space, {(m, p): m for m in space for p in actor})


def semidirect_product(n_group: FiniteGroup, h_group: FiniteGroup,
                       act: GroupAction) -> FiniteGroup:
    """Semidirect product on pairs (n, h) with (n,h) + (n',h') = (n^h' + n', h + h').

    The twist sits on the left factor so that, for abelian N, the table
    agrees entrywise with the loop vertex group built from the same data.
    For nonabelian N it is not the group G of ``loop.loop_gpd_xmod``, whose N part is m + n^p.
    """
    if act.actor is not h_group or act.space is not n_group:
        raise InvalidAction("wiring", ())
    pairs = [(n, h) for n in n_group for h in h_group]
    table = [[(n_group.add(act.act(n, h2), n2), h_group.add(h, h2)) for n2, h2 in pairs]
             for n, h in pairs]
    return FiniteGroup(pairs, table, (n_group.identity, h_group.identity))


def displacement_subgroup(act: GroupAction, a: str) -> Subgroup:
    """Subgroup of the (abelian) space generated by all -m^a + m."""
    act.actor.index(a)
    space = act.space
    for m in space:
        for n in space:
            if space.add(m, n) != space.add(n, m):
                raise SpaceNotAbelian(m, n)
    displacements = {space.add(space.neg(act.act(m, a)), m) for m in space}
    return subgroup_generated(space, displacements)


def _order_profile(group: FiniteGroup) -> Counter:
    return Counter(group.element_order(x) for x in group)


def _close_partial(g_group: FiniteGroup, h_group: FiniteGroup, seed: dict) -> dict | None:
    """Close a partial map under products; None on conflict or collision."""
    known = dict(seed)
    used = set(known.values())
    if len(used) != len(known):
        return None
    frontier = list(known.items())
    while frontier:
        added: list[tuple[str, str]] = []
        items = list(known.items())
        for x, fx in frontier:
            for y, fy in items:
                for z, fz in ((g_group.add(x, y), h_group.add(fx, fy)),
                              (g_group.add(y, x), h_group.add(fy, fx))):
                    current = known.get(z)
                    if current is None:
                        if fz in used:
                            return None
                        known[z] = fz
                        used.add(fz)
                        added.append((z, fz))
                    elif current != fz:
                        return None
        frontier = added
    return known


def are_isomorphic(g_group: FiniteGroup, h_group: FiniteGroup,
                   max_order: int = DEFAULT_MAX_ISO_ORDER) -> Homomorphism | None:
    """Search for an isomorphism; None is a definitive negative.

    Backtracks over generator images with element-order pruning; partial
    maps are closed under products as they grow, so conflicts prune early.
    """
    if len(g_group) > max_order or len(h_group) > max_order:
        raise SizeLimitExceeded(max(len(g_group), len(h_group)), max_order)
    if len(g_group) != len(h_group):
        return None
    if _order_profile(g_group) != _order_profile(h_group):
        return None
    gens = g_group.generators
    gen_orders = {g: g_group.element_order(g) for g in gens}
    by_order: dict[int, list[str]] = {}
    for h in h_group:
        by_order.setdefault(h_group.element_order(h), []).append(h)

    def candidates(g: str) -> list[str]:
        pool = by_order.get(gen_orders[g], [])
        return sorted(pool, key=lambda h: (0 if h == g else 1, h_group.index(h)))

    def search(i: int, mapping: dict) -> dict | None:
        if i == len(gens):
            return mapping if len(mapping) == len(g_group) else None
        g = gens[i]
        if g in mapping:
            return search(i + 1, mapping)
        for h in candidates(g):
            seed = dict(mapping)
            seed[g] = h
            closed = _close_partial(g_group, h_group, seed)
            if closed is None:
                continue
            found = search(i + 1, closed)
            if found is not None:
                return found
        return None

    found = search(0, {g_group.identity: h_group.identity})
    if found is None:
        return None
    witness = homomorphism(g_group, h_group, found)
    if not witness.is_bijective():
        return None
    return witness
