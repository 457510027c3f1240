"""Finite group arithmetic on explicit composition tables.

A group is its validated table; nothing is presented by generators and
relations, so every law holds over every tuple.  Composition is written
additively (x + y, -x, 0) even for nonabelian groups.  Element order is
the input order and all derived listings follow it, which makes every
result deterministic.

Positions.  Inside the library an element is its position: a group
keeps its table (``_table``, ``_inv``), its identity (``zero``) and
``generators`` as positions, a ``Subgroup`` the sorted positions of its
members in the parent, a ``Homomorphism`` its images' positions and a
``GroupAction`` one row of positions per element of the actor;
``subgroup``, ``centralizer`` and the other subgroup functions take
positions.  Every group, read or derived, is built by the one
constructor ``FiniteGroup(elements, table, zero, inv)`` on positions.
Labels are read where a table, map or action enters (``make_group``,
the only reader of a table of labels, ``homomorphism``,
``group_action``) and written only into witnesses and the label views
kept for callers (``Subgroup.members``, ``add``, ``Homomorphism.__call__``,
``GroupAction.act``).  A group is abelian exactly when its generators
commute pairwise: the centralizer of each generator is then a subgroup
holding every generator, so the whole group, and so is the centre
(``FiniteGroup.is_abelian``).

Cost.  Laws that are closed under composition are proved from a few
generators instead of being enumerated (see ``_right_generators``), one
whole row at a time, with S the generators of the group named:

- associativity: n |S| rows of n, for a group of order n with
  |S| <= log2 n;
- a homomorphism f: G -> H, f(x + y) = f(x) + f(y): |S_G| + 1 rows of
  |G|, one for each y in 0 and S_G;
- an action of P on M, given m^0 = m: composition (m^p)^s = m^(p + s),
  |P| |S_P| rows of |M|; then, given composition, additivity
  (m + n)^s = m^s + n^s, (|S_M| + 1) |S_P| rows of |M|, for n in 0 and
  S_M and s in S_P;
- normality of a subgroup N in ``quotient``, -g + x + g in N for x in N:
  |S| rows of |N|.

Each law is stated once, as a function that returns its two sides along
one row of positions (``_composition``, ``_additivity``, the
``associates``, ``additive`` and ``normal`` rows here, ``xmod._cm1`` and
``xmod._cm2``).  ``_failures`` is the one place where a proof gates the
rest: when a row of the proof fails, or one of its premises does, every
row is compared, and the failures are reported in the order of the scan
over single elements that named them before, each witness written in
labels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import eq, itemgetter

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


def _orders(group: FiniteGroup) -> list[int]:
    """The order of each element, in element order, counted to at most n steps, so a
    table not yet proved associative cannot stall the count."""
    t, e, orders = group._table, group.zero, []
    n = len(t)
    for i in range(n):
        x, k = i, 1
        while x != e and k <= n:
            x, k = t[x][i], k + 1
        orders.append(k)
    return orders


def _generators(group: FiniteGroup) -> list[int]:
    """Greedy generators, as positions, of the group with a closed table.

    ``_right_generators`` tries the elements by decreasing order, and in
    input order among equal orders: a few elements of large order reach
    the whole group sooner than the first elements in input order (S5
    and S6 as permutations in lexicographic order take 2 and 3 instead
    of 4 and 5), and every proof from generators costs rows in
    proportion to their number.
    """
    table = group._table
    by_order = sorted(range(len(table)), key=_orders(group).__getitem__, reverse=True)
    return _right_generators(by_order, (group.zero,), lambda i, j: table[i][j])


def _failures(sides, keys, proof=None, order=None):
    """Where a law stated a row at a time fails: the tuples (*key, i), as an iterator.

    ``sides(*key)`` returns the law's two sides along one row, one entry
    per column i; the law fails at (*key, i) when the entries differ.
    ``proof`` lists the keys from which a generator argument (see
    ``_right_generators``) proves the law everywhere: when both sides
    agree at each of them, nothing else is computed and nothing
    returned.  ``None`` means a premise of that argument failed, so the
    rows of ``keys`` are always compared.  Each row is computed once, and
    the failures come row by row, or sorted by ``order(t)``: the order of
    the scan over single elements that names each witness, so a law
    reports exactly what it reported one element at a time.
    """
    if proof is not None and all(eq(*sides(*key)) for key in proof):
        return iter(())
    found = _differences(sides, keys)
    return iter(sorted(found, key=order)) if order else found


def _differences(sides, keys):
    """The places (*key, i) where the two sides of each row differ, row by row."""
    for key in keys:
        a, b = sides(*key)
        if a != b:
            yield from ((*key, i) for i, (u, v) in enumerate(zip(a, b)) if u != v)


def _strict(failures):
    """Raise the first failure the generator yields; else return what it returns."""
    try:
        failure = next(failures)
    except StopIteration as done:
        return done.value
    raise failure


def _additive_failures(source: FiniteGroup, images: list, target_table: list):
    """The pairs (x, y) of positions in source, x-major, with f(x + y) != f(x) + f(y).

    ``images[x]`` is the position of f(x) in a group with table
    ``target_table``.  Proved a column y at a time, for y in 0 and the
    generators: f(x + 0) = f(x) + f(0) forces f(0) = 0, and
    f(x + w + s) = f(x + w) + f(s) = f(x) + f(w) + f(s) = f(x) + f(w + s).
    """
    st, f, tt = source._table, images, target_table

    def additive(y):  # f(x + y) and f(x) + f(y), for every x
        fy = f[y]
        return [f[r[y]] for r in st], [tt[v][fy] for v in f]

    proof = [(y,) for y in (source.zero, *source.generators)]
    for y, x in _failures(additive, product(range(len(st))), proof, itemgetter(1, 0)):
        yield x, y


class FiniteGroup:
    """A finite group on distinct element labels: its table of positions and the
    position ``zero`` of its identity.

    ``table[i][j]`` is the position of elements[i] + elements[j], every
    entry a position; ``make_group`` reads a table of labels into this
    form.  Without ``inv``, construction checks the identity law at
    ``zero``, finds the first two-sided inverse of each element and
    proves associativity from ``generators``, the greedy generating set
    of ``_generators``, raising with a label witness on the first failure.
    Given ``inv``, as for a cut or a quotient of a validated group, the
    laws are known to hold and only the generators are found.
    """

    def __init__(self, elements, table, zero, inv=None):
        self.elements: list = elements
        self._index: dict = {x: i for i, x in enumerate(elements)}
        self._table: list[list[int]] = table
        self.zero: int = zero
        proved, n = inv is not None, len(table)
        if not proved:
            for i in range(n):
                if table[zero][i] != i or table[i][zero] != i:
                    raise NoIdentity(elements[i])
            inv = []
            for i, row in enumerate(table):
                j = -1
                try:  # the first j with i + j = 0 = j + i; list.index finds each candidate
                    while j < 0 or table[j][i] != zero:
                        j = row.index(zero, j + 1)
                except ValueError:
                    raise NoInverse(elements[i]) from None
                inv.append(j)
        self._inv: list[int] = inv
        self.generators = gens = tuple(_generators(self))
        if proved:
            return

        def associates(i, j):  # i + (j + k) and (i + j) + k, for every k, as tuples
            return itemgetter(*table[j])(table[i]), tuple(table[table[i][j]])

        # Light's test: the pairs (i, s) for the generators s prove every pair.  A group
        # of order 1 has no generators, so no row of one entry (not a tuple) is compared.
        every = range(n)
        for i, j, k in _failures(associates, product(every, every), product(every, gens)):
            raise NotAssociative(elements[i], elements[j], elements[k])

    @property
    def identity(self):
        return self.elements[self.zero]

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
        return _orders(self)[self.index(x)]

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, which proves every pair commutes.

        The centralizer of a generator is a subgroup; when it holds every
        generator it is the whole group, so each generator is central, and
        then the centre, a subgroup holding every generator, is the group.
        """
        t, gens = self._table, self.generators
        return all(t[s][u] == t[u][s] for s in gens for u in gens)


def make_group(elements, table, identity) -> FiniteGroup:
    """The group of a table of labels, read into positions and validated by ``FiniteGroup``.

    The labels are checked first, raising on the first of: no element, a
    repeated label, an unknown identity, a wrong number of rows, a row of
    the wrong length, and (``NotClosed``) an entry that is no element.
    """
    elements = list(elements)
    if not elements:
        raise MalformedGroup("a group needs at least one element")
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    if len(index) != n:
        repeated = next(e for i, e in enumerate(elements) if index[e] != i)
        raise MalformedGroup(f"element identifier {repeated!r} occurs more than once",
                             (repeated,))
    if identity not in index:
        raise UnknownElement(identity)
    if len(table) != n:
        raise MalformedGroup(f"composition table has {len(table)} rows, not {n}",
                             (len(table),))
    for x, row in zip(elements, table):
        if len(row) != n:
            raise MalformedGroup(f"table row of {x} has {len(row)} entries, not {n}",
                                 (x, len(row)))
    positions: list[list[int]] = []
    for i, row in enumerate(table):
        idx_row = list(map(index.get, row))
        if None in idx_row:
            j = idx_row.index(None)
            raise NotClosed(elements[i], elements[j], row[j])
        positions.append(idx_row)
    return FiniteGroup(elements, positions, index[identity])


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A validated subgroup, stored as the sorted positions of its members in the parent."""

    parent: FiniteGroup
    _positions: tuple[int, ...]

    @property
    def members(self) -> tuple[str, ...]:  # the members' labels, in parent order
        return tuple(map(self.parent.elements.__getitem__, self._positions))

    def __len__(self) -> int:
        return len(self._positions)

    def __iter__(self):
        return iter(self.members)

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group on its own elements, cut from the parent's table."""
        return _cut(self.parent, self._positions)[0]


def _position(group: FiniteGroup, p) -> int:
    """p, when it is a position of the group; else ``UnknownElement`` names it."""
    if p not in range(len(group)):
        raise UnknownElement(p)
    return p


def subgroup(parent: FiniteGroup, members) -> Subgroup:
    """Validate the positions members and 0 as a subgroup: closed under - and + (``_cut``)."""
    return Subgroup(parent, tuple(_cut(parent, members)[1]))


def _cut(parent: FiniteGroup, members, name=None) -> tuple[FiniteGroup, list[int]]:
    """The subgroup on the positions members and 0 as a group in parent order, and its
    sorted parent positions.

    Only closure is checked, under - and then + for each element in
    order: the identity, inverse and associativity laws of the validated
    parent hold on every subset, so the sliced table is not validated
    again.  The element at parent position p is named name(p), by default
    its parent label.
    """
    e = parent.zero
    # in input order: the first member that is no position is the witness
    positions = sorted({_position(parent, p) for p in members} | {e})
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
    group = FiniteGroup(list(map(name or elements.__getitem__, positions)), table, local[e],
                        [local[inv[p]] for p in positions])
    return group, positions


def centralizer(group: FiniteGroup, a: int) -> Subgroup:
    """The positions p with -a + p + a = p, for the position a."""
    t, i = group._table, _position(group, a)
    row = t[group._inv[i]]  # row[p] = -a + p
    return Subgroup(group, tuple(p for p in range(len(t)) if t[row[p]][i] == p))


def subgroup_generated(group: FiniteGroup, generators) -> Subgroup:
    """Least subgroup containing the positions generators, by breadth-first closure.

    The elements reached from 0 by right multiplication with generators
    form the submonoid they generate, which in a finite group is already
    the subgroup: -g is a positive power of g.  So the result is closed
    by construction and is not cut again.
    """
    gens = [_position(group, g) for g in generators]
    t, e = group._table, group.zero
    reached, seen = [e], {e}
    for x in reached:  # grows while it is walked: each element is expanded once
        row = t[x]
        for g in gens:
            y = row[g]
            if y not in seen:
                seen.add(y)
                reached.append(y)
    return Subgroup(group, tuple(sorted(reached)))


def kernel(f: Homomorphism) -> Subgroup:
    """The x with f(x) = 0, in source order: a subgroup, since f is a validated homomorphism."""
    zero = f.target.zero
    return Subgroup(f.source, tuple(x for x, v in enumerate(f.images) if v == zero))


def image(f: Homomorphism) -> Subgroup:
    """The values of f, in target order: a subgroup, since f is a validated homomorphism."""
    return Subgroup(f.target, tuple(sorted(set(f.images))))


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
    t, inv, every = group._table, group._inv, range(len(group))
    blocks = _partition(every, lambda a: {t[t[inv[p]][a]][p] for p in every})
    return [[group.elements[i] for i in block] for block in blocks]


def quotient(group: FiniteGroup, normal: Subgroup) -> tuple[FiniteGroup, Homomorphism]:
    """Quotient by a normal subgroup, on least coset representatives.

    Returns the quotient group together with the projection homomorphism.
    Normality, -g + N + g in N, is proved for g in the generators, one
    row of N each: if it holds at g and at s, N^(g + s) = (N^g)^s lies in
    N^s, inside N.  Every row is compared, and the first (g, x) that
    fails raised, only when that proof fails.  The coset table is then
    well defined, and it inherits the identity, inverse
    and associativity laws from the group's, so it is not validated
    again; the projection is a homomorphism by the table's definition.
    """
    if normal.parent is not group:
        raise ValueError("subgroup does not belong to this group")
    t, inv, elements = group._table, group._inv, group.elements
    members = normal._positions
    inside = set(members)

    holds = [True] * len(members)

    def normal(g):  # -g + x + g in N, for every x in N
        neg = t[inv[g]]
        return [t[neg[x]][g] in inside for x in members], holds

    every = range(len(elements))
    for g, i in _failures(normal, product(every), product(group.generators)):
        raise NotNormal(elements[g], elements[members[i]])
    cosets = _partition(every, lambda g: {t[g][x] for x in members})
    reps = [coset[0] for coset in cosets]
    coset_of = [0] * len(elements)
    for r, coset in enumerate(cosets):
        for g in coset:
            coset_of[g] = r
    table = [[coset_of[t[a][b]] for b in reps] for a in reps]
    quo = FiniteGroup([elements[a] for a in reps], table, coset_of[group.zero],
                      [coset_of[inv[a]] for a in reps])
    return quo, Homomorphism(group, quo, coset_of)


def _representatives(projection: Homomorphism) -> list[int]:
    """Each element of a quotient as the position of its coset's least element, the
    first occurrence of its value in the projection (``quotient`` lists cosets so)."""
    first: dict = {}
    for g, coset in enumerate(projection.images):
        first.setdefault(coset, g)
    return list(first.values())


@dataclass(frozen=True, eq=False)
class Homomorphism:
    """A validated group homomorphism: ``images[i]`` is the position in
    ``target`` of the image of the i-th element of ``source``."""

    source: FiniteGroup
    target: FiniteGroup
    images: list

    def __call__(self, x: str) -> str:
        i = self.source._index.get(x)
        if i is None:
            raise UnknownElement(x)
        return self.target.elements[self.images[i]]

    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.source)

    def is_surjective(self) -> bool:
        return len(set(self.images)) == len(self.target)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()


def _read_map(source: FiniteGroup, target: FiniteGroup, mapping: dict):
    """Yield each missing or foreign value of a candidate map, in source order; return
    the positions of its values when there is none, else None."""
    values = list(map(mapping.get, source.elements))
    images = list(map(target._index.get, values))
    if None not in images:
        return images
    for x, value in zip(source.elements, values):
        if value is None:
            yield UnknownElement(x)
        elif value not in target:
            yield CodomainViolation(x, value)
    return None


def _hom_failures(source: FiniteGroup, target: FiniteGroup, images: list):
    """Yield ``InvalidHomomorphism`` at each pair breaking additivity (``_additive_failures``)."""
    labels = source.elements
    for x, y in _additive_failures(source, images, target._table):
        yield InvalidHomomorphism(labels[x], labels[y])


def _homomorphism(source: FiniteGroup, target: FiniteGroup, images: list) -> Homomorphism:
    """The map of positions, validated for additivity as ``homomorphism`` validates one."""
    _strict(_hom_failures(source, target, images))
    return Homomorphism(source, target, images)


def _map_failures(source: FiniteGroup, target: FiniteGroup, mapping: dict):
    """Yield each broken law of a candidate map; return its images when it is total.

    Totality and codomain come first, in source order; additivity is
    checked, on positions, only when the map is total.
    """
    images = yield from _read_map(source, target, mapping)
    if images is not None:
        yield from _hom_failures(source, target, images)
    return images


def homomorphism(source: FiniteGroup, target: FiniteGroup, mapping: dict) -> Homomorphism:
    """Validate totality, codomain and additivity of a candidate map."""
    return _homomorphism(source, target, _strict(_read_map(source, target, mapping)))


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A right action of ``actor`` on ``space``, (m, p) -> m^p: ``rows[j][i]``
    is the position in ``space`` of m_i^(p_j)."""

    actor: FiniteGroup
    space: FiniteGroup
    rows: list

    def act(self, m: str, p: str) -> str:
        try:
            return self.space.elements[self.rows[self.actor._index[p]][self.space._index[m]]]
        except KeyError:
            raise UnknownElement((m, p)) from None


def _read_action(actor: FiniteGroup, space: FiniteGroup, entries):
    """Yield each missing or foreign entry of an action, actor-major; return its rows of
    positions when there is none, else None.

    ``entries(p)`` lists the labels m^p for m in space order, None where
    one is missing.
    """
    index, rows, total = space._index, [], True
    for p in actor.elements:
        values = entries(p)
        row = list(map(index.get, values))
        if None in row:
            total = False
            for m, value in zip(space.elements, values):
                if value is None:
                    yield InvalidAction("totality", (m, p))
                elif value not in index:
                    yield InvalidAction("codomain", (m, p, value))
        rows.append(row)
    return rows if total else None


def _composition(rows: list, actor_table: list, p: int, s: int):
    """(m^p)^s and m^(p + s), for every m: the composition law along one row."""
    return list(map(rows[s].__getitem__, rows[p])), rows[actor_table[p][s]]


def _additivity(rows: list, space_table: list, n: int, p: int):
    """(m + n)^p and m^p + n^p, for every m: the additivity law along one row."""
    row = rows[p]
    row_n = row[n]
    return [row[r[n]] for r in space_table], [space_table[v][row_n] for v in row]


def _action_law_failures(actor: FiniteGroup, space: FiniteGroup, rows: list):
    """Yield each broken action law of total rows, in the order m^0 = m,
    (m^p)^q = m^(p+q), (m+n)^p = m^p + n^p.

    Given m^0 = m, composition is proved at the rows (p, s), s in the
    actor's generators; given composition, additivity is proved at the
    rows (n, s) for n in 0 and the space's generators (see
    ``_right_generators`` and the module docstring).  A law whose proof
    fails, or whose premise does, is reported in the order of a scan
    over every (m, p, q), respectively (m, n, p), space-major.
    """
    ml, pl = space.elements, actor.elements
    ms, ps = range(len(ml)), range(len(pl))
    unfixed = [m for m, v in enumerate(rows[actor.zero]) if v != m]
    for m in unfixed:
        yield InvalidAction("identity", (ml[m],))
    gens = actor.generators
    composition_holds = not unfixed
    for p, q, m in _failures(partial(_composition, rows, actor._table), product(ps, ps),
                             product(ps, gens) if composition_holds else None,
                             itemgetter(2, 0, 1)):
        composition_holds = False
        yield InvalidAction("composition", (ml[m], pl[p], pl[q]))
    zero_and_gens = (space.zero, *space.generators)
    for n, p, m in _failures(partial(_additivity, rows, space._table), product(ms, ps),
                             product(zero_and_gens, gens) if composition_holds else None,
                             itemgetter(2, 0, 1)):
        yield InvalidAction("additivity", (ml[m], ml[n], pl[p]))


def _group_action_failures(actor: FiniteGroup, space: FiniteGroup, entries):
    """Yield each broken law of an action; return its rows when it is total.

    Totality and codomain come first (``_read_action``); the three action
    laws are checked, on positions, only when the action is total.
    """
    rows = yield from _read_action(actor, space, entries)
    if rows is not None:
        yield from _action_law_failures(actor, space, rows)
    return rows


def _group_action(actor: FiniteGroup, space: FiniteGroup, rows: list) -> GroupAction:
    """The action of total rows of positions, validated as ``group_action`` validates one."""
    _strict(_action_law_failures(actor, space, rows))
    return GroupAction(actor, space, rows)


def group_action(actor: FiniteGroup, space: FiniteGroup, table: dict) -> GroupAction:
    """Validate an action table (m, p) -> m^p: totality, codomain and the three action laws."""
    def entries(p):
        return [table.get((m, p)) for m in space.elements]

    return _group_action(actor, space, _strict(_read_action(actor, space, entries)))


def trivial_action(actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    return _group_action(actor, space, [list(range(len(space)))] * len(actor))


def _semidirect_table(n_table: list, h_table: list, rows: list) -> list[list[int]]:
    """The table of the pairs (n, h) at n |H| + h, with ``rows[h'][n]`` = n^h', under
    (n, h) + (n', h') = (n^h' + n', h + h'); each entry is one shared int object."""
    nh = len(h_table)
    shared = list(range(len(n_table) * nh))
    cells = list(product(range(len(n_table)), range(nh)))
    table = []
    for column in zip(*rows):  # column[h'] = n^h'
        for row_h in h_table:
            table.append([shared[n_table[column[h2]][n2] * nh + row_h[h2]] for n2, h2 in cells])
    return table


def semidirect_product(n_group: FiniteGroup, h_group: FiniteGroup,
                       act: GroupAction) -> FiniteGroup:
    """Semidirect product on pairs (n, h) with (n,h) + (n',h') = (n^h' + n', h + h').

    The twist sits on the left factor so that, for abelian N, the table
    agrees entrywise with the loop vertex group built from the same data.
    For nonabelian N it is not the group G of ``loop.loop_gpd_xmod``, whose N part is m + n^p.
    The table is built on positions and validated by ``FiniteGroup``, as every table is.
    """
    if act.actor is not h_group or act.space is not n_group:
        raise InvalidAction("wiring", ())
    pairs = [(n, h) for n in n_group.elements for h in h_group.elements]
    e = n_group.zero * len(h_group) + h_group.zero
    return FiniteGroup(pairs, _semidirect_table(n_group._table, h_group._table, act.rows), e)


def _displacements(space: FiniteGroup, row: list) -> list[int]:
    """-m^a + m for every m of the space, where ``row[m]`` is the position of m^a."""
    t, inv = space._table, space._inv
    return [t[inv[v]][m] for m, v in enumerate(row)]


def displacement_subgroup(act: GroupAction, a: int) -> Subgroup:
    """Subgroup of the (abelian) space generated by all -m^a + m, for the position a."""
    space, t = act.space, act.space._table
    row = act.rows[_position(act.actor, a)]
    for s, u in product(space.generators, repeat=2):  # see ``FiniteGroup.is_abelian``
        if t[s][u] != t[u][s]:
            raise SpaceNotAbelian(space.elements[s], space.elements[u])
    return subgroup_generated(space, _displacements(space, row))


def _extend(g_table: list, h_table: list, known: dict, gens) -> dict | None:
    """The partial map ``known`` closed under f(x + s) = f(x) + f(s), s in gens, on
    positions: a homomorphism on the subgroup reached (``_right_generators``), or
    None on a conflict or a collision."""
    reached = list(known)
    for x in reached:  # grows while it is walked
        gx, hx = g_table[x], h_table[known[x]]
        for s in gens:
            y, v = gx[s], hx[known[s]]
            if y not in known:
                known[y] = v
                reached.append(y)
            elif known[y] != v:
                return None
    return known if len(set(known.values())) == len(known) else None


def are_isomorphic(g_group: FiniteGroup, h_group: FiniteGroup,
                   max_order: int = DEFAULT_MAX_ISO_ORDER) -> Homomorphism | None:
    """Search for an isomorphism; None is a definitive negative.

    Backtracks over the generators' images: the elements of the same order,
    the one with the same label first, then in target order.  Each greedy
    generator lies outside the subgroup of those before it, and each
    choice is closed at once (``_extend``), so a conflict prunes early.
    """
    if len(g_group) > max_order or len(h_group) > max_order:
        raise SizeLimitExceeded(max(len(g_group), len(h_group)), max_order)
    if len(g_group) != len(h_group):
        return None
    g_orders, h_orders = _orders(g_group), _orders(h_group)
    if Counter(g_orders) != Counter(h_orders):
        return None
    gens, gt, ht = g_group.generators, g_group._table, h_group._table
    by_order: dict[int, list[int]] = {}
    for h, k in enumerate(h_orders):
        by_order.setdefault(k, []).append(h)

    def search(i: int, known: dict) -> dict | None:
        if i == len(gens):
            return known
        g = gens[i]
        same = h_group._index.get(g_group.elements[g])
        for h in sorted(by_order[g_orders[g]], key=lambda h: h != same):
            closed = _extend(gt, ht, {**known, g: h}, gens[:i + 1])
            found = closed and search(i + 1, closed)
            if found:
                return found
        return None

    found = search(0, {g_group.zero: h_group.zero})
    if found is None:
        return None
    return _homomorphism(g_group, h_group, [found[g] for g in range(len(g_group))])
