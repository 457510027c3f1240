"""Laws proved from generators give the same verdicts as plain full scans.

Associativity, the action laws, the homomorphism laws and CM1 and CM2
over a groupoid are certified on generators (Light's test) and compared
in full only when a certificate fails (``groups._failures``).  On
generated valid modules, on single-entry mutants of group tables,
groupoid composition, groupoid and group action tables, homomorphism
maps and morphism maps, and on boundaries that break only CM1 or CM2,
the library must give the verdict and the first witness, or the whole
report list, of the plain definitions below.  Crossed modules over
groupoids are checked on their integer tables (``scan_tables``,
``scan_morphism_tables``), and each verdict's law must also be the one
the written-out validators of ``bruteforce`` give the same module
written out by object and by arrow.
"""

import math
from operator import itemgetter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruteforce import (
    _action_failures,
    _homomorphism_failures,
    check_written_morphism,
    generator_labels,
    label_action,
    label_map,
    make_groupoid,
    make_written_gxm,
    written_out_gxm,
    written_out_maps,
)
from conftest import cyclic, fixture, written, written_out
from test_orbit_properties import (
    PERMUTATION_GENERATORS,
    PROPERTY_SETTINGS,
    crossed_modules,
    permutation_groups,
    sign,
)
from xmodloop.errors import XModError
from xmodloop.groupoids import as_groupoid_xmod, check_morphism, make_gxm
from xmodloop.groups import (
    _failures,
    group_action,
    homomorphism,
    make_group,
    trivial_action,
)
from xmodloop.loop import loop_gpd_xmod
from xmodloop.xmod import make_xmod

# a mutant costs one full scan, so more of them fit in the same time
MUTANT_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=40)
GROUPS = permutation_groups(st.sampled_from(sorted(PERMUTATION_GENERATORS)), "ab01(|)é")


def outcome(build):
    """None if build() succeeds, else (error class, law, witness) of what it raised."""
    try:
        build()
    except XModError as exc:
        return (type(exc).__name__, getattr(exc, "law", None), exc.witness)
    return None


def described(failures):
    return [(type(exc).__name__, getattr(exc, "law", None), exc.witness) for exc in failures]


def small_loop_gxm(x):
    assume(len(x.M) * len(x.P) ** 2 <= 128)
    return loop_gpd_xmod(x)


def some_gxm(x, one_object):
    """x over its one-object groupoid, or its loop groupoid when that is small.

    One object over a cyclic P has a single generator, so a certificate
    that skipped one would check nothing there."""
    return as_groupoid_xmod(x) if one_object else small_loop_gxm(x)


def involution(draw, group):
    """A permutation of the group that fixes 0 and swaps drawn pairs of other elements."""
    rest = draw(st.permutations([g for g in group if g != group.identity]))
    k = draw(st.integers(0, len(rest) // 2))
    tau = {g: g for g in group}
    for a, b in zip(rest[:k], rest[k:2 * k]):
        tau[a], tau[b] = b, a
    return tau


def other(draw, values, current):
    """A value drawn from values, other than current."""
    choices = [v for v in values if v != current]
    assume(choices)
    return draw(st.sampled_from(choices))


def closure(starts, generators, after):
    reached = list(starts)
    for x in reached:  # grows while it is walked
        for s in generators:
            y = after(x, s)
            if y is not None and y not in reached:
                reached.append(y)
    return reached


# -- plain full-scan references ---------------------------------------------


def scan_group(elements, table, identity):
    index = {x: i for i, x in enumerate(elements)}

    def add(x, y):
        return table[index[x]][index[y]]

    for x in elements:
        if add(identity, x) != x or add(x, identity) != x:
            return ("NoIdentity", None, (x,))
    for x in elements:
        if not any(add(x, y) == identity == add(y, x) for y in elements):
            return ("NoInverse", None, (x,))
    for x in elements:
        for y in elements:
            for z in elements:
                if add(add(x, y), z) != add(x, add(y, z)):
                    return ("NotAssociative", None, (x, y, z))
    return None


def scan_groupoid(base, compose):
    """The first broken groupoid law of a written-out base with this composition table."""
    ms, src, tgt, ids = base.morphisms, base.source, base.target, base.identities
    for u in ms:
        if compose[(ids[src[u]], u)] != u or compose[(u, ids[tgt[u]])] != u:
            return ("InvalidGroupoid", "identity-law", (u,))
    for u in ms:
        for v in ms:
            for w in ms:
                if tgt[u] == src[v] and tgt[v] == src[w] and (
                        compose[(compose[(u, v)], w)] != compose[(u, compose[(v, w)])]):
                    return ("InvalidGroupoid", "associativity", (u, v, w))
    for u in ms:
        if not any(tgt[u] == src[v] and compose[(u, v)] == ids[src[u]]
                   and compose[(v, u)] == ids[tgt[u]] for v in ms):
            return ("InvalidGroupoid", "inverse", (u,))
    return None


def scan_gxm(base, fibres, boundary, action):
    base = written_out(base)
    ms, src, tgt, comp = base.morphisms, base.source, base.target, base.compose
    for x in base.objects:
        for m in fibres[x]:
            for n in fibres[x]:
                if boundary[fibres[x].add(m, n)] != comp[(boundary[m], boundary[n])]:
                    return ("InvalidGroupoidXMod", "boundary-hom", (m, n))
    for x in base.objects:
        for m in fibres[x]:
            if action[(m, base.identities[x])] != m:
                return ("InvalidAction", "identity", (m, x))
    for u in ms:
        for v in ms:
            if tgt[u] == src[v]:
                for m in fibres[src[u]]:
                    if action[(action[(m, u)], v)] != action[(m, comp[(u, v)])]:
                        return ("InvalidAction", "composition", (m, u, v))
    for u in ms:
        group, image = fibres[src[u]], fibres[tgt[u]]
        for m in group:
            for n in group:
                if action[(group.add(m, n), u)] != image.add(action[(m, u)], action[(n, u)]):
                    return ("InvalidAction", "additivity", (m, n, u))
    for u in ms:
        for m in fibres[src[u]]:
            if boundary[action[(m, u)]] != comp[(comp[(base.inverses[u], boundary[m])], u)]:
                return ("CM1Violation", None, (m, u))
    for x in base.objects:
        for m in fibres[x]:
            for n in fibres[x]:
                if fibres[x].conj(m, n) != action[(m, boundary[n])]:
                    return ("CM2Violation", None, (m, n))
    return None


def scan_action(actor, space, table):
    report = [("InvalidAction", "identity", (m,)) for m in space
              if table[(m, actor.identity)] != m]
    report += [("InvalidAction", "composition", (m, p, q))
               for m in space for p in actor for q in actor
               if table[(table[(m, p)], q)] != table[(m, actor.add(p, q))]]
    report += [("InvalidAction", "additivity", (m, n, p))
               for m in space for n in space for p in actor
               if table[(space.add(m, n), p)] != space.add(table[(m, p)], table[(n, p)])]
    return report


def scan_homomorphism(source, target, mapping):
    return [("InvalidHomomorphism", None, (x, y)) for x in source for y in source
            if mapping[source.add(x, y)] != target.add(mapping[x], mapping[y])]


def scan_tables(base, fibre, act, boundary):
    """The first broken law of make_gxm on integer tables, by the plain definitions."""
    G, M, objects, ms = base.group, fibre, base.objects, base.morphisms
    gl, ml, nx = G.elements, M.elements, len(objects)

    def gadd(g, h):
        return G.index(G.add(gl[g], gl[h]))

    def madd(s, t):
        return M.index(M.add(ml[s], ml[t]))

    ns, gs = range(len(M)), range(len(G))
    for k, x in enumerate(objects):
        for t, g in enumerate(boundary[k]):
            if base.act[g][k] != k:
                return ("InvalidGroupoidXMod", "boundary-vertex", (ml[t], x, ms[g * nx + k]))
        for s in ns:
            for t in ns:
                if boundary[k][madd(s, t)] != gadd(boundary[k][s], boundary[k][t]):
                    return ("InvalidGroupoidXMod", "boundary-hom", (x, ml[s], ml[t]))
    for t in ns:
        if act[G.index(G.identity)][t] != t:
            return ("InvalidAction", "identity", (ml[t],))
    for g in gs:
        for h in gs:
            for t in ns:
                if act[h][act[g][t]] != act[gadd(g, h)][t]:
                    return ("InvalidAction", "composition", (ml[t], gl[g], gl[h]))
    for g in gs:
        for s in ns:
            for t in ns:
                if act[g][madd(s, t)] != madd(act[g][s], act[g][t]):
                    return ("InvalidAction", "additivity", (ml[s], ml[t], gl[g]))
    for g in gs:
        for k in range(nx):
            for t in ns:
                conjugate = G.conj(gl[boundary[base.act[g][k]][t]], gl[g])
                if boundary[k][act[g][t]] != G.index(conjugate):
                    return ("CM1Violation", None, (ml[t], ms[g * nx + k]))
    for k in range(nx):
        for t in ns:
            for s in ns:
                if act[boundary[k][t]][s] != M.index(M.conj(ml[s], ml[t])):
                    return ("CM2Violation", None, (ml[s], ml[t]))
    return None


def scan_morphism_tables(source, target, group_map, obj_map, fibre_map):
    """check_morphism's report, for maps that are total and keep endpoints."""
    G, H, M, N = source.base.group, target.base.group, source.fibre, target.fibre

    def f(g):
        return H.elements[group_map[G.index(g)]]

    def f2(m):
        return N.elements[fibre_map[M.index(m)]]

    objects = source.base.objects
    report = [("identity", (x,)) for x in objects if f(G.identity) != H.identity]
    report += [("composition", (g, h)) for g in G for h in G
               if f(G.add(g, h)) != H.add(f(g), f(h))]
    report += [("dim2-hom", (m, n)) for m in M for n in M
               if f2(M.add(m, n)) != N.add(f2(m), f2(n))]
    report += [("boundary-square", (x, m)) for k, x in enumerate(objects) for t, m in enumerate(M)
               if group_map[source.boundary[k][t]]
               != target.boundary[obj_map[k]][fibre_map[t]]]
    if report:
        return report
    return [("action-square", (m, g)) for i, g in enumerate(G) for t, m in enumerate(M)
            if fibre_map[source.act[i][t]] != target.act[group_map[i]][fibre_map[t]]]


def assert_written_out_law(gxm, act, boundary, expected):
    """The written-out form of the tables fails the law of expected, or passes with it."""
    form = written_out_gxm(gxm.base, gxm.fibre, act, boundary)
    got = outcome(lambda: make_written_gxm(gxm.base, form.fibres, form.boundary, form.action))
    assert (got and got[:2]) == (expected and expected[:2])


def identity_maps(gxm):
    return (list(range(len(gxm.base.group))), list(range(len(gxm.base.objects))),
            list(range(len(gxm.fibre))))


# -- generators --------------------------------------------------------------


@PROPERTY_SETTINGS
@given(GROUPS)
def test_group_generators_reach_every_element_and_at_most_log2_many(drawn):
    group, _ = drawn
    reached = closure([group.identity], generator_labels(group), group.add)
    assert sorted(reached, key=group.index) == group.elements
    assert len(group.generators) <= math.log2(len(group))


@PROPERTY_SETTINGS
@given(crossed_modules())
def test_groupoid_generators_reach_every_morphism(x):
    base = written_out(small_loop_gxm(x).base)
    reached = closure(base.identities.values(), base.generators, base.composite)
    assert set(reached) == set(base.morphisms)


# -- valid inputs ------------------------------------------------------------


@PROPERTY_SETTINGS
@given(crossed_modules())
def test_valid_modules_pass_every_certificate(x):
    gxm = small_loop_gxm(x)
    base = gxm.base
    tables = written_out(base)
    assert scan_groupoid(tables, tables.compose) is None
    form = written(gxm)
    assert scan_gxm(base, form.fibres, form.boundary, form.action) is None
    assert scan_tables(base, gxm.fibre, gxm.act, gxm.boundary) is None
    assert list(_action_failures(x.P, x.M, label_action(x.action))) == []
    assert list(_homomorphism_failures(x.M, x.P, label_map(x.delta))) == []
    assert check_morphism(gxm, gxm, *identity_maps(gxm)) == []
    assert check_written_morphism(form, form, *written_out_maps(form, form,
                                                               *identity_maps(gxm))) == []


# -- single-entry mutants ----------------------------------------------------


@MUTANT_SETTINGS
@given(st.data())
def test_group_table_mutant_matches_full_scan(data):
    group, _ = data.draw(GROUPS)
    elements = group.elements
    table = [[group.add(x, y) for y in elements] for x in elements]
    i = data.draw(st.integers(0, len(elements) - 1))
    j = data.draw(st.integers(0, len(elements) - 1))
    table[i][j] = other(data.draw, elements, table[i][j])
    expected = scan_group(elements, table, group.identity)
    assert expected is not None
    assert outcome(lambda: make_group(elements, table, group.identity)) == expected


@MUTANT_SETTINGS
@given(st.data())
def test_group_table_mutant_off_the_identity_is_not_associative(data):
    # off the identity's row, column and entries the identity and inverse
    # laws survive, so only the associativity certificate can catch it
    group, _ = data.draw(GROUPS)
    elements = group.elements
    table = [[group.add(x, y) for y in elements] for x in elements]
    e = group.index(group.identity)
    cells = [(i, j) for i in range(len(elements)) for j in range(len(elements))
             if e not in (i, j) and table[i][j] != group.identity]
    assume(cells)
    i, j = data.draw(st.sampled_from(cells))
    table[i][j] = other(data.draw, [x for x in elements if x != group.identity], table[i][j])
    expected = scan_group(elements, table, group.identity)
    assert expected[0] == "NotAssociative"
    assert outcome(lambda: make_group(elements, table, group.identity)) == expected


@MUTANT_SETTINGS
@given(crossed_modules(), st.data(), st.booleans())
def test_groupoid_compose_mutant_matches_full_scan(x, data, one_object):
    base = written_out(some_gxm(x, one_object).base)
    u, v = data.draw(st.sampled_from(sorted(base.compose, key=repr)))
    w = base.compose[(u, v)]
    compose = dict(base.compose)
    compose[(u, v)] = other(data.draw, [t for t in base.morphisms if base.source[t] ==
                                        base.source[w] and base.target[t] == base.target[w]], w)
    expected = scan_groupoid(base, compose)
    assert expected is not None
    assert outcome(lambda: make_groupoid(base.objects, base.morphisms, base.source,
                                         base.target, compose, base.identities)) == expected


@MUTANT_SETTINGS
@given(crossed_modules(), st.data(), st.booleans())
def test_gxm_action_mutant_matches_full_scan(x, data, one_object):
    gxm = some_gxm(x, one_object)
    base, fibre = gxm.base, gxm.fibre
    g = data.draw(st.integers(0, len(base.group) - 1))
    t = data.draw(st.integers(0, len(fibre) - 1))
    act = [list(row) for row in gxm.act]
    act[g][t] = other(data.draw, range(len(fibre)), act[g][t])
    expected = scan_tables(base, fibre, act, gxm.boundary)
    assert expected is not None
    assert outcome(lambda: make_gxm(base, fibre, act, gxm.boundary)) == expected
    assert_written_out_law(gxm, act, gxm.boundary, expected)


@MUTANT_SETTINGS
@given(crossed_modules(), st.data(), st.booleans())
def test_gxm_boundary_mutant_matches_full_scan(x, data, one_object):
    gxm = some_gxm(x, one_object)
    base = gxm.base
    k = data.draw(st.integers(0, len(base.objects) - 1))
    t = data.draw(st.integers(0, len(gxm.fibre) - 1))
    boundary = [list(row) for row in gxm.boundary]
    vertex = [g for g, row in enumerate(base.act) if row[k] == k]
    boundary[k][t] = other(data.draw, vertex, boundary[k][t])
    expected = scan_tables(base, gxm.fibre, gxm.act, boundary)
    assert outcome(lambda: make_gxm(base, gxm.fibre, gxm.act, boundary)) == expected
    assert_written_out_law(gxm, gxm.act, boundary, expected)


@MUTANT_SETTINGS
@given(crossed_modules(), st.data())
def test_group_action_mutant_report_matches_full_scan(x, data):
    table = dict(label_action(x.action))
    m, p = data.draw(st.sampled_from(sorted(table, key=repr)))
    table[(m, p)] = other(data.draw, x.M.elements, table[(m, p)])
    expected = scan_action(x.P, x.M, table)
    assert expected
    assert described(_action_failures(x.P, x.M, table)) == expected


@MUTANT_SETTINGS
@given(crossed_modules(), st.data())
def test_homomorphism_mutant_report_matches_full_scan(x, data):
    mapping = dict(label_map(x.delta))
    m = data.draw(st.sampled_from(x.M.elements))
    mapping[m] = other(data.draw, x.P.elements, mapping[m])
    expected = scan_homomorphism(x.M, x.P, mapping)  # may be empty: 0 -> 1 in C2 -> C2
    assert described(_homomorphism_failures(x.M, x.P, mapping)) == expected


@MUTANT_SETTINGS
@given(crossed_modules(), st.data(), st.booleans(), st.booleans())
def test_check_morphism_mutant_report_matches_full_scan(x, data, one_object, on_morphisms):
    gxm = some_gxm(x, one_object)
    base = gxm.base
    group_map, obj_map, fibre_map = identity_maps(gxm)
    if on_morphisms:
        # another element with the same action on the objects keeps endpoints
        g = data.draw(st.integers(0, len(base.group) - 1))
        group_map[g] = other(data.draw, [h for h, row in enumerate(base.act)
                                         if row == base.act[g]], g)
    else:
        t = data.draw(st.integers(0, len(gxm.fibre) - 1))
        fibre_map[t] = other(data.draw, range(len(gxm.fibre)), t)
    report = check_morphism(gxm, gxm, group_map, obj_map, fibre_map)
    assert [(v.kind, v.witness) for v in report] == scan_morphism_tables(
        gxm, gxm, group_map, obj_map, fibre_map)
    form = written(gxm)
    old = check_written_morphism(form, form, *written_out_maps(form, form, group_map,
                                                               obj_map, fibre_map))
    assert list(dict.fromkeys(v.kind for v in report)) == list(dict.fromkeys(
        v.kind for v in old))


# -- inputs that keep every law but additivity -------------------------------
# Conjugating an action by a permutation tau of the fibres that fixes 0
# keeps m^0 = m and (m^u)^v = m^(u+v); additivity holds only if tau is
# additive enough.  Single-entry mutants break composition first, so
# these are what exercise the additivity certificates.


@MUTANT_SETTINGS
@given(crossed_modules(), st.data())
def test_twisted_group_action_report_matches_full_scan(x, data):
    tau = involution(data.draw, x.M)
    table = {(m, p): tau[x.act(tau[m], p)] for m in x.M for p in x.P}
    assert described(_action_failures(x.P, x.M, table)) == scan_action(x.P, x.M, table)


@MUTANT_SETTINGS
@given(crossed_modules(), st.data(), st.booleans())
def test_twisted_gxm_action_matches_full_scan(x, data, one_object):
    gxm = some_gxm(x, one_object)
    fibre = gxm.fibre
    tau = involution(data.draw, fibre)
    swap = [fibre.index(tau[m]) for m in fibre]
    act = [[swap[row[swap[t]]] for t in range(len(fibre))] for row in gxm.act]
    expected = scan_tables(gxm.base, fibre, act, gxm.boundary)
    assert outcome(lambda: make_gxm(gxm.base, fibre, act, gxm.boundary)) == expected
    assert_written_out_law(gxm, act, gxm.boundary, expected)


@MUTANT_SETTINGS
@given(GROUPS)
def test_translation_action_reports_additivity_like_full_scan(drawn):
    # m^p = m + p composes but is not additive, in the group and over one object
    group, _ = drawn
    table = {(m, p): group.add(m, p) for m in group for p in group}
    assert described(_action_failures(group, group, table)) == scan_action(group, group, table)
    identity = homomorphism(group, group, {g: g for g in group})
    conjugation = group_action(group, group, {(m, p): group.conj(m, p)
                                              for m in group for p in group})
    gxm = as_groupoid_xmod(make_xmod(group, group, identity, conjugation))
    act = [[group.index(group.add(m, p)) for m in group] for p in group]
    expected = scan_tables(gxm.base, gxm.fibre, act, gxm.boundary)
    assert expected[1] == "additivity"
    assert outcome(lambda: make_gxm(gxm.base, gxm.fibre, act, gxm.boundary)) == expected
    assert_written_out_law(gxm, act, gxm.boundary, expected)


# -- identity failures: the certificates' base case is gone ------------------


def test_action_of_trivial_actor_with_broken_identity_reports_every_failure():
    one, c3 = cyclic(1), cyclic(3)
    table = {("0", "0"): "1", ("1", "0"): "2", ("2", "0"): "0"}
    expected = scan_action(one, c3, table)
    assert {law for _, law, _ in expected} == {"identity", "composition", "additivity"}
    assert described(_action_failures(one, c3, table)) == expected


def test_identity_broken_at_an_object_without_generators_reports_composition():
    source = as_groupoid_xmod(fixture("triv"))  # one object, one morphism: no generators
    target = as_groupoid_xmod(fixture("inc24"))
    assert written_out(source.base).generators == ()
    maps = ([target.base.group.index("1")], [0], [0])
    report = [(v.kind, v.witness) for v in check_morphism(source, target, *maps)]
    assert ("composition", ("0", "0")) in report
    assert report == scan_morphism_tables(source, target, *maps)


def test_morphism_breaking_only_action_square_reports_each_failing_pair():
    # identities onto the same groups with the trivial action: delta = 0 and
    # C3 is abelian, so the target is a crossed module, and only the action
    # of "1" (inversion on C3) fails to square
    x = fixture("mod32")
    source = as_groupoid_xmod(x)
    target = as_groupoid_xmod(make_xmod(x.M, x.P, x.delta, trivial_action(x.P, x.M)))
    maps = identity_maps(source)
    report = [(v.kind, v.witness) for v in check_morphism(source, target, *maps)]
    assert report == [("action-square", ("1", "1")), ("action-square", ("2", "1"))]
    assert report == scan_morphism_tables(source, target, *maps)


# -- the one place a proof gates a scan --------------------------------------


def untouchable():
    raise AssertionError("the scan was iterated")
    yield


def test_failures_with_a_passing_proof_never_scans():
    def sides(x):
        return [x % 3 != 0] * 2, [True, True]

    assert list(_failures(sides, untouchable(), [(1,), (2,), (4,)])) == []


def test_failures_with_a_failing_or_missing_proof_reports_every_failure_in_scan_order():
    def sides(x):  # row x, column y: the law (x + y) % 3 != 0
        return [(x + y) % 3 != 0 for y in range(4)], [True] * 4

    rows = [(x,) for x in range(4)]
    expected = [(0, 0), (0, 3), (1, 2), (2, 1), (3, 0), (3, 3)]
    assert list(_failures(sides, iter(rows), [(1,), (2,)])) == expected
    assert list(_failures(sides, iter(rows), None)) == expected
    assert list(_failures(sides, iter(rows))) == expected
    by_column = sorted(expected, key=lambda t: (t[1], t[0]))
    assert list(_failures(sides, iter(rows), [(1,)], itemgetter(1, 0))) == by_column


# -- boundaries that keep boundary-hom and the action laws -------------------
# Composing the boundary at one object with an inner automorphism of its
# vertex group, or replacing it by the zero boundary there, leaves a
# homomorphism into the vertex group and the action untouched, so only
# the CM1 and CM2 proofs stand between such an input and acceptance.


def reboundary(gxm, k, g):
    """gxm's boundary with -g + d(m) + g at object x_k, or 0 there when g is None."""
    G = gxm.base.group
    boundary = [list(row) for row in gxm.boundary]
    boundary[k] = ([G.index(G.identity)] * len(gxm.fibre) if g is None else
                   [G.index(G.conj(G.elements[b], G.elements[g])) for b in boundary[k]])
    return boundary


def assert_cm_verdict_matches_full_scan(gxm, boundary):
    expected = scan_tables(gxm.base, gxm.fibre, gxm.act, boundary)
    assert expected is None or expected[0] in ("CM1Violation", "CM2Violation")
    assert outcome(lambda: make_gxm(gxm.base, gxm.fibre, gxm.act, boundary)) == expected
    assert_written_out_law(gxm, gxm.act, boundary, expected)


@PROPERTY_SETTINGS
@given(GROUPS)
def test_conjugation_module_with_every_twisted_or_zero_boundary_matches_full_scan(drawn):
    # over one object of a nonabelian group, twisting by a generator s keeps
    # CM1 at s and breaks it at the generators that do not commute with s
    group, _ = drawn
    identity = homomorphism(group, group, {g: g for g in group})
    conjugation = group_action(group, group, {(m, p): group.conj(m, p)
                                              for m in group for p in group})
    gxm = as_groupoid_xmod(make_xmod(group, group, identity, conjugation))
    for g in (None, *range(len(group))):
        assert_cm_verdict_matches_full_scan(gxm, reboundary(gxm, 0, g))


@MUTANT_SETTINGS
@given(crossed_modules(), st.data(), st.booleans())
def test_boundary_that_breaks_only_cm1_or_cm2_matches_full_scan(x, data, one_object):
    gxm = some_gxm(x, one_object)
    k = data.draw(st.integers(0, len(gxm.base.objects) - 1))
    vertex = [g for g, row in enumerate(gxm.base.act) if row[k] == k]
    g = data.draw(st.sampled_from([None, *vertex]))
    assert_cm_verdict_matches_full_scan(gxm, reboundary(gxm, k, g))


@PROPERTY_SETTINGS
@given(permutation_groups(st.sampled_from(["C4", "C6"]), "ab01(|)é"))
def test_parity_boundary_under_inversion_breaks_only_cm2_like_full_scan(drawn):
    # C2 inverts the even cyclic group M; the zero boundary makes a crossed
    # module, the parity map M -> C2 keeps CM1 and breaks CM2 at odd n, so
    # the failure can sit at a single fibre generator
    group, perm_of = drawn
    c2 = cyclic(2)
    inversion = group_action(c2, group, {(m, p): group.neg(m) if p != c2.identity else m
                                         for m in group for p in c2})
    zero = homomorphism(group, c2, {m: c2.identity for m in group})
    gxm = as_groupoid_xmod(make_xmod(group, c2, zero, inversion))
    parity = [[sign(perm_of[m]) for m in group]]
    assert scan_tables(gxm.base, gxm.fibre, gxm.act, parity)[0] == "CM2Violation"
    assert_cm_verdict_matches_full_scan(gxm, parity)
