"""The source-indexed law checks report the same first witness as a full scan.

Each reference below is the plain definition: it walks every pair or
triple of morphisms and filters for composability.  The library walks
only the source index, so on hand-broken inputs with several objects
both must stop at the same tuple.

The table checks of make_groupoid and make_gxm walk the composable pairs
(or the expected action keys) once, but their witness is the first bad
entry in the order of the given table.  The tables below list their
entries in reverse, so that the first failure met by a walk over the
pairs is not the one reported.  The composition tables are the loop
groupoid's lookups written out (``conftest.written_out``).
"""

import pytest

from bruteforce import make_groupoid
from conftest import fixture, written_out
from xmodloop.errors import InvalidAction, InvalidGroupoid, InvalidGroupoidXMod
from xmodloop.groupoids import check_morphism, make_gxm
from xmodloop.loop import loop_gpd_xmod


def multi_object_loop_gxm():
    """The loop groupoid of C2 -> C4: 4 objects, 32 morphisms, 2 components."""
    gxm = loop_gpd_xmod(fixture("inc24"))
    assert len(gxm.base.objects) == 4
    assert any(gxm.base.source(u) != gxm.base.target(u) for u in gxm.base.morphisms)
    return gxm


def rebuild(base, compose):
    """make_groupoid on a written-out base with another composition table."""
    return make_groupoid(base.objects, base.morphisms, base.source, base.target,
                         compose, base.identities)


def parallel_other(base, w):
    """The first morphism other than w with the same source and target."""
    return next(u for u in base.morphisms if u != w
                and base.source[u] == base.source[w] and base.target[u] == base.target[w])


def full_scan_associativity(base, compose):
    ms = base.morphisms
    for u in ms:
        for v in ms:
            if base.target[u] != base.source[v]:
                continue
            for w in ms:
                if base.target[v] != base.source[w]:
                    continue
                if compose[(compose[(u, v)], w)] != compose[(u, compose[(v, w)])]:
                    return (u, v, w)
    return None


def full_scan_identity_law(base, compose):
    for u in base.morphisms:
        if (compose[(base.identities[base.source[u]], u)] != u
                or compose[(u, base.identities[base.target[u]])] != u):
            return (u,)
    return None


def full_scan_action_composition(base, fibres, action):
    for u in base.morphisms:
        for v in base.morphisms:
            if base.target[u] != base.source[v]:
                continue
            for m in fibres[base.source[u]]:
                if action[(action[(m, u)], v)] != action[(m, base.compose[(u, v)])]:
                    return (m, u, v)
    return None


def full_scan_morphism_composition(base, mor_map):
    """Every failing pair of an endomorphism of `base`, in scan order."""
    witnesses = []
    for u in base.morphisms:
        for v in base.morphisms:
            if base.target[u] != base.source[v]:
                continue
            if mor_map[base.compose[(u, v)]] != base.compose[(mor_map[u], mor_map[v])]:
                witnesses.append((u, v))
    return witnesses


def test_associativity_witness_matches_full_scan():
    base = written_out(multi_object_loop_gxm().base)
    identities = set(base.identities.values())
    u, v = next((u, v) for (u, v) in base.compose
                if u not in identities and v not in identities
                and base.source[u] != base.target[u])
    compose = dict(base.compose)
    compose[(u, v)] = parallel_other(base, compose[(u, v)])
    expected = full_scan_associativity(base, compose)
    assert expected is not None
    with pytest.raises(InvalidGroupoid) as info:
        rebuild(base, compose)
    assert info.value.law == "associativity"
    assert info.value.witness == expected


def test_identity_law_witness_matches_full_scan():
    base = written_out(multi_object_loop_gxm().base)
    identities = set(base.identities.values())
    # break the left identity law at the last non-identity morphism, so the
    # witness is not simply the first morphism
    u = [u for u in base.morphisms if u not in identities][-1]
    compose = dict(base.compose)
    compose[(base.identities[base.source[u]], u)] = parallel_other(base, u)
    expected = full_scan_identity_law(base, compose)
    assert expected == (u,)
    with pytest.raises(InvalidGroupoid) as info:
        rebuild(base, compose)
    assert info.value.law == "identity-law"
    assert info.value.witness == expected


def test_missing_inverse_witness_on_two_objects():
    # the arrow category x -> y: every groupoid law but inverses holds
    objects = ("x", "y")
    morphisms = ("ex", "f", "ey")
    source = {"ex": "x", "f": "x", "ey": "y"}
    target = {"ex": "x", "f": "y", "ey": "y"}
    compose = {("ex", "ex"): "ex", ("ex", "f"): "f", ("f", "ey"): "f", ("ey", "ey"): "ey"}
    with pytest.raises(InvalidGroupoid) as info:
        make_groupoid(objects, morphisms, source, target, compose, {"x": "ex", "y": "ey"})
    assert info.value.law == "inverse"
    assert info.value.witness == ("f",)


def test_action_composition_witness_matches_full_scan():
    gxm = multi_object_loop_gxm()
    base = written_out(gxm.base)
    identities = set(base.identities.values())
    u = next(u for u in base.morphisms
             if u not in identities and base.source[u] != base.target[u])
    m = gxm.fibres[base.source[u]].elements[0]
    action = dict(gxm.action)
    image = action[(m, u)]
    action[(m, u)] = next(n for n in gxm.fibres[base.target[u]] if n != image)
    expected = full_scan_action_composition(base, gxm.fibres, action)
    assert expected is not None
    with pytest.raises(InvalidAction) as info:
        make_gxm(gxm.base, gxm.fibres, gxm.boundary, action)
    assert info.value.law == "composition"
    assert info.value.witness == expected


def test_check_morphism_composition_report_matches_full_scan():
    gxm = multi_object_loop_gxm()
    base = written_out(gxm.base)
    identities = set(base.identities.values())
    boundary_values = set(gxm.boundary.values())
    u = next(u for u in base.morphisms if u not in identities
             and u not in boundary_values and base.source[u] != base.target[u])
    mor_map = {w: w for w in base.morphisms}
    mor_map[u] = parallel_other(base, u)
    dim2_map = {m: m for m in gxm.all_fibre_elements()}
    report = check_morphism(gxm, gxm, {x: x for x in base.objects}, mor_map, dim2_map)
    expected = full_scan_morphism_composition(base, mor_map)
    assert len(expected) > 1
    assert [v.kind for v in report] == ["composition"] * len(expected)
    assert [v.witness for v in report] == expected


def test_source_index_partitions_morphisms_in_order(any_xmod):
    # star, before and vertex_morphisms are computed from the action table;
    # each must list exactly the morphisms the plain filter finds, in order
    base = loop_gpd_xmod(any_xmod).base
    indexed = [u for x in base.objects for u in base.star(x)]
    assert sorted(indexed) == sorted(base.morphisms)
    for x in base.objects:
        leaving = [u for u in base.morphisms if base.source(u) == x]
        assert base.star(x) == leaving
        into = [u for u in base.morphisms if base.target(u) == x]
        for v in base.star(x):
            assert base.before(v) == [(u, base.compose(u, v)) for u in into]
        assert base.vertex_morphisms(x) == [u for u in leaving if base.target(u) == x]
        assert base.stabiliser(x) == [u[:2] for u in base.vertex_morphisms(x)]


def broken_twice(table, early, late, early_value, late_value):
    """A copy of the table listed in reverse, with two entries replaced."""
    table = dict(table)
    table[early], table[late] = early_value, late_value
    return dict(reversed(list(table.items())))


def two_pairs(base):
    """An early and a late composable pair, in the order of the composable pairs."""
    pairs = list(base.compose)
    return pairs[1], pairs[-2]


def test_composition_endpoints_witness_is_first_in_compose_order():
    base = written_out(multi_object_loop_gxm().base)
    early, late = two_pairs(base)

    def wrong_source(pair):
        w = base.compose[pair]
        return next(u for u in base.morphisms if base.source[u] != base.source[w]
                    and base.target[u] == base.target[w])

    compose = broken_twice(base.compose, early, late, wrong_source(early), wrong_source(late))
    with pytest.raises(InvalidGroupoid) as info:
        rebuild(base, compose)
    assert info.value.law == "composition-endpoints"
    assert info.value.witness == (*late, compose[late])


def test_composite_outside_the_morphisms_is_first_in_compose_order():
    base = written_out(multi_object_loop_gxm().base)
    early, late = two_pairs(base)
    compose = broken_twice(base.compose, early, late, "early", "late")
    with pytest.raises(InvalidGroupoid) as info:
        rebuild(base, compose)
    assert info.value.law == "composition-endpoints"
    assert info.value.witness == (*late, "late")


def test_missing_pair_with_the_right_key_count_reports_the_extra_key():
    base = written_out(multi_object_loop_gxm().base)
    early, late = two_pairs(base)
    compose = dict(base.compose)
    del compose[early]
    extra = next((v, u) for u in base.morphisms for v in base.morphisms
                 if (v, u) not in base.compose)
    compose[extra] = base.compose[late]
    assert len(compose) == len(base.compose)
    with pytest.raises(InvalidGroupoid) as info:
        rebuild(base, compose)
    assert info.value.law == "composition-domain"
    assert info.value.witness == extra


def action_keys(gxm):
    """An early and a late key of the action, in the order of the action table."""
    keys = list(gxm.action)
    return keys[1], keys[-2]


def outside_fibre(gxm, key):
    """A fibre element that is not in the fibre of the target of key's morphism."""
    m, u = key
    return next(n for n in gxm.all_fibre_elements()
                if n not in gxm.fibres[gxm.base.target(u)])


def test_action_value_outside_its_fibre_is_first_in_action_order():
    gxm = multi_object_loop_gxm()
    early, late = action_keys(gxm)
    action = broken_twice(gxm.action, early, late,
                          outside_fibre(gxm, early), outside_fibre(gxm, late))
    with pytest.raises(InvalidGroupoidXMod) as info:
        make_gxm(gxm.base, gxm.fibres, gxm.boundary, action)
    assert info.value.law == "action-codomain"
    assert info.value.witness == (*late, action[late])


def test_missing_action_key_with_the_right_key_count_reports_the_extra_key():
    gxm = multi_object_loop_gxm()
    early, late = action_keys(gxm)
    action = dict(gxm.action)
    del action[early]
    extra = (outside_fibre(gxm, late), late[1])
    assert extra not in gxm.action
    action[extra] = gxm.action[late]
    assert len(action) == len(gxm.action)
    with pytest.raises(InvalidGroupoidXMod) as info:
        make_gxm(gxm.base, gxm.fibres, gxm.boundary, action)
    assert info.value.law == "action-domain"
    assert info.value.witness == extra
