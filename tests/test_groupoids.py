import os
import subprocess
import sys
from pathlib import Path

import pytest

import xmodloop
from conftest import written_out
from xmodloop import fixtures
from xmodloop.errors import (
    InvalidGroupoid,
    InvalidGroupoidXMod,
    NotClosed,
    UnknownElement,
    UnknownObject,
)
from xmodloop.groups import are_isomorphic, make_group
from xmodloop.groupoids import (
    action_groupoid,
    as_groupoid_xmod,
    check_morphism,
    is_fibration,
    make_groupoid,
    make_gxm,
    make_gxm_morphism,
    pi0,
    pi1_at,
    pi2_at,
    restrict,
    restrict_to_object,
    vertex_group,
)
from xmodloop.loop import loop_gpd_xmod
from xmodloop.xmod import check_axioms, homotopy


def one_object_groupoid(group, obj="*"):
    return action_groupoid(group, (obj,), [[0] for _ in group], group.elements)


def two_component_groupoid():
    """C2 = {e, t} fixing x and swapping y and z: C2 at x, a lone identity at y and z.

    The arrow (g, w) goes from g.w to w; (t, y) is "ty": z -> y.
    """
    return action_groupoid(fixtures.cyclic(2), ("x", "y", "z"), [[0, 1, 2], [0, 2, 1]],
                           ("ex", "ey", "ez", "tx", "ty", "tz"))


def trivial_fibres(groupoid, tag=""):
    fibres = {}
    boundary = {}
    for obj in groupoid.objects:
        name = f"0{tag}{obj}"
        fibres[obj] = make_group([name], [[name]], name)
        boundary[name] = groupoid.identity(obj)
    action = {}
    for u in groupoid.morphisms:
        src = next(iter(fibres[groupoid.source(u)].elements))
        tgt = next(iter(fibres[groupoid.target(u)].elements))
        action[(src, u)] = tgt
    return fibres, boundary, action


def test_vertex_group_of_one_object_groupoid_is_the_group():
    s3 = fixtures.sym3()
    g = one_object_groupoid(s3)
    v = vertex_group(g, "*")
    assert v.elements == s3.elements
    assert v.add("r", "s") == s3.add("r", "s")


def test_vertex_group_unknown_object():
    g = one_object_groupoid(fixtures.cyclic(2))
    with pytest.raises(UnknownObject):
        vertex_group(g, "nope")


def test_two_component_groupoid_pi0():
    g = two_component_groupoid()
    fibres, boundary, action = trivial_fibres(g)
    gxm = make_gxm(g, fibres, boundary, action)
    assert pi0(gxm) == [["x"], ["y", "z"]]
    assert vertex_group(g, "x").elements == ["ex", "tx"]
    assert vertex_group(g, "y").elements == ["ey"]
    assert (g.source("ty"), g.target("ty"), g.compose("ty", "tz")) == ("z", "y", "ez")


def test_groupoid_rejects_broken_composition_domain():
    g = written_out(two_component_groupoid())
    compose = dict(g.compose)
    compose[("ex", "ey")] = "ex"  # not composable
    with pytest.raises(InvalidGroupoid):
        make_groupoid(g.objects, g.morphisms, g.source, g.target, compose, g.identities)


DOMAIN_WITNESSES = """
from xmodloop.errors import XModError
from xmodloop.groups import make_group
from xmodloop.groupoids import action_groupoid, make_groupoid, make_gxm

c3 = make_group("abc", ["abc", "bca", "cab"], "a")
c2 = make_group("01", ["01", "10"], "0")
ends = {u: "*" for u in c3}
compose = {(u, v): c3.add(u, v) for u in c3 for v in c3}
for pair in (("a", "b"), ("c", "a"), ("b", "c")):
    del compose[pair]
try:
    make_groupoid(("*",), "abc", ends, ends, compose, {"*": "a"})
except XModError as exc:
    print(exc.witness)
base = action_groupoid(c3, ("*",), [[0]] * 3, "abc")
action = {(m, u): m for u in c3 for m in c2}
for pair in (("1", "c"), ("0", "b"), ("1", "b")):
    del action[pair]
try:
    make_gxm(base, {"*": c2}, {m: "a" for m in c2}, action)
except XModError as exc:
    print(exc.witness)
"""


def test_domain_witnesses_do_not_depend_on_the_hash_seed():
    # the first missing pair in morphism order, whatever order the sets iterate in
    src = str(Path(xmodloop.__file__).resolve().parents[1])
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", DOMAIN_WITNESSES], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines() == ["('a', 'b')", "('0', 'b')"], seed


def test_domain_witness_is_the_first_extra_key_when_the_key_count_is_right():
    # one pair swapped for a key that is not composable: as many keys as pairs
    g = written_out(two_component_groupoid())
    compose = dict(g.compose)
    del compose[("tx", "tx")]
    compose[("ex", "ey")] = "ex"
    with pytest.raises(InvalidGroupoid) as info:
        make_groupoid(g.objects, g.morphisms, g.source, g.target, compose, g.identities)
    assert info.value.witness == ("ex", "ey")
    gxm = as_groupoid_xmod(fixtures.inc24())
    action = dict(gxm.action)
    del action[next(iter(action))]
    action[("2", "0")] = "0"
    with pytest.raises(InvalidGroupoidXMod) as info:
        make_gxm(gxm.base, gxm.fibres, gxm.boundary, action)
    assert info.value.witness == ("2", "0")


def test_groupoid_rejects_missing_inverse():
    # a three-element "monoid" row that is not a groupoid
    objects = ("x",)
    morphisms = ("e", "t")
    source = {"e": "x", "t": "x"}
    target = dict(source)
    compose = {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "t"}
    with pytest.raises(InvalidGroupoid):
        make_groupoid(objects, morphisms, source, target, compose, {"x": "e"})


def test_one_object_wrap_matches_xmod_homotopy(any_xmod):
    x = any_xmod
    gxm = as_groupoid_xmod(x)
    data = homotopy(x)
    assert are_isomorphic(pi1_at(gxm, "*"), data.pi1) is not None
    assert are_isomorphic(pi2_at(gxm, "*"), data.pi2) is not None


def test_restrict_one_object_wrap_recovers_the_crossed_module(any_xmod):
    x = any_xmod
    restricted = restrict_to_object(as_groupoid_xmod(x), "*")
    assert check_axioms(restricted) == []
    assert restricted.M.elements == x.M.elements
    assert restricted.P.elements == x.P.elements


def test_identity_morphism_is_a_fibration():
    x = fixtures.mod32()
    gxm = as_groupoid_xmod(x)
    f = make_gxm_morphism(gxm, gxm,
                          {"*": "*"},
                          {u: u for u in gxm.base.morphisms},
                          {m: m for m in gxm.all_fibre_elements()})
    assert is_fibration(f) == []


def test_vertex_inclusion_fails_star_surjectivity():
    target_base = two_component_groupoid()
    target_fibres, target_boundary, target_action = trivial_fibres(target_base, tag="t")
    target = make_gxm(target_base, target_fibres, target_boundary, target_action)

    source_base = one_object_groupoid(fixtures.cyclic(1), "x")
    source_fibres, source_boundary, source_action = trivial_fibres(source_base, tag="s")
    source = make_gxm(source_base, source_fibres, source_boundary, source_action)

    f = make_gxm_morphism(source, target, {"x": "x"}, {"0": "ex"}, {"0sx": "0tx"})
    report = is_fibration(f)
    assert any(v.kind == "star-surjectivity" and v.witness == ("x", "tx") for v in report)


def test_morphism_validation_catches_wrong_identity_image():
    x = fixtures.inc24()
    gxm = as_groupoid_xmod(x)
    report = check_morphism(gxm, gxm, {"*": "*"},
                            {u: "1" for u in gxm.base.morphisms},
                            {m: m for m in gxm.all_fibre_elements()})
    assert report


def test_bad_dim2_image_does_not_hide_later_fibres():
    # loop groupoid of C2 -> C4: one unmapped fibre element at object 0, and
    # the two elements of the fibre at object 3 swapped
    gxm = loop_gpd_xmod(fixtures.inc24())
    base = gxm.base
    dim2_map = {m: m for m in gxm.all_fibre_elements()}
    dim2_map[("1", "0")] = ("1", "1")
    dim2_map[("0", "3")], dim2_map[("1", "3")] = ("1", "3"), ("0", "3")
    report = check_morphism(gxm, gxm, {x: x for x in base.objects},
                            {u: u for u in base.morphisms}, dim2_map)
    assert [(v.kind, v.witness) for v in report] == [
        ("dim2-map", (("1", "0"),)),
        ("dim2-hom", (("0", "3"), ("0", "3"))),
        ("dim2-hom", (("0", "3"), ("1", "3"))),
        ("dim2-hom", (("1", "3"), ("0", "3"))),
        ("dim2-hom", (("1", "3"), ("1", "3"))),
        ("boundary-square", (("0", "3"),)),
        ("boundary-square", (("1", "3"),)),
    ]


def test_pi_at_constant_on_components(any_xmod):
    gxm = loop_gpd_xmod(any_xmod)
    for block in pi0(gxm):
        head = block[0]
        pi1_head, pi2_head = pi1_at(gxm, head), pi2_at(gxm, head)
        for other in block[1:]:
            assert are_isomorphic(pi1_at(gxm, other), pi1_head) is not None
            assert are_isomorphic(pi2_at(gxm, other), pi2_head) is not None


def test_restrict_to_object_is_always_a_valid_crossed_module(any_xmod):
    gxm = loop_gpd_xmod(any_xmod)
    for a in gxm.base.objects:
        restricted = restrict_to_object(gxm, a)
        assert check_axioms(restricted) == []


def test_restrict_rejects_a_morphism_set_not_closed_under_composition():
    # the arrows of (0, 0) and (0, 1) at 0: (0, 1) has no inverse among them
    gxm = loop_gpd_xmod(fixtures.inc24())
    kept = [("0", "0"), ("0", "1")]
    with pytest.raises(NotClosed) as info:
        restrict(gxm, kept, {"0": gxm.fibres["0"]})
    assert info.value.witness == (("0", "1"), "-('0', '1')", ("0", "3"))


def test_restrict_rejects_objects_the_subgroup_moves():
    # (1, 0) sends 0 to 0 + delta(1) = 2, outside the kept objects
    gxm = loop_gpd_xmod(fixtures.inc24())
    with pytest.raises(InvalidGroupoid) as info:
        restrict(gxm, [("1", "0")], {"0": gxm.fibres["0"]})
    assert info.value.law == "objects-invariant"
    assert info.value.witness == (("1", "0"), "0")


def test_restrict_rejects_a_morphism_the_groupoid_lacks():
    gxm = loop_gpd_xmod(fixtures.inc24())
    with pytest.raises(UnknownElement) as info:
        restrict(gxm, [("0", "0"), "zz"], {"0": gxm.fibres["0"]})
    assert info.value.witness == ("zz",)
    with pytest.raises(UnknownObject) as info:
        restrict(gxm, [("0", "0")], {"zz": gxm.fibres["0"]})
    assert info.value.witness == ("zz",)
