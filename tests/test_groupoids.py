import os
import subprocess
import sys
from pathlib import Path

import pytest

import xmodloop
from bruteforce import check_written_morphism, make_groupoid, make_written_gxm, written_out_maps
from conftest import IDENTITY_MODULES, cyclic, fixture, identity_module, written, written_out
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
    homotopy_at,
    is_fibration,
    make_gxm,
    make_gxm_morphism,
    pi0,
    restrict,
    vertex_group,
)
from xmodloop.loop import loop_gpd_xmod
from xmodloop.xmod import homotopy


def one_object_groupoid(group, obj="*"):
    return action_groupoid(group, (obj,), [[0] for _ in group], lambda i, k: group.elements[i])


def two_component_groupoid():
    """C2 = {e, t} fixing x and swapping y and z: C2 at x, a lone identity at y and z.

    The arrow (g, w) goes from g.w to w; (t, y) is "ty": z -> y.
    """
    return action_groupoid(cyclic(2), ("x", "y", "z"), [[0, 1, 2], [0, 2, 1]],
                           lambda i, k: "et"[i] + "xyz"[k])


def trivial_fibre(groupoid):
    """The trivial group over every object: its action and boundary tables."""
    e = groupoid.group.index(groupoid.group.identity)
    return (make_group(["0"], [["0"]], "0"), [[0] for _ in groupoid.group],
            [[e] for _ in groupoid.objects])


def test_vertex_group_of_one_object_groupoid_is_the_group():
    s3 = fixture("conj_s3").P
    g = one_object_groupoid(s3)
    v = vertex_group(g, "*")
    assert v.elements == s3.elements
    assert v.add("r", "s") == s3.add("r", "s")


def test_vertex_group_unknown_object():
    g = one_object_groupoid(cyclic(2))
    with pytest.raises(UnknownObject):
        vertex_group(g, "nope")


def test_two_component_groupoid_pi0():
    g = two_component_groupoid()
    gxm = make_gxm(g, *trivial_fibre(g))
    assert pi0(gxm) == [["x"], ["y", "z"]]
    assert vertex_group(g, "x").elements == ["ex", "tx"]
    assert vertex_group(g, "y").elements == ["ey"]
    w = written_out(g)
    assert (w.source["ty"], w.target["ty"], w.compose[("ty", "tz")]) == ("z", "y", "ez")


def test_groupoid_rejects_broken_composition_domain():
    g = written_out(two_component_groupoid())
    compose = dict(g.compose)
    compose[("ex", "ey")] = "ex"  # not composable
    with pytest.raises(InvalidGroupoid):
        make_groupoid(g.objects, g.morphisms, g.source, g.target, compose, g.identities)


DOMAIN_WITNESSES = """
from xmodloop.errors import XModError
from xmodloop.groups import make_group
from bruteforce import make_groupoid, make_written_gxm
from xmodloop.groupoids import action_groupoid

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
base = action_groupoid(c3, ("*",), [[0]] * 3, lambda i, k: "abc"[i])
action = {(m, u): m for u in c3 for m in c2}
for pair in (("1", "c"), ("0", "b"), ("1", "b")):
    del action[pair]
try:
    make_written_gxm(base, {"*": c2}, {m: "a" for m in c2}, action)
except XModError as exc:
    print(exc.witness)
"""


def test_domain_witnesses_do_not_depend_on_the_hash_seed():
    # the first missing pair in morphism order, whatever order the sets iterate in
    src = str(Path(xmodloop.__file__).resolve().parents[1])
    path = os.pathsep.join((src, str(Path(__file__).parent)))
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
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
    gxm = as_groupoid_xmod(fixture("inc24"))
    form = written(gxm, lambda m, x: m)
    action = dict(form.action)
    del action[next(iter(action))]
    action[("2", "0")] = "0"
    with pytest.raises(InvalidGroupoidXMod) as info:
        make_written_gxm(gxm.base, form.fibres, form.boundary, action)
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
    at = homotopy_at(gxm, "*")
    assert are_isomorphic(at.pi1, data.pi1) is not None
    assert are_isomorphic(at.pi2, data.pi2) is not None


def test_restrict_one_object_wrap_recovers_the_crossed_module(any_xmod):
    x = any_xmod
    restricted = restrict(as_groupoid_xmod(x), range(len(x.P)), (0,), range(len(x.M)))
    assert restricted.fibre is x.M
    assert restricted.base.group.elements == x.P.elements
    assert written(restricted, lambda m, a: m).boundary == {m: x.delta(m) for m in x.M}
    assert restricted.act == [[x.M.index(x.act(m, p)) for m in x.M] for p in x.P]


def test_identity_morphism_is_a_fibration():
    x = fixture("mod32")
    gxm = as_groupoid_xmod(x)
    f = make_gxm_morphism(gxm, gxm, list(range(len(x.P))), [0], list(range(len(x.M))))
    assert f.is_isomorphism()
    assert is_fibration(f) == []


def test_vertex_inclusion_fails_star_surjectivity():
    # the trivial group at x into C2 = {e, t} fixing x: the star at x is ex, tx
    target_base = two_component_groupoid()
    target = make_gxm(target_base, *trivial_fibre(target_base))
    source_base = one_object_groupoid(cyclic(1), "x")
    source = make_gxm(source_base, *trivial_fibre(source_base))
    f = make_gxm_morphism(source, target, [0], [0], [0])
    report = is_fibration(f)
    assert [(v.kind, v.witness) for v in report] == [("star-surjectivity", ("x", "tx"))]


def test_morphism_validation_catches_wrong_identity_image():
    x = fixture("inc24")
    gxm = as_groupoid_xmod(x)
    report = check_morphism(gxm, gxm, [x.P.index("1")] * len(x.P), [0], [0, 1])
    assert report[0].kind == "identity"
    assert report


def test_bad_dim2_image_does_not_hide_later_fibres():
    # loop groupoid of C2 -> C4 (4 objects): swapping the two elements of M
    # breaks dim2-hom at every pair, and the boundary square at every
    # object, each reported in full; an entry outside M is reported alone
    gxm = loop_gpd_xmod(fixture("inc24"))
    base = gxm.base
    groups = list(range(len(base.group)))
    report = check_morphism(gxm, gxm, groups, [0, 1, 2, 3], [1, 0])
    assert [(v.kind, v.witness) for v in report] == [
        ("dim2-hom", ("0", "0")), ("dim2-hom", ("0", "1")),
        ("dim2-hom", ("1", "0")), ("dim2-hom", ("1", "1")),
        *(("boundary-square", (a, m)) for a in base.objects for m in ("0", "1"))]
    form = written(gxm)
    old = check_written_morphism(form, form, *written_out_maps(form, form, groups,
                                                               [0, 1, 2, 3], [1, 0]))
    assert {v.kind for v in old} == {"dim2-hom", "boundary-square"}
    report = check_morphism(gxm, gxm, groups, [0, 1, 2, 3], [0, 2])
    assert [(v.kind, v.witness) for v in report] == [("dim2-map", ("1",))]


def test_pi_at_constant_on_components(any_xmod):
    gxm = loop_gpd_xmod(any_xmod)
    for block in pi0(gxm):
        head = block[0]
        at_head = homotopy_at(gxm, head)
        for other in block[1:]:
            at_other = homotopy_at(gxm, other)
            assert are_isomorphic(at_other.pi1, at_head.pi1) is not None
            assert are_isomorphic(at_other.pi2, at_head.pi2) is not None


def test_restrict_to_object_is_always_a_valid_crossed_module(any_xmod):
    # restrict checks only closure and invariance; make_gxm and the
    # written-out validator must both accept every piece it cuts
    gxm = loop_gpd_xmod(any_xmod)
    for k, a in enumerate(gxm.base.objects):
        restricted = restrict(gxm, gxm.base.stabiliser(k), (k,), range(len(gxm.fibre)))
        assert restricted.base.objects == (a,)
        assert restricted.fibre is gxm.fibre
        make_gxm(restricted.base, restricted.fibre, restricted.act, restricted.boundary)
        form = written(restricted)
        make_written_gxm(restricted.base, form.fibres, form.boundary, form.action)


def test_restrict_to_every_element_of_m_keeps_m_without_a_cut(any_xmod):
    # theta passes all of M at every base: the piece's fibre is M itself,
    # its action rows are the whole's, and a duplicate position changes nothing
    x = any_xmod
    gxm = loop_gpd_xmod(x)
    M = gxm.fibre
    every = range(len(M))
    for fibre in (every, list(reversed(every)), [*every, M.index(M.identity)]):
        for k in range(len(gxm.base.objects)):
            piece = restrict(gxm, gxm.base.stabiliser(k), (k,), fibre)
            assert piece.fibre is M
            parent = [gxm.base.group.index(g) for g in piece.base.group]
            assert piece.act == [gxm.act[i] for i in parent]


def test_restrict_to_all_of_m_still_refuses_a_partial_or_unknown_fibre():
    x = fixture("inn3")  # M = C3, so a two-element fibre is not closed
    gxm = loop_gpd_xmod(x)
    k = x.P.index(x.P.identity)
    stabiliser, n = gxm.base.stabiliser(k), len(x.M)
    with pytest.raises(NotClosed):
        restrict(gxm, stabiliser, (k,), [0, 1])
    with pytest.raises(UnknownElement) as info:
        restrict(gxm, stabiliser, (k,), [*range(n), n])
    assert info.value.witness == (n,)
    for unknown in (n, -1):  # as many positions as M has, one of them not in M
        with pytest.raises(UnknownElement) as info:
            restrict(gxm, stabiliser, (k,), [unknown, *range(1, n)])
        assert info.value.witness == (unknown,)


def test_restrict_rejects_a_morphism_set_not_closed_under_composition():
    # the arrows of (0, 0) and (0, 1) at 0: (0, 1) has no inverse among them
    gxm = loop_gpd_xmod(fixture("inc24"))
    kept = [gxm.base.group.index(g) for g in (("0", "0"), ("0", "1"))]
    with pytest.raises(NotClosed) as info:
        restrict(gxm, kept, (0,), range(len(gxm.fibre)))
    assert info.value.witness == (("0", "1"), "-('0', '1')", ("0", "3"))


def test_restrict_rejects_objects_the_subgroup_moves():
    # (1, 0) sends 0 to 0 + delta(1) = 2, outside the kept objects
    gxm = loop_gpd_xmod(fixture("inc24"))
    with pytest.raises(InvalidGroupoid) as info:
        restrict(gxm, [gxm.base.group.index(("1", "0"))], (0,), range(len(gxm.fibre)))
    assert info.value.law == "objects-invariant"
    assert info.value.witness == (("1", "0"), "0")


def test_restrict_rejects_a_morphism_the_groupoid_lacks():
    # every argument is positions: one out of range is named by the error
    gxm = loop_gpd_xmod(fixture("inc24"))
    n, nx, fibre = len(gxm.base.group), len(gxm.base.objects), range(len(gxm.fibre))
    with pytest.raises(UnknownElement) as info:
        restrict(gxm, [0, n], (0,), fibre)
    assert info.value.witness == (n,)
    with pytest.raises(UnknownObject) as info:
        restrict(gxm, [0], (nx,), fibre)
    assert info.value.witness == (nx,)
    with pytest.raises(UnknownElement) as info:
        restrict(gxm, [0], (0,), [len(fibre)])
    assert info.value.witness == (len(fibre),)


def test_restrict_rejects_a_fibre_the_subgroup_moves_or_bounds_outside_it():
    # in id: S3 the stabiliser of the object 0 is the pairs (0, p), which
    # act on M = S3 by conjugation: they move the subgroup {0, t} of a
    # transposition t, and delta_0(m) = (0, m) leaves the trivial subgroup
    x = identity_module(IDENTITY_MODULES["S3"], "S3")
    gxm = loop_gpd_xmod(x)
    zero = x.M.identity
    t = next(m for m in x.M if m != zero and x.M.add(m, m) == zero)
    k, fibre = x.P.index(zero), [x.M.index(zero), x.M.index(t)]
    with pytest.raises(InvalidGroupoidXMod) as info:
        restrict(gxm, gxm.base.stabiliser(k), (k,), fibre)
    assert info.value.law == "action-codomain"
    assert info.value.witness[0] == t
    with pytest.raises(InvalidGroupoidXMod) as info:
        restrict(gxm, [gxm.base.group.index((zero, zero))], (k,), range(len(x.M)))
    assert info.value.law == "boundary-vertex"
    m = x.M.elements[1]
    assert info.value.witness == (m, zero, (zero, m, zero))
