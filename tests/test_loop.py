import json

import pytest

from bruteforce import brute_components, brute_pa
from conftest import (
    all_base_pairs,
    assert_loop_tables_match_brute_force,
    cyclic,
    fixture,
    written,
    written_out,
)
from xmodloop.documents import serialize_xmod
from xmodloop.errors import UnknownElement, UnknownObject
from xmodloop.groups import (
    are_isomorphic,
    conjugacy_classes,
    image,
    kernel,
)
from xmodloop.groupoids import vertex_group
from xmodloop.loop import (
    components,
    loop_data,
    loop_gpd_xmod,
    loop_xmod_at,
    pi_loop,
    theta,
)
from xmodloop.xmod import check_axioms, homotopy

COMPONENT_COUNTS = {"triv": 1, "conj_s3": 3, "inc24": 2, "mod32": 2, "inn3": 2}


def test_component_counts_and_oracle(any_xmod):
    x = any_xmod
    classes = components(x)
    assert len(classes) == COMPONENT_COUNTS[x.name]
    assert {frozenset(c) for c in classes} == brute_components(x)
    assert len(classes) == len(conjugacy_classes(homotopy(x).pi1))


def test_loop_tables_equal_label_arithmetic(any_xmod):
    assert_loop_tables_match_brute_force(any_xmod)


def test_conj_s3_components_are_conjugacy_classes():
    classes = components(fixture("conj_s3"))
    assert sorted(len(c) for c in classes) == [1, 2, 3]


def test_inc24_components_are_cosets():
    assert components(fixture("inc24")) == [["0", "2"], ["1", "3"]]


def test_pa_set_matches_brute_filter():
    for name, a in all_base_pairs():
        x = fixture(name)
        data = loop_data(x, a)
        assert set(data.Pa.elements) == brute_pa(x, a)


def test_pa_of_inc24_is_cyclic_four():
    pa = loop_data(fixture("inc24"), "1").Pa
    assert len(pa) == 4
    assert {e[0] for e in pa.elements} == {"0"}
    assert are_isomorphic(pa, cyclic(4)) is not None


def test_pa_of_mod32_at_generator_is_s3():
    pa = loop_data(fixture("mod32"), "1").Pa
    assert len(pa) == 6
    assert are_isomorphic(pa, fixture("conj_s3").P) is not None


def test_pa_identity_and_inverse_formula():
    for name, a in all_base_pairs():
        x = fixture(name)
        data = loop_data(x, a)
        pa = data.Pa
        assert pa.identity == (x.M.identity, x.P.identity)
        for element in pa.elements:
            m, p = element
            negated = (x.M.neg(x.act(m, x.P.neg(p))), x.P.neg(p))
            assert pa.neg(element) == negated


def test_delta_a_values():
    mod32, inc24 = fixture("mod32"), fixture("inc24")
    assert loop_data(mod32, "1").xmod.delta("1") == ("2", "0")
    assert loop_data(inc24, "1").xmod.delta("1") == ("0", "2")
    for name, a in all_base_pairs():
        x = fixture(name)
        assert loop_data(x, a).xmod.delta(x.M.identity) == loop_data(x, a).Pa.identity


def test_loop_xmod_axioms_hold_at_every_base_point():
    for name, a in all_base_pairs():
        x = fixture(name)
        assert check_axioms(loop_xmod_at(x, a)) == []


def test_loop_xmod_of_trivial_is_trivial():
    lx = loop_xmod_at(fixture("triv"), "0")
    assert len(lx.M) == 1 and len(lx.P) == 1


def test_mod32_loop_pi1_at_both_bases():
    x = fixture("mod32")
    at_zero = pi_loop(x, "0")
    assert len(at_zero.pi1) == 6
    assert not at_zero.pi1.is_abelian()
    assert len(at_zero.pi2) == 3
    at_one = pi_loop(x, "1")
    assert are_isomorphic(at_one.pi1, cyclic(2)) is not None
    assert len(at_one.pi2) == 1


def test_inn3_loop_pi_at_transposition():
    x = fixture("inn3")
    data = pi_loop(x, "s")
    assert are_isomorphic(data.pi1, cyclic(2)) is not None
    assert len(data.pi2) == 1


def test_pi2_equals_fixed_points_elementwise():
    for name, a in all_base_pairs():
        x = fixture(name)
        fixed = {k for k in kernel(x.delta) if x.act(k, a) == k}
        assert set(pi_loop(x, a).pi2.elements) == fixed


def test_loop_morphism_source_target():
    x = fixture("mod32")
    base = written_out(loop_gpd_xmod(x).base)
    assert base.target[("1", "1", "0")] == "0"
    assert base.source[("1", "1", "0")] == x.P.sub(x.P.add(x.P.add("1", "0"), x.delta("1")), "1")


def test_loop_groupoid_shape_of_inc24():
    gxm = loop_gpd_xmod(fixture("inc24"))
    assert len(gxm.base.objects) == 4
    assert len(gxm.base.morphisms) == 32
    assert all(len(gxm.fibres[a]) == 2 for a in gxm.base.objects)


def test_composition_defined_iff_twisted_condition():
    for x in (fixture("mod32"), fixture("inc24")):
        base = written_out(loop_gpd_xmod(x).base)
        for u in base.morphisms:
            n, q, b = u
            for v in base.morphisms:
                m, p, a = v
                defined = (u, v) in base.compose
                condition = x.P.conj(b, p) == x.P.add(a, x.delta(m))
                assert defined == condition


def test_composition_first_coordinate_is_the_pasting():
    x = fixture("mod32")
    base = loop_gpd_xmod(x).base
    for (u, v), w in written_out(base).compose.items():
        n, q, b = u
        m, p, a = v
        first, second, third = w
        assert first == x.M.add(m, x.act(n, p))
        assert second == x.P.add(q, p)
        assert third == a


def test_theta_is_an_isomorphism_everywhere():
    for name, a in all_base_pairs():
        x = fixture(name)
        assert theta(x, a).is_isomorphism()


def test_theta_matches_vertex_group_with_pa():
    for name, a in all_base_pairs():
        x = fixture(name)
        gxm = loop_gpd_xmod(x)
        vertex = vertex_group(gxm.base, a)
        pa = loop_data(x, a).Pa
        f = theta(x, a)
        mor_map = dict(zip(f.source.base.morphisms,
                           (f.target.base.morphisms[j] for j in f.group_map)))
        assert mor_map == {u: u[:2] for u in vertex.elements}
        assert {mor_map[u] for u in vertex.elements} == set(pa.elements)
        for u in vertex:
            for v in vertex:
                assert mor_map[vertex.add(u, v)] == pa.add(mor_map[u], mor_map[v])


def test_theta_source_is_the_vertex_slice_of_the_loop_groupoid():
    for name, a in all_base_pairs():
        x = fixture(name)
        gxm, src = loop_gpd_xmod(x), theta(x, a).source
        base = written_out(gxm.base)
        vertex = [u for u in base.stars[a] if base.target[u] == a]
        kept = set(vertex)
        assert src.base.objects == (a,)
        assert list(src.base.morphisms) == vertex
        group = src.base.group
        assert [group.elements[i] for i in src.base.stabiliser(0)] == list(group) == [
            u[:2] for u in vertex]
        assert list(written_out(src.base).compose.items()) == [
            (pair, w) for pair, w in written_out(gxm.base).compose.items() if set(pair) <= kept]
        assert src.fibre is gxm.fibre is x.M
        piece, whole = written(src), written(gxm)
        assert list(piece.fibres) == [a]
        assert list(piece.boundary.items()) == [(m, whole.boundary[m])
                                                for m in whole.fibres[a]]
        assert list(piece.action.items()) == [
            (key, n) for key, n in whole.action.items() if key[1] in kept]


def test_theta_at_an_unknown_base_point_is_an_unknown_object():
    with pytest.raises(UnknownObject) as info:
        theta(fixture("mod32"), "zz")
    assert info.value.witness == ("zz",)


def test_unknown_base_point_is_rejected():
    with pytest.raises(UnknownElement):
        loop_data(fixture("mod32"), "7")


def test_delta_a_image_is_normal_in_pa():
    for name, a in all_base_pairs():
        x = fixture(name)
        data = loop_data(x, a)
        img = set(image(data.xmod.delta))
        for g in data.Pa:
            for d in img:
                assert data.Pa.conj(d, g) in img


def test_loop_of_a_loop_is_named_by_rendered_base():
    first = loop_xmod_at(fixture("mod32"), "0")
    base = first.P.identity
    assert base == ("0", "0")
    second = loop_xmod_at(first, base)
    assert second.name == "mod32-loop[0]-loop[(0|0)]"
    assert json.loads(serialize_xmod(second))["name"] == "mod32-loop[0]-loop[(0|0)]"
