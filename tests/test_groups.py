import os
import subprocess
import sys
from pathlib import Path

import pytest

import xmodloop
from conftest import all_fixtures, cyclic, fixture
from xmodloop.documents import _render
from xmodloop.errors import (
    NoInverse,
    NotAssociative,
    NotClosed,
    NotNormal,
    SizeLimitExceeded,
    SpaceNotAbelian,
    UnknownElement,
)
from xmodloop.groups import (
    are_isomorphic,
    centralizer,
    conjugacy_classes,
    displacement_subgroup,
    group_action,
    homomorphism,
    image,
    kernel,
    make_group,
    quotient,
    semidirect_product,
    subgroup,
    subgroup_generated,
    trivial_action,
)


def direct_product(g_group, h_group):
    """Componentwise product on pairs: the oracle for trivial twists."""
    pairs = [(g, h) for g in g_group for h in h_group]
    table = [[(g_group.add(g1, g2), h_group.add(h1, h2)) for g2, h2 in pairs]
             for g1, h1 in pairs]
    return make_group(pairs, table, (g_group.identity, h_group.identity))


def at(group, *labels):
    """The positions of the labels: what the subgroup functions take."""
    return [group.index(x) for x in labels]


def table_of(group):
    return [[group.add(a, b) for b in group] for a in group]


def test_trivial_group():
    g = make_group(["0"], [["0"]], "0")
    assert len(g) == 1
    assert g.add("0", "0") == "0"


def test_cyclic_four():
    c4 = cyclic(4)
    assert c4.add("1", "3") == "0"
    assert c4.neg("1") == "3"
    assert c4.element_order("1") == 4
    assert c4.is_abelian()


def test_s3_is_a_valid_nonabelian_group():
    s3 = fixture("conj_s3").P
    assert len(s3) == 6
    assert not s3.is_abelian()
    assert s3.add("r", "r2") == "e"
    assert s3.element_order("s") == 2
    assert s3.element_order("r") == 3


def test_s3_with_one_swapped_entry_is_rejected():
    s3 = fixture("conj_s3").P
    table = table_of(s3)
    table[1][3] = "e"  # r + s is not e
    with pytest.raises((NotAssociative, NoInverse)):
        make_group(s3.elements, table, "e")


def test_unknown_table_entry_is_not_closed():
    with pytest.raises(NotClosed):
        make_group(["0", "1"], [["0", "1"], ["1", "bogus"]], "0")


def test_group_laws_hold_on_all_fixture_groups():
    for x in all_fixtures().values():
        for g in (x.M, x.P):
            for a in g:
                assert g.add(a, g.identity) == a == g.add(g.identity, a)
                assert g.add(a, g.neg(a)) == g.identity
                for b in g:
                    for c in g:
                        assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))


def test_centralizer_of_identity_is_everything():
    s3 = fixture("conj_s3").P
    assert list(centralizer(s3, s3.index("e"))) == s3.elements


def test_centralizer_of_transposition_has_order_two():
    s3 = fixture("conj_s3").P
    cent = centralizer(s3, s3.index("s"))
    assert set(cent) == {"e", "s"}


def test_centralizer_in_abelian_group_is_everything():
    c4 = cyclic(4)
    for a in range(len(c4)):
        assert list(centralizer(c4, a)) == c4.elements


def test_centralizer_unknown_element():
    with pytest.raises(UnknownElement):
        centralizer(cyclic(4), "9")


UNKNOWN_MEMBERS = """
from xmodloop.errors import UnknownElement
from xmodloop.groups import make_group, subgroup

c4 = make_group("0123", ["0123", "1230", "2301", "3012"], "0")
try:
    subgroup(c4, ["zz", "qq", "aa", "1"])
except UnknownElement as exc:
    print(exc.witness)
"""


def test_subgroup_unknown_member_witness_does_not_depend_on_the_hash_seed():
    # the first unknown member in input order, whatever order a set iterates in
    src = str(Path(xmodloop.__file__).resolve().parents[1])
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", UNKNOWN_MEMBERS], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines() == ["('zz',)"], seed


def test_subgroup_generated_empty_is_trivial():
    c4 = cyclic(4)
    assert list(subgroup_generated(c4, [])) == ["0"]


def test_subgroup_generated_by_order_two_element():
    c4 = cyclic(4)
    assert list(subgroup_generated(c4, at(c4, "2"))) == ["0", "2"]


def test_two_transpositions_generate_s3():
    s3 = fixture("conj_s3").P
    assert len(subgroup_generated(s3, at(s3, "s", "rs"))) == 6


def test_quotient_by_whole_group_is_trivial():
    c4 = cyclic(4)
    q, proj = quotient(c4, subgroup(c4, range(len(c4))))
    assert len(q) == 1
    assert proj("3") == q.identity


def test_quotient_c4_by_two_torsion():
    c4 = cyclic(4)
    q, proj = quotient(c4, subgroup(c4, at(c4, "0", "2")))
    assert len(q) == 2
    assert q.elements == ["0", "1"]
    assert proj("3") == "1"


def test_quotient_s3_by_a3():
    s3 = fixture("conj_s3").P
    a3 = subgroup(s3, at(s3, "e", "r", "r2"))
    q, proj = quotient(s3, a3)
    assert len(q) == 2
    assert proj("rs") == proj("s")


def test_quotient_rejects_non_normal_subgroup():
    s3 = fixture("conj_s3").P
    with pytest.raises(NotNormal):
        quotient(s3, subgroup(s3, at(s3, "e", "s")))


def test_quotient_kernel_roundtrip():
    s3 = fixture("conj_s3").P
    a3 = subgroup(s3, at(s3, "e", "r", "r2"))
    _, proj = quotient(s3, a3)
    assert set(kernel(proj)) == set(a3)


def test_kernel_image_of_zero_map():
    c3, c2 = cyclic(3), cyclic(2)
    f = homomorphism(c3, c2, {m: "0" for m in c3})
    assert list(kernel(f)) == c3.elements
    assert list(image(f)) == ["0"]


def test_kernel_image_of_inclusion():
    c2, c4 = cyclic(2), cyclic(4)
    f = homomorphism(c2, c4, {"0": "0", "1": "2"})
    assert list(kernel(f)) == ["0"]
    assert list(image(f)) == ["0", "2"]


def test_kernel_image_of_inn3_boundary():
    x = fixture("inn3")
    assert list(kernel(x.delta)) == ["0"]
    assert set(image(x.delta)) == {"e", "r", "r2"}


def test_semidirect_c3_by_inverting_c2_is_nonabelian_order_six():
    c3, c2 = cyclic(3), cyclic(2)
    act = group_action(c2, c3, {(m, "0"): m for m in c3} | {(m, "1"): c3.neg(m) for m in c3})
    sd = semidirect_product(c3, c2, act)
    assert len(sd) == 6
    assert not sd.is_abelian()
    assert are_isomorphic(sd, fixture("conj_s3").P) is not None


def test_semidirect_with_trivial_action_is_direct_product():
    c3, c4 = cyclic(3), cyclic(4)
    sd = semidirect_product(c3, c4, trivial_action(c4, c3))
    assert are_isomorphic(sd, direct_product(c3, c4)) is not None


def test_semidirect_with_trivial_left_factor_is_the_right_factor():
    one, s3 = cyclic(1), fixture("conj_s3").P
    sd = semidirect_product(one, s3, trivial_action(s3, one))
    assert are_isomorphic(sd, s3) is not None


def test_are_isomorphic_distinguishes_c4_from_klein():
    c4 = cyclic(4)
    c2 = cyclic(2)
    klein = direct_product(c2, c2)
    assert are_isomorphic(c4, klein) is None


def test_are_isomorphic_identity_witness():
    s3 = fixture("conj_s3").P
    iso = are_isomorphic(s3, s3)
    assert iso is not None
    assert all(iso(g) == g for g in s3)


def test_are_isomorphic_reflexive_symmetric_on_fixture_groups():
    groups = []
    for x in all_fixtures().values():
        groups += [x.M, x.P]
    for g in groups:
        assert are_isomorphic(g, g) is not None
    for g in groups:
        for h in groups:
            forward = are_isomorphic(g, h) is not None
            backward = are_isomorphic(h, g) is not None
            assert forward == backward


def test_are_isomorphic_negative_agrees_with_order_profiles():
    from collections import Counter

    groups = [cyclic(4), direct_product(cyclic(2), cyclic(2)),
              fixture("conj_s3").P, cyclic(6)]
    for g in groups:
        for h in groups:
            profile_g = Counter(g.element_order(e) for e in g)
            profile_h = Counter(h.element_order(e) for e in h)
            if profile_g != profile_h:
                assert are_isomorphic(g, h) is None


def test_are_isomorphic_respects_order_bound():
    c4 = cyclic(4)
    with pytest.raises(SizeLimitExceeded):
        are_isomorphic(c4, c4, max_order=3)


def test_displacement_trivial_action_is_trivial():
    c3, c2 = cyclic(3), cyclic(2)
    act = trivial_action(c2, c3)
    assert list(displacement_subgroup(act, c2.index("1"))) == ["0"]


def test_displacement_of_inversion_spans_c3():
    x = fixture("mod32")
    assert len(displacement_subgroup(x.action, x.P.index("1"))) == 3


def test_displacement_at_identity_is_trivial():
    x = fixture("mod32")
    assert list(displacement_subgroup(x.action, x.P.index("0"))) == ["0"]


def test_displacement_rejects_nonabelian_space():
    one, s3 = cyclic(1), fixture("conj_s3").P
    act = trivial_action(one, s3)
    with pytest.raises(SpaceNotAbelian):
        displacement_subgroup(act, one.index("0"))


def test_conjugacy_classes_of_s3():
    classes = conjugacy_classes(fixture("conj_s3").P)
    assert [len(c) for c in classes] == [1, 2, 3]


def test_render_handles_nesting():
    assert _render(("0", "1")) == "(0|1)"
    assert _render((("0", "1"), "2")) == "((0|1)|2)"
    assert _render(("a", "b", "c")) == "(a|b|c)"
    assert _render((("m", "p"), ("x", "y"))) == "((m|p)|(x|y))"
