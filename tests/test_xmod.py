import pytest

from conftest import cyclic, fixture
from xmodloop.errors import CM1Violation, CM2Violation, InvalidHomomorphism
from xmodloop.groups import (
    group_action,
    homomorphism,
    image,
    kernel,
    trivial_action,
)
from xmodloop.xmod import (
    XModCandidate,
    check_axioms,
    homotopy,
    make_xmod,
    xmod_from_candidate,
)


def test_all_fixtures_pass_check_axioms(any_xmod):
    assert check_axioms(any_xmod) == []


def test_candidate_roundtrip(any_xmod):
    rebuilt = xmod_from_candidate(XModCandidate.from_xmod(any_xmod))
    assert rebuilt.M.elements == any_xmod.M.elements
    assert rebuilt.P.elements == any_xmod.P.elements


def test_inn3_with_trivial_action_is_rejected():
    # strict assembly stops at the first broken rule (CM1 precedes CM2 here)
    x = fixture("inn3")
    with pytest.raises((CM1Violation, CM2Violation)):
        make_xmod(x.M, x.P, x.delta, trivial_action(x.P, x.M))


def test_inn3_with_trivial_action_reported_by_checker():
    # M = C3 is abelian, so trivialising the action leaves CM2 intact;
    # the scan finds the equivariance failure instead.
    c = XModCandidate.from_xmod(fixture("inn3"))
    for p in c.p_elements:
        c.action[p] = {m: m for m in c.m_elements}
    report = check_axioms(c)
    assert report
    assert any(v.kind == "cm1" and v.witness for v in report)


def test_nonabelian_module_with_zero_boundary_breaks_cm2():
    s3, c2 = fixture("conj_s3").P, cyclic(2)
    c = XModCandidate(
        m_elements=list(s3.elements),
        m_table=[[s3.add(a, b) for b in s3] for a in s3],
        m_identity="e",
        p_elements=list(c2.elements),
        p_table=[[c2.add(a, b) for b in c2] for a in c2],
        p_identity="0",
        delta={m: "0" for m in s3},
        action={p: {m: m for m in s3} for p in c2},
    )
    report = check_axioms(c)
    assert any(v.kind == "cm2" for v in report)


def test_delta_must_be_a_homomorphism():
    c2, c4 = cyclic(2), cyclic(4)
    with pytest.raises(InvalidHomomorphism):
        homomorphism(c2, c4, {"0": "0", "1": "1"})


def test_homotopy_of_inc24():
    data = homotopy(fixture("inc24"))
    assert len(data.pi1) == 2
    assert len(data.pi2) == 1


def test_homotopy_of_mod32_has_inversion_action():
    data = homotopy(fixture("mod32"))
    assert len(data.pi1) == 2
    assert len(data.pi2) == 3
    generator = data.pi1.elements[1]
    assert data.g_action.act("1", generator) == "2"
    assert data.g_action.act("2", generator) == "1"


def test_homotopy_of_identity_crossed_module_is_trivial():
    s3 = fixture("conj_s3").P
    delta = homomorphism(s3, s3, {g: g for g in s3})
    action = group_action(s3, s3, {(m, p): s3.conj(m, p) for m in s3 for p in s3})
    x = make_xmod(s3, s3, delta, action)
    data = homotopy(x)
    assert len(data.pi1) == 1
    assert len(data.pi2) == 1


def test_image_of_delta_is_normal(any_xmod):
    x = any_xmod
    img = set(image(x.delta))
    for p in x.P:
        for d in img:
            assert x.P.conj(d, p) in img


def test_kernel_of_delta_is_central(any_xmod):
    x = any_xmod
    for k in kernel(x.delta):
        for m in x.M:
            assert x.M.add(k, m) == x.M.add(m, k)


def test_pi1_action_independent_of_representative(any_xmod):
    x = any_xmod
    data = homotopy(x)
    for p in x.P:
        rep = data.projection(p)
        for k in data.pi2:
            assert x.act(k, p) == x.act(k, rep)


def test_conj_fixture_is_valid_with_trivial_top():
    x = fixture("conj_s3")
    assert check_axioms(x) == []
    assert len(homotopy(x).pi1) == 6


def test_checker_catches_broken_group_table():
    c = XModCandidate.from_xmod(fixture("inc24"))
    c.p_table[1][1] = "0"
    report = check_axioms(c)
    assert any(v.kind == "group:P" and v.witness for v in report)


def test_checker_reports_missing_action_entry():
    c = XModCandidate.from_xmod(fixture("mod32"))
    del c.action["1"]["2"]
    report = check_axioms(c)
    assert any(v.kind == "action" for v in report)
