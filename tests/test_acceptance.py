"""Acceptance suite: one test per criterion, one printed verdict line each.

Every check is exact (integer counts, elementwise set equality, oracle
isomorphisms); there are no tolerances anywhere.  Run with ``-s`` to see
the verdict lines on passing runs.
"""

import copy
from contextlib import contextmanager

from bruteforce import brute_k3, make_written_gxm
from conftest import all_base_pairs, all_fixtures, cyclic, fixture, written, written_out
from xmodloop.cli import run_cli
from xmodloop.documents import parse_xmod
from xmodloop.exactseq import (
    exact_sequence,
    example1_check,
    example2_check,
    fibration_psi,
)
from xmodloop.groups import (
    are_isomorphic,
    conjugacy_classes,
    image,
    kernel,
)
from xmodloop.groupoids import is_fibration, make_gxm
from xmodloop.loop import (
    components,
    loop_gpd_xmod,
    loop_xmod_at,
    pi_loop,
    theta,
)
from xmodloop.nerve import is_simplex2, nerve_k2, nerve_k3
from xmodloop.xmod import check_axioms, homotopy


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


# single-entry mutations: (fixture, kind, location, replacement value)
MUTATIONS = [
    ("inc24", "p_table", (1, 1), "0"),
    ("inc24", "p_table", (0, 1), "0"),
    ("inc24", "m_table", (1, 1), "1"),
    ("inc24", "delta", "1", "1"),
    ("inc24", "delta", "0", "1"),
    ("inc24", "action", ("1", "1"), "0"),
    ("inc24", "action", ("2", "0"), "1"),
    ("mod32", "p_table", (1, 1), "1"),
    ("mod32", "m_table", (1, 2), "1"),
    ("mod32", "m_table", (0, 2), "1"),
    ("mod32", "delta", "1", "1"),
    ("mod32", "action", ("1", "1"), "1"),
    ("mod32", "action", ("0", "1"), "2"),
    ("inn3", "p_table", (1, 3), "e"),
    ("inn3", "p_table", (3, 3), "r"),
    ("inn3", "m_table", (1, 1), "0"),
    ("inn3", "m_table", (2, 2), "2"),
    ("inn3", "delta", "1", "s"),
    ("inn3", "delta", "2", "r"),
    ("inn3", "action", ("s", "1"), "1"),
]


def apply_mutation(candidate, kind, location, value):
    mutated = copy.deepcopy(candidate)
    if kind == "p_table":
        i, j = location
        assert mutated.p_table[i][j] != value
        mutated.p_table[i][j] = value
    elif kind == "m_table":
        i, j = location
        assert mutated.m_table[i][j] != value
        mutated.m_table[i][j] = value
    elif kind == "delta":
        assert mutated.delta[location] != value
        mutated.delta[location] = value
    elif kind == "action":
        p, m = location
        assert mutated.action[p][m] != value
        mutated.action[p][m] = value
    else:
        raise ValueError(kind)
    return mutated


def test_criterion_1_axiom_soundness():
    with criterion(1, "axiom soundness and mutation rejection"):
        for x in all_fixtures().values():
            assert check_axioms(x) == []
        assert len(MUTATIONS) == 20
        for name, kind, location, value in MUTATIONS:
            candidate = fixture(name).to_candidate()
            report = check_axioms(apply_mutation(candidate, kind, location, value))
            assert report, (name, kind, location)
            assert any(v.witness for v in report), (name, kind, location)


def test_criterion_2_loop_crossed_module_axioms():
    with criterion(2, "loop crossed module valid at every base point"):
        pairs = all_base_pairs()
        assert len(pairs) >= 18
        for name, a in pairs:
            x = fixture(name)
            assert check_axioms(loop_xmod_at(x, a)) == [], (name, a)


def test_criterion_3_loop_homotopy_endpoints():
    with criterion(3, "loop pi1/pi2 endpoint identities"):
        for name, a in all_base_pairs():
            x = fixture(name)
            data = pi_loop(x, a)
            fixed = {k for k in kernel(x.delta) if x.act(k, a) == k}
            assert set(data.pi2.elements) == fixed, (name, a)
            seq = exact_sequence(x, a)
            assert len(seq.terms[3]) == len(seq.coinvariants) * len(seq.terms[4])
            assert set(image(seq.maps[3])) == set(seq.terms[4].elements)
        mod32 = fixture("mod32")
        assert len(pi_loop(mod32, "0").pi1) == 6
        assert are_isomorphic(pi_loop(mod32, "1").pi1, cyclic(2)) is not None
        assert len(pi_loop(mod32, "1").pi2) == 1


def test_criterion_4_components_match_conjugacy_classes():
    with criterion(4, "loop-space components count conjugacy classes"):
        expected = {"conj_s3": 3, "inc24": 2, "mod32": 2, "inn3": 2, "triv": 1}
        for name, x in all_fixtures().items():
            classes = components(x)
            assert len(classes) == expected[name], name
            assert len(classes) == len(conjugacy_classes(homotopy(x).pi1)), name


def test_criterion_5_nerve_counts_and_closure():
    with criterion(5, "nerve counts, brute-force oracle, closure rule"):
        k2_expected = {"triv": 1, "conj_s3": 36, "inc24": 32, "mod32": 12, "inn3": 108}
        for name, x in all_fixtures().items():
            k2 = nerve_k2(x)
            assert len(k2) == len(x.M) * len(x.P) ** 2 == k2_expected[name], name
            k3 = nerve_k3(x)
            assert {s.key() for s in k3} == brute_k3(x), name
            M = x.M
            for s in k3:
                closure = M.add(M.add(M.add(x.act(s.m3, s.f), M.neg(s.m0)),
                                      M.neg(s.m2)), s.m1)
                assert closure == M.identity, (name, s.key())
                assert all(is_simplex2(x, s.face(i)) for i in range(4))


def test_criterion_6_loop_groupoid_structure():
    with criterion(6, "loop groupoid model and the restriction isomorphism"):
        for name, x in all_fixtures().items():
            gxm = loop_gpd_xmod(x)
            # re-validate every law from the object's own tables, and from
            # the same module written out by object and by arrow
            make_gxm(gxm.base, gxm.fibre, gxm.act, gxm.boundary)
            form = written(gxm)
            make_written_gxm(gxm.base, form.fibres, form.boundary, form.action)
        for x in (fixture("mod32"), fixture("inc24")):
            base = written_out(loop_gpd_xmod(x).base)
            for u in base.morphisms:
                _, _, b = u
                for v in base.morphisms:
                    m, p, a = v
                    defined = (u, v) in base.compose
                    assert defined == (x.P.conj(b, p) == x.P.add(a, x.delta(m)))
        for name, a in all_base_pairs():
            x = fixture(name)
            assert theta(x, a).is_isomorphism(), (name, a)


def test_criterion_7_evaluation_fibration():
    with criterion(7, "evaluation map is a fibration with the stated fibre"):
        for name, x in all_fixtures().items():
            data = fibration_psi(x)
            assert is_fibration(data.psi) == [], name
            expected_morphisms = {(m, x.P.identity, a)
                                  for m in x.M for a in x.P}
            assert set(data.fibre.base.morphisms) == expected_morphisms, name
            expected_dim2 = {(x.M.identity, a) for a in x.P}
            actual_dim2 = {m for a in x.P for m in written(data.fibre).fibres[a]}
            assert actual_dim2 == expected_dim2, name


def test_criterion_8_exact_sequences():
    with criterion(8, "five-term sequence exact at every node"):
        for name, a in all_base_pairs():
            x = fixture(name)
            seq = exact_sequence(x, a)
            inclusion, connecting, j, q = seq.maps
            assert set(kernel(connecting)) == set(image(inclusion)), (name, a)
            assert set(kernel(j)) == set(image(connecting)), (name, a)
            assert set(kernel(q)) == set(image(j)), (name, a)
            assert set(image(q)) == set(seq.terms[4].elements), (name, a)
        mod32 = fixture("mod32")
        at_one = exact_sequence(mod32, "1")
        assert at_one.term_orders() == (1, 3, 3, 2, 2)
        assert at_one.maps[1].is_bijective()
        assert at_one.maps[3].is_bijective()
        at_zero = exact_sequence(mod32, "0")
        assert at_zero.term_orders() == (3, 3, 3, 6, 2)
        assert set(image(at_zero.maps[1])) == {"0"}
        assert at_zero.maps[2].is_injective()


def test_criterion_9_special_case_checks():
    with criterion(9, "module and central-base special cases"):
        mod32 = fixture("mod32")
        assert example1_check(mod32, "0") == []
        assert example1_check(mod32, "1") == []
        assert example2_check(mod32, "0") == []
        assert example2_check(mod32, "1") == []
        inc24 = fixture("inc24")
        for a in inc24.P:
            assert example2_check(inc24, a) == []


def test_criterion_10_self_hosting(tmp_path, capsys):
    with criterion(10, "emitted loop crossed module re-parses and matches"):
        mod32 = fixture("mod32")
        source = tmp_path / "mod32.json"
        from xmodloop.documents import serialize_xmod

        source.write_text(serialize_xmod(mod32), encoding="utf-8")
        code = run_cli(["loop", str(source), "--base", "0", "--emit"])
        emitted = capsys.readouterr().out
        assert code == 0
        reparsed = parse_xmod(emitted)
        assert check_axioms(reparsed) == []
        expected = pi_loop(mod32, "0")
        data = homotopy(reparsed)
        assert are_isomorphic(data.pi1, expected.pi1) is not None
        assert are_isomorphic(data.pi2, expected.pi2) is not None
