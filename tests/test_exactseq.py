import pytest

from bruteforce import brute_loop_gpd_tables, make_written_gxm
from conftest import all_base_pairs, all_fixtures, fixture, written, written_out
from xmodloop.errors import PreconditionFailed
from xmodloop.exactseq import (
    coinvariants,
    exact_sequence,
    example1_check,
    example2_check,
    fibration_psi,
    fixed_points,
)
from xmodloop.groups import (
    are_isomorphic,
    image,
    kernel,
)
from xmodloop.groupoids import homotopy_at, is_fibration, pi0
from xmodloop.loop import components, loop_gpd_xmod, pi_loop
from xmodloop.xmod import homotopy


def test_psi_is_a_fibration_on_every_fixture(any_xmod):
    data = fibration_psi(any_xmod)
    assert is_fibration(data.psi) == []


def test_is_fibration_reads_a_validated_morphism_without_rechecking_its_laws(
        any_xmod, monkeypatch):
    psi = fibration_psi(any_xmod).psi

    def refuse(*args):
        raise AssertionError("check_morphism was called")

    monkeypatch.setattr("xmodloop.groupoids.check_morphism", refuse)
    assert is_fibration(psi) == []


def test_fibre_shapes(any_xmod):
    x = any_xmod
    data = fibration_psi(x)
    expected_morphisms = {(m, x.P.identity, a) for m in x.M for a in x.P}
    assert set(data.fibre.base.morphisms) == expected_morphisms
    expected_dim2 = {(x.M.identity, a) for a in x.P}
    actual_dim2 = {m for a in x.P for m in written(data.fibre).fibres[a]}
    assert actual_dim2 == expected_dim2
    assert data.fibre.fibre.elements == [x.M.identity]
    assert {a: len(g) for a, g in data.fibre.fibres.items()} == dict.fromkeys(x.P, 1)


def test_fibre_tables_are_the_p0_slice_of_label_arithmetic(any_xmod):
    x = any_xmod
    fibre, expected = fibration_psi(x).fibre, brute_loop_gpd_tables(x)
    kept = [u for u in expected["morphisms"] if u[1] == x.P.identity]
    elements = {(x.M.identity, a) for a in x.P}
    assert list(fibre.base.morphisms) == kept
    kept = set(kept)
    assert list(written_out(fibre.base).compose.items()) == [
        (pair, w) for pair, w in expected["compose"].items() if set(pair) <= kept]
    form = written(fibre)
    assert list(form.boundary.items()) == [
        (m, d) for m, d in expected["boundary"].items() if m in elements]
    assert list(form.action.items()) == [
        ((m, u), n) for (m, u), n in expected["action"].items() if m in elements and u in kept]
    make_written_gxm(fibre.base, form.fibres, form.boundary, form.action)


def test_inc24_fibre_components_are_cosets():
    data = fibration_psi(fixture("inc24"))
    assert len(data.fibre.base.objects) == 4
    assert len(data.fibre.base.morphisms) == 8
    assert pi0(data.fibre) == [["0", "2"], ["1", "3"]]


def test_fibre_pi1_is_pi(any_xmod):
    x = any_xmod
    data = fibration_psi(x)
    pi = homotopy(x).pi2
    for a in x.P:
        h = homotopy_at(data.fibre, a)
        assert are_isomorphic(h.pi1, pi) is not None
        assert len(h.pi2) == 1


def test_fixed_points_at_identity_is_all_of_pi(any_xmod):
    x = any_xmod
    pi = homotopy(x).pi2
    assert list(fixed_points(x, x.P.identity)) == pi.elements


def test_fixed_points_of_mod32_inversion():
    assert list(fixed_points(fixture("mod32"), "1")) == ["0"]


def test_fixed_points_trivial_when_pi_trivial():
    x = fixture("inc24")
    for a in x.P:
        assert list(fixed_points(x, a)) == ["0"]


def test_coinvariants_at_identity_is_pi(any_xmod):
    x = any_xmod
    assert len(coinvariants(x, x.P.identity)) == len(homotopy(x).pi2)


def test_coinvariants_of_mod32_inversion_is_trivial():
    assert len(coinvariants(fixture("mod32"), "1")) == 1


def test_exact_sequence_holds_at_every_base_point():
    for name, a in all_base_pairs():
        x = fixture(name)
        seq = exact_sequence(x, a)
        inclusion, connecting, j, q = seq.maps
        assert set(kernel(connecting)) == set(image(inclusion))
        assert set(kernel(j)) == set(image(connecting))
        assert set(kernel(q)) == set(image(j))
        assert set(image(q)) == set(seq.terms[4].elements)


def test_mod32_sequence_at_generator():
    seq = exact_sequence(fixture("mod32"), "1")
    assert seq.term_orders() == (1, 3, 3, 2, 2)
    connecting = seq.maps[1]
    assert connecting.is_bijective()
    q = seq.maps[3]
    assert q.is_bijective()
    assert len(seq.coinvariants) == 1


def test_mod32_sequence_at_identity():
    seq = exact_sequence(fixture("mod32"), "0")
    assert seq.term_orders() == (3, 3, 3, 6, 2)
    connecting = seq.maps[1]
    assert set(image(connecting)) == {"0"}
    j = seq.maps[2]
    assert j.is_injective()
    assert len(seq.coinvariants) == 3


def test_inn3_sequence_collapses_to_centralizer():
    x = fixture("inn3")
    for a in x.P:
        seq = exact_sequence(x, a)
        assert seq.term_orders() == (1, 1, 1, 2, 2)
        assert seq.maps[3].is_bijective()


def test_pi2_three_routes_coincide():
    for name, a in all_base_pairs():
        x = fixture(name)
        from_loop = set(pi_loop(x, a).pi2.elements)
        from_fixed = set(fixed_points(x, a))
        gxm = loop_gpd_xmod(x)
        from_gpd = set(homotopy_at(gxm, a).pi2.elements)
        assert from_loop == from_fixed == from_gpd


def test_pi1_order_compression():
    for name, a in all_base_pairs():
        x = fixture(name)
        seq = exact_sequence(x, a)
        assert len(seq.terms[3]) == len(seq.coinvariants) * len(seq.terms[4])
        assert seq.induced.is_injective()


def test_pi0_tail_orbit_count():
    for x in all_fixtures().values():
        data = homotopy(x)
        fib = fibration_psi(x)
        cosets = {frozenset(block) for block in pi0(fib.fibre)}
        orbits = set()
        seen = set()
        for block in cosets:
            if block & seen:
                continue
            orbit = set(block)
            for p in x.P:
                orbit |= {x.P.conj(b, p) for b in orbit}
            grown = True
            while grown:
                grown = False
                for other in cosets:
                    if other & orbit and not other <= orbit:
                        orbit |= other
                        grown = True
            seen |= orbit
            orbits.add(frozenset(orbit))
        assert len(orbits) == len(components(x))


def test_example1_on_mod32_both_bases():
    x = fixture("mod32")
    assert example1_check(x, "0") == []
    assert example1_check(x, "1") == []


def test_example1_with_trivial_module():
    x = fixture("conj_s3")
    for a in x.P:
        assert example1_check(x, a) == []


def test_example1_rejects_nonzero_delta():
    with pytest.raises(PreconditionFailed):
        example1_check(fixture("inc24"), "0")
    with pytest.raises(PreconditionFailed):
        example1_check(fixture("inn3"), "e")


def test_example2_on_mod32_and_inc24():
    mod32 = fixture("mod32")
    assert example2_check(mod32, "0") == []
    assert example2_check(mod32, "1") == []
    inc24 = fixture("inc24")
    for a in inc24.P:
        assert example2_check(inc24, a) == []


def test_example2_rejects_noncentral_base():
    with pytest.raises(PreconditionFailed):
        example2_check(fixture("inn3"), "s")


def test_example2_runs_at_identity_of_every_fixture(any_xmod):
    x = any_xmod
    assert example2_check(x, x.P.identity) == []
