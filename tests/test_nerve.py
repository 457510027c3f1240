import random

import pytest

from bruteforce import brute_is_simplex3, brute_k2, brute_k3
from conftest import fixture
from xmodloop.errors import IndexOutOfRange, InternalInvariantBroken
from xmodloop.groups import GroupAction
from xmodloop.nerve import (
    Simplex2,
    is_simplex2,
    is_simplex3,
    k2_count_formula,
    k3_count,
    nerve_k2,
    nerve_k3,
)
from xmodloop.xmod import CrossedModule

# Frozen regression counts, computed with the brute-force oracles.
K2_COUNTS = {"triv": 1, "conj_s3": 36, "inc24": 32, "mod32": 12, "inn3": 108}
K3_COUNTS = {"triv": 1, "conj_s3": 216, "inc24": 512, "mod32": 216, "inn3": 5832}


def test_k2_counts_match_formula_oracle_and_frozen_values(any_xmod):
    x = any_xmod
    simplices = nerve_k2(x)
    assert len(simplices) == K2_COUNTS[x.name]
    assert k2_count_formula(x) == len(x.M) * len(x.P) ** 2 == len(simplices)
    assert {(s.m, s.c, s.a, s.b) for s in simplices} == brute_k2(x)


def test_k2_enumeration_is_lexicographic(any_xmod):
    x = any_xmod
    keys = [(x.P.index(s.a), x.P.index(s.b), x.P.index(s.c), x.M.index(s.m))
            for s in nerve_k2(x)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_degenerate_two_simplices_are_present(any_xmod):
    x = any_xmod
    found = {(s.m, s.c, s.a, s.b) for s in nerve_k2(x)}
    zero = x.M.identity
    for a in x.P:
        assert (zero, a, a, x.P.identity) in found


def test_k3_matches_brute_force_oracle(any_xmod):
    x = any_xmod
    simplices = nerve_k3(x)
    assert len(simplices) == K3_COUNTS[x.name]
    assert k3_count(x) == len(simplices) == len(x.M) ** 3 * len(x.P) ** 3
    assert {s.key() for s in simplices} == brute_k3(x)


def test_every_k3_simplex_satisfies_all_rules(any_xmod):
    x = any_xmod
    P, M = x.P, x.M
    for s in nerve_k3(x):
        assert is_simplex3(x, s)
        for i in range(4):
            assert is_simplex2(x, s.face(i))
        closure = M.add(M.add(M.add(x.act(s.m3, s.f), M.neg(s.m0)), M.neg(s.m2)), s.m1)
        assert closure == M.identity


def test_faces_share_edges_consistently(any_xmod):
    for s in nerve_k3(any_xmod):
        s0, s1, s2, s3 = s.faces()
        assert s3.a == s2.a == s.a
        assert s3.b == s0.a == s.b
        assert s3.c == s1.a == s.c
        assert s2.c == s1.c == s.d
        assert s2.b == s0.c == s.e
        assert s1.b == s0.b == s.f


def test_faces3_boundary_recomputation_on_inc24():
    x = fixture("inc24")
    for s in nerve_k3(x)[:40]:
        for i, m in enumerate((s.m0, s.m1, s.m2, s.m3)):
            face = s.face(i)
            assert face.m == m
            assert x.delta(face.m) == x.P.add(x.P.add(x.P.neg(face.c), face.a), face.b)


def test_faces3_index_range():
    s = nerve_k3(fixture("triv"))[0]
    with pytest.raises(IndexOutOfRange):
        s.face(4)
    with pytest.raises(IndexOutOfRange):
        s.face(-1)


def test_trivial_crossed_module_has_single_simplices():
    x = fixture("triv")
    assert len(nerve_k2(x)) == 1
    (s3,) = nerve_k3(x)
    unique = nerve_k2(x)[0]
    assert all(face == unique for face in s3.faces())


def test_simplex2_membership_predicate():
    x = fixture("inc24")
    assert is_simplex2(x, Simplex2("0", "0", "0", "0"))
    assert is_simplex2(x, Simplex2("1", "2", "0", "0"))
    assert not is_simplex2(x, Simplex2("1", "0", "0", "0"))


def test_is_simplex3_agrees_with_label_arithmetic_on_random_tuples(any_xmod):
    """Simplices, simplices with one entry changed and uniform tuples alike."""
    x = any_xmod
    P, M = x.P.elements, x.M.elements
    rng = random.Random(f"is_simplex3 {x.name}")
    simplices = nerve_k3(x)
    tuples = []
    for _ in range(200):
        s = list(rng.choice(simplices))
        tuples.append(tuple(s))
        i = rng.randrange(10)
        s[i] = rng.choice(P if i < 6 else M)
        tuples.append(tuple(s))
        tuples.append(tuple(rng.choice(P) for _ in range(6)) + tuple(rng.choice(M) for _ in range(4)))
    verdicts = [is_simplex3(x, t) for t in tuples]
    assert verdicts == [brute_is_simplex3(x, t) for t in tuples]
    assert any(verdicts) and (len(P) * len(M) == 1 or not all(verdicts))


def _with_one_action_entry_moved(x):
    """x with m^p replaced, at its first pair, by an element of another delta-fibre.

    The result is not a crossed module: CM1 fails at (m, p).
    """
    table = dict(x.action.table)
    for (m, p), value in table.items():
        other = next((w for w in x.M if x.delta(w) != x.delta(value)), None)
        if other is not None:
            table[(m, p)] = other
            return CrossedModule(x.M, x.P, x.delta, GroupAction(x.P, x.M, table), name=x.name)
    raise AssertionError("delta is trivial")


@pytest.mark.parametrize("name", ["inc24", "inn3"])
def test_k3_recheck_is_live_on_the_listing_and_the_count(name):
    broken = _with_one_action_entry_moved(fixture(name))
    with pytest.raises(InternalInvariantBroken, match="solved 3-simplex"):
        nerve_k3(broken)
    with pytest.raises(InternalInvariantBroken, match="solved 3-simplex"):
        k3_count(broken)
