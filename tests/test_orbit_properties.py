"""Orbit partitions and closures against naive definitions, on generated crossed modules.

The generated families are the conjugation module G -> G, normal
inclusions N -> G and zero-boundary modules C_n -> G (trivial action, or
inversion through the sign of G's permutations), with G among C2-C6, S3
and D4.  Every group is built from permutations here, without the
library's subgroup code, then relabelled with random names listed in a
random input order.  The loop-space properties check every table of the
loop groupoid and of P(a) against label arithmetic, in order, and P(a)
against its defining filter and the paper's order identity for pi1 at
every base.  The nerve's count and listing agree with |M|^3 |P|^3.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bruteforce import brute_components, brute_pa
from conftest import assert_loop_tables_match_brute_force
from xmodloop.exactseq import coinvariants
from xmodloop.groupoids import pi0
from xmodloop.groups import (
    centralizer,
    conjugacy_classes,
    group_action,
    homomorphism,
    make_group,
    quotient,
    subgroup,
    subgroup_generated,
)
from xmodloop.loop import components, loop_data, loop_gpd_xmod, pi_loop
from xmodloop.nerve import k3_count, nerve_k3
from xmodloop.xmod import homotopy, make_xmod

PERMUTATION_GENERATORS = {
    "C2": [(1, 0)],
    "C3": [(1, 2, 0)],
    "C4": [(1, 2, 3, 0)],
    "C5": [(1, 2, 3, 4, 0)],
    "C6": [(1, 2, 3, 4, 5, 0)],
    "S3": [(1, 2, 0), (1, 0, 2)],
    "D4": [(1, 2, 3, 0), (0, 3, 2, 1)],
}

# Drawing an example builds and validates whole groups, so the timing
# health check would make slow hosts flaky.
PROPERTY_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])


def then(p, q):
    """p, then q."""
    return tuple(q[i] for i in p)


def permutations_generated(gens):
    identity = tuple(range(len(gens[0])))
    found = [identity]
    for p in found:
        for g in gens:
            q = then(p, g)
            if q not in found:
                found.append(q)
    return found


def sign(p):
    seen, parity = set(), 0
    for start in range(len(p)):
        length = 0
        i = start
        while i not in seen:
            seen.add(i)
            i = p[i]
            length += 1
        parity += max(length - 1, 0)
    return parity % 2


def naive_closure(group, generators):
    """The set of 0 and the generators, closed under + and - until it stops growing."""
    current = {group.identity, *generators}
    while True:
        grown = current | {group.neg(x) for x in current} | {
            group.add(x, y) for x in current for y in current}
        if grown == current:
            return current
        current = grown


def labels(n, alphabet):
    return st.lists(st.text(alphabet=alphabet, min_size=1, max_size=3),
                    min_size=n, max_size=n, unique=True)


@st.composite
def permutation_groups(draw, families, alphabet):
    """A group on relabelled permutations, and each label's permutation."""
    family = draw(families)
    perms = draw(st.permutations(permutations_generated(PERMUTATION_GENERATORS[family])))
    names = dict(zip(perms, draw(labels(len(perms), alphabet))))
    table = [[names[then(p, q)] for q in perms] for p in perms]
    group = make_group([names[p] for p in perms], table, names[tuple(range(len(perms[0])))])
    return group, {name: p for p, name in names.items()}


@st.composite
def crossed_modules(draw, alphabet="ab01(|)é"):
    P, perm_of = draw(permutation_groups(st.sampled_from(sorted(PERMUTATION_GENERATORS)),
                                         alphabet))
    kind = draw(st.sampled_from(["conjugation", "inclusion", "zero"]))
    if kind == "zero":
        M, _ = draw(permutation_groups(st.sampled_from(["C2", "C3", "C4", "C5", "C6"]),
                                       alphabet))
        inverting = draw(st.booleans())
        table = {(m, p): M.neg(m) if inverting and sign(perm_of[p]) else m
                 for m in M for p in P}
        delta = {m: P.identity for m in M}
        return make_xmod(M, P, homomorphism(M, P, delta), group_action(P, M, table))
    if kind == "conjugation":
        M = P
    else:
        seeds = draw(st.lists(st.sampled_from(P.elements), max_size=2))
        normal = naive_closure(P, {P.conj(s, p) for s in seeds for p in P})
        members = [x for x in P if x in normal]
        M = make_group(members, [[P.add(x, y) for y in members] for x in members],
                       P.identity)
    table = {(m, p): P.conj(m, p) for m in M for p in P}
    return make_xmod(M, P, homomorphism(M, P, {m: m for m in M}), group_action(P, M, table))


@PROPERTY_SETTINGS
@given(crossed_modules())
def test_components_equal_brute_force(x):
    classes = components(x)
    assert {frozenset(c) for c in classes} == brute_components(x)
    assert [c[0] for c in classes] == sorted((c[0] for c in classes), key=x.P.index)
    assert all(c == sorted(c, key=x.P.index) for c in classes)


@PROPERTY_SETTINGS
@given(crossed_modules())
def test_pi0_of_loop_groupoid_equals_components(x):
    assume(len(x.M) * len(x.P) ** 2 <= 300)
    assert pi0(loop_gpd_xmod(x)) == components(x)


@PROPERTY_SETTINGS
@given(crossed_modules())
def test_loop_tables_equal_label_arithmetic(x):
    assume(len(x.M) * len(x.P) ** 2 <= 300)
    assert_loop_tables_match_brute_force(x)


@PROPERTY_SETTINGS
@given(crossed_modules())
def test_k3_count_equals_listing_and_order_formula(x):
    assert k3_count(x) == len(nerve_k3(x)) == len(x.M) ** 3 * len(x.P) ** 3


@PROPERTY_SETTINGS
@given(permutation_groups(st.sampled_from(sorted(PERMUTATION_GENERATORS)), "ab01(|)é"))
def test_conjugacy_classes_equal_naive_filter(drawn):
    group, _ = drawn
    expected = []
    for a in group:
        cls = [b for b in group if any(group.conj(a, p) == b for p in group)]
        if cls not in expected:
            expected.append(cls)
    assert conjugacy_classes(group) == expected


@PROPERTY_SETTINGS
@given(crossed_modules())
def test_quotient_cosets_equal_naive_filter(x):
    P = x.P
    normal = {x.delta(m) for m in x.M}
    quo, projection = quotient(P, subgroup(P, normal))
    cosets = []
    for g in P:
        coset = [h for h in P if P.add(P.neg(g), h) in normal]
        if coset not in cosets:
            cosets.append(coset)
    assert quo.elements == [coset[0] for coset in cosets]
    assert all(projection(h) == coset[0] for coset in cosets for h in coset)


@PROPERTY_SETTINGS
@given(st.data())
def test_subgroup_generated_equals_naive_closure(data):
    group, _ = data.draw(permutation_groups(st.sampled_from(sorted(PERMUTATION_GENERATORS)),
                                            "ab01(|)é"))
    generators = data.draw(st.lists(st.sampled_from(group.elements), max_size=3))
    expected = naive_closure(group, generators)
    assert subgroup_generated(group, generators).members == tuple(
        x for x in group if x in expected)


@PROPERTY_SETTINGS
@given(crossed_modules())
def test_loop_groups_at_every_base_match_filter_and_order_identity(x):
    assume(len(x.M) * len(x.P) ** 2 <= 300)
    base = homotopy(x)
    for a in x.P:
        assert set(loop_data(x, a).Pa.elements) == brute_pa(x, a)
        abar = base.projection(a)
        assert len(pi_loop(x, a).pi1) == (len(coinvariants(x, a))
                                          * len(centralizer(base.pi1, abar)))
