"""Orbit partitions and closures against naive definitions, on generated crossed modules.

The generated families are the conjugation module G -> G, normal
inclusions N -> G and zero-boundary modules C_n -> G (trivial action, or
inversion through the sign of G's permutations), with G among C2-C6, S3
and D4, and G -> Inn(G) for G among C4, S3, D4 and C2 x S3, whose
kernel is the centre of G.  Every group is built from permutations here, without the
library's subgroup code, then relabelled with random names listed in a
random input order.  The loop-space properties check every table of the
loop groupoid and of P(a) against label arithmetic, in order, and P(a)
against its defining filter, the paper's order identity for pi1 and the
action of P on M for pi1's action on pi2 at every base, and the
groupoid's own readers (``pi0``, ``vertex_group``, ``homotopy_at``)
against P(a) and the loop groups, with the action at each object read
as the action of P on M.  The nerve's
count and listing agree with |M|^3 |P|^3, and its listings with the
brute-force ones; the document ``loop --emit`` writes at every base
passes ``check``.  The
sizes of the loop groupoid, of theta's source at every base and of psi's
fibre, and every order that ``pi``, ``loop``, ``components`` and ``exact``
print, do not change when the elements are renamed and listed in another
order, read from the CLI's JSON output as well as from the library.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bruteforce import brute_components, brute_k2, brute_k3, brute_pa
from conftest import assert_loop_tables_match_brute_force
from xmodloop.cli import run_cli
from xmodloop.documents import serialize_xmod
from xmodloop.errors import PreconditionFailed
from xmodloop.exactseq import (
    coinvariants,
    exact_sequence,
    example1_check,
    example2_check,
    fibration_psi,
)
from xmodloop.groupoids import homotopy_at, pi0, vertex_group
from xmodloop.groups import (
    centralizer,
    conjugacy_classes,
    group_action,
    homomorphism,
    image,
    kernel,
    make_group,
    quotient,
    subgroup,
    subgroup_generated,
)
from xmodloop.loop import components, loop_data, loop_gpd_xmod, pi_loop, theta
from xmodloop.nerve import k3_count, nerve_k2, nerve_k3
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
# C2 x S3 on five points: its centre has order 2 and Inn(C2 x S3) is S3
GENERATORS = {**PERMUTATION_GENERATORS, "D6": [(1, 2, 0, 3, 4), (1, 0, 2, 3, 4), (0, 1, 2, 4, 3)]}

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
    perms = draw(st.permutations(permutations_generated(GENERATORS[family])))
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


@st.composite
def inner_automorphism_modules(draw, alphabet="ab01(|)é"):
    """G -> Inn(G), g to conjugation by g; Inn(G) is G modulo its centre, on cosets
    named at random and listed in a random order, acting on G through any
    representative."""
    G, _ = draw(permutation_groups(st.sampled_from(["C4", "S3", "D4", "D6"]), alphabet))
    centre = [z for z in G if all(G.add(z, g) == G.add(g, z) for g in G)]
    cosets = []
    for g in G:
        if all(g not in coset for coset in cosets):
            cosets.append([G.add(g, z) for z in centre])
    names = draw(labels(len(cosets), alphabet))
    coset_of = {g: name for name, coset in zip(names, cosets) for g in coset}
    rep = {name: coset[0] for name, coset in zip(names, cosets)}
    listed = [names[i] for i in draw(st.permutations(range(len(cosets))))]
    table = [[coset_of[G.add(rep[p], rep[q])] for q in listed] for p in listed]
    P = make_group(listed, table, coset_of[G.identity])
    action = group_action(P, G, {(m, p): G.conj(m, rep[p]) for m in G for p in P})
    return make_xmod(G, P, homomorphism(G, P, coset_of), action)


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
def test_groupoid_readers_match_the_loop_groups_at_every_object(x):
    """homotopy_at's pi1 and pi2 have the orders of pi_loop, constant on each block of pi0;
    the vertex group at a is the arrows (g, a) with g . a = a, under the law of G; and the
    arrow (m, p, a) acts on pi2 at a through its class in pi1 as p acts on M."""
    assume(len(x.M) * len(x.P) ** 2 <= 300)
    M, P = x.M, x.P
    gxm = loop_gpd_xmod(x)
    orders = {}
    for a in P:
        loop_h = pi_loop(x, a)
        h = homotopy_at(gxm, a)
        orders[a] = (len(h.pi1), len(h.pi2))
        assert orders[a] == (len(loop_h.pi1), len(loop_h.pi2)), a
        # (m, p) . a = p + a + delta(m) - p
        arrows = [(m, p, a) for m in M for p in P
                  if P.sub(P.add(P.add(p, a), x.delta(m)), p) == a]
        vertex = vertex_group(gxm.base, a)
        assert vertex.elements == arrows
        assert vertex.identity == (M.identity, P.identity, a)
        assert all(vertex.add(u, v) == (M.add(v[0], x.act(u[0], v[1])), P.add(u[1], v[1]), a)
                   for u in arrows for v in arrows)
        assert all(h.g_action.act(k, h.projection(u)) == x.act(k, u[1])
                   for u in arrows for k in h.pi2), a
    for block in pi0(gxm):
        assert len({orders[a] for a in block}) == 1, block


@PROPERTY_SETTINGS
@given(crossed_modules())
def test_nerve_listings_equal_brute_force(x):
    assume(len(x.M) ** 3 * len(x.P) ** 3 <= 50_000)
    for listing, expected in (([(s.m, s.c, s.a, s.b) for s in nerve_k2(x)], brute_k2(x)),
                              ([s.key() for s in nerve_k3(x)], brute_k3(x))):
        assert len(listing) == len(set(listing))
        assert set(listing) == expected


# Without "|" in the alphabet no two pairs render alike ("(a|b|c)" could be
# ("a|b", "c") or ("a", "b|c")), so every loop module has a document.
@PROPERTY_SETTINGS
@given(crossed_modules(alphabet="ab01()é"))
def test_emitted_loop_documents_check_clean_at_every_base(x):
    assume(len(x.M) * len(x.P) <= 60)
    with tempfile.TemporaryDirectory() as tmp:
        path, emitted = Path(tmp) / "x.json", Path(tmp) / "loop.json"
        path.write_text(serialize_xmod(x), encoding="utf-8")
        for a in x.P:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run_cli(["loop", str(path), "--base", a, "--emit"]) == 0, a
            emitted.write_text(out.getvalue(), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_cli(["check", str(emitted)]) == 0, a


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
    quo, projection = quotient(P, subgroup(P, map(P.index, normal)))
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
    assert subgroup_generated(group, map(group.index, generators)).members == tuple(
        x for x in group if x in expected)


@PROPERTY_SETTINGS
@given(crossed_modules())
def test_loop_groups_at_every_base_match_filter_and_order_identity(x):
    assume(len(x.M) * len(x.P) ** 2 <= 300)
    base = homotopy(x)
    for a in x.P:
        pa = loop_data(x, a).xmod.P
        assert set(pa.elements) == brute_pa(x, a)
        abar = base.projection.images[x.P.index(a)]
        loop_h = pi_loop(x, a)
        assert len(loop_h.pi1) == (len(coinvariants(x, a))
                                   * len(centralizer(base.pi1, abar)))
        # pi1's action on pi2 of L[a]: (m, p) acts on Ker(delta_a) as p acts on M
        for u in pa:
            for k in loop_h.pi2:
                assert loop_h.g_action.act(k, loop_h.projection(u)) == x.act(k, u[1]), (a, u, k)


def loop_sizes(x):
    """The sizes the loopgpd benchmark reports: the loop groupoid, theta's source, psi's fibre."""
    gxm, fibre = loop_gpd_xmod(x), fibration_psi(x).fibre
    thetas = {a: theta(x, a) for a in x.P}
    return {"objects": len(gxm.base.objects), "morphisms": len(gxm.base.morphisms),
            "theta": {a: [len(f.source.base.morphisms), f.is_isomorphism()]
                      for a, f in thetas.items()},
            "fibre_morphisms": len(fibre.base.morphisms),
            "fibre_elements": sum(len(g) for g in fibre.fibres.values())}


@st.composite
def relabelled(draw, x, alphabet="ab01(|)é"):
    """x with its elements renamed from alphabet and listed in a random order; P's renaming."""
    def rename(group):
        names = dict(zip(group.elements, draw(labels(len(group), alphabet))))
        order = draw(st.permutations(group.elements))
        table = [[names[group.add(a, b)] for b in order] for a in order]
        return make_group([names[a] for a in order], table, names[group.identity]), names

    (M, m_name), (P, p_name) = rename(x.M), rename(x.P)
    delta = homomorphism(M, P, {m_name[m]: p_name[x.delta(m)] for m in x.M})
    action = group_action(P, M, {(m_name[m], p_name[p]): m_name[x.act(m, p)]
                                 for m in x.M for p in x.P})
    return make_xmod(M, P, delta, action), p_name


@PROPERTY_SETTINGS
@given(crossed_modules(), st.data())
def test_loop_sizes_are_invariant_under_relabelling(x, data):
    assume(len(x.M) * len(x.P) ** 2 <= 300)
    y, p_name = data.draw(relabelled(x))
    expected = loop_sizes(x)
    expected["theta"] = {p_name[a]: sizes for a, sizes in expected["theta"].items()}
    assert loop_sizes(y) == expected
    assert all(iso for _, iso in expected["theta"].values())


def printed_orders(x):
    """The orders that pi --space base|loop, loop, components and exact print, by base."""
    base = homotopy(x)
    at = {}
    for a in x.P:
        loop_h, seq = pi_loop(x, a), exact_sequence(x, a)
        at[a] = {"pi-loop": (len(loop_h.pi1), len(loop_h.pi2)),
                 "loop": len(loop_data(x, a).xmod.P),
                 "exact": (seq.term_orders(), [(len(image(f)), len(kernel(f))) for f in seq.maps],
                           len(seq.coinvariants))}
    return {"pi-base": (len(base.pi1), len(base.pi2)),
            "components": sorted(map(len, components(x))), "at": at}


@PROPERTY_SETTINGS
@given(crossed_modules(), st.data())
def test_printed_orders_are_invariant_under_relabelling(x, data):
    assume(len(x.M) * len(x.P) ** 2 <= 300)
    y, p_name = data.draw(relabelled(x))
    expected = printed_orders(x)
    expected["at"] = {p_name[a]: orders for a, orders in expected["at"].items()}
    assert printed_orders(y) == expected
    assert {frozenset(map(p_name.get, c)) for c in components(x)} == set(map(frozenset,
                                                                              components(y)))


@PROPERTY_SETTINGS
@given(inner_automorphism_modules())
def test_inner_automorphism_sequences_match_label_counts(x):
    """Each term order of the exact sequence, counted on labels, and both examples."""
    M, P = x.M, x.P
    pi = [k for k in M if x.delta(k) == P.identity]
    assert set(pi) == {z for z in M if all(M.add(z, m) == M.add(m, z) for m in M)}
    boundaries = {x.delta(m) for m in M}

    def coset(p):
        return frozenset(P.add(p, d) for d in boundaries)

    for a in P:
        fixed = [k for k in pi if x.act(k, a) == k]
        centralizer_order = len({coset(p) for p in P if coset(P.add(a, p)) == coset(P.add(p, a))})
        coinvariant_order = len(pi) // len(naive_closure(
            M, {M.add(M.neg(x.act(k, a)), k) for k in pi}))
        loop_pi1_order = len(brute_pa(x, a)) // len(
            {(M.add(M.neg(x.act(m, a)), m), x.delta(m)) for m in M})
        assert loop_pi1_order == coinvariant_order * centralizer_order
        seq = exact_sequence(x, a)
        assert seq.term_orders() == (len(fixed), len(pi), len(pi), loop_pi1_order,
                                     centralizer_order)
        assert len(seq.coinvariants) == coinvariant_order
        if all(x.delta(m) == P.identity for m in M):
            assert example1_check(x, a) == []
        else:
            with pytest.raises(PreconditionFailed):
                example1_check(x, a)
        if all(P.add(a, p) == P.add(p, a) for p in P):
            assert example2_check(x, a) == []
        else:
            with pytest.raises(PreconditionFailed):
                example2_check(x, a)


def printed_by_cli(x):
    """Every order and structure that pi, loop, components and exact print in JSON, by base."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.json"
        path.write_text(serialize_xmod(x), encoding="utf-8")

        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run_cli([argv[0], str(path), *argv[1:], "--format", "json"]) == 0
            return json.loads(out.getvalue())

        def summary(payload, *keys):
            return [(payload[k]["order"], payload[k]["structure"]) for k in keys]

        at = {}
        for a in x.P:
            exact = run("exact", "--base", a)
            at[a] = {"pi": summary(run("pi", "--space", "loop", "--base", a), "pi1", "pi2"),
                     "loop": summary(run("loop", "--base", a), "Pa", "pi1", "pi2"),
                     "exact": ([t["order"] for t in exact["terms"]],
                               [(f["image_order"], f["kernel_order"]) for f in exact["maps"]],
                               exact["coinvariants_order"])}
        components = run("components")
        return {"pi": summary(run("pi", "--space", "base"), "pi1", "pi2"),
                "components": (components["count"], components["pi1_conjugacy_classes"],
                               sorted(len(c["elements"]) for c in components["classes"])),
                "at": at}


@PROPERTY_SETTINGS
@given(st.one_of(crossed_modules(), inner_automorphism_modules()), st.data())
def test_cli_printed_orders_are_invariant_under_relabelling(x, data):
    assume(len(x.M) * len(x.P) ** 2 <= 300)
    y, p_name = data.draw(relabelled(x))
    expected = printed_by_cli(x)
    expected["at"] = {p_name[a]: orders for a, orders in expected["at"].items()}
    assert printed_by_cli(y) == expected
