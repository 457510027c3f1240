"""Every groupoid is an action groupoid: its lookups against written-out tables.

The loop groupoid is the action groupoid of the group G of pairs (m, p)
acting on P.  Written out as a composition table, it must pass
``make_groupoid``, and each composite, source, target, identity and
inverse must equal the label arithmetic of ``bruteforce``, in order.  A
broken action table must raise the witness of the plain full scan.
"""

import pytest

from conftest import (
    IDENTITY_MODULES,
    assert_loop_tables_match_brute_force,
    fixture,
    identity_module,
)
from test_certificates import outcome
from xmodloop.groupoids import action_groupoid
from xmodloop.groups import semidirect_product
from xmodloop.loop import loop_gpd_xmod


@pytest.mark.parametrize("name", sorted(IDENTITY_MODULES))
def test_identity_module_loop_tables_equal_label_arithmetic(name):
    # the fixtures run the same check in test_loop.py
    assert_loop_tables_match_brute_force(identity_module(IDENTITY_MODULES[name], name))


def scan_action(group, objects, act, morphisms):
    """The first failure of action_groupoid's laws, by the plain definitions."""
    n = len(objects)
    e = group.index(group.identity)
    for k in range(n):
        if act[e][k] != k:
            return ("InvalidGroupoid", "identity-missing", (objects[k],))
    for h in range(len(group)):
        for g in range(len(group)):
            hg = group.index(group.add(group.elements[h], group.elements[g]))
            for k in range(n):
                if act[hg][k] != act[h][act[g][k]]:
                    return ("InvalidGroupoid", "composition-endpoints", (
                        morphisms[h * n + act[g][k]], morphisms[g * n + k], morphisms[hg * n + k]))
    return None


@pytest.mark.parametrize("name", ["inc24", "mod32", "inn3"])
def test_every_single_entry_action_mutant_raises_the_full_scan_witness(name):
    base = loop_gpd_xmod(fixture(name)).base
    group, objects, morphisms = base.group, base.objects, base.morphisms
    assert scan_action(group, objects, base.act, morphisms) is None
    mutants = 0
    for i, row in enumerate(base.act):
        for k, value in enumerate(row):
            for other in range(len(objects)):
                if other == value:
                    continue
                act = [list(r) for r in base.act]
                act[i][k] = other
                expected = scan_action(group, objects, act, morphisms)
                assert expected is not None
                assert outcome(lambda: action_groupoid(group, objects, act, morphisms)) == expected
                mutants += 1
    assert mutants == len(morphisms) * (len(objects) - 1)


def pair_table(group):
    return [[group.add(u, v) for v in group] for u in group]


def test_loop_group_differs_from_semidirect_product_only_for_nonabelian_m():
    # G adds (n, q) + (m, p) = (m + n^p, q + p); semidirect_product gives n^p + m
    for x, agree in ((identity_module(IDENTITY_MODULES["S3"], "S3"), False),
                     (fixture("mod32"), True), (fixture("inc24"), True)):
        G = loop_gpd_xmod(x).base.group
        twisted = semidirect_product(x.M, x.P, x.action)
        assert G.elements == twisted.elements
        assert x.M.is_abelian() == agree
        assert (pair_table(G) == pair_table(twisted)) == agree
