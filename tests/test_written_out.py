"""One fibre group acted on through G against the written-out form it replaced.

The library stores a crossed module over an action groupoid G x X as one
group M, G's action on M as a |G| x |M| table of positions and the
boundary as a |X| x |M| table of positions in G.  Written out by object
and by arrow (``bruteforce.written_out_gxm``) it is the form the library
stored before: a copy of M over each object, a boundary dict and an
action dict keyed by (fibre element, morphism), checked by
``bruteforce.make_written_gxm`` and ``bruteforce.check_written_morphism``.
Every single-entry mutant of the new tables of three fixtures, and of the
group and fibre maps of theta, psi and the loop module's identity, must
be refused exactly when the written-out validators refuse it, under the
same law names.
"""

from collections import Counter

import pytest

from bruteforce import (
    check_written_morphism,
    make_written_gxm,
    written_out_gxm,
    written_out_maps,
)
from conftest import S4_GENERATORS, assert_written_fibre_tables, fixture, identity_module
from test_certificates import identity_maps
from xmodloop.errors import XModError
from xmodloop.exactseq import fibration_psi
from xmodloop.groupoids import check_morphism, make_gxm, make_gxm_morphism
from xmodloop.loop import loop_gpd_xmod, theta

MUTATED = ["inc24", "mod32", "inn3"]


def law(build):
    """None if build() succeeds, else the error class and law of what it raised."""
    try:
        build()
    except XModError as exc:
        return (type(exc).__name__, getattr(exc, "law", None))
    return None


def verdicts(base, fibre, act, boundary):
    """The law make_gxm refuses the tables under, and the law of their written-out form."""
    form = written_out_gxm(base, fibre, act, boundary)
    return (law(lambda: make_gxm(base, fibre, act, boundary)),
            law(lambda: make_written_gxm(base, form.fibres, form.boundary, form.action)))


def test_s4_loop_module_theta_and_psi_fibre_equal_the_written_out_form():
    # the fixtures, id: S3, D4 and A4 and generated modules run the same check
    # through assert_loop_tables_match_brute_force
    assert_written_fibre_tables(identity_module(S4_GENERATORS, "S4"))


def single_entry_mutants(table, values):
    """(row, column, value, mutated copy) for each entry and each other value."""
    for i, row in enumerate(table):
        for t, current in enumerate(row):
            for value in values:
                if value != current:
                    mutant = [list(r) for r in table]
                    mutant[i][t] = value
                    yield i, t, value, mutant


@pytest.mark.parametrize("name", MUTATED)
def test_every_table_mutant_is_refused_under_the_written_out_law(name):
    gxm = loop_gpd_xmod(fixture(name))
    base, fibre = gxm.base, gxm.fibre
    assert verdicts(base, fibre, gxm.act, gxm.boundary) == (None, None)
    laws = Counter()
    for i, t, value, act in single_entry_mutants(gxm.act, range(len(fibre))):
        new, old = verdicts(base, fibre, act, gxm.boundary)
        assert new == old, ("act", i, t, value)
        laws[new] += 1
    for k, t, value, boundary in single_entry_mutants(gxm.boundary, range(len(base.group))):
        new, old = verdicts(base, fibre, gxm.act, boundary)
        assert new == old, ("boundary", k, t, value)
        laws[new] += 1
    n, nx, nm = len(base.group), len(base.objects), len(fibre)
    assert sum(laws.values()) == n * nm * (nm - 1) + nx * nm * (n - 1)
    assert {("InvalidAction", "composition"), ("InvalidGroupoidXMod", "boundary-hom")} <= set(laws)
    moved = any(row[k] != k for row in base.act for k in range(nx))
    assert (("InvalidGroupoidXMod", "boundary-vertex") in laws) == moved


def morphisms_of(name):
    """theta at every base, psi and the identity of the loop module, each with the
    fibre labels of its written-out ends.

    The identity's group-map mutants are the ones that can move endpoints."""
    x = fixture(name)
    gxm = loop_gpd_xmod(x)
    identity = make_gxm_morphism(gxm, gxm, *identity_maps(gxm))
    pair, plain = (lambda m, a: (m, a)), (lambda m, a: m)
    return ([(theta(x, a), pair, plain) for a in x.P] + [(fibration_psi(x).psi, pair, plain)]
            + [(identity, pair, pair)])


def kinds(report) -> list:
    return list(dict.fromkeys(v.kind for v in report))


@pytest.mark.parametrize("name", MUTATED)
def test_every_morphism_map_mutant_is_refused_under_the_written_out_laws(name):
    gxm, laws = loop_gpd_xmod(fixture(name)), Counter()
    for f, source_label, target_label in morphisms_of(name):
        source, target = f.source, f.target
        written = (written_out_gxm(source.base, source.fibre, source.act, source.boundary,
                                   source_label),
                   written_out_gxm(target.base, target.fibre, target.act, target.boundary,
                                   target_label))

        def reports(group_map, fibre_map):
            new = check_morphism(source, target, group_map, f.obj_map, fibre_map)
            old = check_written_morphism(*written, *written_out_maps(
                *written, group_map, f.obj_map, fibre_map))
            return kinds(new), kinds(old)

        assert reports(f.group_map, f.fibre_map) == ([], [])
        refused = 0
        for _, i, value, (group_map,) in single_entry_mutants([f.group_map],
                                                                range(len(target.base.group))):
            new, old = reports(group_map, f.fibre_map)
            assert new == old, ("group map", i, value)
            refused += bool(new)
            laws[tuple(new)] += 1
        for _, t, value, (fibre_map,) in single_entry_mutants([f.fibre_map],
                                                                range(len(target.fibre))):
            new, old = reports(f.group_map, fibre_map)
            assert new == old, ("fibre map", t, value)
            refused += bool(new)
        assert refused
    moved = any(row[k] != k for row in gxm.base.act for k in range(len(row)))
    assert (("endpoints",) in laws) == moved
