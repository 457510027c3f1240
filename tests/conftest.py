import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bruteforce import brute_loop_gpd_tables, brute_loop_group
from xmodloop import fixtures
from xmodloop.groupoids import make_groupoid
from xmodloop.groups import group_action, homomorphism, make_group
from xmodloop.loop import loop_data, loop_gpd_xmod
from xmodloop.xmod import make_xmod

FIXTURES_DIR = Path(__file__).parent / "fixtures"


@pytest.fixture(params=list(fixtures.FIXTURE_NAMES))
def any_xmod(request):
    return fixtures.all_fixtures()[request.param]


@pytest.fixture
def fixture_path():
    def path_of(name: str) -> Path:
        return FIXTURES_DIR / f"{name}.json"

    return path_of


def all_base_pairs():
    """Every (fixture, base element) pair, 19 in total."""
    pairs = []
    for name, x in fixtures.all_fixtures().items():
        for a in x.P.elements:
            pairs.append((name, a))
    return pairs


def group_table(group):
    """A group's elements and its composition table of labels, in input order."""
    return list(group.elements), [[group.add(x, y) for y in group] for x in group]


def written_out(base):
    """A groupoid's lookups written out as tables, in morphism order.

    ``compose`` lists the composable pairs (u, v) with u in morphism order
    and v in ``star`` order; ``args`` are the six arguments of
    ``make_groupoid``.
    """
    ms = base.morphisms
    source = {u: base.source(u) for u in ms}
    target = {u: base.target(u) for u in ms}
    stars = {x: base.star(x) for x in base.objects}
    compose = {(u, v): base.compose(u, v) for u in ms for v in stars[target[u]]}
    identities = {x: base.identity(x) for x in base.objects}
    table = SimpleNamespace(objects=base.objects, morphisms=ms, source=source, target=target,
                            compose=compose, identities=identities,
                            inverses={u: base.inverse(u) for u in ms})
    table.args = (base.objects, ms, source, target, compose, identities)
    return table


def identity_module(generators, name):
    """id: G -> G with G acting on itself by conjugation; G is generated by permutations.

    Elements are named by their images, with x + y meaning "x, then y".
    """
    perms = [tuple(range(len(generators[0])))]
    for p in perms:  # grows while it is walked
        for g in generators:
            q = tuple(g[i] for i in p)
            if q not in perms:
                perms.append(q)
    names = {p: "".join(map(str, p)) for p in perms}
    table = [[names[tuple(q[i] for i in p)] for q in perms] for p in perms]
    G = make_group([names[p] for p in perms], table, names[perms[0]], name=name)
    delta = homomorphism(G, G, {g: g for g in G})
    action = group_action(G, G, {(m, p): G.conj(m, p) for m in G for p in G})
    return make_xmod(G, G, delta, action, name=f"id: {name}")


IDENTITY_MODULES = {"S3": [(1, 2, 0), (1, 0, 2)], "D4": [(1, 2, 3, 0), (0, 3, 2, 1)],
                    "A4": [(1, 2, 0, 3), (0, 2, 3, 1)]}


def assert_loop_tables_match_brute_force(x):
    """Every table of loop_gpd_xmod and loop_data equals the label-arithmetic one, in order.

    The loop groupoid's lookups are written out as a composition table,
    which ``make_groupoid`` must accept.
    """
    gxm, expected = loop_gpd_xmod(x), brute_loop_gpd_tables(x)
    base = gxm.base
    written = written_out(base)
    assert make_groupoid(*written.args) is None
    assert list(base.objects) == list(x.P)
    assert list(base.morphisms) == expected["morphisms"]
    for name, got in (("source", written.source), ("target", written.target),
                      ("compose", written.compose), ("identities", written.identities),
                      ("inverses", written.inverses),
                      ("boundary", gxm.boundary), ("action", gxm.action)):
        assert list(got.items()) == list(expected[name].items()), name
    assert [(a, group_table(g)) for a, g in gxm.fibres.items()] == [
        (a, (elements, table)) for a, (elements, table) in expected["fibres"].items()]
    for a in x.P:
        data, group = loop_data(x, a), brute_loop_group(x, a)
        assert group_table(data.Pa) == (group["elements"], group["table"]), a
        assert list(data.delta_a.mapping.items()) == list(group["delta_a"].items()), a
        assert list(data.action.table.items()) == list(group["action"].items()), a
