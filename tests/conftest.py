import sys
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bruteforce import brute_loop_gpd_tables, brute_loop_group, make_groupoid
from xmodloop.documents import parse_xmod
from xmodloop.groups import group_action, homomorphism, make_group
from xmodloop.loop import loop_data, loop_gpd_xmod
from xmodloop.xmod import make_xmod

FIXTURES_DIR = Path(__file__).parent / "fixtures"
# triv 1 -> 1; conj_s3 1 -> S3; inc24 C2 -> C4, 1 -> 2 (trivial action);
# mod32 0: C3 -> C2 (C2 inverts C3); inn3 C3 -> S3 onto A3 (conjugation)
FIXTURE_NAMES = ("triv", "conj_s3", "inc24", "mod32", "inn3")


@lru_cache(maxsize=None)
def fixture(name: str):
    """The bundled crossed module ``name``, parsed once: the library's caches key on identity."""
    return parse_xmod((FIXTURES_DIR / f"{name}.json").read_text(encoding="utf-8"))


def all_fixtures() -> dict:
    return {name: fixture(name) for name in FIXTURE_NAMES}


@lru_cache(maxsize=None)
def cyclic(n: int):
    """C_n on the names "0" .. "n-1"."""
    names = [str(i) for i in range(n)]
    return make_group(names, [[names[(i + j) % n] for j in range(n)] for i in range(n)], "0")


@pytest.fixture(params=FIXTURE_NAMES)
def any_xmod(request):
    return fixture(request.param)


@pytest.fixture
def fixture_path():
    def path_of(name: str) -> Path:
        return FIXTURES_DIR / f"{name}.json"

    return path_of


def all_base_pairs():
    """Every (fixture, base element) pair, 19 in total."""
    pairs = []
    for name, x in all_fixtures().items():
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
    G = make_group([names[p] for p in perms], table, names[perms[0]])
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
