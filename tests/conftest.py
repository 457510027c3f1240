import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bruteforce import (
    brute_loop_fibre_tables,
    brute_loop_gpd_tables,
    brute_loop_group,
    label_action,
    label_map,
    make_groupoid,
    make_written_gxm,
    written_out,
    written_out_gxm,
)
from xmodloop.documents import parse_xmod
from xmodloop.exactseq import fibration_psi
from xmodloop.groups import group_action, homomorphism, make_group
from xmodloop.loop import loop_data, loop_gpd_xmod, theta
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
S4_GENERATORS = [(1, 2, 3, 0), (1, 0, 2, 3)]


def written(gxm, label=lambda m, x: (m, x)):
    """gxm written out by object and by arrow (``bruteforce.written_out_gxm``)."""
    return written_out_gxm(gxm.base, gxm.fibre, gxm.act, gxm.boundary, label)


def assert_loop_tables_match_brute_force(x):
    """Every table of loop_gpd_xmod and loop_data equals the label-arithmetic one, in order.

    The loop groupoid's lookups are written out as a composition table,
    which ``make_groupoid`` must accept; its fibres, boundary and action,
    written out by object and by arrow, must be the label-arithmetic ones.
    """
    gxm, expected = loop_gpd_xmod(x), brute_loop_gpd_tables(x)
    base = gxm.base
    tables = written_out(base)
    assert make_groupoid(*tables.args) is None
    assert list(base.objects) == list(x.P)
    assert list(base.morphisms) == expected["morphisms"]
    for name, got in (("source", tables.source), ("target", tables.target),
                      ("compose", tables.compose), ("identities", tables.identities),
                      ("inverses", tables.inverses)):
        assert list(got.items()) == list(expected[name].items()), name
    assert_written_fibre_tables(x, expected)
    for a in x.P:
        data, group = loop_data(x, a), brute_loop_group(x, a)
        assert group_table(data.xmod.P) == (group["elements"], group["table"]), a
        assert list(label_map(data.xmod.delta).items()) == list(group["delta_a"].items()), a
        assert list(label_action(data.xmod.action).items()) == list(group["action"].items()), a


def assert_written_fibre_tables(x, expected=None):
    """The loop module, theta's source at every base and psi's fibre equal the written-out form.

    Written out by object and by arrow, the loop module's fibres, boundary
    and action equal the label arithmetic of ``bruteforce``, in order, and
    each piece equals its slice of them; ``make_written_gxm``, the
    validator of the written-out form, accepts all three.
    """
    expected = expected or brute_loop_fibre_tables(x)
    gxm = loop_gpd_xmod(x)
    whole = written(gxm)
    assert list(whole.boundary.items()) == list(expected["boundary"].items())
    assert list(whole.action.items()) == list(expected["action"].items())
    assert [(a, group_table(g)) for a, g in whole.fibres.items()] == list(
        expected["fibres"].items())
    make_written_gxm(gxm.base, whole.fibres, whole.boundary, whole.action)
    for a in x.P:
        src = theta(x, a).source
        piece, kept = written(src), set(src.base.morphisms)
        assert [(b, group_table(g)) for b, g in piece.fibres.items()] == [
            (a, group_table(whole.fibres[a]))]
        assert list(piece.boundary.items()) == [(m, whole.boundary[m]) for m in whole.fibres[a]]
        assert list(piece.action.items()) == [
            (key, n) for key, n in whole.action.items() if key[1] in kept]
        make_written_gxm(src.base, piece.fibres, piece.boundary, piece.action)
    fibre = fibration_psi(x).fibre
    piece, kept = written(fibre), set(fibre.base.morphisms)
    zeros = {(x.M.identity, a) for a in x.P}
    assert [(a, group_table(g)) for a, g in piece.fibres.items()] == [
        (a, ([(x.M.identity, a)], [[(x.M.identity, a)]])) for a in x.P]
    assert list(piece.boundary.items()) == [
        (m, d) for m, d in whole.boundary.items() if m in zeros]
    assert list(piece.action.items()) == [
        ((m, u), n) for (m, u), n in whole.action.items() if m in zeros and u in kept]
    make_written_gxm(fibre.base, piece.fibres, piece.boundary, piece.action)
