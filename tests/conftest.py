import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bruteforce import brute_loop_gpd_tables, brute_loop_group
from xmodloop import fixtures
from xmodloop.loop import loop_data, loop_gpd_xmod

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


def assert_loop_tables_match_brute_force(x):
    """Every table of loop_gpd_xmod and loop_data equals the label-arithmetic one, in order."""
    gxm, expected = loop_gpd_xmod(x), brute_loop_gpd_tables(x)
    base = gxm.base
    assert list(base.objects) == list(x.P)
    assert list(base.morphisms) == expected["morphisms"]
    for name, table in (("source", base.source), ("target", base.target),
                        ("compose", base.compose), ("identities", base.identities),
                        ("boundary", gxm.boundary), ("action", gxm.action)):
        assert list(table.items()) == list(expected[name].items()), name
    assert [(a, group_table(g)) for a, g in gxm.fibres.items()] == [
        (a, (elements, table)) for a, (elements, table) in expected["fibres"].items()]
    for a in x.P:
        data, group = loop_data(x, a), brute_loop_group(x, a)
        assert group_table(data.Pa) == (group["elements"], group["table"]), a
        assert list(data.delta_a.mapping.items()) == list(group["delta_a"].items()), a
        assert list(data.action.table.items()) == list(group["action"].items()), a
