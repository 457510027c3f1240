"""Library code computes on positions: no CLI subcommand does label arithmetic.

Every subcommand runs on the five fixtures, at every base, in both
formats, and on the document that ``loop --emit`` writes at each base.
Meanwhile each label-level operation is wrapped and counted: the group
operations ``add``, ``neg``, ``sub``, ``conj`` and ``commutator``,
``Homomorphism.__call__``, ``GroupAction.act`` and ``CrossedModule.act``.
Only library code runs while they are wrapped, and it must call none of
them.

The groupoid layer reads no names either: while the loop groupoid, theta,
psi and the groupoid invariants run on the fixtures, the constructors
that read a label table (``make_group``, ``homomorphism``,
``group_action``) are never called, and ``FiniteGroup.index`` at most
once per base argument.
"""

import contextlib
import io
import json
import sys
from collections import Counter

from conftest import FIXTURE_NAMES, fixture
from xmodloop import groups
from xmodloop.cli import run_cli
from xmodloop.exactseq import fibration_psi
from xmodloop.groupoids import homotopy_at, pi0, vertex_group
from xmodloop.groups import FiniteGroup, GroupAction, Homomorphism
from xmodloop.loop import loop_gpd_xmod, theta
from xmodloop.xmod import CrossedModule

LABEL_READERS = ("make_group", "homomorphism", "group_action")

LABEL_API = [(FiniteGroup, name) for name in ("add", "neg", "sub", "conj", "commutator")]
LABEL_API += [(Homomorphism, "__call__"), (GroupAction, "act"), (CrossedModule, "act")]


def argvs(path, bases):
    """Every subcommand on the document at path, at each of the bases."""
    yield ["check", path]
    yield ["pi", path, "--space", "base"]
    yield ["components", path]
    for dim in ("2", "3"):
        yield ["nerve", path, "--dim", dim]
        yield ["nerve", path, "--dim", dim, "--list"]
    for base in bases:
        yield ["pi", path, "--space", "loop", "--base", base]
        yield ["loop", path, "--base", base]
        yield ["exact", path, "--base", base]
        yield ["examples", path, "--base", base]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(argv)
    assert code == 0, argv
    return out.getvalue()


def test_no_subcommand_calls_the_label_api(monkeypatch, fixture_path, tmp_path):
    calls = Counter()
    for owner, name in LABEL_API:
        def counted(*args, _original=getattr(owner, name), _key=f"{owner.__name__}.{name}",
                    **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    for fixture in FIXTURE_NAMES:
        path = fixture_path(fixture)
        bases = json.loads(path.read_text(encoding="utf-8"))["P"]["elements"]
        for base in bases:
            emitted = tmp_path / f"{fixture}-{bases.index(base)}.json"
            emitted.write_text(run(["loop", str(path), "--base", base, "--emit"]),
                               encoding="utf-8")
            loop_bases = json.loads(emitted.read_text(encoding="utf-8"))["P"]["elements"]
            for argv in argvs(str(emitted), loop_bases[:1]):
                run(argv)
        for argv in argvs(str(path), bases):
            for fmt in ("text", "json"):
                run([*argv, "--format", fmt])
    assert calls == Counter()


def count_label_readers(monkeypatch, calls):
    """Count calls to the label-table constructors in every namespace that holds them,
    and to ``FiniteGroup.index``."""
    for name in LABEL_READERS:
        original = getattr(groups, name)

        def counted(*args, _original=original, _key=name, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("xmodloop") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    index = FiniteGroup.index

    def counted_index(self, x):
        calls["index"] += 1
        return index(self, x)
    monkeypatch.setattr(FiniteGroup, "index", counted_index)


def test_the_groupoid_layer_reads_one_name_per_base_argument(monkeypatch):
    modules = [fixture(name) for name in FIXTURE_NAMES]
    calls = Counter()
    count_label_readers(monkeypatch, calls)

    def names_read(build, *args):
        before = calls.copy()
        build(*args)
        return calls - before

    for x in modules:
        assert names_read(loop_gpd_xmod, x) == Counter()
        for a in x.P.elements:
            assert names_read(theta, x, a) <= Counter(index=1), a
        assert names_read(fibration_psi, x) == Counter()
        gxm = loop_gpd_xmod(x)
        assert names_read(pi0, gxm) == Counter()
        for a in gxm.base.objects:
            for entry, arg in ((vertex_group, gxm.base), (homotopy_at, gxm)):
                assert names_read(entry, arg, a) <= Counter(index=1), (entry.__name__, a)
