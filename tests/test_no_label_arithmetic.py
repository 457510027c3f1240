"""Library code computes on positions: no CLI subcommand does label arithmetic.

Every subcommand runs on the five fixtures, at every base, in both
formats, and on the document that ``loop --emit`` writes at each base.
Meanwhile each label-level operation is wrapped and counted: the group
operations ``add``, ``neg``, ``sub``, ``conj`` and ``commutator``,
``Homomorphism.__call__``, ``GroupAction.act`` and ``CrossedModule.act``.
Only library code runs while they are wrapped, and it must call none of
them.
"""

import contextlib
import io
import json
from collections import Counter

from conftest import FIXTURE_NAMES
from xmodloop.cli import run_cli
from xmodloop.groups import FiniteGroup, GroupAction, Homomorphism
from xmodloop.xmod import CrossedModule

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
