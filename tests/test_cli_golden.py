"""Byte-level regression test for every CLI subcommand on the fixtures.

``cli_golden.json`` maps each command line to the sha256 of its stdout
and its exit code.  Regenerate it, after a deliberate output change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from conftest import all_fixtures
from xmodloop import nerve
from xmodloop.cli import run_cli

FIXTURES_DIR = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "cli_golden.json"


def golden_runs():
    """Every subcommand on every fixture, at every base, in text and json."""
    runs = []
    for name, x in all_fixtures().items():
        argvs = [["check"], ["pi", "--space", "base"], ["components"]]
        argvs += [["nerve", "--dim", dim] + extra for dim in ("2", "3") for extra in ([], ["--list"])]
        for base in x.P.elements:
            argvs += [["pi", "--space", "loop", "--base", base], ["loop", "--base", base],
                      ["loop", "--base", base, "--emit"], ["exact", "--base", base],
                      ["examples", "--base", base]]
        for argv in argvs:
            for fmt in ("text", "json"):
                runs.append([argv[0], f"{name}.json", *argv[1:], "--format", fmt])
    return runs


def digest(argv) -> list:
    """[sha256 of stdout, exit code] of one run, with the file under tests/fixtures."""
    out, err = io.StringIO(), io.StringIO()
    real = [str(FIXTURES_DIR / a) if a.endswith(".json") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(real)
    return [hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code]


def test_cli_output_matches_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = golden_runs()
    assert sorted(expected) == sorted(" ".join(argv) for argv in runs)
    changed = [" ".join(argv) for argv in runs if digest(argv) != expected[" ".join(argv)]]
    assert not changed, changed


def test_nerve_dim3_count_builds_no_listing(monkeypatch):
    """Both ways to the listing raise, and a listing run shows that it takes one of them."""
    def listing(x):
        raise AssertionError("nerve --dim 3 built the listing")

    monkeypatch.setattr(nerve, "nerve_k3", listing)
    monkeypatch.setattr(nerve, "k3_rows", listing)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    dim3 = [argv for argv in golden_runs() if argv[0] == "nerve" and argv[3] == "3"]
    runs = [argv for argv in dim3 if "--list" not in argv]
    assert len(runs) == 2 * len(all_fixtures())
    assert all(digest(argv) == expected[" ".join(argv)] for argv in runs)
    for argv in dim3[-2:]:
        assert "--list" in argv
        with pytest.raises(AssertionError, match="built the listing"):
            digest(argv)


if __name__ == "__main__":
    table = {" ".join(argv): digest(argv) for argv in golden_runs()}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
