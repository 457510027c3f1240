"""Byte-level regression test for ``check`` on every single-entry mutant of the fixtures.

A mutant replaces one entry of ``m_table``, ``p_table``, ``delta`` or
``action`` of a fixture document by another element of that entry's
codomain: 537 documents over the five fixtures.  ``check_mutants_golden.json``
maps each mutant, e.g. ``inn3 p_table[1][3] = e``, to one sha256 over the
stdout and exit code of ``check`` in text and in json.  Regenerate it,
after a deliberate output change, with

    PYTHONPATH=src python tests/test_check_mutants_golden.py
"""

import contextlib
import copy
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from xmodloop import fixtures
from xmodloop.cli import run_cli
from xmodloop.documents import load_document, serialize_document

FIXTURES_DIR = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "check_mutants_golden.json"


def mutants():
    """(id, candidate) for every entry of every fixture and every other value it can take."""
    for name in fixtures.FIXTURE_NAMES:
        doc = load_document((FIXTURES_DIR / f"{name}.json").read_text(encoding="utf-8"))
        ms, ps = doc.m_elements, doc.p_elements
        entries = [(f"{table}[{i}][{j}]", (table, i, j), elements)
                   for table, elements in (("m_table", ms), ("p_table", ps))
                   for i in range(len(elements)) for j in range(len(elements))]
        entries += [(f"delta[{m}]", ("delta", m), ps) for m in ms]
        entries += [(f"action[{p}][{m}]", ("action", p, m), ms) for p in ps for m in ms]
        for label, (table, *path), codomain in entries:
            for value in codomain:
                mutant = copy.deepcopy(doc)
                row = getattr(mutant, table)
                for key in path[:-1]:
                    row = row[key]
                if row[path[-1]] == value:
                    continue
                row[path[-1]] = value
                yield f"{name} {label} = {value}", mutant


def digest(candidate, directory: Path) -> str:
    """sha256 over both stdouts and both exit codes of ``check`` in text, then json."""
    path = directory / "mutant.json"
    path.write_text(serialize_document(candidate), encoding="utf-8")
    runs = []
    for fmt in ("text", "json"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(["check", str(path), "--format", fmt])
        runs.append([out.getvalue(), code])
    return hashlib.sha256(json.dumps(runs).encode("utf-8")).hexdigest()


def test_check_on_every_mutant_matches_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    table = {key: digest(mutant, tmp_path) for key, mutant in mutants()}
    assert len(table) == 537
    assert sorted(expected) == sorted(table)
    changed = [key for key, value in table.items() if value != expected[key]]
    assert not changed, changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        table = {key: digest(mutant, Path(directory)) for key, mutant in mutants()}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
