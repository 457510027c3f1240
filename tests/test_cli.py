import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bruteforce import brute_pa
from conftest import FIXTURE_NAMES, fixture
from xmodloop import cli
from xmodloop.cli import build_parser, run_cli
from xmodloop.documents import parse_xmod
from xmodloop.groups import are_isomorphic
from xmodloop.loop import pi_loop
from xmodloop.xmod import homotopy


def invoke(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid_fixture(capsys, fixture_path):
    code, out, _ = invoke(capsys, "check", str(fixture_path("mod32")))
    assert code == 0
    assert out.strip() == "valid crossed module"


def test_check_all_fixtures(capsys, fixture_path):
    for name in FIXTURE_NAMES:
        code, out, _ = invoke(capsys, "check", str(fixture_path(name)))
        assert code == 0, name


def test_check_invalid_document(tmp_path, capsys, fixture_path):
    doc = json.loads(fixture_path("inc24").read_text(encoding="utf-8"))
    doc["P"]["table"][1][1] = "0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = invoke(capsys, "check", str(bad))
    assert code == 1
    assert "violation" in out


def test_check_json_format(capsys, fixture_path):
    code, out, _ = invoke(capsys, "check", str(fixture_path("inn3")),
                          "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True


def test_pi_base(capsys, fixture_path):
    code, out, _ = invoke(capsys, "pi", str(fixture_path("mod32")), "--space", "base")
    assert code == 0
    assert "pi1: order 2" in out
    assert "pi2: order 3" in out


def test_pi_loop_json(capsys, fixture_path):
    code, out, _ = invoke(capsys, "pi", str(fixture_path("mod32")),
                          "--space", "loop", "--base", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pi1"]["order"] == 2
    assert payload["pi2"]["order"] == 1


def test_pi_loop_requires_base(capsys, fixture_path):
    code, _, err = invoke(capsys, "pi", str(fixture_path("mod32")), "--space", "loop")
    assert code == 2
    assert "--base" in err


def test_components_output(capsys, fixture_path):
    code, out, _ = invoke(capsys, "components", str(fixture_path("conj_s3")))
    assert code == 0
    assert "components: 3" in out
    assert "conjugacy classes of pi1: 3 (match)" in out


def test_nerve_counts(capsys, fixture_path):
    code, out, _ = invoke(capsys, "nerve", str(fixture_path("inc24")), "--dim", "2")
    assert code == 0
    assert "K2 count: 32" in out
    code, out, _ = invoke(capsys, "nerve", str(fixture_path("inc24")), "--dim", "3")
    assert code == 0
    assert "K3 count: 512" in out


def test_nerve_listing_parses(capsys, fixture_path):
    code, out, _ = invoke(capsys, "nerve", str(fixture_path("triv")),
                          "--dim", "2", "--list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["simplices"] == [{"m": "0", "c": "0", "a": "0", "b": "0"}]


def test_loop_summary(capsys, fixture_path):
    code, out, _ = invoke(capsys, "loop", str(fixture_path("mod32")), "--base", "0")
    assert code == 0
    assert "P(0): order 6" in out
    assert "pi1: order 6" in out
    assert "pi2: order 3" in out


def test_loop_emit_self_hosts(capsys, fixture_path):
    code, out, _ = invoke(capsys, "loop", str(fixture_path("mod32")),
                          "--base", "0", "--emit")
    assert code == 0
    emitted = parse_xmod(out)
    original = fixture("mod32")
    expected = pi_loop(original, "0")
    data = homotopy(emitted)
    assert are_isomorphic(data.pi1, expected.pi1) is not None
    assert are_isomorphic(data.pi2, expected.pi2) is not None


def test_emitted_document_checks_clean(tmp_path, capsys, fixture_path):
    code, out, _ = invoke(capsys, "loop", str(fixture_path("mod32")),
                          "--base", "0", "--emit")
    assert code == 0
    path = tmp_path / "loop.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = invoke(capsys, "check", str(path))
    assert code == 0


def test_exact_output(capsys, fixture_path):
    code, out, _ = invoke(capsys, "exact", str(fixture_path("mod32")), "--base", "1")
    assert code == 0
    assert "pi^a=1, pi=3, pi1(fibre)=3, pi1(loop)=2, centralizer=2" in out
    assert "exact at every node: yes" in out


def test_examples_output(capsys, fixture_path):
    code, out, _ = invoke(capsys, "examples", str(fixture_path("mod32")), "--base", "1")
    assert code == 0
    assert "example1: passed" in out
    assert "example2: passed" in out


def test_examples_skip_reasons(capsys, fixture_path):
    code, out, _ = invoke(capsys, "examples", str(fixture_path("inn3")), "--base", "s")
    assert code == 0
    assert "example1: skipped" in out
    assert "example2: skipped" in out


def test_usage_error_exit_code(capsys, fixture_path):
    code, _, _ = invoke(capsys, "nerve", str(fixture_path("triv")), "--dim", "5")
    assert code == 2
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 2


def test_missing_file_is_a_validation_failure(capsys):
    code, _, err = invoke(capsys, "check", "no-such-file.json")
    assert code == 1


def test_unknown_base_element(capsys, fixture_path):
    code, _, err = invoke(capsys, "loop", str(fixture_path("mod32")), "--base", "9")
    assert code == 1
    assert "9" in err


def test_output_is_deterministic(capsys, fixture_path):
    first = invoke(capsys, "exact", str(fixture_path("inn3")), "--base", "r",
                   "--format", "json")
    second = invoke(capsys, "exact", str(fixture_path("inn3")), "--base", "r",
                    "--format", "json")
    assert first == second
    json.loads(first[1])


def _cyclic_block(elements):
    n = len(elements)
    table = [[elements[(i + j) % n] for j in range(n)] for i in range(n)]
    return {"elements": elements, "table": table, "identity": elements[0]}


def test_bar_in_element_names_never_crashes(tmp_path, capsys):
    # "a|b" makes every pair name of P(a) contain two bars
    bar = {
        "name": "bar",
        "P": {"elements": ["e", "c"], "table": [["e", "c"], ["c", "e"]], "identity": "e"},
        "M": {"elements": ["0", "a|b"], "table": [["0", "a|b"], ["a|b", "0"]],
              "identity": "0"},
        "delta": {"0": "e", "a|b": "e"},
        "action": {p: {"0": "0", "a|b": "a|b"} for p in ("e", "c")},
    }
    # the pairs ("a|b", "c") and ("a", "b|c") of P(a) share the name "(a|b|c)"
    m_elements, p_elements = ["0", "a", "a|b"], ["0", "c", "b|c"]
    collision = {
        "name": "collision",
        "P": _cyclic_block(p_elements),
        "M": _cyclic_block(m_elements),
        "delta": {m: "0" for m in m_elements},
        "action": {p: {m: m for m in m_elements} for p in p_elements},
    }
    for doc in (bar, collision):
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        runs = [["check"], ["pi", "--space", "base"], ["components"],
                ["nerve", "--dim", "2", "--list"], ["nerve", "--dim", "3"]]
        for base in doc["P"]["elements"]:
            runs += [["pi", "--space", "loop", "--base", base], ["loop", "--base", base],
                     ["loop", "--base", base, "--emit"], ["exact", "--base", base],
                     ["examples", "--base", base]]
        for argv in runs:
            for fmt in ("text", "json"):
                code, _, err = invoke(capsys, argv[0], str(path), *argv[1:], "--format", fmt)
                assert code in (0, 1), (doc["name"], argv, fmt, err)
                assert "Traceback" not in err


def test_colliding_composite_names_are_answered(tmp_path, capsys):
    # the pairs ("a|b", "c") and ("a", "b|c") of P(a) both render as "(a|b|c)"
    m_elements, p_elements = ["0", "a", "a|b"], ["0", "c", "b|c"]
    doc = {
        "P": _cyclic_block(p_elements),
        "M": _cyclic_block(m_elements),
        "delta": {m: "0" for m in m_elements},
        "action": {p: {m: m for m in m_elements} for p in p_elements},
    }
    path = tmp_path / "collision.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    x = parse_xmod(path.read_text(encoding="utf-8"))
    M = x.M
    for a in p_elements:
        pa_order = len(brute_pa(x, a))
        boundaries = {(M.add(M.neg(x.act(m, a)), m), x.delta(m)) for m in M}
        for argv in (["pi", "--space", "loop"], ["loop"], ["exact"], ["examples"]):
            for fmt in ("text", "json"):
                code, _, err = invoke(capsys, argv[0], str(path), *argv[1:], "--base", a,
                                      "--format", fmt)
                assert code == 0, (argv, a, fmt, err)
        code, out, _ = invoke(capsys, "loop", str(path), "--base", a, "--format", "json")
        payload = json.loads(out)
        assert payload["Pa"]["order"] == pa_order
        assert payload["pi1"]["order"] == pa_order // len(boundaries)
        code, out, _ = invoke(capsys, "pi", str(path), "--space", "loop", "--base", a,
                              "--format", "json")
        assert json.loads(out)["pi1"]["order"] == pa_order // len(boundaries)
        code, out, err = invoke(capsys, "loop", str(path), "--base", a, "--emit")
        assert code == 1
        assert "'(a|b|c)'" in err
        assert err.startswith("error: ") and "Traceback" not in err


def test_unreadable_files_are_validation_failures(tmp_path, capsys):
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe{\x00}\x00")
    for path in (tmp_path, not_utf8):
        for argv in (["check", str(path)], ["pi", str(path), "--space", "base"]):
            code, _, err = invoke(capsys, *argv)
            assert code == 1, (argv, err)
            assert err.startswith("error: ") and "Traceback" not in err


SRC = str(Path(cli.__file__).resolve().parents[1])


def fresh_process(argv):
    """Exit code, stdout and stderr of one call in a new interpreter."""
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from xmodloop.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))", *argv],
        capture_output=True, text=True, encoding="utf-8", env=env)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("calls, codes", [
    # a listing's --list and --format must not reach the count after it
    ([["nerve", "{f}", "--dim", "3", "--list", "--format", "json"],
      ["nerve", "{f}", "--dim", "3"]], [0, 0]),
    ([["nerve", "{f}", "--dim", "5"], ["nerve", "{f}", "--dim", "2", "--list"]], [2, 0]),
    ([["--help"], ["check", "{f}"], ["nerve", "--help"], ["components", "{f}"]], [0, 0, 0, 0]),
    ([["pi", "{f}", "--space", "loop"], ["pi", "{f}", "--space", "loop", "--base", "1"]], [2, 0]),
], ids=["list-then-count", "usage-error-then-valid", "help-then-valid", "missing-base-then-base"])
def test_one_parser_answers_a_sequence_as_fresh_processes_do(calls, codes, monkeypatch, capsys,
                                                             fixture_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_PARSER", None)
    argvs = [[arg.format(f=fixture_path("mod32")) for arg in argv] for argv in calls]
    first = invoke(capsys, *argvs[0])
    parser = cli._PARSER
    in_process = [first] + [invoke(capsys, *argv) for argv in argvs[1:]]
    assert cli._PARSER is parser is not None  # built once, then reused
    assert [code for code, _, _ in in_process] == codes
    assert in_process == [fresh_process(argv) for argv in argvs]


def test_build_parser_returns_a_new_parser_each_call():
    assert build_parser() is not build_parser()


@pytest.mark.parametrize("text", ["[" * 200_000 + "]" * 200_000, "1" * 5000],
                         ids=["nested-200000", "integer-5000-digits"])
def test_undecodable_json_is_a_document_syntax_error(tmp_path, capsys, text):
    # Python 3.11 raises RecursionError and ValueError (the digit limit) on these;
    # where the digits parse, the top level is still not an object
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code, _, err = invoke(capsys, "check", str(path))
    assert code == 1
    assert err.startswith("error: document syntax error") and "Traceback" not in err


def module_process(argv):
    """Exit code, stdout and stderr of ``python -m xmodloop.cli`` with UTF-8 streams."""
    env = {**os.environ, "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "xmodloop.cli", *argv],
                          capture_output=True, text=True, encoding="utf-8", env=env)
    return done.returncode, done.stdout, done.stderr


def test_module_entry_point_runs_the_cli(fixture_path):
    code, out, err = module_process(["check", fixture_path("inc24")])
    assert (code, out, err) == (0, "valid crossed module\n", "")


def test_lone_surrogate_in_a_name_is_a_clean_failure_of_text_output(tmp_path, fixture_path):
    # valid JSON ("\ud800" escaped) that no UTF-8 stream can print
    def renamed(value):
        if isinstance(value, dict):
            return {renamed(k): renamed(v) for k, v in value.items()}
        if isinstance(value, list):
            return [renamed(v) for v in value]
        return "1\ud800" if value == "1" else value

    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(renamed(json.loads(Path(fixture_path("inc24")).read_text()))))
    for argv in (["nerve", str(path), "--dim", "2", "--list"],
                 ["loop", str(path), "--base", "0", "--emit"]):
        code, out, err = module_process(argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
    # JSON escapes the surrogate; an emitted document is written raw, so check the loop summary
    for argv in (["nerve", str(path), "--dim", "2", "--list"], ["loop", str(path), "--base", "0"]):
        code, out, _ = module_process([*argv, "--format", "json"])
        assert code == 0 and "\\ud800" in out, argv
