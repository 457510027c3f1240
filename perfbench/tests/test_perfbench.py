"""Tests of the benchmark itself: generator, oracle, checks and span arithmetic.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

import xmodloop as xl
import xmodloop.cli  # noqa: F401  (jobs reach run_cli as xl.cli.run_cli)
from perfbench import spans
from perfbench.check import check_job
from perfbench.oracle import Module
from perfbench.run import END_TO_END, tail_percentile
from perfbench.worker import Client
from perfbench.workloads import WORKLOADS, generate, make_doc, spec_of

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = sorted((ROOT / "tests" / "fixtures").glob("*.json"))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first, again, other = generate(name, 11), generate(name, 11), generate(name, 12)
    assert first.files == again.files
    assert [j.spec() for j in first.jobs] == [j.spec() for j in again.jobs]
    assert [j.expect for j in first.jobs] == [j.expect for j in again.jobs]
    assert first.files != other.files


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_names_and_order_not_work(name):
    def work(gen):
        return Counter((j.kind, j.label, j.top) for j in gen.jobs)

    assert work(generate(name, 1)) == work(generate(name, 2))


def test_relabelled_share_is_fixed():
    for name, wl in WORKLOADS.items():
        gen = generate(name, 3)
        relabelled = [d.relabelled for d in gen.docs]
        assert relabelled == [i % 4 == 3 for i in range(len(wl.labels))]
        for doc in gen.docs:
            names = doc.oracle.P + doc.oracle.M
            if doc.relabelled:
                assert all(n.count("|") == 1 and "(" in n and not n.isascii() for n in names)
            else:
                assert all(n.isascii() and "|" not in n for n in names)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_oracle_agrees_with_library_on_fixtures(path):
    text = path.read_text(encoding="utf-8")
    oracle = Module(json.loads(text))
    x = xl.parse_xmod(text)
    data = xl.homotopy(x)
    assert (len(data.pi1), len(data.pi2)) == (oracle.pi1_order, oracle.pi2_order)
    assert xl.components(x) == oracle.components()
    for a in oracle.P:
        loop_h = xl.pi_loop(x, a)
        assert len(xl.loop_data(x, a).Pa) == oracle.pa_order(a)
        assert (len(loop_h.pi1), len(loop_h.pi2)) == (oracle.loop_pi1_order(a),
                                                      oracle.fixed_order(a))
        seq = xl.exact_sequence(x, a)
        assert seq.abar == oracle.least_in_coset(a)
        assert seq.term_orders() == (oracle.fixed_order(a), oracle.pi2_order, oracle.pi2_order,
                                     oracle.loop_pi1_order(a), oracle.centralizer_order(a))
    m, p = len(oracle.M), len(oracle.P)
    k2, k3 = xl.nerve_k2(x), xl.nerve_k3(x)
    assert len(k2) == m * p * p and len(k3) == (m * p) ** 3
    assert all(oracle.is_k2(s.m, s.c, s.a, s.b) for s in k2)
    assert all(oracle.is_k3(*s.key()) for s in k3)
    assert len(xl.loop_gpd_xmod(x).base.morphisms) == m * p * p


def _oracle(label):
    return make_doc(spec_of(label), random.Random(0), False, "d.json").oracle


def test_oracle_closed_forms_on_families():
    # 1 -> S4: the components are the 5 conjugacy classes, |pi1(L,a)| = |C(a)|.
    trivial = _oracle("1 -> S4")
    assert len(trivial.components()) == 5
    assert all(trivial.loop_pi1_order(a) == 24 // len(c)
               for c in trivial.components() for a in c)
    # N -> G has |pi1| = |G/N|; id: G has trivial pi1 and pi2.
    assert _oracle("V4 -> S4").pi1_order == 6
    assert (_oracle("id: D4").pi1_order, _oracle("id: D4").pi2_order) == (1, 1)
    # A zero boundary leaves all of M in pi2.
    assert (_oracle("V4 . S4").pi1_order, _oracle("V4 . S4").pi2_order) == (24, 4)


def _run_small_jobs(name, seed, tmp_path, monkeypatch, keep):
    gen = generate(name, seed)
    for file, text in gen.files.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    client = Client(xl, None)
    docs = {d.file: d for d in gen.docs}
    outcomes = []
    for job in gen.jobs:
        if not keep(job, docs[job.file]):
            continue
        _, rcs, outs, crash = client.timed(job.spec())
        problems = [] if crash else check_job(job, rcs, outs, docs[job.file].oracle)
        outcomes.append((job, crash, problems))
    return outcomes


def test_jobs_on_small_documents_pass_the_oracle(tmp_path, monkeypatch):
    outcomes = _run_small_jobs("cli", 4, tmp_path, monkeypatch,
                               lambda j, d: len(d.oracle.P) == 12
                               and not j.kind.startswith("nerve"))
    assert {job.kind for job, _, _ in outcomes} >= {
        "check", "check-mutant", "pi-base", "components", "pi-loop", "loop", "emit-check",
        "exact", "examples"}
    for job, crash, problems in outcomes:
        if job.relabelled and job.kind == "exact" and crash is not None:
            # The library's known mis-split of composite names; it must name its stage.
            assert crash["stage"].startswith("exactseq.")
            continue
        assert crash is None and problems == [], (job.kind, job.label, crash, problems)


def test_nerve_listings_pass_the_oracle(tmp_path, monkeypatch):
    outcomes = _run_small_jobs("cli", 5, tmp_path, monkeypatch,
                               lambda j, d: j.kind.startswith("nerve")
                               and (len(d.oracle.M) * len(d.oracle.P)) ** 3 <= 4096)
    assert any("list-text" in job.kind for job, _, _ in outcomes)
    for job, crash, problems in outcomes:
        assert crash is None and problems == [], (job.kind, job.label, crash, problems)


def test_check_reports_a_wrong_answer():
    gen = generate("cli", 1)
    job = next(j for j in gen.jobs if j.kind == "nerve2-list-json")
    doc = next(d for d in gen.docs if d.file == job.file)
    x = xl.parse_xmod(doc.text)
    simplices = [{"m": s.m, "c": s.c, "a": s.a, "b": s.b} for s in xl.nerve_k2(x)]
    good = json.dumps({"count": len(simplices), "simplices": simplices})
    assert check_job(job, [0], [good], doc.oracle) == []
    repeated = json.dumps({"count": len(simplices), "simplices": [simplices[0]] + simplices[1:-1]
                           + [simplices[0]]})
    assert check_job(job, [0], [repeated], doc.oracle)
    assert check_job(job, [1], [good], doc.oracle)


def test_self_times_on_hand_built_tree():
    tree = [
        ["job", 0.0, 10.0, -1, 0, 0, None],
        ["a", 1.0, 4.0, 0, 0, 0, None],
        ["b", 5.0, 9.0, 0, 0, 0, None],
        ["c", 6.0, 7.0, 2, 0, 0, None],
        ["next job", 10.0, 12.0, -1, 1, 0, None],
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0, 2.0]


def test_tracing_wraps_every_namespace_and_undoes_itself():
    original, original_add = xl.xmod.homotopy, xl.groups.FiniteGroup.add
    rec = spans.Recorder()
    swaps = spans.install(rec)
    try:
        assert xl.homotopy is xl.cli.homotopy is xl.loop.homotopy is xl.xmod.homotopy
        assert xl.homotopy is not original
        x = xl.parse_xmod((ROOT / "tests" / "fixtures" / "inn3.json").read_text())
        xl.loop.components(x)
    finally:
        spans.uninstall(swaps)
    assert xl.homotopy is original and xl.cli.homotopy is original
    names = [s[spans.NAME] for s in rec.spans]
    assert "documents.load_document" in names and "groups.construct" in names
    components = names.index("loop.components")
    assert any(s[spans.NAME] == "xmod.homotopy" and s[spans.PARENT] == components
               for s in rec.spans)
    assert rec.counts["groups.FiniteGroup.add"] > 0
    assert xl.groups.FiniteGroup.add is original_add


def test_tail_percentile_depends_on_the_job_list_only():
    assert tail_percentile(230) == 95
    assert tail_percentile(62) == 75
    assert tail_percentile(45) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(12) == 50


def test_benchmark_json_names_what_the_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        spans.per_layer_metrics()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
