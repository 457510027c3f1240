"""Run one workload of the benchmark, check every answer, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source tree; the library is imported from its
``src`` directory.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` a second, traced run gives the per-layer ones.
``--workload all`` runs every workload untraced and prints one table.
Generated documents live under ``.perfbench/`` while a run lasts; the
spans of the last traced run of each workload stay there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spans  # noqa: E402
from perfbench.check import check_job  # noqa: E402
from perfbench.workloads import WORKLOADS, generate  # noqa: E402

BENCH = Path(__file__).resolve().parent
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("top_rung_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)
# Fresh set-up processes on each side of the timed jobs: the median spans
# the whole run, not one moment of it.
SETUP_RUNS = 5
TAIL_LADDER = (99, 95, 90, 75, 50)  # percent
WORKER_TIMEOUT = 150


def tail_percentile(jobs_per_pass: int) -> int:
    """The highest ladder percentile with ten or more jobs of one pass beyond it.

    It depends only on the job list, so every run of a workload reports
    the same percentile, however many passes fit in the run.
    """
    return next((p for p in TAIL_LADDER if jobs_per_pass - rank(p, jobs_per_pass) >= 10),
                TAIL_LADDER[-1])


def rank(p: int, n: int) -> int:
    """The 1-based nearest rank of the p-th percentile of n samples."""
    return max(1, -(-p * n // 100))


def percentile(samples: list, p: int) -> float:
    return sorted(samples)[rank(p, len(samples)) - 1]


def jobs_per_s(passes: list) -> float:
    """Jobs in the list over the summed median time of each job across passes."""
    return len(passes[0]) / sum(statistics.median(times) for times in zip(*passes))


def worker_env() -> dict:
    # A fixed hash seed makes set iteration, and so the work done, repeat.
    return {**os.environ, "PYTHONHASHSEED": "0"}


def run_worker(root: Path, work: Path, gen, seconds: float, trace: bool) -> dict:
    tag = "traced" if trace else "untraced"
    spec_path = work / f"spec-{tag}.json"
    result_path = work / f"result-{tag}.json"
    spec = {"src": str(root / "src"), "bench": str(BENCH), "workdir": str(work),
            "seconds": seconds, "trace": trace, "result": str(result_path),
            "jobs": [job.spec() for job in gen.jobs]}
    spec_path.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                   env=worker_env(), check=True, timeout=WORKER_TIMEOUT)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["first"] = [json.loads(line) for line in
                       (work / "first.jsonl").read_text(encoding="utf-8").splitlines()]
    return result


def measure_setup(root: Path, work: Path, gen) -> list:
    docs = [str(work / doc.file) for doc in gen.docs]
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--setup",
                               str(root / "src"), *docs], env=worker_env(), check=True,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def judge(gen, result: dict) -> dict:
    """Check every job's first answer with the oracle and every later one by digest."""
    jobs = {job.id: job for job in gen.jobs}
    docs = {doc.file: doc for doc in gen.docs}
    failures: Counter = Counter()
    failed = wrong = 0
    for record in result["first"]:
        job = jobs[record["id"]]
        digests = result["digests"][str(job.id)]
        executions = len(digests)
        unstable = sum(d != digests[0] for d in digests)
        if unstable:
            wrong += unstable
            failed += unstable
            failures[(job.kind, job.label, "run", "output differs between passes")] += unstable
        if record["crash"] is not None:
            stage, why = record["crash"]["stage"], record["crash"]["error"]
        else:
            try:
                problems = check_job(job, record["rcs"], record["outs"], docs[job.file].oracle)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"malformed output: {type(exc).__name__}: {exc}"]
            if not problems:
                continue
            if problems[0].startswith("exit codes"):
                stage = f"cli {job.argv[0]}"
                problems += [e.strip() for e in record["errs"] if e.strip()]
            else:
                stage = "oracle"
                wrong += executions - unstable
            why = "; ".join(problems)[:300]
        failed += executions - unstable
        label = f"{job.label}{' [relabelled]' if job.relabelled else ''}"
        failures[(job.kind, label, stage, why)] += executions - unstable
    attempted = sum(len(d) for d in result["digests"].values())
    return {"attempted": attempted, "failed": failed, "wrong": wrong, "failures": failures}


def end_to_end(gen, result: dict, setup: list, verdict: dict) -> tuple:
    passes = result["passes"]
    samples = [t for times in passes for t in times]
    top = [t for times in passes for job, t in zip(gen.jobs, times) if job.top]
    p = tail_percentile(len(gen.jobs))
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": jobs_per_s(passes),
        "job_p50_s": statistics.median(samples),
        "job_tail_s": percentile(samples, p),
        "top_rung_s": statistics.median(top),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": 1 - verdict["failed"] / verdict["attempted"],
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes, half before and half after the jobs",
        "jobs_per_s": f"{len(gen.jobs)} jobs per pass, each timed {len(passes)} times",
        "job_p50_s": f"{len(samples)} samples",
        "job_tail_s": f"p{p} of {len(samples)} samples",
        "top_rung_s": f"{len(top)} samples of {gen.workload.top_rung}",
        "peak_rss_mb": "worker ru_maxrss",
        "ok_ratio": f"fail_ratio {verdict['failed'] / verdict['attempted']:.4f} "
                    f"({verdict['failed']} of {verdict['attempted']})",
    }
    return metrics, notes


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = dict(traced["layers"])
    cache = traced["cache"]
    for name, fn in (("xmod.homotopy", "homotopy"), ("loop.loop_data", "loop_data"),
                     ("loop.loop_gpd_xmod", "loop_gpd_xmod")):
        hits, misses = cache.get(f"{fn}.hits", 0), cache.get(f"{fn}.misses", 0)
        metrics[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["loop.cache_entries"] = statistics.median(traced["cache_entries"] or [0])
    first = traced["per_pass"][0]
    metrics["documents.bytes_in"] = first["bytes_in"]
    metrics["cli.bytes_out"] = first["bytes_out"]
    for code in ("0", "1", "2"):
        metrics[f"cli.exit.{code}"] = first["exits"].get(code, 0)
    metrics["cli.tracebacks"] = first["tracebacks"]
    metrics["trace.overhead_ratio"] = jobs_per_s(traced["passes"]) / jobs_per_s(untraced["passes"])
    return metrics


def failure_lines(verdict: dict) -> list:
    return [f"  failed {count}x: {kind} on {doc}: {stage}: {why}"
            for (kind, doc, stage, why), count in sorted(verdict["failures"].items())]


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool) -> tuple:
    gen = generate(name, seed)
    work = root / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for file, text in gen.files.items():
            (work / file).write_text(text, encoding="utf-8")
        setup = [] if trace else measure_setup(root, work, gen)
        # A traced run splits its time between an untraced and a traced half,
        # whose rates give the tracing overhead.
        untraced = run_worker(root, work, gen, seconds / 2 if trace else seconds, False)
        verdicts = [judge(gen, untraced)]
        if trace:
            traced = run_worker(root, work, gen, seconds / 2, True)
            verdicts.append(judge(gen, traced))
            shutil.copyfile(work / "spans.json", root / ".perfbench" / f"spans-{name}.json")
            metrics = per_layer(untraced, traced)
            units = {n: u for n, u, _ in spans.per_layer_metrics()}
            notes = {}
        else:
            setup += measure_setup(root, work, gen)
            metrics, notes = end_to_end(gen, untraced, setup, verdicts[0])
            units = {n: u for n, u, _ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    verdict = {"attempted": sum(v["attempted"] for v in verdicts),
               "failed": sum(v["failed"] for v in verdicts),
               "wrong": sum(v["wrong"] for v in verdicts),
               "failures": sum((v["failures"] for v in verdicts), Counter())}
    lines = [f"workload {name}  seed {seed}  passes {len(untraced['passes'])}  "
             f"jobs/pass {len(gen.jobs)}  attempted {verdict['attempted']}  "
             f"failed {verdict['failed']}  wrong answers {verdict['wrong']}"]
    lines += [f"  {metric:<42} {value:>14.6g} {units[metric]:<6} {notes.get(metric, '')}"
              for metric, value in metrics.items()]
    lines += failure_lines(verdict)
    digest = sorted(untraced["digests"].items(), key=lambda kv: int(kv[0]))
    lines.append("  output digest "
                 + hashlib.sha256(json.dumps([d[0] for _, d in digest]).encode()).hexdigest())
    return metrics, units, verdict, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "xmodloop" / "__init__.py").is_file():
        print(f"error: no xmodloop source tree under {root / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    for _, _, _, lines in results.values():
        print("\n".join(lines))
    prefix = len(names) > 1
    metrics = {(f"{name}.{metric}" if prefix else metric): {"value": value, "unit": units[metric]}
               for name, (values, units, _, _) in results.items()
               for metric, value in values.items()}
    print(json.dumps({
        "correct": all(v["wrong"] == 0 for _, _, v, _ in results.values()),
        "attempted": sum(v["attempted"] for _, _, v, _ in results.values()),
        "failed": sum(v["failed"] for _, _, v, _ in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
