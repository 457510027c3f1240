"""The closed-loop client: one process, one thread, one job at a time.

Usage: ``python3 worker.py SPEC`` runs the job list in SPEC in passes
until SPEC's seconds have elapsed and writes its measurements next to
SPEC.  ``python3 worker.py --setup SRC DOC...`` instead times importing
the library from SRC and parsing every DOC once, and prints the seconds.

Jobs call the library in-process through its public API and
``xmodloop.cli.run_cli``; the program sees only the documents and the
arguments.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter


def import_library(src: str):
    """Import xmodloop from SRC and nowhere else."""
    sys.path.insert(0, src)
    import xmodloop
    import xmodloop.cli  # noqa: F401  (run_cli is reached as xmodloop.cli.run_cli)
    if not Path(xmodloop.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"xmodloop was imported from {xmodloop.__file__}, not from {src}")
    return xmodloop


def setup(src: str, docs: list) -> float:
    start = perf_counter()
    xl = import_library(src)
    for doc in docs:
        xl.parse_xmod(Path(doc).read_text(encoding="utf-8"))
    return perf_counter() - start


def crash_site(exc: BaseException) -> str:
    """The innermost library frame of a traceback, as module.function."""
    site = "outside the library"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "xmodloop":
            site = f"{path.stem}.{frame.f_code.co_name}"
    return site


class Client:
    def __init__(self, xl, rec):
        self.xl = xl
        self.rec = rec
        self.sizes: dict = {}
        self.exits: Counter = Counter()
        self.bytes_in = 0
        self.bytes_out = 0
        self.errors: list = []  # standard error of each CLI call of the current job

    def size(self, file: str) -> int:
        if file not in self.sizes:
            self.sizes[file] = os.path.getsize(file)
        return self.sizes[file]

    def cli(self, argv: list) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.xl.cli.run_cli(argv)
        self.exits[rc] += 1
        self.errors.append(err.getvalue())
        text = out.getvalue()
        self.bytes_out += len(text.encode())
        return rc, text

    def library(self, file: str) -> str:
        xl = self.xl
        x = xl.parse_xmod(Path(file).read_text(encoding="utf-8"))
        gxm = xl.loop_gpd_xmod(x)
        thetas = {a: xl.theta(x, a) for a in x.P}
        fibration = xl.fibration_psi(x)
        return json.dumps({
            "objects": len(gxm.base.objects),
            "morphisms": len(gxm.base.morphisms),
            "theta": {a: [len(f.source.base.morphisms), f.is_isomorphism()]
                      for a, f in thetas.items()},
            "fibre_morphisms": len(fibration.fibre.base.morphisms),
            "fibre_elements": sum(len(g) for g in fibration.fibre.fibres.values()),
        }, ensure_ascii=False)

    def run(self, job: dict) -> tuple:
        """Execute one job; returns (exit codes, outputs)."""
        argv = job["argv"]
        if job["mode"] == "library":
            self.bytes_in += self.size(argv[0])
            return [0], [self.library(argv[0])]
        self.bytes_in += self.size(argv[1])
        rc, out = self.cli(argv)
        if job["mode"] == "cli" or rc != 0:
            return [rc], [out]
        emitted = f"emit-{job['id']}.json"
        Path(emitted).write_text(out, encoding="utf-8")
        self.bytes_in += len(out.encode())
        rc2, out2 = self.cli(["check", emitted, "--format", "json"])
        return [rc, rc2], [out, out2]

    def timed(self, job: dict) -> tuple:
        """Run a job under the clock; a raised exception is recorded, not fatal."""
        crash = None
        self.errors = []
        rec = self.rec
        if rec is not None:
            rec.job = job["id"]
            span = rec.enter("bench.job")
        start = perf_counter()
        try:
            rcs, outs = self.run(job)
        except Exception as exc:  # the program must never raise; record where it did
            rcs, outs = ["crash"], []
            crash = {"stage": crash_site(exc), "error": f"{type(exc).__name__}: {exc}"}
        elapsed = perf_counter() - start
        if rec is not None:
            rec.leave(span)
        return elapsed, rcs, outs, crash


def cache_objects(xl) -> list:
    return [xl.xmod.homotopy, xl.loop.loop_data, xl.loop.loop_gpd_xmod]


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    xl = import_library(spec["src"])
    caches = [c for c in cache_objects(xl) if hasattr(c, "cache_info")]
    rec = None
    if spec["trace"]:
        sys.path.insert(0, spec["bench"])
        import spans
        rec = spans.Recorder()
        spans.install(rec)
    os.chdir(spec["workdir"])
    client = Client(xl, rec)
    jobs = spec["jobs"]
    passes, digests = [], {str(j["id"]): [] for j in jobs}
    hits = Counter()
    entries = []
    per_pass = []
    gc.collect()
    start = perf_counter()
    with open("first.jsonl", "w", encoding="utf-8") as first:
        # A pass starts only if one more of the same length still fits.
        while not passes or perf_counter() - start + sum(passes[-1]) <= spec["seconds"]:
            if rec is not None:
                rec.pass_no = len(passes)
            client.exits.clear()
            client.bytes_in = client.bytes_out = 0
            times, tracebacks = [], 0
            for job in jobs:
                elapsed, rcs, outs, crash = client.timed(job)
                times.append(elapsed)
                tracebacks += crash is not None
                record = {"id": job["id"], "rcs": rcs, "outs": outs, "errs": client.errors,
                          "crash": crash}
                digest = hashlib.sha256(json.dumps(record, ensure_ascii=False).encode())
                digests[str(job["id"])].append(digest.hexdigest())
                if not passes:
                    first.write(json.dumps(record, ensure_ascii=False) + "\n")
            passes.append(times)
            per_pass.append({"exits": dict(client.exits), "tracebacks": tracebacks,
                             "bytes_in": client.bytes_in, "bytes_out": client.bytes_out})
            # The caches are keyed on object identity, so no job hits another
            # job's entries; clearing them keeps each pass's memory the same.
            entries.append(sum(c.cache_info().currsize for c in caches))
            for c in caches:
                info = c.cache_info()
                hits[c.__name__ + ".hits"] += info.hits
                hits[c.__name__ + ".misses"] += info.misses
                c.cache_clear()
            gc.collect()
    result = {
        "passes": passes,
        "digests": digests,
        "per_pass": per_pass,
        "cache": dict(hits),
        "cache_entries": entries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if rec is not None:
        nerve2 = sum(1 for j in jobs if j["kind"].startswith("nerve2")) * len(passes)
        result["layers"] = spans.summarize(rec, len(passes), nerve2)
        with open("spans.json", "w", encoding="utf-8") as out:
            json.dump(rec.spans, out)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1] == "--setup":
        print(repr(setup(sys.argv[2], sys.argv[3:])))
    else:
        main(sys.argv[1])
