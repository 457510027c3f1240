"""Outside-in tracing: span-recording wrappers around the library's public functions.

Nothing in ``xmodloop`` changes.  ``install`` replaces each public
function of each layer module in every ``xmodloop`` namespace that holds
it, and ``FiniteGroup.__init__`` and ``FiniteGroup.add`` on the class.
Each span is ``[name, start, end, parent, job, pass, counts]``; spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("groups", "xmod", "loop", "groupoids", "nerve", "exactseq", "documents", "cli")

# Element-level helpers run hundreds of thousands of times per job; a span
# each would swamp the run.  They stay inside their caller's self time,
# except the two whose call counts are metrics.
COUNTED = {"nerve.is_simplex3", "groups.FiniteGroup.add"}
UNWRAPPED = {"groups.pair_name", "groups.triple_name", "groups.split_composite",
             "loop.loop_morphism", "nerve.is_simplex2", "nerve.faces3", "cli.main"}
ALIASES = {"groups.FiniteGroup.__init__": "groups.construct",
           "documents.serialize_document": "documents.serialize",
           "documents.serialize_xmod": "documents.serialize"}
CACHED = (("xmod", "homotopy"), ("loop", "loop_data"), ("loop", "loop_gpd_xmod"))

NAME, START, END, PARENT, JOB, PASS, COUNTS = range(7)


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.job = -1
        self.pass_no = 0

    def enter(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, self.pass_no,
                None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def leave(self, span: list) -> None:
        span[END] = perf_counter()
        self.stack.pop()


def _measures() -> dict:
    """Counts taken from a call's arguments and result, keyed by span name."""

    def construct(args, kwargs, result):
        n = len(args[1] if len(args) > 1 else kwargs["elements"])
        return {"elements": n, "assoc_checks": n ** 3}

    def groupoid(args, kwargs, result):
        _, morphisms, source, target, compose, _ = args
        out_degree = Counter(source[u] for u in morphisms)
        triples = sum(out_degree[target[v]] for _, v in compose)
        return {"morphisms": len(morphisms), "composable_pairs": len(compose),
                "assoc_triples": triples}

    return {
        "groups.construct": construct,
        "groupoids.make_groupoid": groupoid,
        "xmod.check_axioms": lambda a, k, r: {"violations": len(r)},
        "nerve.nerve_k3": lambda a, k, r: {"simplices": len(r)},
    }


def _span_wrapper(rec: Recorder, name: str, fn, measure, cache):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        misses = cache.cache_info().misses if cache is not None else 0
        span = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave(span)
        counts = measure(args, kwargs, result) if measure is not None else None
        if cache is not None and cache.cache_info().misses > misses:
            counts = {"miss": 1}
            if name == "loop.loop_gpd_xmod":
                x = args[0]
                counts["morphisms"] = len(x.M) * len(x.P) ** 2
        span[COUNTS] = counts
        return result
    return traced


def _count_wrapper(rec: Recorder, name: str, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            yield attr, value


def install(rec: Recorder) -> list:
    """Wrap every layer; returns the swaps made, as (owner, attribute, original)."""
    cached = {f"{layer}.{fn}": getattr(sys.modules[f"xmodloop.{layer}"], fn)
              for layer, fn in CACHED}
    measures = _measures()
    wrappers: dict = {}
    for layer in LAYERS:
        for attr, fn in _public_functions(sys.modules[f"xmodloop.{layer}"]):
            name = f"{layer}.{attr}"
            if name in COUNTED:
                wrappers[fn] = _count_wrapper(rec, name, fn)
            elif name not in UNWRAPPED:
                span_name = ALIASES.get(name, name)
                wrappers[fn] = _span_wrapper(rec, span_name, fn, measures.get(span_name),
                                             cached.get(name))
    swaps = []
    for module_name, module in sorted(sys.modules.items()):
        if module_name == "xmodloop" or module_name.startswith("xmodloop."):
            for attr, value in list(vars(module).items()):
                if callable(value) and not isinstance(value, type) and value in wrappers:
                    swaps.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
    cls = sys.modules["xmodloop.groups"].FiniteGroup
    swaps += [(cls, "__init__", cls.__init__), (cls, "add", cls.add)]
    cls.__init__ = _span_wrapper(rec, "groups.construct", cls.__init__,
                                 measures["groups.construct"], None)
    cls.add = _count_wrapper(rec, "groups.FiniteGroup.add", cls.add)
    return swaps


def uninstall(swaps: list) -> None:
    for owner, attr, original in swaps:
        setattr(owner, attr, original)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    One thread runs the jobs, so children of a span never overlap and
    their durations add up to the time they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


# Per-layer metrics of the traced run: (name, unit, better).  Times and
# counts are per pass of the workload's job list.
SELF_TIMES = (
    "groupoids.make_groupoid", "groupoids.make_gxm", "groupoids.check_morphism",
    "groupoids.is_fibration", "groupoids.vertex_group",
    "groups.construct", "groups.quotient", "groups.homomorphism", "groups.group_action",
    "groups.are_isomorphic",
    "loop.loop_data", "loop.components", "loop.pi_loop", "loop.loop_gpd_xmod", "loop.theta",
    "xmod.make_xmod", "xmod.check_axioms", "xmod.homotopy",
    "exactseq.exact_sequence", "exactseq.example1_check", "exactseq.example2_check",
    "exactseq.fibration_psi",
    "nerve.nerve_k3", "nerve.nerve_k2",
    "documents.load_document", "documents.build_xmod", "documents.serialize",
    "cli.run_cli",
)
SPAN_COUNTS = (
    ("groupoids.make_groupoid.morphisms", "groupoids.make_groupoid", "morphisms"),
    ("groupoids.make_groupoid.composable_pairs", "groupoids.make_groupoid", "composable_pairs"),
    ("groupoids.make_groupoid.assoc_triples", "groupoids.make_groupoid", "assoc_triples"),
    ("groups.construct.elements", "groups.construct", "elements"),
    ("groups.construct.assoc_checks", "groups.construct", "assoc_checks"),
    ("loop.loop_gpd_xmod.morphisms", "loop.loop_gpd_xmod", "morphisms"),
    ("xmod.check_axioms.violations", "xmod.check_axioms", "violations"),
    ("nerve.nerve_k3.simplices", "nerve.nerve_k3", "simplices"),
)
CALL_COUNTS = (("groups.construct.calls", "groups.construct"),
               ("groups.are_isomorphic.calls", "groups.are_isomorphic"))
COUNTER_COUNTS = (("groups.add.calls", "groups.FiniteGroup.add"),
                  ("nerve.is_simplex3.calls", "nerve.is_simplex3"))
# Read by the worker from cache_info() and from its own I/O and exit codes.
WORKER_METRICS = (
    ("xmod.homotopy.hit_ratio", "ratio", "higher"),
    ("loop.loop_data.hit_ratio", "ratio", "higher"),
    ("loop.loop_gpd_xmod.hit_ratio", "ratio", "higher"),
    ("loop.cache_entries", "count", "lower"),
    ("documents.bytes_in", "B", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("cli.exit.0", "count", "higher"),
    ("cli.exit.1", "count", "lower"),
    ("cli.exit.2", "count", "lower"),
    ("cli.tracebacks", "count", "lower"),
)


def per_layer_metrics() -> list:
    """Every per-layer metric the traced run reports, in order."""
    metrics = [(f"{name}.self_s", "s", "lower") for name in SELF_TIMES]
    metrics += [(name, "count", "lower") for name, _, _ in SPAN_COUNTS]
    metrics += [(name, "count", "lower") for name, _ in CALL_COUNTS + COUNTER_COUNTS]
    metrics += [("nerve.nerve_k2.calls_per_job", "count", "lower")]
    metrics += list(WORKER_METRICS)
    for layer in LAYERS:
        metrics += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.share", "ratio", "lower")]
    metrics += [("bench.self_s", "s", "lower"), ("trace.overhead_ratio", "ratio", "higher")]
    return metrics


def summarize(rec: Recorder, passes: int, nerve2_jobs: int) -> dict:
    """Per-pass span metrics of a traced run: self times, counts and layer shares."""
    selfs = self_times(rec.spans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: dict = {}
    job_time = 0.0
    for span, own in zip(rec.spans, selfs):
        name = span[NAME]
        self_s[name] += own
        calls[name] += 1
        if span[COUNTS]:
            counts.setdefault(name, Counter()).update(span[COUNTS])
        if span[PARENT] < 0:
            job_time += span[END] - span[START]
    out = {f"{name}.self_s": self_s[name] / passes for name in SELF_TIMES}
    for metric, name, key in SPAN_COUNTS:
        out[metric] = counts.get(name, Counter())[key] / passes
    for metric, name in CALL_COUNTS:
        out[metric] = calls[name] / passes
    for metric, name in COUNTER_COUNTS:
        out[metric] = rec.counts[name] / passes
    out["nerve.nerve_k2.calls_per_job"] = (calls["nerve.nerve_k2"] / nerve2_jobs
                                           if nerve2_jobs else 0.0)
    for layer in LAYERS + ("bench",):
        total = sum(v for n, v in self_s.items() if n.startswith(layer + "."))
        out[f"{layer}.self_s"] = total / passes
        if layer != "bench":
            out[f"{layer}.share"] = total / job_time if job_time else 0.0
    return out
