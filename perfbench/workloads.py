"""The benchmark's workloads: documents, job lists and expected answers.

Everything here is derived from one seed and from permutation groups;
nothing imports ``xmodloop``.  The seed picks element names, the order
elements are listed in and the single-entry mutations.  It does not pick
which modules or base elements are used, or the order jobs run in, so the
work is the same for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from . import perms as pm
from .oracle import Module

# One document in four, at fixed positions, uses names with non-ASCII
# letters, parentheses and a top-level "|", the characters the library's
# composite names are built from.  Every such name has exactly one "|" and
# balanced parentheses, so composite names stay distinct and the
# known mis-split of pair names under ``exact`` fails the same way on
# every seed.
RELABEL_EVERY = 4
GLYPHS = ("é", "ж", "ζ", "ü", "λ")
SUFFIXES = ("x", "ü", "ζ")


def _v4(n4: list) -> list:
    return pm.subgroup(n4, [(1, 0, 3, 2), (2, 3, 0, 1)])


def spec_of(label: str) -> pm.Spec:
    """Build a module from its label: "id: G", "1 -> G", "N -> G" or "N . G" (delta = 0)."""
    S3, S4, A4, D4 = pm.symmetric(3), pm.symmetric(4), pm.alternating(4), pm.dihedral(4)
    groups = {
        "C3": pm.cyclic(3), "C4": pm.cyclic(4), "C6": pm.cyclic(6), "V4": _v4(A4),
        "S3": S3, "D4": D4, "A4": A4, "D6": pm.dihedral(6),
        "S4": S4, "S4xC2": pm.product(S4, pm.cyclic(2)),
    }
    if label.startswith("id: "):
        g = groups[label[4:]]
        return pm.Spec(label, tuple(g), tuple(g), True)
    sep = " -> " if " -> " in label else " . "
    sub, top = label.split(sep)
    g = groups[top]
    n = {"1": pm.trivial, "Z": pm.center}.get(sub)
    if n is not None:
        n = n(g)
    elif sub == "A4":
        n = pm.alternating(4)
    elif sub == "V4":
        n = _v4(g)
    elif sub == "C3":
        n = pm.subgroup(g, [pm.cycle(len(g[0]), 0, 1, 2)])
    elif sub in ("R", "C2"):  # the rotations of a dihedral group, or of a cyclic one squared
        r = pm.cycle(len(g[0]), *range(len(g[0])))
        n = pm.subgroup(g, [r if sub == "R" else pm.then(r, r)])
    else:
        raise ValueError(f"unknown module label {label!r}")
    inclusion = sep == " -> "
    if not pm.is_normal(g, n) or not (inclusion or pm.is_abelian(n)):
        raise ValueError(f"{label} is not a crossed module")
    return pm.Spec(label, tuple(g), tuple(n), inclusion)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json and README.md."""

    name: str
    families: tuple      # (job family, modules) pairs, in document order
    top_kind: str        # the job kind of the top rung
    top_rung: str        # the module of the top-rung job
    top_repeats: int     # how often the top-rung job runs in one pass

    @property
    def labels(self) -> tuple:
        return tuple(label for _, labels in self.families for label in labels)


# The largest nerve listing: K3 of id: S3 has 46,656 simplices.
NERVE_LISTED = "id: S3"

WORKLOADS = {
    "loopgpd": Workload(
        "loopgpd",
        # Four documents of each small module give the tail percentile ten
        # jobs beyond it.  The top rung runs three times a pass, for samples.
        (("loopgpd", ("R -> D4", "id: S3", "id: C6", "R . D4")
          + ("id: C3", "1 -> S3", "C3 . S3", "id: C4", "1 -> C6", "Z -> D4", "1 -> A4",
             "id: V4", "Z . D4", "1 -> D4") * 4),),
        "loopgpd", "R -> D4", 3),
    "cli": Workload(
        "cli",
        # Base-point jobs first, so the documents they leave in the library's
        # caches are still alive while the nerve listings run.
        (("basepoints", ("1 -> A4", "V4 -> A4", "id: A4", "R . D6", "1 -> S4", "A4 -> S4",
                         "id: S4", "V4 . S4", "Z -> S4xC2")),
         ("nerve", ("1 -> S3", "id: C3", "1 -> D4", "C2 -> C4", "1 -> A4", "Z -> D4", "id: C4",
                    "C3 -> S3", "1 -> S4", "id: C6", NERVE_LISTED))),
        "components", "id: S4", 3),
}


@dataclass
class Doc:
    spec: pm.Spec
    p_name: dict             # permutation -> element name
    relabelled: bool
    file: str
    data: dict = field(repr=False)
    text: str = field(repr=False)
    oracle: Module = field(repr=False)

    @property
    def label(self) -> str:
        return self.spec.label


def render(data: dict) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def _names(rng: random.Random, n: int, prefix: str, relabelled: bool) -> list[str]:
    labels = list(range(n))
    rng.shuffle(labels)
    if relabelled:
        return [f"{GLYPHS[k % len(GLYPHS)]}{prefix}({k})|{SUFFIXES[k % len(SUFFIXES)]}"
                for k in labels]
    return [f"{prefix}{k}" for k in labels]


def make_doc(spec: pm.Spec, rng: random.Random, relabelled: bool, file: str) -> Doc:
    P, M = list(spec.G), list(spec.N)
    rng.shuffle(P)
    rng.shuffle(M)
    p_name = dict(zip(P, _names(rng, len(P), "p", relabelled)))
    m_name = dict(zip(M, _names(rng, len(M), "m", relabelled)))
    data = {
        "name": spec.label,
        "P": {"elements": [p_name[p] for p in P],
              "table": [[p_name[pm.then(x, y)] for y in P] for x in P],
              "identity": p_name[spec.e]},
        "M": {"elements": [m_name[m] for m in M],
              "table": [[m_name[pm.then(x, y)] for y in M] for x in M],
              "identity": m_name[spec.e]},
        "delta": {m_name[m]: p_name[spec.delta(m)] for m in M},
        "action": {p_name[p]: {m_name[m]: m_name[spec.act(m, p)] for m in M} for p in P},
    }
    return Doc(spec, p_name, relabelled, file, data, render(data), Module(data))


def mutate(doc: Doc, rng: random.Random, index: int) -> dict:
    """One changed entry of a group table or of the action; never a valid module."""
    data = json.loads(json.dumps(doc.data))
    where = ("P", "M", "action")[index % 3]
    if where != "P" and len(doc.oracle.M) == 1:
        where = "P"
    if where == "action":
        p = rng.choice(data["P"]["elements"])
        m = rng.choice(data["M"]["elements"])
        row = data["action"][p]
        row[m] = rng.choice([n for n in data["M"]["elements"] if n != row[m]])
    else:
        block = data[where]
        i = rng.randrange(len(block["elements"]))
        j = rng.randrange(len(block["elements"]))
        old = block["table"][i][j]
        block["table"][i][j] = rng.choice([x for x in block["elements"] if x != old])
    return data


@dataclass
class Job:
    """One closed-loop request: what the worker runs and what the answer must be."""

    id: int
    kind: str
    file: str                # the document the job reads
    label: str               # its module, for reports
    mode: str                # "cli", "emit-check" or "library"
    argv: list
    expect: dict
    top: bool = False
    relabelled: bool = False

    def spec(self) -> dict:
        return {"id": self.id, "kind": self.kind, "mode": self.mode, "argv": self.argv}


def base_expect(doc: Doc, a: str) -> dict:
    o = doc.oracle
    fixed, cent, loop_pi1 = o.fixed_order(a), o.centralizer_order(a), o.loop_pi1_order(a)
    # |pi1(L,a)| = |pi/{a}| * |C_a(pi1)|, and |pi/{a}| = |pi^a| as pi is abelian.
    if loop_pi1 != fixed * cent:
        raise ValueError(f"the oracle's orders disagree for {doc.label} at {a}")
    return {
        "base": a, "pa": o.pa_order(a), "loop_pi1": loop_pi1, "loop_pi2": fixed,
        "fixed": fixed, "pi": o.pi2_order, "centralizer": cent,
        "abar": o.least_in_coset(a), "example1": o.delta_is_zero, "example2": o.is_central(a),
        "m_elements": o.M,
    }


BASE_KINDS = ("pi-loop", "loop", "emit-check", "exact", "examples")


def _cli(kind: str, file: str, *rest: str) -> list:
    command = {"pi-base": "pi", "pi-loop": "pi", "emit-check": "loop",
               "check-mutant": "check"}.get(kind, kind)
    return [command, file, *rest, "--format", "json"]


def _basepoint_jobs(doc: Doc, mutant_file: str, add) -> None:
    o = doc.oracle
    add("check", doc, "cli", _cli("check", doc.file), {})
    add("check-mutant", doc, "cli", _cli("check-mutant", mutant_file), {})
    add("pi-base", doc, "cli", _cli("pi-base", doc.file, "--space", "base"),
        {"pi1": o.pi1_order, "pi2": o.pi2_order})
    add("components", doc, "cli", _cli("components", doc.file), {"classes": o.components()})
    # Every base element gets one base-point job; the kinds rotate over the
    # elements in a seed-independent order, so each seed does the same work.
    for i, a in enumerate(sorted(doc.spec.G)):
        kind = BASE_KINDS[i % len(BASE_KINDS)]
        base = doc.p_name[a]
        if kind == "pi-loop":
            argv = _cli(kind, doc.file, "--space", "loop", "--base", base)
        elif kind == "emit-check":
            argv = ["loop", doc.file, "--base", base, "--emit"]
        else:
            argv = _cli(kind, doc.file, "--base", base)
        add(kind, doc, "emit-check" if kind == "emit-check" else "cli", argv,
            base_expect(doc, base))


def _nerve_jobs(doc: Doc, add) -> None:
    m, p = len(doc.oracle.M), len(doc.oracle.P)
    k2, k3 = m * p * p, (m * p) ** 3
    for dim, count in ((2, k2), (3, k3)):
        add(f"nerve{dim}-count", doc, "cli",
            ["nerve", doc.file, "--dim", str(dim), "--format", "json"], {"count": count})
        formats = (("text", "json") if dim == 2 or k3 <= 6000
                   else ("json",) if doc.label == NERVE_LISTED else ())
        for fmt in formats:
            add(f"nerve{dim}-list-{fmt}", doc, "cli",
                ["nerve", doc.file, "--dim", str(dim), "--list", "--format", fmt],
                {"count": count})


def _loopgpd_job(doc: Doc, add) -> None:
    o = doc.oracle
    add("loopgpd", doc, "library", [doc.file], {
        "objects": len(o.P), "morphisms": len(o.M) * len(o.P) ** 2,
        "theta": {a: o.pa_order(a) for a in o.P},
        "fibre_morphisms": len(o.M) * len(o.P), "fibre_elements": len(o.P),
    })


@dataclass
class Generated:
    workload: Workload
    docs: list
    files: dict              # file name -> document text
    jobs: list


def generate(name: str, seed: int) -> Generated:
    """Documents and the job list of one workload; the same seed gives the same bytes."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    docs, files, jobs = [], {}, []

    def add(kind, doc, mode, argv, expect, top=False):
        jobs.append(Job(len(jobs), kind, doc.file, doc.label, mode, argv, expect, top,
                        doc.relabelled))

    i = 0
    for family, labels in wl.families:
        for label in labels:
            doc = make_doc(spec_of(label), rng, i % RELABEL_EVERY == RELABEL_EVERY - 1,
                           f"d{i:02d}.json")
            docs.append(doc)
            files[doc.file] = doc.text
            if family == "basepoints":
                mutant = f"d{i:02d}-mutant.json"
                files[mutant] = render(mutate(doc, rng, i))
                _basepoint_jobs(doc, mutant, add)
            elif family == "nerve":
                _nerve_jobs(doc, add)
            else:
                _loopgpd_job(doc, add)
            i += 1

    template = next(j for j in jobs if j.kind == wl.top_kind and j.label == wl.top_rung)
    template.top = True
    top_doc = next(d for d in docs if d.file == template.file)
    for _ in range(wl.top_repeats - 1):
        add(template.kind, top_doc, template.mode, list(template.argv), template.expect, top=True)
    return Generated(wl, docs, files, jobs)
