"""Compare one job's exit codes and output with the answer its job carries.

Each check returns a list of problems; an empty list means the output is
right.  Nerve listings are re-verified simplex by simplex by the oracle.
"""

from __future__ import annotations

import json
import re

from .oracle import Module
from .workloads import Job

K3_LINE = re.compile(r"^edges\(a=(.*?), b=(.*?), c=(.*?), d=(.*?), e=(.*?), f=(.*?)\) "
                     r"faces\(m0=(.*?), m1=(.*?), m2=(.*?), m3=(.*?)\)$")
K3_KEYS = ("a", "b", "c", "d", "e", "f", "m0", "m1", "m2", "m3")


def _order(block: dict, label: str, want: int, problems: list) -> None:
    if block.get("order") != want or len(block.get("elements", ())) != want:
        problems.append(f"{label} order {block.get('order')} != {want}")


def _expect_equal(label: str, got, want, problems: list) -> None:
    if got != want:
        problems.append(f"{label}: {got!r} != {want!r}")


def _check_listing(job: Job, out: str, oracle: Module, problems: list) -> None:
    count = job.expect["count"]
    dim = 2 if job.kind.startswith("nerve2") else 3
    if job.kind.endswith("json"):
        payload = json.loads(out)
        _expect_equal("count", payload["count"], count, problems)
        listed = [tuple(s[k] for k in (("m", "c", "a", "b") if dim == 2 else K3_KEYS))
                  for s in payload["simplices"]]
    else:
        lines = out.splitlines()
        header = 2 if dim == 2 else 1
        _expect_equal("count line", lines[0], f"K{dim} count: {count}", problems)
        if dim == 2:
            _expect_equal("formula line", lines[1], f"formula |M|*|P|^2: {count}", problems)
            listed = [tuple(re.split(r"; |, ", line[1:-1])) for line in lines[header:]]
        else:
            listed = []
            for line in lines[header:]:
                match = K3_LINE.match(line)
                if match is None:
                    problems.append(f"unparsable K3 line {line!r}")
                    return
                listed.append(match.groups())
    if len(listed) != count or len(set(listed)) != count:
        problems.append(f"listed {len(listed)} simplices, {len(set(listed))} distinct, "
                        f"expected {count}")
        return
    valid = oracle.is_k2 if dim == 2 else oracle.is_k3
    try:
        bad = next((s for s in listed if not valid(*s)), None)
    except KeyError as exc:
        bad = f"unknown element {exc}"
    if bad is not None:
        problems.append(f"not a {dim}-simplex: {bad}")


def check_job(job: Job, rcs: list, outs: list, oracle: Module) -> list[str]:
    """Problems with one execution of ``job`` on the document ``oracle`` was built from."""
    problems: list[str] = []
    want_rc = [1] if job.kind == "check-mutant" else [0, 0] if job.mode == "emit-check" else [0]
    if rcs != want_rc:
        return [f"exit codes {rcs} != {want_rc}"]
    e = job.expect
    if job.mode == "library":
        got = json.loads(outs[0])
        for key in ("objects", "morphisms", "fibre_morphisms", "fibre_elements"):
            _expect_equal(key, got[key], e[key], problems)
        _expect_equal("theta", got["theta"], {b: [n, True] for b, n in e["theta"].items()},
                      problems)
        return problems
    if job.kind.startswith("nerve"):
        if "list" in job.kind:
            _check_listing(job, outs[0], oracle, problems)
        else:
            payload = json.loads(outs[0])
            _expect_equal("count", payload["count"], e["count"], problems)
            if job.kind == "nerve2-count":
                _expect_equal("formula", payload["formula"], e["count"], problems)
        return problems
    payload = json.loads(outs[-1])
    if job.kind == "check":
        _expect_equal("valid", (payload["valid"], payload["violations"]), (True, []), problems)
    elif job.kind == "check-mutant":
        if payload["valid"] is not False or not payload["violations"]:
            problems.append("mutated document was accepted")
    elif job.kind == "pi-base":
        _order(payload["pi1"], "pi1", e["pi1"], problems)
        _order(payload["pi2"], "pi2", e["pi2"], problems)
    elif job.kind == "components":
        classes = [c["elements"] for c in payload["classes"]]
        _expect_equal("classes", classes, e["classes"], problems)
        _expect_equal("representatives", [c["representative"] for c in payload["classes"]],
                      [c[0] for c in e["classes"]], problems)
        _expect_equal("count", (payload["count"], payload["pi1_conjugacy_classes"],
                                payload["match"]), (len(classes), len(classes), True), problems)
    elif job.kind in ("pi-loop", "loop"):
        _expect_equal("base", payload["base"], e["base"], problems)
        _order(payload["pi1"], "pi1(L)", e["loop_pi1"], problems)
        _order(payload["pi2"], "pi2(L)", e["loop_pi2"], problems)
        if job.kind == "loop":
            _order(payload["Pa"], "P(a)", e["pa"], problems)
    elif job.kind == "emit-check":
        emitted = json.loads(outs[0])
        _expect_equal("emitted M", emitted["M"]["elements"], e["m_elements"], problems)
        _expect_equal("emitted |P(a)|", len(emitted["P"]["elements"]), e["pa"], problems)
        _expect_equal("check of emitted", (payload["valid"], payload["violations"]),
                      (True, []), problems)
    elif job.kind == "exact":
        _expect_equal("class", payload["class_in_pi1"], e["abar"], problems)
        _expect_equal("terms", [t["order"] for t in payload["terms"]],
                      [e["fixed"], e["pi"], e["pi"], e["loop_pi1"], e["centralizer"]], problems)
        moved = e["pi"] // e["fixed"]
        _expect_equal("maps", [(m["image_order"], m["kernel_order"]) for m in payload["maps"]],
                      [(e["fixed"], 1), (moved, e["fixed"]), (e["fixed"], moved),
                       (e["centralizer"], e["fixed"])], problems)
        _expect_equal("verdicts", (payload["exact"], payload["induced_injective"],
                                   payload["coinvariants_order"]), (True, True, e["fixed"]),
                      problems)
    elif job.kind == "examples":
        for label in ("example1", "example2"):
            _expect_equal(f"{label} ran", payload[label]["ran"], e[label], problems)
            if e[label]:
                _expect_equal(f"{label} passed", payload[label]["passed"], True, problems)
    else:
        problems.append(f"no check for job kind {job.kind}")
    return problems
