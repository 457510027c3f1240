"""Size ladder: time each stage on a fixed list of growing inputs.

    python bench/ladder.py --out BENCH_20.json

A rung names a group (``S5``) or a crossed module: ``id: G``, ``1 -> G``
or ``N -> G``, the inclusion of a normal subgroup N of G with G acting
by conjugation.  Each rung runs in a fresh child process, so no rung
inherits another's caches or memory.  The child builds its input, makes
a full garbage collection, so that none left pending by the untimed
build lands in the stage, and times only the stage call with
``time.perf_counter``.  It reads its own peak RSS with
``resource.getrusage(RUSAGE_SELF)`` and counts the full (generation 2)
garbage collections made while the stage ran.  The ``theta`` (at every
base), ``fibration_psi``, ``pi0`` and ``vertex_group`` (at every object)
rungs build the loop groupoid first, as the cached ``loop_gpd_xmod``
they start from, and time only their own work.  The ``nerve_k2`` and
``nerve_k3`` rungs time the sorted listings of the 2- and 3-simplices
and the ``nerve_k3_count`` rung the count of the 3-simplices, which
builds no list.  The
``parse_xmod`` rung times reading and validating the rung's document,
written untimed by ``serialize_xmod``; the ``homotopy`` and
``components`` rungs time that call alone on a fresh module, so
``components`` includes the ``homotopy`` it starts from.  The
``exact_sequence`` rung times ``exact_sequence`` at every base, and the
``example_checks`` rung ``example1_check`` and ``example2_check`` at
every base, a check whose precondition fails at a base counting as run;
both start from a fresh module, so they include the ``homotopy`` and
``loop_data`` they build on.  A ``cli_*``
rung times one CLI subcommand as a whole: the child writes the rung as a
document with ``serialize_xmod`` (untimed), then times one ``run_cli``
call on it with standard output sent to a ``StringIO``;
``cli_nerve3_list_json`` is ``nerve --dim 3 --list --format json``,
``cli_nerve3_list_text`` the same listing in text,
``cli_nerve2_list_json`` is ``nerve --dim 2 --list --format json`` and
``cli_components`` is ``components --format json``.  A fresh process
builds the argument parser once, on that call, so these rungs show the
cost of parsing, computing and writing the output, not the saving of a
parser reused across calls.  Every record holds the stage, the rung, the
predicted size, ``wall_s``, ``peak_rss_mb`` and ``gc_gen2``; a rung
that is too large to run is listed as "not run" with its predicted
size.  ``--out`` is required, so that no run overwrites a committed
record by default.
The script exits 1 if any rung that runs fails.  Only the standard
library and ``xmodloop`` from this checkout's ``src`` are used.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import subprocess
import sys
import tempfile
import time
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (stage, rung, run it?)
RUNGS = [
    ("make_group", "S5", True),
    ("make_group", "A6", True),
    ("make_group", "S6", True),
    *((stage, rung, True) for stage in ("loop_gpd_xmod", "theta", "fibration_psi")
      for rung in ("id: C4", "id: S3", "id: D4", "id: C10", "id: A4", "id: S4",
                   "1 -> S5", "A4 -> S4", "id: A5", "1 -> S6")),
    # K3 on id: S4 has 191M simplices
    *((stage, rung, rung != "id: S4") for stage in ("nerve_k3", "nerve_k3_count")
      for rung in ("id: C4", "1 -> S4", "id: S3", "id: D4", "id: S4")),
    *((stage, rung, True) for stage in ("parse_xmod", "homotopy", "components")
      for rung in ("id: S4", "id: A5", "id: S5", "A5 -> S5", "1 -> S6")),
    *((stage, rung, True) for stage in ("exact_sequence", "example_checks")
      for rung in ("id: S4", "A4 -> S4", "1 -> S4", "1 -> S5")),
    *(("nerve_k2", rung, True) for rung in ("id: C4", "1 -> S4", "id: S3", "id: S4", "1 -> S6")),
    *((stage, rung, True)
      for stage in ("cli_nerve3_list_json", "cli_nerve3_list_text", "cli_nerve2_list_json")
      for rung in ("id: C4", "1 -> S4", "id: S3")),
    *(("cli_components", rung, True) for rung in ("id: A4", "id: S4")),
    *((stage, rung, True) for stage in ("pi0", "vertex_group")
      for rung in ("id: S4", "id: A5", "1 -> S6")),
]
CLI_ARGS = {"cli_nerve3_list_json": ["nerve", "--dim", "3", "--list", "--format", "json"],
            "cli_nerve3_list_text": ["nerve", "--dim", "3", "--list", "--format", "text"],
            "cli_nerve2_list_json": ["nerve", "--dim", "2", "--list", "--format", "json"],
            "cli_components": ["components", "--format", "json"]}


def _closure(gens: list[tuple]) -> list[tuple]:
    """The permutation group generated by gens, sorted."""
    identity = tuple(range(len(gens[0])))
    reached, seen = [identity], {identity}
    for x in reached:  # grows while it is walked
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in seen:
                seen.add(y)
                reached.append(y)
    return sorted(reached)


def _sign(perm: tuple) -> int:
    return sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))) % 2


def permutation_group(label: str) -> list[tuple]:
    """The elements of C<n>, S<n>, A<n> or D4 as permutations, identity first."""
    kind, n = label[0], int(label[1:])
    if kind == "C":
        return _closure([tuple((i + 1) % n for i in range(n))])
    if label == "D4":
        return _closure([(1, 2, 3, 0), (0, 3, 2, 1)])
    if kind in ("S", "A"):
        return [p for p in sorted(permutations(range(n))) if kind == "S" or _sign(p) == 0]
    raise ValueError(f"no permutation group named {label!r}")


def _name(perm: tuple) -> str:
    return "".join(map(str, perm)) if len(perm) < 10 else ",".join(map(str, perm))


def group_table(label: str) -> tuple[list, list, str]:
    """Elements, table and identity, with x + y meaning "x, then y"."""
    perms = permutation_group(label)
    names = {p: _name(p) for p in perms}
    table = [[names[tuple(y[i] for i in x)] for y in perms] for x in perms]
    return [names[p] for p in perms], table, names[perms[0]]


def module_labels(rung: str) -> tuple[str, str]:
    """(N, G) for the rung "N -> G"; "id: G" is "G -> G"."""
    if rung.startswith("id: "):
        return rung[4:], rung[4:]
    sub, top = rung.split(" -> ")
    return sub, top


def predicted(stage: str, rung: str) -> dict:
    if stage == "make_group":
        n = len(permutation_group(rung))
        return {"order": n, "table_entries": n ** 2, "full_scan_assoc_triples": n ** 3}
    sub, top = module_labels(rung)
    p = len(permutation_group(top))
    m = 1 if sub == "1" else len(permutation_group(sub))
    if stage.startswith(("nerve_k3", "cli_nerve3")):
        return {"simplices": m ** 3 * p ** 3}
    if stage in ("nerve_k2", "cli_nerve2_list_json"):
        return {"simplices": m * p ** 2}
    if stage in ("cli_components", "parse_xmod"):
        return {"bases": p, "document_entries": p * p + m * m + m + m * p}
    if stage in ("homotopy", "components", "exact_sequence"):
        return {"order_P": p, "order_M": m, **({"bases": p} if stage == "exact_sequence" else {})}
    if stage == "example_checks":
        # the twisted products M x C_a(P) and pi x P have at most |M||P| pairs
        return {"bases": p, "twisted_product_order_at_most": m * p}
    # the loop groupoid is the group of the |M||P| pairs (m, p) acting on P
    if stage in ("pi0", "vertex_group"):
        return {"objects": p, "group_order": m * p}
    if stage == "theta":
        return {"bases": p, "group_order": m * p}
    if stage == "fibration_psi":
        return {"morphisms": m * p * p, "fibre_morphisms": m * p}
    # one fibre M: G's action on it, |G| x |M| entries, and the boundary, |P| x |M|
    return {"morphisms": m * p * p, "group_order": m * p, "fibre_action_entries": m * p * m,
            "boundary_entries": p * m}


def timed(call) -> tuple[float, int]:
    """Collect what the untimed build left behind, then time call() alone:
    (seconds, full garbage collections made while it ran)."""
    gc.collect()
    full = gc.get_stats()[2]["collections"]
    start = time.perf_counter()
    call()
    wall = time.perf_counter() - start
    return wall, gc.get_stats()[2]["collections"] - full


def run_stage(stage: str, rung: str) -> tuple[float, int]:
    """Build the rung's input, then time the stage alone."""
    sys.path.insert(0, str(ROOT / "src"))
    from xmodloop.cli import run_cli
    from xmodloop.documents import parse_xmod, serialize_xmod
    from xmodloop.errors import PreconditionFailed
    from xmodloop.exactseq import example1_check, example2_check, exact_sequence, fibration_psi
    from xmodloop.groupoids import pi0, vertex_group
    from xmodloop.groups import group_action, homomorphism, make_group, subgroup
    from xmodloop.loop import components, loop_gpd_xmod, theta
    from xmodloop.nerve import k3_count, nerve_k2, nerve_k3
    from xmodloop.xmod import homotopy, make_xmod

    if stage == "make_group":
        elements, table, identity = group_table(rung)
        return timed(lambda: make_group(elements, table, identity))
    sub, top = module_labels(rung)
    elements, table, identity = group_table(top)
    G = make_group(elements, table, identity)
    members = [identity] if sub == "1" else [_name(q) for q in permutation_group(sub)]
    N = subgroup(G, map(G.index, members)).as_group()
    delta = homomorphism(N, G, {n: n for n in N})
    action = group_action(G, N, {(n, p): G.conj(n, p) for n in N for p in G})
    x = make_xmod(N, G, delta, action, name=rung)
    if stage in CLI_ARGS:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rung.json"
            path.write_text(serialize_xmod(x), encoding="utf-8")
            argv = [CLI_ARGS[stage][0], str(path), *CLI_ARGS[stage][1:]]

            def cli():
                if run_cli(argv) != 0:
                    raise RuntimeError(f"{' '.join(CLI_ARGS[stage])} did not exit 0")
            with contextlib.redirect_stdout(io.StringIO()):
                return timed(cli)
    if stage == "parse_xmod":
        text = serialize_xmod(x)
        return timed(lambda: parse_xmod(text))
    if stage in ("theta", "fibration_psi", "pi0", "vertex_group"):
        gxm = loop_gpd_xmod(x)

    def examples(x):
        for a in x.P:
            for check in (example1_check, example2_check):
                with contextlib.suppress(PreconditionFailed):
                    check(x, a)
    call = {"loop_gpd_xmod": loop_gpd_xmod, "fibration_psi": fibration_psi,
            "homotopy": homotopy, "components": components,
            "theta": lambda x: [theta(x, a) for a in x.P],
            "pi0": lambda x: pi0(gxm),
            "vertex_group": lambda x: [vertex_group(gxm.base, a) for a in gxm.base.objects],
            "exact_sequence": lambda x: [exact_sequence(x, a) for a in x.P],
            "example_checks": examples,
            "nerve_k2": nerve_k2, "nerve_k3": nerve_k3, "nerve_k3_count": k3_count}[stage]
    return timed(lambda: call(x))


def child(stage: str, rung: str) -> None:
    wall, full = run_stage(stage, rung)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kilobytes on Linux
    print(json.dumps({"wall_s": round(wall, 4), "peak_rss_mb": round(peak_kb / 1024, 1),
                      "gc_gen2": full}))


def ladder() -> tuple[list[dict], bool]:
    records, ok = [], True
    for stage, rung, runs in RUNGS:
        record = {"stage": stage, "rung": rung, "predicted": predicted(stage, rung)}
        if not runs:
            record["status"] = "not run"
        else:
            done = subprocess.run([sys.executable, __file__, "--child", stage, rung],
                                  capture_output=True, text=True)
            if done.returncode == 0:
                record.update(json.loads(done.stdout.splitlines()[-1]))
            else:
                ok = False
                record["status"] = "failed"
                record["error"] = (done.stderr.strip().splitlines() or [""])[-1]
        print(f"{stage:20} {rung:9} {record.get('wall_s', record.get('status'))}", flush=True)
        records.append(record)
    return records, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="where to write the JSON records (required)")
    parser.add_argument("--child", nargs=2, metavar=("STAGE", "RUNG"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    if args.out is None:
        parser.error("the following arguments are required: --out")
    records, ok = ladder()
    Path(args.out).write_text(json.dumps(records, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
