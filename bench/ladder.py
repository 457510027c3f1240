"""Size ladder: time each stage on a fixed list of growing inputs.

    python bench/ladder.py --out BENCH_14.json

A rung names a group (``S5``) or a crossed module: ``id: G``, ``1 -> G``
or ``N -> G``, the inclusion of a normal subgroup N of G with G acting
by conjugation.  Each rung runs in a fresh child process, so no rung
inherits another's caches or memory.  The child builds its input, times
only the stage call
with ``time.perf_counter`` and reads its own peak RSS with
``resource.getrusage(RUSAGE_SELF)``.  The ``theta`` (at every base) and
``fibration_psi`` rungs build the loop groupoid first, as the cached
``loop_gpd_xmod`` they start from, and time only their own work.  The
``nerve_k3`` rung times the sorted listing of the 3-simplices and the
``nerve_k3_count`` rung their count, which builds no list.  A ``cli_*``
rung times one CLI subcommand as a whole: the child writes the rung as a
document with ``serialize_xmod`` (untimed), then times one ``run_cli``
call on it with standard output sent to a ``StringIO``;
``cli_nerve3_list_json`` is ``nerve --dim 3 --list --format json`` and
``cli_components`` is ``components --format json``.  A fresh process
builds the argument parser once, on that call, so these rungs show the
cost of parsing, computing and writing JSON, not the saving of a parser
reused across calls.  Every record holds the stage, the rung, the
predicted size, ``wall_s`` and ``peak_rss_mb``; a rung that is too
large to run is listed as "not run" with its predicted size.  ``--out``
is required, so that no run overwrites a committed record by default.
The script exits 1 if any rung that runs fails.  Only the standard
library and ``xmodloop`` from this checkout's ``src`` are used.
"""

from __future__ import annotations

import argparse
import contextlib
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
                   "1 -> S5", "A4 -> S4")),
    # K3 on id: S4 has 191M simplices
    *((stage, rung, rung != "id: S4") for stage in ("nerve_k3", "nerve_k3_count")
      for rung in ("id: C4", "1 -> S4", "id: S3", "id: D4", "id: S4")),
    *(("cli_nerve3_list_json", rung, True) for rung in ("id: C4", "1 -> S4", "id: S3")),
    *(("cli_components", rung, True) for rung in ("id: A4", "id: S4")),
]
CLI_ARGS = {"cli_nerve3_list_json": ["nerve", "--dim", "3", "--list", "--format", "json"],
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
    if stage.startswith("nerve_k3") or stage == "cli_nerve3_list_json":
        return {"simplices": m ** 3 * p ** 3}
    if stage == "cli_components":
        return {"bases": p, "document_entries": p * p + m * m + m + m * p}
    # the loop groupoid is the group of the |M||P| pairs (m, p) acting on P
    if stage == "theta":
        return {"bases": p, "group_order": m * p}
    if stage == "fibration_psi":
        return {"morphisms": m * p * p, "fibre_morphisms": m * p}
    return {"morphisms": m * p * p, "group_order": m * p, "fibre_action_entries": m * m * p * p}


def run_stage(stage: str, rung: str) -> float:
    """Build the rung's input, then time the stage alone."""
    sys.path.insert(0, str(ROOT / "src"))
    from xmodloop.cli import run_cli
    from xmodloop.documents import serialize_xmod
    from xmodloop.exactseq import fibration_psi
    from xmodloop.groups import group_action, homomorphism, make_group, subgroup
    from xmodloop.loop import loop_gpd_xmod, theta
    from xmodloop.nerve import k3_count, nerve_k3
    from xmodloop.xmod import make_xmod

    if stage == "make_group":
        elements, table, identity = group_table(rung)
        start = time.perf_counter()
        make_group(elements, table, identity)
        return time.perf_counter() - start
    sub, top = module_labels(rung)
    elements, table, identity = group_table(top)
    G = make_group(elements, table, identity)
    members = [identity] if sub == "1" else [_name(q) for q in permutation_group(sub)]
    N = subgroup(G, members).as_group()
    delta = homomorphism(N, G, {n: n for n in N})
    action = group_action(G, N, {(n, p): G.conj(n, p) for n in N for p in G})
    x = make_xmod(N, G, delta, action, name=rung)
    if stage in CLI_ARGS:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rung.json"
            path.write_text(serialize_xmod(x), encoding="utf-8")
            argv = [CLI_ARGS[stage][0], str(path), *CLI_ARGS[stage][1:]]
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = run_cli(argv)
                wall = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"{' '.join(CLI_ARGS[stage])} exited with {code}")
        return wall
    if stage in ("theta", "fibration_psi"):
        loop_gpd_xmod(x)
    call = {"loop_gpd_xmod": loop_gpd_xmod, "fibration_psi": fibration_psi,
            "theta": lambda x: [theta(x, a) for a in x.P],
            "nerve_k3": nerve_k3, "nerve_k3_count": k3_count}[stage]
    start = time.perf_counter()
    call(x)
    return time.perf_counter() - start


def child(stage: str, rung: str) -> None:
    wall = run_stage(stage, rung)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kilobytes on Linux
    print(json.dumps({"wall_s": round(wall, 4), "peak_rss_mb": round(peak_kb / 1024, 1)}))


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
