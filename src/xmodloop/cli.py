"""Command-line surface over every computation.

Subcommands: check, pi, components, nerve, loop, exact, examples.
Output is deterministic for identical input; ``--format json`` emits one
parseable object.  Exit codes: 0 success, 1 validation failure, 2 usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import exactseq, loop, nerve
from .documents import (
    _render,
    dumps,
    dumps_listing,
    json_strings,
    load_document,
    parse_xmod,
    record_template,
    serialize_xmod,
)
from .errors import PreconditionFailed, XModError
from .groups import DEFAULT_MAX_ISO_ORDER, FiniteGroup, _orders, image, kernel
from .xmod import CrossedModule, check_axioms, homotopy


def describe_group(group: FiniteGroup) -> str:
    n = len(group)
    if n == 1:
        return "trivial"
    if n in _orders(group):
        return f"C{n}"
    if group.is_abelian():
        return f"abelian of order {n}"
    return f"nonabelian of order {n}"


def _order_line(name: str, group: FiniteGroup) -> str:
    return f"{name}: order {len(group)} ({describe_group(group)})"


def _group_summary(group: FiniteGroup) -> dict:
    return {
        "order": len(group),
        "structure": describe_group(group),
        "elements": [_render(e) for e in group],
    }


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    """Write the payload as JSON, or the lines as one string."""
    print(dumps(payload) if args.format == "json" else "\n".join(text_lines))


def _load(args) -> CrossedModule:
    text = Path(args.file).read_text(encoding="utf-8")
    return parse_xmod(text)


def _require_base(x: CrossedModule, base: str) -> str:
    if base not in x.P:
        raise XModError(f"base element {base!r} is not an element of P")
    return base


def _cmd_check(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    report = check_axioms(load_document(text))
    payload = {
        "command": "check",
        "valid": not report,
        "violations": [
            {"kind": v.kind, "message": v.message, "witness": list(v.witness)}
            for v in report
        ],
    }
    if report:
        lines = [f"invalid crossed module: {len(report)} violation(s)"]
        lines += [f"  - {v.kind}: {v.message}" for v in report]
        _emit(args, payload, lines)
        return 1
    _emit(args, payload, ["valid crossed module"])
    return 0


def _cmd_pi(args) -> int:
    if args.space == "loop" and args.base is None:
        raise PreconditionFailed("--base is required with --space loop")
    x = _load(args)
    if args.space == "base":
        data, space, at = homotopy(x), "space: base", {}
    else:
        base = _require_base(x, args.base)
        data, space, at = loop.pi_loop(x, base), f"space: loop at base {base}", {"base": base}
    payload = {"command": "pi", "space": args.space, **at,
               "pi1": _group_summary(data.pi1), "pi2": _group_summary(data.pi2)}
    _emit(args, payload, [space, _order_line("pi1", data.pi1), _order_line("pi2", data.pi2)])
    return 0


def _cmd_components(args) -> int:
    """``loop.components`` has already checked its count against pi1's conjugacy classes."""
    x = _load(args)
    classes = loop.components(x)
    count = len(classes)
    payload = {
        "command": "components",
        "count": count,
        "classes": [{"representative": cls[0], "elements": cls} for cls in classes],
        "pi1_conjugacy_classes": count,
        "match": True,
    }
    lines = [f"components: {count}"]
    for i, cls in enumerate(classes, start=1):
        lines.append(f"class {i}: representative {cls[0]}, size {len(cls)}: "
                     + ", ".join(cls))
    lines.append(f"conjugacy classes of pi1: {count} (match)")
    _emit(args, payload, lines)
    return 0


# One template per listing: a K2 line and a K3 line of ``--format text``.
K2_LINE = "(%s; %s, %s, %s)"
K3_LINE = "edges(a=%s, b=%s, c=%s, d=%s, e=%s, f=%s) faces(m0=%s, m1=%s, m2=%s, m3=%s)"


def _cmd_nerve(args) -> int:
    """A listing is written straight from ``nerve``'s sorted rows of positions:
    each element is named (and in JSON escaped) once, and each simplex fills
    one template; no simplex tuple or payload dict is built."""
    x = _load(args)
    if args.dim == 3 and not args.list:
        count = nerve.k3_count(x)
        _emit(args, {"command": "nerve", "dim": 3, "count": count}, [f"K3 count: {count}"])
        return 0
    rows = nerve.k2_rows(x) if args.dim == 2 else nerve.k3_rows(x)
    payload = {"command": "nerve", "dim": args.dim, "count": len(rows)}
    lines = [f"K{args.dim} count: {len(rows)}"]
    if args.dim == 2:
        payload["formula"] = formula = nerve.k2_count_formula(x)
        lines.append(f"formula |M|*|P|^2: {formula}")
    if not args.list:
        _emit(args, payload, lines)
        return 0
    as_json = args.format == "json"
    P, M = ((json_strings(x.P.elements), json_strings(x.M.elements)) if as_json
            else (x.P.elements, x.M.elements))
    if args.dim == 2:
        template = record_template(nerve.Simplex2._fields) if as_json else K2_LINE
        records = [template % (M[m], P[c], P[a], P[b]) for a, b, c, m in rows]
    else:
        template = record_template(nerve.Simplex3._fields) if as_json else K3_LINE
        records = [template % (P[a], P[b], P[c], P[d], P[e], P[f], M[m0], M[m1], M[m2], M[m3])
                   for a, b, c, d, e, f, m0, m1, m2, m3 in rows]
    # The rows, then the records, are freed as soon as the next form is built,
    # so the listing's peak is the records and one copy of its text.
    del rows
    text = dumps_listing(payload, "simplices", records) if as_json else "\n".join(
        [*lines, *records])
    del records
    print(text)
    return 0


def _cmd_loop(args) -> int:
    x = _load(args)
    base = _require_base(x, args.base)
    lx = loop.loop_xmod_at(x, base)
    if args.emit:
        sys.stdout.write(serialize_xmod(lx))
        return 0
    data = loop.pi_loop(x, base)
    payload = {
        "command": "loop", "base": base,
        "Pa": _group_summary(lx.P),
        "pi1": _group_summary(data.pi1),
        "pi2": _group_summary(data.pi2),
    }
    _emit(args, payload, [f"base: {base}", _order_line(f"P({base})", lx.P),
                          _order_line("pi1", data.pi1), _order_line("pi2", data.pi2)])
    return 0


def _cmd_exact(args) -> int:
    x = _load(args)
    base = _require_base(x, args.base)
    seq = exactseq.exact_sequence(x, base)
    term_labels = ("pi^a", "pi", "pi1(fibre)", "pi1(loop)", "centralizer")
    map_labels = ("inclusion", "connecting", "j", "q")
    maps_payload = [{"map": label, "image_order": len(image(f)), "kernel_order": len(kernel(f))}
                    for label, f in zip(map_labels, seq.maps)]
    payload = {
        "command": "exact", "base": base, "class_in_pi1": seq.abar,
        "terms": [{"term": label, "order": len(term)}
                  for label, term in zip(term_labels, seq.terms)],
        "maps": maps_payload,
        "exact": True,
        "coinvariants_order": len(seq.coinvariants),
        "induced_injective": True,
    }
    lines = [f"base: {base} (class {seq.abar} in pi1)"]
    lines.append("terms: " + ", ".join(
        f"{label}={len(term)}" for label, term in zip(term_labels, seq.terms)))
    for entry in maps_payload:
        lines.append(f"map {entry['map']}: image order {entry['image_order']}, "
                     f"kernel order {entry['kernel_order']}")
    lines.append("exact at every node: yes")
    lines.append(f"coinvariants pi/{{a}}: order {len(seq.coinvariants)}; "
                 "induced map into pi1(loop) injective: yes")
    _emit(args, payload, lines)
    return 0


def _cmd_examples(args) -> int:
    x = _load(args)
    base = _require_base(x, args.base)
    results = {}
    lines = []
    for label, check in (("example1", exactseq.example1_check),
                         ("example2", exactseq.example2_check)):
        try:
            report = check(x, base, max_order=args.max_order)
        except PreconditionFailed as exc:
            results[label] = {"ran": False, "passed": None, "reason": str(exc)}
            lines.append(f"{label}: skipped ({exc})")
            continue
        passed = not report
        results[label] = {
            "ran": True, "passed": passed,
            "violations": [{"kind": v.kind, "message": v.message} for v in report],
        }
        lines.append(f"{label}: {'passed' if passed else 'FAILED'}")
        lines += [f"  - {v.kind}: {v.message}" for v in report]
    payload = {"command": "examples", "base": base, **results}
    _emit(args, payload, lines)
    ran_and_failed = any(r.get("ran") and not r.get("passed") for r in results.values())
    return 1 if ran_and_failed else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    common.add_argument("--max-order", type=int, default=DEFAULT_MAX_ISO_ORDER,
                        help="order bound for the isomorphism search "
                             f"(default: {DEFAULT_MAX_ISO_ORDER})")
    parser = argparse.ArgumentParser(
        prog="xmodloop",
        description="Homotopy 2-types of free loop spaces of finite crossed modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):  # a subcommand that reads one document
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("file")
        p.set_defaults(handler=handler)
        return p

    command("check", _cmd_check, "validate a crossed module file")
    p = command("pi", _cmd_pi, "homotopy groups of the base or loop space")
    p.add_argument("--space", choices=("base", "loop"), required=True)
    p.add_argument("--base", help="base element of P (required for --space loop)")
    command("components", _cmd_components, "components of the free loop space")
    p = command("nerve", _cmd_nerve, "nerve counts or listings")
    p.add_argument("--dim", type=int, choices=(2, 3), required=True)
    p.add_argument("--list", action="store_true")
    p = command("loop", _cmd_loop, "the loop crossed module at a base element")
    p.add_argument("--base", required=True)
    p.add_argument("--emit", action="store_true",
                   help="write the loop crossed module back out as a document")
    p = command("exact", _cmd_exact, "the five-term exact sequence at a base")
    p.add_argument("--base", required=True)
    p = command("examples", _cmd_examples, "run the module/central special-case checks")
    p.add_argument("--base", required=True)
    return parser


# Built by the first ``run_cli`` call, not at import, and reused by every
# later one: parsing keeps no state in the parser, and building it costs
# about 2 ms, a quarter of a short subcommand.
_PARSER: argparse.ArgumentParser | None = None


def run_cli(argv) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (None, 0) else int(code)
    try:
        return args.handler(args)
    # a name that standard output cannot encode fails before anything is written
    except (OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {args.file} is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    except PreconditionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except XModError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
