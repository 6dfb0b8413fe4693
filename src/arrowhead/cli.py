"""Command-line front door.

Exit codes partition outcomes: 0 for a positive answer (arrows, valid,
certified, value found), 10 for a negative answer with certificate (does not
arrow, nothing found below the cap), 11 for a rejected witness coloring, 1
for input or contract errors, and 2, from argparse, for a malformed command
line. A call that answers (0, 10 or 11) prints one JSON envelope on stdout;
one that fails prints nothing on stdout, and one line on stderr, `error:`
and the message, on exit 1, or argparse's usage text on exit 2. Only
--help differs: argparse prints its help on stdout and exits 0.
Each cmd_* command returns its result and exit code and prints nothing;
main alone times the call, echoes the inputs its subparser names, maps
errors to exit 1 and prints the envelope.
`ir` keeps no result cache unless `--cache PATH` names its log file, as
`ir_exact` keeps none unless it is given one.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from functools import lru_cache
from pathlib import Path

from .arrowing import NotFoundBelow, ramsey_number_exact, strongly_arrows
from .coloring import EdgeColoring, verify_witness
from .constructions import (
    bound_report,
    chvatal_harary_coloring,
    lemma2_coloring,
    theorem1_coloring,
    theorem3_coloring,
)
from .errors import ArrowheadError, ColoringMismatchError, PreconditionError
from .graphs import MAX_ORDER, Graph, complete, cycle, disjoint_union, emit_graph6, parse_graph6, path, star
from .search import DEFAULT_ORDER_CAP, Catalog, ResultCache, bundled_catalog, ir_exact

_SYMBOLIC = re.compile(r"^(\d*)([KPCS])_?(\d+)$")


def parse_graph_arg(text: str) -> Graph:
    """Accepts K5/P4/C5/S3-style names (optionally 2K2 for disjoint copies),
    a path to a file holding one graph6 line, or a literal graph6 string."""
    m = _SYMBOLIC.match(text)
    if m:
        copies = int(m.group(1)) if m.group(1) else 1
        kind, size = m.group(2), int(m.group(3))
        if copies < 1:
            raise PreconditionError(f"bad copy count in {text!r}")
        # refuse before building: a name such as K100000000 costs its order squared
        order = copies * (size + 1 if kind == "S" else size)
        if order > MAX_ORDER:
            raise PreconditionError(f"symbolic graph {text!r} has order {order}, above the cap of {MAX_ORDER}")
        try:
            base = {"K": complete, "P": path, "C": cycle, "S": star}[kind](size)
        except ValueError as exc:
            raise PreconditionError(f"bad symbolic graph {text!r}: {exc}") from exc
        return disjoint_union([base] * copies) if copies > 1 else base
    # os.path.isfile, unlike Path.is_file, is False for a name too long for
    # the file system, such as a large graph's graph6 string
    if os.path.isfile(text):
        try:
            lines = Path(text).read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise PreconditionError(f"cannot read graph file {text}: {exc}") from exc
        for line in lines:
            line = line.strip()
            if line:
                return parse_graph6(line)
        raise PreconditionError(f"graph file {text} is empty")
    return parse_graph6(text)


def _write_out(out_path: str | None, payload: dict | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
        except OSError as exc:
            raise PreconditionError(f"cannot write {out_path}: {exc}") from exc


def cmd_arrows(args) -> tuple[dict, int]:
    f = parse_graph_arg(args.f)
    g = parse_graph_arg(args.g)
    h = parse_graph_arg(args.h)
    res = strongly_arrows(f, g, h)
    witness = res.witness.to_json_dict() if res.witness is not None else None
    result = {
        "arrows": res.arrows,
        "witness": witness,
        "stats": {"colorings_explored": res.colorings_explored, "prunes": res.prunes},
    }
    _write_out(args.out, witness)  # JSON null when f arrows
    return result, 0 if res.arrows else 10


def cmd_bounds(args) -> tuple[dict, int]:
    g = parse_graph_arg(args.g)
    h = parse_graph_arg(args.h)
    report = bound_report(g, h, ramsey_budget=args.ramsey_budget)
    return report.to_json_dict(), 0


# method -> (recipe, the arguments it takes after the host --f)
_RECIPES = {
    "t1": (theorem1_coloring, ("alpha", "omega")),
    "l2": (lemma2_coloring, ("omega",)),
    "t3": (theorem3_coloring, ("alpha", "omega")),
}


def cmd_construct(args) -> tuple[dict, int]:
    method = args.method
    if method == "ch":
        if not args.g or not args.h:
            raise PreconditionError("method ch needs --g and --h")
        g = parse_graph_arg(args.g)
        h = parse_graph_arg(args.h)
        host, coloring, trace = chvatal_harary_coloring(g, h)
    else:
        if not args.f:
            raise PreconditionError(f"method {method} needs --f")
        host = parse_graph_arg(args.f)
        recipe, names = _RECIPES[method]
        values = [getattr(args, name) for name in names]
        if None in values:
            needed = " and ".join(f"--{name}" for name in names)
            raise PreconditionError(f"method {method} needs {needed}")
        coloring, trace = recipe(host, *values)
    result = {
        "certified": True,
        "method": trace.method,
        "host": emit_graph6(host),
        "coloring": coloring.to_json_dict(),
        "trace": trace.to_json_dict(),
    }
    _write_out(args.out, coloring.to_json_dict())
    return result, 0


def cmd_verify(args) -> tuple[dict, int]:
    f = parse_graph_arg(args.f)
    g = parse_graph_arg(args.g)
    h = parse_graph_arg(args.h)
    try:
        data = json.loads(Path(args.coloring).read_text(encoding="utf-8"))
    # ValueError: not UTF-8, or not JSON; RecursionError: JSON nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ColoringMismatchError(f"coloring file {args.coloring} is not readable JSON: {exc}") from exc
    n = data.get("n") if isinstance(data, dict) else None
    # refuse an order past the host's before one row per declared vertex is built
    if type(n) is int and n > f.n:
        raise ColoringMismatchError(f"coloring is for order {n}, host has order {f.n}")
    coloring = EdgeColoring.from_json_dict(data)
    violation = verify_witness(f, coloring, g, h)
    result = {
        "valid": violation is None,
        "violation": None
        if violation is None
        else {"color": violation.color, "vertices": list(violation.embedding.map)},
    }
    return result, 0 if violation is None else 11


def cmd_ir(args) -> tuple[dict, int]:
    if args.cache == "":
        raise PreconditionError("--cache needs a file path")
    g = parse_graph_arg(args.g)
    h = parse_graph_arg(args.h)
    catalog = Catalog(args.catalog) if args.catalog else bundled_catalog()
    cache = None if args.cache is None else ResultCache(args.cache)
    res = ir_exact(g, h, catalog, n_max=args.n_max, cache=cache, allow_large=args.allow_large)
    if isinstance(res, NotFoundBelow):
        result, code = {"g": emit_graph6(g), "h": emit_graph6(h), "ir": None, "n_max": res.n_max}, 10
    else:
        result, code = res.to_json_dict(), 0
    _write_out(args.out, result)
    return result, code


def cmd_ramsey(args) -> tuple[dict, int]:
    g = parse_graph_arg(args.g)
    h = parse_graph_arg(args.h)
    value = ramsey_number_exact(g, h, args.n_max)
    found = not isinstance(value, NotFoundBelow)
    result = {
        "g": emit_graph6(g),
        "h": emit_graph6(h),
        "ramsey": value if found else None,
        "n_max": args.n_max,
    }
    return result, 0 if found else 10


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    main call; parsing does not change it, so callers must not either."""
    parser = argparse.ArgumentParser(
        prog="arrowhead",
        description="exact induced-arrowing decisions, witness colorings, bounds, and catalog sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("arrows", help="decide whether a host arrows a pattern pair")
    p.add_argument("--f", required=True, help="host graph (symbolic, file, or graph6)")
    p.add_argument("--g", required=True, help="red pattern")
    p.add_argument("--h", required=True, help="blue pattern")
    p.add_argument("--out", help="also write the witness coloring JSON here")
    p.set_defaults(func=cmd_arrows, echo=("f", "g", "h"))

    p = sub.add_parser("bounds", help="report every applicable lower bound for a pair")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--ramsey-budget", type=int, default=6, help="largest complete host tried for the exact classical value")
    p.set_defaults(func=cmd_bounds, echo=("g", "h"))

    p = sub.add_parser("construct", help="build and certify a witness coloring")
    p.add_argument("--method", required=True, choices=["ch", "t1", "l2", "t3"])
    p.add_argument("--f", help="host graph (t1, l2, t3)")
    p.add_argument("--g", help="red pattern (ch)")
    p.add_argument("--h", help="blue pattern (ch)")
    p.add_argument("--alpha", type=int, help="red-side independence target")
    p.add_argument("--omega", type=int, help="blue-side clique budget")
    p.add_argument("--out", help="also write the coloring JSON here")
    p.set_defaults(func=cmd_construct, echo=("f", "g", "h", "alpha", "omega", "method"))

    p = sub.add_parser("verify", help="check a witness coloring against a pattern pair")
    p.add_argument("--f", required=True)
    p.add_argument("--coloring", required=True, help="coloring JSON file")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.set_defaults(func=cmd_verify, echo=("f", "coloring", "g", "h"))

    p = sub.add_parser("ir", help="exact minimum arrowing order by catalog sweep")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--catalog", help="catalog directory (default: bundled, orders 1-7)")
    p.add_argument("--n-max", type=int, default=DEFAULT_ORDER_CAP)
    p.add_argument("--allow-large", action="store_true", help=f"permit sweeps beyond order {DEFAULT_ORDER_CAP}")
    p.add_argument("--cache", metavar="PATH", help="read and append refutations in this log file (default: no cache)")
    p.add_argument("--out", help="also write the result JSON here")
    p.set_defaults(func=cmd_ir, echo=("g", "h", "n_max"))

    p = sub.add_parser("ramsey", help="exact classical value on complete hosts")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--n-max", type=int, default=6)
    p.set_defaults(func=cmd_ramsey, echo=("g", "h", "n_max"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        result, code = args.func(args)
    except ArrowheadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    envelope = {
        "command": args.command,
        "inputs": {key: getattr(args, key) for key in args.echo if getattr(args, key) is not None},
        "result": result,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    print(json.dumps(envelope, indent=2))
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
