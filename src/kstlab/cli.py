"""Command line front end.

Subcommands: check-minor, check-lcolor, check-choosable, build-h,
build-counterexample, bounds, experiment.  Exit codes: the check-* commands
answer through the code (0 yes / 1 no / 2 budget or cap), 3 is usage or IO,
and 4 is an internal error (any other exception), reported in one stderr
line that names it; a crash is never an answer.
Reports embed a format_version and the full run configuration;
execution-resource knobs (--threads, --deterministic) stay outside the
echoed configuration so reports are byte-identical across thread counts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from . import construction as cx
from . import graph as gr
from . import listcolor as lc
from . import minors as mn

FORMAT_VERSION = 1

EXIT_YES = 0
EXIT_NO = 1
EXIT_LIMIT = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _load_graph(path: str) -> gr.Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return gr.parse(fh.read())


def _load_lists(source: str) -> lc.ListAssignment:
    text = source
    if not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return lc.ListAssignment.from_json_dict(json.loads(text))


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func", "command", "threads", "deterministic", "out"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(val, Fraction):
            val = str(val)
        out[key] = val
    return out


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    fmt = getattr(args, "format", "human")
    if fmt == "json":
        doc = {
            "format_version": FORMAT_VERSION,
            "command": args.command,
            "config": _config_echo(args),
            "result": payload,
        }
        body = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    elif fmt == "human":
        body = "\n".join(text_lines) + "\n"
    else:
        raise ValueError(f"--format {fmt} is not supported by {args.command}")
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


# --- subcommand handlers -----------------------------------------------


def _cmd_check_minor(args) -> int:
    g = _load_graph(args.graph)
    q = mn.MinorQuery(args.s, args.t)
    res = mn.find_kst_minor(g, q, budget=args.budget)
    payload = {
        "status": res.status.value,
        "nodes_expanded": res.nodes_expanded,
        "atoms_searched": res.atoms_searched,
        "model": res.model.to_json_dict() if res.model else None,
    }
    lines = [f"check-minor K_{{{q.s},{q.t}}}: {res.status.value} "
             f"({res.nodes_expanded} nodes, {res.atoms_searched} atoms searched)"]
    if res.model:
        lines.append(json.dumps(res.model.to_json_dict(), sort_keys=True))
    _emit(args, payload, lines)
    return {mn.SearchStatus.FOUND: EXIT_YES,
            mn.SearchStatus.NOT_FOUND: EXIT_NO,
            mn.SearchStatus.BUDGET_EXHAUSTED: EXIT_LIMIT}[res.status]


def _cmd_check_lcolor(args) -> int:
    g = _load_graph(args.graph)
    lists = _load_lists(args.lists)
    coloring = lc.find_l_coloring(g, lists)
    colorable = coloring is not None
    payload = {"colorable": colorable,
               "coloring": list(coloring) if colorable else None}
    lines = [f"check-lcolor: {'colorable' if colorable else 'no list coloring'}"]
    if colorable:
        lines.append(" ".join(str(c) for c in coloring))
    _emit(args, payload, lines)
    return EXIT_YES if colorable else EXIT_NO


def _cmd_check_choosable(args) -> int:
    g = _load_graph(args.graph)
    try:
        verdict = lc.is_k_choosable(g, args.k,
                                    max_vertices=args.cap_n, max_k=args.cap_k)
    except lc.ChoosabilityCapError as exc:
        _emit(args, {"refused": str(exc)}, [f"check-choosable: refused: {exc}"])
        return EXIT_LIMIT
    payload = {
        "k": verdict.k,
        "choosable": verdict.choosable,
        "universe_size": verdict.universe_size,
        "witness": verdict.witness.to_json_dict() if verdict.witness else None,
    }
    lines = [f"check-choosable k={args.k}: "
             f"{'choosable' if verdict.choosable else 'NOT choosable'}"]
    if verdict.witness:
        lines.append(json.dumps(verdict.witness.to_json_dict(), sort_keys=True))
    _emit(args, payload, lines)
    return EXIT_YES if verdict.choosable else EXIT_NO


def _cmd_build_h(args) -> int:
    params = (cx.GadgetParams(args.eps, args.C, args.f, args.delta)
              if args.delta is not None else
              cx.GadgetParams.derive(args.eps, args.C))
    build = cx.build_gadget(
        args.m, args.n, params, args.seed,
        max_retries=args.max_retries,
        block_mode=args.mode,
        block_trials=args.trials,
    )
    payload = {
        "built": build.ok,
        "graph": gr.to_json_dict(build.graph) if build.ok else None,
        "attempts": [a.to_json_dict() for a in build.attempts],
    }
    lines = [f"build-h: {'built after ' + str(len(build.attempts)) + ' attempt(s)' if build.ok else 'gave up'}"]
    if build.ok:
        lines.append(gr.to_edge_list(build.graph).rstrip("\n"))
    _emit(args, payload, lines)
    return EXIT_YES if build.ok else EXIT_NO


def _cmd_build_counterexample(args) -> int:
    if args.fixture == "tiny":
        h = cx.tiny_gadget()
    elif args.fixture == "clique":
        h = cx.clique_gadget(2, 2)
    else:
        if not args.graph:
            print("build-counterexample needs --graph or --fixture", file=sys.stderr)
            return EXIT_USAGE
        h = _load_graph(args.graph)
    m = len(h.part(gr.LABEL_A))
    n = len(h.part(gr.LABEL_B))
    palette = args.palette if args.palette is not None else m + n - 1
    try:
        asm = cx.build_counterexample(h, palette, "all",
                                      max_vertices=args.max_vertices)
    except cx.AssemblyCapError as exc:
        _emit(args, {"refused": str(exc)}, [f"build-counterexample: refused: {exc}"])
        return EXIT_LIMIT
    coloring = lc.find_l_coloring(asm.graph, asm.lists) if args.verify else None
    pigeonhole = None
    if args.verify:
        proper = [c for c in asm.colorings
                  if _proper_on_b(asm, c)]
        pigeonhole = {
            "proper_b_colorings": len(proper),
            "all_blocked": all(cx.verify_no_l_coloring_pigeonhole(asm, c)
                               for c in proper),
        }
    payload = {
        "vertices": asm.graph.n,
        "copies": len(asm.colorings),
        "palette_size": asm.palette_size,
        "graph": gr.to_json_dict(asm.graph),
        "lists": asm.lists.to_json_dict(),
        "verification": {
            "list_coloring_found": list(coloring) if coloring is not None else None,
            "pigeonhole": pigeonhole,
        } if args.verify else None,
    }
    lines = [f"build-counterexample: {asm.graph.n} vertices, "
             f"{len(asm.colorings)} copies, palette {asm.palette_size}"]
    if args.verify:
        lines.append(f"list coloring found: {coloring is not None}")
        lines.append(f"pigeonhole blocked all proper B-colorings: "
                     f"{pigeonhole['all_blocked']}")
    _emit(args, payload, lines)
    if args.verify and coloring is not None:
        return EXIT_NO
    return EXIT_YES


def _proper_on_b(asm: cx.CounterexampleAssembly, c) -> bool:
    g = asm.graph
    n = len(asm.base_b)
    for i in range(n):
        for j in gr.bits(g.adj[i] & ((1 << n) - 1)):
            if c[i] == c[j]:
                return False
    return True


def _cmd_bounds(args) -> int:
    if args.delta is not None:
        params = cx.GadgetParams(args.eps, args.C, args.f, args.delta)
    else:
        params = cx.GadgetParams.derive(args.eps, args.C)
    block = cx.block_failure_exponent(args.n, params.epsilon, params.c_const,
                                      params.max_block_size, params.delta)
    degree = cx.degree_failure_exponent(args.n, params.c_const, params.delta)
    payload = {
        "epsilon": str(params.epsilon),
        "c_const": str(params.c_const),
        "max_block_size": params.max_block_size,
        "delta": str(params.delta),
        "f_squared_delta": str(params.max_block_size ** 2 * params.delta),
        "n": args.n,
        "block_failure_exponent": block,
        "degree_failure_exponent": degree,
    }
    lines = [
        f"params: eps={params.epsilon} C={params.c_const} "
        f"f={params.max_block_size} delta={params.delta}",
        f"block failure exponent at n={args.n}: {block!r}",
        f"degree failure exponent at n={args.n}: {degree!r}",
    ]
    _emit(args, payload, lines)
    return EXIT_YES


def _cmd_experiment(args) -> int:
    rows = cx.degree_property_sweep(
        args.n, args.trials,
        epsilon=args.eps, c_const=args.C, delta=args.delta,
        seed=args.seed, block_trials=args.block_trials,
        threads=args.threads,
    )
    if args.format == "csv":
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(_config_echo(args), sort_keys=True)
                  + f" format_version={FORMAT_VERSION}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "seed", "p", "max_degree", "degree_pass",
                         "block_status", "block_failures", "trials"])
        for r in rows:
            writer.writerow([r.n, r.seed, repr(r.p), r.max_degree,
                             r.degree_pass, r.block_status, r.block_failures,
                             r.trials])
        body = buf.getvalue()
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)
        return EXIT_YES
    payload = {"rows": [vars(r) | {"p": repr(r.p)} for r in rows]}
    frac_pass = {}
    for r in rows:
        frac_pass.setdefault(r.n, []).append(r.degree_pass)
    lines = [f"n={n}: pass {sum(v)}/{len(v)}" for n, v in sorted(frac_pass.items())]
    _emit(args, payload, lines)
    return EXIT_YES


# --- parser --------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` returns a
    fresh namespace on every call."""
    top = argparse.ArgumentParser(
        prog="kstlab",
        description="Exact minor testing, choosability checking, and random "
                    "gadget constructions for list-chromatic lower bounds.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="human"):
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=["human", "json", "csv"],
                       default=fmt_default)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--deterministic", action="store_true",
                       help="pin the deterministic merge order (always on; "
                            "flag kept for command-line compatibility)")

    p = sub.add_parser("check-minor", help="exact K_{s,t} minor search")
    p.add_argument("graph", help="edge-list or JSON graph file")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="node-expansion cap (default: unlimited)")
    common(p)
    p.set_defaults(func=_cmd_check_minor)

    p = sub.add_parser("check-lcolor", help="solve one list assignment")
    p.add_argument("graph")
    p.add_argument("lists", help="JSON {\"lists\": [[...], ...]} file or inline")
    common(p)
    p.set_defaults(func=_cmd_check_lcolor)

    p = sub.add_parser("check-choosable", help="exact k-choosability")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap-n", type=int, default=8,
                   help="vertex cap for the exhaustive search")
    p.add_argument("--cap-k", type=int, default=3, help="list-size cap")
    common(p)
    p.set_defaults(func=_cmd_check_choosable)

    p = sub.add_parser("build-h", help="sample a two-clique gadget")
    p.add_argument("--n", type=int, required=True, help="B-side size")
    p.add_argument("--m", type=int, required=True, help="A-side size kept")
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--C", type=_fraction, required=True)
    p.add_argument("--delta", type=_fraction, default=None,
                   help="override the derived edge exponent")
    p.add_argument("--f", type=int, default=1,
                   help="max block size when --delta is given")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-retries", type=int, default=32)
    p.add_argument("--mode", choices=["exhaustive", "sampled"],
                   default="sampled", help="block-property check mode")
    p.add_argument("--trials", type=int, default=2000,
                   help="sampled block-property trials per attempt")
    common(p)
    p.set_defaults(func=_cmd_build_h)

    p = sub.add_parser("build-counterexample",
                       help="glue gadget copies and punch lists")
    p.add_argument("--graph", help="labeled gadget file")
    p.add_argument("--fixture", choices=["tiny", "clique"],
                   help="use a built-in 4-vertex gadget")
    p.add_argument("--palette", type=int, default=None,
                   help="palette size (default |A|+|B|-1)")
    p.add_argument("--max-vertices", type=int, default=1_000_000)
    p.add_argument("--verify", action=argparse.BooleanOptionalAction,
                   default=True)
    common(p)
    p.set_defaults(func=_cmd_build_counterexample)

    p = sub.add_parser("bounds", help="probability bound exponents")
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--C", type=_fraction, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=_fraction, default=None)
    p.add_argument("--f", type=int, default=1)
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="seeded Monte Carlo degree sweep")
    p.add_argument("--n", type=_int_list, required=True,
                   help="comma-separated B-side sizes")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--C", type=_fraction, default=Fraction(1))
    p.add_argument("--delta", type=_fraction, default=None)
    p.add_argument("--block-trials", type=int, default=0)
    common(p, fmt_default="csv")
    p.set_defaults(func=_cmd_experiment)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap above the result codes
        return EXIT_USAGE if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, gr.GraphFormatError) as exc:
        print(f"kstlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Any other failure is a fault, not a verdict: keep it off the
        # answer codes 0-2.
        print(f"kstlab: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
