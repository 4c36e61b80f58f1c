"""Command line front end.

Subcommands: check-minor, check-lcolor, check-choosable, build-h,
build-counterexample, bounds, experiment.  Exit codes: every command
answers through the code (0 yes / 1 no / 2 budget or cap), 3 is usage or IO,
and 4 is an internal error (any other exception), reported in one stderr
line that names it; a crash is never an answer.  A cap refusal from any
command exits 2 with a ``refused`` record, written by ``main``.
Reports are human text or JSON (--format); only experiment also writes CSV,
its default, and --format csv on any other command is a usage error (3).
Reports embed a format_version and the full run configuration.  The human
report of build-h is a gadget file: its status line is a '#' comment, so
check-minor and build-counterexample --graph read it (stdout or --out) as
it stands.  build-h decides the block property of every attempt exactly;
its --mode has the one choice exhaustive, also the default, and past the
enumeration cap it refuses (2).  build-counterexample always verifies its
assembly: the exact solver and the pigeonhole check on every proper
B-coloring.  Every command runs single-threaded: --threads and
--deterministic are accepted for compatibility, ignored, and left out of
the echoed configuration.  --out rewrites an existing file in place and
trims it to the new report, so it keeps the same file, permissions and
symlink target; as before, the write is neither atomic nor fsynced.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import stat
import sys
from fractions import Fraction
from typing import Callable

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


def _open_in_place(path, flags: int) -> int:
    """``open`` mode "w" without O_TRUNC: truncating a file to zero bytes
    before rewriting it costs more than the whole write on some file
    systems (ext4 flushes its delayed allocation), so ``_write`` overwrites
    the old bytes and trims what is left of them."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write(args, body: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="",
                  opener=_open_in_place) as fh:
            fh.write(body)
            # a device such as /dev/null cannot be truncated, nor needs it
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    else:
        sys.stdout.write(body)


def _emit(args, payload: dict, text_lines: Callable[[], list[str]]) -> None:
    """Write the report; the human lines are built only when printed."""
    if args.format == "json":
        doc = {
            "format_version": FORMAT_VERSION,
            "command": args.command,
            "config": _config_echo(args),
            "result": payload,
        }
        body = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        body = "\n".join(text_lines()) + "\n"
    _write(args, body)


def _gadget_params(args) -> cx.GadgetParams:
    """f and delta are derived unless --delta is given; then f = 1."""
    if args.delta is None:
        return cx.GadgetParams.derive(args.eps, args.C)
    return cx.GadgetParams(args.eps, args.C, 1, args.delta)


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

    def lines():
        text = [f"check-minor K_{{{q.s},{q.t}}}: {res.status.value} "
                f"({res.nodes_expanded} nodes, {res.atoms_searched} atoms searched)"]
        if res.model:
            text.append(json.dumps(payload["model"], sort_keys=True))
        return text

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

    def lines():
        text = [f"check-lcolor: {'colorable' if colorable else 'no list coloring'}"]
        if colorable:
            text.append(" ".join(str(c) for c in coloring))
        return text

    _emit(args, payload, lines)
    return EXIT_YES if colorable else EXIT_NO


def _cmd_check_choosable(args) -> int:
    g = _load_graph(args.graph)
    verdict = lc.is_k_choosable(g, args.k,
                                max_vertices=args.cap_n, max_k=args.cap_k)
    payload = {
        "k": verdict.k,
        "choosable": verdict.choosable,
        "universe_size": verdict.universe_size,
        "assignments": verdict.assignments,
        "witness": verdict.witness.to_json_dict() if verdict.witness else None,
    }

    def lines():
        text = [f"check-choosable k={args.k}: "
                f"{'choosable' if verdict.choosable else 'NOT choosable'}"]
        if verdict.witness:
            text.append(json.dumps(payload["witness"], sort_keys=True))
        return text

    _emit(args, payload, lines)
    return EXIT_YES if verdict.choosable else EXIT_NO


def _cmd_build_h(args) -> int:
    build = cx.build_gadget(args.m, args.n, _gadget_params(args), args.seed,
                            max_retries=args.max_retries)
    payload = {
        "built": build.ok,
        "graph": gr.to_json_dict(build.graph) if build.ok else None,
        "attempts": [a.to_json_dict() for a in build.attempts],
    }

    def lines():
        status = (f"built after {len(build.attempts)} attempt(s)" if build.ok
                  else "gave up")
        # a '#' comment, so the human report of a built gadget is a gadget file
        text = [f"# build-h: {status}"]
        if build.ok:
            text.append(gr.to_edge_list(build.graph).rstrip("\n"))
        return text

    _emit(args, payload, lines)
    return EXIT_YES if build.ok else EXIT_NO


def _cmd_build_counterexample(args) -> int:
    if args.fixture == "tiny":
        h = cx.tiny_gadget()
    elif args.fixture == "clique":
        h = cx.clique_gadget(2, 2)
    else:
        h = _load_graph(args.graph)
    palette = len(h.part(gr.LABEL_A)) + len(h.part(gr.LABEL_B)) - 1
    asm = cx.build_counterexample(h, palette, "all",
                                  max_vertices=args.max_vertices)
    coloring = lc.find_l_coloring(asm.graph, asm.lists)
    proper = [c for c in asm.colorings if asm.proper_on_b(c)]
    all_blocked = all(cx.verify_no_l_coloring_pigeonhole(asm, c) for c in proper)
    payload = {
        "vertices": asm.graph.n,
        "copies": len(asm.colorings),
        "palette_size": asm.palette_size,
        "graph": gr.to_json_dict(asm.graph),
        "lists": asm.lists.to_json_dict(),
        "verification": {
            "list_coloring_found": list(coloring) if coloring is not None else None,
            "pigeonhole": {"proper_b_colorings": len(proper),
                           "all_blocked": all_blocked},
        },
    }
    _emit(args, payload, lambda: [
        f"build-counterexample: {asm.graph.n} vertices, "
        f"{len(asm.colorings)} copies, palette {asm.palette_size}",
        f"list coloring found: {coloring is not None}",
        f"pigeonhole blocked all proper B-colorings: {all_blocked}"])
    return EXIT_YES if coloring is None else EXIT_NO


def _cmd_bounds(args) -> int:
    params = _gadget_params(args)
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
    _emit(args, payload, lambda: [
        f"params: eps={params.epsilon} C={params.c_const} "
        f"f={params.max_block_size} delta={params.delta}",
        f"block failure exponent at n={args.n}: {block!r}",
        f"degree failure exponent at n={args.n}: {degree!r}",
    ])
    return EXIT_YES


def _cmd_experiment(args) -> int:
    rows = cx.degree_property_sweep(args.n, args.trials, epsilon=args.eps,
                                    c_const=args.C, delta=args.delta, seed=args.seed)
    if args.format == "csv":
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(_config_echo(args), sort_keys=True)
                  + f" format_version={FORMAT_VERSION}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "seed", "p", "max_degree", "degree_pass"])
        for r in rows:
            writer.writerow([r.n, r.seed, repr(r.p), r.max_degree, r.degree_pass])
        _write(args, buf.getvalue())
        return EXIT_YES
    payload = {"rows": [vars(r) | {"p": repr(r.p)} for r in rows]}

    def lines():
        by_n = {}
        for r in rows:
            by_n.setdefault(r.n, []).append(r)
        return [f"n={n}: p={group[0].p:.4f} "
                f"pass {sum(r.degree_pass for r in group)}/{len(group)} "
                f"max degree {max(r.max_degree for r in group)}"
                for n, group in sorted(by_n.items())]

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

    def common(p, formats=("human", "json"), fmt_default="human"):
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=formats, default=fmt_default)
        p.add_argument("--threads", type=int, default=1,
                       help="ignored: every command runs single-threaded "
                            "(flag kept for command-line compatibility)")
        p.add_argument("--deterministic", action="store_true",
                       help="ignored: reports are always deterministic "
                            "(flag kept for command-line compatibility)")

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
                   help="override the derived edge exponent (then f = 1)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-retries", type=int, default=32)
    p.add_argument("--mode", choices=["exhaustive"], default="exhaustive",
                   help="block-property check mode (exact; the only choice)")
    common(p)
    p.set_defaults(func=_cmd_build_h)

    p = sub.add_parser("build-counterexample",
                       help="glue gadget copies and punch lists")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="labeled gadget file")
    source.add_argument("--fixture", choices=["tiny", "clique"],
                        help="use a built-in 4-vertex gadget")
    p.add_argument("--max-vertices", type=int, default=1_000_000)
    common(p)
    p.set_defaults(func=_cmd_build_counterexample)

    p = sub.add_parser("bounds", help="probability bound exponents")
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--C", type=_fraction, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=_fraction, default=None)
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
    common(p, formats=("human", "json", "csv"), fmt_default="csv")
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
        try:
            return args.func(args)
        except (lc.ChoosabilityCapError, cx.AssemblyCapError,
                cx.EnumerationCapError) as exc:
            # Caps are ValueErrors, so this precedes the usage clause; the
            # outer try still maps a failed --out write to a usage error.
            _emit(args, {"refused": str(exc)},
                  lambda: [f"{args.command}: refused: {exc}"])
            return EXIT_LIMIT
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
