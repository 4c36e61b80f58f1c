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
the echoed configuration.  --out encodes the report once and writes it with
one os.write loop over an existing file, not truncated first, and trims the
file only when it was longer than the report, so it keeps the same file,
permissions and symlink target, and a device such as /dev/null is written
but never truncated; the write is neither atomic nor fsynced.  Graph and
list files are read unbuffered as bytes and decoded as a text-mode read
with encoding utf-8-sig would: a leading byte-order mark dropped, CR and
CRLF line ends read as LF.

``main`` hands the tokens after a known command name straight to that
command.  Each command line takes one of two paths: a well-formed one is
read in one pass over a table built once per process from the command's own
argparse actions, and gives the namespace argparse would; every other one
(no arguments, an unknown command, -h, a usage error) goes to the top-level
argparse parser, so every usage and help text is what one argparse pass over
the whole command line prints (see ``_parse_args``).  Integer options read
an optional '-' followed by ASCII digits, as graph files do.  A JSON report
is byte for byte ``json.dumps(doc, sort_keys=True, indent=2)`` plus a
newline.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
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


def _int(text: str) -> int:
    """An integer as graph files write one: an optional '-' followed by
    ASCII digits.  Named ``int`` so that argparse reports a refused value as
    ``invalid int value``."""
    return gr._ascii_int(text)


_int.__name__ = "int"


def _int_list(text: str) -> list[int]:
    try:
        return [gr._ascii_int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _read_text(path: str) -> str:
    """The text ``open(path, encoding="utf-8-sig").read()`` gives, read
    unbuffered as bytes: a leading byte-order mark (which would otherwise
    hide a JSON file's '{' from the format sniffing in graph.parse) is
    dropped, and CRLF and lone CR read as LF, as universal newlines translate
    them."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.readall().decode("utf-8-sig")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_graph(path: str) -> gr.Graph:
    return gr.parse(_read_text(path))


def _load_lists(source: str) -> lc.ListAssignment:
    text = source
    if not source.lstrip().startswith("{"):
        text = _read_text(source)
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


def _write(args, body: str) -> None:
    """Write a report to stdout or rewrite the --out file in place.  The file
    is opened without O_TRUNC, since truncating it to zero bytes first costs
    more than the whole write on some file systems (ext4 flushes its delayed
    allocation); the new bytes overwrite the old and a regular file that was
    longer is trimmed to them."""
    if not args.out:
        sys.stdout.write(body)
        return
    data = body.encode()
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = os.write(fd, data)
        while done < len(data):
            done += os.write(fd, data[done:])
        # a device such as /dev/null cannot be truncated, nor needs it
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > done:
            os.ftruncate(fd, done)
    finally:
        os.close(fd)


_INF = float("inf")


def _scalar_json(o) -> str | None:
    """The JSON text of a scalar, tested in the order ``json`` tests types;
    None for anything else."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    return None


def _int_pairs(o) -> tuple | None:
    """``o``'s pairs flattened into one tuple when ``o`` holds only lists of
    exactly two ints, else None.  ``type(x) is int`` leaves bools and other
    int subclasses to the general path.  The first item turns away most
    lists that are not pairs, and the rest is tested in C loops."""
    first = o[0]
    if type(first) is not list or len(first) != 2 \
            or set(map(type, o)) != {list} or set(map(len, o)) != {2}:
        return None
    flat = tuple(chain.from_iterable(o))
    return flat if set(map(type, flat)) == {int} else None


def _json_into(o, nl: str, out: list[str]) -> None:
    """Append the JSON text of ``o`` to ``out``; ``nl`` is a newline and the
    indentation of the line ``o`` starts on."""
    text = _scalar_json(o)
    if text is not None:
        out.append(text)
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        items = []
        for x in o:
            text = _scalar_json(x)
            if text is None:
                break
            items.append(text)
        else:
            # all scalars, as in colourings, lists and branch sets: one join
            out.append("[" + inner + ("," + inner).join(items) + nl + "]")
            return
        flat = _int_pairs(o)
        if flat is not None:
            # a graph's edges: one template per pair, filled by one format
            deeper = inner + "  "
            pair = "[" + deeper + "%d," + deeper + "%d" + inner + "]"
            out.append("[" + inner + ("," + inner).join([pair] * len(o)) % flat
                       + nl + "]")
            return
        sep = "[" + inner
        for x in o:
            out.append(sep)
            _json_into(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        # a key that is not a str fails the sort or the encoding with TypeError
        for key in sorted(o):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_into(o[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_report(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, without the pure-Python
    generator encoder that ``json`` falls back to whenever ``indent`` is set."""
    out: list[str] = []
    _json_into(doc, "\n", out)
    return "".join(out)


def _emit(args, payload: dict, text_lines: Callable[[], list[str]]) -> None:
    """Write the report; the human lines are built only when printed."""
    if args.format == "json":
        doc = {
            "format_version": FORMAT_VERSION,
            "command": args.command,
            "config": _config_echo(args),
            "result": payload,
        }
        body = _json_report(doc) + "\n"
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
        # ints, bools and float reprs, none of which a CSV writer would quote
        lines = ["# config: " + json.dumps(_config_echo(args), sort_keys=True)
                 + f" format_version={FORMAT_VERSION}",
                 "n,seed,p,max_degree,degree_pass"]
        lines += [f"{r.n},{r.seed},{r.p!r},{r.max_degree},{r.degree_pass}" for r in rows]
        _write(args, "\n".join(lines) + "\n")
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


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` returns a
    fresh namespace on every call."""
    return _parsers()[0]


class _Command:
    """A command's argparse parser, and what the one-pass parse reads of it:
    the actions ``add_argument`` returned, the actions of the command's one
    required mutually exclusive group (``exclusive``, empty when it has
    none) and the ``set_defaults`` values."""

    def __init__(self, parser: argparse.ArgumentParser):
        self.parser = parser
        self.actions: list[argparse.Action] = []
        self.exclusive: tuple[argparse.Action, ...] = ()
        self.defaults: dict = {}

    def add_argument(self, *names, **kwargs) -> argparse.Action:
        action = self.parser.add_argument(*names, **kwargs)
        self.actions.append(action)
        return action

    def set_defaults(self, **kwargs) -> None:
        self.parser.set_defaults(**kwargs)
        self.defaults.update(kwargs)

    @functools.cached_property
    def table(self) -> tuple[dict, list, dict, list, frozenset]:
        """Option string -> action, the positional actions in order, the
        namespace argparse starts from (each action's default, then the
        ``set_defaults`` values), the required option actions and the
        exclusive group's actions."""
        options, positionals, start = {}, [], {}
        for a in self.actions + list(self.exclusive):
            if a.option_strings:
                options.update(dict.fromkeys(a.option_strings, a))
            else:
                positionals.append(a)
            if a.default is not argparse.SUPPRESS:
                start.setdefault(a.dest, a.default)
        for dest, value in self.defaults.items():
            start.setdefault(dest, value)
        required = [a for a in self.actions if a.required and a.option_strings]
        return options, positionals, start, required, frozenset(self.exclusive)

    def parse(self, tokens) -> argparse.Namespace | None:
        """The namespace the command's parser returns for ``tokens``, read in
        one pass; None for any argv the pass does not take, which argparse
        then parses as usual."""
        options, positionals, start, required, exclusive = self.table
        values = dict(start)
        seen = set()
        npos = 0
        i, end = 0, len(tokens)
        while i < end:
            token = tokens[i]
            i += 1
            if token[:1] == "-":
                action = options.get(token)
                if action is None:
                    return None
                seen.add(action)
                if action.nargs == 0:
                    values[action.dest] = action.const
                    continue
                if i == end or tokens[i][:1] == "-":
                    return None
                token = tokens[i]
                i += 1
            elif npos < len(positionals):
                action = positionals[npos]
                npos += 1
            else:
                return None
            value = token
            if action.type is not None:
                try:
                    value = action.type(token)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
        if npos < len(positionals) or not seen.issuperset(required) \
                or exclusive and len(seen & exclusive) != 1:
            return None
        return argparse.Namespace(**values)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    """The top-level parser and each command by command name."""
    top = argparse.ArgumentParser(
        prog="kstlab",
        description="Exact minor testing, choosability checking, and random "
                    "gadget constructions for list-chromatic lower bounds.")
    sub = top.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, **kwargs):
        commands[name] = _Command(sub.add_parser(name, **kwargs))
        return commands[name]

    def common(p, formats=("human", "json"), fmt_default="human"):
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=formats, default=fmt_default)
        p.add_argument("--threads", type=_int, default=1,
                       help="ignored: every command runs single-threaded "
                            "(flag kept for command-line compatibility)")
        p.add_argument("--deterministic", action="store_true",
                       help="ignored: reports are always deterministic "
                            "(flag kept for command-line compatibility)")

    p = command("check-minor", help="exact K_{s,t} minor search")
    p.add_argument("graph", help="edge-list or JSON graph file")
    p.add_argument("--s", type=_int, required=True)
    p.add_argument("--t", type=_int, required=True)
    p.add_argument("--budget", type=_int, default=None,
                   help="node-expansion cap (default: unlimited)")
    common(p)
    p.set_defaults(func=_cmd_check_minor)

    p = command("check-lcolor", help="solve one list assignment")
    p.add_argument("graph")
    p.add_argument("lists", help="JSON {\"lists\": [[...], ...]} file or inline")
    common(p)
    p.set_defaults(func=_cmd_check_lcolor)

    p = command("check-choosable", help="exact k-choosability")
    p.add_argument("graph")
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--cap-n", type=_int, default=8,
                   help="vertex cap for the exhaustive search")
    p.add_argument("--cap-k", type=_int, default=3, help="list-size cap")
    common(p)
    p.set_defaults(func=_cmd_check_choosable)

    p = command("build-h", help="sample a two-clique gadget")
    p.add_argument("--n", type=_int, required=True, help="B-side size")
    p.add_argument("--m", type=_int, required=True, help="A-side size kept")
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--C", type=_fraction, required=True)
    p.add_argument("--delta", type=_fraction, default=None,
                   help="override the derived edge exponent (then f = 1)")
    p.add_argument("--seed", type=_int, required=True)
    p.add_argument("--max-retries", type=_int, default=32)
    p.add_argument("--mode", choices=["exhaustive"], default="exhaustive",
                   help="block-property check mode (exact; the only choice)")
    common(p)
    p.set_defaults(func=_cmd_build_h)

    p = command("build-counterexample", help="glue gadget copies and punch lists")
    source = p.parser.add_mutually_exclusive_group(required=True)
    p.exclusive = (source.add_argument("--graph", help="labeled gadget file"),
                   source.add_argument("--fixture", choices=["tiny", "clique"],
                                       help="use a built-in 4-vertex gadget"))
    p.add_argument("--max-vertices", type=_int, default=1_000_000)
    common(p)
    p.set_defaults(func=_cmd_build_counterexample)

    p = command("bounds", help="probability bound exponents")
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--C", type=_fraction, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--delta", type=_fraction, default=None)
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = command("experiment", help="seeded Monte Carlo degree sweep")
    p.add_argument("--n", type=_int_list, required=True,
                   help="comma-separated B-side sizes")
    p.add_argument("--trials", type=_int, required=True)
    p.add_argument("--seed", type=_int, required=True)
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--C", type=_fraction, default=Fraction(1))
    p.add_argument("--delta", type=_fraction, default=None)
    common(p, formats=("human", "json", "csv"), fmt_default="csv")
    p.set_defaults(func=_cmd_experiment)

    return top, commands


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the same namespace, output
    and exit.  A known command's well-formed tokens are read by the one-pass
    parse (``_Command.parse``): exact option strings each followed by a value
    that does not start with '-', flags, and positionals in order, every
    value passing its type and choices check, every required argument and
    exactly one option of an exclusive group given.  Every other argv (no
    command or an unknown one, an abbreviated option, --opt=value, -h, --, a
    value starting with '-', a failed check, a missing or extra argument)
    goes to the top-level parser, which prints every usage and help text."""
    top, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    cmd = commands.get(argv[0]) if argv else None
    args = cmd.parse(argv[1:]) if cmd is not None else None
    if args is None:
        return top.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
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
