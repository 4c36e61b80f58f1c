"""The benchmark's three workloads: seeded inputs and the operations run on them.

An operation ("op") is one call that gives one answer.  Each op carries a
``run`` callable, which is the only thing timed, and a ``check`` callable,
run untimed right after it, which compares the answer with an independent
reference (see ``reference.py``) and returns deterministic work counters.
``check`` raises ``WrongAnswer`` on a mismatch and returns a failure reason,
"<layer>: <cap, budget or exit code>", for an op that gave no answer.

Ops reach the library through module attributes looked up at call time
(``minors.find_kst_minor``, ``cli.main``, ...), so a traced run can rebind
those names.  The op list of a workload is one "pass"; a run repeats whole
passes over the same inputs.

Reference answers that depend on the inputs only and need the oracle's large
assignment tables are listed in ``Workload.references``.  They are computed
in a process of their own and handed to the measuring process through
``Workload.answers``, so that its peak memory is kstlab's alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as R
from reference import WrongAnswer

from kstlab import cli, construction, graph, listcolor, minors

Check = Callable[[Any], "tuple[str | None, dict]"]


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Check


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warm: Callable[[], None] = lambda: None
    references: dict[str, Callable[[], Any]] = field(default_factory=dict)
    answers: dict[str, Any] = field(default_factory=dict)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _random_graph(rng, n: int, p: float) -> graph.Graph:
    upper = np.triu(rng.random((n, n)) < p, 1)
    adj = [0] * n
    for u, v in np.argwhere(upper):
        adj[u] |= 1 << int(v)
        adj[v] |= 1 << int(u)
    return graph.Graph(n, tuple(adj))


def _graph(n: int, edges, labels=None) -> graph.Graph:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return graph.Graph(n, tuple(adj), tuple(labels) if labels else None)


class _Cached:
    """Reference answers, computed once per input and reused on every pass."""

    def __init__(self):
        self._memo: dict = {}

    def get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def _oracle(g, s: int, t: int) -> bool:
    return minors.oracle_has_minor(g, graph.complete_bipartite(s, t))


# --- small_exact ---------------------------------------------------------------

SMALL_INPUTS = 4000  # per pass: one minor query (two ops) and one 2-choosability op each
SIX_CYCLES = 3       # per pass; see _choosability_graph


def _choosability_graph(rng, n: int) -> graph.Graph:
    """A random graph on n vertices that is not a relabelled 6-cycle.

    is_k_choosable(., 2) spends about 0.2 s on a 6-cycle against 1 ms on
    other 6-vertex graphs, and one random 6-vertex graph in about 800 is a
    6-cycle.  Drawing them at random would swing a pass's time by a few
    per cent from seed to seed, so each pass instead gets exactly SIX_CYCLES
    of them.
    """
    while True:
        h = _random_graph(rng, n, float(rng.uniform(0.25, 0.75)))
        if not (n == 6 and all(row.bit_count() == 2 for row in h.adj)
                and len(R.components(h.adj, (1 << n) - 1)) == 1):
            return h


def small_exact(seed: int, workdir: Path) -> Workload:
    """Why: thousands of shallow exact searches, where per-call and per-node
    cost dominate.  Library calls, no files.

    Minor hosts have 5-7 vertices; 2-choosability graphs have 5-6.  One
    random 7-vertex graph in about 2000 keeps is_k_choosable(., 2) busy for
    about 5 s, which would swing a run's throughput by half from seed to
    seed."""
    rng = _rng(seed, 1)
    refs = _Cached()
    ops: list[Op] = []
    cycles = set(range(0, SMALL_INPUTS, SMALL_INPUTS // SIX_CYCLES)[:SIX_CYCLES])
    for i in range(SMALL_INPUTS):
        n = 5 + i % 3
        g = _random_graph(rng, n, float(rng.uniform(0.3, 0.7)))
        s = int(rng.integers(1, n // 2 + 1))
        t = int(rng.integers(s, n - s + 1))
        q = minors.MinorQuery(s, t)
        pattern = graph.complete_bipartite(s, t)
        if i in cycles:
            perm = [int(v) for v in rng.permutation(6)]
            h = _graph(6, [(perm[v], perm[(v + 1) % 6]) for v in range(6)])
        else:
            h = _choosability_graph(rng, 5 + i % 2)
        ops.append(Op(f"minor/{i}",
                      lambda g=g, q=q: minors.find_kst_minor(g, q),
                      _check_search(refs, ("oracle", i), g, q,
                                    lambda g=g, s=s, t=t: _oracle(g, s, t))))
        ops.append(Op(f"oracle/{i}",
                      lambda g=g, f=pattern: minors.oracle_has_minor(g, f),
                      _check_oracle(refs, i, g, q)))
        ops.append(Op(f"choosable/{i}",
                      lambda h=h: listcolor.is_k_choosable(h, 2),
                      _check_two_choosable(refs, i, h)))

    def warm():
        # Fill the oracle's cached assignment tables for every host size and
        # pattern order the ops use.
        for n in range(5, 8):
            for k in range(2, n + 1):
                minors.oracle_has_minor(graph.path(n), graph.complete_bipartite(1, k - 1))

    return Workload("small_exact", ops, warm)


def _check_search(refs, key, g, q, expected) -> Check:
    def check(res):
        counts = {"nodes": res.nodes_expanded}
        if res.status is minors.SearchStatus.BUDGET_EXHAUSTED:
            return "minors: budget_exhausted", counts
        found = res.status is minors.SearchStatus.FOUND
        if found and not minors.verify_model(g, res.model, q):
            raise WrongAnswer(f"invalid K_{{{q.s},{q.t}}} model")
        if found != refs.get(key, expected):
            raise WrongAnswer(f"K_{{{q.s},{q.t}}}: search says {found}, oracle disagrees")
        return None, counts | {"found": int(found)}
    return check


def _check_oracle(refs, i, g, q) -> Check:
    def searched():
        res = minors.find_kst_minor(g, q)
        found = res.status is minors.SearchStatus.FOUND
        if found and not minors.verify_model(g, res.model, q):
            raise WrongAnswer(f"invalid K_{{{q.s},{q.t}}} model")
        return found

    def check(answer):
        if answer != refs.get(("search", i), searched):
            raise WrongAnswer(f"K_{{{q.s},{q.t}}}: oracle says {answer}, search disagrees")
        return None, {"found": int(answer)}
    return check


def _check_two_choosable(refs, i, h) -> Check:
    def check(verdict):
        expected = refs.get(("ert", i), lambda: R.two_choosable(h))
        if verdict.choosable != expected:
            raise WrongAnswer(f"2-choosable={verdict.choosable}, Erdos-Rubin-Taylor says {expected}")
        if not verdict.choosable:
            w = verdict.witness
            if any(len(lst) != 2 for lst in w.lists):
                raise WrongAnswer("witness lists are not 2-lists")
            if listcolor.find_l_coloring(h, w) is not None:
                raise WrongAnswer("witness assignment is colourable")
        return None, {"choosable": int(verdict.choosable)}
    return check


# --- large_hosts ---------------------------------------------------------------

NODE_BUDGET = 300_000   # every check-minor call
PATH_VERTICES = 1200    # above Python's default recursion limit of 1000
GLUED_PER_CLASS = 100
GADGETS = 10
GADGET_PARAMS = (Fraction(5, 6), Fraction(4, 3), Fraction(2, 3))  # eps, C, delta


@dataclass
class Host:
    name: str
    graph: graph.Graph
    pieces: list | None = None   # clique-sum summands, when known
    separator: int = 0           # order of the cliques glued along


def _tiny_assembly(copies: int) -> Host:
    """Copies of the 4-vertex tiny gadget glued along its B edge {0, 1}."""
    edges = [(0, 1)]
    for c in range(copies):
        a0, a1 = 2 + 2 * c, 3 + 2 * c
        edges += [(a0, a1), (a0, 1), (a1, 0), (a1, 1)]
    piece = _graph(4, [(0, 1), (2, 3), (2, 1), (3, 0), (3, 1)])
    labels = ["B", "B"] + ["A"] * (2 * copies)
    return Host(f"tiny{copies}", _graph(2 + 2 * copies, edges, labels), [piece] * copies, 2)


def _cactus(rng, n):
    """Blocks are edges or triangles: no cycle of length 4, so no K_{2,2} minor."""
    edges, v = [], 1
    while v < n:
        a = int(rng.integers(0, v))
        if v + 1 < n and rng.random() < 0.6:
            edges += [(a, v), (a, v + 1), (v, v + 1)]
            v += 2
        else:
            edges.append((a, v))
            v += 1
    return edges


def _outerplanar(rng, n):
    """A triangulated polygon with some chords dropped: outerplanar, so no
    K_{2,3} minor."""
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}

    def split(poly):
        if len(poly) <= 3:
            return
        i = int(rng.integers(0, len(poly)))
        j = (i + int(rng.integers(2, len(poly) - 1))) % len(poly)
        a, b = sorted((i, j))
        edges.add((poly[a], poly[b]))
        split(poly[a:b + 1])
        split(poly[b:] + poly[:a + 1])

    split(list(range(n)))
    return [e for e in sorted(edges) if rng.random() < 0.85]


def _planar(rng, n):
    """A stacked triangulation with some edges dropped: planar, so no K_{3,3}
    minor."""
    edges, faces = {(0, 1), (0, 2), (1, 2)}, [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(int(rng.integers(0, len(faces))))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return [e for e in sorted(edges) if rng.random() < 0.8]


def _glued(rng, name, make, sizes, sep) -> Host:
    """Two random pieces of a minor-closed class, of the given sizes, glued
    along a clique of order ``sep`` (one vertex when no such clique is
    found)."""
    pieces = []
    for n in sizes:
        perm = rng.permutation(n)
        pieces.append(_graph(n, [(int(perm[u]), int(perm[v])) for u, v in make(rng, n)]))
    g1, g2 = pieces
    c1, c2 = _clique(rng, g1, sep), _clique(rng, g2, sep)
    if c1 is None or c2 is None:
        sep, c1, c2 = 1, [0], [0]
    to_new = dict(zip(c2, c1))
    for v in range(g2.n):
        if v not in to_new:
            to_new[v] = g1.n + len(to_new) - len(c2)
    edges = [(u, v) for u in range(g1.n) for v in range(u + 1, g1.n) if g1.adj[u] >> v & 1]
    edges += [(to_new[u], to_new[v]) for u in range(g2.n) for v in range(u + 1, g2.n)
              if g2.adj[u] >> v & 1]
    n = g1.n + g2.n - sep
    return Host(name, _graph(n, sorted({tuple(sorted(e)) for e in edges})), pieces, sep)


def _clique(rng, g, size):
    for _ in range(200):
        vs = sorted(int(x) for x in rng.permutation(g.n)[:size])
        if all(g.adj[u] >> v & 1 for u, v in combinations(vs, 2)):
            return vs
    return None


def _gadget_host(rng, name, m: int, n: int) -> Host:
    """A gadget-shaped host: the complement of a sparse random bipartite
    graph on m + n vertices, so both sides are cliques."""
    eps, c_const, delta = GADGET_PARAMS
    hits = R.sample_hits(int(rng.integers(0, 2**31)), int(c_const * n), n, delta)
    labels = ["A"] * m + ["B"] * n
    return Host(name, _graph(m + n, sorted(R.gadget_from_hits(hits, m)), labels))


def large_hosts(seed: int, workdir: Path) -> Workload:
    """Why: a few deep searches, where search-tree size dominates, on
    tiny-gadget assemblies of up to 16 vertices, Petersen and sampled 6 x 5
    gadgets (all beyond oracle range), plus a path longer than the recursion
    limit.  Three hundred small glued hosts (7-9 vertices) fill out the
    latency distribution so that its percentiles hold still from seed to
    seed.  Every op goes through the CLI (``main(... --format json --out
    ...)``) and a graph file, alternating edge-list and JSON."""
    rng = _rng(seed, 2)
    refs = _Cached()
    references: dict[str, Callable[[], Any]] = {}
    answers: dict[str, Any] = {}
    hosts_dir, out_dir = workdir / "hosts", workdir / "reports"
    hosts_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    queries: list[tuple[Host, int, int]] = []
    for c in range(2, 8):
        tiny = _tiny_assembly(c)
        queries.append((tiny, 2, 2))
        if c <= 5:
            queries.append((tiny, 2, 3))
        if c <= 4:
            queries.append((tiny, 3, 3))
    pet = Host("petersen", graph.petersen())
    queries += [(pet, s, t) for s, t in ((1, 6), (1, 7), (1, 8), (2, 3), (2, 4), (3, 3), (3, 4))]
    for cls, make, (s, t), sep in (("cactus", _cactus, (2, 2), 1),
                                   ("outerplanar", _outerplanar, (2, 3), 1),
                                   ("planar", _planar, (3, 3), 2)):
        # Piece sizes and glue order follow a fixed schedule, so every seed
        # gets the same mix of host sizes.
        for i in range(GLUED_PER_CLASS):
            sizes = (4 + i % 2, 4 + i // 2 % 2)
            queries.append((_glued(rng, f"{cls}{i}", make, sizes, 1 + i // 4 % sep), s, t))
    for i in range(GADGETS):
        gad = _gadget_host(rng, f"gadget{i}", 6, 5)
        queries += [(gad, s, 11 - s) for s in range(2, 6)]

    files: dict[str, str] = {}
    ops: list[Op] = []
    for idx, (host, s, t) in enumerate(queries):
        if host.name not in files:
            fmt = "json" if len(files) % 2 else "edge-list"
            path = hosts_dir / (host.name + (".json" if fmt == "json" else ".txt"))
            path.write_text(graph.serialize(host.graph, fmt))
            files[host.name] = str(path)
        out = str(out_dir / f"minor{idx}.json")
        argv = ["check-minor", files[host.name], "--s", str(s), "--t", str(t),
                "--budget", str(NODE_BUDGET), "--format", "json", "--out", out]
        ops.append(Op(f"check-minor/{host.name}/K{s},{t}",
                      lambda argv=argv: cli.main(argv),
                      _check_cli_minor(references, answers, host, s, t, out)))

    # One path above the recursion limit, for the minor search and for the
    # list colouring solver; both answers are trivially "yes".
    path_g = graph.path(PATH_VERTICES)
    path_txt, path_json = hosts_dir / "path.txt", hosts_dir / "path.json"
    path_txt.write_text(graph.serialize(path_g, "edge-list"))
    path_json.write_text(graph.serialize(path_g, "json"))
    lists = listcolor.ListAssignment.of_lists(
        [sorted(int(c) for c in rng.choice(4, 2, replace=False)) for _ in range(PATH_VERTICES)])
    lists_file = hosts_dir / "path-lists.json"
    lists_file.write_text(lists.to_json())
    path_host = Host("path", path_g)
    out = str(out_dir / "path-minor.json")
    argv = ["check-minor", str(path_txt), "--s", "1", "--t", "2",
            "--budget", str(NODE_BUDGET), "--format", "json", "--out", out]
    path_minor = Op("check-minor/path/K1,2", lambda argv=argv: cli.main(argv),
                    _check_cli_minor(references, answers, path_host, 1, 2, out))
    out = str(out_dir / "path-lcolor.json")
    argv = ["check-lcolor", str(path_json), str(lists_file), "--format", "json", "--out", out]
    path_lcolor = Op("check-lcolor/path", lambda argv=argv: cli.main(argv),
                     _check_cli_lcolor(refs, path_g, lists, out))
    # Spread the two deep-path ops through the pass.
    ops.insert(len(ops) // 3, path_minor)
    ops.insert(2 * len(ops) // 3, path_lcolor)
    return Workload("large_hosts", ops, references=references, answers=answers)


def _report(out: str) -> dict:
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)["result"]


def _check_cli_minor(references, answers, host: Host, s: int, t: int, out: str) -> Check:
    q = minors.MinorQuery(s, t)
    key = f"{host.name}/K{s},{t}"
    references[key] = lambda: R.kst_reference(host.graph, s, t, _oracle, host.pieces,
                                              host.separator)

    def check(code):
        if code not in (0, 1, 2):
            return f"cli: exit {code}", {}
        result = _report(out)
        counts = {"nodes": result["nodes_expanded"]}
        if code == 2:
            return "minors: budget_exhausted", counts
        found = code == 0
        if found != (result["status"] == "found"):
            raise WrongAnswer(f"exit code {code} contradicts status {result['status']}")
        if found:
            model = minors.BranchModel.from_json_dict(result["model"], host.graph)
            if not minors.verify_model(host.graph, model, q):
                raise WrongAnswer(f"{host.name}: invalid K_{{{s},{t}}} model")
        expected = answers[key]
        if expected is None and not found:
            raise WrongAnswer(f"{host.name}: NOT_FOUND for K_{{{s},{t}}} has no reference")
        if expected is not None and expected != found:
            raise WrongAnswer(f"{host.name}: K_{{{s},{t}}} found={found}, reference {expected}")
        return None, counts | {"found": int(found)}
    return check


def _check_cli_lcolor(refs, g, lists, out: str) -> Check:
    """The ops' lists have two colours each and their graph is 2-choosable
    (checked), so the answer must be a colouring, and it must be proper."""
    def check(code):
        if code not in (0, 1):
            return f"cli: exit {code}", {}
        if not refs.get(("2-choosable", g.n), lambda: R.two_choosable(g)) \
                or any(len(lst) < 2 for lst in lists.lists):
            raise WrongAnswer("check-lcolor op has no independent reference")
        if code == 1:
            raise WrongAnswer("check-lcolor found no colouring from 2-lists on a 2-choosable graph")
        coloring = _report(out)["coloring"]
        if not (listcolor.verify_coloring(g, lists, coloring)
                and R.proper_in_lists(g, lists.lists, coloring)):
            raise WrongAnswer("returned colouring is not a proper list colouring")
        return None, {"colorable": 1}
    return check


# --- pipeline ------------------------------------------------------------------

BUILD_LADDER = ((6, 5, 2), (8, 6, 4), (9, 7, 2), (10, 8, 12))  # (m, n, seeds)
COPIES_PER_GADGET = 12   # proper B-colourings assembled per sampled 8 x 6 gadget
EPS, C_CONST, DELTA = Fraction(5, 6), Fraction(4, 3), Fraction(2, 3)


def pipeline(seed: int, workdir: Path) -> Workload:
    """Why: the paper's steps 1-5 at desk scale -- exhaustive gadget builds,
    the degree sweep, glued assemblies and their list-colouring checks --
    with no minor search.

    Exhaustive builds stop at 10 x 8: from 11 x 9 on one build takes 1-7 s
    and a seed's retry count would swing a pass by seconds."""
    rng = _rng(seed, 3)
    refs = _Cached()
    out_dir = workdir / "reports"
    out_dir.mkdir(parents=True, exist_ok=True)
    state: dict = {}   # answers of earlier ops that later ops take as input
    ops: list[Op] = []
    gadget_keys = []
    for m, n, count in BUILD_LADDER:
        for j in range(count):
            build_seed = int(rng.integers(0, 2**31))
            out = str(out_dir / f"build-{m}x{n}-{j}.json")
            argv = ["build-h", "--n", str(n), "--m", str(m), "--eps", str(EPS),
                    "--C", str(C_CONST), "--delta", str(DELTA), "--seed", str(build_seed),
                    "--mode", "exhaustive", "--format", "json", "--out", out]
            key = f"gadget/{m}x{n}/{j}" if (m, n) == (8, 6) else None
            if key:
                gadget_keys.append(key)
            ops.append(Op(f"build-h/{m}x{n}/{j}", lambda argv=argv: cli.main(argv),
                          _check_build_h(m, n, out, state, key)))

    out = str(out_dir / "experiment.csv")
    argv = ["experiment", "--n", "32,64,128", "--trials", "200", "--seed", str(seed),
            "--delta", "1/2", "--threads", "1", "--out", out]
    ops.append(Op("experiment", lambda argv=argv: cli.main(argv), _check_experiment(out)))

    for fixture in ("tiny", "clique"):
        out = str(out_dir / f"counterexample-{fixture}.json")
        argv = ["build-counterexample", "--fixture", fixture, "--format", "json", "--out", out]
        ops.append(Op(f"build-counterexample/{fixture}",
                      lambda argv=argv: cli.main(argv), _check_counterexample(refs, fixture, out)))

    clique = construction.clique_gadget(3, 3)
    ops.append(Op("assemble/clique3x3/all",
                  lambda: construction.build_counterexample(clique, 5, "all"),
                  _check_all_assembly(state)))
    ops.append(Op("solve/clique3x3/all",
                  lambda: listcolor.find_l_coloring(state["all"].graph, state["all"].lists),
                  _check_glued_solve(refs, state)))

    palette = 8 + 6 - 1
    for key in gadget_keys:
        colorings = []
        while len(colorings) < COPIES_PER_GADGET:
            c = tuple(int(x) for x in rng.choice(palette, 6, replace=False))
            if c not in colorings:
                colorings.append(c)
        ops.append(Op(f"assemble/{key}",
                      lambda key=key, cs=colorings:
                      construction.build_counterexample(state[key], palette, cs),
                      _check_assembly(state, key, colorings)))
        for i, c in enumerate(colorings):
            ops.append(Op(f"pigeonhole/{key}/{i}",
                          lambda key=key, c=c:
                          construction.verify_no_l_coloring_pigeonhole(state["asm/" + key], c),
                          _check_pigeonhole(state, key, i, c)))
    return Workload("pipeline", ops)


def _check_build_h(m, n, out, state, key) -> Check:
    def check(code):
        if code not in (0, 1):
            return f"cli: exit {code}", {}
        result = _report(out)
        attempts = result["attempts"]
        counts = {"attempts": len(attempts), "built": int(result["built"])}
        if code == 1:
            return "construction: gave up", counts
        ma, k = math.floor(C_CONST * n), math.ceil(EPS * n)
        for i, a in enumerate(attempts):
            hits = R.sample_hits(a["seed"], ma, n, DELTA)
            deg = R.max_degree(hits)
            holds = R.singleton_blocks_hold(hits, k)
            if a["degree"]["max_degree"] != deg or a["degree"]["passed"] != (deg <= EPS * n):
                raise WrongAnswer(f"attempt {i}: degree check disagrees with the sample")
            if a["blocks"]["status"] != ("verified" if holds else "falsified"):
                raise WrongAnswer(f"attempt {i}: block check disagrees with the sample")
            accepted = deg <= EPS * n and holds
            if accepted != (i == len(attempts) - 1):
                raise WrongAnswer(f"attempt {i}: accepted={accepted} at the wrong attempt")
        g = result["graph"]
        want = R.gadget_from_hits(R.sample_hits(attempts[-1]["seed"], ma, n, DELTA), m)
        if {tuple(e) for e in g["edges"]} != want or g["labels"] != ["A"] * m + ["B"] * n:
            raise WrongAnswer("gadget is not the complement of the accepted sample")
        if key:
            state[key] = _graph(m + n, sorted(want), g["labels"])
        return None, counts
    return check


def _check_experiment(out) -> Check:
    def check(code):
        if code != 0:
            return f"cli: exit {code}", {}
        with open(out, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        rows = [ln.split(",") for ln in lines[1:]]
        if len(rows) != 3 * 200:
            raise WrongAnswer(f"experiment wrote {len(rows)} rows, expected 600")
        passed = 0
        for n, seed, p, max_deg, deg_pass, *_ in rows:
            n = int(n)
            deg = R.max_degree(R.sample_hits(int(seed), n, n, Fraction(1, 2)))
            if float(p) != float(n) ** -0.5 or int(max_deg) != deg \
                    or (deg_pass == "True") != (deg <= Fraction(n, 2)):
                raise WrongAnswer(f"experiment row n={n} seed={seed} disagrees with the sample")
            passed += deg_pass == "True"
        return None, {"rows": len(rows), "degree_pass": passed}
    return check


def _check_counterexample(refs, fixture, out) -> Check:
    def check(code):
        if code not in (0, 1):
            return f"cli: exit {code}", {}
        result = _report(out)
        g = graph.from_json_dict(result["graph"])
        lists = [frozenset(lst) for lst in result["lists"]["lists"]]
        if refs.get(("glued", fixture), lambda: R.glued_colorable(g, lists)):
            raise WrongAnswer(f"{fixture} assembly is colourable by brute force")
        ver = result["verification"]
        if code != 0 or ver["list_coloring_found"] is not None \
                or not ver["pigeonhole"]["all_blocked"]:
            raise WrongAnswer(f"{fixture} assembly: verification {ver}")
        return None, {"vertices": result["vertices"], "copies": result["copies"]}
    return check


def _check_all_assembly(state) -> Check:
    def check(asm):
        state["all"] = asm
        if asm.graph.n != 3 + 5 ** 3 * 3 or len(asm.colorings) != 5 ** 3:
            raise WrongAnswer(f"'all' assembly has {asm.graph.n} vertices")
        return None, {"vertices": asm.graph.n, "copies": len(asm.colorings)}
    return check


def _check_glued_solve(refs, state) -> Check:
    def check(coloring):
        asm = state["all"]
        if coloring is not None:
            raise WrongAnswer("solver coloured the 'all' assembly")
        if refs.get("all", lambda: R.glued_colorable(asm.graph, asm.lists.lists)):
            raise WrongAnswer("'all' assembly is colourable by brute force")
        return None, {"colorable": 0}
    return check


def _check_assembly(state, key, colorings) -> Check:
    def check(asm):
        state["asm/" + key] = asm
        h = state[key]
        if asm.graph.n != 6 + len(colorings) * 8 or list(asm.colorings) != colorings:
            raise WrongAnswer(f"{key}: assembly has {asm.graph.n} vertices")
        for i in range(len(colorings)):
            corr = asm.copy_correspondence(i)
            for u, v in combinations(range(h.n), 2):
                if h.adj[u] >> v & 1 != asm.graph.adj[corr[u]] >> corr[v] & 1:
                    raise WrongAnswer(f"{key}: copy {i} is not a copy of the gadget")
        return None, {"vertices": asm.graph.n, "copies": len(colorings)}
    return check


def _check_pigeonhole(state, key, i, colouring) -> Check:
    def check(blocked):
        asm = state["asm/" + key]
        g, lists = asm.graph, asm.lists.lists
        start, stop = asm.a_ranges[i]
        live = {v: lists[v] - {colouring[b] for b in range(6) if g.adj[v] >> b & 1}
                for v in range(start, stop)}
        if R.clique_colorable(g.adj, range(start, stop), live):
            raise WrongAnswer(f"{key}: copy {i} is colourable by matching")
        if blocked is not True:
            raise WrongAnswer(f"{key}: pigeonhole check did not block copy {i}")
        return None, {"blocked": 1}
    return check


# --- registry -------------------------------------------------------------------

BY_NAME = {"small_exact": small_exact, "large_hosts": large_hosts, "pipeline": pipeline}
