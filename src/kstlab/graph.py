"""Immutable simple graphs over dense integer vertex ids, with bitset adjacency.

Vertices of an n-vertex graph are exactly 0..n-1.  Each adjacency row is a
Python int used as a bitset, which keeps neighbourhood intersection tests and
subset checks cheap for the exact searches built on top of this module.
Graphs are value objects: every operation returns a new Graph and never
mutates its inputs.  An optional per-vertex label partitions the vertices
into an "A" side and a "B" side; labels survive complement, induced
subgraphs, and gluing.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

LABEL_A = "A"
LABEL_B = "B"

FORMAT_VERSION = 1

# The largest vertex count a graph file may declare.  Both readers build one
# adjacency row per declared vertex before reading an edge, so a larger
# count is refused as a format error instead of being allocated.
MAX_VERTICES = 1 << 20


class GraphFormatError(ValueError):
    """Malformed graph text or JSON; message carries a line/position hint."""


class DuplicateEdgeWarning(UserWarning):
    """A parsed edge list or JSON graph repeated an edge; duplicates are merged."""


class CliqueGlueError(ValueError):
    """A glue was requested along a shared vertex set that is not a clique."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def closure(adj, seed: int, allowed: int) -> int:
    """Vertices reachable from ``seed`` through vertices of ``allowed``.

    Breadth-first search over bitset rows ``adj``; ``seed`` should lie inside
    ``allowed``.  ``closure(adj, low, m) == m`` for the lowest bit ``low`` of
    a non-empty ``m`` says that ``m`` induces a connected subgraph.
    """
    return closure_nbr(adj, seed, allowed)[0]


def closure_nbr(adj, seed: int, allowed: int) -> tuple[int, int]:
    """``closure(adj, seed, allowed)`` and the union of the neighbourhoods of
    its vertices, both from one breadth-first search."""
    reach = frontier = seed
    nbr = 0
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= adj[b.bit_length() - 1]
            frontier ^= b
        nbr |= nxt
        frontier = nxt & allowed & ~reach
        reach |= frontier
    return reach, nbr


def components(adj, mask: int) -> Iterator[int]:
    """The vertex masks of the connected components of the subgraph that
    ``mask`` induces, in ascending order of their lowest vertex."""
    while mask:
        comp = closure(adj, mask & -mask, mask)
        yield comp
        mask ^= comp


def _symmetric(adj) -> bool:
    """Whether loop-free bitset rows ``adj`` are symmetric.  Each pair above
    the diagonal is checked for its mirror below it.  Distinct pairs have
    distinct mirrors, so when the rows hold twice as many bits as there are
    pairs above the diagonal, the mirrors are every pair below it."""
    ends = above = 0
    for v, row in enumerate(adj):
        ends += row.bit_count()
        # Bit i of ``up`` is vertex v + 1 + i.
        up = row >> v + 1
        above += up.bit_count()
        while up:
            b = up & -up
            if not (adj[v + b.bit_length()] >> v) & 1:
                return False
            up ^= b
    return ends == 2 * above


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: no loops, no parallel edges, undirected."""

    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        n = self.n
        for v, row in enumerate(self.adj):
            if row >> n:
                raise ValueError(f"adjacency row {v} mentions out-of-range vertices")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        # Inline bit loop: every graph the CLI loads is validated here.  Only
        # an asymmetric graph takes it, and its first miss names the pair.
        adj = self.adj
        if not _symmetric(adj):
            for v in range(self.n):
                row = adj[v]
                while row:
                    b = row & -row
                    u = b.bit_length() - 1
                    if not (adj[u] >> v) & 1:
                        raise ValueError(f"asymmetric adjacency between {u} and {v}")
                    row ^= b
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError("labels length must equal vertex count")
            for v, lab in enumerate(self.labels):
                if lab not in (LABEL_A, LABEL_B):
                    raise ValueError(f"vertex {v} has label {lab!r}, expected 'A' or 'B'")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Iterable[str] | None = None,
    ) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} rejected")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        labs = tuple(labels) if labels is not None else None
        return cls(n, tuple(adj), labs)

    # --- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        # Inline bit loop: every graph a report prints is walked here.
        for u, row in enumerate(self.adj):
            row >>= u + 1
            while row:
                b = row & -row
                yield (u, u + b.bit_length())
                row ^= b

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def part(self, label: str) -> tuple[int, ...]:
        """Vertices carrying ``label``; empty when the graph is unlabeled."""
        if self.labels is None:
            return ()
        return tuple(v for v in range(self.n) if self.labels[v] == label)

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1


# --- constructors ------------------------------------------------------


def empty(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete(n: int, labels: Iterable[str] | None = None) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)),
                 tuple(labels) if labels is not None else None)


def complete_bipartite(s: int, t: int) -> Graph:
    """K_{s,t} with the s side labeled A (ids 0..s-1) and the t side B."""
    a_mask = (1 << s) - 1
    b_mask = ((1 << t) - 1) << s
    adj = [b_mask] * s + [a_mask] * t
    return Graph(s + t, tuple(adj), (LABEL_A,) * s + (LABEL_B,) * t)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def petersen() -> Graph:
    """The Petersen graph: outer 5-cycle, inner pentagram, matched spokes."""
    es = [(i, (i + 1) % 5) for i in range(5)]
    es += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    es += [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, es)


# --- pure operations ---------------------------------------------------


def complement(g: Graph) -> Graph:
    full = g.vertex_mask()
    return Graph(g.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)),
                 g.labels)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the kept-vertex list mapping new ids to old.

    ``kept[i]`` is the original id of new vertex ``i``; kept ids are sorted
    ascending so the correspondence is canonical.
    """
    kept = sorted(set(vertices))
    for v in kept:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    pos = {v: i for i, v in enumerate(kept)}
    adj = [0] * len(kept)
    for i, v in enumerate(kept):
        row = 0
        for u in bits(g.adj[v]):
            j = pos.get(u)
            if j is not None:
                row |= 1 << j
        adj[i] = row
    labs = tuple(g.labels[v] for v in kept) if g.labels is not None else None
    return Graph(len(kept), tuple(adj), labs), tuple(kept)


def permuted(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel vertices: new id perm[v] for old id v (perm is a bijection)."""
    p = tuple(perm)
    if sorted(p) != list(range(g.n)):
        raise ValueError("perm must be a permutation of range(n)")
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in bits(g.adj[v]):
            row |= 1 << p[u]
        adj[p[v]] = row
    labs = None
    if g.labels is not None:
        out = [""] * g.n
        for v in range(g.n):
            out[p[v]] = g.labels[v]
        labs = tuple(out)
    return Graph(g.n, tuple(adj), labs)


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    m = mask_of(vertices)
    adj = g.adj
    r = m
    # Inline bit loop: the pigeonhole check calls this once per glued copy.
    while r:
        b = r & -r
        if (adj[b.bit_length() - 1] | b) & m != m:
            return False
        r ^= b
    return True


def non_neighbor_count(g: Graph, v: int) -> int:
    """Number of vertices other than v not adjacent to v."""
    return g.n - 1 - g.degree(v)


@dataclass(frozen=True)
class GlueSpec:
    """Gluing instructions: identify clique vertices of g1 with ones of g2.

    ``shared`` lists pairs (v1, v2) meaning vertex v1 of g1 and vertex v2 of
    g2 become one vertex.  Both projections must be injective and both vertex
    sets must induce cliques in their own graphs.
    """

    g1: Graph
    g2: Graph
    shared: tuple[tuple[int, int], ...]

    def validate(self) -> None:
        left = [p[0] for p in self.shared]
        right = [p[1] for p in self.shared]
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise CliqueGlueError("shared correspondence must be injective on both sides")
        for v in left:
            if not (0 <= v < self.g1.n):
                raise CliqueGlueError(f"shared vertex {v} out of range in g1")
        for v in right:
            if not (0 <= v < self.g2.n):
                raise CliqueGlueError(f"shared vertex {v} out of range in g2")
        if not is_clique(self.g1, left):
            raise CliqueGlueError("shared vertices do not form a clique in g1")
        if not is_clique(self.g2, right):
            raise CliqueGlueError("shared vertices do not form a clique in g2")


def glue(spec: GlueSpec) -> Graph:
    """Clique-sum without edge deletion: union g1 and g2 along the shared clique.

    Result vertex order: all of g1 first (ids unchanged), then g2's
    non-shared vertices in ascending g2 order.  No edges beyond those of the
    two parts are added, so every new adjacency within the result traces back
    to exactly one side.
    """
    spec.validate()
    g1, g2 = spec.g1, spec.g2
    to_new = {}
    for v1, v2 in spec.shared:
        to_new[v2] = v1
    extra = [v for v in range(g2.n) if v not in to_new]
    for i, v in enumerate(extra):
        to_new[v] = g1.n + i
    n = g1.n + len(extra)
    adj = list(g1.adj) + [0] * len(extra)
    for u, v in g2.edges():
        nu, nv = to_new[u], to_new[v]
        adj[nu] |= 1 << nv
        adj[nv] |= 1 << nu
    labs = None
    if g1.labels is not None and g2.labels is not None:
        out = list(g1.labels) + [""] * len(extra)
        for v in extra:
            out[to_new[v]] = g2.labels[v]
        labs = tuple(out)
    return Graph(n, tuple(adj), labs)


# --- serialization -----------------------------------------------------
#
# Edge-list text format:
#   line 1:  n=<int> m=<int>
#   line 2:  A=<space separated vertex ids>     (optional; the rest are B)
#   then exactly m lines "u v" with 0 <= u,v < n, u != v.
# Lines end at LF, CRLF or a lone CR, and at nothing else (not at the other
# breaks str.splitlines knows, such as U+0085 or U+2028).  '#' starts a
# comment anywhere on a line.  A repeated edge is merged and reported
# through DuplicateEdgeWarning.  Every integer is an optional '-' followed by
# ASCII decimal digits.


def to_edge_list(g: Graph) -> str:
    lines = [f"n={g.n} m={g.edge_count()}"]
    if g.labels is not None:
        lines.append("A=" + " ".join(str(v) for v in g.part(LABEL_A)))
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def _ascii_int(text: str) -> int:
    """``int(text)`` for an optional '-' followed by ASCII digits; ValueError
    for the rest of what int() reads: '+', '_' between digits, non-ASCII
    digits."""
    if text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit()):
        return int(text)
    raise ValueError(f"not an ASCII decimal integer: {text!r}")


def from_edge_list(text: str) -> Graph:
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body))
    if not rows:
        raise GraphFormatError("line 1: missing 'n=<int> m=<int>' header")
    lineno, head = rows[0]
    parts = head.split()
    if len(parts) != 2 or not parts[0].startswith("n=") or not parts[1].startswith("m="):
        raise GraphFormatError(f"line {lineno}: expected 'n=<int> m=<int>', got {head!r}")
    try:
        n = _ascii_int(parts[0][2:])
        m = _ascii_int(parts[1][2:])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-integer in header {head!r}") from None
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {lineno}: negative count in header")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"line {lineno}: vertex count n={n} is too large")
    rows = rows[1:]
    labels = None
    if rows and rows[0][1].startswith("A="):
        lineno, body = rows[0]
        spec = body[2:].split()
        try:
            a_set = {_ascii_int(x) for x in spec}
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex in A= line") from None
        for v in a_set:
            if not (0 <= v < n):
                raise GraphFormatError(f"line {lineno}: A-vertex {v} out of range")
        labels = tuple(LABEL_A if v in a_set else LABEL_B for v in range(n))
        rows = rows[1:]
    if len(rows) != m:
        raise GraphFormatError(
            f"header declares m={m} edges but {len(rows)} edge lines follow")
    adj = [0] * n
    for lineno, body in rows:
        fields = body.split()
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {body!r}")
        try:
            u, v = _ascii_int(fields[0]), _ascii_int(fields[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint in {body!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: loop at vertex {u} rejected")
        if (adj[u] >> v) & 1:
            warnings.warn(f"line {lineno}: duplicate edge ({u},{v}) merged",
                          DuplicateEdgeWarning, stacklevel=2)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), labels)


def to_json_dict(g: Graph) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "vertex_count": g.n,
        "edges": [[u, v] for u, v in g.edges()],
        "labels": list(g.labels) if g.labels is not None else None,
    }


def from_json_dict(data: dict) -> Graph:
    try:
        n = data["vertex_count"]
        edges = data["edges"]
        labels = data.get("labels")
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"graph JSON missing field: {exc}") from None
    # Integers are tested with ``type(x) is int``: JSON true and false load as
    # bools, an int subclass, and are not vertex ids or counts.
    if type(n) is not int:
        raise GraphFormatError("vertex_count must be an integer")
    if n < 0:
        raise GraphFormatError("vertex_count must be non-negative")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex_count {n} is too large")
    if not isinstance(edges, list):
        raise GraphFormatError("edges must be a list of vertex pairs")
    adj = [0] * n
    for i, e in enumerate(edges):
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise GraphFormatError(f"edge entry {i} is not a pair")
        u, v = e
        if type(u) is not int or type(v) is not int:
            raise GraphFormatError(f"edge entry {i} is not a pair of integers")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge entry {i}: edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphFormatError(f"edge entry {i}: loop at vertex {u} rejected")
        if (adj[u] >> v) & 1:
            warnings.warn(f"edge entry {i}: duplicate edge ({u},{v}) merged",
                          DuplicateEdgeWarning, stacklevel=2)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if labels is not None and not isinstance(labels, list):
        raise GraphFormatError("labels must be a list")
    try:
        return Graph(n, tuple(adj), None if labels is None else tuple(labels))
    except ValueError as exc:
        # the rows are valid by construction, so the labels were refused;
        # the message names the vertex, which is the labels entry
        raise GraphFormatError(str(exc)) from None


def serialize(g: Graph, fmt: str = "edge-list") -> str:
    if fmt == "edge-list":
        return to_edge_list(g)
    if fmt == "json":
        return json.dumps(to_json_dict(g), sort_keys=True) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}")


def parse(text: str) -> Graph:
    """Parse a graph: JSON when its first non-blank character is '{', else
    an edge list."""
    if text.lstrip()[:1] != "{":
        return from_edge_list(text)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON at position {exc.pos}: {exc.msg}") from None
    return from_json_dict(data)
