"""List coloring and exact k-choosability checking.

``find_l_coloring`` decides L-colorability for one list assignment by
complete backtracking.  ``is_k_choosable`` decides whether every assignment
of k-element lists admits a proper coloring.

Completeness of the choosability check rests on three facts, used as exact
reductions rather than heuristics:

1. Universe bound.  An assignment over any color universe is isomorphic to
   one over at most k * |V| colors (each vertex contributes at most k), so
   enumerating canonical assignments over that bound covers every adversary.
   Canonical means colors are numbered in order of first use, which picks at
   least one representative from every color-relabeling orbit.
2. Low-degree kernel.  If deg(v) < k then G is k-choosable iff G - v is:
   restriction preserves bad assignments one way, and a coloring of G - v
   always extends to v (its list has k colors, neighbors block at most
   deg(v) < k of them).  Kernelizing repeatedly is therefore exact.
3. Private colors.  If some color occurs in exactly one list, say at v, any
   bad assignment restricted to G - v stays bad: a coloring of G - v could
   otherwise be extended to v by the private color, which no neighbor can
   occupy.  Hence G is non-choosable iff some G - v is, or some assignment
   in which every color supports at least two vertices is bad.  The search
   recurses over vertex-deleted subgraphs (memoized) and only enumerates
   assignments with all color supports >= 2.

A NotChoosable verdict always carries a witness assignment on the original
graph with lists of size exactly k, rebuilt from the failing core by padding
deleted vertices with fresh private colors, and is re-checked by the solver
before being returned (a witness that fails raises RuntimeError).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, bits, induced_subgraph


@dataclass(frozen=True)
class ListAssignment:
    """One color list per vertex; colors are arbitrary ints."""

    lists: tuple[frozenset[int], ...]

    @classmethod
    def of_lists(cls, lists) -> "ListAssignment":
        return cls(tuple(frozenset(l) for l in lists))

    def __len__(self) -> int:
        return len(self.lists)

    def to_json_dict(self) -> dict:
        return {"lists": [sorted(l) for l in self.lists]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ListAssignment":
        return cls.of_lists(data["lists"])

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def uniform_lists(n: int, colors) -> ListAssignment:
    c = frozenset(colors)
    return ListAssignment((c,) * n)


@dataclass(frozen=True)
class ChoosabilityVerdict:
    k: int
    choosable: bool
    witness: ListAssignment | None
    universe_size: int


class ChoosabilityCapError(ValueError):
    """Instance exceeds the configured exhaustive-search cap."""


def verify_coloring(g: Graph, lists: ListAssignment, coloring) -> bool:
    """True iff ``coloring`` is proper and pointwise inside ``lists``."""
    if len(lists) != g.n or len(coloring) != g.n:
        return False
    for v in range(g.n):
        if coloring[v] not in lists.lists[v]:
            return False
    for u in range(g.n):
        for v in bits(g.adj[u] >> (u + 1)):
            if coloring[u] == coloring[u + 1 + v]:
                return False
    return True


def find_l_coloring(g: Graph, lists: ListAssignment) -> tuple[int, ...] | None:
    """Complete backtracking L-coloring search.

    Picks the uncolored vertex with the fewest live colors (lowest id on
    ties), forward-checks neighbors, and tries colors in ascending order, so
    the result is deterministic.  The backtracking keeps an explicit stack,
    so depth is not bounded by the interpreter's recursion limit.  Returns a
    proper in-list coloring, re-checked by ``verify_coloring`` (a failed
    check raises RuntimeError), or None, and None is an exhaustiveness
    certificate.
    """
    if len(lists) != g.n:
        raise ValueError("assignment length differs from vertex count")
    n = g.n
    if n == 0:
        return ()
    if any(not l for l in lists.lists):
        return None
    universe = sorted(set().union(*lists.lists))
    idx = {c: i for i, c in enumerate(universe)}
    live = [0] * n
    for v in range(n):
        for c in lists.lists[v]:
            live[v] |= 1 << idx[c]
    adj = g.adj
    color = [-1] * n
    # Frames: [vertex, uncolored after it, colours left to try, bit of the
    # colour it holds now, neighbours that colour was struck from].  The bit
    # loops are inline: ``bits`` generators made the solver about a third
    # slower on small, deep trees such as the pigeonhole copies.
    stack: list[list] = []
    uncolored = (1 << n) - 1
    while uncolored:
        best_v, best_sz = -1, 1 << 60
        m = uncolored
        while m:
            b = m & -m
            v = b.bit_length() - 1
            sz = live[v].bit_count()
            if sz < best_sz:
                best_v, best_sz = v, sz
                if sz <= 1:
                    break
            m ^= b
        if best_sz:
            stack.append([best_v, uncolored ^ (1 << best_v), live[best_v], 0, ()])
        # Undo the colour last tried and forward-check the next one,
        # dropping frames whose colours are all tried.
        while stack:
            frame = stack[-1]
            cbit = frame[3]
            for u in frame[4]:
                live[u] |= cbit
            options = frame[2]
            if options:
                v = frame[0]
                uncolored = frame[1]
                cbit = options & -options
                frame[2] = options ^ cbit
                frame[3] = cbit
                frame[4] = touched = []
                m = adj[v] & uncolored
                while m:
                    b = m & -m
                    u = b.bit_length() - 1
                    if live[u] & cbit:
                        live[u] ^= cbit
                        touched.append(u)
                    m ^= b
                color[v] = cbit.bit_length() - 1
                break
            color[frame[0]] = -1
            stack.pop()
        else:
            return None
    out = tuple(universe[color[v]] for v in range(n))
    if not verify_coloring(g, lists, out):
        raise RuntimeError("solver produced an improper or off-list colouring")
    return out


def greedy_degeneracy_bound(g: Graph) -> int:
    """Degeneracy d of g by repeated minimum-degree removal.

    Every graph is (d + 1)-choosable: color greedily in reverse removal
    order, each vertex sees at most d colored neighbors.
    """
    n = g.n
    alive = (1 << n) - 1
    best = 0
    for _ in range(n):
        v_min, d_min = -1, 1 << 60
        for v in bits(alive):
            d = (g.adj[v] & alive).bit_count()
            if d < d_min:
                v_min, d_min = v, d
        best = max(best, d_min)
        alive ^= 1 << v_min
    return best


def _kernel_mask(g: Graph, mask: int, k: int) -> int:
    """Drop vertices of degree < k inside ``mask`` until none remain."""
    changed = True
    while changed:
        changed = False
        for v in bits(mask):
            if (g.adj[v] & mask).bit_count() < k:
                mask ^= 1 << v
                changed = True
    return mask


def _bad_assignment_on(g: Graph, mask: int, k: int) -> dict[int, frozenset[int]] | None:
    """Search induced subgraph g[mask] for a bad k-assignment in which every
    color appears in at least two lists.  Lists are enumerated in canonical
    first-use color order, which covers at least one representative of every
    color-permutation orbit."""
    verts = list(bits(mask))
    sub, kept = induced_subgraph(g, verts)
    m = sub.n
    lists: list[tuple[int, ...]] = []
    support = [0] * (m * k + 1)

    def rec(i: int, used: int) -> dict[int, frozenset[int]] | None:
        if i == m:
            assignment = ListAssignment.of_lists([frozenset(l) for l in lists])
            if find_l_coloring(sub, assignment) is None:
                return {kept[j]: frozenset(lists[j]) for j in range(m)}
            return None
        remaining_after = m - i - 1
        deficit = sum(1 for c in range(used) if support[c] == 1)
        # vertices i..m-1 have (m - i) * k list slots left to lift every
        # support-1 color to support >= 2
        if deficit > (remaining_after + 1) * k:
            return None
        max_new = 0 if remaining_after == 0 else k
        for new in range(0, max_new + 1):
            old_needed = k - new
            if old_needed > used:
                continue
            must = tuple(c for c in range(used) if support[c] == 1) \
                if remaining_after == 0 else ()
            if len(must) > old_needed:
                break
            pool = [c for c in range(used) if c not in must]
            for extra in combinations(pool, old_needed - len(must)):
                chosen = must + extra + tuple(range(used, used + new))
                lists.append(chosen)
                for c in chosen:
                    support[c] += 1
                hit = rec(i + 1, used + new)
                for c in chosen:
                    support[c] -= 1
                lists.pop()
                if hit is not None:
                    return hit
        return None

    return rec(0, 0)


def is_k_choosable(
    g: Graph,
    k: int,
    *,
    max_vertices: int = 8,
    max_k: int = 3,
) -> ChoosabilityVerdict:
    """Exact k-choosability by exhaustive adversary enumeration.

    Refuses instances above the caps (default 8 vertices, k <= 3; both are
    arguments) instead of answering partially.  See the module docstring for
    the completeness argument behind the reductions used.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if g.n > max_vertices:
        raise ChoosabilityCapError(
            f"graph has {g.n} vertices, exhaustive cap is {max_vertices}")
    if k > max_k:
        raise ChoosabilityCapError(f"k={k} above exhaustive cap {max_k}")

    memo: dict[int, dict[int, frozenset[int]] | None] = {}

    def bad_core(mask: int) -> dict[int, frozenset[int]] | None:
        mask = _kernel_mask(g, mask, k)
        if mask == 0:
            return None
        if mask in memo:
            return memo[mask]
        hit = None
        for v in bits(mask):
            hit = bad_core(mask ^ (1 << v))
            if hit is not None:
                break
        if hit is None:
            hit = _bad_assignment_on(g, mask, k)
        memo[mask] = hit
        return hit

    core = bad_core(g.vertex_mask())
    universe = k * g.n
    if core is None:
        return ChoosabilityVerdict(k, True, None, universe)
    # Pad vertices outside the failing core with fresh private colors.
    used = max((c for l in core.values() for c in l), default=-1) + 1
    full: list[frozenset[int]] = []
    nxt = used
    for v in range(g.n):
        if v in core:
            full.append(core[v])
        else:
            full.append(frozenset(range(nxt, nxt + k)))
            nxt += k
    witness = ListAssignment(tuple(full))
    if any(len(l) != k for l in witness.lists) or find_l_coloring(g, witness) is not None:
        raise RuntimeError("witness failed re-verification")
    return ChoosabilityVerdict(k, False, witness, universe)
