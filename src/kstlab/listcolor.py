"""List coloring and exact k-choosability checking.

``find_l_coloring`` decides L-colorability for one list assignment by
complete backtracking with forward checking.  Its state is color-major: per
color, the bitmask of vertices that still have it live, and per count j, the
mask of vertices with exactly j live colors.  One AND strikes a color from
every uncolored neighbor, the count masks give the branching vertex (fewest
live colors, lowest id, zero and one tied), and a node costs a few big-int
operations per list size instead of a pass over the vertices.
``is_k_choosable`` decides whether every assignment of k-element lists
admits a proper coloring.

Completeness of the choosability check rests on three facts, used as exact
reductions rather than heuristics; a fourth skips the search for k = 2 where
a classical theorem already answers:

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
4. Two-choosable cores (Erdos-Rubin-Taylor 1979).  A connected graph is
   2-choosable iff the graph left after repeatedly deleting degree-1
   vertices is K_1, an even cycle, or theta_{2,2,2m} (two vertices joined by
   internally disjoint paths of lengths 2, 2 and 2m); a graph is 2-choosable
   iff each of its components is, since lists on different components never
   interact.  For k = 2 the kernel of reduction 2 has minimum degree 2, so
   each of its components is its own core, and ``_two_choosable_core``
   recognises the even cycles and theta_{2,2,2m} among them by counting
   edges and degrees.  When every component passes, the search for that
   kernel is skipped and no bad assignment is reported, which is what the
   complete search of reductions 1-3 would return; kernels that fail the
   test are searched exactly as before, in the same order, so verdicts and
   witnesses do not depend on this reduction.

A NotChoosable verdict always carries a witness assignment on the original
graph with lists of size exactly k, rebuilt from the failing core by padding
deleted vertices with fresh private colors, and is re-checked by the solver
before being returned (a witness that fails raises RuntimeError).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, bits, closure, induced_subgraph


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
        # JSON true and false load as bools, an int subclass: not colors.
        lists = data.get("lists") if isinstance(data, dict) else None
        if not (isinstance(lists, list) and all(type(l) is list for l in lists)
                and all(type(c) is int for l in lists for c in l)):
            raise ValueError('list JSON needs "lists": a list of integer color lists')
        return cls.of_lists(lists)

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
    """True iff ``coloring`` is proper and pointwise inside ``lists``.

    Properness is checked per color class: no vertex is adjacent to a
    vertex of its own class, one AND per vertex."""
    if len(lists) != g.n or len(coloring) != g.n:
        return False
    classes: dict = {}
    for v, c in enumerate(coloring):
        if c not in lists.lists[v]:
            return False
        classes[c] = classes.get(c, 0) | 1 << v
    adj = g.adj
    for v, c in enumerate(coloring):
        if adj[v] & classes[c]:
            return False
    return True


def find_l_coloring(g: Graph, lists: ListAssignment) -> tuple[int, ...] | None:
    """Complete backtracking L-coloring search.

    Branches on the uncolored vertex with the fewest live colors, lowest id
    on ties, where zero and one live color tie (so the lowest-id vertex with
    at most one goes first; one with none ends the branch).  Tries its
    colors in ascending order and forward-checks its neighbors, so the
    result is deterministic.

    The state is color-major.  ``has[c]`` is the bitmask of vertices with
    color c live and ``exact[j]`` the mask of vertices with exactly j live
    colors; both are read under the uncolored mask.  Coloring v with c
    strikes c from every uncolored neighbor with one AND, ``S = adj[v] &
    uncolored & has[c]; has[c] ^= S``, and moves ``exact[j] & S`` to
    ``exact[j - 1]`` once per j; the frame keeps S for the undo.  The
    branching vertex is the lowest bit of ``(exact[0] | exact[1]) &
    uncolored`` if that is non-empty, else of the first non-empty
    ``exact[j] & uncolored``.  A node therefore costs a few big-int
    operations per list size, and none walks the vertices one by one.

    The backtracking keeps an explicit stack, so depth is not bounded by the
    interpreter's recursion limit.  Returns a proper in-list coloring,
    re-checked by ``verify_coloring`` (a failed check raises RuntimeError),
    or None, and None is an exhaustiveness certificate.
    """
    if len(lists) != g.n:
        raise ValueError("assignment length differs from vertex count")
    n = g.n
    if n == 0:
        return ()
    L = lists.lists
    if not all(L):
        return None
    universe = sorted(set().union(*L))
    idx = {c: i for i, c in enumerate(universe)}
    top = max(map(len, L))
    has = [0] * len(universe)
    exact = [0] * (top + 1)
    own = [0] * n  # each vertex's list as a mask of colour indices
    for v, l in enumerate(L):
        b = 1 << v
        exact[len(l)] |= b
        m = 0
        for c in l:
            i = idx[c]
            has[i] |= b
            m |= 1 << i
        own[v] = m
    adj = g.adj
    counts = range(top)
    wide = range(2, top + 1)
    # Frames: [vertex bit, uncolored after it, its uncolored neighbours, its
    # list colours not yet tried, the colour index it holds, the neighbours
    # that colour was struck from].  Strikes only reach uncolored vertices,
    # so a coloured vertex's live colours are read from ``has`` as reached.
    stack: list[list] = []
    uncolored = (1 << n) - 1
    while uncolored:
        low = (exact[0] | exact[1]) & uncolored
        if not low:
            for j in wide:
                low = exact[j] & uncolored
                if low:
                    break
        b = low & -low
        if not exact[0] & b:
            v = b.bit_length() - 1
            uncolored ^= b
            stack.append([b, uncolored, adj[v] & uncolored, own[v], 0, 0])
        # Undo the colour last tried and forward-check the next one,
        # dropping frames whose colours are all tried.
        while stack:
            frame = stack[-1]
            b, uncolored, nbrs, options, c, struck = frame
            if struck:
                has[c] |= struck
                for j in counts:
                    t = exact[j] & struck
                    if t:
                        exact[j] ^= t
                        exact[j + 1] |= t
                        struck ^= t
                        if not struck:
                            break
            while options:
                cbit = options & -options
                options ^= cbit
                c = cbit.bit_length() - 1
                if has[c] & b:
                    break
            else:
                stack.pop()
                continue
            frame[3] = options
            frame[4] = c
            frame[5] = struck = nbrs & has[c]
            if struck:
                has[c] ^= struck
                for j in counts:
                    t = exact[j + 1] & struck
                    if t:
                        exact[j + 1] ^= t
                        exact[j] |= t
                        struck ^= t
                        if not struck:
                            break
            break
        else:
            return None
    color = [0] * n
    for frame in stack:
        color[frame[0].bit_length() - 1] = universe[frame[4]]
    out = tuple(color)
    if not verify_coloring(g, lists, out):
        raise RuntimeError("solver produced an improper or off-list colouring")
    return out


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


def _two_choosable_core(g: Graph, mask: int) -> bool:
    """True iff every component of g[mask] is an even cycle or theta_{2,2,2m}.

    ``mask`` must induce minimum degree at least 2 (a k = 2 kernel).  Such a
    component with |E| = |V| is a cycle.  One with |E| = |V| + 1 and maximum
    degree 3 has exactly two vertices u, w of degree 3 and is either a theta
    (three internally disjoint u-w paths) or two cycles joined by a u-w path.
    u and w have two common neighbours only in a theta with two paths of
    length 2, whose third path has |V| - 3 edges.  So the component is
    theta_{2,2,2m} (bipartite, u and w non-adjacent) iff |V| is odd.  Even
    cycles have |E| = |V| and theta_{2,2,2m} has |E| = |V| + 1 and maximum
    degree 3, so no other component passes.
    """
    adj = g.adj
    rest = mask
    while rest:
        comp = closure(adj, rest & -rest, mask)
        rest ^= comp
        nv = comp.bit_count()
        ends = []
        degree_sum = 0
        m = comp
        while m:
            b = m & -m
            v = b.bit_length() - 1
            d = (adj[v] & comp).bit_count()
            if d > 3:
                return False
            if d == 3:
                ends.append(v)
            degree_sum += d
            m ^= b
        if degree_sum == 2 * nv:
            if nv & 1:
                return False
        elif degree_sum == 2 * nv + 2:
            u, w = ends
            if (adj[u] & adj[w] & comp).bit_count() < 2 or not nv & 1:
                return False
        else:
            return False
    return True


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

    For k = 2, kernels whose components are all even cycles or
    theta_{2,2,2m} are answered by the Erdos-Rubin-Taylor characterisation
    without enumerating (reduction 4 of the module docstring).

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
        if k == 2 and _two_choosable_core(g, mask):
            memo[mask] = None
            return None
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
