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
   walks the vertex-deleted subgraphs depth first (memoized) and only
   enumerates assignments with all color supports >= 2; both walks keep
   explicit stacks, so depth is not bounded by the recursion limit.
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

Leaves of the enumeration are decided on color-class bitmasks.  The search
keeps the host's adjacency restricted to the kernel, the lists as color
masks and the support-1 colors as one mask, and decides each complete
assignment at its last vertex w: it is colorable iff w's list holds a color
c such that the other vertices can be colored from their lists with c
struck from w's neighbors.  That test is a small exact backtracking over
color classes (``_colorable``), run once per color and prefix and reused
for every list of w under that prefix.  Any exact leaf test gives the same
answers in the same enumeration order, so the first bad assignment, and
with it every verdict and witness, is the one a solver run per leaf would
give.  ``ChoosabilityVerdict.assignments`` counts the
complete assignments decided, summed over the searched kernels.

A NotChoosable verdict always carries a witness assignment on the original
graph with lists of size exactly k, rebuilt from the failing core by padding
deleted vertices with fresh private colors, and is re-checked by
``find_l_coloring`` before being returned (a witness that fails raises
RuntimeError).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graph import Graph, bits, components


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
    assignments: int = 0


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

    A vertex whose last colour struck nothing is not given another colour
    when the search backtracks to it.  Its colour c was live at no
    uncolored neighbour, so after v takes c the rest of the search is G - v
    with every live list unchanged, and that search failed.  Any other
    colour c' leaves lists that are pointwise subsets of those, and a graph
    that cannot be coloured from some lists cannot be coloured from subsets
    of them, so every c' fails too.  Only subtrees without a colouring are
    cut: the first colouring found, and every None, are those of the search
    that tries all colours.  Fresh private colours, such as the padding of
    ``is_k_choosable``'s witnesses, strike nothing, so a failing core is
    searched once, not once per colour of every padding vertex before it.

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
    # that colour was struck from, or -1 before its first colour].  Strikes
    # only reach uncolored vertices, so a coloured vertex's live colours are
    # read from ``has`` as reached.
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
            stack.append([b, uncolored, adj[v] & uncolored, own[v], 0, -1])
        # Undo the colour last tried and forward-check the next one,
        # dropping frames whose colours are all tried, or whose last colour
        # struck nothing (see the docstring).
        while stack:
            frame = stack[-1]
            b, uncolored, nbrs, options, c, struck = frame
            if not struck:
                stack.pop()
                continue
            if struck > 0:
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
    """The k-core of g[mask]: vertices of degree < k inside ``mask`` are
    peeled until none remain.  Only a neighbor of a peeled vertex can drop
    below k, so each round re-reads only those; the k-core is unique, so the
    order of peeling does not matter."""
    adj = g.adj
    todo = mask
    while todo:
        low = 0
        while todo:
            b = todo & -todo
            todo ^= b
            if (adj[b.bit_length() - 1] & mask).bit_count() < k:
                low |= b
        mask ^= low
        while low:
            b = low & -low
            low ^= b
            todo |= adj[b.bit_length() - 1]
        todo &= mask
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
    for comp in components(adj, mask):
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


@lru_cache(maxsize=1024)
def _subsets(pool: int, r: int) -> tuple[int, ...]:
    """The r-color subsets of the color mask ``pool``, as masks, in the
    order ``combinations`` gives them over the ascending colors."""
    return tuple(map(sum, combinations([1 << c for c in bits(pool)], r)))


def _colorable(lists: list[int], vbits: list[int], earlier: list[int], width: int) -> bool:
    """True iff each position j can take a color of ``lists[j]`` (a color
    mask below ``width``) with no two adjacent positions alike.

    There is at least one position.  Position j is the vertex ``vbits[j]``
    and ``earlier[j]`` is the mask of its neighbors at lower positions.
    Backtracks in position order, trying colors ascending; ``classes[c]`` is
    the mask of vertices holding color c, so color c fits j iff its class
    misses ``earlier[j]``.
    """
    n = len(lists)
    classes = [0] * width
    left = [0] * n  # colors of each position not yet tried
    held = [0] * n
    j = 0
    options = lists[0]
    while True:
        while options:
            cb = options & -options
            options ^= cb
            c = cb.bit_length() - 1
            if not classes[c] & earlier[j]:
                break
        else:
            j -= 1
            if j < 0:
                return False
            classes[held[j]] ^= vbits[j]
            options = left[j]
            continue
        classes[c] |= vbits[j]
        left[j] = options
        held[j] = c
        j += 1
        if j == n:
            return True
        options = lists[j]


def _bad_assignment_on(g: Graph, mask: int, k: int
                       ) -> tuple[dict[int, frozenset[int]] | None, int]:
    """Search induced subgraph g[mask] for a bad k-assignment in which every
    color appears in at least two lists.  ``mask`` is a non-empty k-core
    with k >= 1, so each of its vertices has a neighbor in it: it has at
    least two vertices, and the last one has predecessors to search over.

    Lists go to the vertices of ``mask`` in ascending order and are
    enumerated in canonical first-use color order, which covers at least one
    representative of every color-permutation orbit.  Returns the first bad
    assignment met, or None, and the number of complete assignments decided.

    Lists are color masks and colors 0..used-1 are the ones used so far;
    ``ones`` holds those with support 1.  A complete assignment is decided
    at the last vertex w.  With the other lists fixed, it is colorable iff
    its list for w holds a color c such that the other vertices can be
    colored with c struck from the lists of w's neighbors; each such c is
    tested once, by ``_colorable`` on the host's adjacency restricted to
    ``mask``, and the answer is kept for every list of w under the same
    prefix.  The test is exact, so the first bad assignment is the one a
    per-assignment solver would find.
    """
    adj = g.adj
    verts = list(bits(mask))
    m = len(verts)
    last = m - 1
    vbits = [1 << v for v in verts]
    earlier = [adj[v] & mask & (b - 1) for v, b in zip(verts, vbits)]
    near = [j for j in range(last) if earlier[last] & vbits[j]]
    lists = [0] * m
    leaves = 0

    def decide(used: int, ones: int) -> dict[int, frozenset[int]] | None:
        # Lists of the last vertex: every support-1 color, no new color.
        nonlocal leaves
        r = k - ones.bit_count()
        if r < 0 or k > used:
            return None
        prefix = lists[:last]
        free = blocked = 0  # colors known to fit, and known not to fit, at w
        for extra in _subsets(((1 << used) - 1) ^ ones, r):
            x = ones | extra
            leaves += 1
            if x & free:
                continue
            rest = x & ~blocked
            while rest:
                cb = rest & -rest
                rest ^= cb
                struck = prefix[:]
                for j in near:
                    struck[j] &= ~cb
                if _colorable(struck, vbits, earlier, used):
                    free |= cb
                    break
                blocked |= cb
            else:
                lists[last] = x
                return {v: frozenset(bits(l)) for v, l in zip(verts, lists)}
        return None

    def children(used: int, ones: int):
        # a list for the next vertex, with the colors used and the support-1
        # colors once it is placed: ``new`` fresh colors and k - new old ones
        low = (1 << used) - 1
        for new in range(max(k - used, 0), k + 1):
            fresh = low ^ ((1 << (used + new)) - 1)
            for old in _subsets(low, k - new):
                yield old | fresh, used + new, (ones & ~old) | fresh

    # Depth-first over the vertices in order, one child iterator per vertex
    # placed so far; stack[i] yields the lists of vertex i.
    stack = [children(0, 0)]
    while stack:
        i = len(stack) - 1
        step = next(stack[i], None)
        if step is None:
            stack.pop()
            continue
        lists[i], used, ones = step
        if i + 1 == last:
            hit = decide(used, ones)
            if hit is not None:
                return hit, leaves
        # vertices i+1..m-1 have (m - i - 1) * k list slots left to lift
        # every support-1 color to support >= 2
        elif ones.bit_count() <= (m - i - 1) * k:
            stack.append(children(used, ones))
    return None, leaves


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
    without enumerating (reduction 4 of the module docstring).  Every other
    kernel is enumerated, and each complete assignment is decided exactly on
    color-class bitmasks; since the leaf test is exact and the enumeration
    order is fixed, the first bad assignment found, and so the witness, does
    not depend on how leaves are decided.  The verdict's ``assignments``
    counts the complete assignments decided.

    Refuses instances above the caps (default 8 vertices, k <= 3; both are
    arguments) instead of answering partially; caps below 1, which allow no
    attempt, raise a plain ValueError.  See the module docstring for the
    completeness argument behind the reductions used.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if max_vertices < 1 or max_k < 1:
        raise ValueError("the vertex and list-size caps must be positive")
    if g.n > max_vertices:
        raise ChoosabilityCapError(
            f"graph has {g.n} vertices, exhaustive cap is {max_vertices}")
    if k > max_k:
        raise ChoosabilityCapError(f"k={k} above exhaustive cap {max_k}")

    # Memo DFS over kernels: a kernel has a bad assignment iff the kernel of
    # some one-vertex deletion has one (tried in ascending vertex order), or
    # else the kernel itself has one.  Frames are [kernel, vertices not yet
    # deleted]; ``hit`` carries the answer of the kernel just finished.
    memo: dict[int, dict[int, frozenset[int]] | None] = {}
    leaves = 0
    stack: list[list[int]] = []
    child = g.vertex_mask()
    while True:
        mask = _kernel_mask(g, child, k)
        if mask in memo:
            hit = memo[mask]
        elif not mask or k == 2 and _two_choosable_core(g, mask):
            hit = memo[mask] = None
        else:
            hit = None
            stack.append([mask, mask])
        while stack:
            frame = stack[-1]
            mask, rest = frame
            if hit is None and rest:
                b = rest & -rest
                frame[1] = rest ^ b
                child = mask ^ b
                break
            if hit is None:
                hit, decided = _bad_assignment_on(g, mask, k)
                leaves += decided
            memo[mask] = hit
            stack.pop()
        else:
            core = hit
            break
    universe = k * g.n
    if core is None:
        return ChoosabilityVerdict(k, True, None, universe, leaves)
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
    return ChoosabilityVerdict(k, False, witness, universe, leaves)
