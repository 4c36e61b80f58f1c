"""Independent answer checks for benchmark operations.

Nothing here calls the search or solver under test.  Each function decides
its question from a characterisation or a brute force that shares no code
with the kstlab procedure it audits, so a benchmark run can tell a wrong
answer from a right one.  Graphs are read only through ``n``, ``adj`` and
``labels``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import numpy as np


class WrongAnswer(AssertionError):
    """An operation's answer disagrees with its independent reference."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(adj, seed: int, allowed: int) -> int:
    reach = frontier = seed
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v]
        frontier = nxt & allowed & ~reach
        reach |= frontier
    return reach


def components(adj, mask: int) -> list[int]:
    out = []
    while mask:
        comp = _reach(adj, mask & -mask, mask)
        out.append(comp)
        mask &= ~comp
    return out


# --- 2-choosability -----------------------------------------------------------


def two_choosable(g) -> bool:
    """Erdos-Rubin-Taylor: a graph is 2-choosable iff the core of each
    component (repeatedly delete degree-1 vertices) is K1, an even cycle, or
    theta(2, 2, 2m)."""
    adj = g.adj
    for comp in components(adj, (1 << g.n) - 1):
        core = comp
        pruned = True
        while pruned and core.bit_count() > 1:
            pruned = False
            for v in _bits(core):
                if (adj[v] & core).bit_count() <= 1:
                    core ^= 1 << v
                    pruned = True
                    break
        if core.bit_count() > 1 and not _core_is_two_choosable(adj, core):
            return False
    return True


def _core_is_two_choosable(adj, core: int) -> bool:
    deg = {v: (adj[v] & core).bit_count() for v in _bits(core)}
    if all(d == 2 for d in deg.values()):
        return len(deg) % 2 == 0
    ends = [v for v, d in deg.items() if d == 3]
    if len(ends) != 2 or any(d not in (2, 3) for d in deg.values()):
        return False
    u, w = ends
    lengths = []
    for nb in _bits(adj[u] & core):
        prev, cur, length = u, nb, 1
        while deg[cur] == 2:
            nxt = (adj[cur] & core) & ~(1 << prev)
            prev, cur, length = cur, nxt.bit_length() - 1, length + 1
        if cur != w:
            return False
        lengths.append(length)
    lengths.sort()
    return lengths[0] == lengths[1] == 2 and lengths[2] % 2 == 0


# --- K_{s,t} minors -----------------------------------------------------------


def spanning_kst(g, s: int, t: int) -> bool:
    """With s + t == n every branch set is one vertex, so the minor exists iff
    some s vertices are all adjacent to all of the other t."""
    assert s + t == g.n
    full = (1 << g.n) - 1
    for side in combinations(range(g.n), s):
        common = full
        for v in side:
            common &= g.adj[v]
        rest = full
        for v in side:
            rest ^= 1 << v
        if common & rest == rest:
            return True
    return False


def star_kst(g, t: int) -> bool | None:
    """K_{1,t}: some connected set S has at least t neighbours outside S (each
    leaf set can shrink to its vertex next to S).  Exhaustive up to 16
    vertices; None above that unless one vertex already has degree t."""
    adj = g.adj
    if any(row.bit_count() >= t for row in adj):
        return True
    if g.n > 16:
        return None
    for mask in range(1, 1 << g.n):
        if _reach(adj, mask & -mask, mask) != mask:
            continue
        nbr = 0
        for v in _bits(mask):
            nbr |= adj[v]
        if (nbr & ~mask).bit_count() >= t:
            return True
    return False


def kst_reference(g, s: int, t: int, oracle, pieces=None, separator: int = 0):
    """Expected answer to "does g have a K_{s,t} minor?", or None when no
    independent argument applies.

    ``oracle(g, s, t)`` runs the brute-force ``oracle_has_minor``; it is only
    used where its assignment table stays small.  ``pieces`` are graphs whose
    clique-sum along cliques of size ``separator`` is g: K_{s,t} is
    s-connected, so when s > separator the minor lies in one piece.
    """
    if g.n < s + t or sum(row.bit_count() for row in g.adj) // 2 < s * t:
        return False
    if pieces is not None and s > separator:
        answers = [kst_reference(p, s, t, oracle) for p in pieces]
        if True in answers:
            return True
        if all(a is False for a in answers):
            return False
    if g.n <= 9 and (s + t + 1) ** g.n <= 1 << 22:
        return oracle(g, s, t)
    if s + t == g.n:
        return spanning_kst(g, s, t)
    if s == 1:
        return star_kst(g, t)
    return None


# --- list colouring -----------------------------------------------------------


def proper_in_lists(g, lists, coloring) -> bool:
    if coloring is None or len(coloring) != g.n:
        return False
    for v in range(g.n):
        if coloring[v] not in lists[v]:
            return False
        for u in _bits(g.adj[v]):
            if coloring[u] == coloring[v]:
                return False
    return True


def clique_colorable(adj, vertices, lists) -> bool:
    """A clique is list-colourable iff its vertices match into distinct
    colours of their lists (Hall); decided by augmenting paths."""
    vertices = list(vertices)
    for v in vertices:
        others = 0
        for u in vertices:
            if u != v:
                others |= 1 << u
        if adj[v] & others != others:
            raise WrongAnswer(f"copy vertices {vertices} do not form a clique")
    owner: dict[int, int] = {}

    def augment(v, seen) -> bool:
        for c in lists[v]:
            if c in seen:
                continue
            seen.add(c)
            if c not in owner or augment(owner[c], seen):
                owner[c] = v
                return True
        return False

    return all(augment(v, set()) for v in vertices)


def glued_colorable(g, lists) -> bool:
    """Brute force over colourings of the B vertices of a glued graph: it is
    list-colourable iff some proper colouring of B from its lists extends to
    every component of G - B.  Components are small, so each extension is
    tried exhaustively."""
    b_part = [v for v in range(g.n) if g.labels[v] == "B"]
    b_mask = sum(1 << v for v in b_part)
    comps = [list(_bits(c)) for c in components(g.adj, ((1 << g.n) - 1) & ~b_mask)]
    for colour_b in product(*(sorted(lists[b]) for b in b_part)):
        given = dict(zip(b_part, colour_b))
        if any(given[u] == c for b, c in given.items() for u in _bits(g.adj[b] & b_mask)):
            continue
        if all(_extends(g, lists, comp, given) for comp in comps):
            return True
    return False


def _extends(g, lists, comp, given) -> bool:
    live = []
    for v in comp:
        blocked = {given[b] for b in given if (g.adj[v] >> b) & 1}
        live.append(sorted(set(lists[v]) - blocked))
    for choice in product(*live):
        if all(choice[i] != choice[j] for i, j in combinations(range(len(comp)), 2)
               if (g.adj[comp[i]] >> comp[j]) & 1):
            return True
    return False


# --- sampling layer -----------------------------------------------------------


def sample_hits(seed: int, rows: int, cols: int, delta: Fraction) -> np.ndarray:
    """The documented sampler: each of rows x cols cross pairs is an edge
    independently with probability cols**(-delta), drawn from one seeded
    numpy Generator."""
    p = float(cols) ** (-float(delta))
    return np.random.default_rng(seed).random((rows, cols)) < p


def max_degree(hits: np.ndarray) -> int:
    return int(max(hits.sum(axis=1).max(initial=0), hits.sum(axis=0).max(initial=0)))


def singleton_blocks_hold(hits: np.ndarray, k: int) -> bool:
    """Block property with blocks of size 1: no k A-vertices and k B-vertices
    span no sampled edge, i.e. the hit matrix has no all-zero k x k minor."""
    for cols in combinations(range(hits.shape[1]), k):
        empty_rows = int((~hits[:, list(cols)].any(axis=1)).sum())
        if empty_rows >= k:
            return False
    return True


def gadget_from_hits(hits: np.ndarray, m: int) -> set[tuple[int, int]]:
    """Edges of the gadget: the complement of the sample induced on the first
    m A-vertices and all B-vertices, with B ids following A ids."""
    n = hits.shape[1]
    edges = set()
    for u, v in combinations(range(m + n), 2):
        if v >= m and u < m and hits[u, v - m]:
            continue
        edges.add((u, v))
    return edges
