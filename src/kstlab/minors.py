"""Exact complete-bipartite minor testing via branch decompositions.

A K_{s,t} minor of a host graph is witnessed by a branch model: s + t
pairwise disjoint, non-empty, connected vertex sets, split into a side of s
and a side of t, with at least one host edge between every cross pair.
``find_kst_minor`` is an exact backtracking search over such models;
``oracle_has_minor`` is an independent brute-force check used to validate it
on small hosts.  Witnesses are always re-verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .graph import Graph, bits, closure, mask_of


@dataclass(frozen=True)
class MinorQuery:
    """A K_{s,t} target with 1 <= s <= t."""

    s: int
    t: int

    def __post_init__(self):
        if not (1 <= self.s <= self.t):
            raise ValueError("require 1 <= s <= t")


@dataclass(frozen=True)
class BranchModel:
    """Branch sets of a complete-bipartite minor inside ``host``."""

    side1: tuple[frozenset[int], ...]
    side2: tuple[frozenset[int], ...]
    host: Graph

    def to_json_dict(self) -> dict:
        return {
            "side1": [sorted(s) for s in self.side1],
            "side2": [sorted(s) for s in self.side2],
        }

    @classmethod
    def from_json_dict(cls, data: dict, host: Graph) -> "BranchModel":
        return cls(
            tuple(frozenset(s) for s in data["side1"]),
            tuple(frozenset(s) for s in data["side2"]),
            host,
        )


class SearchStatus(Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class MinorSearch:
    """Outcome of a search.  ``nodes_expanded`` is summed over the atoms
    searched; ``atoms_searched`` counts the atoms that reached the
    backtracking core (atoms too small to hold the minor are skipped)."""

    status: SearchStatus
    model: BranchModel | None
    nodes_expanded: int
    atoms_searched: int


def model_violation(g: Graph, model: BranchModel, q: MinorQuery) -> str | None:
    """First violated branch-model clause, or None when the model is valid."""
    if len(model.side1) != q.s:
        return f"side1 has {len(model.side1)} sets, query wants s={q.s}"
    if len(model.side2) != q.t:
        return f"side2 has {len(model.side2)} sets, query wants t={q.t}"
    sets = list(model.side1) + list(model.side2)
    masks = []
    for i, s in enumerate(sets):
        if not s:
            return f"branch set {i} is empty"
        for v in s:
            if not (0 <= v < g.n):
                return f"branch set {i} contains out-of-range vertex {v}"
        masks.append(mask_of(s))
    seen = 0
    for i, m in enumerate(masks):
        if seen & m:
            return f"branch set {i} overlaps an earlier set"
        seen |= m
    for i, m in enumerate(masks):
        if closure(g.adj, m & -m, m) != m:
            return f"branch set {i} is not connected in the host"
    for i in range(q.s):
        nbr = 0
        for v in bits(masks[i]):
            nbr |= g.adj[v]
        for j in range(q.t):
            if not (nbr & masks[q.s + j]):
                return f"no host edge between side1 set {i} and side2 set {j}"
    return None


def verify_model(g: Graph, model: BranchModel, q: MinorQuery) -> bool:
    return model_violation(g, model, q) is None


class _BudgetHit(Exception):
    pass


def _search(g: Graph, q: MinorQuery, within: int, budget: int | None) -> MinorSearch:
    """Exact search for a K_{s,t} branch model in the subgraph of ``g``
    induced by the vertex mask ``within``.

    Backtracks over assignments of vertices to one of the s + t branch sets
    or to an unused pool.  Vertices are chosen dynamically (fewest feasible
    sets first, lowest id on ties); sets are opened lowest-id first within a
    side, which breaks the set-relabeling symmetry.  All prunes are sound, so
    NOT_FOUND is an exhaustiveness certificate.  ``budget`` caps node
    expansions; exceeding it yields BUDGET_EXHAUSTED.  Deterministic: equal
    inputs explore the identical tree.  The model it returns is not yet
    verified; ``find_kst_minor`` checks it on the host.
    """
    s, t = q.s, q.t
    k = s + t
    adj = g.adj
    cmask = [0] * k        # vertices committed to each branch set
    cnbr = [0] * k         # union of host neighbourhoods over each set
    nodes = 0
    out_model: list[BranchModel] = []

    def dfs(und: int) -> bool:
        nonlocal nodes
        if budget is not None and nodes >= budget:
            raise _BudgetHit
        nodes += 1

        # Early success: current sets already witness the minor.
        if all(cmask):
            ok = True
            for i in range(s):
                nb = cnbr[i]
                for j in range(s, k):
                    if not (nb & cmask[j]):
                        ok = False
                        break
                if not ok:
                    break
            if ok and all(closure(adj, cm & -cm, cm) == cm for cm in cmask):
                side1 = sorted((frozenset(bits(cm)) for cm in cmask[:s]), key=min)
                side2 = sorted((frozenset(bits(cm)) for cm in cmask[s:]), key=min)
                out_model.append(BranchModel(tuple(side1), tuple(side2), g))
                return True

        if und == 0:
            return False

        empties = sum(1 for cm in cmask if cm == 0)
        if und.bit_count() < empties:
            return False

        # Reachability closures: a set can only ever grow inside its closure
        # through undecided vertices, so a set split across closure
        # components is dead, and a vertex outside a closure can never join.
        reach = [0] * k
        for c in range(k):
            cm = cmask[c]
            if cm:
                r = closure(adj, cm & -cm, cm | und)
                if cm & ~r:
                    return False
                reach[c] = r

        # Cross-pair liveness: an unlinked pair must still have a potential
        # host edge between the two closures.
        nbr_reach = [0] * k
        for c in range(k):
            if cmask[c]:
                nb = cnbr[c]
                for v in bits(reach[c] & und):
                    nb |= adj[v]
                nbr_reach[c] = nb
        for i in range(s):
            if not cmask[i]:
                continue
            for j in range(s, k):
                if cmask[j] and not (cnbr[i] & cmask[j]):
                    if not (nbr_reach[i] & reach[j]):
                        return False

        e1 = next((c for c in range(s) if not cmask[c]), None)
        e2 = next((c for c in range(s, k) if not cmask[c]), None)
        # With s == t the two sides are interchangeable, so the very first
        # set opened can be forced onto side 1.
        allow_e2 = e2 is not None and not (s == t and all(cm == 0 for cm in cmask))

        best_v = -1
        best_cand: list[int] = []
        best_score = k + 3
        for v in bits(und):
            cand = [c for c in range(k) if cmask[c] and (reach[c] >> v) & 1]
            if e1 is not None:
                cand.append(e1)
            if allow_e2:
                cand.append(e2)
            if len(cand) < best_score:
                best_score = len(cand)
                best_v = v
                best_cand = cand
                if best_score == 0:
                    break

        vbit = 1 << best_v
        nxt_und = und ^ vbit
        for c in sorted(best_cand):
            old_nbr = cnbr[c]
            cmask[c] |= vbit
            cnbr[c] |= adj[best_v]
            if dfs(nxt_und):
                return True
            cmask[c] ^= vbit
            cnbr[c] = old_nbr
        # leave best_v unused
        return dfs(nxt_und)

    try:
        found = dfs(within)
    except _BudgetHit:
        return MinorSearch(SearchStatus.BUDGET_EXHAUSTED, None, nodes, 1)
    if not found:
        return MinorSearch(SearchStatus.NOT_FOUND, None, nodes, 1)
    return MinorSearch(SearchStatus.FOUND, out_model[0], nodes, 1)


# --- decomposition along small clique separators -------------------------


def _components(adj, mask: int) -> list[int]:
    out = []
    while mask:
        comp = closure(adj, mask & -mask, mask)
        out.append(comp)
        mask &= ~comp
    return out


def _blocks(adj, n: int) -> list[int]:
    """Blocks (maximal 2-connected subgraphs, bridges and isolated vertices)
    as vertex masks: Hopcroft-Tarjan with an explicit stack, so depth is not
    bounded by the interpreter's recursion limit."""
    disc = [-1] * n
    low = [0] * n
    rest = list(adj)        # neighbours not yet scanned from each vertex
    blocks = []
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        if not adj[root]:
            blocks.append(1 << root)
            continue
        path = [root]       # DFS tree path
        pending = [root]    # visited vertices not yet assigned to a block
        while path:
            v = path[-1]
            r = rest[v]
            if r:
                b = r & -r
                rest[v] = r ^ b
                w = b.bit_length() - 1
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    path.append(w)
                    pending.append(w)
                elif disc[w] < low[v]:
                    low[v] = disc[w]
                continue
            path.pop()
            if not path:
                break
            u = path[-1]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                # u separates the subtree of v: pop it as one block with u.
                m = 1 << u
                while True:
                    x = pending.pop()
                    m |= 1 << x
                    if x == v:
                        break
                blocks.append(m)
    return blocks


def _split_at_edges(adj, block: int) -> list[int]:
    """Split a 2-connected vertex set along edges {u, v} whose removal
    disconnects it, until no such edge is left.  Each piece keeps u and v,
    so it is again 2-connected and can be split further."""
    out = []
    todo = [block]
    while todo:
        m = todo.pop()
        pair = _separating_edge(adj, m)
        if pair:
            todo += [c | pair for c in _components(adj, m & ~pair)]
        else:
            out.append(m)
    return out


def _separating_edge(adj, m: int) -> int:
    """The first edge {u, v} (as a mask) inside ``m`` whose removal leaves
    ``m`` disconnected, or 0."""
    for u in bits(m):
        for v in bits(adj[u] & m & ~((2 << u) - 1)):
            pair = (1 << u) | (1 << v)
            rest = m & ~pair
            if rest and closure(adj, rest & -rest, rest) != rest:
                return pair
    return 0


def _atom_masks(adj, n: int, s: int) -> list[int]:
    if s == 1:
        atoms = _components(adj, (1 << n) - 1)
    else:
        atoms = _blocks(adj, n)
        if s >= 3:
            atoms = [a for b in atoms for a in _split_at_edges(adj, b)]
    return sorted(atoms, key=lambda m: (m.bit_count(), m & -m))


def kst_atoms(g: Graph, s: int) -> list[tuple[int, ...]]:
    """The atoms ``find_kst_minor`` searches for a K_{s,t} minor, in search
    order (ascending size, then lowest vertex id).

    For s = 1 they are the connected components; for s >= 2 the blocks; for
    s >= 3 each block is further split along edges {u, v} whose removal
    disconnects it.  Every separator used is a clique of order less than s.
    """
    return [tuple(bits(m)) for m in _atom_masks(g.adj, g.n, s)]


def find_kst_minor(g: Graph, q: MinorQuery, budget: int | None = None) -> MinorSearch:
    """Exact search for a K_{s,t} branch model in ``g``, one atom at a time.

    ``g`` is split into atoms along clique separators of order less than s
    (see ``kst_atoms``) and the backtracking core runs inside each atom in
    turn.  An atom with fewer than s + t vertices or fewer than s * t edges
    cannot hold the minor and is skipped at zero nodes.  ``budget`` caps the
    node expansions summed over all atoms; exceeding it yields
    BUDGET_EXHAUSTED.  A found model is re-verified on ``g``.

    Soundness: K_{s,t} with s <= t is s-connected.  Let S be a clique
    separator of g with |S| < s, so that g = G1 u G2 with G1 n G2 = S, and
    take a K_{s,t} model in g.  Branch sets are disjoint, so fewer than s of
    them meet S.  K_{s,t} minus fewer than s vertices stays connected, so the
    other branch sets, each connected and avoiding S, all lie on one side,
    say G1.  Cut every branch set down to V(G1).  Each stays non-empty (it
    lies in G1 or meets S) and connected: a detour through G2 - S leaves and
    re-enters through S, and S is a clique.  Every cross edge survives: a
    cross edge with an end in G2 - S joins two sets that both meet S, and S
    is a clique of g.  So G1 has the minor too, and induction over the
    separators puts it inside one atom.  Conversely an atom is an induced
    subgraph, so its minors are minors of g.
    """
    s, t = q.s, q.t
    k = s + t
    if g.n < k or g.edge_count() < s * t:
        return MinorSearch(SearchStatus.NOT_FOUND, None, 0, 0)
    adj = g.adj
    nodes = searched = 0
    for m in _atom_masks(adj, g.n, s):
        if m.bit_count() < k or sum((adj[v] & m).bit_count() for v in bits(m)) < 2 * s * t:
            continue
        res = _search(g, q, m, None if budget is None else budget - nodes)
        nodes += res.nodes_expanded
        searched += 1
        if res.status is SearchStatus.BUDGET_EXHAUSTED:
            return MinorSearch(res.status, None, nodes, searched)
        if res.status is SearchStatus.FOUND:
            bad = model_violation(g, res.model, q)
            assert bad is None, f"search produced an invalid model: {bad}"
            return MinorSearch(res.status, res.model, nodes, searched)
    return MinorSearch(SearchStatus.NOT_FOUND, None, nodes, searched)


# --- independent oracle -------------------------------------------------

_ORACLE_MAX_N = 9
_CACHE_ROW_LIMIT = 1 << 22


@lru_cache(maxsize=16)
def _assignment_masks(n: int, k: int) -> tuple[np.ndarray, ...]:
    """All assignments of n vertices to k classes plus an unused pool, with
    every class non-empty, as per-class vertex bitmasks (one column array per
    class).  Cached; graph-independent."""
    total = (k + 1) ** n
    if total > _CACHE_ROW_LIMIT:
        raise ValueError("assignment table too large to cache")
    codes = np.arange(total, dtype=np.int64)
    digits = np.empty((total, n), dtype=np.int64)
    rem = codes
    for v in range(n):
        digits[:, v] = rem % (k + 1)
        rem = rem // (k + 1)
    keep = np.ones(total, dtype=bool)
    for c in range(1, k + 1):
        keep &= (digits == c).any(axis=1)
    digits = digits[keep]
    powers = 1 << np.arange(n, dtype=np.int64)
    masks = tuple(((digits == c) * powers).sum(axis=1) for c in range(1, k + 1))
    return masks


def _mask_luts(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-subset connectivity and neighbourhood lookup tables for g."""
    n = g.n
    size = 1 << n
    adj = g.adj
    nbr = np.zeros(size, dtype=np.int64)
    conn = np.zeros(size, dtype=bool)
    for m in range(1, size):
        low = m & -m
        nbr[m] = nbr[m ^ low] | adj[low.bit_length() - 1]
        reach = low
        frontier = low
        while frontier:
            nxt = 0
            mm = frontier
            while mm:
                b = mm & -mm
                nxt |= adj[b.bit_length() - 1]
                mm ^= b
            nxt &= m & ~reach
            reach |= nxt
            frontier = nxt
        conn[m] = reach == m
    return conn, nbr


def _check_assignments(masks, conn, nbr, f_edges, k) -> bool:
    ok = conn[masks[0]]
    for c in range(1, k):
        ok = ok & conn[masks[c]]
        if not ok.any():
            return False
    for a, b in f_edges:
        ok = ok & ((nbr[masks[a]] & masks[b]) != 0)
        if not ok.any():
            return False
    return bool(ok.any())


def oracle_has_minor(g: Graph, f: Graph) -> bool:
    """Brute-force minor test: enumerate every assignment of g's vertices to
    |V(f)| branch classes plus an unused pool, keeping only the non-empty
    ones, and accept if some assignment has all classes connected with a host
    edge for every edge of f.  Exact by construction; host capped at 9
    vertices."""
    if g.n > _ORACLE_MAX_N:
        raise ValueError(f"oracle host cap is {_ORACLE_MAX_N} vertices, got {g.n}")
    k = f.n
    if k == 0:
        return True
    if g.n < k:
        return False
    f_edges = list(f.edges())
    conn, nbr = _mask_luts(g)
    total = (k + 1) ** g.n
    if total <= _CACHE_ROW_LIMIT:
        masks = _assignment_masks(g.n, k)
        return _check_assignments(masks, conn, nbr, f_edges, k)
    # stream in chunks for the largest hosts
    powers = 1 << np.arange(g.n, dtype=np.int64)
    chunk = 1 << 20
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        codes = np.arange(start, stop, dtype=np.int64)
        digits = np.empty((stop - start, g.n), dtype=np.int64)
        rem = codes
        for v in range(g.n):
            digits[:, v] = rem % (k + 1)
            rem = rem // (k + 1)
        keep = np.ones(stop - start, dtype=bool)
        for c in range(1, k + 1):
            keep &= (digits == c).any(axis=1)
        if not keep.any():
            continue
        digits = digits[keep]
        masks = tuple(((digits == c) * powers).sum(axis=1) for c in range(1, k + 1))
        if _check_assignments(masks, conn, nbr, f_edges, k):
            return True
    return False


def kst_query_graph(q: MinorQuery) -> Graph:
    """The K_{s,t} pattern graph matching ``q`` (side A first)."""
    from .graph import complete_bipartite

    return complete_bipartite(q.s, q.t)
