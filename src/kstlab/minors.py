"""Exact complete-bipartite minor testing via branch decompositions.

A K_{s,t} minor of a host graph is witnessed by a branch model: s + t
pairwise disjoint, non-empty, connected vertex sets, split into a side of s
and a side of t, with at least one host edge between every cross pair.
``find_kst_minor`` is an exact backtracking search over such models
(``_search``); for s = 1 it enumerates connected centre sets instead
(``_star_search``), as a K_{1,t} model is a connected set with t vertices
next to it.  For s >= 2 each atom first gets one deterministic contraction
probe (``_probe``): it contracts edges down to s + t super-vertices and
splits those by the exact zero-slack test, and a hit is a model found at
zero search nodes; a miss leaves the search to run as it would without it.
``oracle_has_minor`` is an independent brute-force check used to validate
both on small hosts; it enumerates branch-class assignments up to the twin
symmetry of the pattern, one per orbit.  Witnesses are always re-verified
before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, islice
from math import comb, factorial, prod

import numpy as np

from .graph import Graph, bits, closure, closure_nbr, components, mask_of


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
    searched: branch-set search nodes for s >= 2, connected centre sets
    examined for s = 1; a contraction probe is not a node.
    ``atoms_searched`` counts the atoms that reached ``_probe`` and
    ``_search``, or ``_star_search`` (atoms with too few vertices or, for
    s >= 2, too low a circuit rank to hold the minor are skipped; an atom
    the probe answers, or for s = 1 the root bound decides, at zero nodes
    still counts)."""

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
    nbrs = []
    for i, m in enumerate(masks):
        reach, nbr = closure_nbr(g.adj, m & -m, m)
        if reach != m:
            return f"branch set {i} is not connected in the host"
        nbrs.append(nbr)
    for i in range(q.s):
        for j in range(q.t):
            if not (nbrs[i] & masks[q.s + j]):
                return f"no host edge between side1 set {i} and side2 set {j}"
    return None


def verify_model(g: Graph, model: BranchModel, q: MinorQuery) -> bool:
    return model_violation(g, model, q) is None


def _search(g: Graph, q: MinorQuery, within: int, budget: int | None) -> MinorSearch:
    """Exact search for a K_{s,t} branch model in the subgraph of ``g``
    induced by the vertex mask ``within``.

    Backtracks, with an explicit stack, over assignments of vertices to one
    of the s + t branch sets or to an unused pool.  At each node the
    branching vertex is an undecided vertex with the fewest candidate sets,
    highest degree inside ``within`` and lowest id breaking ties (fail-first
    branching, ties by degree as in DSATUR).  Its children are, in order:
    open the first empty side-1 set, open the first empty side-2 set, join
    each non-empty set it can still reach in ascending index, leave it
    unused; at zero slack only the opens it fits (see below).  Sets are
    opened lowest index first within a side, which breaks the
    set-relabelling symmetry; with s == t the first set opened goes to
    side 1.  All prunes are sound, so NOT_FOUND is an exhaustiveness
    certificate.  ``budget`` caps node expansions; exceeding it yields
    BUDGET_EXHAUSTED.  Deterministic: equal inputs explore the identical
    tree.  The model it returns is not yet verified; ``find_kst_minor``
    checks it on the host.

    Completeness of the order: the branching vertex and the children of a
    node depend only on the node's partial assignment, never on the path
    that reached it.  So the child order only changes the order in which
    the tree is walked: a NOT_FOUND search visits the same nodes under any
    child order, and a FOUND search stops at a witness either way.  Any
    choice of branching vertex is complete, because every option left to
    that vertex is a child: a set it cannot reach through undecided
    vertices can never hold it together with that set's committed vertices
    in one connected set, and the empty sets of one side are
    interchangeable, so opening the first of them covers opening any.  At
    zero slack the options dropped hold no model (argued below).

    Closures carried across nodes: a node inherits its parent's closure
    (the component of a set's lowest vertex inside the set plus the
    undecided vertices) and recomputes it only for a set just opened and for
    the sets whose closure held the vertex just decided when that vertex
    went elsewhere.  This is sound: when the vertex joins set c, the mask c
    may grow in (its vertices plus the undecided ones) does not change, and
    the vertex already lay in c's closure, so that closure stays; removing a
    vertex from outside a component leaves that component as it was.

    Liveness from the known side: an unlinked cross pair (a, b) where a's
    closure is known is tested before any stale closure is computed, and
    pruned when the neighbourhood of a's closure misses b's vertices.  This
    needs no closure of b, and it is sound: a's closure holds every
    undecided vertex next to it.  Say some edge joins a's closure to b's
    closure, ending at y in b's closure.  If y is in b, the test passes.
    Otherwise y is undecided, so y lies in a's closure.  Walk inside b's
    closure from y to b's lowest vertex, up to the first vertex of b: every
    vertex before it is undecided and next to a's closure, so it lies in
    a's closure too, and that first vertex of b is in the neighbourhood of
    a's closure.  So a pair this test prunes has no edge between the two
    closures, and the full liveness check below would prune it as well.
    (Growing from that neighbourhood inside b's vertices plus the undecided
    ones reaches b only through a vertex of b already in the neighbourhood,
    so the growth would decide nothing more.)  Afterwards the stale closures
    are computed with the split check and every pair is checked as before.
    A node pruned in this order is pruned in the old one (by the split check
    or by liveness) and conversely, so the tree is the same node for node.

    Zero slack: a node's slack is its undecided vertex count minus its empty
    set count.  Below zero the node is dead, as every empty set needs a
    vertex of its own.  At zero each vertex of the undecided set U must open
    one empty set, so no vertex stays unused and no committed set grows
    again.  A completion of the node is then a split of U into U1 and U2,
    with |U1| = e1 the number of empty side-1 sets, such that (a) every
    committed cross pair has a host edge, (d) every committed set is
    connected on its own, (b) each vertex of U1 is next to every committed
    side-2 set (it fits side 1) and each vertex of U2 fits side 2 likewise,
    and every U1-U2 pair is a host edge.  By the last clause two vertices of
    U with no edge between them go to the same side, so each component of
    the complement of G[U] goes whole to a side it fits; conversely any such
    placement meets (b) and the last clause.  (e) A subset sum over the
    component sizes, where a component that fits one side only shifts the
    bitset and one that fits both ORs in a shifted copy, decides whether e1
    vertices can go to side 1; a component that fits neither side, such as
    a single vertex that fits neither, kills the node at once.  The node is
    dropped unless (a), (d) and (e) pass, and (c) the branching vertex gets
    no join and no unused child, and it opens a side only if it fits that
    side.  A child of a zero-slack node opens a set with a vertex that
    fits, so its slack stays zero, the new set is one vertex and it is
    linked to every committed set across.  So (a) and (d) are tested only
    where the slack first reaches zero (at the root, or after a join or an
    unused move), the subset sum at every zero-slack node, and at zero
    slack the liveness tests, which look only at unlinked pairs, are
    skipped.

    The zero-slack test is exact: a zero-slack node survives iff some
    completion exists, and a completion is a model of its subtree.  The
    branching vertex v lies in U1 or U2 of any completion and opens that
    side, which it fits, so one of its at most two children survives in
    turn (with s == t and no set committed, swapping the sides of a
    completion puts v on side 1).  So each cut subtree holds no model, the
    branching vertex of every node left is unchanged and the children left
    keep their order: the walk meets the same first model, or none, and
    only ``nodes_expanded`` drops.  Below a surviving zero-slack node the
    walk expands at most two nodes per level before it returns the model.

    Circuit rank: mu(H) = |E| - |V| + #components never rises under
    deletion or contraction (Diestel, Graph Theory, section 1.9), and
    mu(K_{s,t}) = (s - 1)(t - 1).  Let W be a node's committed and undecided
    vertices and C the component of G[W] that holds every committed set; if
    none does, the node is dead.  A model below the node is connected and
    lies inside C, so mu(G[C]) is at least the circuit rank of the subgraph
    its vertices induce.  Each branch set B is connected, with |B| - 1 +
    mu(G[B]) edges inside, so that rank is (s - 1)(t - 1) plus the waste:
    the sum of mu(G[B]) over the sets, every edge between two sets of one
    side, and e - 1 for every cross pair joined by e >= 1 edges.  Sets only
    grow, so the committed sets already pay part of the waste: max(0, e -
    |c| + 1) for a committed set c with e edges inside (at most mu(G[c]),
    and mu is monotone), every edge between two committed sets of one side,
    and e - 1 for every committed cross pair joined by e >= 1 edges.  A node
    where mu(G[C]) is below (s - 1)(t - 1) plus that waste holds no model
    and is dropped; so is a node with no set committed where no component of
    G[W] reaches (s - 1)(t - 1).  As with the zero-slack rule, only subtrees
    without a model are cut and the branching vertex and child order of
    every node left are unchanged, so the answer and the model stay the same
    and only ``nodes_expanded`` drops.  The test runs at slack above zero,
    after the other prunes; at zero slack the exact test leaves it nothing
    to cut.  The frame carries C, mu(G[C]), the waste and e - |c| + 1 per
    set: a join or an open leaves W, and so C, as it was and adds the waste
    of the edges the moved vertex brings; only an unused move walks C again,
    and when that walk cuts off pieces, their edges leave mu(G[C]) too.
    """
    s, t = q.s, q.t
    k = s + t
    need = (s - 1) * (t - 1)   # the circuit rank of K_{s,t}
    adj = g.adj
    cmask = [0] * k        # vertices committed to each branch set
    cnbr = [0] * k         # union of host neighbourhoods over each set
    by_deg: dict[int, int] = {}
    for v in bits(within):
        d = (adj[v] & within).bit_count()
        by_deg[d] = by_deg.get(d, 0) | 1 << v
    deg_classes = [by_deg[d] for d in sorted(by_deg, reverse=True)]

    def branch(und: int, parent: list) -> tuple | None:
        """Expand a node reached by the move recorded in ``parent``, the
        parent's frame: its branching vertex went to set ``parent[4]`` (-1:
        unused).  Returns the node's branching vertex, its children (set
        indices, -1 for unused; last to try first), its closures, its join
        list and its rank data; None when a prune closes the node."""
        c = parent[4]
        empty = cmask.count(0)
        slack = und.bit_count() - empty
        if slack < 0:
            return None
        # fit1 and fit2 hold the vertices that may open a side-1 or side-2
        # set: any vertex (-1) while there is slack.
        fit1 = fit2 = -1
        if not slack:
            # Zero slack: every undecided vertex opens a singleton set, so no
            # committed set grows again.
            # Forward check: a vertex opening a side-2 set must be next to
            # every committed side-1 set, and conversely.
            fit1 = und if 0 in cmask[:s] else 0
            fit2 = und if 0 in cmask[s:] else 0
            for i in range(s):
                if cmask[i]:
                    fit2 &= cnbr[i]
            for j in range(s, k):
                if cmask[j]:
                    fit1 &= cnbr[j]
            if _split(adj, und, fit1, fit2, cmask[:s].count(0)) is None:
                return None
            # A cross pair with no edge, or a committed set that is not
            # connected, is dead.  Below the node where slack first hits zero
            # every set opened is one vertex that fits, so these need
            # checking only there.  They come after the split test because
            # walking large sets costs more than that test, which kills most
            # of these nodes on large hosts.
            if c < 0 or cmask[c] & (cmask[c] - 1):
                for i in range(s):
                    if cmask[i]:
                        ni = cnbr[i]
                        for j in range(s, k):
                            if cmask[j] and not ni & cmask[j]:
                                return None
                for cm in cmask:
                    if cm & (cm - 1) and closure(adj, cm & -cm, cm) != cm:
                        return None

        # Reachability closures: a set can only ever grow inside its closure
        # through undecided vertices, so a set split across closure
        # components is dead, and a vertex outside a closure can never join.
        # The parent's closures carry over, except for a set just opened and
        # the sets whose closure held the vertex that went elsewhere (0 marks
        # a stale closure).
        reach = parent[6][:]
        nbr_reach = pnbr = parent[7]
        pjoins = parent[8]
        stale = len(pjoins)
        for d in pjoins:
            if d == c:
                stale -= 1
            else:
                reach[d] = 0
        if c >= 0 and not reach[c]:
            stale += 1
        if stale:
            if slack and stale + empty < k:
                # Some closures are known: test the unlinked cross pairs with
                # a known side before paying for the stale closures.
                for i in range(s):
                    ci = cmask[i]
                    if not ci:
                        continue
                    ri = reach[i]
                    for j in range(s, k):
                        cj = cmask[j]
                        if not cj or cnbr[i] & cj:
                            continue
                        if ri:
                            if not nbr_reach[i] & cj:
                                return None
                        elif reach[j] and not nbr_reach[j] & ci:
                            return None
            nbr_reach = pnbr[:]
            for d in range(k):
                cm = cmask[d]
                if cm and not reach[d]:
                    r, nb = closure_nbr(adj, cm & -cm, cm | und)
                    if cm & ~r:
                        return None
                    reach[d] = r
                    nbr_reach[d] = nb

        # Cross-pair liveness: an unlinked pair must still have a potential
        # host edge between the two closures.  At zero slack every pair is
        # linked already, and the exact test there leaves the rank test
        # nothing to cut, so no rank data is kept below it.
        rank = None
        if slack:
            for i in range(s):
                if not cmask[i]:
                    continue
                for j in range(s, k):
                    if cmask[j] and not (cnbr[i] & cmask[j]):
                        if not (nbr_reach[i] & reach[j]):
                            return None

            # Circuit rank: the component ``comp`` of the committed and
            # undecided vertices that holds every committed set (0 while none
            # is committed), its circuit rank ``mu`` (the most any component
            # has while none is committed), the waste the committed sets
            # already pay, and e - |c| + 1 for each set c with e edges inside.
            comp, mu, waste, xs = parent[9]
            vbit = parent[1]
            if c < 0:
                if not comp:
                    mu = max(_edges(adj, m) - m.bit_count() + 1
                             for m in components(adj, und))
                elif comp & vbit:
                    # The vertex left: walk what remains of the component and
                    # drop the pieces cut off from the committed sets.
                    x = 0
                    for cm in cmask:
                        x |= cm
                    rest = comp ^ vbit
                    kept = closure(adj, x & -x, rest)
                    if x & ~kept:
                        return None
                    cut = rest ^ kept
                    mu += (1 + cut.bit_count() - (parent[2] & comp).bit_count()
                           - _edges(adj, cut))
                    comp = kept
            elif not comp:
                comp = closure(adj, vbit, und | vbit)
                mu = _edges(adj, comp) - comp.bit_count() + 1
            elif not comp & vbit:
                return None
            else:
                av = parent[2]
                old = parent[5]
                side = c < s
                for j in range(k):
                    hit = av & cmask[j]
                    if hit and j != c:
                        waste += hit.bit_count()
                        # a cross pair's first edge is the one the minor needs
                        if (j < s) != side and not old & cmask[j]:
                            waste -= 1
                if cmask[c] != vbit:
                    x = xs[c]
                    xs = xs[:]
                    xs[c] = y = x + (av & cmask[c]).bit_count() - 1
                    if y > 0:
                        waste += y - max(x, 0)
                    elif x > 0:
                        waste -= x
            if mu < need + waste:
                return None
            rank = comp, mu, waste, xs

        # ge[j] holds the undecided vertices inside at least j closures; the
        # empty sets a vertex may open are the same for every vertex.
        ge = [und]
        for r in reach:
            if r:
                ge.append(0)
                for j in range(len(ge) - 1, 0, -1):
                    ge[j] |= ge[j - 1] & r
        ge.append(0)
        j = 0
        while not (fewest := ge[j] & ~ge[j + 1]):
            j += 1
        for dm in deg_classes:
            pick = fewest & dm
            if pick:
                break
        vbit = pick & -pick
        v = vbit.bit_length() - 1

        joins = [c for c in range(k - 1, -1, -1) if reach[c] & vbit]
        # At zero slack v must open a set it fits.
        todo = [-1, *joins] if slack else []
        e2 = next((c for c in range(s, k) if not cmask[c]), None)
        # With s == t the two sides are interchangeable, so the very first
        # set opened can be forced onto side 1.
        if e2 is not None and vbit & fit2 and not (s == t and not any(cmask)):
            todo.append(e2)
        e1 = next((c for c in range(s) if not cmask[c]), None)
        if e1 is not None and vbit & fit1:
            todo.append(e1)
        return v, todo, reach, nbr_reach, joins, rank

    nodes = 0
    # Frames: [undecided after v, 1 << v, adj[v], children left to try,
    # set holding v now (-1: none), that set's cnbr before v joined, the
    # node's reach, nbr_reach, join list and rank data].  A child builds its
    # own lists from its parent's, so the lists in a frame never change.  The
    # root's parent is a frame whose vertex went unused and whose sets are
    # all empty.
    stack: list[list] = []
    und = within
    frame = [und, 0, 0, [], -1, 0, [0] * k, [0] * k, [], (0, 0, 0, [0] * k)]
    while True:
        if budget is not None and nodes >= budget:
            return MinorSearch(SearchStatus.BUDGET_EXHAUSTED, None, nodes, 1)
        nodes += 1

        # Early success: current sets already witness the minor.
        if (all(cmask)
                and all(cnbr[i] & cmask[j] for i in range(s) for j in range(s, k))
                and all(closure(adj, cm & -cm, cm) == cm for cm in cmask)):
            side1 = sorted((frozenset(bits(cm)) for cm in cmask[:s]), key=min)
            side2 = sorted((frozenset(bits(cm)) for cm in cmask[s:]), key=min)
            return MinorSearch(SearchStatus.FOUND,
                               BranchModel(tuple(side1), tuple(side2), g), nodes, 1)

        node = branch(und, frame) if und else None
        if node is not None:
            v, todo, reach, nbr_reach, joins, rank = node
            stack.append([und ^ (1 << v), 1 << v, adj[v], todo, -1, 0,
                          reach, nbr_reach, joins, rank])

        # Undo the child last tried and apply the next one, dropping frames
        # whose children are all tried.
        while stack:
            frame = stack[-1]
            nxt, vbit, av, todo, c, old, _, _, _, _ = frame
            if c >= 0:
                cmask[c] ^= vbit
                cnbr[c] = old
            if todo:
                c = frame[4] = todo.pop()
                if c >= 0:
                    frame[5] = cnbr[c]
                    cmask[c] |= vbit
                    cnbr[c] |= av
                und = nxt
                break
            stack.pop()
        else:
            return MinorSearch(SearchStatus.NOT_FOUND, None, nodes, 1)


def _split(adj, und: int, fit1: int, fit2: int, e1: int) -> int | None:
    """The exact zero-slack test: a set of e1 vertices of ``und``, all in
    ``fit1``, whose complement in ``und`` lies in ``fit2`` and has a host
    edge to each of them, or None when there is no such set.

    Two vertices with no edge between them go to one side, so each component
    of the complement of G[und] goes whole to a side it fits, and any such
    placement has an edge across every pair.  A component that fits neither
    side rules every split out.  Bit x of ``sums`` is set when x vertices of
    the components that fit both sides can go to side 1; with the sums
    before each such component kept, the split is read back from the last
    one down."""
    sums = 1
    side1 = 0       # the components that fit side 1 only
    both = []       # (component, sums before it) for those that fit both
    rest = und
    while rest:
        comp = todo = rest & -rest
        rest ^= comp
        while todo:
            u = todo & -todo
            todo ^= u
            new = rest & ~adj[u.bit_length() - 1]
            rest ^= new
            todo |= new
            comp |= new
        if comp & ~fit2:
            if comp & ~fit1:
                return None
            side1 |= comp
        elif not comp & ~fit1:
            both.append((comp, sums))
            sums |= sums << comp.bit_count()
    x = e1 - side1.bit_count()
    if x < 0 or not sums >> x & 1:
        return None
    for comp, before in reversed(both):
        if not before >> x & 1:
            side1 |= comp
            x -= comp.bit_count()
    return side1


def _probe(g: Graph, q: MinorQuery, within: int) -> BranchModel | None:
    """One contraction probe for a K_{s,t} model in the connected subgraph of
    ``g`` induced by ``within``, which has at least s + t vertices: a model,
    not yet verified, or None.

    Super-vertices are named by a representative vertex and start as the
    single vertices.  While more than s + t remain, the one of lowest degree
    (lowest id on ties) is contracted into the neighbour it shares the
    fewest neighbours with (ties by lower degree, then lower id).
    Contracting uv lowers the circuit rank by |N(u) n N(v)|, so the rule
    keeps as many cycles as one step can.  The s + t super-vertices left
    then go through ``_split`` with every one fitting either side.  The
    lowest degree is read from masks of the super-vertices of each degree,
    as ``listcolor.find_l_coloring`` reads its ``exact`` masks, and a
    contraction touches only the neighbours of the one contracted.  Their
    number, the lowest degree, is at most the mean 2|E| / m with m
    super-vertices left, so a probe costs O(|E| log |atom|) operations on
    masks as wide as the host and never rescans every vertex."""
    adj, alive, part = g.adj, within, {}
    if within.bit_count() > q.s + q.t:
        adj, alive, part = _contract(adj, within, q.s + q.t)
    side1 = _split(adj, alive, alive, alive, q.s)
    if side1 is None:
        return None
    sides: tuple[list, list] = ([], [])
    for r in bits(alive):
        sides[not side1 >> r & 1].append(frozenset(bits(part.get(r, 1 << r))))
    return BranchModel(tuple(sorted(sides[0], key=min)),
                       tuple(sorted(sides[1], key=min)), g)


def _contract(adj, within: int, k: int) -> tuple[dict, int, dict]:
    """``_probe``'s contractions of the connected subgraph induced by
    ``within`` down to k super-vertices: their neighbour rows over
    representatives, the mask of the representatives, and the vertices of
    each super-vertex of more than one."""
    nb = {}         # each super-vertex's neighbours, by representative
    by_deg = [0] * within.bit_count()
    rest = within
    while rest:
        b = rest & -rest
        rest ^= b
        v = b.bit_length() - 1
        nb[v] = row = adj[v] & within
        by_deg[row.bit_count()] |= b
    part = {}       # the vertices of each super-vertex of more than one
    alive = within
    # Contraction keeps the atom connected, so while more than k >= 4
    # super-vertices are left none has degree 0, and a step lowers the least
    # degree by at most one: common neighbours lose one, and the merged
    # vertex keeps the other neighbours of the one contracted.
    lo = 1
    for _ in range(within.bit_count() - k):
        while not by_deg[lo]:
            lo += 1
        vbit = by_deg[lo] & -by_deg[lo]
        by_deg[lo] ^= vbit
        v = vbit.bit_length() - 1
        nv = nb.pop(v)
        best = None
        rest = nv
        while rest:
            b = rest & -rest
            rest ^= b
            w = b.bit_length() - 1
            row = nb[w]
            key = ((row & nv).bit_count(), row.bit_count(), w)
            if best is None or key < best:
                best = key
        u = best[2]
        ubit = 1 << u
        nu = nb[u]
        common = nu & nv
        only = nv & ~nu ^ ubit      # the neighbours of v that u gains
        rest = only
        while rest:
            b = rest & -rest
            rest ^= b
            nb[b.bit_length() - 1] ^= vbit | ubit
        rest = common
        while rest:
            b = rest & -rest
            rest ^= b
            w = b.bit_length() - 1
            row = nb[w]
            nb[w] = row ^ vbit
            d = row.bit_count()
            by_deg[d] ^= b
            by_deg[d - 1] |= b
        by_deg[nu.bit_count()] ^= ubit
        nb[u] = nu = (nu | only) ^ vbit
        by_deg[nu.bit_count()] |= ubit
        part[u] = part.pop(u, ubit) | part.pop(v, vbit)
        alive ^= vbit
        if lo > 1:
            lo -= 1
    return nb, alive, part


def _edges(adj, m: int) -> int:
    """The number of host edges inside the vertex mask ``m``."""
    total = 0
    rest = m
    while rest:
        b = rest & -rest
        total += (adj[b.bit_length() - 1] & m).bit_count()
        rest ^= b
    return total >> 1


def _star_search(g: Graph, t: int, within: int, budget: int | None) -> MinorSearch:
    """Exact search for a K_{1,t} model in the subgraph of ``g`` induced by
    the vertex mask ``within``, by enumerating connected centre sets.

    Degrees are taken inside ``within``.  First a root bound may answer
    NOT_FOUND at zero nodes.  Then single vertices are scanned in ascending
    id, each one node, up to the first of degree at least t.  Then the
    connected sets of 2 to |within| - t vertices are enumerated, each one
    node, up to the first set C with |N(C)| >= t.  A found model is the
    centre C and the t lowest-id vertices of N(C) as singletons; it is not
    yet verified, ``find_kst_minor`` checks it on the host.  ``budget`` caps
    the nodes as in ``_search``.  Asking for many leaves is the max-leaf
    spanning tree problem, so the enumeration is exponential in the worst
    case.

    Normal form: a connected C with t vertices of N(C) outside it is a
    K_{1,t} model with those vertices as leaf sets.  Conversely, in any
    model each leaf set has an edge to the centre C, ending in a vertex of
    N(C) inside that leaf set; the leaf sets are disjoint, so |N(C)| >= t.
    So a model exists iff some connected C has |N(C)| >= t, and as N(C)
    misses C, such a C has at most |within| - t vertices.

    One visit per set (Wernicke's ESU): a set P is grown from its lowest
    vertex r.  Its children take the vertices w of its extension in
    ascending order; each w leaves P's extension once taken, and the child
    P + w extends by what is left plus the neighbours of w above r outside
    the closed neighbourhood N[P].  Every set under the child that took w
    holds w.  Every set under a later child avoids w: w lies in N[P], so no
    later extension gains it back.  So no set is visited twice.  Call a
    vertex dropped at a node when an earlier sibling of the node or of one
    of its ancestors took it.  Then every vertex of N(P) above r is in P's
    extension or dropped.  Take a connected S with lowest vertex r that
    holds P and no vertex dropped at P.  If S != P, some vertex of S - P is
    next to P, so it is in P's extension; the first such vertex taken gives
    a child that S holds, and S holds no vertex dropped at that child.  By
    induction on |S - P|, S is visited, starting from the root {r}.

    The bound: a connected C induces at least |C| - 1 edges, so at most
    sum_{v in C} d(v) - 2(|C| - 1) = 2 + sum_{v in C} (d(v) - 2) edges
    leave it, and |N(C)| is at most that.  Summing only the positive terms
    over all of ``within`` bounds every C at once, so when
    2 + sum_{d(v) > 2} (d(v) - 2) < t no centre exists.  A vertex of degree
    at least t makes the sum at least t, so the scan that stops at such a
    vertex never needs the rest of the sum.
    """
    adj = g.adj
    excess = 0
    for i, v in enumerate(bits(within)):
        nb = adj[v] & within
        d = nb.bit_count()
        if d >= t:
            if budget is not None and i >= budget:
                return MinorSearch(SearchStatus.BUDGET_EXHAUSTED, None, budget, 1)
            return _star_model(g, 1 << v, nb, t, i + 1)
        if d > 2:
            excess += d - 2
    if 2 + excess < t:
        return MinorSearch(SearchStatus.NOT_FOUND, None, 0, 1)
    nodes = within.bit_count()
    if budget is not None and nodes > budget:
        return MinorSearch(SearchStatus.BUDGET_EXHAUSTED, None, budget, 1)
    cap = nodes - t
    if cap < 2:
        return MinorSearch(SearchStatus.NOT_FOUND, None, nodes, 1)
    for r in bits(within):
        above = within & ~((2 << r) - 1)
        nb = adj[r] & within
        # Frames: [set, extension left, closed neighbourhood of the set, size].
        stack = [[1 << r, nb & above, nb | 1 << r, 1]]
        while stack:
            frame = stack[-1]
            ext = frame[1]
            if not ext:
                stack.pop()
                continue
            w = ext & -ext
            ext ^= w
            frame[1] = ext
            if budget is not None and nodes >= budget:
                return MinorSearch(SearchStatus.BUDGET_EXHAUSTED, None, nodes, 1)
            nodes += 1
            sub = frame[0] | w
            seen = frame[2]
            aw = adj[w.bit_length() - 1] & within
            out = (seen | aw) & ~sub
            if out.bit_count() >= t:
                return _star_model(g, sub, out, t, nodes)
            if frame[3] + 1 < cap:
                stack.append([sub, ext | aw & above & ~seen, seen | aw, frame[3] + 1])
    return MinorSearch(SearchStatus.NOT_FOUND, None, nodes, 1)


def _star_model(g: Graph, centre: int, out: int, t: int, nodes: int) -> MinorSearch:
    """The K_{1,t} model of centre set ``centre`` with the t lowest vertices
    of its neighbourhood ``out`` as leaves."""
    leaves = tuple(frozenset((v,)) for v in islice(bits(out), t))
    model = BranchModel((frozenset(bits(centre)),), leaves, g)
    return MinorSearch(SearchStatus.FOUND, model, nodes, 1)


# --- decomposition along small clique separators -------------------------


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
    so it is again 2-connected and can be split further.  A piece P with
    2 * min degree of G[P] >= |P| + 1 has no such edge (see ``kst_atoms``),
    so it is kept without looking for one."""
    out = []
    todo = [block]
    while todo:
        m = todo.pop()
        if 2 * min((adj[v] & m).bit_count() for v in bits(m)) > m.bit_count():
            out.append(m)
            continue
        pair = _separating_edge(adj, m)
        if pair:
            todo += [c | pair for c in components(adj, m & ~pair)]
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
        atoms = components(adj, (1 << n) - 1)
    else:
        # 2 * min degree >= n >= 3: the host is 2-connected, one block
        if n >= 3 and 2 * min(a.bit_count() for a in adj) >= n:
            atoms = [(1 << n) - 1]
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
    Every atom is connected, so ``find_kst_minor`` skips an atom whose
    circuit rank |E| - |atom| + 1 is below (s - 1)(t - 1).

    A degree bound skips both scans on dense hosts.  Let a graph on n
    vertices have minimum degree delta with 2 * delta >= n + k - 2.  After
    deleting any k - 1 vertices, two non-adjacent survivors have degree sum
    at least 2 * (delta - k + 1) >= n - k among the survivors.  That is more
    than the n - k - 1 other survivors, so the two share a neighbour, and
    the survivors stay connected (deleting fewer vertices leaves more
    slack).  With k = 2, a host with n >= 3 and 2 * delta >= n is its own
    single block; with k = 3, a piece P with 2 * delta(G[P]) >= |P| + 1 has
    no separating edge.
    """
    return [tuple(bits(m)) for m in _atom_masks(g.adj, g.n, s)]


def find_kst_minor(g: Graph, q: MinorQuery, budget: int | None = None) -> MinorSearch:
    """Exact search for a K_{s,t} branch model in ``g``, one atom at a time.

    ``g`` is split into atoms along clique separators of order less than s
    (see ``kst_atoms``) and each atom is searched in turn.  An atom with
    fewer than s + t vertices cannot hold the minor and is skipped at zero
    nodes, and so, for s >= 2, is an atom whose circuit rank |E| - |atom| +
    1 is below (s - 1)(t - 1), the circuit rank of K_{s,t}: an atom is
    connected, and the circuit rank never rises under deletion or
    contraction (``_search`` applies the same bound at every node).
    ``budget`` caps the nodes summed over all atoms; exceeding it yields
    BUDGET_EXHAUSTED, and a budget below 1 raises ValueError.  A found model
    is re-verified on ``g``, and a model that fails raises RuntimeError.

    For s >= 2, each atom that passes both filters first gets one
    contraction probe (``_probe``), and ``_search`` runs only if it misses.
    The probe contracts edges of the atom, each time the lowest-degree
    super-vertex into the neighbour it shares the fewest neighbours with,
    until s + t super-vertices remain, and splits those by the exact
    zero-slack test that ``_search`` runs at its zero-slack nodes
    (``_split``): each component of the complement goes whole to one side,
    and some of the components must hold exactly s super-vertices.  The
    rule is fixed and uses no randomness, so equal inputs give equal
    reports.

    Probe soundness.  A hit is a model: the super-vertices partition the
    atom, so they are disjoint and non-empty; each is connected, as a
    contraction joins two connected sets along an edge; two super-vertices
    are adjacent exactly when a host edge joins them, and the split puts
    two super-vertices with no edge between them on one side, so every
    cross pair has a host edge.  The model goes through the same
    re-verification as a search model.  A miss changes nothing: ``_search``
    then runs on the atom as it would with no probe, with the same budget
    left, and the atoms keep their order.  An atom with no model can only
    miss, so a NOT_FOUND report, and every report in which no probe hits,
    keeps its status, model, nodes and atom count.  The budget is untouched:
    a probe is not a search node, takes nothing from ``budget`` and adds
    nothing to ``nodes_expanded``, and it is polynomial work, at most
    |atom| - s - t contractions that each touch the neighbours of the
    super-vertex contracted, then one split test.  A hit reports the nodes
    of the earlier atoms and counts its own atom as searched; where the
    search of that atom would have run out of budget, it answers FOUND
    instead of BUDGET_EXHAUSTED.

    For s >= 2, ``_search`` backtracks over branch sets inside an atom: it
    branches fail-first (fewest candidate sets, then highest degree in the
    atom, then lowest id) and opens new branch sets before joining existing
    ones; its docstring argues why that order keeps the search complete.
    For s = 1 the atoms are the components and ``_star_search`` enumerates
    connected centre sets C, each once, until |N(C)| >= t; a node is one
    set examined, and the model is C with the t lowest-id vertices of N(C)
    as singleton leaves.  A root bound on the degrees decides some atoms at
    zero nodes; its docstring argues the normal form, the single visit per
    set and the bound.

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
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    s, t = q.s, q.t
    k = s + t
    if g.n < k or g.edge_count() < s * t:
        return MinorSearch(SearchStatus.NOT_FOUND, None, 0, 0)
    adj = g.adj
    nodes = searched = 0
    need = (s - 1) * (t - 1)
    for m in _atom_masks(adj, g.n, s):
        # An atom is connected, so it holds the minor only if its circuit
        # rank |E| - |atom| + 1 reaches (s - 1)(t - 1); for s = 1 that is
        # any atom of t + 1 vertices.
        if m.bit_count() < k or (s > 1 and _edges(adj, m) - m.bit_count() + 1 < need):
            continue
        left = None if budget is None else budget - nodes
        if s == 1:
            res = _star_search(g, t, m, left)
        elif (model := _probe(g, q, m)) is not None:
            res = MinorSearch(SearchStatus.FOUND, model, 0, 1)
        else:
            res = _search(g, q, m, left)
        nodes += res.nodes_expanded
        searched += 1
        if res.status is SearchStatus.BUDGET_EXHAUSTED:
            return MinorSearch(res.status, None, nodes, searched)
        if res.status is SearchStatus.FOUND:
            bad = model_violation(g, res.model, q)
            if bad is not None:
                raise RuntimeError(f"search produced an invalid model: {bad}")
            return MinorSearch(res.status, res.model, nodes, searched)
    return MinorSearch(SearchStatus.NOT_FOUND, None, nodes, searched)


# --- independent oracle -------------------------------------------------

_ORACLE_MAX_N = 9
_CACHE_ROW_LIMIT = 1 << 20
_CHUNK = 1 << 13


def _surjections(n: int, k: int) -> int:
    """Number of assignments of n vertices to k non-empty classes plus an
    unused pool, by inclusion-exclusion over the classes left empty."""
    return sum((-1) ** j * comb(k, j) * (k + 1 - j) ** n for j in range(k + 1))


def _twin_groups(f: Graph) -> list[list[int]]:
    """f's vertices split into twin classes, each in ascending order and the
    classes in order of their lowest vertex.  Vertices u and v are twins when
    N(u) - v == N(v) - u: the same open neighbourhood (the sides of K_{s,t})
    or the same closed one (K_j).  Twinship is an equivalence, so comparing
    with a class's first vertex suffices: each kind is transitive, and no
    vertex v has both a non-adjacent twin u and an adjacent twin w, since w
    in N(v) = N(u) puts u in N[w] = N[v], making u adjacent to v."""
    groups: list[list[int]] = []
    for v in range(f.n):
        for grp in groups:
            u = grp[0]
            if f.adj[u] & ~(1 << v) == f.adj[v] & ~(1 << u):
                grp.append(v)
                break
        else:
            groups.append([v])
    return groups


def _assignment_chunks(n: int, groups: tuple[int, ...]):
    """Every assignment of n vertices to k = sum(groups) non-empty classes
    plus an unused pool, ordered within each group, as ``(k, rows)`` arrays
    of per-class vertex bitmasks holding at most ``_CHUNK`` rows each.

    Classes are numbered group by group; within a group the classes appear
    in order of their lowest vertex.  Assignments grow one vertex at a time
    on an explicit stack; a partial one is dropped as soon as it has more
    empty classes than vertices left to place, or a class opened before its
    group predecessor.  Classes are disjoint and non-empty, so their lowest
    vertices differ: of the prod(g!) assignments that permute classes within
    groups exactly one is ordered, and the table holds
    ``_surjections(n, k) // prod(g!)`` rows.  ``groups = (1,) * k`` gives
    every assignment.  ``oracle_has_minor`` says why one ordered
    representative per orbit suffices."""
    k = sum(groups)
    opens = set(accumulate(groups, initial=0))
    follow = np.array([c for c in range(k) if c not in opens], dtype=np.int64)
    stack = [(0, np.zeros((k, 1), dtype=np.int64))]
    while stack:
        v, rows = stack.pop()
        if v == n:
            yield rows
            continue
        r = rows.shape[1]
        grown = np.tile(rows, (1, k + 1))
        for c in range(k):
            grown[c, (c + 1) * r:(c + 2) * r] |= 1 << v
        keep = (grown == 0).sum(axis=0) <= n - v - 1
        if follow.size:
            keep &= ((grown[follow] == 0) | (grown[follow - 1] != 0)).all(axis=0)
        grown = grown[:, keep]
        for start in range(0, grown.shape[1], _CHUNK):
            stack.append((v + 1, grown[:, start:start + _CHUNK]))


@lru_cache(maxsize=64)
def _assignment_masks(n: int, groups: tuple[int, ...]) -> np.ndarray:
    """All rows of ``_assignment_chunks(n, groups)`` as one ``(k, rows)``
    array: row c holds class c's vertex mask in every assignment.  Cached;
    graph-independent.  The cache holds every (n, groups) shape that
    K_{s,t} queries on 5-7 vertex hosts use (27 of them) with room to spare.
    The chunks come out column-major; the checks gather and reduce whole
    class rows, which is faster on a row-major copy."""
    return np.ascontiguousarray(np.concatenate(list(_assignment_chunks(n, groups)), axis=1))


@lru_cache(maxsize=256)
def _pattern_plan(n: int, adj: tuple[int, ...]
                  ) -> tuple[tuple[int, ...], tuple[np.ndarray, np.ndarray], int]:
    """For pattern rows ``adj`` on an n-vertex host: the twin group sizes,
    the classes at the two ends of each pattern edge, relabelled so each
    group is contiguous, and the row count of its ordered assignment
    table."""
    f = Graph(len(adj), adj)
    twins = _twin_groups(f)
    groups = tuple(len(grp) for grp in twins)
    pos = {v: i for i, v in enumerate(v for grp in twins for v in grp)}
    edges = [(pos[a], pos[b]) for a, b in f.edges()]
    ends = (np.array([a for a, _ in edges], dtype=np.intp),
            np.array([b for _, b in edges], dtype=np.intp))
    rows = _surjections(n, f.n) // prod(factorial(g) for g in groups)
    return groups, ends, rows


@lru_cache(maxsize=None)
def _subset_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over the subsets 0..2^n - 1 of n vertices: their masks, their lowest
    bits, and a ``(2^n, n)`` table of the vertices each holds."""
    masks = np.arange(1 << n, dtype=np.int64)
    holds = (masks[:, None] >> np.arange(n)) & 1 == 1
    return masks, masks & -masks, holds


def _mask_luts(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-subset connectivity and neighbourhood lookup tables for g.  A
    subset is connected iff the walk from its lowest vertex, growing by
    neighbours inside the subset, covers it within n - 1 steps; a step
    looks the walk up in the closed-neighbourhood table ``nbr | masks``."""
    masks, reach, holds = _subset_tables(g.n)
    nbr = np.bitwise_or.reduce(np.where(holds, np.array(g.adj, dtype=np.int64), 0), axis=1)
    closed = nbr | masks
    for _ in range(g.n - 1):
        reach = closed[reach] & masks
    conn = reach == masks
    conn[0] = False
    return conn, nbr


def _check_assignments(conn, nbr, table, ends) -> bool:
    """Whether some row of the ``(k, rows)`` table has every class connected
    and a host edge between the classes ``ends[0][e]`` and ``ends[1][e]`` at
    the ends of every pattern edge e: a fixed number of array operations
    whatever k and |E| are."""
    ok = conn[table].all(axis=0)
    # One early exit, where most rows of a large streamed chunk have died.
    if not ok.any():
        return False
    a, b = ends
    return bool((ok & (nbr[table[a]] & table[b]).all(axis=0)).any())


def oracle_has_minor(g: Graph, f: Graph) -> bool:
    """Brute-force minor test: enumerate assignments of g's vertices to
    |V(f)| non-empty branch classes plus an unused pool, and accept if some
    assignment has all classes connected with a host edge for every edge of
    f.  Exact by construction; host capped at 9 vertices.

    Only assignments ordered within f's twin groups are enumerated (see
    ``_assignment_chunks``).  This loses no model: swapping two twins of f
    is an automorphism of f, so permuting the classes of a model within a
    twin group gives a model again, and every model's orbit holds one
    ordered assignment.  Queries whose ordered table has at most
    ``_CACHE_ROW_LIMIT`` rows use a cached ``(k, rows)`` table; larger
    ones, which arise only on 9-vertex hosts with 5 to 8 classes and few
    twins, stream it in chunks.  Either way a table is tested by
    ``_check_assignments`` in a fixed number of array operations."""
    if g.n > _ORACLE_MAX_N:
        raise ValueError(f"oracle host cap is {_ORACLE_MAX_N} vertices, got {g.n}")
    k = f.n
    if k == 0:
        return True
    if g.n < k:
        return False
    groups, ends, rows = _pattern_plan(g.n, f.adj)
    conn, nbr = _mask_luts(g)
    if rows <= _CACHE_ROW_LIMIT:
        return _check_assignments(conn, nbr, _assignment_masks(g.n, groups), ends)
    return any(_check_assignments(conn, nbr, chunk, ends)
               for chunk in _assignment_chunks(g.n, groups))
