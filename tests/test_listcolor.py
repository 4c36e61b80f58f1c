"""List coloring and choosability.

The exact checker is cross-validated three ways:

* against an independent brute-force enumerator (`brute_choosable`) that
  enumerates every assignment of k-subsets drawn from a k·|V|-color
  universe, with no kernelization and no orbit reductions — only the
  classical universe bound, proved separately from the implementation;
* against the classical characterization of 2-choosable graphs
  (K_1 / even cycles / theta graphs after pruning degree-1 vertices),
  which pins down every small named case used here;
* by re-solving every emitted witness with the solver and demanding
  exhaustion (None).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from kstlab.construction import build_counterexample, clique_gadget
from kstlab.graph import (
    Graph,
    bits,
    complete,
    complete_bipartite,
    cycle,
    empty,
    induced_subgraph,
    path,
    petersen,
)
import kstlab.listcolor as lc
from kstlab.listcolor import (
    ChoosabilityCapError,
    ChoosabilityVerdict,
    ListAssignment,
    find_l_coloring,
    is_k_choosable,
    uniform_lists,
    verify_coloring,
)

from conftest import graph_from_edge_code, graphs


# --- independent brute-force oracle --------------------------------------


def _extendable(g: Graph, lists, colors, v):
    if v == g.n:
        return True
    for c in lists[v]:
        ok = True
        for u in range(v):
            if g.has_edge(u, v) and colors[u] == c:
                ok = False
                break
        if ok:
            colors[v] = c
            if _extendable(g, lists, colors, v + 1):
                return True
    return False


def brute_choosable(g: Graph, k: int) -> bool:
    """Try every k-subset assignment from a k·n universe, no reductions.

    Any non-choosable graph has a bad assignment using at most k·n
    distinct colors in total (collapse unused colors), so exhausting this
    finite family decides choosability.
    """
    universe = range(k * g.n) if g.n else range(k)
    subsets = list(itertools.combinations(universe, k))
    colors = [None] * g.n
    for assignment in itertools.product(subsets, repeat=g.n):
        if not _extendable(g, assignment, colors, 0):
            return False
    return True


# --- solver ----------------------------------------------------------------


def test_find_l_coloring_simple_yes():
    g = cycle(4)
    got = find_l_coloring(g, uniform_lists(4, [0, 1]))
    assert got == (0, 1, 0, 1)


def test_find_l_coloring_simple_no():
    assert find_l_coloring(cycle(3), uniform_lists(3, [0, 1])) is None


def test_find_l_coloring_respects_lists():
    g = path(3)  # 0-1-2
    lists = ListAssignment.of_lists([[5], [5, 7], [5, 7]])
    got = find_l_coloring(g, lists)
    # 5 at the ends is forced to propagate 7 into the middle
    assert got == (5, 7, 5)
    assert verify_coloring(g, lists, got)
    # middle and right forced equal: unsolvable
    dead = ListAssignment.of_lists([[5], [5, 7], [7]])
    assert find_l_coloring(g, dead) is None


def test_find_l_coloring_empty_list_blocks():
    g = path(2)
    lists = ListAssignment.of_lists([[1], []])
    assert find_l_coloring(g, lists) is None


def test_find_l_coloring_empty_graph():
    assert find_l_coloring(empty(0), ListAssignment(())) == ()


def test_find_l_coloring_rejects_a_list_count_mismatch():
    with pytest.raises(ValueError, match="^assignment length differs from vertex count$"):
        find_l_coloring(path(2), ListAssignment.of_lists([[0]]))


def test_find_l_coloring_is_deterministic():
    g = cycle(5)
    lists = uniform_lists(5, [0, 1, 2])
    assert find_l_coloring(g, lists) == find_l_coloring(g, lists)


@given(graphs(min_n=1, max_n=6), st.data())
def test_solver_agrees_with_product_enumeration(g, data):
    lists = tuple(
        frozenset(data.draw(st.lists(st.integers(0, 4), min_size=0,
                                     max_size=3)))
        for _ in range(g.n))
    la = ListAssignment(lists)
    got = find_l_coloring(g, la)
    # brute force over the full product
    any_valid = False
    for combo in itertools.product(*[sorted(s) for s in lists]):
        if all(combo[u] != combo[v] for u, v in g.edges()):
            any_valid = True
            break
    if got is None:
        assert not any_valid
    else:
        assert verify_coloring(g, la, got)


def _recursive_solver(g: Graph, lists: ListAssignment):
    """The solver's visit order as plain recursion: fewest live colours
    first, lowest id on ties, colours ascending, forward checking."""
    if any(not l for l in lists.lists):
        return None
    universe = sorted(set().union(*lists.lists, ()))
    live = [sum(1 << universe.index(c) for c in l) for l in lists.lists]
    color = [-1] * g.n

    def solve(uncolored):
        if not uncolored:
            return True
        v = min((u for u in range(g.n) if uncolored >> u & 1),
                key=lambda u: (max(live[u].bit_count(), 1), u))
        rest = uncolored & ~(1 << v)
        for c in range(len(universe)):
            if not live[v] >> c & 1:
                continue
            touched = [u for u in range(g.n)
                       if rest >> u & 1 and g.adj[v] >> u & 1 and live[u] >> c & 1]
            for u in touched:
                live[u] ^= 1 << c
            color[v] = c
            if solve(rest):
                return True
            for u in touched:
                live[u] |= 1 << c
        return False

    if not solve((1 << g.n) - 1):
        return None
    return tuple(universe[c] for c in color)


@given(graphs(min_n=0, max_n=7), st.data())
def test_solver_keeps_the_recursive_visit_order(g, data):
    lists = ListAssignment.of_lists(
        data.draw(st.lists(st.integers(0, 4), max_size=3)) for _ in range(g.n))
    assert find_l_coloring(g, lists) == _recursive_solver(g, lists)


@settings(max_examples=300)
@given(graphs(min_n=0, max_n=12), st.data())
def test_solver_keeps_the_recursive_visit_order_on_longer_lists(g, data):
    # Lists of up to five colours reach live counts above 3, and one strike
    # moves its vertices between several count masks.  An empty list ends
    # the search before it starts, so only about one example in four gets one.
    raw = [data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True))
           for _ in range(g.n)]
    if g.n and data.draw(st.sampled_from((False, False, False, True))):
        raw[data.draw(st.integers(0, g.n - 1))] = []
    lists = ListAssignment.of_lists(raw)
    assert find_l_coloring(g, lists) == _recursive_solver(g, lists)


def test_solver_keeps_the_recursive_visit_order_on_seeded_instances():
    # Short lists from few colours on dense graphs backtrack often, so a
    # count mask left wrong by an undo changes a later branching choice and,
    # in a few percent of these instances, the colouring returned.
    rng = random.Random(1)
    for _ in range(1000):
        n = rng.randint(6, 12)
        p = rng.uniform(0.3, 0.8)
        g = Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                 if rng.random() < p])
        lists = ListAssignment.of_lists(rng.sample(range(6), rng.randint(2, 4))
                                        for _ in range(n))
        assert find_l_coloring(g, lists) == _recursive_solver(g, lists)


class _RowLog(tuple):
    """Adjacency rows that log, in order, each vertex whose row is read."""

    def __new__(cls, rows, log):
        row_log = super().__new__(cls, rows)
        row_log.log = log
        return row_log

    def __getitem__(self, v):
        if v not in self.log:
            self.log.append(v)
        return super().__getitem__(v)


def test_one_live_colour_ties_with_none_and_the_lower_id_goes_first():
    # Colouring 0 with 7 leaves 2 one live colour (8) and 3 none.  Zero and
    # one tie, so 2 is branched on before 3 ends the branch; a rule that
    # took the dead vertex first would never read 2's row.
    log: list[int] = []
    edges = [(0, 2), (0, 3)]
    adj = Graph.from_edges(4, edges).adj
    g = Graph(4, _RowLog(adj, log))
    log.clear()  # the Graph constructor's own checks read every row
    lists = ListAssignment.of_lists([[7], [2, 3], [7, 8], [7]])
    assert find_l_coloring(g, lists) is None
    assert log == [0, 2]
    assert _recursive_solver(Graph.from_edges(4, edges), lists) is None


def test_glued_clique_assembly_has_no_colouring():
    # All 125 B-colourings of clique_gadget(3, 3) from a 5-colour palette,
    # glued along B: 378 vertices and no list colouring.
    asm = build_counterexample(clique_gadget(3, 3), 5, "all")
    assert asm.graph.n == 3 + 125 * 3
    assert find_l_coloring(asm.graph, asm.lists) is None


def test_long_path_matches_the_recursive_solver():
    # 600 vertices keep the recursive reference below the recursion limit.
    rng = random.Random(7)
    g = path(600)
    lists = ListAssignment.of_lists(rng.sample(range(4), 2) for _ in range(g.n))
    got = find_l_coloring(g, lists)
    assert got is not None and got == _recursive_solver(g, lists)


@settings(max_examples=200)
@given(graphs(min_n=1, max_n=6), st.integers(0, 4), st.data())
def test_private_colours_before_the_rest_keep_the_recursive_visit_order(core, pad, data):
    # Vertices 0..pad-1 come first, joined at random to every later vertex;
    # each has two colours no other list holds, or, one time in two, two of
    # the rest's colours.  The rest is ``core`` with 2- or 3-lists from
    # {0, 1, 2}.  A private colour strikes nothing, so where the rest fails
    # the search backtracks into frames whose colour struck nothing, and
    # pops them; a shared colour that struck something is still retried.
    n = pad + core.n
    edges = [(u + pad, v + pad) for u, v in core.edges()]
    later = [(u, v) for u in range(pad) for v in range(u + 1, n)]
    if later:
        edges += data.draw(st.lists(st.sampled_from(later), unique=True))
    shared = st.lists(st.integers(0, 2), min_size=2, max_size=2, unique=True)
    lists = [data.draw(shared) if data.draw(st.booleans()) else [10 + 2 * v, 11 + 2 * v]
             for v in range(pad)]
    lists += [data.draw(st.lists(st.integers(0, 2), min_size=2, max_size=3, unique=True))
              for _ in range(core.n)]
    g = Graph.from_edges(n, edges)
    la = ListAssignment.of_lists(lists)
    assert find_l_coloring(g, la) == _recursive_solver(g, la)


@pytest.mark.parametrize("cycle_length", [3, 5])
@pytest.mark.parametrize("paths", [0, 1, 2, 3])
def test_witnesses_with_pendant_paths_before_an_odd_cycle(paths, cycle_length):
    # Pendant paths of 1, 2 and 3 vertices are numbered before the odd
    # cycle they hang from, so the witness pads them with private colours
    # ahead of the failing core.
    first = paths * (paths + 1) // 2
    ring = [first + i for i in range(cycle_length)]
    edges, v = list(zip(ring, ring[1:] + ring[:1])), 0
    for i in range(paths):
        chain = list(range(v, v + i + 1)) + [ring[i]]
        edges += zip(chain, chain[1:])
        v += i + 1
    g = Graph.from_edges(first + cycle_length, edges)
    verdict = _same_tree(g, 2, max_vertices=g.n)
    assert not verdict.choosable
    assert find_l_coloring(g, verdict.witness) is None
    assert _recursive_solver(g, verdict.witness) is None


def test_unverified_answers_raise(monkeypatch):
    # Plain raises, not asserts, so ``python -O`` keeps them.
    monkeypatch.setattr(lc, "verify_coloring", lambda *args: False)
    with pytest.raises(RuntimeError):
        find_l_coloring(cycle(4), uniform_lists(4, [0, 1]))
    monkeypatch.undo()
    # K_{3,3} is 2-colourable, so a "bad" core of uniform lists fails the
    # re-check.  Its 5-vertex subgraphs are K_{2,3} = theta_{2,2,2}, which the
    # core test answers, so the patched search runs once, on the full mask.
    monkeypatch.setattr(lc, "_bad_assignment_on",
                        lambda g, mask, k: ({v: frozenset({0, 1}) for v in range(g.n)}, 1))
    with pytest.raises(RuntimeError, match="witness"):
        is_k_choosable(complete_bipartite(3, 3), 2)


def test_verify_coloring_rejects():
    g = path(2)
    lists = uniform_lists(2, [0, 1])
    assert not verify_coloring(g, lists, (0, 0))       # monochrome edge
    assert not verify_coloring(g, lists, (0, 9))       # off-list
    assert not verify_coloring(g, lists, (0,))         # arity
    assert verify_coloring(g, lists, (0, 1))


# --- choosability on named graphs ----------------------------------------


@pytest.mark.parametrize("g, k, expected", [
    (cycle(4), 2, True),    # even cycles are 2-choosable
    (cycle(6), 2, True),
    (cycle(3), 2, False),   # odd cycles are not even 2-colorable
    (cycle(5), 2, False),
    (path(4), 2, True),     # trees are 2-choosable
    (complete_bipartite(1, 3), 2, True),
    (complete_bipartite(2, 3), 2, True),   # theta graph, 2-choosable
    (complete_bipartite(3, 3), 2, False),
])
def test_two_choosability_of_named_graphs(g, k, expected):
    verdict = is_k_choosable(g, k)
    assert verdict.choosable is expected
    if not expected:
        assert verdict.witness is not None
        assert all(len(s) == k for s in verdict.witness.lists)
        assert find_l_coloring(g, verdict.witness) is None


def test_k33_witness_shape():
    verdict = is_k_choosable(complete_bipartite(3, 3), 2)
    assert not verdict.choosable
    assert verdict.universe_size == 12
    w = verdict.witness
    assert len(w) == 6
    assert find_l_coloring(complete_bipartite(3, 3), w) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_complete_graphs_are_n_choosable(n):
    verdict = is_k_choosable(complete(n), n, max_vertices=8, max_k=5)
    assert verdict.choosable
    if n >= 2:
        below = is_k_choosable(complete(n), n - 1, max_vertices=8, max_k=5)
        assert not below.choosable
        assert find_l_coloring(complete(n), below.witness) is None


def test_caps_refuse_oversized_inputs():
    with pytest.raises(ChoosabilityCapError):
        is_k_choosable(empty(9), 2, max_vertices=8)
    with pytest.raises(ChoosabilityCapError):
        is_k_choosable(empty(3), 4, max_k=3)
    with pytest.raises(ValueError):
        is_k_choosable(empty(3), 0)


# --- the Erdos-Rubin-Taylor core test --------------------------------------


def _kernel_mask_reference(g: Graph, mask: int, k: int) -> int:
    """Drop vertices of degree < k inside ``mask`` until none remain."""
    changed = True
    while changed:
        changed = False
        for v in bits(mask):
            if (g.adj[v] & mask).bit_count() < k:
                mask ^= 1 << v
                changed = True
    return mask


def _bad_assignment_reference(g: Graph, mask: int, k: int):
    """The canonical enumeration of ``listcolor``, each complete assignment
    solved by ``find_l_coloring`` on the relabelled induced subgraph.
    Returns the first bad assignment or None, and the assignments solved."""
    sub, kept = induced_subgraph(g, bits(mask))
    m = sub.n
    lists: list[tuple[int, ...]] = []
    support = [0] * (m * k + 1)
    solved = 0

    def rec(i: int, used: int):
        nonlocal solved
        if i == m:
            solved += 1
            if find_l_coloring(sub, ListAssignment.of_lists(lists)) is None:
                return {kept[j]: frozenset(lists[j]) for j in range(m)}
            return None
        remaining_after = m - i - 1
        deficit = sum(1 for c in range(used) if support[c] == 1)
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
            for extra in itertools.combinations(pool, old_needed - len(must)):
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

    hit = rec(0, 0)
    return hit, solved


def _is_k_choosable_reference(g: Graph, k: int, *, core_test: bool = True) -> ChoosabilityVerdict:
    """``is_k_choosable`` as it was before its leaves were decided on color
    class masks: the fixpoint kernel, the same memoized search over
    vertex-deleted kernels, and every complete assignment solved by
    ``find_l_coloring``.  The witness is padded the same way and
    ``assignments`` counts the assignments solved.  With ``core_test=False``
    the Erdos-Rubin-Taylor test is off and every kernel is searched."""
    memo = {}
    solved = 0

    def bad_core(mask):
        nonlocal solved
        mask = _kernel_mask_reference(g, mask, k)
        if mask == 0:
            return None
        if mask in memo:
            return memo[mask]
        if core_test and k == 2 and lc._two_choosable_core(g, mask):
            memo[mask] = None
            return None
        hit = None
        for v in bits(mask):
            hit = bad_core(mask ^ (1 << v))
            if hit is not None:
                break
        if hit is None:
            hit, count = _bad_assignment_reference(g, mask, k)
            solved += count
        memo[mask] = hit
        return hit

    core = bad_core(g.vertex_mask())
    if core is None:
        return ChoosabilityVerdict(k, True, None, k * g.n, solved)
    nxt = max((c for l in core.values() for c in l), default=-1) + 1
    full = []
    for v in range(g.n):
        if v in core:
            full.append(core[v])
        else:
            full.append(frozenset(range(nxt, nxt + k)))
            nxt += k
    return ChoosabilityVerdict(k, False, ListAssignment(tuple(full)), k * g.n, solved)


def _theta(*lengths: int) -> Graph:
    """Vertices 0 and 1 joined by internally disjoint paths of these lengths."""
    edges, n = [], 2
    for length in lengths:
        inner = list(range(n, n + length - 1))
        n += length - 1
        chain = [0, *inner, 1]
        edges += zip(chain, chain[1:])
    return Graph.from_edges(n, edges)


def _union(*parts: Graph) -> Graph:
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges()]
        n += part.n
    return Graph.from_edges(n, edges)


def _answer(verdict: ChoosabilityVerdict) -> ChoosabilityVerdict:
    """The verdict without its work count."""
    return dataclasses.replace(verdict, assignments=0)


def _same_tree(g: Graph, k: int, **caps) -> ChoosabilityVerdict:
    """``is_k_choosable``'s verdict, asserted equal to the frozen reference's
    in answer, witness and assignment count."""
    got = is_k_choosable(g, k, **caps)
    assert got == _is_k_choosable_reference(g, k), (g.adj, k)
    return got


def test_core_test_keeps_every_verdict_up_to_5_vertices(all_graph_codes_by_n):
    for n, gs in all_graph_codes_by_n.items():
        for g in gs:
            got = _same_tree(g, 2)
            assert _answer(got) == _answer(_is_k_choosable_reference(g, 2, core_test=False)), g.adj
            if n <= 4:
                _same_tree(g, 3)


@given(graphs(min_n=6, max_n=6))
def test_core_test_keeps_every_verdict_on_6_vertices(g):
    got = _same_tree(g, 2)
    assert _answer(got) == _answer(_is_k_choosable_reference(g, 2, core_test=False))


def test_leaf_masks_keep_the_tree_on_seeded_7_vertex_graphs():
    rng = random.Random(17)
    for _ in range(200):
        p = rng.uniform(0.25, 0.75)
        g = Graph.from_edges(7, [e for e in itertools.combinations(range(7), 2)
                                 if rng.random() < p])
        _same_tree(g, 2)


def test_leaf_masks_keep_the_tree_on_5_vertex_3_cores():
    # 81 labelled 5-vertex graphs have a non-empty 3-core; the reference
    # takes about 6 s for all of them, so a seeded tenth is checked here.
    cores = [g for g in map(lambda c: graph_from_edge_code(5, c), range(1 << 10))
             if lc._kernel_mask(g, g.vertex_mask(), 3)]
    assert len(cores) == 81
    for g in random.Random(3).sample(cores, 10):
        _same_tree(g, 3)


@pytest.mark.parametrize("g", [
    cycle(4),
    cycle(6),
    cycle(8),
    complete_bipartite(2, 3),
    _theta(2, 2, 4),
    _union(cycle(4), cycle(4)),
], ids=["C4", "C6", "C8", "K23", "theta224", "C4+C4"])
def test_two_choosable_cores_skip_the_search(g, monkeypatch):
    def refuse(*args):
        raise AssertionError("the core test should have answered")

    monkeypatch.setattr(lc, "_bad_assignment_on", refuse)
    assert is_k_choosable(g, 2).choosable


@pytest.mark.parametrize("g", [
    _theta(1, 3, 3),
    _theta(2, 4, 4),
    complete_bipartite(2, 4),
    complete_bipartite(3, 3),
    Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0),
                         (0, 4), (4, 5), (5, 6), (6, 0)]),
    Graph.from_edges(8, [*cycle(4).edges(), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)]),
    _union(cycle(4), cycle(3)),
], ids=["theta133", "theta244", "K24", "K33", "C4.C4", "C4-C4", "C4+C3"])
def test_cores_outside_the_characterisation_are_searched(g):
    verdict = is_k_choosable(g, 2, max_vertices=9)
    assert not verdict.choosable
    assert all(len(l) == 2 for l in verdict.witness.lists)
    assert find_l_coloring(g, verdict.witness) is None
    assert verdict.assignments > 0
    _same_tree(g, 2, max_vertices=9)


def test_long_odd_cycle_is_searched_without_recursion():
    # 1001 kernel vertices, past the default recursion limit of 1000, for the
    # memo DFS and the enumerator alike.
    verdict = is_k_choosable(cycle(1001), 2, max_vertices=2000)
    assert not verdict.choosable and verdict.assignments == 1
    assert find_l_coloring(cycle(1001), verdict.witness) is None


# --- cross-validation against the brute oracle ---------------------------


def test_brute_agreement_all_three_vertex_graphs():
    for code in range(8):
        g = graph_from_edge_code(3, code)
        assert is_k_choosable(g, 2).choosable == brute_choosable(g, 2), code


@pytest.mark.parametrize("g", [
    cycle(4),
    path(4),
    complete(4),
    complete_bipartite(1, 3),
    Graph.from_edges(4, [(0, 1), (2, 3)]),
    Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),  # K_4 - e
])
def test_brute_agreement_named_four_vertex_graphs(g):
    assert is_k_choosable(g, 2).choosable == brute_choosable(g, 2)


def test_brute_agreement_three_vertices_three_colors():
    for code in (0, 0b111):  # empty and K_3
        g = graph_from_edge_code(3, code)
        got = is_k_choosable(g, 3).choosable
        assert got == brute_choosable(g, 3)
        assert got is True


# --- structural properties -------------------------------------------------


@given(graphs(min_n=1, max_n=6))
def test_choosability_monotone_in_k(g):
    # restrict (k+1)-lists to k-sublists: k-choosable implies (k+1)-choosable
    if is_k_choosable(g, 2).choosable:
        assert is_k_choosable(g, 3).choosable


@given(graphs(min_n=2, max_n=6), st.data())
def test_edge_removal_preserves_choosability(g, data):
    edges = list(g.edges())
    if not edges:
        return
    u, v = data.draw(st.sampled_from(edges))
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    smaller = Graph(g.n, tuple(adj), None)
    if is_k_choosable(g, 2).choosable:
        assert is_k_choosable(smaller, 2).choosable


def greedy_degeneracy_bound(g: Graph) -> int:
    """Degeneracy d of g by repeated minimum-degree removal.

    Every graph is (d + 1)-choosable: color greedily in reverse removal
    order, each vertex sees at most d colored neighbors.
    """
    alive = (1 << g.n) - 1
    best = 0
    for _ in range(g.n):
        d_min, v_min = min(((g.adj[v] & alive).bit_count(), v) for v in bits(alive))
        best = max(best, d_min)
        alive ^= 1 << v_min
    return best


@given(graphs(min_n=1, max_n=7))
def test_degeneracy_bound_guarantees_choosability(g):
    d = greedy_degeneracy_bound(g)
    assert 0 <= d < g.n
    if d + 1 <= 3:
        assert is_k_choosable(g, d + 1).choosable


def test_degeneracy_named_values():
    assert greedy_degeneracy_bound(path(5)) == 1
    assert greedy_degeneracy_bound(complete(5)) == 4
    assert greedy_degeneracy_bound(cycle(6)) == 2
    assert greedy_degeneracy_bound(petersen()) == 3
    assert greedy_degeneracy_bound(empty(3)) == 0


# --- serialization ---------------------------------------------------------


def test_list_assignment_roundtrip():
    la = ListAssignment.of_lists([[0, 2], [1], []])
    back = ListAssignment.from_json_dict(json.loads(la.to_json()))
    assert back == la
    assert len(la) == 3


def test_uniform_lists():
    la = uniform_lists(3, [4, 5])
    assert all(s == frozenset({4, 5}) for s in la.lists)
