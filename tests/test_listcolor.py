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

import itertools
import json

import pytest
from hypothesis import given, strategies as st

from kstlab.graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    empty,
    path,
    petersen,
)
from kstlab.listcolor import (
    ChoosabilityCapError,
    ListAssignment,
    find_l_coloring,
    greedy_degeneracy_bound,
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


def test_unverified_answers_raise(monkeypatch):
    # Plain raises, not asserts, so ``python -O`` keeps them.
    import kstlab.listcolor as lc

    monkeypatch.setattr(lc, "verify_coloring", lambda *args: False)
    with pytest.raises(RuntimeError):
        find_l_coloring(cycle(4), uniform_lists(4, [0, 1]))
    monkeypatch.undo()
    # C_4 is 2-choosable, so a "bad" core of uniform lists fails the re-check.
    monkeypatch.setattr(lc, "_bad_assignment_on",
                        lambda g, mask, k: {v: frozenset({0, 1}) for v in range(g.n)})
    with pytest.raises(RuntimeError, match="witness"):
        is_k_choosable(cycle(4), 2)


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
