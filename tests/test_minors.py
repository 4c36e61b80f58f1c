"""Minor search: model verification, exact search, brute-force oracle.

Positive expectations are certified in-test by model_violation (a found
model is re-validated structurally).  Negative expectations on named
graphs come with the counting argument that rules the minor out, and the
search is cross-checked against the independent enumeration oracle on
every graph with at most 5 vertices.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction as F
from functools import lru_cache
from math import factorial, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kstlab import minors
from kstlab.construction import GadgetParams, build_gadget, clique_gadget, tiny_gadget
from kstlab.graph import (
    Graph,
    GlueSpec,
    bits,
    closure,
    closure_nbr,
    complete,
    complete_bipartite,
    components,
    cycle,
    empty,
    glue,
    induced_subgraph,
    mask_of,
    path,
    permuted,
    petersen,
)
from kstlab.minors import (
    BranchModel,
    MinorQuery,
    MinorSearch,
    SearchStatus,
    _probe,
    _search,
    _split,
    _star_search,
    find_kst_minor,
    kst_atoms,
    model_violation,
    oracle_has_minor,
    verify_model,
)

from conftest import graph_from_edge_code, graphs, sparse_graphs


# --- query and model plumbing -------------------------------------------


def test_query_validation():
    assert MinorQuery(2, 3).s == 2
    with pytest.raises(ValueError):
        MinorQuery(0, 3)
    with pytest.raises(ValueError):
        MinorQuery(3, 2)


def _bm(host, side1, side2):
    return BranchModel(tuple(frozenset(s) for s in side1),
                       tuple(frozenset(s) for s in side2), host)


def test_model_violation_detects_each_clause():
    g = cycle(4)
    q = MinorQuery(2, 2)
    assert model_violation(g, _bm(g, [(0,), (2,)], [(1,), (3,)]), q) is None

    wrong_count = _bm(g, [(0,)], [(1,), (3,)])
    assert model_violation(g, wrong_count, q) is not None
    wrong_t = _bm(g, [(0,), (2,)], [(1,)])
    assert model_violation(g, wrong_t, q) == "side2 has 1 sets, query wants t=2"

    overlap = _bm(g, [(0,), (0, 1)], [(1,), (3,)])
    assert model_violation(g, overlap, q) is not None

    out_of_range = _bm(g, [(0,), (9,)], [(1,), (3,)])
    assert model_violation(g, out_of_range, q) is not None

    empty_class = _bm(g, [(0, 2), (1,)], [(3,), ()])
    assert model_violation(g, empty_class, q) is not None

    # {0,2} is disconnected in C_5
    g5 = cycle(5)
    disconnected = _bm(g5, [(0, 2), (1,)], [(3,), (4,)])
    assert model_violation(g5, disconnected, q) is not None

    # branch sets {1} and {3} are non-adjacent in C_4: missing cross edge
    unlinked = _bm(g, [(1,), (0,)], [(3,), (2,)])
    assert "edge" in model_violation(g, unlinked, q)


def test_branch_model_json_roundtrip():
    g = cycle(5)
    m = _bm(g, [(0,), (2, 3)], [(1,), (4,)])
    assert BranchModel.from_json_dict(m.to_json_dict(), g) == m


# --- named positive cases (models re-verified in place) -----------------


@pytest.mark.parametrize("g, s, t", [
    (cycle(4), 2, 2),           # C_4 = K_{2,2}
    (complete(4), 2, 2),        # contains K_{2,2} as subgraph
    (complete(5), 2, 3),        # K_5 ⊇ K_{2,3}
    (complete_bipartite(3, 3), 3, 3),
    (complete_bipartite(3, 4), 3, 3),
    (petersen(), 2, 3),
])
def test_find_on_named_graphs(g, s, t):
    q = MinorQuery(s, t)
    res = find_kst_minor(g, q)
    assert res.status is SearchStatus.FOUND
    assert verify_model(g, res.model, q)


def test_petersen_has_k33_minor():
    # The Petersen graph is non-planar, so by Wagner's theorem it has a
    # K_5 or K_{3,3} minor; the search produces an explicit K_{3,3} model
    # and the structural re-verification of that model is the evidence.
    q = MinorQuery(3, 3)
    res = find_kst_minor(petersen(), q)
    assert res.status is SearchStatus.FOUND
    assert model_violation(petersen(), res.model, q) is None


def test_petersen_k33_oracle_closure_on_subgraph():
    # Independent corroboration within the oracle's 9-vertex limit:
    # some 9-vertex induced subgraph of the Petersen graph already
    # carries a K_{3,3} minor, and minors transfer to supergraphs.
    g = petersen()
    f = complete_bipartite(3, 3)
    sub, _ = induced_subgraph(g, range(9))
    assert oracle_has_minor(sub, f)


# --- named negative cases ------------------------------------------------


@pytest.mark.parametrize("g, s, t", [
    # trees have no cycle, so no K_{2,2} minor (which needs one)
    (path(6), 2, 2),
    (Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6)]),
     2, 2),
    # C_5 has 5 edges; a K_{2,3} minor needs 6 disjoint linking edges
    (cycle(5), 2, 3),
    # K_4 has 4 vertices; K_{2,3} needs 5 branch sets
    (complete(4), 2, 3),
    # planar graph: K_{3,3} minor impossible in K_4
    (complete(4), 3, 3),
    (empty(6), 1, 1),
])
def test_not_found_on_named_graphs(g, s, t):
    res = find_kst_minor(g, MinorQuery(s, t))
    assert res.status is SearchStatus.NOT_FOUND


def test_single_edge_is_k11():
    res = find_kst_minor(path(2), MinorQuery(1, 1))
    assert res.status is SearchStatus.FOUND


# --- budget ---------------------------------------------------------------


def test_budget_exhaustion_and_monotonicity():
    # The contraction probe misses Petersen K_{3,4}, so the search answers
    # and the budget bites.
    g = petersen()
    q = MinorQuery(3, 4)
    full = find_kst_minor(g, q)
    assert full.status is SearchStatus.FOUND
    tiny = find_kst_minor(g, q, budget=1)
    assert tiny.status is SearchStatus.BUDGET_EXHAUSTED
    assert tiny.nodes_expanded <= 1
    # with at least the full run's expansions, the answer reappears
    again = find_kst_minor(g, q, budget=full.nodes_expanded)
    assert again.status is SearchStatus.FOUND


@given(graphs(min_n=1, max_n=6), st.integers(1, 30))
def test_budget_never_changes_found_answers(g, budget):
    q = MinorQuery(2, 2)
    limited = find_kst_minor(g, q, budget=budget)
    full = find_kst_minor(g, q)
    assert full.status is not SearchStatus.BUDGET_EXHAUSTED
    if limited.status is not SearchStatus.BUDGET_EXHAUSTED:
        assert limited.status is full.status


# --- oracle cross-checks ---------------------------------------------------


def test_oracle_named_values():
    assert oracle_has_minor(complete(4), complete(4)) is True
    assert oracle_has_minor(cycle(5), complete(4)) is False
    assert oracle_has_minor(complete_bipartite(3, 3), complete(4)) is True
    # C_5 contracts to C_4, C_3
    assert oracle_has_minor(cycle(5), cycle(4)) is True
    assert oracle_has_minor(cycle(5), complete(3)) is True
    # a tree has no cycle minor
    assert oracle_has_minor(path(5), cycle(3)) is False


def test_oracle_trivial_patterns():
    assert oracle_has_minor(empty(3), empty(0)) is True
    assert oracle_has_minor(empty(3), empty(1)) is True
    assert oracle_has_minor(empty(0), empty(1)) is False
    assert oracle_has_minor(path(2), path(2)) is True


def test_oracle_rejects_oversized_hosts():
    with pytest.raises(ValueError):
        oracle_has_minor(empty(10), complete(3))


def test_search_agrees_with_oracle_on_all_graphs_up_to_5(all_graph_codes_by_n):
    queries = [MinorQuery(s, t)
               for s in range(1, 5) for t in range(s, 5) if s + t <= 5]
    for n, gs in all_graph_codes_by_n.items():
        for q in queries:
            if q.s + q.t > 5:
                continue
            f = complete_bipartite(q.s, q.t)
            for g in gs:
                got = find_kst_minor(g, q)
                assert got.status is not SearchStatus.BUDGET_EXHAUSTED
                expected = oracle_has_minor(g, f)
                assert (got.status is SearchStatus.FOUND) == expected, (
                    n, g.adj, q)


# --- oracle tables against the code-decoding and per-subset BFS builders ---


def _decode_reference(start, stop, n, k):
    """Per-class vertex bitmasks of the assignments whose base-(k+1) codes
    lie in [start, stop), keeping those with every class non-empty: the
    oracle's table builder before assignments were grown vertex by vertex."""
    digits = np.empty((stop - start, n), dtype=np.int64)
    rem = np.arange(start, stop, dtype=np.int64)
    for v in range(n):
        digits[:, v] = rem % (k + 1)
        rem = rem // (k + 1)
    keep = np.ones(stop - start, dtype=bool)
    for c in range(1, k + 1):
        keep &= (digits == c).any(axis=1)
    digits = digits[keep]
    powers = 1 << np.arange(n, dtype=np.int64)
    return tuple(((digits == c) * powers).sum(axis=1) for c in range(1, k + 1))


def _mask_luts_reference(g):
    """Connectivity and neighbourhood of every vertex subset, one BFS per
    subset."""
    size = 1 << g.n
    nbr = np.zeros(size, dtype=np.int64)
    conn = np.zeros(size, dtype=bool)
    for m in range(1, size):
        nbr[m] = nbr[m ^ (m & -m)] | g.adj[(m & -m).bit_length() - 1]
        conn[m] = closure(g.adj, m & -m, m) == m
    return conn, nbr


def _row_codes(masks, n):
    """One integer per assignment row: class c's mask in bits c*n.."""
    return np.sort(sum(m << (n * c) for c, m in enumerate(masks)))


@lru_cache(maxsize=None)
def _full_table(n, k):
    """Every assignment of n vertices to k non-empty classes, decoded in
    slices of 2^18 codes."""
    total = (k + 1) ** n
    step = 1 << 18
    parts = [_decode_reference(a, min(a + step, total), n, k) for a in range(0, total, step)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _decoded_codes(n, k):
    return _row_codes(_full_table(n, k), n)


@pytest.mark.parametrize("n", range(1, 8))
def test_assignment_masks_match_decoded_codes(n):
    for k in range(1, n + 1):
        got = minors._assignment_masks(n, (1,) * k)
        assert len(got) == k
        assert all(len(m) == minors._surjections(n, k) for m in got)
        got_codes = _row_codes(got, n)
        assert np.array_equal(got_codes, _decoded_codes(n, k)), (n, k)
        assert np.all(np.diff(got_codes) > 0), (n, k)


def _compositions(k):
    """Every group shape: the ordered tuples of positive sizes summing to k."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first,) + rest


def _within_group_permutations(groups):
    """Every class permutation that maps each group onto itself."""
    starts = [sum(groups[:i]) for i in range(len(groups))]
    per_group = [itertools.permutations(range(a, a + g)) for a, g in zip(starts, groups)]
    for parts in itertools.product(*per_group):
        yield [c for part in parts for c in part]


@pytest.mark.parametrize("n", range(1, 8))
def test_ordered_tables_close_to_the_decoded_table(n):
    for k in range(1, n + 1):
        for groups in _compositions(k):
            got = minors._assignment_masks(n, groups)
            rows = len(got[0])
            assert rows * prod(factorial(g) for g in groups) == minors._surjections(n, k), (
                n, groups)
            first = 0
            for g in groups:
                lows = [got[c] & -got[c] for c in range(first, first + g)]
                assert all(np.all(a < b) for a, b in zip(lows, lows[1:])), (n, groups)
                first += g
            closed = np.concatenate([_row_codes([got[c] for c in perm], n)
                                     for perm in _within_group_permutations(groups)])
            assert np.array_equal(np.sort(closed), _decoded_codes(n, k)), (n, groups)


def test_assignment_chunks_are_bounded_and_have_no_empty_class(monkeypatch):
    monkeypatch.setattr(minors, "_CHUNK", 5)
    for n in range(1, 7):
        for k in range(1, n + 1):
            chunks = list(minors._assignment_chunks(n, (1,) * k))
            assert all(0 < c.shape[1] <= 5 and c.shape[0] == k for c in chunks)
            assert all((c != 0).all() for c in chunks)
            rows = np.concatenate(chunks, axis=1)
            assert np.array_equal(_row_codes(rows, n),
                                  _row_codes(minors._assignment_masks(n, (1,) * k), n))


def test_assignment_table_peak_memory_stays_small():
    tracemalloc.start()
    try:
        minors._assignment_masks.__wrapped__(7, (1,) * 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20, peak


def _assert_same_luts(g):
    got, want = minors._mask_luts(g), _mask_luts_reference(g)
    assert np.array_equal(got[0], want[0]), g.adj
    assert np.array_equal(got[1], want[1]), g.adj


def test_mask_luts_match_reference_on_all_graphs_up_to_5(all_graph_codes_by_n):
    for gs in all_graph_codes_by_n.values():
        for g in gs:
            _assert_same_luts(g)


@given(st.one_of(graphs(min_n=0, max_n=9), sparse_graphs(min_n=1, max_n=9)))
def test_mask_luts_match_reference(g):
    _assert_same_luts(g)


def _small_pattern(data, n):
    j = data.draw(st.integers(1, min(n, 5)))
    kind = data.draw(st.sampled_from(["kst", "complete", "cycle", "path"]))
    if kind == "kst" and j >= 2:
        s = data.draw(st.integers(1, j // 2))
        return complete_bipartite(s, j - s)
    if kind == "cycle" and j >= 3:
        return cycle(j)
    return complete(j) if kind == "complete" else path(j)


@given(graphs(min_n=1, max_n=7), st.data())
def test_streamed_oracle_answers_match_cached(g, data):
    f = _small_pattern(data, g.n)
    cached = oracle_has_minor(g, f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minors, "_CACHE_ROW_LIMIT", 0)
        mp.setattr(minors, "_CHUNK", 5)
        assert oracle_has_minor(g, f) is cached, (g.adj, f.adj)


def test_streamed_eight_class_query_on_petersen_subgraph():
    # Twin-free 8-vertex patterns keep all 1,814,400 rows, past the cache
    # limit, so both answers come from the streamed table.  Petersen is
    # hypohamiltonian, so the 9-vertex subgraph has a Hamiltonian cycle and
    # a C_8 minor; it has 12 edges, so no minor with 13 edges.
    sub, _ = induced_subgraph(petersen(), range(9))
    ham = [0, 1, 6, 8, 5, 7, 2, 3, 4]
    assert all(sub.has_edge(u, v) for u, v in zip(ham, ham[1:] + ham[:1]))
    dense = Graph.from_edges(8, list(cycle(8).edges())
                             + [(0, 4), (1, 5), (2, 6), (3, 7), (0, 2)])
    assert sub.edge_count() == 12 and dense.edge_count() == 13
    for f, want in ((cycle(8), True), (dense, False)):
        groups, _, rows = minors._pattern_plan(9, f.adj)
        assert groups == (1,) * 8 and rows > minors._CACHE_ROW_LIMIT
        misses = minors._assignment_masks.cache_info().misses
        assert oracle_has_minor(sub, f) is want
        assert minors._assignment_masks.cache_info().misses == misses


_TWIN_PATTERNS = [complete_bipartite(s, t) for s in range(1, 4) for t in range(s, 7 - s + 1)] + [
    complete(j) for j in range(2, 6)] + [cycle(4), path(3)]
_TWIN_FREE_PATTERNS = [path(4), cycle(5), cycle(6)]


def test_twin_groups_of_named_patterns():
    assert minors._twin_groups(complete_bipartite(2, 3)) == [[0, 1], [2, 3, 4]]
    assert minors._twin_groups(complete_bipartite(1, 1)) == [[0, 1]]
    assert minors._twin_groups(complete(4)) == [[0, 1, 2, 3]]
    assert minors._twin_groups(cycle(4)) == [[0, 2], [1, 3]]
    assert minors._twin_groups(path(3)) == [[0, 2], [1]]
    for f in _TWIN_FREE_PATTERNS + [cycle(8)]:
        assert minors._twin_groups(f) == [[v] for v in range(f.n)]
    assert all(len(minors._twin_groups(f)) < f.n for f in _TWIN_PATTERNS)


def test_small_exact_shapes_stay_cached():
    # Every (host size, K_{s,t}) shape of 5-7 vertex hosts: a second sweep
    # must find all of their tables still cached.
    shapes = [(n, s, t) for n in range(5, 8)
              for s in range(1, n // 2 + 1) for t in range(s, n - s + 1)]
    assert len({(n, minors._pattern_plan(n, complete_bipartite(s, t).adj)[0])
                for n, s, t in shapes}) == len(shapes) == 27
    for _ in range(2):
        misses = minors._assignment_masks.cache_info().misses
        for n, s, t in shapes:
            oracle_has_minor(complete(n), complete_bipartite(s, t))
    assert minors._assignment_masks.cache_info().misses == misses


# --- twin-reduced oracle against the full-table oracle ----------------------


def _full_table_oracle(g, f):
    """The oracle before the twin reduction: every assignment to |V(f)|
    non-empty classes, decoded from base-(k+1) codes, checked against
    per-subset BFS lookup tables."""
    k = f.n
    if k == 0:
        return True
    if g.n < k:
        return False
    conn, nbr = _mask_luts_reference(g)
    masks = _full_table(g.n, k)
    ok = np.ones(len(masks[0]), dtype=bool)
    for m in masks:
        ok &= conn[m]
    for a, b in f.edges():
        ok &= (nbr[masks[a]] & masks[b]) != 0
    return bool(ok.any())


def test_oracle_matches_full_table_on_all_graphs_up_to_5(all_graph_codes_by_n):
    patterns = [f for f in _TWIN_PATTERNS + _TWIN_FREE_PATTERNS if f.n <= 5]
    for gs in all_graph_codes_by_n.values():
        for g in gs:
            for f in patterns:
                assert oracle_has_minor(g, f) is _full_table_oracle(g, f), (g.adj, f.adj)


@settings(max_examples=100)
@given(graphs(min_n=6, max_n=7), st.sampled_from(_TWIN_PATTERNS + _TWIN_FREE_PATTERNS))
def test_oracle_matches_full_table_on_6_and_7_vertices(g, f):
    assert oracle_has_minor(g, f) is _full_table_oracle(g, f), (g.adj, f.adj)


def _check_per_class_and_edge(masks, conn, nbr, f_edges, k):
    """The table check as one array operation per class and per pattern
    edge, on the rows of each class in turn."""
    ok = conn[masks[0]]
    for c in range(1, k):
        ok = ok & conn[masks[c]]
    if not ok.any():
        return False
    for a, b in f_edges:
        ok = ok & ((nbr[masks[a]] & masks[b]) != 0)
    return bool(ok.any())


@lru_cache(maxsize=None)
def _one_code_per_isomorphism_class(n):
    """The least edge code (as in ``graph_from_edge_code``) of each
    isomorphism class of n-vertex graphs, from every relabelling of every
    code at once."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    codes = np.arange(1 << len(pairs), dtype=np.int64)
    least = codes.copy()
    for perm in itertools.permutations(range(n)):
        moved = np.zeros_like(codes)
        for i, (u, v) in enumerate(pairs):
            moved |= (codes >> i & 1) << index[tuple(sorted((perm[u], perm[v])))]
        least = np.minimum(least, moved)
    return tuple(np.unique(least).tolist())


def test_isomorphism_class_codes_count_the_graphs_on_6_vertices():
    # 1, 1, 2, 4, 11, 34 and 156 graphs on 0 to 6 vertices (OEIS A000088).
    assert [len(_one_code_per_isomorphism_class(n)) for n in range(7)] == [
        1, 1, 2, 4, 11, 34, 156]


def test_whole_table_check_matches_per_class_check_up_to_6_vertices():
    # Every graph on at most 6 vertices, one labelling per isomorphism class,
    # against every K_{s,t} and K_j that fits.  (Criterion 1 runs the oracle
    # on every labelled 6-vertex graph.)
    for n in range(1, 7):
        plans = []
        for f in ([complete_bipartite(s, t) for s in range(1, n) for t in range(s, n - s + 1)]
                  + [complete(j) for j in range(1, n + 1)]):
            groups, ends, _ = minors._pattern_plan(n, f.adj)
            table = minors._assignment_masks(n, groups)
            plans.append((f.n, list(zip(*ends)), table, ends))
        for code in _one_code_per_isomorphism_class(n):
            g = graph_from_edge_code(n, code)
            conn, nbr = minors._mask_luts(g)
            for k, edges, table, ends in plans:
                assert (minors._check_assignments(conn, nbr, table, ends)
                        is _check_per_class_and_edge(tuple(table), conn, nbr, edges, k)), (
                    g.adj, k)


# --- structural properties -------------------------------------------------


@given(graphs(min_n=1, max_n=7), st.data())
def test_found_models_always_verify(g, data):
    s = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(s, 3))
    q = MinorQuery(s, t)
    res = find_kst_minor(g, q)
    if res.status is SearchStatus.FOUND:
        assert model_violation(g, res.model, q) is None


@given(graphs(min_n=1, max_n=7), st.data())
def test_relabeling_invariance(g, data):
    s = data.draw(st.integers(1, 2))
    t = data.draw(st.integers(s, 3))
    perm = data.draw(st.permutations(range(g.n)))
    q = MinorQuery(s, t)
    a = find_kst_minor(g, q).status
    b = find_kst_minor(permuted(g, perm), q).status
    assert a is b


@given(sparse_graphs(min_n=2, max_n=8), st.data())
def test_adding_edges_preserves_found(g, data):
    # minors are monotone under edge addition
    q = MinorQuery(2, 2)
    res = find_kst_minor(g, q)
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    if u == v:
        return
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    bigger = Graph(g.n, tuple(adj), None)
    res2 = find_kst_minor(bigger, q)
    if res.status is SearchStatus.FOUND:
        assert res2.status is SearchStatus.FOUND


@given(graphs(min_n=2, max_n=8), st.data())
def test_vertex_deletion_preserves_not_found(g, data):
    # minors of induced subgraphs are minors of the host
    q = MinorQuery(2, 2)
    if find_kst_minor(g, q).status is SearchStatus.NOT_FOUND:
        v = data.draw(st.integers(0, g.n - 1))
        sub, _ = induced_subgraph(g, [u for u in range(g.n) if u != v])
        assert find_kst_minor(sub, q).status is SearchStatus.NOT_FOUND


# --- decomposition into atoms ----------------------------------------------


def test_atoms_of_a_forest_are_its_components():
    forest = Graph.from_edges(7, [(0, 1), (1, 2), (4, 5)])
    assert kst_atoms(forest, 1) == [(3,), (6,), (4, 5), (0, 1, 2)]


def test_atoms_of_a_bowtie_are_its_two_triangles():
    bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert kst_atoms(bowtie, 1) == [(0, 1, 2, 3, 4)]
    assert kst_atoms(bowtie, 2) == [(0, 1, 2), (2, 3, 4)]


def test_two_k4_sharing_an_edge_split_only_for_s_at_least_3():
    g = glue(GlueSpec(complete(4), complete(4), ((2, 0), (3, 1))))
    assert kst_atoms(g, 2) == [tuple(range(6))]
    assert kst_atoms(g, 3) == [(0, 1, 2, 3), (2, 3, 4, 5)]


def test_long_path_blocks_without_recursion():
    # 1200 vertices is past the default recursion limit of 1000.
    g = path(1200)
    atoms = kst_atoms(g, 2)
    assert len(atoms) == 1199
    assert all(len(a) == 2 for a in atoms)
    res = find_kst_minor(g, MinorQuery(2, 2))
    assert res.status is SearchStatus.NOT_FOUND
    assert res.nodes_expanded == 0 and res.atoms_searched == 0


def _atoms_scanned(g, s):
    """The atoms of ``kst_atoms`` without the degree certificate: every host
    goes through ``_blocks`` and every piece through ``_separating_edge``."""
    adj = g.adj
    if s == 1:
        atoms = components(adj, g.vertex_mask())
    else:
        atoms = minors._blocks(adj, g.n)
    if s >= 3:
        pieces, todo = [], atoms
        while todo:
            m = todo.pop()
            pair = minors._separating_edge(adj, m)
            if pair:
                todo += [c | pair for c in components(adj, m & ~pair)]
            else:
                pieces.append(m)
        atoms = pieces
    return sorted(tuple(bits(m)) for m in atoms)


@st.composite
def dense_graphs(draw, max_n=14):
    """K_n minus up to 2n edges: minimum degree mostly near n / 2 or above."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    dropped = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n))) if pairs else set()
    return Graph.from_edges(n, [e for e in pairs if e not in dropped])


@settings(max_examples=200)
@given(st.one_of(dense_graphs(), sparse_graphs(min_n=1, max_n=14),
                 graphs(min_n=1, max_n=14)))
def test_degree_certificate_keeps_the_atoms(g):
    for s in range(1, 5):
        assert sorted(kst_atoms(g, s)) == _atoms_scanned(g, s), (g.adj, s)


@pytest.fixture()
def separating_edge_calls(monkeypatch):
    calls = []
    scan = minors._separating_edge

    def counted(adj, m):
        calls.append(m)
        return scan(adj, m)

    monkeypatch.setattr(minors, "_separating_edge", counted)
    return calls


@pytest.mark.parametrize("g, atoms3, scanned", [
    (complete(1), [(0,)], True),
    (complete(2), [(0, 1)], True),
    (complete(3), [(0, 1, 2)], False),
    (complete(4), [(0, 1, 2, 3)], False),
    (cycle(5), [tuple(range(5))], True),
    # 2 * delta = n: one block without a scan, but the piece is scanned
    (complete_bipartite(3, 3), [tuple(range(6))], True),
], ids=["K1", "K2", "K3", "K4", "C5", "K33"])
def test_degree_certificate_edge_cases(g, atoms3, scanned, separating_edge_calls):
    assert kst_atoms(g, 3) == atoms3
    assert bool(separating_edge_calls) is scanned
    for s in range(1, 5):
        assert sorted(kst_atoms(g, s)) == _atoms_scanned(g, s)


def test_two_connected_degree_bound_skips_the_block_scan(monkeypatch):
    def refuse(adj, n):
        raise AssertionError("2 * delta >= n should have skipped _blocks")

    monkeypatch.setattr(minors, "_blocks", refuse)
    for g in (complete(3), complete(4), cycle(4), complete_bipartite(3, 3)):
        assert kst_atoms(g, 2) == [tuple(range(g.n))]


@pytest.mark.parametrize("m, n", [(6, 5), (8, 6), (10, 8)])
def test_desk_gadgets_pass_the_three_connected_bound(m, n, separating_edge_calls):
    gadgets = [b.graph for b in (build_gadget(m, n, DESK, seed) for seed in (5, 11, 12))
               if b.ok]
    assert gadgets
    for g in gadgets:
        for s in (3, 4, 5):
            assert kst_atoms(g, s) == [tuple(range(g.n))]
    assert separating_edge_calls == []


def test_budget_is_shared_across_atoms():
    # Two disjoint triangulated pentagons (outerplanar, so no K_{2,3}
    # minor) and then a K_{2,3}: the three atoms are searched in turn.
    fan = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (0, 3)])
    g = glue(GlueSpec(glue(GlueSpec(fan, fan, ())), complete_bipartite(2, 3), ()))
    q = MinorQuery(2, 3)
    full = find_kst_minor(g, q)
    assert full.status is SearchStatus.FOUND
    assert full.atoms_searched == 3
    assert min(min(bs) for bs in full.model.side1 + full.model.side2) >= 10
    again = find_kst_minor(g, q, budget=full.nodes_expanded)
    assert again == full
    short = find_kst_minor(g, q, budget=full.nodes_expanded - 1)
    assert short.status is SearchStatus.BUDGET_EXHAUSTED
    assert short.nodes_expanded <= full.nodes_expanded - 1


def _agrees_with_whole_host_core(g, q):
    got = find_kst_minor(g, q)
    want = _search(g, q, g.vertex_mask(), None)
    assert got.status is want.status, (g.adj, q)
    if got.status is SearchStatus.FOUND:
        assert verify_model(g, got.model, q)
    assert got.atoms_searched <= len(kst_atoms(g, q.s))


@given(graphs(min_n=1, max_n=8), st.data())
def test_atoms_agree_with_whole_host_core(g, data):
    s = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(s, 3))
    _agrees_with_whole_host_core(g, MinorQuery(s, t))


@given(graphs(min_n=3, max_n=5), graphs(min_n=3, max_n=5), st.data())
def test_atoms_agree_with_whole_host_core_on_clique_glues(g1, g2, data):
    s = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(s, 3))
    size = data.draw(st.integers(0, 3))
    c1 = data.draw(st.permutations(range(g1.n)))[:size]
    c2 = data.draw(st.permutations(range(g2.n)))[:size]

    def with_clique(g, c):
        adj = list(g.adj)
        for u in c:
            for v in c:
                if u != v:
                    adj[u] |= 1 << v
        return Graph(g.n, tuple(adj), None)

    host = glue(GlueSpec(with_clique(g1, c1), with_clique(g2, c2),
                         tuple(zip(c1, c2))))
    _agrees_with_whole_host_core(host, MinorQuery(s, t))


# --- deep and glued hosts ----------------------------------------------------


def test_long_path_has_k12_without_recursion():
    # 1500 vertices is past the default recursion limit of 1000.  The
    # general search is called directly: find_kst_minor sends s = 1 to
    # _star_search, which answers this at the second vertex.
    g = path(1500)
    q = MinorQuery(1, 2)
    res = _search(g, q, g.vertex_mask(), None)
    assert res.status is SearchStatus.FOUND
    assert res.nodes_expanded == 2996
    assert model_violation(g, res.model, q) is None


def test_long_path_closure_work_stays_linear(monkeypatch):
    # Deterministic work guard: the search carries closures across nodes,
    # so the vertices inside all closures it computes grow linearly with the
    # path.  Recomputing every closure at every node summed 4,495,498 here.
    computed = []

    def counted(fn, size):
        def wrapper(*args):
            out = fn(*args)
            computed.append(size(out))
            return out
        return wrapper

    monkeypatch.setattr(minors, "closure", counted(closure, int.bit_count))
    monkeypatch.setattr(minors, "closure_nbr",
                        counted(closure_nbr, lambda out: out[0].bit_count()))
    g = path(1500)
    res = _search(g, MinorQuery(1, 2), g.vertex_mask(), None)
    assert res.status is SearchStatus.FOUND
    assert res.nodes_expanded == 2996
    assert computed and sum(computed) <= 20_000


def _tiny_assembly(copies):
    """Copies of the tiny gadget glued along their B clique {2, 3}."""
    g = tiny_gadget()
    for _ in range(copies - 1):
        g = glue(GlueSpec(g, tiny_gadget(), ((2, 2), (3, 3))))
    return g


@pytest.mark.parametrize("copies, s, t", [(9, 2, 3), (7, 2, 2)])
def test_tiny_assemblies_answer_within_a_small_budget(copies, s, t):
    # The copies share a 2-clique, which does not split the host for s = 2,
    # and they are interchangeable: opening new branch sets first reaches a
    # model before the search wanders among the copies.  The search is
    # called directly, as find_kst_minor's contraction probe finds K_{2,2}
    # here before any search node.
    g = _tiny_assembly(copies)
    assert g.n == 2 + 2 * copies
    assert kst_atoms(g, s) == [tuple(range(g.n))]
    q = MinorQuery(s, t)
    res = _search(g, q, g.vertex_mask(), 1000)
    assert res.status is SearchStatus.FOUND
    assert model_violation(g, res.model, q) is None


def _raises_under_python_dash_o(patches: str) -> None:
    """Run ``find_kst_minor`` on C4 for K_{2,2} and K_{1,1} under ``python
    -O`` with ``patches`` applied, and check that both calls raise the
    invalid-model RuntimeError.  ``model(g, side1, side2)`` in the script
    builds a model of singleton sets and ``found`` a FOUND result holding
    one."""
    script = textwrap.dedent("""
        import sys
        from kstlab import minors
        from kstlab.graph import cycle

        def model(g, side1, side2):
            return minors.BranchModel(tuple(frozenset({v}) for v in side1),
                                      tuple(frozenset({v}) for v in side2), g)

        def found(g, side1, side2):
            return minors.MinorSearch(minors.SearchStatus.FOUND,
                                      model(g, side1, side2), 1, 1)

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        # In C4 = 0-1-2-3-0, 0 and 2 are not adjacent.
        minors._star_search = lambda g, t, within, budget: found(g, (0,), (2,))
    """) + textwrap.dedent(patches) + textwrap.dedent("""
        for q in (minors.MinorQuery(2, 2), minors.MinorQuery(1, 1)):
            try:
                minors.find_kst_minor(cycle(4), q)
            except RuntimeError as exc:
                print("raised:", exc)
    """)
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    assert all(line.startswith("raised: search produced an invalid model") for line in lines)


def test_invalid_model_raises_under_python_dash_o():
    # The re-verification of a found model must not be an assert, which
    # ``python -O`` strips.  The procedures that answer are patched: _search
    # (behind a probe that misses) for s >= 2 and _star_search for s = 1.
    _raises_under_python_dash_o("""
        minors._probe = lambda g, q, within: None
        minors._search = lambda g, q, within, budget: found(g, (0, 1), (2, 3))
    """)


def test_invalid_probe_model_raises_under_python_dash_o():
    # A probe hit goes through the same re-verification as a search model.
    _raises_under_python_dash_o("""
        minors._probe = lambda g, q, within: model(g, (0, 1), (2, 3))
    """)


# --- K_{1,t}: connected centre sets ----------------------------------------


def _check_star(g, t, res):
    q = MinorQuery(1, t)
    assert res.status is not SearchStatus.BUDGET_EXHAUSTED
    if res.status is SearchStatus.FOUND:
        assert model_violation(g, res.model, q) is None
        (centre,) = res.model.side1
        out = 0
        for v in centre:
            out |= g.adj[v]
        out &= ~mask_of(centre)
        # the leaves are the t lowest vertices next to the centre
        assert [min(leaf) for leaf in res.model.side2] == list(bits(out))[:t]
        assert all(len(leaf) == 1 for leaf in res.model.side2)


@settings(max_examples=150)
@given(graphs(min_n=1, max_n=9), st.data())
def test_star_search_agrees_with_oracle(g, data):
    t = data.draw(st.integers(1, max(1, g.n - 1)))
    res = _star_search(g, t, g.vertex_mask(), None)
    _check_star(g, t, res)
    assert (res.status is SearchStatus.FOUND) == oracle_has_minor(g, complete_bipartite(1, t))


def _random_host(rng, n):
    p = rng.random()
    return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < p])


def test_star_search_agrees_with_general_search_on_seeded_hosts():
    rng = np.random.default_rng(26)
    for _ in range(150):
        g = _random_host(rng, int(rng.integers(1, 15)))
        for t in range(1, g.n):
            q = MinorQuery(1, t)
            got = find_kst_minor(g, q)
            _check_star(g, t, got)
            want = _search(g, q, g.vertex_mask(), None)
            assert got.status is want.status, (g.adj, t)


def _connected_sets(g, within, lo, hi):
    vs = list(bits(within))
    return sum(1 for size in range(lo, hi + 1) for c in itertools.combinations(vs, size)
               if closure(g.adj, 1 << c[0], mask_of(c)) == mask_of(c))


def test_star_search_not_found_visits_every_centre_once():
    # Below the root bound nothing is visited; above it, a NOT_FOUND search
    # visits every vertex and every connected set of 2..|atom| - t vertices
    # exactly once.
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        g = _random_host(rng, int(rng.integers(2, 11)))
        within = g.vertex_mask()
        bound = 2 + sum(d - 2 for d in map(int.bit_count, g.adj) if d > 2)
        for t in range(1, g.n):
            res = _star_search(g, t, within, None)
            if res.status is not SearchStatus.NOT_FOUND:
                continue
            if bound < t:
                assert res.nodes_expanded == 0
                continue
            checked += 1
            assert res.nodes_expanded == g.n + _connected_sets(g, within, 2, g.n - t), (g.adj, t)
    assert checked >= 50


def test_star_search_budget():
    g = petersen()
    full = _star_search(g, 7, g.vertex_mask(), None)
    assert (full.status, full.nodes_expanded) == (SearchStatus.NOT_FOUND, 55)
    for budget in (1, 9, 10, 11, 54):
        short = _star_search(g, 7, g.vertex_mask(), budget)
        assert (short.status, short.nodes_expanded) == (SearchStatus.BUDGET_EXHAUSTED, budget)
    assert _star_search(g, 7, g.vertex_mask(), 55) == full
    # the first vertex of a path has degree 1, the second is a K_{1,2} centre
    p = path(1200)
    assert _star_search(p, 2, p.vertex_mask(), 1).status is SearchStatus.BUDGET_EXHAUSTED
    assert _star_search(p, 2, p.vertex_mask(), 2).status is SearchStatus.FOUND


@pytest.mark.parametrize("g", [path(300), cycle(300), path(1500)], ids=["P300", "C300", "P1500"])
def test_star_root_bound_decides_long_paths_and_cycles(g):
    # Degrees are at most 2, so no connected set has more than 2 neighbours.
    res = find_kst_minor(g, MinorQuery(1, 3))
    assert (res.status, res.nodes_expanded, res.atoms_searched) == (SearchStatus.NOT_FOUND, 0, 1)


def test_public_api_answers_k1t_by_centre_sets():
    g = path(1200)
    q = MinorQuery(1, 2)
    res = find_kst_minor(g, q)
    assert (res.status, res.nodes_expanded, res.atoms_searched) == (SearchStatus.FOUND, 2, 1)
    assert res.model.to_json_dict() == {"side1": [[1]], "side2": [[0], [2]]}
    assert model_violation(g, res.model, q) is None
    # Petersen is 3-regular with girth 5: a centre of at most 3 vertices
    # has at most 5 neighbours, and 4 vertices would leave only 6 outside.
    pet = find_kst_minor(petersen(), MinorQuery(1, 7))
    assert (pet.status, pet.nodes_expanded) == (SearchStatus.NOT_FOUND, 55)
    six = find_kst_minor(petersen(), MinorQuery(1, 6))
    assert six.status is SearchStatus.FOUND
    assert [len(c) for c in six.model.side1] == [4]
    assert model_violation(petersen(), six.model, MinorQuery(1, 6)) is None


# --- identical tree against the search that recomputes every closure --------


def _zero_slack_split(adj, und: int, fit1: int, fit2: int, e1: int) -> bool:
    """Whether the undecided vertices ``und`` split into e1 side-1 openers
    inside ``fit1`` and the rest inside ``fit2``, with a host edge across
    every pair of the two halves.  Vertices with no edge between them share
    a side, so the classes of that relation (merged pair by pair) go whole
    to one side; the reachable side-1 counts are kept as a set."""
    verts = list(bits(und))
    root = {u: u for u in verts}

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    for a, b in itertools.combinations(verts, 2):
        if not adj[a] >> b & 1:
            root[find(a)] = find(b)
    classes: dict[int, list[int]] = {}
    for u in verts:
        classes.setdefault(find(u), []).append(u)
    counts = {0}
    for cls in classes.values():
        moves = []
        if all(fit1 >> u & 1 for u in cls):
            moves.append(len(cls))
        if all(fit2 >> u & 1 for u in cls):
            moves.append(0)
        counts = {x + d for x in counts for d in moves}
    return e1 in counts


def _edges_between(adj, a: int, b: int) -> int:
    return sum((adj[u] & b).bit_count() for u in bits(a))


def _cycle_rank(adj, m: int) -> int:
    """|E| - |V| + #components of the subgraph that ``m`` induces."""
    return (_edges_between(adj, m, m) // 2 - m.bit_count()
            + sum(1 for _ in components(adj, m)))


def _rank_allows(adj, s: int, t: int, cmask: list[int], und: int) -> bool:
    """The circuit-rank test of ``minors._search``, from scratch.  The
    component C of the committed and undecided vertices that holds every
    committed set must have circuit rank at least (s - 1)(t - 1) plus the
    waste: e - |c| + 1 for each committed set c with e edges inside (when
    positive), every edge between two sets of one side, and e - 1 for every
    cross pair joined by e >= 1 edges.  With no set committed, some
    component must reach (s - 1)(t - 1)."""
    need = (s - 1) * (t - 1)
    x = mask_of(v for cm in cmask for v in bits(cm))
    if not x:
        return max(_cycle_rank(adj, m) for m in components(adj, und)) >= need
    comp = closure(adj, x & -x, x | und)
    if x & ~comp:
        return False
    waste = sum(max(0, _edges_between(adj, cm, cm) // 2 - cm.bit_count() + 1)
                for cm in cmask if cm)
    for i, j in itertools.combinations(range(s + t), 2):
        e = _edges_between(adj, cmask[i], cmask[j])
        waste += e if (i < s) == (j < s) else max(0, e - 1)
    return _cycle_rank(adj, comp) >= need + waste


def _search_reference(g: Graph, q: MinorQuery, within: int, budget: int | None,
                      zero_slack: bool = True, exact: bool = True,
                      rank: bool = True) -> MinorSearch:
    """``minors._search`` without closures or circuit ranks carried across
    nodes: every node recomputes the reach closure of every non-empty set
    and, at slack above zero, the circuit-rank test.  Kept as the reference
    the incremental search must match node for node.  With
    ``zero_slack=False`` the zero-slack rule is off, which gives the larger
    tree of the search before that rule; it must reach the same answers.
    With ``exact=False`` only the exact zero-slack test is off (committed
    sets connected, and the split of the undecided vertices), which gives
    the tree of the search that checked each vertex on its own.  With
    ``rank=False`` the circuit-rank test is off."""
    s, t = q.s, q.t
    k = s + t
    adj = g.adj
    cmask = [0] * k        # vertices committed to each branch set
    cnbr = [0] * k         # union of host neighbourhoods over each set
    by_deg: dict[int, int] = {}
    for v in bits(within):
        d = (adj[v] & within).bit_count()
        by_deg[d] = by_deg.get(d, 0) | 1 << v
    deg_classes = [by_deg[d] for d in sorted(by_deg, reverse=True)]

    def branch(und: int) -> tuple[int, list[int]] | None:
        """The branching vertex of a node and its children (set indices, -1
        for unused), last to try first; None when a prune closes the node."""
        slack = und.bit_count() - cmask.count(0)
        if slack < 0:
            return None
        fit1 = fit2 = -1
        if zero_slack and not slack:
            # Every undecided vertex opens a singleton set: a cross pair with
            # no edge stays unlinked, and a vertex opening a set must be next
            # to every committed set of the other side.
            for i in range(s):
                for j in range(s, k):
                    if cmask[i] and cmask[j] and not cnbr[i] & cmask[j]:
                        return None

            def fit(empty_side, other_side):
                if 0 not in empty_side:
                    return 0
                return sum(1 << u for u in bits(und)
                           if all(adj[u] & cm for cm in other_side if cm))

            fit1 = fit(cmask[:s], cmask[s:])
            fit2 = fit(cmask[s:], cmask[:s])
            if und & ~(fit1 | fit2):
                return None
            # No committed set grows again, so each must be connected, and
            # the undecided vertices must split into openers of both sides.
            if exact and (
                    any(cm and closure(adj, cm & -cm, cm) != cm for cm in cmask)
                    or not _zero_slack_split(adj, und, fit1, fit2, cmask[:s].count(0))):
                return None

        # Reachability closures: a set can only ever grow inside its closure
        # through undecided vertices, so a set split across closure
        # components is dead, and a vertex outside a closure can never join.
        reach = [0] * k
        nbr_reach = [0] * k
        for c in range(k):
            cm = cmask[c]
            if cm:
                r, nb = closure_nbr(adj, cm & -cm, cm | und)
                if cm & ~r:
                    return None
                reach[c] = r
                nbr_reach[c] = nb

        # Cross-pair liveness: an unlinked pair must still have a potential
        # host edge between the two closures.
        for i in range(s):
            if not cmask[i]:
                continue
            for j in range(s, k):
                if cmask[j] and not (cnbr[i] & cmask[j]):
                    if not (nbr_reach[i] & reach[j]):
                        return None

        if rank and slack and not _rank_allows(adj, s, t, cmask, und):
            return None

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

        todo = []
        if not zero_slack or slack:
            todo = [-1] + [c for c in range(k - 1, -1, -1) if reach[c] & vbit]
        e2 = next((c for c in range(s, k) if not cmask[c]), None)
        # With s == t the two sides are interchangeable, so the very first
        # set opened can be forced onto side 1.
        if e2 is not None and vbit & fit2 and not (s == t and not any(cmask)):
            todo.append(e2)
        e1 = next((c for c in range(s) if not cmask[c]), None)
        if e1 is not None and vbit & fit1:
            todo.append(e1)
        return v, todo

    nodes = 0
    # Frames: [undecided after v, 1 << v, adj[v], children left to try,
    # set holding v now (-1: none), that set's cnbr before v joined].
    stack: list[list] = []
    und = within
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

        node = branch(und) if und else None
        if node is not None:
            v, todo = node
            stack.append([und ^ (1 << v), 1 << v, adj[v], todo, -1, 0])

        # Undo the child last tried and apply the next one, dropping frames
        # whose children are all tried.
        while stack:
            frame = stack[-1]
            nxt, vbit, av, todo, c, old = frame
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


def _same_tree(g, q, budget):
    got = _search(g, q, g.vertex_mask(), budget)
    want = _search_reference(g, q, g.vertex_mask(), budget)
    assert got == want, (g.adj, q, budget)
    return got


@settings(max_examples=300)
@given(st.one_of(graphs(min_n=1, max_n=9), sparse_graphs(min_n=1, max_n=9)), st.data())
def test_incremental_closures_keep_the_tree(g, data):
    s = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(s, 4))
    _same_tree(g, MinorQuery(s, t), 20_000)


DESK = GadgetParams(F(5, 6), F(4, 3), 1, F(2, 3))


@lru_cache(maxsize=None)
def _sampled_gadgets(count):
    builds = (build_gadget(6, 5, DESK, seed) for seed in range(3 * count))
    return tuple(b.graph for b in builds if b.ok)[:count]


def _glued_host_queries():
    hosts = [_tiny_assembly(c) for c in range(2, 8)]
    hosts += [clique_gadget(3, 3), *_sampled_gadgets(4)]
    for g in hosts:
        for s in range(1, 5):
            for t in range(s, 12 - s):
                if s + t <= g.n:
                    yield g, MinorQuery(s, t)


def test_incremental_closures_keep_the_tree_on_glued_hosts():
    for g, q in _glued_host_queries():
        full = _same_tree(g, q, 2_000)
        if full.nodes_expanded > 1:
            short = _same_tree(g, q, full.nodes_expanded // 2)
            assert short.status is SearchStatus.BUDGET_EXHAUSTED


# --- zero-slack rules against the tree without them ----------------------------


def _no_worse_than_without(g, q, budget, **off):
    """A zero-slack or circuit-rank rule cuts only subtrees without a model
    and keeps the order of the children left, so the answer and the model
    stay those of the reference search with the rules in ``off`` switched
    off, at no more nodes."""
    got = _search(g, q, g.vertex_mask(), budget)
    old = _search_reference(g, q, g.vertex_mask(), budget, **off)
    assert got.nodes_expanded <= old.nodes_expanded, (g.adj, q, budget)
    if old.status is not SearchStatus.BUDGET_EXHAUSTED:
        assert (got.status, got.model) == (old.status, old.model), (g.adj, q, budget)
    return got, old


@settings(max_examples=300)
@given(st.one_of(graphs(min_n=1, max_n=9), sparse_graphs(min_n=1, max_n=9)), st.data())
def test_zero_slack_keeps_answers_and_models(g, data):
    s = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(s, 4))
    _no_worse_than_without(g, MinorQuery(s, t), 20_000, zero_slack=False)


def test_zero_slack_keeps_answers_and_models_on_glued_hosts():
    for g, q in _glued_host_queries():
        _no_worse_than_without(g, q, 2_000, zero_slack=False)


@settings(max_examples=300)
@given(st.one_of(graphs(min_n=1, max_n=9), sparse_graphs(min_n=1, max_n=9)), st.data())
def test_exact_zero_slack_keeps_answers_and_models(g, data):
    s = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(s, max(s, min(g.n - s, 6))))
    _no_worse_than_without(g, MinorQuery(s, t), 20_000, exact=False)


def test_exact_zero_slack_keeps_answers_and_models_on_glued_hosts():
    for g, q in _glued_host_queries():
        _no_worse_than_without(g, q, 2_000, exact=False)


def test_zero_slack_on_full_width_queries_of_sampled_gadgets():
    # K_{s,11-s} on an 11-vertex gadget: every branch set is one vertex, and
    # the exact zero-slack test answers every query without a model at the
    # root.
    for g in _sampled_gadgets(4):
        assert g.n == 11
        for s in range(2, 6):
            got, old = _no_worse_than_without(g, MinorQuery(s, 11 - s), None,
                                              zero_slack=False)
            assert got.nodes_expanded < old.nodes_expanded
            if got.status is SearchStatus.NOT_FOUND:
                assert got.nodes_expanded == 1


@pytest.mark.parametrize("seed", [11, 12])
def test_zero_slack_decides_k77_on_desk_gadgets(seed):
    # 14 vertices and 14 branch sets: zero slack from the root, where the
    # exact test answers.  Without the zero-slack rule these searches took
    # 24,617 (seed 11) and 28,857 (seed 12) nodes; with it, checking each
    # vertex on its own, 114 and 276.
    g = build_gadget(8, 6, DESK, seed=seed).graph
    res = find_kst_minor(g, MinorQuery(7, 7), budget=1_000)
    assert res.status is SearchStatus.NOT_FOUND
    assert res.nodes_expanded == 1


def test_zero_slack_finds_k67_on_a_desk_gadget():
    # Without the rule this search took 332,828 nodes.
    g = build_gadget(8, 6, DESK, seed=11).graph
    q = MinorQuery(6, 7)
    res = find_kst_minor(g, q, budget=20_000)
    assert res.status is SearchStatus.FOUND
    assert model_violation(g, res.model, q) is None


# --- circuit-rank rule against the tree without it ---------------------------


@settings(max_examples=300)
@given(st.one_of(graphs(min_n=1, max_n=9), sparse_graphs(min_n=1, max_n=9)), st.data())
def test_rank_prune_keeps_answers_and_models(g, data):
    s = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(s, 4))
    _no_worse_than_without(g, MinorQuery(s, t), 20_000, rank=False)


def test_rank_prune_keeps_answers_and_models_on_glued_hosts():
    for g, q in _glued_host_queries():
        _no_worse_than_without(g, q, 2_000, rank=False)


def test_rank_prune_drops_sets_split_by_an_unused_vertex():
    # Two blobs joined at the cut vertex 8: the search commits two side-1
    # sets, one in each blob, and leaving 8 unused puts them in different
    # components, so no model can hold both.
    g = Graph.from_edges(9, [(0, 1), (0, 2), (0, 3), (0, 8), (1, 2), (2, 3), (3, 8),
                             (4, 5), (4, 6), (4, 7), (4, 8), (5, 7), (5, 8), (6, 7)])
    assert _same_tree(g, MinorQuery(3, 3), None).status is SearchStatus.NOT_FOUND


@pytest.mark.parametrize("s, t, status, nodes, without", [
    # 15 edges on 10 vertices: circuit rank 6 = (3 - 1)(4 - 1), so a model
    # uses every edge and any set with an edge to spare is dead.
    (3, 4, SearchStatus.FOUND, 19, 2_627),
    (3, 3, SearchStatus.FOUND, 18, 59),
    (2, 5, SearchStatus.NOT_FOUND, 5_527, 18_339),
])
def test_rank_prune_on_petersen(s, t, status, nodes, without):
    g = petersen()
    q = MinorQuery(s, t)
    res = _search(g, q, g.vertex_mask(), None)
    assert (res.status, res.nodes_expanded) == (status, nodes)
    old = _search_reference(g, q, g.vertex_mask(), None, rank=False)
    assert (old.status, old.model, old.nodes_expanded) == (status, res.model, without)
    # The contraction probe finds K_{3,3} before any search node; it misses
    # K_{3,4}, and K_{2,5} has no model to find.
    full = find_kst_minor(g, q)
    assert (full.status, full.nodes_expanded) == (status, 0 if (s, t) == (3, 3) else nodes)


def test_rank_prune_finds_k22_on_a_long_cycle():
    # Without the rule, K_{2,2} on a 200-vertex cycle used up 300,000 nodes:
    # the search grew sets around the cycle and left the rest unused at
    # every depth.  A cycle has circuit rank 1, so once a vertex goes unused
    # the rest is a path and the subtree is dead.  The search is called
    # directly: find_kst_minor's contraction probe answers this at 0 nodes.
    g = cycle(200)
    q = MinorQuery(2, 2)
    res = _search(g, q, g.vertex_mask(), 1_000)
    assert res.status is SearchStatus.FOUND
    assert model_violation(g, res.model, q) is None


def test_rank_prune_decides_a_six_copy_tiny_assembly():
    # K_{2,7} on six tiny gadgets glued along B: 14 vertices, 25 edges,
    # circuit rank 12 >= 6, so the atom is searched; the search used up a
    # 300,000-node budget before the rule.
    g = _tiny_assembly(6)
    res = find_kst_minor(g, MinorQuery(2, 7), budget=300_000)
    assert res.status is SearchStatus.NOT_FOUND


def test_rank_filter_skips_atoms_at_zero_nodes():
    # K_{2,4} has circuit rank 3.  C_8 with one chord is a single block with
    # 9 edges, enough for the old filter (s * t = 8 edges), but its circuit
    # rank is 2, so it is skipped at zero nodes; a second chord makes the
    # rank 3 and the block is searched.
    q = MinorQuery(2, 4)
    ring = [(v, (v + 1) % 8) for v in range(8)]
    theta = Graph.from_edges(8, [*ring, (0, 4)])
    assert kst_atoms(theta, 2) == [tuple(range(8))]
    res = find_kst_minor(theta, q)
    assert (res.status, res.nodes_expanded, res.atoms_searched) == (SearchStatus.NOT_FOUND, 0, 0)
    assert find_kst_minor(Graph.from_edges(8, [*ring, (0, 4), (2, 6)]), q).atoms_searched == 1


# --- contraction probe against the search without it ---------------------------


@settings(max_examples=300)
@given(st.one_of(graphs(min_n=1, max_n=9), sparse_graphs(min_n=1, max_n=9)), st.data())
def test_probe_keeps_statuses_and_the_reports_it_misses(g, data):
    s = data.draw(st.integers(2, 4))
    t = data.draw(st.integers(s, max(s, 9 - s)))
    q = MinorQuery(s, t)
    hits = []

    def probe(host, query, within):
        model = _probe(host, query, within)
        if model is not None:
            hits.append(model)
        return model

    with mock.patch.object(minors, "_probe", probe):
        got = find_kst_minor(g, q)
    with mock.patch.object(minors, "_probe", lambda host, query, within: None):
        want = find_kst_minor(g, q)
    assert got.status is want.status, (g.adj, q)
    for model in hits:
        assert model_violation(g, model, q) is None, (g.adj, q)
    if hits:
        # the first hit answers, from the atom the search answers from
        assert len(hits) == 1 and got.model == hits[0]
        assert got.nodes_expanded <= want.nodes_expanded
        assert got.atoms_searched == want.atoms_searched
    else:
        assert got == want, (g.adj, q)
    if g.n <= 8:
        found = got.status is SearchStatus.FOUND
        assert found == oracle_has_minor(g, complete_bipartite(s, t)), (g.adj, q)


@pytest.mark.parametrize("g, s, t", [
    (cycle(4), 2, 2),
    (petersen(), 2, 3),
    (petersen(), 3, 3),
    (cycle(200), 2, 2),
], ids=["c4-k22", "petersen-k23", "petersen-k33", "cycle200-k22"])
def test_probe_hits_at_zero_nodes(g, s, t):
    q = MinorQuery(s, t)
    assert _probe(g, q, g.vertex_mask()) is not None
    res = find_kst_minor(g, q)
    assert (res.status, res.nodes_expanded, res.atoms_searched) == (SearchStatus.FOUND, 0, 1)
    assert model_violation(g, res.model, q) is None


@pytest.mark.parametrize("s, t, nodes", [(2, 4, 964), (3, 4, 19)])
def test_probe_misses_keep_their_counts(s, t, nodes):
    g = petersen()
    q = MinorQuery(s, t)
    assert _probe(g, q, g.vertex_mask()) is None
    res = find_kst_minor(g, q)
    assert res == _search(g, q, g.vertex_mask(), None)
    assert (res.status, res.nodes_expanded) == (SearchStatus.FOUND, nodes)


def test_probe_hit_answers_past_an_exhausted_budget():
    # A probe takes nothing from the budget: Petersen K_{3,3} is found at a
    # budget of 1, where the search alone runs out.
    g = petersen()
    q = MinorQuery(3, 3)
    assert _search(g, q, g.vertex_mask(), 1).status is SearchStatus.BUDGET_EXHAUSTED
    res = find_kst_minor(g, q, budget=1)
    assert (res.status, res.nodes_expanded) == (SearchStatus.FOUND, 0)


@given(graphs(min_n=1, max_n=8), st.data())
def test_split_returns_a_split_exactly_when_one_exists(g, data):
    # _split against the pairwise reference: when it returns a set, that set
    # is a valid split; when it returns None, the reference finds none.
    und = data.draw(st.integers(0, g.vertex_mask()))
    fit1 = und & data.draw(st.sampled_from([g.vertex_mask(), data.draw(st.integers(0, und))]))
    fit2 = und & data.draw(st.sampled_from([g.vertex_mask(), data.draw(st.integers(0, und))]))
    e1 = data.draw(st.integers(0, und.bit_count()))
    side1 = _split(g.adj, und, fit1, fit2, e1)
    assert (side1 is not None) == _zero_slack_split(g.adj, und, fit1, fit2, e1)
    if side1 is not None:
        side2 = und & ~side1
        assert side1 & ~und == 0 and side1.bit_count() == e1
        assert side1 & ~fit1 == 0 and side2 & ~fit2 == 0
        assert all(g.adj[u] >> v & 1 for u in bits(side1) for v in bits(side2))
