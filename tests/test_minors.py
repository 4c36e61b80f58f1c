"""Minor search: model verification, exact search, brute-force oracle.

Positive expectations are certified in-test by model_violation (a found
model is re-validated structurally).  Negative expectations on named
graphs come with the counting argument that rules the minor out, and the
search is cross-checked against the independent enumeration oracle on
every graph with at most 5 vertices.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from kstlab.construction import tiny_gadget
from kstlab.graph import (
    Graph,
    GlueSpec,
    complete,
    complete_bipartite,
    cycle,
    empty,
    glue,
    induced_subgraph,
    path,
    permuted,
    petersen,
)
from kstlab.minors import (
    BranchModel,
    MinorQuery,
    SearchStatus,
    _search,
    find_kst_minor,
    kst_atoms,
    kst_query_graph,
    model_violation,
    oracle_has_minor,
    verify_model,
)

from conftest import graphs, sparse_graphs


# --- query and model plumbing -------------------------------------------


def test_query_validation():
    assert MinorQuery(2, 3).s == 2
    with pytest.raises(ValueError):
        MinorQuery(0, 3)
    with pytest.raises(ValueError):
        MinorQuery(3, 2)


def test_query_graph_shape():
    f = kst_query_graph(MinorQuery(2, 3))
    assert f.n == 5 and f.edge_count() == 6


def _bm(host, side1, side2):
    return BranchModel(tuple(frozenset(s) for s in side1),
                       tuple(frozenset(s) for s in side2), host)


def test_model_violation_detects_each_clause():
    g = cycle(4)
    q = MinorQuery(2, 2)
    assert model_violation(g, _bm(g, [(0,), (2,)], [(1,), (3,)]), q) is None

    wrong_count = _bm(g, [(0,)], [(1,), (3,)])
    assert model_violation(g, wrong_count, q) is not None

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
    f = kst_query_graph(MinorQuery(3, 3))
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
    g = petersen()
    q = MinorQuery(3, 3)
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
            f = kst_query_graph(q)
            for g in gs:
                got = find_kst_minor(g, q)
                assert got.status is not SearchStatus.BUDGET_EXHAUSTED
                expected = oracle_has_minor(g, f)
                assert (got.status is SearchStatus.FOUND) == expected, (
                    n, g.adj, q)


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
    # 1500 vertices is past the default recursion limit of 1000, and the
    # path is one component, so s = 1 searches it whole.
    g = path(1500)
    q = MinorQuery(1, 2)
    res = find_kst_minor(g, q)
    assert res.status is SearchStatus.FOUND
    assert model_violation(g, res.model, q) is None


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
    # model before the search wanders among the copies.
    g = _tiny_assembly(copies)
    assert g.n == 2 + 2 * copies
    q = MinorQuery(s, t)
    res = find_kst_minor(g, q, budget=1000)
    assert res.status is SearchStatus.FOUND
    assert model_violation(g, res.model, q) is None


def test_invalid_model_raises_under_python_dash_o():
    # The re-verification of a found model must not be an assert, which
    # ``python -O`` strips.
    script = textwrap.dedent("""
        import sys
        from kstlab import minors
        from kstlab.graph import cycle

        def bogus(g, q, within, budget):
            model = minors.BranchModel((frozenset({0}),), (frozenset({2}),), g)
            return minors.MinorSearch(minors.SearchStatus.FOUND, model, 1, 1)

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        minors._search = bogus
        try:
            minors.find_kst_minor(cycle(4), minors.MinorQuery(1, 1))
        except RuntimeError as exc:
            print("raised:", exc)
    """)
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: search produced an invalid model")
