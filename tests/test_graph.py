"""Graph core: constructors, complement, gluing, serialization.

Expected values here are either direct consequences of the definitions
(vertex/edge counts of named graphs) or computed by independent counting
arguments spelled out next to each assertion.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, strategies as st

from kstlab.graph import (
    CliqueGlueError,
    DuplicateEdgeWarning,
    Graph,
    GraphFormatError,
    GlueSpec,
    bits,
    closure,
    components,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty,
    from_edge_list,
    from_json_dict,
    glue,
    induced_subgraph,
    is_clique,
    mask_of,
    non_neighbor_count,
    parse,
    path,
    permuted,
    petersen,
    serialize,
    to_edge_list,
    to_json_dict,
)
import kstlab.graph as graph_module

from conftest import graph_from_edge_code, graphs


# --- construction and validation ---------------------------------------


def test_constructor_counts():
    # Edge counts are the standard closed forms for these families.
    assert empty(5).edge_count() == 0
    assert complete(5).edge_count() == 10
    assert complete_bipartite(2, 3).edge_count() == 6
    assert cycle(5).edge_count() == 5
    assert path(5).edge_count() == 4
    assert petersen().n == 10 and petersen().edge_count() == 15


def test_petersen_is_cubic_and_triangle_free():
    g = petersen()
    assert all(g.degree(v) == 3 for v in range(10))
    for u, v in g.edges():
        assert not (g.adj[u] & g.adj[v]), "adjacent vertices share a neighbor"


def test_complete_bipartite_labels():
    g = complete_bipartite(2, 3)
    assert g.part("A") == (0, 1)
    assert g.part("B") == (2, 3, 4)
    for a in g.part("A"):
        for b in g.part("B"):
            assert g.has_edge(a, b)


def test_graph_validation_rejects_loops_and_asymmetry():
    with pytest.raises(ValueError, match="^loop at vertex 0$"):
        Graph(2, (0b01, 0b00), None)
    with pytest.raises(ValueError, match="^adjacency row 1 mentions out-of-range vertices$"):
        Graph(2, (0b10, 0b101), None)
    with pytest.raises(ValueError, match="^asymmetric adjacency between 1 and 0$"):
        Graph(2, (0b10, 0b00), None)  # 0->1 without 1->0
    # rows are walked in order, each from its lowest bit: of the one-way
    # pairs 0-1, 0-2 and 3-0, the message names 0-1
    with pytest.raises(ValueError, match="^asymmetric adjacency between 1 and 0$"):
        Graph(4, (0b0110, 0b0000, 0b0000, 0b0001), None)
    with pytest.raises(ValueError):
        Graph(2, (0, 0), ("A",))  # label arity mismatch
    with pytest.raises(ValueError):
        Graph(1, (0,), ("X",))  # unknown label value
    for n, adj in ((2, (0,)), (-1, ())):
        with pytest.raises(ValueError, match="^adjacency length must equal vertex count$"):
            Graph(n, adj, None)


@pytest.mark.parametrize("call, err", [
    (lambda: Graph.from_edges(2, [(0, 2)]), "edge (0,2) out of range for n=2"),
    (lambda: Graph.from_edges(2, [(-1, 0)]), "edge (-1,0) out of range for n=2"),
    (lambda: Graph.from_edges(2, [(1, 1)]), "loop at vertex 1 rejected"),
    (lambda: cycle(2), "cycle needs at least 3 vertices"),
    (lambda: induced_subgraph(path(3), [0, 3]), "vertex 3 out of range"),
    (lambda: permuted(path(3), (0, 1, 1)), "perm must be a permutation of range(n)"),
    (lambda: serialize(path(3), "dot"), "unknown graph format 'dot'"),
])
def test_constructors_and_operations_reject_bad_arguments(call, err):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == err


def _first_asymmetric_pair(rows):
    """The full walk: rows in order, each from its lowest bit, and the first
    bit u of row v whose mirror is missing, as (u, v); None if symmetric."""
    for v, row in enumerate(rows):
        for u in bits(row):
            if not rows[u] >> v & 1:
                return u, v
    return None


@given(graphs(max_n=9), st.data())
def test_symmetry_check_matches_the_full_walk(g, data):
    # Flip a few bits of a symmetric graph.  With ``below`` every flip lies
    # below the diagonal (bit u of row v, u < v), where the walk above the
    # diagonal does not look: a bit added there is caught only by the count.
    rows = list(g.adj)
    below = data.draw(st.booleans())
    pairs = [(u, v) for u, v in itertools.permutations(range(g.n), 2) if not below or u < v]
    for u, v in data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []:
        rows[v] ^= 1 << u
    pair = _first_asymmetric_pair(rows)
    assert graph_module._symmetric(tuple(rows)) is (pair is None), rows
    if pair is None:
        assert Graph(g.n, tuple(rows)).adj == tuple(rows)
    else:
        with pytest.raises(ValueError, match=f"^asymmetric adjacency between {pair[0]} and {pair[1]}$"):
            Graph(g.n, tuple(rows))


def test_symmetry_check_counts_bits_below_the_diagonal():
    # Row 2 holds 0, whose row lacks 2: nothing above the diagonal misses
    # its mirror, so only the bit count tells the rows apart from a path.
    rows = (0b010, 0b101, 0b011)
    assert graph_module._symmetric(rows) is False
    with pytest.raises(ValueError, match="^asymmetric adjacency between 0 and 2$"):
        Graph(3, rows)


def test_from_edges_builds_symmetric_adjacency():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert g.has_edge(1, 0) and g.has_edge(3, 2)
    assert not g.has_edge(0, 2)
    assert sorted(g.edges()) == [(0, 1), (2, 3)]


def test_mask_helpers_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(bits(0b101001)) == [0, 3, 5]


def test_closure_stays_inside_allowed():
    g = path(5)                      # 0-1-2-3-4
    assert closure(g.adj, 0b1, g.vertex_mask()) == 0b11111
    # vertex 2 is not allowed, so the walk from 0 stops at 1
    assert closure(g.adj, 0b1, 0b11011) == 0b11
    assert closure(g.adj, 0, g.vertex_mask()) == 0
    # {0, 2} is not connected in P_5, {1, 2, 3} is
    assert closure(g.adj, 0b1, 0b101) != 0b101
    assert closure(g.adj, 0b10, 0b1110) == 0b1110
    # components come lowest vertex first
    assert list(components(g.adj, 0b11011)) == [0b11, 0b11000]
    assert list(components(g.adj, 0)) == []


@given(graphs(max_n=9), st.data())
def test_is_clique_matches_pairwise_check(g, data):
    vs = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), max_size=g.n))
    start = data.draw(st.integers(0, g.n))
    stop = data.draw(st.integers(start, g.n))

    def pairwise(vertices):
        return all(g.has_edge(u, v) for u, v in itertools.combinations(set(vertices), 2))

    assert is_clique(g, vs) == pairwise(vs)
    assert is_clique(g, (v for v in vs)) == pairwise(vs)
    assert is_clique(g, range(start, stop)) == pairwise(range(start, stop))
    assert is_clique(g, []) and is_clique(g, range(0))


# --- complement ----------------------------------------------------------


def test_complement_of_complete_bipartite_is_two_cliques():
    # The complement of K_{2,2} keeps exactly the two within-side edges.
    cg = complement(complete_bipartite(2, 2))
    assert sorted(cg.edges()) == [(0, 1), (2, 3)]
    assert is_clique(cg, cg.part("A")) and is_clique(cg, cg.part("B"))


def test_complement_involution_exhaustive_small():
    for n in range(5):
        for code in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_code(n, code)
            assert complement(complement(g)) == g


@given(graphs(max_n=9))
def test_complement_involution_and_edge_partition(g):
    cg = complement(g)
    assert complement(cg) == g
    assert g.edge_count() + cg.edge_count() == g.n * (g.n - 1) // 2


# --- induced subgraphs and permutation ----------------------------------


def test_induced_subgraph_identity_and_correspondence():
    g = cycle(5)
    sub, kept = induced_subgraph(g, range(5))
    assert sub == g and kept == (0, 1, 2, 3, 4)
    sub, kept = induced_subgraph(g, [3, 0, 4])
    assert kept == (0, 3, 4)
    # edges among {0,3,4} in C_5: 3-4 and 4-0
    assert sorted(sub.edges()) == [(0, 2), (1, 2)]


@given(graphs(min_n=1, max_n=8), st.data())
def test_induced_preserves_adjacency(g, data):
    k = data.draw(st.integers(1, g.n))
    vs = data.draw(st.lists(st.integers(0, g.n - 1), min_size=k, max_size=k,
                            unique=True))
    sub, kept = induced_subgraph(g, vs)
    for i, u in enumerate(kept):
        for j, v in enumerate(kept):
            assert sub.has_edge(i, j) == g.has_edge(u, v)


@given(graphs(min_n=1, max_n=8), st.data())
def test_permuted_preserves_edge_count_and_degrees(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    pg = permuted(g, perm)
    assert pg.edge_count() == g.edge_count()
    assert sorted(pg.degree(v) for v in range(g.n)) == \
        sorted(g.degree(v) for v in range(g.n))
    for u, v in g.edges():
        assert pg.has_edge(perm[u], perm[v])


def test_non_neighbor_count():
    g = path(4)  # 0-1-2-3: vertex 0 misses 2 and 3
    assert non_neighbor_count(g, 0) == 2
    assert non_neighbor_count(g, 1) == 1
    assert non_neighbor_count(complete(4), 2) == 0


# --- clique gluing -------------------------------------------------------


def test_glue_two_k4_on_triangle():
    # |V| = 4+4-3 = 5 and |E| = 6+6-3 = 9 by inclusion-exclusion.
    spec = GlueSpec(complete(4), complete(4), ((0, 0), (1, 1), (2, 2)))
    g = glue(spec)
    assert g.n == 5
    assert g.edge_count() == 9
    # the two private vertices (3 from each side) are non-adjacent
    assert not g.has_edge(3, 4)


def test_glue_disjoint_union_via_single_vertex():
    spec = GlueSpec(path(2), path(2), ((0, 0),))
    g = glue(spec)
    assert g.n == 3 and g.edge_count() == 2


def test_glue_rejects_non_clique_interface():
    g1 = path(3)  # 0-1-2: {0,2} not an edge
    with pytest.raises(CliqueGlueError):
        GlueSpec(g1, complete(3), ((0, 0), (2, 1))).validate()


def test_glue_rejects_duplicate_interface_vertices():
    with pytest.raises(CliqueGlueError):
        GlueSpec(complete(3), complete(3), ((0, 0), (0, 1))).validate()
    with pytest.raises(CliqueGlueError):
        GlueSpec(complete(3), complete(3), ((0, 0), (1, 0))).validate()


def test_glue_rejects_out_of_range():
    with pytest.raises(CliqueGlueError):
        GlueSpec(complete(3), complete(3), ((0, 5),)).validate()
    with pytest.raises(CliqueGlueError, match="^shared vertex 3 out of range in g1$"):
        GlueSpec(complete(3), complete(3), ((3, 0),)).validate()
    with pytest.raises(CliqueGlueError,
                       match="^shared vertices do not form a clique in g2$"):
        GlueSpec(complete(3), path(3), ((0, 0), (1, 2))).validate()


@given(st.data())
def test_glue_count_identities(data):
    # inclusion-exclusion on vertices and edges of the shared clique
    g1 = data.draw(graphs(min_n=1, max_n=6))
    g2 = data.draw(graphs(min_n=1, max_n=6))
    max_c = min(g1.n, g2.n)
    c = data.draw(st.integers(1, max_c))
    v1 = data.draw(st.lists(st.integers(0, g1.n - 1), min_size=c, max_size=c,
                            unique=True))
    v2 = data.draw(st.lists(st.integers(0, g2.n - 1), min_size=c, max_size=c,
                            unique=True))
    if not (is_clique(g1, v1) and is_clique(g2, v2)):
        return
    g = glue(GlueSpec(g1, g2, tuple(zip(v1, v2))))
    shared_edges = c * (c - 1) // 2
    assert g.n == g1.n + g2.n - c
    assert g.edge_count() == g1.edge_count() + g2.edge_count() - shared_edges
    # no edge joins a private g1 vertex to a private g2 vertex
    priv1 = mask_of(set(range(g1.n)) - set(v1))
    start2 = g1.n
    for u in bits(priv1):
        assert g.adj[u] >> start2 == 0


# --- serialization -------------------------------------------------------


@given(graphs(max_n=8))
def test_edge_list_roundtrip(g):
    assert from_edge_list(to_edge_list(g)) == g


@given(graphs(max_n=8))
def test_json_roundtrip(g):
    assert from_json_dict(json.loads(json.dumps(to_json_dict(g)))) == g


def test_labeled_roundtrip_both_formats():
    g = complete_bipartite(2, 3)
    assert parse(serialize(g, "edge-list")) == g
    assert parse(serialize(g, "json")) == g


def test_parse_sniffs_format():
    g = cycle(4)
    assert parse(to_edge_list(g)) == g
    assert parse(json.dumps(to_json_dict(g))) == g


def test_edge_list_header_and_comments():
    text = "# a comment\nn=3 m=1\n# another\n0 2\n"
    g = from_edge_list(text)
    assert g.n == 3 and sorted(g.edges()) == [(0, 2)]


def test_edge_list_empty_graph_body():
    g = from_edge_list("n=3 m=0\n")
    assert g.n == 3 and g.edge_count() == 0


def test_edge_list_error_reports_line_numbers():
    with pytest.raises(GraphFormatError, match="line 3"):
        from_edge_list("n=3 m=1\n# fine\n0 9\n")
    with pytest.raises(GraphFormatError, match="m=2"):
        from_edge_list("n=3 m=2\n0 1\n")
    with pytest.raises(GraphFormatError):
        from_edge_list("nonsense\n")
    with pytest.raises(GraphFormatError, match="^line 1: missing 'n=<int> m=<int>' header$"):
        from_edge_list("# no header\n\n")
    with pytest.raises(GraphFormatError, match="^line 3: loop at vertex 1 rejected$"):
        from_edge_list("n=3 m=2\n0 1\n1 1\n")


# int() alone would read these: '_' between digits, a '+' sign, an
# Arabic-Indic zero.  The JSON reader is as strict (``type(x) is int``).
@pytest.mark.parametrize("text, err", [
    ("n=1_1 m=1\n0 1_0\n", "line 1: non-integer in header 'n=1_1 m=1'"),
    ("n=+3 m=0\n", "line 1: non-integer in header 'n=+3 m=0'"),
    ("n=3 m=1\n٠ +2\n", "line 2: non-integer endpoint in '٠ +2'"),
    ("n=3 m=1\n0 +2\n", "line 2: non-integer endpoint in '0 +2'"),
    ("n=3 m=1\n0 ٢  # é\n", "line 2: non-integer endpoint in '0 ٢'"),
    ("n=3 m=0\nA=0 1_0\n", "line 2: non-integer vertex in A= line"),
    ("n=3 m=0\nA=+1\n", "line 2: non-integer vertex in A= line"),
    ("n=3 m=1\n0 १\n", "line 2: non-integer endpoint in '0 १'"),
    ("n=3 m=1\n0 2_\n", "line 2: non-integer endpoint in '0 2_'"),
    ("n=3 m=1\n0 -\n", "line 2: non-integer endpoint in '0 -'"),
    ("n=3 m=1\n0 --2\n", "line 2: non-integer endpoint in '0 --2'"),
    # '-' is still read, so these keep their messages
    ("n=-1 m=0\n", "line 1: negative count in header"),
    # a count above the cap is refused before any list is built
    ("n=100000000000000000000 m=0\n",
     "line 1: vertex count n=100000000000000000000 is too large"),
    ("# big\nn=9223372036854775808 m=0\n",
     "line 2: vertex count n=9223372036854775808 is too large"),
    ("n=1048577 m=0\n", "line 1: vertex count n=1048577 is too large"),
    ("n=3 m=0\nA=-1\n", "line 2: A-vertex -1 out of range"),
    ("n=3 m=1\n0 -2\n", "line 2: edge (0,-2) out of range for n=3"),
])
def test_edge_list_integers_are_ascii_decimal(tmp_path, capsys, text, err):
    from kstlab.cli import main

    with pytest.raises(GraphFormatError) as exc:
        from_edge_list(text)
    assert str(exc.value) == err
    g = tmp_path / "g.txt"
    g.write_text(text, encoding="utf-8")
    assert main(["check-minor", str(g), "--s", "1", "--t", "1"]) == 3
    assert capsys.readouterr() == ("", f"kstlab: error: {err}\n")


# str.splitlines would also end a line at these; a comment holding one keeps
# its tail, and error line numbers count LF, CRLF and lone CR ends only.
@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_edge_list_lines_end_only_at_lf_crlf_and_cr(sep):
    assert from_edge_list(f"n=3 m=1\n# a{sep}b\n0 1\n") == Graph.from_edges(3, [(0, 1)])
    with pytest.raises(GraphFormatError) as exc:
        from_edge_list(f"n=3 m=1\n# a{sep}b\n0 x\n")
    assert str(exc.value) == "line 3: non-integer endpoint in '0 x'"
    with pytest.raises(GraphFormatError) as exc:
        from_edge_list(f"n=3 m=1\r\n# a{sep}b\r0 x\r\n")
    assert str(exc.value) == "line 3: non-integer endpoint in '0 x'"


def test_edge_list_integers_may_have_leading_zeros():
    assert from_edge_list("n=03 m=1\nA=00\n00 02\n") == \
        from_edge_list("n=3 m=1\nA=0\n0 2\n")


def test_duplicate_edge_warning():
    # both readers merge a repeated edge and name where it repeats
    for text, where in [("n=3 m=2\n0 1\n1 0\n", "line 3"),
                        ('{"vertex_count": 3, "edges": [[0, 1], [1, 0]]}', "edge entry 1")]:
        with pytest.warns(DuplicateEdgeWarning) as caught:
            g = parse(text)
        assert [str(w.message) for w in caught] == [f"{where}: duplicate edge (1,0) merged"]
        assert g.edge_count() == 1


def test_edge_list_label_line():
    g = complete_bipartite(2, 2)
    text = to_edge_list(g)
    assert "A=0 1" in text
    back = from_edge_list(text)
    assert back.labels == g.labels


def test_json_rejects_bool_counts_and_non_list_labels():
    with pytest.raises(GraphFormatError, match="vertex_count"):
        from_json_dict({"vertex_count": True, "edges": []})
    with pytest.raises(GraphFormatError, match="^vertex_count must be non-negative$"):
        from_json_dict({"vertex_count": -1, "edges": []})
    with pytest.raises(GraphFormatError, match="^vertex_count 10{20} is too large$"):
        from_json_dict({"vertex_count": 10**20, "edges": []})
    with pytest.raises(GraphFormatError, match="labels"):
        from_json_dict({"vertex_count": 2, "edges": [], "labels": 5})
    with pytest.raises(GraphFormatError, match="^graph JSON missing field: 'vertex_count'$"):
        from_json_dict({"edges": []})


# JSON errors name the edge entry (or, for labels, the vertex), as edge-list
# errors name the line.
@pytest.mark.parametrize("data, err", [
    ({"vertex_count": 2, "edges": [[0, 5]]}, "edge entry 0: edge (0,5) out of range for n=2"),
    ({"vertex_count": 2, "edges": [[0, 1], [-1, 0]]},
     "edge entry 1: edge (-1,0) out of range for n=2"),
    ({"vertex_count": 3, "edges": [[0, 1], [2, 2]]}, "edge entry 1: loop at vertex 2 rejected"),
    ({"vertex_count": 3, "edges": [[0, 1], [2]]}, "edge entry 1 is not a pair"),
    ({"vertex_count": 3, "edges": [[0, 1], [2, "0"]]},
     "edge entry 1 is not a pair of integers"),
    ({"vertex_count": 2, "edges": [], "labels": ["A"]}, "labels length must equal vertex count"),
    ({"vertex_count": 2, "edges": [], "labels": ["A", "C"]},
     "vertex 1 has label 'C', expected 'A' or 'B'"),
])
def test_json_errors_name_their_entry(data, err):
    with pytest.raises(GraphFormatError) as exc:
        from_json_dict(data)
    assert str(exc.value) == err


def test_json_format_version_present():
    d = to_json_dict(cycle(3))
    assert d["format_version"] == 1
    assert d["vertex_count"] == 3
    assert sorted(map(tuple, d["edges"])) == [(0, 1), (0, 2), (1, 2)]
