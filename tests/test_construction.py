"""Random gadget sampling, property checks, bounds, and the glued assembly.

Oracle notes per section:

* parameter derivations and the lower bound are exact integer/rational
  arithmetic re-derived inline where asserted;
* probability-bound exponents are compared against mpmath evaluations of
  the same closed forms at 50-digit precision;
* block-property verdicts are cross-checked by a direct inline
  enumeration over singleton collections where that is feasible, and by
  the former X-by-Y double loop over all block collections (kept here as
  ``_block_reference``) on small random graphs, and by the X enumeration
  without its cut (kept here as ``_block_unpruned``), status and witness,
  on seeded desk draws and random graphs;
* the draw, the gadget build and the assembly are compared with the paths
  they replaced, kept here as ``_sample_reference`` (an edge list through
  ``Graph.from_edges``), ``_build_gadget_reference`` (complement of the
  induced subgraph) and ``_assembly_reference`` (every base row re-walked
  per copy), on random inputs and on fixed cases;
* the pigeonhole verifier is exercised on every proper coloring of the
  fixtures' B-cliques and on copies of a sampled gadget, each compared with
  the exhaustive list-coloring solver on B plus the copy, and the assembled
  graph is additionally given to that solver; on random gadgets and
  doctored lists it is compared with the set-based check it replaced, kept
  here as ``_pigeonhole_reference``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kstlab import construction
from kstlab.construction import (
    AssemblyCapError,
    DegreeCheck,
    EnumerationCapError,
    GadgetParams,
    SweepRow,
    block_collection_joined,
    block_failure_exponent,
    build_counterexample,
    build_gadget,
    check_block_property,
    check_degree_property,
    choosability_lower_bound,
    clique_gadget,
    degree_failure_exponent,
    degree_property_sweep,
    sample_bipartite,
    tiny_gadget,
    verify_no_l_coloring_pigeonhole,
)
from kstlab.graph import (
    Graph,
    GlueSpec,
    complement,
    complete_bipartite,
    empty,
    glue,
    induced_subgraph,
    is_clique,
    mask_of,
    non_neighbor_count,
    permuted,
)
from kstlab.listcolor import ListAssignment, find_l_coloring

mpmath.mp.dps = 50

DESK = GadgetParams(F(5, 6), F(4, 3), 1, F(2, 3))


# --- parameters ------------------------------------------------------------


def test_derive_pins_block_size_and_exponent():
    p = GadgetParams.derive(F(1, 2), F(1))
    # f = ceil(C/eps) = 2 and delta = eps^2/(4C^2) = 1/16, so f^2*delta = 1/4
    assert p.max_block_size == 2
    assert p.delta == F(1, 16)
    assert p.max_block_size ** 2 * p.delta == F(1, 4)


def test_derive_other_values():
    p = GadgetParams.derive(F(1, 4), F(2))
    assert p.max_block_size == 8  # ceil(2 / (1/4))
    assert p.delta == F(1, 256)  # (1/16) / 16
    assert p.max_block_size ** 2 * p.delta == F(1, 4)


def test_params_validation():
    with pytest.raises(ValueError):
        GadgetParams(F(0), F(1), 1, F(1, 2))        # epsilon out of range
    with pytest.raises(ValueError):
        GadgetParams(F(1, 2), F(1, 2), 1, F(1, 2))  # C below 1
    with pytest.raises(ValueError):
        GadgetParams(F(1, 2), F(1), 0, F(1, 2))     # block size below 1
    with pytest.raises(ValueError):
        GadgetParams(F(1, 2), F(1), 2, F(1, 2))     # f^2 * delta = 2 >= 1
    with pytest.raises(TypeError):
        GadgetParams(0.5, 1, 1, 0.25)               # floats rejected
    # ints and rational strings are read exactly
    assert GadgetParams(F(1, 2), 1, 1, "1/2") == GadgetParams(F(1, 2), F(1), 1, F(1, 2))


def test_edge_probability_closed_form():
    p = GadgetParams(F(1, 2), F(1), 2, F(1, 16))
    # 256^(-1/16) = 2^(-1/2)
    assert p.edge_probability(256) == pytest.approx(2 ** -0.5, rel=1e-15)


def test_float_overflow_in_n_is_a_value_error_naming_n():
    p = GadgetParams(F(1, 2), F(1), 2, F(1, 16))
    past_float = 10 ** 400            # float(10**400) overflows
    err = "^n >= 2\\*\\*1328 is too large for float arithmetic$"
    with pytest.raises(ValueError, match=err):
        p.edge_probability(past_float)
    with pytest.raises(ValueError, match=err):
        block_failure_exponent(past_float, F(1, 2), F(1), 2, F(1, 16))
    with pytest.raises(ValueError, match=err):
        degree_failure_exponent(past_float, F(1), F(1, 16))
    # 10**200 is a float, but n**(2 - f*f*delta) is not
    with pytest.raises(ValueError, match="^n >= 2\\*\\*664 is too large"):
        block_failure_exponent(10 ** 200, F(1, 2), F(1), 2, F(1, 16))


# --- sampling ----------------------------------------------------------------


def test_sample_sizes_and_labels():
    g = sample_bipartite(7, GadgetParams(F(1, 2), F(3, 2), 1, F(1, 2)), seed=3)
    # |A| = floor(3/2 * 7) = 10, |B| = 7
    assert len(g.part("A")) == 10
    assert len(g.part("B")) == 7
    assert g.n == 17


def test_sample_is_bipartite():
    g = sample_bipartite(6, DESK, seed=1)
    a = g.part("A")
    for u, v in g.edges():
        assert (u in a) != (v in a), "within-side edge in bipartite sample"


def test_sample_determinism_and_seed_sensitivity():
    args = (6, DESK)
    assert sample_bipartite(*args, seed=42) == sample_bipartite(*args, seed=42)
    diffs = sum(sample_bipartite(*args, seed=s) != sample_bipartite(*args, seed=42)
                for s in range(43, 49))
    assert diffs > 0


# --- degree property ---------------------------------------------------------


def test_degree_property_edgeless_passes():
    check = check_degree_property(empty(6), F(1, 100), 3)
    assert check.passed and check.max_degree == 0
    assert check_degree_property(empty(0), F(1, 2), 1) == DegreeCheck(True, 0, None)
    # K_{3,3} has degree 3 > eps*n = 1.5
    assert not check_degree_property(complete_bipartite(3, 3), F(1, 2), 3).passed


def test_degree_property_exact_boundary():
    g = complete_bipartite(2, 2)  # all degrees 2
    assert check_degree_property(g, F(1, 2), 4).passed          # 2 <= 2
    assert not check_degree_property(g, F(12, 25), 4).passed    # 2 > 48/25
    failing = check_degree_property(g, F(1, 4), 4)
    assert failing.worst_vertex is not None
    assert failing.max_degree == 2


# --- block property -----------------------------------------------------------


def test_block_property_complete_bipartite_verified():
    g = complete_bipartite(4, 4)
    check = check_block_property(g, 1, F(1, 2), 4)
    assert check.status == "verified"


def test_block_property_rejects_empty_or_oversized_collections():
    g = complete_bipartite(4, 4)
    with pytest.raises(ValueError, match="^ceil\\(epsilon \\* n\\) must be at least 1$"):
        check_block_property(g, 1, F(1, 2), 0)
    with pytest.raises(ValueError, match="^sides too small for the requested collection size$"):
        check_block_property(g, 1, F(1, 2), 10)      # k = 5 > 4


def test_block_property_edgeless_falsified_with_witness():
    from kstlab.graph import Graph
    g = Graph(8, (0,) * 8, ("A",) * 4 + ("B",) * 4)
    check = check_block_property(g, 1, F(1, 2), 4)
    assert check.status == "falsified"
    w = check.witness
    # the witness is independently checkable: no pair of its blocks joined
    assert not any(block_collection_joined(g, (x,), (y,))
                   for x in w.xs for y in w.ys)


def _singleton_oracle(g, epsilon, n):
    """Direct enumeration over singleton collections, f=1 only."""
    k = math.ceil(epsilon * n)
    a, b = g.part("A"), g.part("B")
    for xs in itertools.combinations(a, k):
        for ys in itertools.combinations(b, k):
            if not any(g.has_edge(x, y) for x in xs for y in ys):
                return "falsified"
    return "verified"


def test_block_property_matches_singleton_oracle():
    params = GadgetParams(F(1, 2), F(1), 1, F(1, 2))
    seen = set()
    for seed in range(40):
        g = sample_bipartite(4, params, seed=seed)
        got = check_block_property(g, 1, F(1, 2), 4)
        want = _singleton_oracle(g, F(1, 2), 4)
        assert got.status == want, seed
        seen.add(want)
    assert seen == {"verified", "falsified"}, "sweep failed to hit both verdicts"


def _disjoint_collections(pool, k, f):
    """Canonical collections of k pairwise disjoint non-empty subsets of
    ``pool``, each of size <= f, ordered by ascending minimum element: the
    enumerator the exhaustive block check used before it counted."""
    chosen = []

    def rec(lo, remaining):
        if remaining == 0:
            yield tuple(chosen)
            return
        used = set()
        for c in chosen:
            used.update(c)
        for anchor_idx in range(lo, len(pool)):
            a = pool[anchor_idx]
            if a in used:
                continue
            rest = [v for v in pool[anchor_idx + 1:] if v not in used]
            for size in range(0, f):
                for extra in itertools.combinations(rest, size):
                    chosen.append((a,) + extra)
                    yield from rec(anchor_idx + 1, remaining - 1)
                    chosen.pop()

    yield from rec(0, k)


def _block_reference(g, f, k):
    """The first (xs, ys) of the X-by-Y double loop with no joined pair, or
    None when every pair of collections has one."""
    y_side = list(_disjoint_collections(list(g.part("B")), k, f))
    for xs in _disjoint_collections(list(g.part("A")), k, f):
        for ys in y_side:
            if not block_collection_joined(g, xs, ys):
                return xs, ys
    return None


@st.composite
def _labelled_bipartite(draw):
    n_a, n_b = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    labels = draw(st.permutations(("A",) * n_a + ("B",) * n_b))
    a = [v for v, lab in enumerate(labels) if lab == "A"]
    b = [v for v, lab in enumerate(labels) if lab == "B"]
    pairs = [(x, y) for x in a for y in b]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(len(labels), [e for e, kept in zip(pairs, keep) if kept],
                            tuple(labels))


def _check_block_against_reference(g, f, k):
    """Assert the exhaustive check agrees with the double loop; return its
    status."""
    got = check_block_property(g, f, F(k), 1)
    want = _block_reference(g, f, k)
    assert got.status == ("verified" if want is None else "falsified")
    if got.witness is not None:
        for side, sets in (("A", got.witness.xs), ("B", got.witness.ys)):
            flat = [v for block in sets for v in block]
            assert len(sets) == k and len(flat) == len(set(flat))
            assert all(1 <= len(block) <= f for block in sets)
            assert all(g.labels[v] == side for v in flat)
        assert not block_collection_joined(g, got.witness.xs, got.witness.ys)
        if f == 1:
            assert (got.witness.xs, got.witness.ys) == want
    return got.status


@settings(max_examples=300, deadline=None)
@given(g=_labelled_bipartite(), f=st.sampled_from([1, 2, 3]), k=st.integers(1, 3))
def test_block_property_matches_double_loop(g, f, k):
    k = min(k, len(g.part("A")), len(g.part("B")))
    _check_block_against_reference(g, f, k)


def test_block_property_double_loop_sweep_hits_every_case():
    # seeded sizes, block bounds and densities: both verdicts, on A sides
    # large enough for k sets of size f and on A sides too small for them
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(400):
        n_a, n_b = (int(x) for x in rng.integers(1, 8, size=2))
        f, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = min(k, n_a, n_b)
        labels = tuple(str(lab) for lab in rng.permutation(["A"] * n_a + ["B"] * n_b))
        a = [v for v, lab in enumerate(labels) if lab == "A"]
        b = [v for v, lab in enumerate(labels) if lab == "B"]
        p = rng.choice([0.3, 0.7, 0.95])
        edges = [(x, y) for x in a for y in b if rng.random() < p]
        g = Graph.from_edges(n_a + n_b, edges, labels)
        seen.add((_check_block_against_reference(g, f, k), n_a >= k * f))
    assert seen == {(status, big) for status in ("verified", "falsified")
                    for big in (True, False)}


def _block_unpruned(g, f, k):
    """The exhaustive check before the X enumeration was cut: score every
    X-collection in canonical order.  Return the first bad (xs, ys), or
    None when there is none, and the enumeration nodes."""
    a, b = list(g.part("A")), list(g.part("B"))
    b_mask = mask_of(b)
    counter = [0]
    for xs in construction._block_collections(a, k, range(1, f + 1),
                                              min(len(a), k * f), counter):
        cns, covered = [], 0
        for x_i in xs:
            cn = b_mask
            for x in x_i:
                cn &= g.adj[x]
            cns.append(cn)
            covered |= cn
        bad = [(y,) for y in b if not covered >> y & 1]
        if len(bad) < k and f > 1:
            inside = [y for y in b if covered >> y & 1]
            packing = next(construction._block_collections(
                inside, k - len(bad), range(2, f + 1), None, counter,
                lambda s, ys: s if all(mask_of(ys) & ~cn for cn in cns) else None),
                ())
            bad = sorted(bad + list(packing))
        if len(bad) >= k:
            return (xs, tuple(bad[:k])), counter[0]
    return None, counter[0]


def _check_block_against_unpruned(g, f, eps, n):
    """Assert the check and the unpruned loop give the same status and
    witness, and that the cut visits no more nodes; return the status and
    whether it visited fewer."""
    got = check_block_property(g, f, eps, n)
    want, nodes = _block_unpruned(g, f, math.ceil(eps * n))
    assert got.status == ("verified" if want is None else "falsified")
    assert (None if got.witness is None else (got.witness.xs, got.witness.ys)) == want
    assert got.nodes <= nodes
    return got.status, got.nodes < nodes


def test_block_property_cut_matches_unpruned_on_desk_draws():
    seen = set()
    for eps in (F(1, 2), F(2, 3), F(5, 6)):
        params = GadgetParams(eps, F(4, 3), 1, F(2, 3))
        for n in range(4, 15):
            for seed in range(2):
                g = sample_bipartite(n, params, seed=seed)
                seen.add(_check_block_against_unpruned(g, 1, eps, n))
    assert {status for status, _ in seen} == {"verified", "falsified"}
    assert (("verified", True) in seen) and (("falsified", True) in seen)


def test_block_property_cut_matches_unpruned_on_random_graphs():
    rng = np.random.default_rng(15)
    seen = set()
    for _ in range(500):
        n_a, n_b = (int(x) for x in rng.integers(1, 10, size=2))
        f, k = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        k = min(k, n_a, n_b)
        labels = tuple(str(lab) for lab in rng.permutation(["A"] * n_a + ["B"] * n_b))
        a = [v for v, lab in enumerate(labels) if lab == "A"]
        b = [v for v, lab in enumerate(labels) if lab == "B"]
        p = rng.choice([0.3, 0.7, 0.95])
        edges = [(x, y) for x in a for y in b if rng.random() < p]
        g = Graph.from_edges(n_a + n_b, edges, labels)
        status, cut = _check_block_against_unpruned(g, f, F(k), 1)
        seen.add((status, f, cut))
    # both verdicts at every f, each reached at least once with the cut firing
    assert {(status, f) for status, f, cut in seen if cut} == {
        (status, f) for status in ("verified", "falsified") for f in (1, 2, 3)}


def test_block_property_exhaustive_cap_refusal(monkeypatch):
    monkeypatch.setattr(construction, "_BLOCK_NODE_CAP", 1000)
    params = GadgetParams(F(1, 2), F(1), 2, F(1, 16))
    g = sample_bipartite(14, params, seed=0)
    with pytest.raises(EnumerationCapError, match="exceeded cap 1000$"):
        check_block_property(g, 2, F(1, 2), 14)


def test_block_collection_joined_basic():
    g = complete_bipartite(2, 2)
    assert block_collection_joined(g, ((0, 1),), ((2, 3),))
    patched = g.__class__(4, (0b0100, 0b1000, 0b0001, 0b0010), g.labels)
    # only the matching edges 0-2, 1-3 remain: the 2x2 block is not joined
    assert not block_collection_joined(patched, ((0, 1),), ((2, 3),))
    assert block_collection_joined(patched, ((0,),), ((2,),))
    # two singleton blocks per side: the pair (X_2, Y_1) = ({1},{2}) is
    # never joined, but (X_1, Y_1) = ({0},{2}) is
    assert block_collection_joined(patched, ((0,), (1,)), ((2,), (3,)))


# --- bound exponents ----------------------------------------------------------


def _mpf(x):
    if isinstance(x, F):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _mp_block_exponent(n, eps, c, f, delta):
    n, eps, c = _mpf(n), _mpf(eps), _mpf(c)
    f2d = _mpf(f * f) * _mpf(delta)
    return mpmath.log((c + 1) * n + 1) * (c + 1) * n - eps ** 2 * n ** (2 - f2d)


def _mp_degree_exponent(n, c, delta):
    n, c = _mpf(n), _mpf(c)
    return mpmath.log((c + 1) * n) - n ** (1 - _mpf(delta)) / 3


GRID = [
    (n, eps, c, f, delta)
    for n in (10, 100, 10_000, 10 ** 6, 10 ** 9)
    for eps, c in ((F(1, 2), F(1)), (F(1, 4), F(2)))
    for f, delta in ((1, F(1, 16)), (2, F(1, 16)), (1, F(1, 2)), (3, F(1, 10)),
                     (2, F(6, 25)))
]


def test_block_exponent_matches_high_precision_grid():
    for n, eps, c, f, delta in GRID:
        got = block_failure_exponent(n, eps, c, f, delta)
        want = _mp_block_exponent(n, eps, c, f, delta)
        assert abs(got - float(want)) <= 1e-12 * max(1.0, abs(float(want))), (
            n, eps, c, f, delta)


def test_degree_exponent_matches_high_precision_grid():
    for n, eps, c, f, delta in GRID:
        got = degree_failure_exponent(n, c, delta)
        want = _mp_degree_exponent(n, c, delta)
        assert abs(got - float(want)) <= 1e-12 * max(1.0, abs(float(want)))


def test_block_exponent_spot_value():
    # ln(21)*20 - 0.25*10^1.75 = 46.83... at n=10 (bound positive: useless
    # at this scale, negative later)
    got = block_failure_exponent(10, F(1, 2), F(1), 2, F(1, 16))
    assert got == pytest.approx(46.8319, abs=1e-3)


def test_exponents_eventually_negative_and_decreasing():
    for eps, c, f, delta in ((F(1, 2), F(1), 2, F(1, 16)),
                             (F(1, 4), F(2), 8, F(1, 256))):
        ns = [2 ** e for e in range(4, 40, 2)]
        blocks = [block_failure_exponent(n, eps, c, f, delta) for n in ns]
        degrees = [degree_failure_exponent(n, c, delta) for n in ns]
        assert blocks[-1] < 0 and degrees[-1] < 0
        # once negative, both stay negative and keep decreasing
        first_neg = next(i for i, v in enumerate(blocks) if v < 0)
        tail = blocks[first_neg:]
        assert all(b < a for a, b in zip(tail, tail[1:]))
        dtail = degrees[next(i for i, v in enumerate(degrees) if v < 0):]
        assert all(b < a for a, b in zip(dtail, dtail[1:]))


def test_exponents_reject_n_below_one():
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"n={n}"):
            block_failure_exponent(n, F(1, 2), F(1), 2, F(1, 16))
        with pytest.raises(ValueError, match=f"n={n}"):
            degree_failure_exponent(n, F(1), F(1, 16))


def test_degree_exponent_spot_value_at_million():
    got = degree_failure_exponent(10 ** 6, F(1), F(1, 16))
    want = float(_mp_degree_exponent(10 ** 6, F(1), F(1, 16)))
    assert got == pytest.approx(want, rel=1e-12)
    assert got < -140_000


# --- gadget build --------------------------------------------------------------


def test_build_gadget_postconditions():
    build = build_gadget(8, 6, DESK, seed=11)
    assert build.ok
    h = build.graph
    a, b = h.part("A"), h.part("B")
    assert (len(a), len(b)) == (8, 6)
    assert is_clique(h, a) and is_clique(h, b)
    # ceil(eps * n) = ceil(5) = 5 non-neighbors allowed
    assert all(non_neighbor_count(h, v) <= 5 for v in range(h.n))
    assert build.attempts[-1].degree.passed
    assert build.attempts[-1].blocks.status == "verified"


def test_block_check_reports_its_nodes():
    # candidate sets of both enumerations, counted whether cut or not
    build = build_gadget(8, 6, DESK, seed=11)
    assert [rep.blocks.nodes for rep in build.attempts] == [7]
    assert build.attempts[-1].to_json_dict()["blocks"]["nodes"] == 7


def test_build_gadget_exhaustive_at_24x18():
    # refused at the 2,000,001st node before the X enumeration was cut
    build = build_gadget(24, 18, DESK, seed=5)
    assert build.ok
    assert [(rep.blocks.status, rep.blocks.nodes) for rep in build.attempts] == [
        ("verified", 165)]
    assert build.attempts[-1].blocks.nodes <= 1000


def test_build_gadget_non_neighbor_check_raises(monkeypatch):
    # a dense draw (p = 6**(-1/100), about 0.98) gives most gadget vertices
    # about 6 non-neighbors against ceil(eps * n) = 1; with the degree check
    # forced to pass, only the postcondition stands in the way
    monkeypatch.setattr(construction, "check_degree_property",
                        lambda g, epsilon, n: DegreeCheck(True, 0, None))
    dense = GadgetParams(F(1, 6), F(1), 1, F(1, 100))
    with pytest.raises(RuntimeError, match="non-neighbors"):
        build_gadget(6, 6, dense, seed=3)


def test_build_gadget_deterministic():
    b1 = build_gadget(8, 6, DESK, seed=11)
    b2 = build_gadget(8, 6, DESK, seed=11)
    assert b1.graph == b2.graph
    assert len(b1.attempts) == len(b2.attempts)


def test_build_gadget_gives_up_honestly():
    # at eps=5/26 and n=6 the degree bound forces a near-matching, which
    # always contains an empty singleton collection: no sample can pass
    params = GadgetParams(F(5, 26), F(3, 2), 1, F(1, 2))
    build = build_gadget(8, 6, params, seed=1, max_retries=6)
    assert not build.ok
    assert build.graph is None
    assert len(build.attempts) == 6
    for rep in build.attempts:
        assert (not rep.degree.passed) or rep.blocks.status == "falsified"


def test_build_gadget_validates_sizes():
    with pytest.raises(ValueError):
        build_gadget(5, 6, DESK, seed=0)       # m < n
    with pytest.raises(ValueError):
        build_gadget(9, 6, DESK, seed=0)       # m > floor(C*n) = 8
    # no attempt at all would read as "gave up"
    with pytest.raises(ValueError, match="max_retries >= 1"):
        build_gadget(8, 6, DESK, seed=0, max_retries=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        build_gadget(8, 6, DESK, seed=-1)


def test_build_gadget_minor_status_is_informative():
    # asymptotically the gadget avoids K_{s,t} minors for suitable (s,t);
    # at desk scale the guarantee has no force, so the exact answer is
    # recorded either way and only search completion is asserted
    build = build_gadget(8, 6, DESK, seed=11)
    from kstlab.minors import MinorQuery, SearchStatus, find_kst_minor
    res = find_kst_minor(build.graph, MinorQuery(6, 7))
    assert res.status in (SearchStatus.FOUND, SearchStatus.NOT_FOUND)
    if res.status is SearchStatus.FOUND:
        from kstlab.minors import model_violation
        assert model_violation(build.graph, res.model, MinorQuery(6, 7)) is None


def test_build_gadget_report_serializes():
    build = build_gadget(8, 6, DESK, seed=11)
    d = build.attempts[-1].to_json_dict()
    assert {"seed", "n", "m", "p", "degree", "blocks"} <= set(d)


@pytest.mark.parametrize("m, n", [(11, 9), (12, 10)])
def test_build_gadget_exhaustive_reaches_larger_n(m, n):
    # each attempt's block verdict is re-derived from its own draw by the
    # singleton oracle (the double loop over X and Y took 1.8 s and 2.7 s
    # per build at these sizes)
    for seed in range(3):
        build = build_gadget(m, n, DESK, seed=seed)
        for rep in build.attempts:
            g = sample_bipartite(n, DESK, rep.seed)
            assert rep.blocks.status == _singleton_oracle(g, DESK.epsilon, n), (seed, rep.seed)


def _sample_reference(n, params, seed):
    """The edge-list path sample_bipartite replaced: one Graph.from_edges
    over the hit matrix's nonzero entries."""
    hits = construction._sample_hits(n, params, seed)
    ma = hits.shape[0]
    edges = [(int(a), ma + int(b)) for a, b in np.argwhere(hits)]
    return Graph.from_edges(ma + n, edges, ("A",) * ma + ("B",) * n)


def _build_gadget_reference(m, n, params, seed, *, max_retries):
    """The loop build_gadget replaced: sample each draw through its edge
    list, and build an accepted gadget as the complement of the induced
    subgraph on the first m A-vertices and all B-vertices."""
    ma = math.floor(params.c_const * n)
    attempts = []
    for r in range(max_retries):
        s = construction._derived_seed(seed, r)
        gp = _sample_reference(n, params, s)
        deg = check_degree_property(gp, params.epsilon, n)
        blocks = check_block_property(gp, params.max_block_size, params.epsilon, n)
        attempts.append(construction.SampleReport(
            s, n, ma, params.edge_probability(n), deg, blocks))
        if deg.passed and blocks.status == "verified":
            sub, _ = induced_subgraph(gp, list(range(m)) + list(range(ma, ma + n)))
            h = complement(sub)
            limit = math.ceil(params.epsilon * n)
            assert all(non_neighbor_count(h, v) <= limit for v in range(h.n))
            return construction.GadgetBuild(h, tuple(attempts))
    return construction.GadgetBuild(None, tuple(attempts))


# DESK accepts most builds and falsifies a few attempts; the second gives up
# on every draw; the last two have f = 2, and only the last of them builds
_BUILD_PARAMS = [DESK, GadgetParams(F(5, 26), F(3, 2), 1, F(1, 2)),
                 GadgetParams(F(1, 2), F(1), 2, F(1, 5)),
                 GadgetParams(F(3, 4), F(1), 2, F(6, 25))]


@settings(max_examples=60, deadline=None)
@given(params=st.sampled_from(_BUILD_PARAMS), n=st.integers(1, 8),
       extra=st.integers(0, 4), retries=st.integers(1, 4),
       seed=st.integers(0, 2**32))
def test_build_gadget_matches_reference(params, n, extra, retries, seed):
    # C >= 1, so n <= m <= floor(C * n)
    m = min(n + extra, math.floor(params.c_const * n))
    assert build_gadget(m, n, params, seed, max_retries=retries) \
        == _build_gadget_reference(m, n, params, seed, max_retries=retries)


@pytest.mark.parametrize("m, n, params, seed, retries, outcomes", [
    (8, 6, DESK, 11, 32, [(True, "verified")]),
    # a falsified attempt that passed the degree check, before the accepted one
    (8, 6, DESK, 156, 32, [(False, "verified"), (True, "falsified"), (True, "verified")]),
    (8, 6, _BUILD_PARAMS[1], 1, 3, [(False, "falsified")] * 3),
    (8, 8, _BUILD_PARAMS[3], 1, 4, [(False, "verified"), (True, "verified")]),
])
def test_build_gadget_reference_cases(m, n, params, seed, retries, outcomes):
    build = build_gadget(m, n, params, seed, max_retries=retries)
    assert [(rep.degree.passed, rep.blocks.status) for rep in build.attempts] == outcomes
    assert build.ok == (outcomes[-1] == (True, "verified"))
    assert build == _build_gadget_reference(m, n, params, seed, max_retries=retries)


@settings(max_examples=40, deadline=None)
@given(params=st.sampled_from(_BUILD_PARAMS), n=st.integers(1, 10),
       seed=st.integers(0, 2**32))
def test_sample_bipartite_matches_edge_list_path(params, n, seed):
    assert sample_bipartite(n, params, seed) == _sample_reference(n, params, seed)


# --- fixtures -------------------------------------------------------------------


def test_tiny_gadget_shape():
    h = tiny_gadget()
    assert h.n == 4
    assert h.part("A") == (0, 1) and h.part("B") == (2, 3)
    assert is_clique(h, (0, 1)) and is_clique(h, (2, 3))
    # exactly one missing cross pair: a1-b1 (0-2)
    missing = [(a, b) for a in (0, 1) for b in (2, 3) if not h.has_edge(a, b)]
    assert missing == [(0, 2)]


def test_clique_gadget_is_complete():
    h = clique_gadget(2, 2)
    assert h.edge_count() == 6
    assert all(non_neighbor_count(h, v) == 0 for v in range(4))


# --- counterexample assembly ------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_assembly():
    return build_counterexample(tiny_gadget(), 3, "all")


def test_assembly_counts(tiny_assembly):
    asm = tiny_assembly
    # 2 shared B vertices + 3^2 copies of the 2-vertex A side
    assert asm.graph.n == 2 + 9 * 2
    assert len(asm.colorings) == 9
    assert asm.palette_size == 3
    assert len(asm.lists) == asm.graph.n


def test_assembly_b_lists_full_palette(tiny_assembly):
    asm = tiny_assembly
    for b in range(2):
        assert asm.lists.lists[b] == frozenset({0, 1, 2})


def test_assembly_punched_lists(tiny_assembly):
    asm = tiny_assembly
    for i, c in enumerate(asm.colorings):
        lo, hi = asm.a_ranges[i]
        copy = list(range(lo, hi))
        # vertex a1 (first of the copy) misses b1 only: punched {c(b1)}
        assert asm.lists.lists[copy[0]] == frozenset({0, 1, 2}) - {c[0]}
        # a2 has no non-neighbors: full palette
        assert asm.lists.lists[copy[1]] == frozenset({0, 1, 2})


def test_assembly_copy_index_roundtrip(tiny_assembly):
    asm = tiny_assembly
    for i, c in enumerate(asm.colorings):
        assert asm.copy_index(c) == i
    big = build_counterexample(clique_gadget(4, 4), 7, "all")
    for i, c in enumerate(big.colorings):
        assert big.copy_index(c) == i
    # a repeated explicit coloring maps to its first copy
    repeated = build_counterexample(tiny_gadget(), 3, [(0, 1), (1, 0), (0, 1)])
    assert repeated.copy_index((0, 1)) == 0
    assert repeated.copy_index([1, 0]) == 1
    with pytest.raises(KeyError):
        repeated.copy_index((2, 2))


def test_assembly_glue_consistency(tiny_assembly):
    # each copy together with B induces a graph isomorphic to h under the
    # recorded correspondence
    asm = tiny_assembly
    h = tiny_gadget()
    for i in range(len(asm.colorings)):
        corr = asm.copy_correspondence(i)
        vertices = sorted(corr[v] for v in range(h.n))
        sub, kept = induced_subgraph(asm.graph, vertices)
        pos = {u: j for j, u in enumerate(kept)}
        for u in range(h.n):
            for v in range(u + 1, h.n):
                assert h.has_edge(u, v) == sub.has_edge(pos[corr[u]],
                                                        pos[corr[v]])


def test_assembly_two_copy_route_matches_glue():
    # independent construction of the 2-copy instance through the clique
    # gluing operation must give the same graph up to the id relabeling
    h = tiny_gadget()
    c1, c2 = (0, 1), (1, 2)
    asm = build_counterexample(h, 3, [c1, c2])
    glued = glue(GlueSpec(h, h, ((2, 2), (3, 3))))
    # glue layout: 0,1 = copy-1 A; 2,3 = B; 4,5 = copy-2 A
    # assembly layout: 0,1 = B; 2,3 = copy-1 A; 4,5 = copy-2 A
    relabel = (2, 3, 0, 1, 4, 5)
    assert permuted(glued, relabel).adj == asm.graph.adj


def test_assembly_cap_refusal():
    with pytest.raises(AssemblyCapError) as err:
        build_counterexample(tiny_gadget(), 3, "all", max_vertices=10)
    assert "9" in str(err.value)  # required copy count is reported


def test_assembly_rejects_wrong_palette():
    with pytest.raises(ValueError):
        build_counterexample(tiny_gadget(), 4, "all")


def test_assembly_rejects_unlabeled_graph():
    from kstlab.graph import complete
    with pytest.raises(ValueError):
        build_counterexample(complete(4), 3, "all")
    with pytest.raises(ValueError, match="^gadget needs non-empty A and B parts$"):
        build_counterexample(clique_gadget(3, 0), 2, "all")


def test_assembly_rejects_bad_explicit_colorings():
    for c in [(0,), (0, 3), (-1, 0)]:
        with pytest.raises(ValueError, match=f"^bad B-coloring {re.escape(str(c))}$"):
            build_counterexample(tiny_gadget(), 3, [(0, 1), c])


def _assembly_reference(h, palette_size, colorings):
    """The loop build_counterexample replaced: each copy re-walks every base
    A vertex's row of ``h``, bit by bit."""
    base_a, base_b = h.part("A"), h.part("B")
    m, n = len(base_a), len(base_b)
    seq = (list(itertools.product(range(palette_size), repeat=n))
           if colorings == "all" else [tuple(c) for c in colorings])
    total = n + len(seq) * m
    b_pos = {b: i for i, b in enumerate(base_b)}
    a_pos = {a: i for i, a in enumerate(base_a)}
    adj = [0] * total
    for i, b in enumerate(base_b):
        for u in construction.bits(h.adj[b]):
            if u in b_pos:
                adj[i] |= 1 << b_pos[u]
    lists = [frozenset(range(palette_size))] * n
    ranges, at = [], n
    for c in seq:
        start = at
        for ai, a in enumerate(base_a):
            va = start + ai
            row = 0
            for u in construction.bits(h.adj[a]):
                j = b_pos.get(u)
                row |= 1 << j if j is not None else 1 << (start + a_pos[u])
            adj[va] = row
            for u in construction.bits(row):
                adj[u] |= 1 << va
            lists.append(frozenset(range(palette_size))
                         - {c[j] for j in range(n) if not row >> j & 1})
        at += m
        ranges.append((start, at))
    return construction.CounterexampleAssembly(
        graph=Graph(total, tuple(adj), ("B",) * n + ("A",) * (total - n)),
        lists=ListAssignment(tuple(lists)), base=h, palette_size=palette_size,
        base_a=base_a, base_b=base_b, colorings=tuple(seq), a_ranges=tuple(ranges))


@st.composite
def _labeled_gadgets(draw):
    """Labeled graphs on at most 6 vertices, both sides non-empty and
    interleaved in id order; neither side need be a clique."""
    n_vertices = draw(st.integers(2, 6))
    labels = draw(st.lists(st.sampled_from("AB"), min_size=n_vertices,
                           max_size=n_vertices).filter(lambda ls: len(set(ls)) == 2))
    pairs = list(itertools.combinations(range(n_vertices), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return Graph.from_edges(n_vertices, edges, labels)


@settings(max_examples=80, deadline=None)
@given(h=_labeled_gadgets(), data=st.data())
def test_assembly_matches_reference(h, data):
    m, n = len(h.part("A")), len(h.part("B"))
    palette = m + n - 1
    if data.draw(st.booleans(), label="all") and palette ** n <= 256:
        colorings = "all"
    else:
        # a small pool, so explicit lists repeat colorings
        pool = data.draw(st.lists(st.tuples(*[st.integers(0, palette - 1)] * n),
                                  min_size=1, max_size=3), label="pool")
        colorings = data.draw(st.lists(st.sampled_from(pool), max_size=6),
                              label="colorings")
    assert build_counterexample(h, palette, colorings) \
        == _assembly_reference(h, palette, colorings)


def test_assembly_matches_reference_on_desk_gadget():
    # a sampled gadget with a repeated coloring, and the clique gadget's "all"
    h = build_gadget(8, 6, DESK, seed=11).graph
    colorings = [(0, 1, 2, 3, 4, 5), (12, 0, 7, 7, 1, 3), (0, 1, 2, 3, 4, 5)]
    assert build_counterexample(h, 13, colorings) == _assembly_reference(h, 13, colorings)
    assert build_counterexample(clique_gadget(3, 3), 5, "all") \
        == _assembly_reference(clique_gadget(3, 3), 5, "all")


# --- the non-colorability mechanism ---------------------------------------------


def test_tiny_assembly_has_no_list_coloring(tiny_assembly):
    asm = tiny_assembly
    assert find_l_coloring(asm.graph, asm.lists) is None


def test_pigeonhole_blocks_every_proper_coloring(tiny_assembly):
    asm = tiny_assembly
    proper = [c for c in asm.colorings if c[0] != c[1]]
    assert len(proper) == 6
    for c in proper:
        assert verify_no_l_coloring_pigeonhole(asm, c)


def test_proper_on_b_reads_the_glued_b_edges(tiny_assembly):
    assert [tiny_assembly.proper_on_b(c) for c in tiny_assembly.colorings] \
        == [c[0] != c[1] for c in tiny_assembly.colorings]
    # a gadget whose B side has no edge: every B-coloring is proper
    from kstlab.graph import Graph
    h = Graph.from_edges(3, [(0, 1), (0, 2)], ("A", "B", "B"))
    asm = build_counterexample(h, 2, "all")
    assert all(asm.proper_on_b(c) for c in asm.colorings)


def test_proper_on_b_rejects_wrong_length(tiny_assembly):
    # a gadget whose B side has no edge has no pair to compare, so only the
    # length check can refuse a coloring of the wrong size
    h = Graph.from_edges(3, [(0, 1), (0, 2)], ("A", "B", "B"))
    for asm in (tiny_assembly, build_counterexample(h, 2, "all")):
        for c in [(0,), (0, 1, 1), ()]:
            with pytest.raises(ValueError, match=r"^coloring length must match \|B\|$"):
                asm.proper_on_b(c)


def test_pigeonhole_rejects_improper_coloring(tiny_assembly):
    with pytest.raises(ValueError):
        verify_no_l_coloring_pigeonhole(tiny_assembly, (1, 1))
    with pytest.raises(ValueError):
        verify_no_l_coloring_pigeonhole(tiny_assembly, (0,))
    with pytest.raises(ValueError):
        verify_no_l_coloring_pigeonhole(tiny_assembly, (0, 9))


def test_clique_assembly_blocked_by_vertex_count():
    # with the complete gadget every copy is K_4 with a 3-color palette, so
    # blocking needs no punched lists at all: the clique alone forces None
    h = clique_gadget(2, 2)
    asm = build_counterexample(h, 3, "all")
    assert all(asm.lists.lists[v] == frozenset({0, 1, 2})
               for v in range(asm.graph.n))
    for c in asm.colorings:
        if c[0] != c[1]:
            assert verify_no_l_coloring_pigeonhole(asm, c)
    assert find_l_coloring(asm.graph, asm.lists) is None


def test_pigeonhole_false_when_punching_is_undone(tiny_assembly):
    # restoring a punched color re-opens the escape the proof closes
    # (the repeated color lands on the non-adjacent pair), so the verifier
    # must answer False on the doctored assembly
    asm = tiny_assembly
    c = (0, 1)
    i = asm.copy_index(c)
    lo, _hi = asm.a_ranges[i]
    doctored = list(asm.lists.lists)
    doctored[lo] = frozenset({0, 1, 2})  # a1 regains color c(b1) = 0
    patched = dataclasses.replace(
        asm, lists=type(asm.lists)(tuple(doctored)))
    assert not verify_no_l_coloring_pigeonhole(patched, c)
    assert verify_no_l_coloring_pigeonhole(asm, c)


def _copy_colorable(asm, c):
    """Whether the glued graph restricted to B and copy c has a list
    coloring once B's lists are pinned to c: the question the pigeonhole
    verifier answers, put to the exhaustive solver."""
    n = len(asm.base_b)
    lo, hi = asm.a_ranges[asm.copy_index(c)]
    sub, kept = induced_subgraph(asm.graph, list(range(n)) + list(range(lo, hi)))
    lists = [frozenset({c[v]}) if v < n else asm.lists.lists[v] for v in kept]
    return find_l_coloring(sub, ListAssignment.of_lists(lists)) is not None


@pytest.fixture
def solver_calls(monkeypatch):
    """Count the verifier's calls into the list-coloring solver."""
    calls = []

    def counted(g, lists):
        calls.append(g.n)
        return find_l_coloring(g, lists)

    monkeypatch.setattr(construction, "find_l_coloring", counted)
    return calls


def test_pigeonhole_count_matches_solver(solver_calls):
    # every copy of the three gadget families is settled by the colour count
    # alone, and the answer is the solver's
    cases = [build_counterexample(tiny_gadget(), 3, "all"),
             build_counterexample(clique_gadget(2, 2), 3, "all"),
             build_counterexample(clique_gadget(3, 3), 5, "all")]
    for asm in cases:
        proper = [c for c in asm.colorings if asm.proper_on_b(c)]
        assert proper
        for c in proper:
            assert verify_no_l_coloring_pigeonhole(asm, c) == (not _copy_colorable(asm, c))
    h = build_gadget(8, 6, DESK, seed=11).graph
    rng = np.random.default_rng(3)
    colorings = [tuple(int(x) for x in rng.choice(13, 6, replace=False))
                 for _ in range(12)]
    asm = build_counterexample(h, 13, colorings)
    for c in colorings:
        assert verify_no_l_coloring_pigeonhole(asm, c)
        assert not _copy_colorable(asm, c)
    assert solver_calls == []


def test_pigeonhole_solver_decides_when_a_is_not_a_clique(solver_calls):
    # both A vertices keep the one colour B leaves free, and they are not
    # adjacent: the count (1 colour, 2 vertices) would be wrong here
    h = Graph.from_edges(4, [(2, 3), (0, 2), (0, 3), (1, 2), (1, 3)],
                         ("A", "A", "B", "B"))
    asm = build_counterexample(h, 3, "all")
    proper = [c for c in asm.colorings if asm.proper_on_b(c)]
    for c in proper:
        assert not verify_no_l_coloring_pigeonhole(asm, c)
        assert _copy_colorable(asm, c)
    assert len(solver_calls) == len(proper) == 6


def test_pigeonhole_solver_decides_when_b_is_not_a_clique(solver_calls):
    # with B independent a proper coloring may repeat a colour; then the A
    # clique keeps two live colours, as many as it has vertices
    h = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
                         ("A", "A", "B", "B"))
    asm = build_counterexample(h, 3, "all")
    for c in asm.colorings:
        blocked = verify_no_l_coloring_pigeonhole(asm, c)
        assert blocked == (not _copy_colorable(asm, c)) == (c[0] != c[1])
    assert len(solver_calls) == 3  # one per repeated colour


def _pigeonhole_reference(assembly, coloring):
    """The set-based verifier the color-mask index replaced: each call reads
    B's properness from the glued rows and rebuilds every A vertex's live
    list as a set."""
    c = tuple(coloring)
    n = len(assembly.base_b)
    if len(c) != n:
        raise ValueError("coloring length must match |B|")
    if any(not (0 <= x < assembly.palette_size) for x in c):
        raise ValueError("coloring uses out-of-palette colors")
    g = assembly.graph
    low = (1 << n) - 1
    if not all(c[i] != c[j] for i in range(n) for j in construction.bits(g.adj[i] & low)):
        raise ValueError("coloring must be proper on B")
    start, stop = assembly.a_ranges[assembly.copy_index(c)]
    punched = []
    for v in range(start, stop):
        live = set(assembly.lists.lists[v])
        for b in construction.bits(g.adj[v] & low):
            live.discard(c[b])
        punched.append(frozenset(live))
    if is_clique(g, range(start, stop)) and len(frozenset().union(*punched)) < stop - start:
        return True
    sub, _ = induced_subgraph(g, range(start, stop))
    return find_l_coloring(sub, ListAssignment.of_lists(punched)) is None


def _verdict(verify, asm, c):
    try:
        return verify(asm, c)
    except (ValueError, KeyError) as err:
        return type(err), str(err)


def _side_edges(draw, part, clique):
    pairs = list(itertools.combinations(part, 2))
    if clique:
        return pairs
    return draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs) - 1))


@st.composite
def _two_sided_gadgets(draw, b_clique=None):
    """Labeled gadgets with 2-5 A and 1-3 B vertices, interleaved in id
    order, random cross edges, and the A side or the B side (or both) not a
    clique; ``b_clique=False`` asks for the B side not to be one."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(1 if b_clique is None else 2, 3))
    if b_clique is None:
        b_clique = n == 1 or draw(st.booleans())
    a_clique = not b_clique and draw(st.booleans())
    labels = draw(st.permutations(["A"] * m + ["B"] * n))
    a_part = [v for v, lab in enumerate(labels) if lab == "A"]
    b_part = [v for v, lab in enumerate(labels) if lab == "B"]
    cross = list(itertools.product(a_part, b_part))
    edges = (_side_edges(draw, a_part, a_clique) + _side_edges(draw, b_part, b_clique)
             + draw(st.lists(st.sampled_from(cross), unique=True)))
    return Graph.from_edges(m + n, edges, labels)


@settings(max_examples=60, deadline=None)
@given(h=_two_sided_gadgets(), data=st.data())
def test_pigeonhole_matches_set_reference(h, data):
    m, n = len(h.part("A")), len(h.part("B"))
    palette = m + n - 1
    if data.draw(st.booleans(), label="all") and palette ** n <= 100:
        colorings = "all"
    else:
        colorings = data.draw(st.lists(st.tuples(*[st.integers(0, palette - 1)] * n),
                                       min_size=1, max_size=6), label="colorings")
    asm = build_counterexample(h, palette, colorings)
    first = asm.colorings[0]
    # improper, wrong-length, out-of-palette and copy-less colorings too
    asked = list(dict.fromkeys(asm.colorings)) + [
        first[:-1], first + (0,), (palette,) * n, (-1,) * n,
        data.draw(st.tuples(*[st.integers(0, palette - 1)] * n), label="extra")]
    for c in asked:
        assert _verdict(verify_no_l_coloring_pigeonhole, asm, c) \
            == _verdict(_pigeonhole_reference, asm, c)
    # the index is built now; doctored lists go to a new assembly, which
    # must read its own lists: a punched color restored, a color outside the
    # palette, a negative color, an emptied list
    lists = list(asm.lists.lists)
    changes = data.draw(st.lists(st.tuples(st.integers(n, asm.graph.n - 1),
                                           st.sampled_from(["restore", "outside",
                                                            "negative", "empty"])),
                                 min_size=1, max_size=4), label="changes")
    for v, how in changes:
        if how == "restore":
            lists[v] |= {min(set(range(palette)) - lists[v], default=0)}
        elif how == "outside":
            lists[v] |= {palette + v}
        elif how == "negative":
            lists[v] |= {-1 - v}
        else:
            lists[v] = frozenset()
    doctored = dataclasses.replace(asm, lists=ListAssignment(tuple(lists)))
    for c in asked:
        assert _verdict(verify_no_l_coloring_pigeonhole, doctored, c) \
            == _verdict(_pigeonhole_reference, doctored, c)


@settings(max_examples=40, deadline=None)
@given(h=_two_sided_gadgets(b_clique=False))
def test_proper_on_b_matches_every_ordered_pair(h):
    m, n = len(h.part("A")), len(h.part("B"))
    asm = build_counterexample(h, m + n - 1, "all", max_vertices=10_000)
    for c in asm.colorings:
        assert asm.proper_on_b(c) == all(c[i] != c[j] for i in range(n) for j in range(n)
                                         if asm.graph.has_edge(i, j))


def test_pigeonhole_reads_a_replaced_graph(solver_calls):
    # the original assembly's index is built first; an assembly whose graph
    # lost an edge of copy (0, 1) must read its own graph.  With the A-A edge
    # gone the copy is no clique, and with a2-b1 gone a2 keeps color 0: the
    # count no longer blocks either, and the solver colors both copies
    asm = build_counterexample(tiny_gadget(), 3, "all")
    c = (0, 1)
    assert verify_no_l_coloring_pigeonhole(asm, c)
    lo, _hi = asm.a_ranges[asm.copy_index(c)]
    for u, v in [(lo, lo + 1), (lo + 1, 0)]:
        adj = list(asm.graph.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        cut = dataclasses.replace(asm, graph=Graph(asm.graph.n, tuple(adj), asm.graph.labels))
        assert not verify_no_l_coloring_pigeonhole(cut, c)
        assert _pigeonhole_reference(cut, c) is False
        assert _copy_colorable(cut, c)
    assert len(solver_calls) == 2
    assert verify_no_l_coloring_pigeonhole(asm, c)


def test_pigeonhole_counts_each_color_outside_the_palette():
    # both A vertices of copy (0, 1) trade their lists for one color outside
    # the palette each, and not the same one: two live colors for two
    # vertices, so the count must not block, and the solver colors the copy
    asm = build_counterexample(tiny_gadget(), 3, "all")
    c = (0, 1)
    assert verify_no_l_coloring_pigeonhole(asm, c)
    lo, _hi = asm.a_ranges[asm.copy_index(c)]
    lists = list(asm.lists.lists)
    lists[lo], lists[lo + 1] = frozenset({3}), frozenset({-1})
    doctored = dataclasses.replace(asm, lists=ListAssignment(tuple(lists)))
    assert not verify_no_l_coloring_pigeonhole(doctored, c)
    assert _pigeonhole_reference(doctored, c) is False


# --- the lower bound ---------------------------------------------------------------


def test_lower_bound_exact_example():
    lb = choosability_lower_bound(10, 10, F(2, 5))
    # n = 9, m = floor(0.6*20) = 12, value = 12+9-ceil(1.8) = 19 > 18
    assert lb.value == 19
    assert lb.target == F(3, 5) * 30 == 18
    assert lb.holds


def test_lower_bound_small_s_honest():
    # below s = ceil(4/eps) the final inequality may fail; report honestly
    lb = choosability_lower_bound(2, 2, F(2, 5))
    assert lb.holds == (lb.value > lb.target)


def test_lower_bound_rejects_out_of_range_arguments():
    for eps in (F(0), F(1, 2)):
        with pytest.raises(ValueError, match="^epsilon must lie in \\(0, 1/2\\)$"):
            choosability_lower_bound(2, 2, eps)
    for s, t in ((0, 2), (3, 2)):
        with pytest.raises(ValueError, match="^require 1 <= s <= t$"):
            choosability_lower_bound(s, t, F(2, 5))


def test_lower_bound_ratio_approaches_limit():
    # for s = t the exact ratio value/(3t) tends to 1 - (5/6)eps
    eps = F(1, 25)
    limit = 1 - F(5, 6) * eps
    devs = []
    for t in (100, 1000, 10000):
        lb = choosability_lower_bound(t, t, eps)
        devs.append(abs(F(lb.value, 3 * t) - limit))
    assert devs[-1] < devs[0]
    assert devs[-1] < F(1, 1000)


# --- Monte Carlo sweep ---------------------------------------------------------------


def test_sweep_shape_and_determinism():
    kw = dict(epsilon=F(1, 2), c_const=F(1), delta=F(1, 2), seed=77)
    rows = degree_property_sweep([8, 16], 5, **kw)
    assert len(rows) == 10
    assert [r.n for r in rows] == [8] * 5 + [16] * 5
    again = degree_property_sweep([8, 16], 5, **kw)
    assert rows == again


def _sweep_reference(ns, trials, *, epsilon, c_const, delta, seed):
    """The per-trial path the sweep replaced: build the sampled graph, then
    run the degree check on it."""
    if delta is None:
        delta = GadgetParams.derive(epsilon, c_const).delta
    params = GadgetParams(epsilon, c_const, 1, delta)
    rows = []
    for n in ns:
        for trial in range(trials):
            s = construction._derived_seed(seed, n, trial)
            g = sample_bipartite(n, params, s)
            deg = check_degree_property(g, epsilon, n)
            rows.append(SweepRow(n, s, params.edge_probability(n), deg.max_degree,
                                 deg.passed))
    return rows


@given(ns=st.lists(st.integers(1, 40), min_size=1, max_size=3),
       trials=st.integers(1, 3),
       epsilon=st.sampled_from([F(1, 3), F(1, 2), F(3, 4)]),
       c_const=st.sampled_from([F(1), F(3, 2), F(2)]),
       delta=st.sampled_from([None, F(1, 4), F(1, 2), F(2, 3)]),
       seed=st.integers(0, 2**70))
def test_sweep_matches_per_trial_graph_path(ns, trials, epsilon, c_const, delta, seed):
    # C != 1 makes the A side longer than the B side, so reading degrees off
    # a transposed hit matrix would show here
    kw = dict(epsilon=epsilon, c_const=c_const, delta=delta, seed=seed)
    assert degree_property_sweep(ns, trials, **kw) == _sweep_reference(ns, trials, **kw)


@pytest.mark.parametrize("ns, trials, c_const", [
    ([128], 10, F(1)),     # 4 draws fill a block: two full blocks and a part
    ([150], 2, F(3)),      # one draw is past the block size, which holds it
    ([8, 3], 1030, F(3, 2)),  # 1030 trials take two seed blocks
])
def test_sweep_blocks_match_per_trial_graph_path(ns, trials, c_const):
    kw = dict(epsilon=F(1, 2), c_const=c_const, delta=F(1, 2), seed=2**64 + 5)
    assert degree_property_sweep(ns, trials, **kw) == _sweep_reference(ns, trials, **kw)


@settings(max_examples=300)
@given(seed=st.integers(0, 2**70),
       n=st.integers(1, 2**33),
       lo=st.one_of(st.integers(0, 2**32 - 4), st.integers(2**32, 2**40)),
       count=st.integers(1, 4))
def test_seed_block_matches_numpy(seed, n, lo, count):
    # seed, n and trial of one or more 32-bit words, in every combination
    seeds, states = construction._seed_block(seed, n, lo, lo + count)
    want = [construction._derived_seed(seed, n, t) for t in range(lo, lo + count)]
    assert seeds == want
    assert states == [np.random.PCG64(s).state["state"] for s in want]


def test_seed_state_pads_a_short_entropy_like_numpy():
    # default_rng(s) hashes one word for s < 2**32 and the batch seeder two,
    # the second 0; a derived seed that small is too rare to meet by chance
    ss = [0, 1, 2**32 - 1, 2**32, 12345 << 32, 2**64 - 1]
    entropy = np.array([[s & 0xFFFFFFFF for s in ss], [s >> 32 for s in ss]], np.uint32)
    got = construction._seed_state(entropy, 8)
    for i, s in enumerate(ss):
        assert got[:, i].tolist() == np.random.SeedSequence(s).generate_state(8).tolist()


def test_seed_block_refuses_to_straddle_the_trial_word_boundary():
    with pytest.raises(ValueError):
        construction._seed_block(1, 8, 2**32 - 1, 2**32 + 1)


@pytest.mark.parametrize("perturb", ["seed", "state"])
def test_sweep_guard_catches_a_seeder_that_disagrees_with_numpy(monkeypatch, perturb):
    seed_block = construction._seed_block

    def skewed(*args):
        seeds, states = seed_block(*args)
        if perturb == "seed":
            seeds[0] ^= 1
        else:
            states[0] = dict(states[0], state=states[0]["state"] ^ 1 << 100)
        return seeds, states

    monkeypatch.setattr(construction, "_seed_block", skewed)
    with pytest.raises(RuntimeError, match="disagrees with numpy"):
        degree_property_sweep([16], 4, epsilon=F(1, 2), c_const=F(1), delta=F(1, 2),
                              seed=9)
    # a fault, never an answer or a usage error
    from kstlab.cli import main
    assert main(["experiment", "--n", "16", "--trials", "4", "--seed", "9"]) == 4


def test_sweep_rejects_counts_that_allow_no_attempt():
    kw = dict(epsilon=F(1, 2), c_const=F(1), delta=F(1, 2), seed=5)
    for ns, trials in (([8], 0), ([8], -1), ([], 3)):
        with pytest.raises(ValueError):
            degree_property_sweep(ns, trials, **kw)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        degree_property_sweep([8], 3, **(kw | {"seed": -1}))


def test_sweep_rows_complete():
    rows = degree_property_sweep([8], 3, epsilon=F(1, 2), c_const=F(1),
                                 delta=F(1, 2), seed=5)
    for r in rows:
        assert r.p == pytest.approx(8 ** -0.5)
        assert isinstance(r.degree_pass, bool)
        assert r.max_degree >= 0
