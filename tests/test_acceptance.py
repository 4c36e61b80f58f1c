"""Acceptance suite: eight binding criteria, one test and verdict line each.

Run with ``pytest -v tests/test_acceptance.py``; each test name carries the
criterion number and each test prints one ``ACCEPTANCE n: PASS`` line on
success (visible with ``-s`` or in the captured output).
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction as F

import mpmath
import numpy as np

from kstlab.cli import main as cli_main
from kstlab.construction import (
    GadgetParams,
    block_failure_exponent,
    build_counterexample,
    choosability_lower_bound,
    clique_gadget,
    degree_failure_exponent,
    degree_property_sweep,
    tiny_gadget,
    verify_no_l_coloring_pigeonhole,
)
from kstlab.graph import (
    Graph,
    GlueSpec,
    complete,
    complete_bipartite,
    cycle,
    glue,
    is_clique,
)
from kstlab.listcolor import find_l_coloring, is_k_choosable
from kstlab.minors import (
    MinorQuery,
    SearchStatus,
    find_kst_minor,
    oracle_has_minor,
)

from conftest import graph_from_edge_code

mpmath.mp.dps = 50


def test_criterion_1_minor_search_matches_oracle_on_all_6_vertex_graphs():
    """Exhaustive agreement: 32,768 graphs x 9 queries, both algorithms."""
    t0 = time.time()
    queries = [MinorQuery(s, t)
               for s in range(1, 6) for t in range(s, 6) if s + t <= 6]
    assert len(queries) == 9
    disagreements = 0
    checked = 0
    for q in queries:
        f = complete_bipartite(q.s, q.t)
        for code in range(1 << 15):
            g = graph_from_edge_code(6, code)
            got = find_kst_minor(g, q)
            assert got.status is not SearchStatus.BUDGET_EXHAUSTED
            want = oracle_has_minor(g, f)
            if (got.status is SearchStatus.FOUND) != want:
                disagreements += 1
            checked += 1
    elapsed = time.time() - t0
    assert checked == 32768 * 9
    assert disagreements == 0
    assert elapsed < 600, f"sweep took {elapsed:.0f}s, target is 10 minutes"
    print(f"\nACCEPTANCE 1: PASS — search == oracle on {checked} "
          f"(graph, query) pairs, 0 disagreements, {elapsed:.0f}s")


def test_criterion_2_clique_glue_preserves_minor_freeness():
    """200 seeded random glue instances; zero violations tolerated."""
    rng = np.random.default_rng(20260817)
    queries = [(2, 2), (2, 3), (3, 3)]
    made = 0
    violations = 0
    while made < 200:
        s, t = queries[int(rng.integers(0, len(queries)))]
        q = MinorQuery(s, t)
        sides = []
        for _ in range(2):
            n = int(rng.integers(5, 9))
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.3:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            sides.append(Graph(n, tuple(adj), None))
        g1, g2 = sides
        if find_kst_minor(g1, q).status is not SearchStatus.NOT_FOUND:
            continue
        if find_kst_minor(g2, q).status is not SearchStatus.NOT_FOUND:
            continue
        csize = int(rng.integers(1, s))

        def pick_clique(g):
            for _ in range(60):
                vs = sorted(int(x) for x in rng.permutation(g.n)[:csize])
                if is_clique(g, vs):
                    return vs
            return None

        c1, c2 = pick_clique(g1), pick_clique(g2)
        if c1 is None or c2 is None:
            continue
        glued = glue(GlueSpec(g1, g2, tuple(zip(c1, c2))))
        res = find_kst_minor(glued, q)
        assert res.status is not SearchStatus.BUDGET_EXHAUSTED
        if res.status is not SearchStatus.NOT_FOUND:
            violations += 1
        made += 1
    assert violations == 0
    print(f"\nACCEPTANCE 2: PASS — 200 glued instances stayed minor-free, "
          f"0 violations")


def test_criterion_3_fixture_assembly_is_not_list_colorable():
    """4-vertex fixture, palette 3, all-mode copies; under one second."""
    t0 = time.time()
    asm = build_counterexample(tiny_gadget(), 3, "all")
    assert asm.graph.n == 20
    assert find_l_coloring(asm.graph, asm.lists) is None
    proper = [c for c in asm.colorings if c[0] != c[1]]
    assert len(proper) == 6
    assert all(verify_no_l_coloring_pigeonhole(asm, c) for c in proper)

    # complete gadget: v = m+n = 4 vertices per copy beats the 3-color palette
    casm = build_counterexample(clique_gadget(2, 2), 3, "all")
    assert find_l_coloring(casm.graph, casm.lists) is None
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"fixture run took {elapsed:.2f}s, target is 1s"
    print(f"\nACCEPTANCE 3: PASS — assembly blocked (solver None, pigeonhole "
          f"6/6, clique fixture None), {elapsed * 1000:.0f}ms")


def test_criterion_4_choosability_checker_on_named_graphs():
    """Classical small cases, exhaustively; witness re-verified."""
    t0 = time.time()
    assert is_k_choosable(cycle(4), 2).choosable
    assert is_k_choosable(cycle(6), 2).choosable
    assert not is_k_choosable(cycle(3), 2).choosable
    assert not is_k_choosable(cycle(5), 2).choosable

    k33 = is_k_choosable(complete_bipartite(3, 3), 2)
    assert not k33.choosable
    assert k33.witness is not None
    assert find_l_coloring(complete_bipartite(3, 3), k33.witness) is None

    for n in range(1, 6):
        assert is_k_choosable(complete(n), n, max_k=5).choosable
    elapsed = time.time() - t0
    assert elapsed < 300, f"choosability runs took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 4: PASS — C4/C6 2-choosable, C3/C5 not, K33 witness "
          f"re-verified, K_n n-choosable (n<=5), {elapsed:.1f}s")


def test_criterion_5_bound_formulas_match_high_precision():
    """1e-12 relative agreement in log space on a 100-point grid."""

    def mpf(x):
        return mpmath.mpf(x.numerator) / x.denominator if isinstance(x, F) \
            else mpmath.mpf(x)

    grid = [
        (n, eps, c, f, delta)
        for n in (10, 10 ** 2, 10 ** 4, 10 ** 6, 10 ** 9)
        for eps, c in ((F(1, 2), F(1)), (F(1, 4), F(2)),
                       (F(1, 3), F(3, 2)), (F(1, 10), F(3)))
        for f, delta in ((1, F(1, 16)), (2, F(1, 16)), (1, F(1, 2)),
                         (3, F(1, 10)), (2, F(6, 25)))
    ]
    assert len(grid) == 100
    for n, eps, c, f, delta in grid:
        got_b = block_failure_exponent(n, eps, c, f, delta)
        want_b = mpmath.log((mpf(c) + 1) * n + 1) * (mpf(c) + 1) * n \
            - mpf(eps) ** 2 * mpmath.mpf(n) ** (2 - f * f * mpf(delta))
        assert abs(got_b - float(want_b)) <= 1e-12 * max(1.0, abs(float(want_b)))
        got_d = degree_failure_exponent(n, c, delta)
        want_d = mpmath.log((mpf(c) + 1) * n) - mpmath.mpf(n) ** (1 - mpf(delta)) / 3
        assert abs(got_d - float(want_d)) <= 1e-12 * max(1.0, abs(float(want_d)))

    # eventually negative, then strictly decreasing, for valid parameters
    for eps, c in ((F(1, 2), F(1)), (F(1, 4), F(2))):
        params = GadgetParams.derive(eps, c)
        f, delta = params.max_block_size, params.delta
        ns = [2 ** e for e in range(4, 44, 2)]
        bs = [block_failure_exponent(n, eps, c, f, delta) for n in ns]
        ds = [degree_failure_exponent(n, c, delta) for n in ns]
        assert bs[-1] < 0 and ds[-1] < 0
        bt = bs[next(i for i, v in enumerate(bs) if v < 0):]
        dt = ds[next(i for i, v in enumerate(ds) if v < 0):]
        assert all(y < x for x, y in zip(bt, bt[1:]))
        assert all(y < x for x, y in zip(dt, dt[1:]))
    print("\nACCEPTANCE 5: PASS — both exponents match 50-digit evaluations "
          "at 100 grid points (<=1e-12 rel) and decay for valid parameters")


def test_criterion_6_parameter_derivations_exact():
    """Exact rational arithmetic for the derived parameters and the bound."""
    p = GadgetParams.derive(F(1, 2), F(1))
    assert p.max_block_size == 2
    assert p.delta == F(1, 16)
    assert p.max_block_size ** 2 * p.delta == F(1, 4) < 1

    lb = choosability_lower_bound(10, 10, F(2, 5))
    assert lb.value == 19
    assert lb.target == 18
    assert lb.holds

    # ratio value/(2s+t) approaches 1-eps on the sweep; the exact limit for
    # s = t is 1 - (5/6)eps, so a small eps keeps the gap under the 1% line
    eps = F(1, 25)
    ratios = {}
    for st_ in (10 ** 2, 10 ** 3, 10 ** 4):
        lb = choosability_lower_bound(st_, st_, eps)
        ratios[st_] = F(lb.value, 3 * st_)
    rel_err = abs(ratios[10 ** 4] - (1 - eps)) / (1 - eps)
    assert rel_err < F(1, 100)
    # and the sweep actually converges toward its limit
    limit = 1 - F(5, 6) * eps
    devs = [abs(ratios[k] - limit) for k in (10 ** 2, 10 ** 3, 10 ** 4)]
    assert devs[2] < devs[0]
    print(f"\nACCEPTANCE 6: PASS — derive(1/2,1) = (f=2, delta=1/16), "
          f"bound(10,10,2/5) = 19 > 18, ratio at s=t=10^4 within "
          f"{float(rel_err) * 100:.2f}% of 1-eps")


def test_criterion_7_degree_property_pass_rate_grows_past_crossover():
    """Monte Carlo: eps=1/2, C=1, delta=1/2 (crossover n=16), 200 trials."""
    eps, c, delta = F(1, 2), F(1), F(1, 2)
    crossover = (2 / eps) ** int(1 / delta)  # (2/eps)^(1/delta) = 4^2
    assert crossover == 16
    ns = [32, 64, 128]
    assert all(n > crossover for n in ns)
    rows = degree_property_sweep(ns, 200, epsilon=eps, c_const=c, delta=delta,
                                 seed=20260817)
    freq = {}
    for n in ns:
        hits = [r.degree_pass for r in rows if r.n == n]
        assert len(hits) == 200
        freq[n] = sum(hits) / 200
    assert freq[32] <= freq[64] <= freq[128]
    assert freq[128] >= 0.95
    print(f"\nACCEPTANCE 7: PASS — pass rates {freq} are non-decreasing "
          f"above the n=16 crossover and reach >=0.95")


def test_criterion_8_seeded_subcommands_are_byte_identical(tmp_path):
    """Same seed => same bytes, across reruns and thread counts."""

    def run(argv, name):
        out = tmp_path / name
        assert cli_main(argv + ["--out", str(out)]) in (0, 1)
        return out.read_bytes()

    experiment = ["experiment", "--n", "64,128,256", "--trials", "100",
                  "--seed", "7", "--delta", "1/2", "--deterministic"]
    e1 = run(experiment + ["--threads", "1"], "e1.csv")
    e2 = run(experiment + ["--threads", "8"], "e2.csv")
    e3 = run(experiment + ["--threads", "1"], "e3.csv")
    assert e1 == e2 == e3
    assert len(e1.decode().splitlines()) == 2 + 300

    build = ["build-h", "--n", "6", "--m", "8", "--eps", "5/6", "--C", "4/3",
             "--delta", "2/3", "--seed", "11", "--mode", "exhaustive",
             "--format", "json", "--deterministic"]
    b1 = run(build + ["--threads", "1"], "b1.json")
    b2 = run(build + ["--threads", "8"], "b2.json")
    b3 = run(build + ["--threads", "1"], "b3.json")
    assert b1 == b2 == b3
    print("\nACCEPTANCE 8: PASS — experiment (300 rows) and build-h reports "
          "byte-identical across reruns and --threads 1 vs 8")
