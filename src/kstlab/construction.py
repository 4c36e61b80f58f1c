"""Random two-clique gadgets and glued list-assignment counterexamples.

Pipeline: sample a random bipartite graph with edge probability n**(-delta),
check that it has small maximum degree and that every small disjoint set
collection on the two sides contains a fully joined pair, take the
complement of an induced piece to get a gadget whose parts are cliques, then
glue many copies of the gadget along the shared B clique, one copy per
possible palette coloring of B, and punch each copied vertex's list by the
colors its non-neighbors received.  A pigeonhole argument then rules out
every proper list coloring of the glued graph, which gives explicit graphs
whose list chromatic number exceeds the palette guarantee their minors would
suggest.

Rational parameters (epsilon, C, delta) are carried exactly as Fractions
wherever they feed integer derivations, so floors and ceilings never suffer
float rounding.  All randomness flows through numpy Generators seeded from
explicit integers; per-trial and per-retry streams are derived from the
master seed, so a report depends on its arguments alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .graph import (
    LABEL_A,
    LABEL_B,
    Graph,
    bits,
    complete,
    induced_subgraph,
    is_clique,
    mask_of,
    non_neighbor_count,
)
from .listcolor import ListAssignment, find_l_coloring


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _n_too_large(n: int) -> ValueError:
    """The usage error for an n whose float arithmetic overflows."""
    return ValueError(f"n >= 2**{n.bit_length() - 1} is too large for float arithmetic")


# enumeration nodes the exhaustive block-property check may visit
_BLOCK_NODE_CAP = 2_000_000
# trials seeded at once by the degree sweep (a power of two, so no block
# straddles trial 2**32), and the bytes of its reused block of hit matrices
# (which holds at least one draw)
_SEED_BLOCK = 1024
_DRAW_BYTES = 1 << 16


class EnumerationCapError(ValueError):
    """An exhaustive enumeration was requested above its configured cap."""


class AssemblyCapError(ValueError):
    """A counterexample assembly would exceed the vertex cap."""


@dataclass(frozen=True)
class GadgetParams:
    """Sampling parameters: edge exponent delta, side ratio C, slack epsilon.

    ``max_block_size`` caps the size of each set in the block-connection
    property; ``delta`` sets the edge probability n**(-delta).  Constructing
    directly only requires the hypothesis max_block_size**2 * delta < 1 (and
    sane ranges); ``derive`` pins the canonical choices
    max_block_size = ceil(C / epsilon) and delta = epsilon**2 / (4 C**2).
    """

    epsilon: Fraction
    c_const: Fraction
    max_block_size: int
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _frac(self.epsilon))
        object.__setattr__(self, "c_const", _frac(self.c_const))
        object.__setattr__(self, "delta", _frac(self.delta))
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.c_const < 1:
            raise ValueError("C must be at least 1")
        if self.max_block_size < 1:
            raise ValueError("max_block_size must be positive")
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0, 1)")
        if self.max_block_size ** 2 * self.delta >= 1:
            raise ValueError("require max_block_size**2 * delta < 1")

    @classmethod
    def derive(cls, epsilon, c_const) -> "GadgetParams":
        epsilon = _frac(epsilon)
        c_const = _frac(c_const)
        f = _ceil(c_const / epsilon)
        delta = epsilon ** 2 / (4 * c_const ** 2)
        return cls(epsilon, c_const, f, delta)

    def edge_probability(self, n: int) -> float:
        try:
            return float(n) ** (-float(self.delta))
        except OverflowError:
            raise _n_too_large(n) from None


# --- sampling and the two structural properties --------------------------


def _derived_seed(*parts: int) -> int:
    state = np.random.SeedSequence(list(parts)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


# numpy's SeedSequence hash constants, and PCG64's 128-bit LCG multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(x: int) -> list[int]:
    """The 32-bit words of a non-negative int, lowest first; 0 is [0]."""
    out = [x & _MASK32]
    while x := x >> 32:
        out.append(x & _MASK32)
    return out


def _hash_consts(count: int, init: int, mult: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i = 0..count, as a uint32 column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, np.uint32)[:, None]


def _hashmix(v: np.ndarray, consts: np.ndarray, k: int, calls: int) -> np.ndarray:
    """SeedSequence's hash calls k..k+calls-1, call k + i on row i of v (or
    on v itself, broadcast): call j xors in constant j and multiplies by
    constant j + 1."""
    v = (v ^ consts[k:k + calls]) * consts[k + 1:k + 1 + calls]
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def _seed_state(entropy: np.ndarray, words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(words)`` for every column e of the
    (L, B) uint32 array ``entropy`` (each column is one entropy list, its
    32-bit words as numpy splits the ints), as a (words, B) uint32 array."""
    size = len(entropy)
    if size < 4:
        # a pool slot past the entropy hashes a zero word
        entropy = np.vstack([entropy, np.zeros((4 - size, entropy.shape[1]), np.uint32)])
    consts = _hash_consts(16 + 4 * max(0, size - 4), _INIT_A, _MULT_A)
    pool = _hashmix(entropy[:4], consts, 0, 4)
    for src in range(4):
        # the three updates of one source slot read it unchanged
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, 4 + 3 * src, 3))
    for src in range(4, size):
        pool = _mix(pool, _hashmix(entropy[src], consts, 4 * src, 4))
    return _hashmix(pool[[i % 4 for i in range(words)]],
                    _hash_consts(words, _INIT_B, _MULT_B), 0, words)


def _seed_block(seed: int, n: int, lo: int, hi: int) -> tuple[list[int], list[dict]]:
    """The derived seeds and PCG64 states of trials lo..hi-1 at size n.

    For trial t it returns ``_derived_seed(seed, n, t)`` and the value of
    ``np.random.default_rng(_derived_seed(seed, n, t)).bit_generator
    .state["state"]``, computed for the whole block at once:

    * ``SeedSequence([seed, n, t])`` hashes the 32-bit words of seed, n and
      t (lowest first, 0 as one word) into a pool of four words, then
      ``generate_state`` hashes the pool out.  ``_seed_state`` runs that
      mixing as uint32 array arithmetic over the block, one column per
      trial.  Its first two words, high word first, are the derived seed.
    * ``default_rng(s)`` seeds PCG64 from ``SeedSequence(s)``: s is the
      words (low, high), or (low,) when high is 0, which hashes the same
      because a missing pool word hashes as a zero one.  Its
      ``generate_state(4, uint64)`` is eight uint32 words read as four
      little-endian uint64 s0..s3, and PCG64's srandom takes initstate =
      s0·2⁶⁴ + s1 and inc = 2(s2·2⁶⁴ + s3) + 1 and steps the 128-bit LCG
      (multiplier 0x2360ED051FC65DA44385DF649FCCF645) twice, adding
      initstate between the steps: state = ((inc + initstate)·mult + inc)
      mod 2¹²⁸.

    All t in lo..hi-1 must have the same number of words (hi ≤ 2³² or
    lo ≥ 2³²).  Tests hold this equal to numpy, and the sweep re-draws the
    first trial of each size through numpy to catch a change in numpy's
    seeding.
    """
    if lo < 1 << 32 < hi:
        raise ValueError("a seed block must not straddle trial 2**32")
    t = np.arange(lo, hi, dtype=np.uint64)
    trial = [t] if hi <= 1 << 32 else [t & np.uint64(_MASK32), t >> np.uint64(32)]
    prefix = np.array(_words(seed) + _words(n), np.uint32)[:, None]
    entropy = np.vstack([np.broadcast_to(prefix, (len(prefix), hi - lo))]
                        + [w.astype(np.uint32)[None] for w in trial])
    high, low = _seed_state(entropy, 2)
    seeds = (high.astype(np.uint64) << np.uint64(32) | low).tolist()
    state = _seed_state(np.vstack([low, high]), 8).astype(np.uint64)
    words64 = (state[0::2] | state[1::2] << np.uint64(32)).tolist()
    states = []
    for s0, s1, s2, s3 in zip(*words64):
        inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
        states.append({"state": ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128,
                       "inc": inc})
    return seeds, states


def _side_a(n: int, params: GadgetParams) -> int:
    """floor(C*n), the A-side size of a draw with n B-vertices; C >= 1, so
    it is at least n."""
    if n < 1:
        raise ValueError("n must be positive")
    return _floor(params.c_const * n)


def _draw(ma: int, n: int, p: float, seed: int) -> np.ndarray:
    """The (ma, n) hit matrix of one draw at edge probability p."""
    return np.random.default_rng(seed).random((ma, n)) < p


def _sample_hits(n: int, params: GadgetParams, seed: int) -> np.ndarray:
    """The boolean (floor(C*n), n) hit matrix of one draw: entry (a, b) says
    whether A-vertex a and B-vertex b are joined, independently with
    probability n**(-delta).  Deterministic in (n, params, seed)."""
    return _draw(_side_a(n, params), n, params.edge_probability(n), seed)


def _packed_rows(hits: np.ndarray) -> list[int]:
    """Row i of the boolean matrix as an int bitset: bit j is entry (i, j)."""
    packed = np.packbits(hits, axis=1, bitorder="little")
    buf, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(buf[i:i + w], "little") for i in range(0, len(buf), w)]


def _draw_graph(hits: np.ndarray) -> Graph:
    """The bipartite graph of a hit matrix: A-vertex a is vertex a, B-vertex
    b is vertex ma + b, and the rows come from the packed hit rows and
    columns."""
    ma, n = hits.shape
    adj = [row << ma for row in _packed_rows(hits)] + _packed_rows(hits.T)
    return Graph(ma + n, tuple(adj), (LABEL_A,) * ma + (LABEL_B,) * n)


def sample_bipartite(n: int, params: GadgetParams, seed: int) -> Graph:
    """Random bipartite graph: floor(C*n) A-vertices, n B-vertices, each
    cross pair an edge independently with probability n**(-delta).
    The A vertices come first, then B.  Deterministic in (n, params, seed)."""
    return _draw_graph(_sample_hits(n, params, seed))


@dataclass(frozen=True)
class DegreeCheck:
    passed: bool
    max_degree: int
    worst_vertex: int | None


def check_degree_property(g: Graph, epsilon, n: int) -> DegreeCheck:
    """Pass iff every vertex has degree <= epsilon * n (exact comparison)."""
    epsilon = _frac(epsilon)
    worst_v, worst_d = None, -1
    for v in range(g.n):
        d = g.degree(v)
        if d > worst_d:
            worst_v, worst_d = v, d
    if g.n == 0:
        return DegreeCheck(True, 0, None)
    return DegreeCheck(Fraction(worst_d) <= epsilon * n, worst_d, worst_v)


@dataclass(frozen=True)
class BlockWitness:
    """A disjoint set collection with no fully joined cross pair."""

    xs: tuple[tuple[int, ...], ...]
    ys: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BlockCheck:
    """status: 'verified', or 'falsified' with a witness attached."""

    status: str
    witness: BlockWitness | None
    trials: int  # always 0; kept while benchmark/tracing.py still reads it
    failures: int  # 1 exactly when falsified
    nodes: int = 0  # enumeration nodes, both sides


def block_collection_joined(g: Graph, xs, ys) -> bool:
    """True iff some (X_i, Y_j) pair is fully joined: every x in X_i adjacent
    to every y in Y_j.  This is the per-collection predicate behind the block
    property and is usable on its own to audit witnesses."""
    y_masks = [mask_of(ys_i) for ys_i in ys]
    for xs_i in xs:
        common = ~0
        for x in xs_i:
            common &= g.adj[x]
        for ym in y_masks:
            if common & ym == ym:
                return True
    return False


def _block_collections(pool, k: int, sizes: range, total: int | None,
                       counter, extend=None):
    """Yield canonical collections of k pairwise disjoint subsets of
    ``pool``, ordered by ascending minimum element (in pool order), each set
    with a size in ``sizes``.  With ``total`` set, only collections covering
    exactly ``total`` pool vertices are yielded.  With ``extend`` given, a
    candidate set is offered as ``extend(state, block)``, where ``state`` is
    what the call returned for the set chosen before it (0 for the first);
    None drops the set and every collection through it.  Every candidate
    set is one enumeration node, counted in the one-element list ``counter``
    against ``_BLOCK_NODE_CAP``.  The enumeration runs on an explicit stack,
    so k is not bounded by the recursion limit."""
    lo_size, hi_size = sizes[0], sizes[-1]

    def candidates(lo: int, used: int, left: int, state):
        # the sets still to choose need `need` more vertices (at least)
        if total is None:
            need, fit = left * lo_size, sizes
        else:
            need = total - used.bit_count()
            fit = range(max(lo_size, need - (left - 1) * hi_size),
                        min(hi_size, need - (left - 1) * lo_size) + 1)
        free = [j for j in range(lo, len(pool)) if not used >> j & 1]
        for t, ai in enumerate(free):
            rest = free[t + 1:]
            if len(rest) < need - 1:
                return  # later anchors leave even fewer free vertices
            for size in fit:
                for extra in combinations(rest, size - 1):
                    counter[0] += 1
                    if counter[0] > _BLOCK_NODE_CAP:
                        raise EnumerationCapError(
                            f"block-property enumeration exceeded cap {_BLOCK_NODE_CAP}")
                    idx = (ai,) + extra
                    block = tuple(pool[j] for j in idx)
                    after = state if extend is None else extend(state, block)
                    if after is not None:
                        yield ai, used | mask_of(idx), block, after

    chosen: list[tuple[int, ...]] = []
    stack = [candidates(0, 0, k, 0)]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        ai, used, block, state = nxt
        if len(chosen) == k - 1:
            yield tuple(chosen) + (block,)
            continue
        chosen.append(block)
        stack.append(candidates(ai + 1, used, k - len(chosen), state))


def check_block_property(g: Graph, max_block_size: int, epsilon, n: int) -> BlockCheck:
    """Decide the block-connection property at k = ceil(epsilon * n).

    The property: for every choice of k disjoint non-empty subsets
    X_1..X_k of the A side and k disjoint non-empty subsets Y_1..Y_k of the
    B side, all of size <= f = max_block_size, some pair (X_i, Y_j) is fully
    joined.  Checking the single size k = ceil(epsilon * n) suffices for all
    larger collection sizes: any bad larger collection restricts to a bad
    k-collection by dropping sets, since losing sets can only lose pairs.

    The check is exact and enumerates the X side only:

    * Let CN(X_i) be the common neighbourhood of X_i in B; Y_j is joined to
      X_i iff Y_j is inside CN(X_i).  Growing an X_i only shrinks CN(X_i),
      so a bad collection stays bad.  Hence only X-collections covering
      min(|A|, k * f) vertices are enumerated: every X_i of size f, or all
      of A used.
    * For a fixed X side let U be the union of the CN(X_i).  A Y set is bad
      (joined to no X_i) iff it lies inside no CN(X_i).  Each B vertex
      outside U is a bad singleton, no singleton inside U is bad, and a bad
      Y_j that meets B - U can be swapped for one of its vertices outside
      U, freeing the rest.  So with r = |B - U| the X side has a bad Y
      side iff r >= k, or there are k - r disjoint subsets of U of sizes
      2..f, none inside any CN(X_i); a small exact search finds those.
    * The X enumeration carries U over the sets chosen so far, one OR per
      set, and drops a partial collection as soon as no completion can
      leave k bad Y sets.  The disjoint bad Y sets number at most
      |B - U| (each one meeting B - U) plus, for f >= 2, floor(|U| / 2)
      (each one inside U, with at least 2 vertices); for f = 1 the second
      term is 0.  Adding a set only grows U, and each vertex U gains lowers
      |B - U| by 1 and raises floor(|U| / 2) by at most 1, so the bound
      never rises.  A partial collection with bound < k therefore has no
      completion with a bad Y side, and cutting it skips no bad collection.
      For f = 1 every X-collection that survives is bad.

    X-collections come in the canonical order of ascending minimum element
    (lexicographic for f = 1), and the cut keeps the order of those that
    survive; the first bad one is the witness ('falsified'), with Y the bad
    singletons lowest in B order, then the subsets the search found.  When
    none is bad the property is 'verified'.  Both enumerations count their
    candidate sets as nodes, cut or not, report the count as ``nodes`` and
    refuse (``EnumerationCapError``) beyond ``_BLOCK_NODE_CAP`` of them.
    """
    epsilon = _frac(epsilon)
    k = _ceil(epsilon * n)
    if k < 1:
        raise ValueError("ceil(epsilon * n) must be at least 1")
    a_part = list(g.part(LABEL_A))
    b_part = list(g.part(LABEL_B))
    if len(a_part) < k or len(b_part) < k:
        raise ValueError("sides too small for the requested collection size")
    f = max_block_size
    b_mask = mask_of(b_part)

    def common(x_i) -> int:
        cn = b_mask
        for x in x_i:
            cn &= g.adj[x]
        return cn

    def extend(covered: int, x_i):
        covered |= common(x_i)
        u = covered.bit_count()
        room = len(b_part) - u + (u // 2 if f > 1 else 0)
        return covered if room >= k else None

    counter = [0]
    for xs in _block_collections(a_part, k, range(1, f + 1),
                                 min(len(a_part), k * f), counter, extend):
        cns, covered = [], 0
        for x_i in xs:
            cns.append(common(x_i))
            covered |= cns[-1]
        bad = [(y,) for y in b_part if not covered >> y & 1]
        if len(bad) < k and f > 1:
            inside = [y for y in b_part if covered >> y & 1]
            packing = next(_block_collections(
                inside, k - len(bad), range(2, f + 1), None, counter,
                lambda s, ys: s if all(mask_of(ys) & ~cn for cn in cns) else None),
                ())
            bad = sorted(bad + list(packing))
        if len(bad) >= k:
            return BlockCheck("falsified", BlockWitness(xs, tuple(bad[:k])), 0, 1,
                              counter[0])
    return BlockCheck("verified", None, 0, 0, counter[0])


# --- probability bound exponents (log space) ------------------------------


def block_failure_exponent(n: int, epsilon, c_const, max_block_size: int, delta) -> float:
    """log of the union bound on the probability that the block property
    fails: ln((C+1)n + 1) * (C+1) * n - epsilon**2 * n**(2 - f**2 * delta)."""
    epsilon = float(_frac(epsilon))
    c = float(_frac(c_const))
    d = float(_frac(delta))
    f = max_block_size
    if n < 1:
        raise ValueError(f"failure exponents need n >= 1, got n={n}")
    try:
        return math.log((c + 1) * n + 1) * (c + 1) * n \
            - epsilon ** 2 * float(n) ** (2 - f * f * d)
    except OverflowError:
        raise _n_too_large(n) from None


def degree_failure_exponent(n: int, c_const, delta) -> float:
    """log of the tail bound on some vertex exceeding its expected degree
    scale: ln((C+1)n) - n**(1-delta) / 3."""
    c = float(_frac(c_const))
    d = float(_frac(delta))
    if n < 1:
        raise ValueError(f"failure exponents need n >= 1, got n={n}")
    try:
        return math.log((c + 1) * n) - float(n) ** (1 - d) / 3
    except OverflowError:
        raise _n_too_large(n) from None


# --- gadget construction ---------------------------------------------------


@dataclass(frozen=True)
class SampleReport:
    """One sampling attempt: the seed actually used and both property checks."""

    seed: int
    n: int
    m: int
    p: float
    degree: DegreeCheck
    blocks: BlockCheck

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "degree": {
                "passed": self.degree.passed,
                "max_degree": self.degree.max_degree,
                "worst_vertex": self.degree.worst_vertex,
            },
            "blocks": {
                "status": self.blocks.status,
                "trials": self.blocks.trials,
                "failures": self.blocks.failures,
                "nodes": self.blocks.nodes,
                "witness": None if self.blocks.witness is None else {
                    "xs": [list(x) for x in self.blocks.witness.xs],
                    "ys": [list(y) for y in self.blocks.witness.ys],
                },
            },
        }


@dataclass(frozen=True)
class GadgetBuild:
    """Outcome of build_gadget: ``graph`` is None when every retry failed."""

    graph: Graph | None
    attempts: tuple[SampleReport, ...]

    @property
    def ok(self) -> bool:
        return self.graph is not None


def build_gadget(
    m: int,
    n: int,
    params: GadgetParams,
    seed: int,
    *,
    max_retries: int = 32,
) -> GadgetBuild:
    """Sample until a bipartite draw satisfies the degree property (and the
    block property is verified), then return the gadget: the complement
    of the induced graph on the first m A-vertices plus all n B-vertices.

    In the gadget both parts are cliques and each vertex has at most
    ceil(epsilon * n) non-neighbors, because a gadget non-neighbor is
    exactly a sampled cross edge.  Retry r uses a seed derived from
    (seed, r); all attempts are reported.
    """
    ma = _floor(params.c_const * n)
    if not (1 <= n <= m <= ma):
        raise ValueError("require 1 <= n <= m <= floor(C*n)")
    if max_retries < 1:
        raise ValueError(f"build_gadget needs max_retries >= 1, got {max_retries}")
    _check_seed(seed)
    p = params.edge_probability(n)
    attempts = []
    for r in range(max_retries):
        s = _derived_seed(seed, r)
        gp = sample_bipartite(n, params, s)
        deg = check_degree_property(gp, params.epsilon, n)
        blocks = check_block_property(gp, params.max_block_size, params.epsilon, n)
        attempts.append(SampleReport(s, n, ma, p, deg, blocks))
        if deg.passed and blocks.status == "verified":
            h = _gadget(gp, m, ma)
            limit = _ceil(params.epsilon * n)
            for v in range(h.n):
                if non_neighbor_count(h, v) > limit:
                    raise RuntimeError(
                        f"gadget vertex {v} has more than {limit} non-neighbors")
            return GadgetBuild(h, tuple(attempts))
    return GadgetBuild(None, tuple(attempts))


def _gadget(gp: Graph, m: int, ma: int) -> Graph:
    """complement(induced_subgraph(gp, first m A-vertices + all B)), written
    straight from the draw's rows: A-vertex a keeps id a and B-vertex b
    becomes m + b; both sides are cliques, and a cross pair is an edge iff
    the draw did not hit it."""
    n = gp.n - ma
    a_all, b_all = (1 << m) - 1, (1 << n) - 1
    adj = [(a_all ^ 1 << a) | (b_all ^ gp.adj[a] >> ma) << m for a in range(m)]
    adj += [(a_all ^ gp.adj[ma + b] & a_all) | (b_all ^ 1 << b) << m for b in range(n)]
    return Graph(m + n, tuple(adj), (LABEL_A,) * m + (LABEL_B,) * n)


def tiny_gadget() -> Graph:
    """Four-vertex gadget: parts {0,1} (A) and {2,3} (B), both cliques, all
    cross edges except 0-2.  The smallest gadget with a punched list."""
    return Graph.from_edges(
        4, [(0, 1), (2, 3), (0, 3), (1, 2), (1, 3)],
        (LABEL_A, LABEL_A, LABEL_B, LABEL_B))


def clique_gadget(m: int, n: int) -> Graph:
    """Complete gadget on m A-vertices and n B-vertices: nothing punched."""
    return complete(m + n, (LABEL_A,) * m + (LABEL_B,) * n)


# --- glued counterexample ---------------------------------------------------


class _CopyIndex(NamedTuple):
    """What the per-copy checks read of an assembly's graph and lists."""

    b_edges: tuple[tuple[int, int], ...]
    masks: list[int]
    b_nbrs: list[tuple[int, ...]]


@dataclass(frozen=True)
class CounterexampleAssembly:
    """The glued graph, its list assignment, and the copy bookkeeping.

    B occupies vertex ids 0..n-1 (in base-graph B order).  Copy i of the A
    side occupies ids a_ranges[i][0]..a_ranges[i][1]-1, in base-graph A
    order, and corresponds to the B-coloring colorings[i].

    ``proper_on_b`` and ``verify_no_l_coloring_pigeonhole`` read one index,
    built on first use from ``graph`` and ``lists`` alone (so an assembly
    made by ``dataclasses.replace`` builds its own): the B edges as pairs
    i < j, each vertex's list as a color mask (a palette color x is bit x,
    any other color a bit past the palette), and each vertex's B neighbors
    as positions.  Masks are shared per distinct list and
    positions per distinct B row, and every copy repeats one template, so
    the index holds two references per vertex plus one int per distinct
    list and one tuple per distinct row.
    """

    graph: Graph
    lists: ListAssignment
    base: Graph
    palette_size: int
    base_a: tuple[int, ...]
    base_b: tuple[int, ...]
    colorings: tuple[tuple[int, ...], ...]
    a_ranges: tuple[tuple[int, int], ...]

    @cached_property
    def _copy_of(self) -> dict[tuple[int, ...], int]:
        """B-coloring -> index of its first copy, built once per assembly."""
        index: dict[tuple[int, ...], int] = {}
        for i, c in enumerate(self.colorings):
            index.setdefault(c, i)
        return index

    @cached_property
    def _index(self) -> _CopyIndex:
        """The per-copy checks' index (see above), built once per assembly."""
        n = len(self.base_b)
        low = (1 << n) - 1
        adj = self.graph.adj
        b_edges = tuple((i, j) for i in range(n) for j in bits(adj[i] & low) if i < j)
        bit = {x: x for x in range(self.palette_size)}
        mask_of_list: dict[frozenset[int], int] = {}
        masks = []
        for lst in self.lists.lists:
            mask = mask_of_list.get(lst)
            if mask is None:
                mask = 0
                for x in lst:
                    mask |= 1 << bit.setdefault(x, len(bit))
                mask_of_list[lst] = mask
            masks.append(mask)
        nbrs_of_row: dict[int, tuple[int, ...]] = {}
        b_nbrs = []
        for row in adj:
            row &= low
            nbrs = nbrs_of_row.get(row)
            if nbrs is None:
                nbrs = nbrs_of_row[row] = tuple(bits(row))
            b_nbrs.append(nbrs)
        return _CopyIndex(b_edges, masks, b_nbrs)

    def copy_index(self, coloring) -> int:
        c = tuple(coloring)
        try:
            return self._copy_of[c]
        except KeyError:
            raise KeyError(f"no copy for B-coloring {c}") from None

    def proper_on_b(self, coloring) -> bool:
        """True iff ``coloring`` (one color per B vertex, in B order) gives
        the two ends of every B edge of the glued graph different colors;
        ``ValueError`` unless it has one color per B vertex."""
        c = tuple(coloring)
        if len(c) != len(self.base_b):
            raise ValueError("coloring length must match |B|")
        for i, j in self._index.b_edges:
            if c[i] == c[j]:
                return False
        return True

    def copy_correspondence(self, i: int) -> dict[int, int]:
        """base-graph vertex id -> glued-graph vertex id for copy i."""
        start, _ = self.a_ranges[i]
        out = {b: j for j, b in enumerate(self.base_b)}
        for j, a in enumerate(self.base_a):
            out[a] = start + j
        return out


def build_counterexample(
    h: Graph,
    palette_size: int,
    colorings: str | list = "all",
    *,
    max_vertices: int = 1_000_000,
) -> CounterexampleAssembly:
    """Glue one copy of ``h`` per B-coloring along the shared B clique and
    punch the lists.

    Every copy keeps B (ids 0..n-1) and gets fresh A vertices.  B-vertices
    receive the full palette; an A-vertex in the copy for coloring c loses
    exactly the colors c gives to its non-neighbors inside B.  With
    colorings='all', every map B -> palette gets a copy (palette**n copies);
    an explicit list of colorings builds just those copies.  Refuses to build
    beyond ``max_vertices`` total vertices.
    """
    if h.labels is None:
        raise ValueError("gadget must carry A/B labels")
    base_a = h.part(LABEL_A)
    base_b = h.part(LABEL_B)
    m, n = len(base_a), len(base_b)
    if m < 1 or n < 1:
        raise ValueError("gadget needs non-empty A and B parts")
    if palette_size != m + n - 1:
        raise ValueError(f"palette must equal |A|+|B|-1 = {m + n - 1}")
    if colorings == "all":
        count = palette_size ** n
        requested = None
    else:
        requested = [tuple(c) for c in colorings]
        for c in requested:
            if len(c) != n or any(not (0 <= x < palette_size) for x in c):
                raise ValueError(f"bad B-coloring {c}")
        count = len(requested)
    total = n + count * m
    if total > max_vertices:
        raise AssemblyCapError(
            f"assembly needs {total} vertices ({count} copies), cap is {max_vertices}")

    # Per base A vertex: its B row, its A row over A positions (shifted to
    # each copy's start), and the B positions it misses, whose colors its
    # list loses; per B vertex: its row back into one copy's A positions.
    b_pos = {b: j for j, b in enumerate(base_b)}
    a_pos = {a: i for i, a in enumerate(base_a)}
    templates = []
    for a in base_a:
        cross = inside = 0
        for u in bits(h.adj[a]):
            j = b_pos.get(u)
            if j is not None:
                cross |= 1 << j
            else:
                inside |= 1 << a_pos[u]
        missing = tuple(j for j in range(n) if not cross >> j & 1)
        templates.append((cross, inside, missing))
    back = [mask_of(i for i, (cross, _, _) in enumerate(templates) if cross >> j & 1)
            for j in range(n)]
    # B-side internal edges follow the gadget.
    adj = [mask_of(b_pos[u] for u in bits(h.adj[b]) if u in b_pos) for b in base_b]

    full_list = frozenset(range(palette_size))
    lists: list[frozenset[int]] = [full_list] * n
    colorings_seq = (product(range(palette_size), repeat=n)
                     if requested is None else requested)
    ranges = []
    kept_colorings = []
    at = n
    for c in colorings_seq:
        kept_colorings.append(c)
        start = at
        for j in range(n):
            adj[j] |= back[j] << start
        for cross, inside, missing in templates:
            adj.append(cross | inside << start)
            lists.append(full_list.difference([c[j] for j in missing])
                         if missing else full_list)
            at += 1
        ranges.append((start, at))

    labels = (LABEL_B,) * n + (LABEL_A,) * (total - n)
    glued = Graph(total, tuple(adj), labels)
    return CounterexampleAssembly(
        graph=glued,
        lists=ListAssignment(tuple(lists)),
        base=h,
        palette_size=palette_size,
        base_a=base_a,
        base_b=base_b,
        colorings=tuple(kept_colorings),
        a_ranges=tuple(ranges),
    )


def verify_no_l_coloring_pigeonhole(
    assembly: CounterexampleAssembly, coloring
) -> bool:
    """True iff no proper list coloring of the copy for ``coloring`` extends
    it: fix B to the given proper palette coloring, restrict to that copy,
    and strike each A vertex's B-neighbors' colors from its list.
    Improper-on-B or out-of-palette colorings are rejected.

    When the copy's A side is a clique of the glued graph, a coloring of it
    gives its vertices pairwise distinct colors from their live lists; if
    those lists together hold fewer colors than the clique has vertices,
    there is none (pigeonhole), and True is returned without a search.
    The count reads the assembly's index (see ``CounterexampleAssembly``):
    the live colors of the copy are the OR of ``mask[v] & ~strike(v)``,
    where ``strike(v)`` has the bit of each color ``coloring`` puts on v's
    B neighbors, so a copy of m vertices costs one pass over their B
    positions and no sets.  Otherwise the list-coloring solver decides, on
    the punched lists as sets.  Copies of the gadgets of ``build_gadget``,
    ``clique_gadget`` and ``tiny_gadget`` always end in the count: their A
    side is a clique, and an A vertex keeps exactly the palette minus
    c(B), which has m + n - 1 - n = m - 1 colors for a proper coloring c of
    the B clique."""
    c = tuple(coloring)
    if len(c) != len(assembly.base_b):
        raise ValueError("coloring length must match |B|")
    if any(not (0 <= x < assembly.palette_size) for x in c):
        raise ValueError("coloring uses out-of-palette colors")
    if not assembly.proper_on_b(c):
        raise ValueError("coloring must be proper on B")
    start, stop = assembly.a_ranges[assembly.copy_index(c)]
    _, masks, b_nbrs = assembly._index
    color_bit = [1 << x for x in c]
    live = 0
    for v in range(start, stop):
        strike = 0
        for b in b_nbrs[v]:
            strike |= color_bit[b]
        live |= masks[v] & ~strike
    g = assembly.graph
    if live.bit_count() < stop - start and is_clique(g, range(start, stop)):
        return True
    lists = assembly.lists.lists
    punched = [lists[v].difference([c[b] for b in b_nbrs[v]]) for v in range(start, stop)]
    sub, _ = induced_subgraph(g, range(start, stop))
    return find_l_coloring(sub, ListAssignment.of_lists(punched)) is None


# --- the size bound ---------------------------------------------------------


@dataclass(frozen=True)
class LowerBound:
    value: int
    target: Fraction
    holds: bool


def choosability_lower_bound(s: int, t: int, epsilon) -> LowerBound:
    """Exact integer evaluation of the construction's guarantee.

    value = m + n - ceil(eps_prime * n) with n = s - 1,
    m = floor((1 - epsilon)(s + t)), eps_prime = epsilon / 2; the bound holds
    when value exceeds (1 - epsilon)(2s + t).
    """
    epsilon = _frac(epsilon)
    if not (0 < epsilon < Fraction(1, 2)):
        raise ValueError("epsilon must lie in (0, 1/2)")
    if not (1 <= s <= t):
        raise ValueError("require 1 <= s <= t")
    n = s - 1
    m = _floor((1 - epsilon) * (s + t))
    value = m + n - _ceil(epsilon / 2 * n)
    target = (1 - epsilon) * (2 * s + t)
    return LowerBound(value, target, Fraction(value) > target)


# --- Monte Carlo sweep -------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    n: int
    seed: int
    p: float
    max_degree: int
    degree_pass: bool


def degree_property_sweep(
    ns,
    trials: int,
    *,
    epsilon,
    c_const,
    delta=None,
    seed: int,
) -> list[SweepRow]:
    """Seeded Monte Carlo sweep of the degree property across sizes.

    One row per (n, trial), computed one after another in a single thread.
    Trial t at size n draws its hit matrix from
    ``np.random.default_rng(_derived_seed(seed, n, t))``, so the report
    depends on the arguments alone.  ``delta`` defaults to the canonical
    derived value; pass an explicit Fraction to rescale the sweep.

    The rows are those of that per-trial path, computed a block at a time:
    ``_seed_block`` gives the seeds and PCG64 states of up to
    ``_SEED_BLOCK`` trials at once, one reused generator draws each trial
    from its state into a reused bool block of about ``_DRAW_BYTES``, and
    the maximum degrees of a whole block come from its row and column sums.
    The first trial of every size is drawn again through ``default_rng``;
    a different seed or hit matrix raises ``RuntimeError``, so a numpy
    whose seeding no longer matches ``_seed_block`` fails instead of
    writing wrong rows.
    """
    if trials < 1:
        raise ValueError(f"the sweep needs trials >= 1, got {trials}")
    if not ns:
        raise ValueError("the sweep needs at least one size n")
    _check_seed(seed)
    epsilon = _frac(epsilon)
    c_const = _frac(c_const)
    if delta is None:
        delta = GadgetParams.derive(epsilon, c_const).delta
    else:
        delta = _frac(delta)
    params = GadgetParams(epsilon, c_const, 1, delta)

    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    rows = []
    for n in ns:
        ma = _side_a(n, params)
        p = params.edge_probability(n)
        # an integer degree d has d <= epsilon * n iff d <= floor(epsilon * n)
        bound = _floor(epsilon * n)
        buf = np.empty((min(trials, max(1, _DRAW_BYTES // (ma * n))), ma, n), bool)
        noise = np.empty((ma, n))
        # degrees are at most max(ma, n), so the sums fit this dtype
        count = np.min_scalar_type(max(ma, n))
        for lo in range(0, trials, _SEED_BLOCK):
            seeds, states = _seed_block(seed, n, lo, min(trials, lo + _SEED_BLOCK))
            for at in range(0, len(seeds), len(buf)):
                block = buf[:len(seeds) - at]
                for hits, st in zip(block, states[at:at + len(block)]):
                    state["state"] = st
                    bitgen.state = state
                    np.less(gen.random(out=noise), p, out=hits)
                if lo == at == 0:
                    ref = _derived_seed(seed, n, 0)
                    if seeds[0] != ref or not np.array_equal(block[0], _draw(ma, n, p, ref)):
                        raise RuntimeError(
                            f"batch seeding disagrees with numpy at n={n}, trial 0")
                degrees = np.maximum(block.sum(axis=1, dtype=count).max(axis=1),
                                     block.sum(axis=2, dtype=count).max(axis=1))
                rows.extend(SweepRow(n, s, p, d, d <= bound)
                            for s, d in zip(seeds[at:at + len(block)], degrees.tolist()))
    return rows
