#!/usr/bin/env python3
"""End-to-end desk-scale demonstration of the construction pipeline.

Samples a sparse random bipartite graph, verifies its two structural
properties, complements it into a two-clique gadget, glues one copy per
proper palette coloring of the B-side, punches the adversarial color
lists, and hands the result to the exact list-coloring solver.  The
expected outcome is that the solver certifies there is no valid coloring,
matching the pigeonhole argument checked copy by copy.

Example:
    python3 scripts/build_demo.py --seed 11
"""

import argparse
import sys
from fractions import Fraction

from kstlab.construction import (
    AssemblyCapError,
    GadgetParams,
    build_counterexample,
    build_gadget,
    tiny_gadget,
    verify_no_l_coloring_pigeonhole,
)
from kstlab.listcolor import find_l_coloring
from kstlab.minors import MinorQuery, find_kst_minor


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--fixture", action="store_true",
                    help="skip sampling and use the 4-vertex fixture gadget")
    ap.add_argument("--minor-check", metavar="S,T", default=None,
                    help="also run the exact minor search on the gadget, "
                         "e.g. --minor-check 6,7")
    args = ap.parse_args()

    if args.fixture:
        h = tiny_gadget()
        print("gadget: built-in 4-vertex fixture (A = {0,1}, B = {2,3})")
    else:
        params = GadgetParams(Fraction(5, 6), Fraction(4, 3), 1, Fraction(2, 3))
        build = build_gadget(8, 6, params, args.seed, block_mode="exhaustive")
        if not build.ok:
            print(f"gadget sampling gave up after {len(build.attempts)} tries")
            return 1
        h = build.graph
        rep = build.attempts[-1]
        print(f"gadget: sampled in {len(build.attempts)} attempt(s), "
              f"p={rep.p:.3f}, max degree {rep.degree.max_degree}, "
              f"block property {rep.blocks.status}")

    m = len(h.part("A"))
    n = len(h.part("B"))
    palette = m + n - 1
    if args.minor_check:
        s, t = (int(x) for x in args.minor_check.split(","))
        res = find_kst_minor(h, MinorQuery(s, t))
        print(f"minor check K_{{{s},{t}}} on the gadget: {res.status.value} "
              f"({res.nodes_expanded} nodes)")

    try:
        asm = build_counterexample(h, palette, "all", max_vertices=200_000)
    except AssemblyCapError as exc:
        print(f"{exc} — already out of desk range at |B|={n}; rerun with "
              f"--fixture to watch the solver mechanism on the 20-vertex "
              f"instance")
        return 0
    print(f"assembly: {asm.graph.n} vertices, {len(asm.colorings)} copies, "
          f"palette {palette}")

    proper = [c for c in asm.colorings if asm.proper_on_b(c)]
    blocked = sum(verify_no_l_coloring_pigeonhole(asm, c) for c in proper)
    print(f"pigeonhole: {blocked}/{len(proper)} proper B-colorings blocked")

    coloring = find_l_coloring(asm.graph, asm.lists)
    if coloring is None:
        print("solver: no list coloring exists (exhaustive)")
        return 0
    print(f"solver found a coloring (unexpected at these sizes): {coloring}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
