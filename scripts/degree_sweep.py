#!/usr/bin/env python3
"""Locate the degree-property crossover empirically.

Sweeps the Pass frequency of the sampled degree check over a geometric
ladder of sizes and prints one line per size, so the n where the property
becomes typical is visible at a glance.

Example:
    python3 scripts/degree_sweep.py --eps 1/2 --C 1 --delta 1/2 \
        --n-start 8 --n-stop 256 --trials 200 --seed 7
"""

import argparse
import sys
from fractions import Fraction

from kstlab.construction import degree_property_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--eps", type=Fraction, default=Fraction(1, 2))
    ap.add_argument("--C", type=Fraction, default=Fraction(1))
    ap.add_argument("--delta", type=Fraction, default=None,
                    help="edge exponent; defaults to the derived eps^2/(4C^2)")
    ap.add_argument("--n-start", type=int, default=8)
    ap.add_argument("--n-stop", type=int, default=256)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    ns = []
    n = args.n_start
    while n <= args.n_stop:
        ns.append(n)
        n *= 2
    rows = degree_property_sweep(ns, args.trials, epsilon=args.eps,
                                 c_const=args.C, delta=args.delta,
                                 seed=args.seed)
    by_n = {}
    for r in rows:
        by_n.setdefault(r.n, []).append(r)
    print(f"{'n':>8}  {'p':>10}  {'pass rate':>9}  {'max degree seen':>15}")
    for n in ns:
        group = by_n[n]
        rate = sum(r.degree_pass for r in group) / len(group)
        worst = max(r.max_degree for r in group)
        print(f"{n:>8}  {group[0].p:>10.4f}  {rate:>9.3f}  {worst:>15}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
