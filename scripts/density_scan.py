#!/usr/bin/env python3
"""Tabulate closed self-densities against finite-level counts.

Usage: python scripts/density_scan.py [--p 3] [--max-weight 6]

Prints, for each size-1 and size-2 orbit label up to the weight bound, the
closed density, the feasible finite-level normalized counts, and whether they
agree.  Levels past the operation budget are printed as skip.
"""

import argparse
import itertools

from quatherm import counting
from quatherm.density import density_levels, density_self_closed, is_orbit_label


def labels_up_to(n, max_weight):
    rng = range(0, max_weight + 1)
    for alpha in itertools.product(rng, repeat=n):
        if all(alpha[i] >= alpha[i + 1] for i in range(n - 1)) \
                and sum(alpha) <= max_weight and is_orbit_label(alpha):
            yield alpha


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--max-weight", type=int, default=4)
    args = ap.parse_args()
    p = args.p

    print(f"{'label':>12} {'closed @ q=p':>14} {'levels':>24} last-level-agrees")
    for n in (1, 2):
        for alpha in labels_up_to(n, args.max_weight):
            closed = density_self_closed(alpha).eval_at(p)
            cols = []
            agree = None
            for ell in (1, 2):
                try:
                    (res,), _ = density_levels(alpha, alpha, p, [ell], budget=2**34)
                except counting.InfeasibleSizeError:
                    cols.append(f"l{ell}:skip")
                    continue
                norm = res.normalized
                cols.append(f"l{ell}:{norm}")
                agree = (norm == closed)
            print(f"{str(alpha):>12} {str(closed):>14} {' '.join(cols):>24} {agree}")


if __name__ == "__main__":
    main()
