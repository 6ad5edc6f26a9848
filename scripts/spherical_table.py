#!/usr/bin/env python3
"""Print explicit spherical polynomials and their elementary-symmetric form.

Usage: python scripts/spherical_table.py --n 3 --alpha "2,0,0;1,1,0"
"""

import argparse

from quatherm.spherical import psi_elementary, psi_explicit


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--alpha", default="0,0;2,0;1,1",
                    help="semicolon-separated labels")
    args = ap.parse_args()
    for chunk in args.alpha.split(";"):
        alpha = tuple(int(x) for x in chunk.split(","))
        print(f"alpha = {alpha}")
        print(f"  Psi = {psi_explicit(alpha, args.n)}")
        print(f"  elementary form = {psi_elementary(alpha, args.n)}")
        print()


if __name__ == "__main__":
    main()
