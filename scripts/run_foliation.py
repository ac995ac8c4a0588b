#!/usr/bin/env python3
"""Foliation demo: outer- and inner-pinned solution families on a certified
potential, plus the explicit first-order-flow family and its residual check."""

import argparse

import numpy as np

from minfol.catalog import certified_bump, example_pair
from minfol.foliation import build_MA_family, build_NA_family, example_446_check


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--leaves", type=int, default=9)
    args = parser.parse_args()

    pot = certified_bump(n=args.n)
    alphas = np.linspace(-0.5, 0.5, args.leaves)
    for label, fam in (("N_A", build_NA_family(pot, args.n, 0.0, alphas)),
                       ("M_A", build_MA_family(pot, args.n, 0.0, alphas))):
        rep = fam.ordering
        print("%s family: %s  min gap %.3e  min du/dalpha %.3e" %
              (label, rep.verdict, rep.min_gap, rep.min_dudalpha))

    phi, psi = example_pair()
    lo, hi = phi.support
    u0s = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 11)
    rep = example_446_check(phi, psi, u0s, variant="auto")
    print("explicit family (variant %s): max residual %.3e, "
          "min pairwise gap %.3e, crossings %d" %
          (rep.variant, rep.max_residual, rep.min_pairwise_gap, rep.crossings))


if __name__ == "__main__":
    main()
