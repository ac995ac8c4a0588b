#!/usr/bin/env python3
"""Planar rigidity demo: conjugate-point scan on a strong bump, then the
scaling-law experiment showing the two discriminant sides decay as 1/N^3
and 1/N^5, forcing a crossover for any nonzero potential."""

import argparse

import numpy as np

from minfol.catalog import scaling_bump, strong_bump
from minfol.rigidity import (conjugate_point_scan,
                             discriminant_inequality_check,
                             scaling_exponent_fit, verify_finding)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=7)
    args = parser.parse_args()

    w = strong_bump()
    grid = np.linspace(-0.5, 0.5, args.grid)
    scan = conjugate_point_scan(w, grid, grid, -2.0, w.t_upper + 10.0)
    print("scan: %d findings over %d cells (%d failures)" %
          (len(scan.findings), len(grid) ** 2, len(scan.failures)))
    if scan.findings:
        f = scan.findings[0]
        res = verify_finding(w, f)
        print("  first finding: (u0, p0) = (%.3f, %.3f), conjugate pair "
              "(%.4f, %.4f), re-verification residual %.2e" %
              (f.u0, f.p0, f.t1, f.t2, res))

    ws = scaling_bump()
    fit = scaling_exponent_fit(ws, [4, 8, 16, 32])
    print("scaling: slope_lhs %.4f (expect -3), slope_rhs %.4f (expect -5), "
          "crossover at N = %s" % (fit.slope_lhs, fit.slope_rhs,
                                   fit.crossover_N))
    lhs, rhs, holds = discriminant_inequality_check(ws)
    print("N = 1 discriminant inequality: lhs %.4e %s rhs %.4e" %
          (lhs, "<=" if holds else ">", rhs))


if __name__ == "__main__":
    main()
