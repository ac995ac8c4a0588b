"""Gauss-Legendre quadrature on one order ladder.

Every integral in the package is computed here: a 1-D rule on an interval
and a tensor rule on a rectangle, both of vectorized integrands. The order
rises through `ORDERS` until an estimate agrees with the one of the order
before (Davis & Rabinowitz, Methods of Numerical Integration, 1984). An
integrand returns a tuple of arrays, one per integral, so integrals that
share their expensive parts share one evaluation per order; each integral
keeps its own convergence test. The nodes of each order are computed once,
on first use.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import AccuracyError

ORDERS = (24, 48, 96, 192, 384)
EPSABS = 1e-12          # 1-D rule, absolute
EPSREL = 1e-10          # 1-D rule, relative
TENSOR_EPSREL = 1e-9    # tensor rule, relative; its absolute tolerance is an argument


@functools.lru_cache(maxsize=16)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the `order`-point rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _ladder(rule, epsabs: float, epsrel: float, what: str) -> tuple:
    """Estimates of `rule(order)` up the ladder; each component is accepted at
    the first order where it moved by at most max(epsabs, epsrel |estimate|)."""
    prev = rule(ORDERS[0])
    accepted = [None] * len(prev)
    for order in ORDERS[1:]:
        cur = rule(order)
        delta = [abs(c - p) for c, p in zip(cur, prev)]
        for i, c in enumerate(cur):
            if accepted[i] is None and delta[i] <= max(epsabs, epsrel * abs(c)):
                accepted[i] = c
        if None not in accepted:
            return tuple(accepted)
        prev = cur
    i = accepted.index(None)
    raise AccuracyError("%s quadrature did not converge (last delta=%g)"
                        % (what, delta[i]), estimate=cur[i])


def quad_1d(f, a: float, b: float) -> tuple:
    """Integrals over [a, b] of the components of f(x), a tuple of arrays."""
    half, mid = 0.5 * (b - a), 0.5 * (b + a)

    def rule(order):
        x, w = gauss_legendre(order)
        return tuple(half * float(w @ v) for v in f(half * x + mid))

    return _ladder(rule, EPSABS, EPSREL, "1-D")


def quad_2d(f, u_lo: float, u_hi: float, t_lo: float, t_hi: float,
            tol: float) -> tuple:
    """Integrals over [u_lo, u_hi] x [t_lo, t_hi] of the components of
    f(v, t), a tuple of arrays, by the tensor rule. An array f returns may
    be reused by its next call (`rigidity.RescaledSides` writes into one
    workspace per order), so each is reduced before f is called again."""
    scale = 0.25 * (u_hi - u_lo) * (t_hi - t_lo)

    def rule(order):
        x, w = gauss_legendre(order)
        vu = 0.5 * (u_hi - u_lo) * x + 0.5 * (u_hi + u_lo)
        vt = 0.5 * (t_hi - t_lo) * x + 0.5 * (t_hi + t_lo)
        return tuple(scale * float(w @ vals @ w)
                     for vals in f(vu[:, None], vt[None, :]))

    return _ladder(rule, tol, TENSOR_EPSREL, "2-D")
