"""Gauss-Legendre quadrature on one order ladder.

Every integral in the package is computed here: a 1-D rule on an interval,
or on a batch of intervals, and a tensor rule on a rectangle, all of
vectorized integrands. The order rises through `ORDERS` until an estimate
agrees with the one of the order before (Davis & Rabinowitz, Methods of
Numerical Integration, 1984). An integrand returns a tuple of arrays, one
per integral, so integrals that share their expensive parts share one
evaluation per order; each integral keeps its own convergence test and
reports the order it was accepted at. The nodes of each order are computed
once, on first use.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import AccuracyError, InvalidParameterError

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


class Integrals(tuple):
    """The integrals of a rule's components, and in `orders`, laid out as
    they are, the Gauss-Legendre order at which each was accepted."""

    def __new__(cls, values, orders):
        self = super().__new__(cls, values)
        self.orders = tuple(orders)
        return self


def _ladder(rule, epsabs: float, epsrel: float, what: str) -> Integrals:
    """Estimates of `rule(order)` up the ladder; each component is accepted at
    the first order where it moved by at most max(epsabs, epsrel |estimate|)."""
    prev = rule(ORDERS[0])
    accepted, orders = [None] * len(prev), [None] * len(prev)
    for order in ORDERS[1:]:
        cur = rule(order)
        delta = [abs(c - p) for c, p in zip(cur, prev)]
        for i, c in enumerate(cur):
            if accepted[i] is None and delta[i] <= max(epsabs, epsrel * abs(c)):
                accepted[i], orders[i] = c, order
        if None not in accepted:
            return Integrals(accepted, orders)
        prev = cur
    i = accepted.index(None)
    raise AccuracyError("%s quadrature did not converge (last delta=%g)"
                        % (what, delta[i]), estimate=cur[i])


def quad_1d(f, a, b) -> Integrals:
    """Integrals over [a, b] of the components of f(x), a tuple of arrays.

    a and b may also be 1-D arrays of B >= 1 intervals. f then gets nodes of
    shape (B, order) and returns components of that shape, and each integral
    is an array of B. Every (interval, component) integral is accepted on its
    own, and each row is summed as half_j * float(w @ v_j), a dot of its
    own, so row j has the bits of the one-interval rule on [a_j, b_j] and is
    accepted at the same order, whatever the other rows hold."""
    batch = np.ndim(a) > 0
    a, b = np.atleast_1d(np.asarray(a, float), np.asarray(b, float))
    if len(a) == 0:
        raise InvalidParameterError("quad_1d needs at least one interval")
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    halves = half.tolist()
    if batch:
        half, mid = half[:, None], mid[:, None]

    def rule(order):
        x, w = gauss_legendre(order)
        return tuple(h * float(w @ row) for v in f(half * x + mid)
                     for h, row in zip(halves, np.reshape(v, (len(halves), -1))))

    out = _ladder(rule, EPSABS, EPSREL, "1-D")
    if not batch:
        return out
    k = len(halves)
    return Integrals((np.array(out[i:i + k]) for i in range(0, len(out), k)),
                     (np.array(out.orders[i:i + k]) for i in range(0, len(out), k)))


def quad_2d(f, u_lo: float, u_hi: float, t_lo: float, t_hi: float,
            tol: float) -> Integrals:
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
