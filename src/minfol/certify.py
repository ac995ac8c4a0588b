"""Minimality certificates: the Hardy-type identity, the pointwise and
L^{n/2} curvature conditions, and the second-variation quadratic form."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError, MinfolError
from .odeflow import Trajectory
from .potential import BumpFunction, Potential, bump_jet, u_bound_function
from .quadrature import Integrals, quad_1d


@dataclass(frozen=True)
class SupportedFunction:
    """A scalar test function with derivative and compact support interval.

    `value` and `derivative` take one float and return one float."""

    value: Callable
    derivative: Callable
    support: tuple[float, float]


def as_test_function(xi) -> SupportedFunction:
    """The test function with vectorized value and derivative."""
    if isinstance(xi, SupportedFunction):
        return SupportedFunction(
            value=np.vectorize(xi.value, otypes=[float]),
            derivative=np.vectorize(xi.derivative, otypes=[float]),
            support=xi.support)
    if isinstance(xi, BumpFunction):
        return SupportedFunction(value=xi.value, derivative=xi.derivative,
                                 support=xi.support)
    raise InvalidParameterError("expected a BumpFunction or SupportedFunction")


def sphere_volume(n: int) -> float:
    """Volume |S^n| = 2 pi^{(n+1)/2} / Gamma((n+1)/2) of the unit n-sphere."""
    if n < 1:
        raise InvalidParameterError("sphere dimension must be >= 1")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def sphere_area(n: int) -> float:
    """Surface area |S^{n-1}| of the unit sphere in R^n."""
    return sphere_volume(n - 1)


def sobolev_constant(n: int) -> float:
    """S_n = n(n-2)/4 * |S^n|: the threshold of the L^{n/2} condition."""
    if n < 3:
        raise InvalidParameterError("S_n requires n >= 3")
    return n * (n - 2) / 4.0 * sphere_volume(n)


def _hardy_integrands(n: int, r, x, dx) -> tuple:
    """The integrands r^{n-1} (xi'^2 - ((n-2)/2)^2 xi^2 / r^2) and r phi'^2,
    phi = xi r^{n/2-1}, at radii r from xi = x and xi' = dx there."""
    c, m = ((n - 2) / 2.0) ** 2, n / 2.0 - 1.0
    lhs = r ** (n - 1) * dx * dx - c * r ** (n - 3) * x * x
    dphi = dx * r ** m + m * x * r ** (m - 1.0)
    return lhs, r * dphi * dphi


def _hardy_arguments(n: int, r1: float, r2: float) -> None:
    """Raise unless n >= 3 and 0 <= r1 < r2 < inf."""
    if n < 3:
        raise InvalidParameterError("identity requires n >= 3")
    if not (0 <= r1 < r2 < math.inf):
        raise InvalidParameterError("need 0 <= r1 < r2 < inf")


def _hardy_boundary(n: int, r1: float, xi_r1: float) -> float:
    """The boundary term (n-2)/2 phi(r1)^2 of the identity's right side."""
    m = n / 2.0 - 1.0
    return m * (xi_r1 * r1 ** m) ** 2 if r1 > 0 else 0.0


def hardy_identity_check(xi, n: int, r1: float, r2: float,
                         dxi: Optional[Callable] = None) -> Integrals:
    """Both sides of the weighted Hardy identity on [r1, r2], xi(r2) = 0.

    LHS = int r^{n-1} (xi'^2 - ((n-2)/2)^2 xi^2 / r^2) dr,
    RHS = (n-2)/2 * phi(r1)^2 + int r phi'^2 dr with phi = xi r^{n/2-1}.
    The identity forces LHS = RHS >= 0.

    xi is a BumpFunction (the one-element batch of `hardy_identity_checks`)
    or a callable with derivative dxi, integrated over [r1, r2]. Such a pair
    is evaluated on arrays of radii, and a constant it returns is broadcast.
    The sides carry in `orders` the quadrature order each integral reached
    (0: none).
    """
    if isinstance(xi, BumpFunction) and dxi is None:
        sides = hardy_identity_checks([xi], n, r1, r2)
        return Integrals((float(v[0]) for v in sides), (int(k[0]) for k in sides.orders))
    _hardy_arguments(n, r1, r2)
    if not (callable(xi) and dxi is not None):
        raise InvalidParameterError("expected a BumpFunction, or a callable xi and its dxi")
    if abs(float(xi(r2))) > 1e-10:
        raise InvalidParameterError("xi(r2) must vanish")

    def integrands(r):
        return _hardy_integrands(n, r, np.broadcast_to(xi(r), r.shape),
                                 np.broadcast_to(dxi(r), r.shape))

    sides = quad_1d(integrands, r1, r2)
    return Integrals((sides[0], _hardy_boundary(n, r1, float(xi(r1))) + sides[1]),
                     sides.orders)


def hardy_identity_checks(bumps, n: int, r1: float, r2: float) -> Integrals:
    """`hardy_identity_check` of each bump, as two arrays (LHS, RHS) with the
    bits of one check at a time, and in `orders` two arrays of the order each
    integral reached (0 for a bump wholly outside [r1, r2], whose integrals
    are 0). The bumps whose support meets (r1, r2) are integrated on one
    `quad_1d` batch: the centres, widths and amplitudes are (B, 1) columns,
    and each order makes one profile pass for value and derivative."""
    _hardy_arguments(n, r1, r2)
    center, width, amplitude = (np.array([getattr(b, k) for b in bumps], float)
                                for k in ("center", "width", "amplitude"))
    at_r1, at_r2 = (bump_jet(np.full(len(bumps), r), center, width, amplitude, (0,))[0]
                    for r in (r1, r2))
    if np.any(np.abs(at_r2) > 1e-10):
        raise InvalidParameterError("xi(r2) must vanish")
    lo, hi = np.maximum(r1, center - width), np.minimum(r2, center + width)
    rows = np.flatnonzero(lo < hi)
    cols = [v[rows, None] for v in (center, width, amplitude)]
    lhs, rhs = np.zeros(len(bumps)), np.zeros(len(bumps))
    orders = [np.zeros(len(bumps), int), np.zeros(len(bumps), int)]
    if len(rows):
        sides = quad_1d(lambda r: _hardy_integrands(n, r, *bump_jet(r, *cols, (0, 1))),
                        lo[rows], hi[rows])
        lhs[rows], rhs[rows] = sides
        orders[0][rows], orders[1][rows] = sides.orders
    boundary = np.array([_hardy_boundary(n, r1, v) for v in at_r1.tolist()])
    return Integrals((lhs, boundary + rhs), orders)


@dataclass
class Certificate:
    condition: str  # "A" | "B"
    n: int
    margin: float
    verdict: str    # "certified" | "not-certified"
    x0_offset: float = 0.0
    grid_points: int = 0
    norm_value: Optional[float] = None
    threshold: Optional[float] = None
    quadrature_order: Optional[int] = None   # B: the order its integral reached

    def to_dict(self):
        out = asdict(self)
        if self.quadrature_order is None:   # A integrates nothing
            del out["quadrature_order"]
        return out


def check_condition_A(pot: Potential, n: int, x0_offset: float = 0.0,
                      grid_points: int = 2048) -> Certificate:
    """Pointwise condition: U(r) <= ((n-2)/2)^2 / dist^2 over the support,
    worst-casing the distance to x0 on each sphere as r + |offset|."""
    if n < 3:
        raise InvalidParameterError("condition A requires n >= 3")
    env = u_bound_function(pot, n)
    r_lo = pot.r_inner if pot.r_inner else pot.r_outer * 1e-6
    rr = np.linspace(r_lo, pot.r_outer, grid_points)
    c = ((n - 2) / 2.0) ** 2
    rhs = c / (rr + abs(x0_offset)) ** 2
    lhs = env(rr)
    margin = float(np.min(rhs - lhs))
    return Certificate(condition="A", n=n, margin=margin,
                       verdict="certified" if margin >= 0 else "not-certified",
                       x0_offset=x0_offset, grid_points=grid_points)


def check_condition_B(pot: Potential, n: int) -> Certificate:
    """Integral condition: ||U||_{n/2} <= S_n = n(n-2)/4 |S^n|."""
    if n < 3:
        raise InvalidParameterError("condition B requires n >= 3")
    env = u_bound_function(pot, n)
    r_lo = pot.r_inner if pot.r_inner else 0.0

    quad = quad_1d(lambda r: (env(r) ** (n / 2.0) * r ** (n - 1),), r_lo, pot.r_outer)
    integral = quad[0]
    norm = (sphere_area(n) * integral) ** (2.0 / n)
    s_n = sobolev_constant(n)
    margin = s_n - norm
    return Certificate(condition="B", n=n, margin=margin,
                       verdict="certified" if margin >= 0 else "not-certified",
                       norm_value=norm, threshold=s_n, quadrature_order=quad.orders[0])


def second_variation(traj: Trajectory, xi, pot: Potential, n: int) -> float:
    """Q(xi) = int r^{n-1} (xi'^2 - W''_uu(u(r), ln r) xi^2) dr over the test
    function's support, which must lie inside the trajectory's r-range."""
    tf = as_test_function(xi)
    a, b = tf.support
    r_lo = math.exp(traj.t_min)
    r_hi = math.exp(traj.t_max)
    if a < r_lo - 1e-12 or b > r_hi + 1e-12 or a <= 0:
        raise MinfolError(
            "test function support (%g, %g) outside trajectory range (%g, %g)"
            % (a, b, r_lo, r_hi))

    def integrand(r):
        x, dx, t = tf.value(r), tf.derivative(r), np.log(r)
        return (r ** (n - 1) * (dx * dx - pot.d2w_duu(traj.state(t)[0], t) * x * x),)

    return quad_1d(integrand, a, b)[0]

