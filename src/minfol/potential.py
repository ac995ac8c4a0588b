"""Compactly supported potentials as plain data, read in two coordinates.

A potential is a frozen dataclass of parameters. It is read radially as
V(u, r) by the n >= 3 certificates, and in log time as W(u, t) = V(u, e^t)
by the n = 2 flow. There are two families:

- `ProductPotential`: V(u, r) = lam * f(u) * g(r) for two bumps f and g.
  `f = g = None` is the identically-zero potential.
- `Example446Potential`: W(u, t) = -e^{-2t} (psi'(t) phi(u)
  + 1/2 psi(t)^k phi'(u)^2), built so that du/dt = phi'(u) psi(t) solves
  the Newton equation. k = 1 is the "as-printed" variant, k = 2 the
  "chain-rule" one.

Both carry the support box (`u_bound`, `r_inner`, `r_outer`, `t_lower`,
`t_upper`), the curvature constant K = sqrt(sup W''_uu) that controls the
Riccati estimates (`k_curvature`, set by `to_log_form`), and the rescaling
factor N of W_N(u, t) = W(N u, t) / N^2 (`n_scale`). Each family has one
evaluator, which computes only the derivative order asked for; the views
`w`, `dw_du`, `d2w_duu`, `dw_dt` and `v`, `dv_du`, `d2v_duu`, `dv_dr` are
thin wrappers over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import optimize

from .errors import InvalidParameterError, InvalidSupportError

# (u-order, t-order) of W, W_u, W_uu, W_t
_ORDERS = ((0, 0), (1, 0), (2, 0), (0, 1))

_VARIANT_POWER = {"as-printed": 1, "chain-rule": 2}


def _profile(s, n: int):
    """n-th derivative (n <= 3) of the bump profile g(s) = exp(1 - 1/(1-s^2)).

    It vanishes identically for |s| >= 1. A single point, or an array with
    every point inside, skips the masking; exp and the powers go through the
    same ufuncs either way, so the branches agree to the last bit.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        return _profile_inside(s[()], n) if abs(s) < 1.0 else np.float64(0.0)
    m = np.abs(s) < 1.0
    if m.all():
        return _profile_inside(s, n)
    out = np.zeros_like(s)
    out[m] = _profile_inside(s[m], n)
    return out


def _profile_inside(s, n: int):
    q = 1.0 - s * s
    val = np.exp(1.0 - 1.0 / q)
    if n == 0:
        return val
    h1 = -2.0 * s / np.square(q)
    if n == 1:
        return h1 * val
    h2 = -2.0 * (1.0 + 3.0 * s * s) / np.power(q, 3)
    if n == 2:
        return (h2 + h1 * h1) * val
    h3 = -24.0 * s * (1.0 + s * s) / np.power(q, 4)
    return (h3 + 3.0 * h1 * h2 + np.power(h1, 3)) * val


@dataclass(frozen=True)
class BumpFunction:
    """C^inf bump: amplitude * exp(1 - 1/(1-s^2)), s = (x - center)/width."""

    center: float
    width: float
    amplitude: float

    def __post_init__(self):
        if not self.width > 0:
            raise InvalidParameterError("bump width must be positive, got %r" % (self.width,))

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.width, self.center + self.width)

    def nth_derivative(self, x, n: int):
        """The n-th derivative (0 <= n <= 3) at x, vectorized."""
        s = (np.asarray(x, dtype=float) - self.center) / self.width
        return self.amplitude * _profile(s, n) / self.width**n

    def value(self, x):
        return self.nth_derivative(x, 0)

    __call__ = value

    def derivative(self, x):
        return self.nth_derivative(x, 1)

    def second_derivative(self, x):
        return self.nth_derivative(x, 2)

    def third_derivative(self, x):
        return self.nth_derivative(x, 3)


def make_bump(center: float, width: float, amplitude: float) -> BumpFunction:
    """Construct a smooth compactly supported bump (raises on width <= 0)."""
    return BumpFunction(center=center, width=width, amplitude=amplitude)


@dataclass(frozen=True, kw_only=True)
class Potential:
    """Support box, curvature constant and rescaling factor of a potential,
    and its two coordinate views.

    Every view is vectorized, pure, and exactly 0 outside
    {|u| < u_bound, r_inner < r < r_outer}.
    """

    u_bound: float
    r_inner: Optional[float]
    r_outer: float
    t_lower: float
    t_upper: float
    k_curvature: Optional[float]   # set by to_log_form
    n_scale: float

    def _evaluate(self, u, x, order: int, log: bool):
        """The family's evaluator: derivative `order` (an index of _ORDERS)
        at (u, t = x) if log, else at (u, r = x), for n_scale = 1."""
        raise NotImplementedError

    def _view(self, u, x, order: int, log: bool):
        N = self.n_scale
        return self._evaluate(N * u, x, order, log) / (N * N, N, 1.0, N * N)[order]

    def w(self, u, t):
        return self._view(u, t, 0, True)

    def dw_du(self, u, t):
        return self._view(u, t, 1, True)

    def d2w_duu(self, u, t):
        return self._view(u, t, 2, True)

    def dw_dt(self, u, t):
        return self._view(u, t, 3, True)

    def v(self, u, r):
        return self._view(u, r, 0, False)

    def dv_du(self, u, r):
        return self._view(u, r, 1, False)

    def d2v_duu(self, u, r):
        return self._view(u, r, 2, False)

    def dv_dr(self, u, r):
        return self._view(u, r, 3, False)


@dataclass(frozen=True, kw_only=True)
class ProductPotential(Potential):
    """V(u, r) = lam * f(u) * g(r); f = g = None is the zero potential."""

    f: Optional[BumpFunction]
    g: Optional[BumpFunction]
    lam: float

    def _evaluate(self, u, x, order, log):
        if self.f is None:
            return np.zeros(np.broadcast(np.asarray(u, float), np.asarray(x, float)).shape)
        r = np.exp(np.asarray(x, float)) if log else x
        du, dr = _ORDERS[order]
        val = self.lam * (self.f.nth_derivative(u, du) * self.g.nth_derivative(r, dr))
        return val * r if log and dr else val


@dataclass(frozen=True, kw_only=True)
class Example446Potential(Potential):
    """W(u, t) = -e^{-2t} (psi' phi + 1/2 psi^k phi'^2), k = psi_power."""

    phi: BumpFunction
    psi: BumpFunction
    psi_power: int

    def _evaluate(self, u, x, order, log):
        t = np.asarray(x, float) if log else np.log(np.asarray(x, float))
        D, k = self.phi.nth_derivative, self.psi_power
        e2 = np.exp(-2.0 * t)
        P, P1 = self.psi.nth_derivative(t, 0), self.psi.nth_derivative(t, 1)
        pk = P ** (k - 1)   # psi^k = P * pk
        F1 = D(u, 1)
        if order == 1:
            return -e2 * (P1 * F1 + P * pk * F1 * D(u, 2))
        if order == 2:
            F2 = D(u, 2)
            return -e2 * (P1 * F2 + P * pk * (F2 * F2 + F1 * D(u, 3)))
        F = D(u, 0)
        bracket = P1 * F + 0.5 * P * pk * F1 * F1
        if order == 0:
            return -e2 * bracket
        dw_dt = 2.0 * e2 * bracket - e2 * (self.psi.nth_derivative(t, 2) * F
                                           + 0.5 * k * pk * P1 * F1 * F1)
        return dw_dt if log else dw_dt / x


def _product(f, g, u_bound, r_inner, r_outer) -> ProductPotential:
    t_upper = math.log(r_outer)
    t_lower = math.log(r_inner) if r_inner else t_upper - 16.0
    return ProductPotential(f=f, g=g, lam=1.0, u_bound=u_bound, r_inner=r_inner,
                            r_outer=r_outer, t_lower=t_lower, t_upper=t_upper,
                            k_curvature=None, n_scale=1.0)


def zero_potential(u_bound: float = 1.0, r_inner: float = 1.0,
                   r_outer: float = math.e) -> ProductPotential:
    """The identically-zero potential with finite declared support bounds."""
    return _product(None, None, u_bound, r_inner, r_outer)


def product_potential(f: BumpFunction, g: BumpFunction) -> ProductPotential:
    """Test-family constructor V(u, r) = f(u) * g(r); g must live in r > 0."""
    if g.support[0] <= 0:
        raise InvalidSupportError(
            "radial factor support %r touches r <= 0" % (g.support,))
    return _product(f, g, abs(f.center) + f.width, g.support[0], g.support[1])


def scale_potential(pot: ProductPotential, lam: float) -> ProductPotential:
    """lam * V with the same support box."""
    if not isinstance(pot, ProductPotential):
        raise InvalidParameterError("only product potentials can be scaled")
    return replace(pot, lam=lam * pot.lam)


def _neg_curvature(x, d2, point, axis):
    """-d2(u, y) at `point` = (u, y) with coordinate `axis` set to x."""
    u, y = (x, point[1]) if axis == 0 else (point[0], x)
    return -float(d2(u, y))


def _refine_max_1d(d2, point, axis, lo, hi):
    """Local bounded refinement, along `axis`, of a grid argmax of d2."""
    x0 = point[axis]
    best0 = -_neg_curvature(x0, d2, point, axis)
    span = (hi - lo) * 1e-2
    a, b = max(lo, x0 - span), min(hi, x0 + span)
    if b > a:
        res = optimize.minimize_scalar(_neg_curvature, bounds=(a, b),
                                       args=(d2, point, axis), method="bounded",
                                       options={"xatol": 1e-12})
        if -res.fun > best0:
            return float(res.x), float(-res.fun)
    return x0, best0


def k_constant(w: Potential, grid_density: int = 512) -> float:
    """K = sqrt(sup over the strip of max(W''_uu, 0)): grid scan plus local
    refinement."""
    if grid_density < 2:
        raise InvalidParameterError("grid_density must be >= 2")
    uu = np.linspace(-w.u_bound, w.u_bound, grid_density)
    tt = np.linspace(w.t_lower, w.t_upper, grid_density)
    vals = w.d2w_duu(uu[:, None], tt[None, :])
    best = float(np.max(vals))
    if best <= 0:
        return 0.0
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    u0, t0 = uu[i], tt[j]
    # two coordinate-wise refinement sweeps
    for _ in range(2):
        u0, best = _refine_max_1d(w.d2w_duu, (u0, t0), 0, -w.u_bound, w.u_bound)
        t0, best = _refine_max_1d(w.d2w_duu, (u0, t0), 1, w.t_lower, w.t_upper)
    return math.sqrt(max(best, 0.0))


def to_log_form(pot: Potential, grid_density: int = 512) -> Potential:
    """The same potential with its curvature constant K filled in, ready for
    the log-time flow W(u, t) = V(u, e^t)."""
    return replace(pot, k_curvature=k_constant(pot, grid_density))


def example_446_potential(phi: BumpFunction, psi: BumpFunction,
                          variant: str = "chain-rule",
                          grid_density: int = 512) -> Example446Potential:
    """Explicit family W built from two bumps so that du/dt = phi'(u) psi(t)
    solves the Newton equation u'' = -e^{2t} W'_u.

    variant "as-printed" carries psi in the quadratic term; "chain-rule"
    carries psi^2 (the version consistent with direct differentiation).
    """
    if variant not in _VARIANT_POWER:
        raise InvalidParameterError("unknown variant %r" % (variant,))
    t_lower, t_upper = psi.support
    pot = Example446Potential(phi=phi, psi=psi, psi_power=_VARIANT_POWER[variant],
                              u_bound=abs(phi.center) + phi.width,
                              r_inner=math.exp(t_lower), r_outer=math.exp(t_upper),
                              t_lower=t_lower, t_upper=t_upper, k_curvature=None,
                              n_scale=1.0)
    return to_log_form(pot, grid_density)


def rescale_log_potential(w: Potential, n_scale: int) -> Potential:
    """W_N(u, t) = W(N u, t) / N^2: the rescaled Hamiltonian family."""
    if n_scale < 1:
        raise InvalidParameterError("rescaling factor must be >= 1")
    N = float(n_scale)
    return replace(w, n_scale=N * w.n_scale, u_bound=w.u_bound / N)


class RadialCurvatureEnvelope:
    """U(r) = max(0, sup_u V''_uu(u, r)): the bounding function of the
    minimality certificates, compactly supported in r.

    For V = lam f(u) g(r) it factors exactly: with c = lam g(r),
    U(r) = max(0, c sup f'', c inf f''), the extremes of f'' taken over the
    u-range once (grid scan plus local refinement)."""

    def __init__(self, pot: Potential, grid_density: int = 512):
        if not isinstance(pot, ProductPotential):
            raise InvalidParameterError(
                "the curvature envelope needs a product potential")
        self.pot = pot
        self._f2_extremes = (0.0, 0.0) if pot.f is None else (
            _f2_max(pot, grid_density, 1.0), -_f2_max(pot, grid_density, -1.0))

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        c = self.pot.lam * self.pot.g.value(r) if self.pot.g else 0.0 * r
        hi, lo = self._f2_extremes
        env = np.maximum(0.0, np.maximum(c * hi, c * lo))
        return float(env) if r.ndim == 0 else env


def _f2_max(pot: ProductPotential, grid_density: int, sign: float) -> float:
    """sup over |u| <= u_bound of sign * f''(N u), N = n_scale."""
    def d2(u, _):
        return sign * pot.f.nth_derivative(pot.n_scale * np.asarray(u, float), 2)

    uu = np.linspace(-pot.u_bound, pot.u_bound, grid_density)
    u0 = float(uu[int(np.argmax(d2(uu, None)))])
    return _refine_max_1d(d2, (u0, None), 0, -pot.u_bound, pot.u_bound)[1]


def u_bound_function(pot: Potential, n: int,
                     grid_density: int = 512) -> RadialCurvatureEnvelope:
    """Curvature envelope U(r) for the dimension-n certificates (n >= 3)."""
    if n < 3:
        raise InvalidParameterError("certificates require n >= 3")
    return RadialCurvatureEnvelope(pot, grid_density=grid_density)
