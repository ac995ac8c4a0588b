"""Compactly supported potentials as plain data, read in log time.

A potential is a frozen dataclass of parameters, read as W(u, t) = V(u, e^t)
in t = ln r for every dimension: the n = 2 flow, the n >= 3 radial solves
and the second variation all evaluate W. There are two families:

- `ProductPotential`: V(u, r) = lam * f(u) * g(r) for two bumps f and g.
  `f = g = None` is the identically-zero potential.
- `Example446Potential`: W(u, t) = -e^{-2t} (psi'(t) phi(u)
  + 1/2 psi(t)^k phi'(u)^2), built so that du/dt = phi'(u) psi(t) solves
  the Newton equation. k = 1 is the "as-printed" variant, k = 2 the
  "chain-rule" one.

Both carry the support box (`u_bound`, `r_inner`, `r_outer`, `t_lower`,
`t_upper`). The rescaled potential W_N(u, t) = W(N u, t) / N^2 is a member
of the same family whose u-bump (f, or phi) is bump(c/N, w/N, a/N^2). The
curvature constant K = sqrt(sup W''_uu) that controls the Riccati estimates
(`k_curvature`) and the curvature envelope U(r) of the n >= 3 certificates
are derived from the parameters in closed form, with no search, from the
extremes of the bump profile's g''; an example-4.4.6 potential has neither.
Each family's evaluator `jet(u, t, orders)` returns every derivative asked
for from one pass of each bump (`_profile` shares its powers of
1/(1-s^2)); a product potential read at one-dimensional u and t of one
shape, as the flow reads it, passes both bumps' arguments through
`_profile` stacked, in one pass. `jet` serves the flow and the quadrature;
the views `w`, `dw_du`, `d2w_duu` and `dw_dt` are its one-order calls, with
the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidParameterError, InvalidSupportError

# (u-order, t-order) of W, W_u, W_uu, W_t
_ORDERS = ((0, 0), (1, 0), (2, 0), (0, 1))

_VARIANT_POWER = {"as-printed": 1, "chain-rule": 2}


# a point of the profile's left foot where g and its first three derivatives
# are +0.0: exp(1 - 1/q) underflows, and each factor it multiplies is positive
_FOOT = -0.9999


def _profile(s, orders):
    """The derivatives of the orders asked for (each <= 3) of the bump profile
    g(s) = exp(1 - 1/(1-s^2)), one per order, from one pass.

    They vanish identically for |s| >= 1 (and at NaN). A single point is
    read as a scalar, and an array with every point inside is read as it is
    (a large quadrature grid is not copied). Otherwise every point outside is
    moved to _FOOT, where each order is +0.0, so the formula is never read
    outside its support and needs no mask afterwards. exp and the powers go
    through the same ufuncs in every branch, so they agree to the last bit.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        s = s[()]
        return _profile_inside(s, orders) if abs(s) < 1.0 else [np.float64(0.0)] * len(orders)
    m = np.abs(s) < 1.0
    return _profile_inside(s if np.count_nonzero(m) == m.size else np.where(m, s, _FOOT),
                           orders)


def _profile_inside(s, orders):
    """Every order up to the highest asked for, on a shared g(s) and h1..h3."""
    q = 1.0 - s * s
    val = np.exp(1.0 - 1.0 / q)
    d, top = [val], max(orders)
    if top:
        h1 = -2.0 * s / np.square(q)
        d.append(h1 * val)
        if top > 1:
            h2 = -2.0 * (1.0 + 3.0 * s * s) / np.power(q, 3.0)
            d.append((h2 + h1 * h1) * val)
            if top > 2:
                h3 = -24.0 * s * (1.0 + s * s) / np.power(q, 4.0)
                d.append((h3 + 3.0 * h1 * h2 + np.power(h1, 3.0)) * val)
    return list(map(d.__getitem__, orders))


def _scaled(out, orders, amplitude, width):
    """The profile's derivatives out, one per order, as a bump's: amplitude * d
    / width^n, in place; both numbers, or both arrays of one bump per row."""
    column = isinstance(width, np.ndarray)
    for k, n in enumerate(orders):   # 1.0 * x and x / 1.0 are exact: skipped
        d, wn = out[k] if not column and amplitude == 1.0 else amplitude * out[k], width ** n
        out[k] = d if not column and wn == 1.0 else d / wn
    return out


def bump_jet(x, center, width, amplitude, orders):
    """The derivatives of the orders asked for (each 0..3) at x of one bump, or
    of one bump per row of x and of the columns center, width and amplitude."""
    return _scaled(_profile((x - center) / width, orders), orders, amplitude, width)


def _bump_view(n: int):
    def view(self, x):
        return self.jet(x, (n,))[0]
    return view


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

    def jet(self, x, orders):
        """`bump_jet` of this bump at x, one per order, from one profile pass."""
        return bump_jet(np.asarray(x, dtype=float), self.center, self.width, self.amplitude,
                        orders)

    value, derivative, second_derivative, third_derivative = map(_bump_view, range(4))
    __call__ = value


def make_bump(center: float, width: float, amplitude: float) -> BumpFunction:
    """Construct a smooth compactly supported bump (raises on width <= 0)."""
    return BumpFunction(center=center, width=width, amplitude=amplitude)


def _potential_view(order: int):
    def view(self, u, t):
        return self.jet(u, t, (order,))[0]
    return view


@dataclass(frozen=True, kw_only=True)
class Potential:
    """Support box of a potential, its log-time views and its curvature
    constant. Each family names its u-bump `_U_BUMP` and has the evaluator
    `jet(u, t, orders)`: W and its derivatives at (u, t), one per index of
    _ORDERS in orders (0: W, 1: W_u, 2: W_uu, 3: W_t). Every view is
    vectorized, pure, and exactly 0 outside {|u| < u_bound, t_lower < t < t_upper}.
    """

    u_bound: float
    r_inner: Optional[float]
    r_outer: float
    t_lower: float
    t_upper: float

    def centred_in_u(self) -> Potential:
        """W translated in u so that its u-bump is centred at u = 0, on the
        bump's support |u| < w; the potential itself when the bump is centred
        or absent."""
        bump = getattr(self, self._U_BUMP)
        if bump is None or bump.center == 0.0:
            return self
        return replace(self, **{self._U_BUMP: replace(bump, center=0.0)}, u_bound=bump.width)

    # the one-order views: W, W_u, W_uu, W_t at (u, t)
    w, dw_du, d2w_duu, dw_dt = map(_potential_view, range(4))

    @property
    def k_curvature(self) -> float:
        """The curvature constant K of the Riccati estimates: k_constant."""
        return k_constant(self)


@dataclass(frozen=True, kw_only=True)
class ProductPotential(Potential):
    """V(u, r) = lam * f(u) * g(r); f = g = None is the zero potential."""

    f: Optional[BumpFunction]
    g: Optional[BumpFunction]
    lam: float
    _U_BUMP = "f"

    def jet(self, u, t, orders):
        """Every element takes the ufuncs of f.jet(u) and g.jet(e^t) in their
        order, stacked or not, so the two paths agree to the last bit."""
        if self.f is None:
            zero = np.zeros(np.broadcast(np.asarray(u, float), np.asarray(t, float)).shape)
            return [zero] * len(orders)
        du, dr, factors = _factor_orders(orders)
        f, g = self.f, self.g
        if isinstance(u, np.ndarray) and u.ndim == 1 and u.shape == np.shape(t):
            # one profile pass over the stacked arguments [(u - c_f)/w_f ; (r - c_g)/w_g]
            x = np.empty((2,) + u.shape)
            x[0], r = u, np.exp(t, out=x[1])
            center, width = self._columns
            d = _profile((x - center) / width, du + dr)
            F = _scaled([dk[0] for dk in d[:len(du)]], du, f.amplitude, f.width)
            G = _scaled([dk[1] for dk in d[len(du):]], dr, g.amplitude, g.width)
        else:
            r = np.exp(np.asarray(t, float))
            F, G = f.jet(u, du), g.jet(r, dr)
        out = []
        for i, j, n in factors:   # 1.0 * x is exact: skipped
            val = F[i] * G[j] if self.lam == 1.0 else self.lam * (F[i] * G[j])
            out.append(val * r if n else val)
        return out

    @functools.cached_property
    def _columns(self):
        """The centers and the widths of f and g, each a (2, 1) column."""
        return tuple(np.array([[getattr(b, k)] for b in (self.f, self.g)])
                     for k in ("center", "width"))


@functools.lru_cache(maxsize=None)
def _factor_orders(orders):
    """The orders of f and of g that the indices of _ORDERS in orders read,
    and per index the positions of its two factors and its r-order."""
    du, dr = (tuple(sorted({_ORDERS[o][k] for o in orders})) for k in (0, 1))
    return du, dr, tuple((du.index(_ORDERS[o][0]), dr.index(_ORDERS[o][1]), _ORDERS[o][1])
                         for o in orders)


@dataclass(frozen=True, kw_only=True)
class Example446Potential(Potential):
    """W(u, t) = -e^{-2t} (psi' phi + 1/2 psi^k phi'^2), k = psi_power."""

    phi: BumpFunction
    psi: BumpFunction
    psi_power: int
    _U_BUMP = "phi"

    def jet(self, u, t, orders):
        t = np.asarray(t, float)
        k, e2 = self.psi_power, np.exp(-2.0 * t)
        need = sorted({n for o in orders for n in _PHI_ORDERS[o]})
        F = dict(zip(need, self.phi.jet(u, need)))
        P, P1, *P2 = self.psi.jet(t, (0, 1, 2) if 3 in orders else (0, 1))
        pk = P ** (k - 1)   # psi^k = P * pk
        if 0 in F:
            bracket = P1 * F[0] + 0.5 * P * pk * F[1] * F[1]
        out = []
        for o in orders:
            if o == 0:
                out.append(-e2 * bracket)
            elif o == 1:
                out.append(-e2 * (P1 * F[1] + P * pk * F[1] * F[2]))
            elif o == 2:
                out.append(-e2 * (P1 * F[2] + P * pk * (F[2] * F[2] + F[1] * F[3])))
            else:
                out.append(2.0 * e2 * bracket - e2 * (P2[0] * F[0]
                                                      + 0.5 * k * pk * P1 * F[1] * F[1]))
        return out


# the phi orders that each index of _ORDERS reads
_PHI_ORDERS = ((0, 1), (1, 2), (1, 2, 3), (0, 1))


def _product(f, g, u_bound, r_inner, r_outer) -> ProductPotential:
    t_upper = math.log(r_outer)
    t_lower = math.log(r_inner) if r_inner else t_upper - 16.0
    return ProductPotential(f=f, g=g, lam=1.0, u_bound=u_bound, r_inner=r_inner,
                            r_outer=r_outer, t_lower=t_lower, t_upper=t_upper)


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


# The sup and inf over s of g''(s), g the bump profile. g''' = -4 s g (6s^6 +
# 3s^4 - 10s^2 + 3) / (1-s^2)^6, so both sit at s = 0 or where s^2 is a root
# of 6x^3 + 3x^2 - 10x + 3. Each is the double next to the true value, rounded
# outward. _ROUND_UP covers the four roundings of c * (a / w**2) * g'' (each at
# most eps/2) and its own.
_G2_SUP = 21.065882118926464
_G2_INF = -4.158915409969399
_ROUND_UP = 1.0 + 4 * np.finfo(float).eps


def _curvature_bound(f: BumpFunction, c):
    """An upper bound of max(0, sup_u c f''(u)), vectorized in c:
    f'' = (amplitude/width^2) g''."""
    k = f.amplitude / f.width ** 2
    return np.maximum(0.0, np.maximum(c * k * _G2_SUP, c * k * _G2_INF)) * _ROUND_UP


def k_constant(w: Potential) -> float:
    """K = sqrt(sup over the strip of max(W''_uu, 0)), in closed form.

    W''_uu(u, t) = lam f''(u) g(e^t), and g runs over [0, A_g] on the strip,
    so K^2 is the curvature bound at c = lam A_g. A rescaled potential's f''
    is (a/N^2) / (w/N)^2 g'': for N a power of two that is a/w^2 exactly, so
    its K is the potential's."""
    if not isinstance(w, ProductPotential):
        raise InvalidParameterError("the curvature constant needs a product potential")
    if w.f is None:
        return 0.0
    return math.sqrt(_curvature_bound(w.f, w.lam * w.g.amplitude))


def to_log_form(pot: Potential) -> Potential:
    """pot itself, once its curvature constant K is known to exist: raises
    InvalidParameterError for a potential without one."""
    k_constant(pot)
    return pot


def example_446_potential(phi: BumpFunction, psi: BumpFunction,
                          variant: str = "chain-rule") -> Example446Potential:
    """Explicit family W built from two bumps so that du/dt = phi'(u) psi(t)
    solves the Newton equation u'' = -e^{2t} W'_u.

    variant "as-printed" carries psi in the quadratic term; "chain-rule"
    carries psi^2 (the version consistent with direct differentiation).
    """
    if variant not in _VARIANT_POWER:
        raise InvalidParameterError("unknown variant %r" % (variant,))
    t_lower, t_upper = psi.support
    return Example446Potential(phi=phi, psi=psi, psi_power=_VARIANT_POWER[variant],
                               u_bound=abs(phi.center) + phi.width,
                               r_inner=math.exp(t_lower), r_outer=math.exp(t_upper),
                               t_lower=t_lower, t_upper=t_upper)


def rescale_log_potential(w: Potential, N: int) -> Potential:
    """W_N(u, t) = W(N u, t) / N^2, the rescaled Hamiltonian family: the same
    family on |u| < u_bound/N, its u-bump bump(c, w, a) made bump(c/N, w/N,
    a/N^2) (so phi' becomes phi'(N u) / N)."""
    if N < 1:
        raise InvalidParameterError("rescaling factor must be >= 1")
    N, bump = float(N), getattr(w, w._U_BUMP)
    if bump is not None:
        w = replace(w, **{w._U_BUMP: BumpFunction(bump.center / N, bump.width / N,
                                                  bump.amplitude / (N * N))})
    return replace(w, u_bound=w.u_bound / N)


class RadialCurvatureEnvelope:
    """U(r) = max(0, sup_u V''_uu(u, r)): the bounding function of the
    minimality certificates, compactly supported in r.

    For V = lam f(u) g(r) it factors exactly: with c = lam g(r),
    U(r) = max(0, c sup f'', c inf f''), the extremes of f'' in closed form."""

    def __init__(self, pot: Potential):
        if not isinstance(pot, ProductPotential):
            raise InvalidParameterError(
                "the curvature envelope needs a product potential")
        self.pot = pot

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        pot = self.pot
        env = 0.0 * r if pot.f is None else _curvature_bound(pot.f, pot.lam * pot.g.value(r))
        return float(env) if r.ndim == 0 else env


def u_bound_function(pot: Potential, n: int) -> RadialCurvatureEnvelope:
    """Curvature envelope U(r) for the dimension-n certificates (n >= 3)."""
    if n < 3:
        raise InvalidParameterError("certificates require n >= 3")
    return RadialCurvatureEnvelope(pot)
