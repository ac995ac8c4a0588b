"""Curated potentials used by the experiment scripts and the test suite."""

from __future__ import annotations

import numpy as np

from .potential import (BumpFunction, ProductPotential, make_bump,
                        product_potential, scale_potential,
                        u_bound_function, zero_potential)


def flat(u_bound: float = 1.0, r_inner: float = 1.0,
         r_outer: float = 3.0) -> ProductPotential:
    return zero_potential(u_bound=u_bound, r_inner=r_inner, r_outer=r_outer)


def weak_bump() -> ProductPotential:
    """Small product bump: K e^T well below 1/2, so the canonical Riccati
    construction stays inside all the region bounds."""
    f = make_bump(0.0, 1.0, 0.005)
    g = make_bump(2.0, 1.0, 0.1)
    return product_potential(f, g)


def strong_bump() -> ProductPotential:
    """Strong positive curvature along u = 0 (negative amplitude flips the
    sign of f'' at the peak): the rigidity scan finds conjugate points."""
    f = make_bump(0.0, 1.0, -6.0)
    g = make_bump(2.0, 1.0, 1.0)
    return product_potential(f, g)


def certified_bump(n: int = 3, safety: float = 0.9) -> ProductPotential:
    """Product bump scaled so the curvature envelope sits at `safety` times
    the pointwise threshold ((n-2)/2)^2 / r^2 of the certificate."""
    f = make_bump(0.0, 1.0, 1.0)
    g = make_bump(2.0, 1.0, 1.0)
    base = product_potential(f, g)
    # sup over r of sup_u V''_uu(u, r) * r^2, on a dense grid
    env = u_bound_function(base, max(n, 3))
    rr = np.linspace(base.r_inner, base.r_outer, 1024)
    peak = float(np.max(env(rr) * rr * rr))
    lam = safety * ((n - 2) / 2.0) ** 2 / peak
    return scale_potential(base, lam)


def narrow_bump() -> ProductPotential:
    """Steep u-profile: the u-gradient side of the discriminant inequality
    dominates already at N = 1, so the inequality fails without rescaling
    and the scan finds conjugate points on the same potential."""
    f = make_bump(0.0, 0.4, -1.5)
    g = make_bump(2.0, 1.0, 1.0)
    return product_potential(f, g)


def scaling_bump() -> ProductPotential:
    """Gentle bump with sup |W e^{2t}| << 1 so the rescaled integrals sit in
    the asymptotic regime already at moderate N."""
    f = make_bump(0.0, 1.0, 0.2)
    g = make_bump(2.0, 0.8, 0.1)
    return product_potential(f, g)


def example_pair() -> tuple[BumpFunction, BumpFunction]:
    phi = make_bump(0.0, 1.0, 1.0)
    psi = make_bump(0.5, 0.5, 1.0)
    return phi, psi

