"""Reference computations for the benchmark's checks, written apart from minfol.

Nothing here imports minfol. The bump formula, the planar flow with its Jacobi
field, the tensor Gauss-Legendre quadrature and the curvature envelope are
derived again from their definitions, so a check compares minfol against an
independent computation rather than against a copy of minfol's output.

Run as a script to make the planar-scan reference table anew:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "scan_reference.json")

# Planar-scan inputs: the strong bump of configs/scan-conjugate.json,
# V(u, r) = f(u) g(r), on a 5 x 5 (u0, p0) grid launched from t_start = -2.
SCAN_F = (0.0, 1.0, -6.0)   # (center, width, amplitude)
SCAN_G = (2.0, 1.0, 1.0)
SCAN_U0 = [-0.5, -0.25, 0.0, 0.25, 0.5]
SCAN_P0 = [-0.5, -0.25, 0.0, 0.25, 0.5]
SCAN_T_START = -2.0

REF_RTOL = 1e-12
REF_ATOL = 1e-14
# steps per strip width: the step bound that keeps the solver inside the strip
STRIP_STEPS = 400


@dataclass(frozen=True)
class Bump:
    """a * exp(1 - 1/(1 - s^2)) for |s| < 1, s = (x - c)/w, and 0 elsewhere."""

    c: float
    w: float
    a: float

    @property
    def lo(self) -> float:
        return self.c - self.w

    @property
    def hi(self) -> float:
        return self.c + self.w

    def derivs(self, x, order: int = 2):
        """[b, b', ..., b^(order)] at x (order <= 3), exactly 0 off support.

        With E = exp(1 - 1/q), q = 1 - s^2 and y = 1/q, dE/ds = E * k1 with
        k1 = -2 s y^2; each further derivative differentiates E * P(s, y)
        using dy/ds = 2 s y^2.
        """
        x = np.asarray(x, dtype=float)
        s = (x - self.c) / self.w
        inside = np.abs(s) < 1.0
        s_in = np.where(inside, s, 0.0)
        y = 1.0 / (1.0 - s_in * s_in)
        e = np.where(inside, np.exp(1.0 - y), 0.0)
        k1 = -2.0 * s_in * y * y
        dk1 = -2.0 * y * y - 8.0 * s_in * s_in * y ** 3
        ddk1 = -24.0 * s_in * y ** 3 - 48.0 * s_in ** 3 * y ** 4
        p = [np.ones_like(s_in), k1, k1 * k1 + dk1,
             k1 ** 3 + 3.0 * k1 * dk1 + ddk1]
        return [self.a * e * p[k] / self.w ** k for k in range(order + 1)]


@dataclass(frozen=True)
class ProductPotential:
    """W(u, t) = lam * f(u) g(e^t), the log form of V(u, r) = lam f(u) g(r)."""

    f: Bump
    g: Bump
    lam: float = 1.0

    @property
    def u_bound(self) -> float:
        return abs(self.f.c) + self.f.w

    @property
    def t_lower(self) -> float:
        return math.log(self.g.lo)

    @property
    def t_upper(self) -> float:
        return math.log(self.g.hi)

    def log_parts(self, u, t):
        """W, W_u, W_uu and W_t at (u, t)."""
        f0, f1, f2 = self.f.derivs(u, 2)
        r = np.exp(np.asarray(t, dtype=float))
        g0, g1 = self.g.derivs(r, 1)
        lam = self.lam
        return lam * f0 * g0, lam * f1 * g0, lam * f2 * g0, lam * f0 * g1 * r


def scan_potential() -> ProductPotential:
    return ProductPotential(Bump(*SCAN_F), Bump(*SCAN_G))


@dataclass
class PlanarFlow:
    """(u, p, xi, xi') with xi(t_start) = 0, xi'(t_start) = 1, in three legs:
    closed-form free flight before the strip, a step-bounded solve across it,
    closed-form free flight after it."""

    u0: float
    p0: float
    t_start: float
    t_in: float
    t_out: float
    exit: np.ndarray       # state at t_out
    strip: object          # dense solution on [t_in, t_out], or None
    strip_zeros: list

    def state(self, t: float) -> np.ndarray:
        if t <= self.t_in:
            dt = t - self.t_start
            return np.array([self.u0 + self.p0 * dt, self.p0, dt, 1.0])
        if t <= self.t_out:
            return np.asarray(self.strip(t), dtype=float)
        u, p, xi, dxi = self.exit
        dt = t - self.t_out
        return np.array([u + p * dt, p, xi + dxi * dt, dxi])

    def first_conjugate(self, t_end: float):
        """First zero of xi in (t_start, t_end], or None."""
        for z in self.strip_zeros:
            if self.t_start < z <= t_end:
                return z
        _, _, xi, dxi = self.exit
        if dxi != 0.0:
            z = self.t_out - xi / dxi
            if self.t_out < z <= t_end:
                return z
        return None


def planar_flow(pot: ProductPotential, u0: float, p0: float,
                t_start: float) -> PlanarFlow:
    """Flow of u'' = -e^{2t} W_u and its Jacobi field xi'' = -e^{2t} W_uu xi."""
    t_in = max(t_start, pot.t_lower)
    t_out = max(t_in, pot.t_upper)
    dt = t_in - t_start
    entry = np.array([u0 + p0 * dt, p0, dt, 1.0])
    if t_out == t_in:
        return PlanarFlow(u0, p0, t_start, t_in, t_out, entry, None, [])

    def rhs(t, y):
        _, wu, wuu, _ = pot.log_parts(y[0], t)
        e2 = math.exp(2.0 * t)
        return [y[1], -e2 * float(wu), y[3], -e2 * float(wuu) * y[2]]

    def xi_zero(t, y):
        return y[2]

    res = solve_ivp(rhs, (t_in, t_out), entry, method="DOP853",
                    rtol=REF_RTOL, atol=REF_ATOL,
                    max_step=(t_out - t_in) / STRIP_STEPS,
                    dense_output=True, events=xi_zero)
    if not res.success:
        raise RuntimeError("reference flow failed: %s" % res.message)
    zeros = sorted(float(z) for z in res.t_events[0] if z > t_start + 1e-12)
    return PlanarFlow(u0, p0, t_start, t_in, t_out, res.y[:, -1].copy(),
                      res.sol, zeros)


def scan_table() -> dict:
    pot = scan_potential()
    t_end = pot.t_upper + 10.0
    cells = []
    for u0 in SCAN_U0:
        for p0 in SCAN_P0:
            t2 = planar_flow(pot, u0, p0, SCAN_T_START).first_conjugate(t_end)
            cells.append({"u0": u0, "p0": p0, "t2": t2})
    return {"f": list(SCAN_F), "g": list(SCAN_G), "t_start": SCAN_T_START,
            "t_end": t_end, "rtol": REF_RTOL, "atol": REF_ATOL,
            "strip_steps": STRIP_STEPS, "cells": cells}


def load_scan_table() -> dict:
    with open(TABLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def gl_nodes(lo: float, hi: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def rescaled_sides(pot: ProductPotential, Ns, panels: int = 16,
                   order: int = 24) -> dict:
    """Both sides of the rescaled discriminant inequality at each N in Ns:

    LHS_N = 4/N^3 int exp(-W e^{2t}/N^2) (e^{2t} W_u)^2 dv dt,
    RHS_N = 1/N^5 int exp(-W e^{2t}/N^2) [(e^{2t} W)_t]^2 dv dt,
    over the support rectangle, by a tensor Gauss-Legendre rule.
    """
    ub = pot.u_bound
    vu, wu = gl_nodes(-ub, ub, panels, order)
    vt_all, wt_all = gl_nodes(pot.t_lower, pot.t_upper, panels, order)
    sums = {N: [0.0, 0.0] for N in Ns}
    # one t-panel at a time keeps the arrays to len(vu) x order
    for k in range(0, len(vt_all), order):
        vt, wt = vt_all[k:k + order], wt_all[k:k + order]
        w0, w1, _, w_t = pot.log_parts(vu[:, None], vt[None, :])
        e2 = np.exp(2.0 * vt)[None, :]
        grad2 = (e2 * w1) ** 2
        time2 = (e2 * (2.0 * w0 + w_t)) ** 2
        for N, acc in sums.items():
            gibbs = np.exp(-w0 * e2 / float(N) ** 2)
            acc[0] += float(wu @ (gibbs * grad2) @ wt)
            acc[1] += float(wu @ (gibbs * time2) @ wt)
    return {N: (max(4.0 / N ** 3 * lhs, 0.0), max(1.0 / N ** 5 * rhs, 0.0))
            for N, (lhs, rhs) in sums.items()}


def loglog_slope(xs, ys) -> float:
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx0 = lx - lx.mean()
    return float(lx0 @ (ly - ly.mean()) / (lx0 @ lx0))


def sup_second_derivative(b: Bump) -> float:
    """sup over u of b''(u), located on a fine grid and refined."""
    xs = np.linspace(b.lo, b.hi, 20001)
    vals = b.derivs(xs, 2)[2]
    i = int(np.argmax(vals))
    step = xs[1] - xs[0]
    res = minimize_scalar(lambda x: -float(b.derivs(x, 2)[2]),
                          bounds=(xs[max(i - 1, 0)] - step, xs[min(i + 1, len(xs) - 1)] + step),
                          method="bounded", options={"xatol": 1e-14})
    return max(float(vals[i]), -float(res.fun))


def product_envelope(pot: ProductPotential):
    """U(r) = max(0, lam g(r) sup f''): exact for product potentials, g >= 0."""
    peak = pot.lam * sup_second_derivative(pot.f)

    def env(r):
        return np.maximum(0.0, peak * pot.g.derivs(r, 0)[0])
    return env


def condition_A_margin(pot: ProductPotential, n: int, grid_points: int,
                       x0_offset: float = 0.0) -> float:
    """min over the sampled radii of ((n-2)/2)^2/(r + |x0|)^2 - U(r)."""
    rr = np.linspace(pot.g.lo, pot.g.hi, grid_points)
    c = ((n - 2) / 2.0) ** 2
    return float(np.min(c / (rr + abs(x0_offset)) ** 2 - product_envelope(pot)(rr)))


def condition_B_norm(pot: ProductPotential, n: int) -> float:
    """||U||_{n/2} = (|S^{n-1}| int U^{n/2} r^{n-1} dr)^{2/n}."""
    rr, wr = gl_nodes(pot.g.lo, pot.g.hi, 64, 32)
    integral = float(wr @ (product_envelope(pot)(rr) ** (n / 2.0) * rr ** (n - 1)))
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return (area * integral) ** (2.0 / n)


def first_order_leaf(phi: Bump, psi: Bump, u0: float, t0: float, ts):
    """u(ts) for du/dt = phi'(u) psi(t), u(t0) = u0 (the explicit family)."""
    def rhs(t, y):
        return [float(phi.derivs(y[0], 1)[1]) * float(psi.derivs(t, 0)[0])]

    ts = np.asarray(ts, dtype=float)
    res = solve_ivp(rhs, (t0, float(ts[-1])), [u0], method="DOP853",
                    rtol=1e-13, atol=1e-14, max_step=psi.w / 50.0,
                    t_eval=ts)
    if not res.success:
        raise RuntimeError("reference leaf failed: %s" % res.message)
    return res.y[0]


def main() -> int:
    table = scan_table()
    with open(TABLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    hits = sum(c["t2"] is not None for c in table["cells"])
    print("wrote %s: %d cells, %d with a conjugate point"
          % (TABLE_PATH, len(table["cells"]), hits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
