"""The n = 2 rigidity experiment: conjugate-point scans, the Gibbs-weighted
discriminant inequality, and the rescaling scaling law that forces W = 0."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (AccuracyError, DegenerateFitError, InvalidParameterError,
                     MinfolError)
from .jacobi import integrate_jacobi
from .odeflow import IntegratorConfig, PhaseState, integrate_hamiltonian
from .potential import Potential


@dataclass(frozen=True)
class ConjugateFinding:
    u0: float
    p0: float
    t_start: float
    t1: float
    t2: float


@dataclass
class ScanReport:
    u0_grid: list[float]
    p0_grid: list[float]
    t_starts: list[float]
    t_end: float
    findings: list[ConjugateFinding] = field(default_factory=list)
    failures: list[tuple[float, float, float, str]] = field(default_factory=list)


@dataclass
class ScalingFit:
    N_list: list[int]
    lhs: list[float]
    rhs: list[float]
    slope_lhs: Optional[float]
    slope_rhs: Optional[float]
    crossover_N: Optional[int]
    identically_zero: bool = False


def _first_conjugate_time(w, u0, p0, t_start, t_end, cfg):
    s0 = PhaseState(u=u0, p=p0, t=t_start)
    run_cfg = IntegratorConfig(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                               max_step=cfg.max_step, t_range=(t_start, t_end),
                               event_tol=cfg.event_tol)
    traj = integrate_hamiltonian(w, s0, run_cfg)
    fld = integrate_jacobi(traj, 0.0, 1.0, mode="log-form", cfg=run_cfg,
                           t_init=t_start)
    zeros = [z for z in fld.zeros if z > t_start + 1e-9]
    return zeros[0] if zeros else None


def conjugate_point_scan(w: Potential, u0_grid, p0_grid, t_start: float,
                         t_end: float,
                         cfg: IntegratorConfig = IntegratorConfig(),
                         n_slide: int = 1, map_fn=map) -> ScanReport:
    """For each (u0, p0) launch the flow and a Jacobi field with
    xi(t_start) = 0, xi'(t_start) = 1; record the first later vanishing.
    t_start additionally slides over a coarse grid of n_slide positions."""
    u0_grid = [float(x) for x in u0_grid]
    p0_grid = [float(x) for x in p0_grid]
    if t_start >= t_end:
        raise InvalidParameterError("need t_start < t_end")
    if not u0_grid or not p0_grid:
        raise InvalidParameterError("scan grids must be nonempty")
    if n_slide < 1:
        raise InvalidParameterError("n_slide must be >= 1")
    if n_slide == 1:
        t_starts = [t_start]
    else:
        t_starts = list(np.linspace(t_start, 0.5 * (t_start + t_end), n_slide))

    cells = [(u0, p0, ts) for ts in t_starts for u0 in u0_grid for p0 in p0_grid]

    def run(cell):
        u0, p0, ts = cell
        try:
            t2 = _first_conjugate_time(w, u0, p0, ts, t_end, cfg)
        except MinfolError as exc:  # failures recorded, scan continues
            return ("error", cell, str(exc))
        if t2 is None:
            return None
        return ("hit", cell, t2)

    report = ScanReport(u0_grid=u0_grid, p0_grid=p0_grid, t_starts=t_starts,
                        t_end=t_end)
    for res in map_fn(run, cells):
        if res is None:
            continue
        tag, (u0, p0, ts), payload = res
        if tag == "error":
            report.failures.append((u0, p0, ts, payload))
        else:
            report.findings.append(ConjugateFinding(u0=u0, p0=p0, t_start=ts,
                                                    t1=ts, t2=payload))
    return report


def verify_finding(w: Potential, finding: ConjugateFinding,
                   cfg: IntegratorConfig = IntegratorConfig(),
                   t_end: Optional[float] = None) -> float:
    """Re-verify the finding's Jacobi zero: rebuild the trajectory over the
    same span the scan used (the flow through a strong potential is highly
    sensitive, so the span must match), then re-integrate the linearized
    field at halved tolerances; returns |xi(t2)| normalized by the field's
    sup on [t1, t2 + 0.5]."""
    t_end = t_end if t_end is not None else w.t_upper + 10.0
    s0 = PhaseState(u=finding.u0, p=finding.p0, t=finding.t_start)
    run_cfg = IntegratorConfig(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                               max_step=cfg.max_step,
                               t_range=(finding.t_start, t_end),
                               event_tol=cfg.event_tol)
    traj = integrate_hamiltonian(w, s0, run_cfg)
    fld = integrate_jacobi(traj, 0.0, 1.0, mode="log-form",
                           cfg=run_cfg.halved(), t_init=finding.t1,
                           t_end=min(finding.t2 + 0.5, t_end))
    scale = float(np.max(np.abs(fld.xi))) or 1.0
    return abs(float(fld.value(finding.t2))) / scale


def gibbs_density(w: Potential, s: PhaseState) -> float:
    """alpha = e^{-H} = exp(-p^2/2 - e^{2t} W(u, t))."""
    h = 0.5 * s.p * s.p + math.exp(2.0 * s.t) * float(w.w(s.u, s.t))
    return math.exp(-h)


def _gl_tensor(f, u_lo, u_hi, t_lo, t_hi, order):
    x, wx = np.polynomial.legendre.leggauss(order)
    vu = 0.5 * (u_hi - u_lo) * x + 0.5 * (u_hi + u_lo)
    vt = 0.5 * (t_hi - t_lo) * x + 0.5 * (t_hi + t_lo)
    vals = f(vu[:, None], vt[None, :])
    scale = 0.25 * (u_hi - u_lo) * (t_hi - t_lo)
    return scale * float(wx @ vals @ wx)


def _double_quad(f, u_lo, u_hi, t_lo, t_hi, tol, rel_tol=1e-9):
    """Order-adaptive tensor Gauss-Legendre quadrature of the vectorized
    integrand f(v, t) over the support rectangle."""
    prev = _gl_tensor(f, u_lo, u_hi, t_lo, t_hi, 24)
    for order in (48, 96, 192, 384):
        cur = _gl_tensor(f, u_lo, u_hi, t_lo, t_hi, order)
        if abs(cur - prev) <= max(tol, rel_tol * abs(cur)):
            return cur
        prev = cur
    raise AccuracyError("2-D quadrature did not converge (last delta=%g)"
                        % abs(cur - prev), estimate=cur)


def rescaled_inequality_sides(w: Potential, N: int,
                              quad_tol: float = 1e-12) -> tuple[float, float]:
    """The two sides of the discriminant inequality for the rescaled family:

    LHS_N = 4/N^3 int e^{-W e^{2t}/N^2} (e^{2t} W'_u)^2 dv dt,
    RHS_N = 1/N^5 int e^{-W e^{2t}/N^2} [(e^{2t} W)_t]^2 dv dt,

    both over the support strip (the common sqrt(2 pi) p-factor is omitted)."""
    if N < 1:
        raise InvalidParameterError("N must be >= 1")
    n2 = float(N) ** 2
    U, t_lo, t_hi = w.u_bound, w.t_lower, w.t_upper

    def lhs_f(v, t):
        e2 = np.exp(2.0 * t)
        g = e2 * w.dw_du(v, t)
        return np.exp(-w.w(v, t) * e2 / n2) * g * g

    def rhs_f(v, t):
        e2 = np.exp(2.0 * t)
        g = e2 * (2.0 * w.w(v, t) + w.dw_dt(v, t))
        return np.exp(-w.w(v, t) * e2 / n2) * g * g

    lhs = 4.0 / N**3 * _double_quad(lhs_f, -U, U, t_lo, t_hi, quad_tol)
    rhs = 1.0 / N**5 * _double_quad(rhs_f, -U, U, t_lo, t_hi, quad_tol)
    return max(lhs, 0.0), max(rhs, 0.0)


def discriminant_inequality_check(w: Potential, quad_tol: float = 1e-12
                                  ) -> tuple[float, float, bool]:
    """The N = 1 inequality with the Gaussian p-integral sqrt(2 pi) retained
    on both sides; holds = True is necessary for all solutions to be
    conjugate-point free."""
    lhs1, rhs1 = rescaled_inequality_sides(w, 1, quad_tol)
    s = math.sqrt(2.0 * math.pi)
    return s * lhs1, s * rhs1, bool(s * lhs1 <= s * rhs1)


def scaling_exponent_fit(w: Potential, N_list,
                         quad_tol: float = 1e-12,
                         max_search_N: int = 4096) -> ScalingFit:
    """Log-log slopes of both sides against N, and the first N at which the
    inequality fails (searching past the listed N by doubling if needed)."""
    N_list = [int(N) for N in N_list]
    if len(N_list) < 3 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise InvalidParameterError("need >= 3 strictly increasing N values")
    sides = {N: rescaled_inequality_sides(w, N, quad_tol) for N in N_list}
    lhs = [sides[N][0] for N in N_list]
    rhs = [sides[N][1] for N in N_list]
    if all(l == 0 and r == 0 for l, r in zip(lhs, rhs)):
        return ScalingFit(N_list=N_list, lhs=lhs, rhs=rhs, slope_lhs=None,
                          slope_rhs=None, crossover_N=None, identically_zero=True)
    if any(l == 0 or r == 0 for l, r in zip(lhs, rhs)):
        raise DegenerateFitError("a side vanished for a nonzero potential")
    logN = np.log(np.asarray(N_list, float))
    slope_lhs = float(np.polyfit(logN, np.log(lhs), 1)[0])
    slope_rhs = float(np.polyfit(logN, np.log(rhs), 1)[0])

    crossover = None
    for N, (l, r) in sorted(sides.items()):
        if l > r:
            crossover = N
            break
    if crossover is None:
        N = max(N_list)
        while N < max_search_N:
            N *= 2
            l, r = rescaled_inequality_sides(w, N, quad_tol)
            if l > r:
                crossover = N
                break
    return ScalingFit(N_list=N_list, lhs=lhs, rhs=rhs, slope_lhs=slope_lhs,
                      slope_rhs=slope_rhs, crossover_N=crossover)
