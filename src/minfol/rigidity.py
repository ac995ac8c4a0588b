"""The n = 2 rigidity experiment: conjugate-point scans, the Gibbs-weighted
discriminant inequality, and the rescaling scaling law that forces W = 0."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DegenerateFitError, InvalidParameterError, MinfolError
from .jacobi import integrate_jacobi
from .odeflow import (IntegratorConfig, PhaseState, integrate_hamiltonian,
                      integrate_legs)
from .potential import Potential
from .quadrature import quad_2d


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
    """First zero after t_start of the Jacobi field with xi(t_start) = 0,
    xi'(t_start) = 1, from one joint run of the flow and the field."""
    run = integrate_legs(w, t_start, (u0, p0, 0.0, 1.0), t_end, cfg, (0.0, 0.0))
    zeros = [z for z in run.zeros if z > t_start + 1e-9]
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
    """Re-verify the finding's Jacobi zero with a step sequence of its own:
    the flow and the linearized field are integrated again at halved
    tolerances, with the strip step bounded by a 64th of the strip width
    instead of the scan's eighth; returns |xi(t2)| normalized by the field's
    sup on [t1, t2 + 0.5]."""
    t_end = t_end if t_end is not None else w.t_upper + 10.0
    s0 = PhaseState(u=finding.u0, p=finding.p0, t=finding.t_start)
    run_cfg = replace(cfg.halved(), t_range=(finding.t_start, t_end),
                      max_step=min(cfg.max_step, (w.t_upper - w.t_lower) / 64))
    traj = integrate_hamiltonian(w, s0, run_cfg)
    fld = integrate_jacobi(traj, 0.0, 1.0, mode="log-form", cfg=run_cfg,
                           t_init=finding.t1, t_end=min(finding.t2 + 0.5, t_end))
    scale = float(np.max(np.abs(fld.xi))) or 1.0
    return abs(float(fld.value(finding.t2))) / scale


def gibbs_density(w: Potential, s: PhaseState) -> float:
    """alpha = e^{-H} = exp(-p^2/2 - e^{2t} W(u, t))."""
    h = 0.5 * s.p * s.p + math.exp(2.0 * s.t) * float(w.w(s.u, s.t))
    return math.exp(-h)


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

    def sides_f(v, t):
        e2 = np.exp(2.0 * t)
        W = w.w(v, t)
        gibbs = np.exp(-W * e2 / n2)
        g = e2 * w.dw_du(v, t)
        h = e2 * (2.0 * W + w.dw_dt(v, t))
        return gibbs * g * g, gibbs * h * h

    lhs, rhs = quad_2d(sides_f, -U, U, t_lo, t_hi, quad_tol)
    return max(4.0 / N**3 * lhs, 0.0), max(1.0 / N**5 * rhs, 0.0)


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
    """Log-log slopes of both sides against N, and the first N >= 1 at which
    the inequality fails.

    Every integer below the first failing listed N is tried. When no listed
    N fails, N doubles past the list until the inequality fails, and the
    crossover is bisected between the last holding and the first failing N."""
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

    def fails(N):
        if N not in sides:
            sides[N] = rescaled_inequality_sides(w, N, quad_tol)
        return sides[N][0] > sides[N][1]

    crossover = next((N for N in N_list if fails(N)), None)
    if crossover is not None:
        crossover = next(N for N in range(1, crossover + 1) if fails(N))
    else:
        holds = max(N_list)
        while holds < max_search_N and not fails(2 * holds):
            holds *= 2
        if holds < max_search_N:
            N = 2 * holds
            while N - holds > 1:
                mid = (holds + N) // 2
                holds, N = (holds, mid) if fails(mid) else (mid, N)
            crossover = N
    return ScalingFit(N_list=N_list, lhs=lhs, rhs=rhs, slope_lhs=slope_lhs,
                      slope_rhs=slope_rhs, crossover_N=crossover)
