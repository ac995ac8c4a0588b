"""The n = 2 rigidity experiment: conjugate-point scans, the Gibbs-weighted
discriminant inequality, and the rescaling scaling law that forces W = 0."""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DegenerateFitError, InvalidParameterError, MinfolError
from .odeflow import (IntegratorConfig, LegBatch, PhaseState, _sample_grid,
                      integrate_legs, stepper_work)
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
    diagnostics: dict = field(default_factory=dict)  # stepper work, failures by type


@dataclass
class ScalingFit:
    N_list: list[int]
    lhs: list[float]
    rhs: list[float]
    slope_lhs: Optional[float]
    slope_rhs: Optional[float]
    crossover_N: Optional[int]
    identically_zero: bool = False


def conjugate_point_scan(w: Potential, u0_grid, p0_grid, t_start: float,
                         t_end: float,
                         cfg: IntegratorConfig = IntegratorConfig(),
                         n_slide: int = 1, map_fn=map) -> ScanReport:
    """For each (u0, p0) launch the flow and a Jacobi field with
    xi(t_start) = 0, xi'(t_start) = 1; record the first later vanishing.
    t_start additionally slides over a coarse grid of n_slide positions.

    The cells of one t_start step together in `integrate_legs`, and
    map_fn maps over the slides; a cell's result depends on neither."""
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

    cells = [(u0, p0) for u0 in u0_grid for p0 in p0_grid]
    y0 = np.reshape([(u0, p0, 0.0, 1.0) for u0, p0 in cells], (-1, 4)).T

    def run(ts):
        try:
            return integrate_legs(w, ts, y0, t_end, cfg, (0.0, 0.0))
        except MinfolError as exc:  # the slide's cells fail, the scan continues
            n = len(cells)
            return LegBatch([[]] * n, [exc] * n, *np.zeros((3, n), dtype=int))

    report = ScanReport(u0_grid=u0_grid, p0_grid=p0_grid, t_starts=t_starts,
                        t_end=t_end)
    batches = list(map_fn(run, t_starts))
    for ts, batch in zip(t_starts, batches):
        for (u0, p0), zeros, exc in zip(cells, batch.zeros, batch.failures):
            later = [float(z) for z in zeros if z > ts + 1e-9]
            if exc is not None:
                report.failures.append((u0, p0, ts, str(exc)))
            elif later:
                report.findings.append(ConjugateFinding(u0=u0, p0=p0, t_start=ts,
                                                        t1=ts, t2=later[0]))
    report.diagnostics = {
        **stepper_work(batches),
        "max_accepted_steps_per_cell": int(max(b.accepted.max() for b in batches)),
        "failures_by_type": dict(sorted(collections.Counter(
            type(exc).__name__ for b in batches for exc in b.failures
            if exc is not None).items())),
    }
    return report


def verify_findings(w: Potential, findings, cfg: IntegratorConfig = IntegratorConfig(),
                    t_end: Optional[float] = None) -> tuple[list[float], dict]:
    """Re-verify every finding's Jacobi zero in one `integrate_legs`
    run, on another step sequence than the scan's: from (u0, p0, 0, 1) at
    t1 = t_start to min(t2 + 0.5, t_end), at halved tolerances, the strip
    step bounded by a 64th of the strip width instead of an eighth. Returns
    |xi(t2)| over the field's sup on the sample grid, one per finding, and
    the run's stepper work; raises the first failed finding's error."""
    t_hi = [min(f.t2 + 0.5, w.t_upper + 10.0 if t_end is None else t_end) for f in findings]
    run_cfg = replace(cfg.halved(), max_step=min(cfg.max_step, (w.t_upper - w.t_lower) / 64))
    y0 = np.reshape([(f.u0, f.p0, 0.0, 1.0) for f in findings], (-1, 4)).T
    run = integrate_legs(w, [f.t1 for f in findings], y0, t_hi, run_cfg, (0.0, 0.0),
                         [np.append(_sample_grid(f.t1, hi), f.t2)
                          for f, hi in zip(findings, t_hi)])
    run.raise_failure()
    return [abs(float(y[2, -1])) / (float(np.max(np.abs(y[2, :-1]))) or 1.0)
            for y in run.samples], stepper_work([run])


def verify_finding(w: Potential, finding: ConjugateFinding,
                   cfg: IntegratorConfig = IntegratorConfig(),
                   t_end: Optional[float] = None) -> float:
    """`verify_findings` of one finding."""
    return verify_findings(w, [finding], cfg, t_end)[0][0]


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
        W, W_u, W_t = w.jet(v, t, (0, 1, 3))
        gibbs = np.exp(-W * e2 / n2)
        g = e2 * W_u
        h = e2 * (2.0 * W + W_t)
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
