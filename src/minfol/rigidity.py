"""The n = 2 rigidity experiment: conjugate-point scans, the Gibbs-weighted
discriminant inequality, and the rescaling scaling law that forces W = 0."""

from __future__ import annotations

import collections
import math
import threading
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DegenerateFitError, InvalidParameterError, MinfolError
from .odeflow import (IntegratorConfig, LegBatch, LegSolution, _sample_grid, integrate_legs,
                      stepper_work, strip_step)
from .potential import Potential, k_constant
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
    findings: list[ConjugateFinding] = field(default_factory=list)
    failures: list[tuple[float, float, float, str]] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)  # per finding, from its copy
    diagnostics: dict = field(default_factory=dict)  # stepper work, failures by type


@dataclass
class ScalingFit:
    N_list: list[int]
    lhs: list[float]
    rhs: list[float]
    slope_lhs: Optional[float]
    slope_rhs: Optional[float]
    crossover_N: Optional[int]
    sides: RescaledSides = field(repr=False, compare=False)  # every N the fit integrated
    identically_zero: bool = False


# the verification's strip step bound, as a fraction of the strip width: an
# eighth of the scan's, so that a finding is re-stepped on another sequence
_VERIFY_STRIP_STEPS = 64
# the doubling search for a crossover past the listed N stops here
_MAX_SEARCH_N = 4096


def _verify_cfg(w: Potential, cfg: IntegratorConfig) -> IntegratorConfig:
    """A verification run's settings: cfg's tolerances halved, the strip step
    bounded by a _VERIFY_STRIP_STEPS-th of the strip width."""
    return replace(cfg.halved(),
                   max_step=min(cfg.max_step, (w.t_upper - w.t_lower) / _VERIFY_STRIP_STEPS))


def _residual(run: LegSolution, f: ConjugateFinding, t_end: float) -> float:
    """|xi(t2)| over the sup of |xi| on the sample grid of [t1, min(t2 + 0.5,
    t_end)], read from a verification run of the finding's cell."""
    y = run(np.append(_sample_grid(f.t1, min(f.t2 + 0.5, t_end)), f.t2))
    return abs(float(y[2, -1])) / (float(np.max(np.abs(y[2, :-1]))) or 1.0)


def conjugate_point_scan(w: Potential, u0_grid, p0_grid, t_start: float,
                         t_end: float,
                         cfg: IntegratorConfig = IntegratorConfig(),
                         n_slide: int = 1, map_fn=map) -> ScanReport:
    """For each (u0, p0) launch the flow and a Jacobi field with
    xi(t_start) = 0, xi'(t_start) = 1; record the first later vanishing.
    t_start additionally slides over a coarse grid of n_slide positions.

    The cells of one t_start step together in one `integrate_legs` batch,
    each beside its verification copy: the same launch run to t_end at
    `verify_findings`'s settings, from which a finding's residual is read
    (the bits `verify_findings` gives). A failed copy of a finding raises its
    error; the copy of a cell without one only adds its work. map_fn maps
    over the slides; a cell's result depends on neither."""
    u0_grid = [float(x) for x in u0_grid]
    p0_grid = [float(x) for x in p0_grid]
    if not math.isfinite(t_start):
        raise InvalidParameterError("t_start must be finite, got %r" % (t_start,))
    for name, grid in (("u0", u0_grid), ("p0", p0_grid)):
        if not all(map(math.isfinite, grid)):
            raise InvalidParameterError("%s grid values must be finite, got %r" % (name, grid))
    if not t_start < t_end:
        raise InvalidParameterError("need t_start < t_end")
    if not u0_grid or not p0_grid:
        raise InvalidParameterError("scan grids must be nonempty")
    if n_slide < 1:
        raise InvalidParameterError("n_slide must be >= 1")
    if n_slide == 1:
        t_starts = [t_start]
    elif not math.isfinite(t_end):
        raise InvalidParameterError("sliding t_start needs a finite t_end, got %r" % (t_end,))
    else:
        t_starts = list(np.linspace(t_start, 0.5 * (t_start + t_end), n_slide))

    cells = [(u0, p0) for u0 in u0_grid for p0 in p0_grid]
    n = len(cells)
    y0 = np.reshape([(u0, p0, 0.0, 1.0) for u0, p0 in cells] * 2, (-1, 4)).T
    cfgs = [cfg] * n + [_verify_cfg(w, cfg)] * n

    def run(ts):
        try:
            return integrate_legs(w, ts, y0, t_end, cfgs, (0.0, 0.0), [False] * n + [True] * n)
        except MinfolError as exc:  # the slide's cells fail, the scan continues
            return LegBatch([[]] * 2 * n, [exc] * 2 * n, *np.zeros((3, 2 * n), dtype=int),
                            [None] * 2 * n)

    report = ScanReport(u0_grid=u0_grid, p0_grid=p0_grid, t_starts=t_starts)
    batches = list(map_fn(run, t_starts))
    scans, copies = [b[:n] for b in batches], [b[n:] for b in batches]
    checks = []   # per finding, its copy's run and failure
    for ts, scan, copy in zip(t_starts, scans, copies):
        for c, ((u0, p0), zeros, exc) in enumerate(zip(cells, scan.zeros, scan.failures)):
            later = [float(z) for z in zeros if z > ts + 1e-9]
            if exc is not None:
                report.failures.append((u0, p0, ts, str(exc)))
            elif later:
                report.findings.append(ConjugateFinding(u0=u0, p0=p0, t_start=ts,
                                                        t1=ts, t2=later[0]))
                checks.append((copy.runs[c], copy.failures[c]))
    for _, exc in checks:
        if exc is not None:
            raise exc
    report.residuals = [_residual(sol, f, t_end) for f, (sol, _) in zip(report.findings, checks)]
    report.diagnostics = {
        **stepper_work(scans),
        "max_accepted_steps_per_cell": int(max(b.accepted.max() for b in scans)),
        "failures_by_type": dict(sorted(collections.Counter(
            type(exc).__name__ for b in scans for exc in b.failures
            if exc is not None).items())),
        "verification": stepper_work(copies),
    }
    return report


def verify_findings(w: Potential, findings, cfg: IntegratorConfig = IntegratorConfig(),
                    t_end: Optional[float] = None) -> tuple[list[float], dict]:
    """Re-verify every finding's Jacobi zero in one `integrate_legs`
    run, on another step sequence than the scan's: from (u0, p0, 0, 1) at
    t1 = t_start across the strip to t_end (default 10 past it), at halved
    tolerances, the strip step bounded by a 64th of the strip width instead
    of an eighth. Returns `_residual` per finding and the run's stepper work;
    raises the first failed finding's error. A scan's residuals are these
    bits, read from its verification copies."""
    t_end = w.t_upper + 10.0 if t_end is None else t_end
    for f in findings:
        if not f.t1 < f.t2 <= t_end:
            raise InvalidParameterError("a finding's t2 must lie in (t1, t_end] = (%r, %r], "
                                        "got %r" % (f.t1, t_end, f.t2))
    y0 = np.reshape([(f.u0, f.p0, 0.0, 1.0) for f in findings], (-1, 4)).T
    run = integrate_legs(w, [f.t1 for f in findings], y0, t_end, _verify_cfg(w, cfg),
                         (0.0, 0.0), dense=True)
    run.raise_failure()
    return [_residual(sol, f, t_end) for sol, f in zip(run.runs, findings)], stepper_work([run])


def verify_finding(w: Potential, finding: ConjugateFinding,
                   cfg: IntegratorConfig = IntegratorConfig(),
                   t_end: Optional[float] = None) -> float:
    """`verify_findings` of one finding."""
    return verify_findings(w, [finding], cfg, t_end)[0][0]


def strip_step_over_zero_spacing(w: Potential, cfg: IntegratorConfig) -> float:
    """The scan's strip step bound over pi / (K e^{t_upper}), the least
    spacing of two zeros of xi by Sturm comparison (K by `k_constant`); 0
    when K = 0. Below 1 no strip step can hold two zeros."""
    K = k_constant(w)
    return strip_step(w, cfg) * K * math.exp(w.t_upper) / math.pi if K else 0.0


_WORKSPACES = threading.local()


def _sides_workspace(order: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two (order, order) arrays for the integrands of
    `RescaledSides` (the second holds the Gibbs factor until the RHS
    integrand overwrites it), allocated on first use and kept for the life
    of the thread, so no integrand call allocates an order-sized array.
    Each call overwrites the arrays the one before returned: this relies on
    `quad_2d` reducing every returned component before its next call."""
    cache = vars(_WORKSPACES)
    if order not in cache:
        cache[order] = tuple(np.empty((order, order)) for _ in range(2))
    return cache[order]


class RescaledSides:
    """The two sides of the discriminant inequality for the rescaled family
    W_N(u, t) = W(Nu, t)/N^2 of one potential, for any N >= 1:

    LHS_N = 4/N^3 int e^{-W e^{2t}/N^2} (e^{2t} W'_u)^2 dv dt,
    RHS_N = 1/N^5 int e^{-W e^{2t}/N^2} [(e^{2t} W)_t]^2 dv dt,

    both over the support strip (the common sqrt(2 pi) p-factor is omitted).
    On the tensor rule N enters only through the Gibbs factor, so the N-free
    arrays -W e^{2t}, e^{2t} W_u and e^{2t} (2W + W_t) are computed once per
    quadrature order reached and kept while the evaluator lives; each N's
    sides are integrated once. The Gibbs factor and the integrands are
    written into `_sides_workspace`, which every evaluator of the thread
    shares and which outlives the fit. The operations run in the order of
    exp(a / N^2) * g * g, so every bit is that of fresh arrays.

    Half grid: the sides are integrals over u, which a translation in u does
    not change, so the evaluator integrates the potential's u-centred
    translate (`centred_in_u`) over the box |u| < u_bound of its u-factor's
    support. The rule's u-nodes on that box mirror exactly (v[::-1] == -v)
    and the bump argument (u - 0)/w negates exactly, so W and W_t are even
    and W_u odd to the last bit. The jet, the N-free arrays and each N's
    integrands are therefore computed on the first (order + 1) // 2 rows, and
    the other rows are copied from them, reversed, before `quad_2d` reduces
    the array: the reduced array is the one a full-grid pass writes."""

    def __init__(self, w: Potential, quad_tol: float = 1e-12):
        self.w, self.quad_tol = w.centred_in_u(), quad_tol
        self._fields = {}   # quadrature order -> (a, g, h) on the rows computed
        self._sides = {}    # N -> (LHS_N, RHS_N)

    def _fields_at(self, v, t):
        """The N-free arrays of the order of the column v and the row t, on
        its first (order + 1) // 2 rows."""
        order = len(v)
        if order not in self._fields:
            e2 = np.exp(2.0 * t)
            W, W_u, W_t = self.w.jet(v[:(order + 1) // 2], t, (0, 1, 3))
            self._fields[order] = (-W * e2, e2 * W_u, e2 * (2.0 * W + W_t))
        return self._fields[order]

    def __call__(self, N: int) -> tuple[float, float]:
        if N < 1:
            raise InvalidParameterError("N must be >= 1")
        if N not in self._sides:
            n2 = float(N) ** 2

            def sides_f(v, t):   # one order's nodes, as a column v and a row t
                a, g, h = self._fields_at(v, t)
                rows, order = len(a), len(v)
                lhs, rhs = _sides_workspace(order)
                top_lhs, top_rhs = lhs[:rows], rhs[:rows]
                gibbs = np.exp(np.divide(a, n2, out=top_rhs), out=top_rhs)
                np.multiply(np.multiply(gibbs, g, out=top_lhs), g, out=top_lhs)
                np.multiply(np.multiply(gibbs, h, out=top_rhs), h, out=top_rhs)
                lhs[rows:] = lhs[order - rows - 1::-1]   # the mirrored rows, last first
                rhs[rows:] = rhs[order - rows - 1::-1]
                return lhs, rhs

            w = self.w
            lhs, rhs = quad_2d(sides_f, -w.u_bound, w.u_bound, w.t_lower, w.t_upper,
                               self.quad_tol)
            self._sides[N] = (max(4.0 / N**3 * lhs, 0.0), max(1.0 / N**5 * rhs, 0.0))
        return self._sides[N]

    def discriminant(self) -> tuple[float, float, bool]:
        """The N = 1 inequality with the Gaussian p-integral sqrt(2 pi)
        retained on both sides; holds = True is necessary for all solutions
        to be conjugate-point free."""
        lhs1, rhs1 = self(1)
        s = math.sqrt(2.0 * math.pi)
        return s * lhs1, s * rhs1, bool(s * lhs1 <= s * rhs1)

    @property
    def diagnostics(self) -> dict:
        """Distinct N integrated, integrand passes (one per order reached)
        and the highest order reached."""
        return {"quadratures": len(self._sides),
                "integrand_evaluations": len(self._fields),
                "highest_order": max(self._fields, default=0)}


def rescaled_inequality_sides(w: Potential, N: int,
                              quad_tol: float = 1e-12) -> tuple[float, float]:
    """`RescaledSides` of w at one N."""
    return RescaledSides(w, quad_tol)(N)


def discriminant_inequality_check(w: Potential, quad_tol: float = 1e-12
                                  ) -> tuple[float, float, bool]:
    """`RescaledSides.discriminant` of w."""
    return RescaledSides(w, quad_tol).discriminant()


def scaling_exponent_fit(w: Potential, N_list,
                         quad_tol: float = 1e-12) -> ScalingFit:
    """Log-log slopes of both sides against N, and the first N >= 1 at which
    the inequality fails.

    Every integer below the first failing listed N is tried. When no listed
    N fails, N doubles past the list until the inequality fails, and the
    crossover is bisected between the last holding and the first failing N.
    A search that reaches _MAX_SEARCH_N without a failure gives None."""
    if not all(float(N).is_integer() for N in N_list):
        raise InvalidParameterError("N values must be integers, got %r" % (list(N_list),))
    N_list = [int(N) for N in N_list]
    if len(N_list) < 3 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise InvalidParameterError("need >= 3 strictly increasing N values")
    sides = RescaledSides(w, quad_tol)
    lhs = [sides(N)[0] for N in N_list]
    rhs = [sides(N)[1] for N in N_list]
    if all(l == 0 and r == 0 for l, r in zip(lhs, rhs)):
        return ScalingFit(N_list=N_list, lhs=lhs, rhs=rhs, slope_lhs=None,
                          slope_rhs=None, crossover_N=None, identically_zero=True,
                          sides=sides)
    if any(l == 0 or r == 0 for l, r in zip(lhs, rhs)):
        raise DegenerateFitError("a side vanished for a nonzero potential")
    logN = np.log(np.asarray(N_list, float))
    slope_lhs = float(np.polyfit(logN, np.log(lhs), 1)[0])
    slope_rhs = float(np.polyfit(logN, np.log(rhs), 1)[0])

    def fails(N):
        lhs_N, rhs_N = sides(N)
        return lhs_N > rhs_N

    crossover = next((N for N in N_list if fails(N)), None)
    if crossover is not None:
        crossover = next(N for N in range(1, crossover + 1) if fails(N))
    else:
        holds = max(N_list)
        while holds < _MAX_SEARCH_N and not fails(2 * holds):
            holds *= 2
        if holds < _MAX_SEARCH_N:
            N = 2 * holds
            while N - holds > 1:
                mid = (holds + N) // 2
                holds, N = (holds, mid) if fails(mid) else (mid, N)
            crossover = N
    return ScalingFit(N_list=N_list, lhs=lhs, rhs=rhs, slope_lhs=slope_lhs,
                      slope_rhs=slope_rhs, crossover_N=crossover, sides=sides)
