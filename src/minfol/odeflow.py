"""Phase flow of the radial equation in log time, in three legs.

Everything is integrated in t = ln r, so the (n-1)/r coordinate singularity
never appears: the second-order equation becomes
    u'' + (n-2) u' + e^{2t} W'_u(u, t) = 0,
which for n = 2 is the Hamiltonian system (u' = p, p' = -e^{2t} W'_u).

The force vanishes outside the support strip t_lower < t < t_upper, and an
adaptive solver can step straight over a strip it has not yet sampled. A run
is therefore split into three legs, clipped to its span in either direction:

- free flight before and after the strip, in closed form: with damping
  d = n - 2 the momentum is p_in e^{-d s} and u its integral, so for n = 2
  u is linear in t;
- one DOP853 solve across the strip, its step bounded by an eighth of the
  strip width.

A run may carry the linearization (xi, xi') of the flow along,
xi'' + d_xi xi' + e^{2t} W''_uu(u, t) xi = 0, which follows the same free law
outside the strip. Its zeros on the strip come from a sign-change event
checked at every accepted step; a zero after the strip is found in closed
form.

Every group of flows steps together in `_dop853_batch`: scipy's DOP853 rules
applied per cell to a (state, cell) array, the right-hand side (one potential
jet) evaluated once per stage on the active cells, and each step's stages in
one buffer, summed in stage order so that no cell's bits depend on another.
It runs the joint runs of `integrate_legs_batch` (the cells of a
conjugate-point scan, or all of its findings when they are checked) and the
first-order flows of `foliation.example_446_check`; scipy's own solver
serves only the single dense runs of `integrate_legs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from .errors import IntegrationFailureError, InsufficientRangeError, InvalidParameterError
from .potential import Potential


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float = math.inf
    t_range: Optional[tuple[float, float]] = None
    event_tol: float = 1e-12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.event_tol <= 0:
            raise InvalidParameterError("integrator tolerances must be positive")
        if self.t_range is not None and self.t_range[0] == self.t_range[1]:
            raise InvalidParameterError("degenerate t_range")

    def halved(self) -> "IntegratorConfig":
        return replace(self, rel_tol=self.rel_tol / 2, abs_tol=self.abs_tol / 2)


@dataclass(frozen=True)
class PhaseState:
    u: float
    p: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.p) and math.isfinite(self.t)):
            raise InvalidParameterError("phase state must be finite")


@dataclass(frozen=True)
class SupportEvent:
    t: float
    kind: str  # "enter" | "exit"


# dense sample spacing of the exported sample grids
_SCAN_DX = 1e-2
# strip-leg step bound: this fraction of the strip width. An error-controlled
# step cannot span half an oscillation of xi, and for every catalog potential
# width/8 < pi / (K e^{t_upper}), so by Sturm comparison no step holds two zeros.
_STRIP_STEPS = 8
_EPS = np.finfo(float).eps
# DOP853's coefficients as (stage, 1, 1) columns against a (stage, state, cell)
# buffer: views of scipy's tables, each row cut to the stages it reads
_NS = DOP853.n_stages
_A = [DOP853.A[s, :s, None, None] for s in range(1, _NS)]
_A_EXTRA = [row[:_NS + 1 + j, None, None] for j, row in enumerate(DOP853.A_EXTRA)]
_B, _E5, _E3 = (c[:, None, None] for c in (DOP853.B, DOP853.E5, DOP853.E3))
_D = [row[:, None, None] for row in DOP853.D]


def _free(y, s, damping):
    """Free motion x'' + d x' = 0 over log time s (a number or an array) of
    each (x, x') pair in y; damping holds one d per pair."""
    out = []
    for k, d in enumerate(damping):
        x, dx = y[2 * k], y[2 * k + 1]
        if d == 0.0:
            out += [x + dx * s, dx + 0.0 * s]
        else:
            out += [x - dx * np.expm1(-d * s) / d, dx * np.exp(-d * s)]
    return np.array(out)


def _free_zero(x, dx, d, span):
    """The s in (0, span] (span may be negative) at which the free motion from
    (x, dx) with damping d vanishes, or None."""
    if dx == 0.0 or span == 0.0:
        return None
    s = -x / dx
    if d != 0.0:
        if d * s >= 1.0:
            return None
        s = -math.log1p(-d * s) / d
    return s if 0.0 < s / span <= 1.0 else None


@dataclass
class LegSolution:
    """Dense solution of one three-leg run, callable on a time or an array of
    times like scipy's OdeSolution. It is the free motion from (t0, y0) up to
    t_in, the strip solve on [t_in, t_out] and the free motion from
    (t_out, y_out) beyond. `ts` holds the strip leg's step times."""

    t0: float
    y0: np.ndarray
    direction: float             # +1 forward in t, -1 backward
    t_in: float
    t_out: float
    y_out: np.ndarray
    strip: object                # scipy OdeSolution on the strip leg, or None
    damping: tuple               # one damping per (x, x') pair
    ts: np.ndarray
    zeros: list[float] = field(default_factory=list)          # of xi
    events: list[SupportEvent] = field(default_factory=list)  # of the flow

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        tt = t.reshape(-1)
        before = self.direction * (tt - self.t_in) <= 0.0
        after = ~before & (self.direction * (tt - self.t_out) >= 0.0)
        mid = ~(before | after)
        out = np.empty((len(self.y0), tt.size))
        out[:, before] = _free(self.y0, tt[before] - self.t0, self.damping)
        out[:, after] = _free(self.y_out, tt[after] - self.t_out, self.damping)
        if np.any(mid):
            out[:, mid] = self.strip(tt[mid])
        return out.reshape((len(self.y0),) + t.shape)


def _joint_zeros(t0, y0, t_in, t_out, y_out, t_end, d_xi, strip_zeros, tol):
    """Zeros of xi over a joint run, sorted and closer than tol merged: t0 if
    xi starts at 0, the closed-form zero of each free leg, and the strip
    leg's zeros."""
    zeros = [t0] if y0[2] == 0.0 else []
    for t_a, y_a, t_b in ((t0, y0, t_in), (t_out, y_out, t_end)):
        s = _free_zero(y_a[2], y_a[3], d_xi, t_b - t_a)
        if s is not None:
            zeros.append(t_a + s)
    zeros = sorted(zeros + strip_zeros)
    return [z for i, z in enumerate(zeros) if i == 0 or z - zeros[i - 1] > tol]


def _joint_rhs(w: Potential, d_u: float, d_xi: float, exp):
    """(u, p, xi, xi')' of the flow and its linearization, with one potential
    jet a call; exp is math.exp for a scalar solve, np.exp for a batch."""
    def rhs(t, y):
        e2 = exp(2.0 * t)
        du, duu = w.jet(y[0], t, (1, 2))
        out = np.empty_like(y)
        out[0], out[1] = y[1], -d_u * y[1] - e2 * du
        out[2], out[3] = y[3], -d_xi * y[3] - e2 * duu * y[2]
        return out
    return rhs


def integrate_legs(w: Potential, t0: float, y0, t_end: float,
                   cfg: IntegratorConfig, damping) -> LegSolution:
    """One three-leg run from y0 at t0 to t_end, in either direction.

    y0 is the flow state (u, p), with damping = (d,), or the joint state
    (u, p, xi, xi'), with damping = (d, d_xi). A flow run records where it
    enters and leaves the support box; a joint run records the zeros of xi.
    """
    y0 = np.asarray(y0, dtype=float)
    joint = len(y0) == 4
    direction = 1.0 if t_end >= t0 else -1.0
    lo, hi = min(t0, t_end), max(t0, t_end)
    a = min(max(w.t_lower, lo), hi)
    b = min(max(w.t_upper, lo), hi)
    t_in, t_out = (a, b) if direction > 0 else (b, a)
    y_in = _free(y0, t_in - t0, damping)
    d_u = damping[0]

    if joint:
        d_xi = damping[1]
        rhs = _joint_rhs(w, d_u, d_xi, math.exp)

        def event(t, y):
            return y[2]
    else:
        def rhs(t, y):
            return (y[1], -d_u * y[1] - math.exp(2.0 * t) * float(w.dw_du(y[0], t)))

        def event(t, y):
            return abs(y[0]) - w.u_bound

    strip, ts, y_out, hits = None, np.array([t_in]), y_in, ()
    if t_in != t_out:
        res = solve_ivp(rhs, (t_in, t_out), y_in, method="DOP853",
                        dense_output=True, rtol=cfg.rel_tol, atol=cfg.abs_tol,
                        max_step=min(cfg.max_step,
                                     (w.t_upper - w.t_lower) / _STRIP_STEPS),
                        events=event)
        if not res.success:
            last = PhaseState(u=float(res.y[0, -1]), p=float(res.y[1, -1]),
                              t=float(res.t[-1]))
            raise IntegrationFailureError("integration failed: %s" % res.message,
                                          last_state=last)
        strip, ts, y_out = res.sol, res.t, res.y[:, -1]
        hits = zip(res.t_events[0], res.y_events[0])
    sol = LegSolution(t0=t0, y0=y0, direction=direction, t_in=t_in, t_out=t_out,
                      y_out=y_out, strip=strip, damping=tuple(damping), ts=ts)

    if joint:
        sol.zeros = _joint_zeros(t0, y0, t_in, t_out, y_out, t_end, d_xi,
                                 [float(t) for t, _ in hits], cfg.event_tol)
    else:
        events = [SupportEvent(t=float(t), kind="enter" if y[0] * y[1] < 0 else "exit")
                  for t, y in hits]
        for t_b, kind in ((w.t_lower, "enter"), (w.t_upper, "exit")):
            if lo <= t_b <= hi and abs(float(sol(t_b)[0])) < w.u_bound:
                events.append(SupportEvent(t=t_b, kind=kind))
        sol.events = sorted(events, key=lambda ev: ev.t)
    return sol


@dataclass
class LegBatch:
    """Per cell of a batch run: the zeros (of xi as in `LegSolution.zeros`,
    from `integrate_legs_batch`), the failure or None, and the work done."""

    zeros: list
    failures: list
    stages: np.ndarray      # right-hand-side evaluations
    accepted: np.ndarray    # steps (of the strip leg)
    rejected: np.ndarray
    samples: list = field(default_factory=list)  # (4, k) states at the sample times


def _stage_sum(coef, K, h):
    """h * sum_j coef[j] K[j] over the first stages of the buffer K, added in
    stage order from 0.0 as a term-by-term loop adds them, so that a cell's
    bits depend on neither the other cells nor the layout of K: accumulate is
    sequential by definition, where a reduction may sum pairwise."""
    return (0.0 + np.add.accumulate(coef * K[:len(coef)], axis=0)[-1]) * h


def _norm(x):
    """np.linalg.norm of each cell's column."""
    return np.sqrt(sum(c * c for c in x))


def _horner(F, x):
    """A DOP853 step's dense output less y_old at the step fraction x, its
    coefficient rows F summed in scipy's order."""
    v = 0.0
    for i, f in enumerate(reversed(F)):
        v = (v + f) * (x if i % 2 == 0 else 1 - x)
    return v


def _dense_zero(F, y_old, t_old, t_new):
    """brentq at scipy's event tolerances on one row of a step's dense output."""
    return brentq(lambda t: _horner(F, (t - t_old) / (t_new - t_old)) + y_old,
                  t_old, t_new, xtol=4 * _EPS, rtol=4 * _EPS)


def _dop853_batch(rhs, t, t_stop, y, cfg: IntegratorConfig, max_step: float,
                  ts, owner, watch: Optional[int] = None):
    """scipy's DOP853 run per cell of the (state, cell) array y, from t to
    t_stop (one each per cell): its tables, error norm, controller, initial
    step and step bound, with vectorized rhs(t, y) called once per stage on
    the active cells. Only steps on which row `watch` changes sign (brentq
    finds the zero) or that hold sample times ts (of cells owner) get the
    dense-output stages; a sample is read from the step OdeSolution reads it
    from. A step below scipy's minimum, or a non-finite error norm, fails
    that cell alone. Returns a LegBatch (work, watched zeros, failure
    messages), the final times and states, and the sampled states."""
    t, y, m = np.array(t, dtype=float), np.array(y, dtype=float), y.shape[1]
    RK, atol, rms = DOP853, cfg.abs_tol, math.sqrt(len(y))
    rtol = max(cfg.rel_tol, 100 * _EPS)     # scipy's floor on rtol
    power = -1 / (RK.error_estimator_order + 1)
    res = LegBatch([[] for _ in range(m)], np.array([None] * m), *np.zeros((3, m), dtype=int))
    active, retry = t < t_stop, np.zeros(m, dtype=bool)
    # samples by cell, then time, keyed exactly by (cell, rank of time); unread: nxt to stop
    order, grid = np.lexsort((ts, owner)), np.sort(ts, kind="stable")
    key = owner[order] * (grid.size + 1) + np.searchsorted(grid, ts[order])
    edges = np.searchsorted(key, np.arange(m + 1) * (grid.size + 1))
    nxt, stop = edges[:-1].copy(), edges[1:]
    out = np.full((len(y), ts.size), np.nan)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        i = np.flatnonzero(active)   # scipy's initial step, per cell
        ti, yi, span, f = t[i], y[:, i], t_stop[i] - t[i], np.zeros_like(y)
        f[:, i] = fi = rhs(ti, yi)
        scale = atol + np.abs(yi) * rtol
        d0, d1 = _norm(yi / scale) / rms, _norm(fi / scale) / rms
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), span)
        d2 = _norm((rhs(ti + h0, yi + h0 * fi) - fi) / scale) / rms / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** -power)
        h_abs = np.zeros(m)
        h_abs[i] = np.minimum(np.minimum(100 * h0, h1), np.minimum(span, max_step))
        res.stages[i] += 2
        while np.any(active):
            i = np.flatnonzero(active)
            ti, h = t[i], h_abs[i]
            min_step = 10 * np.abs(np.nextafter(ti, np.inf) - ti)
            new = ~retry[i]      # a new step starts clipped to [min_step, max_step]
            h = np.where(new & (h > max_step), max_step,
                         np.where(new & (h < min_step), min_step, h))
            small = h < min_step     # False for a NaN step, whose error norm fails
            res.failures[i[small]], active[i[small]] = (
                "Required step size is less than spacing between numbers.", False)
            i, ti, h = i[~small], ti[~small], h[~small]
            t_new = np.minimum(ti + h, t_stop[i])
            h = t_new - ti
            yi = y[:, i]
            K = np.empty((_NS + 1 + len(_A_EXTRA),) + yi.shape)   # the step's stages
            K[0] = f[:, i]
            for st, (a, frac) in enumerate(zip(_A, RK.C[1:]), 1):
                K[st] = rhs(ti + frac * h, yi + _stage_sum(a, K, h))
            y_new = yi + _stage_sum(_B, K, h)
            K[_NS] = rhs(t_new, y_new)
            res.stages[i] += _NS
            scale = atol + np.maximum(np.abs(yi), np.abs(y_new)) * rtol
            n5 = _norm(_stage_sum(_E5, K, 1.0) / scale) ** 2
            n3 = _norm(_stage_sum(_E3, K, 1.0) / scale) ** 2
            err = np.where((n5 == 0) & (n3 == 0), 0.0,
                           h * n5 / np.sqrt((n5 + 0.01 * n3) * len(y)))
            bad = i[~np.isfinite(err)]
            res.failures[bad], active[bad] = "error norm is not finite", False
            ok = err < 1
            grow = np.where(err == 0, 10.0, np.minimum(10.0, 0.9 * err ** power))
            h_abs[i] = h * np.where(ok, np.where(retry[i], np.minimum(1.0, grow), grow),
                                    np.maximum(0.2, 0.9 * err ** power))
            retry[i] = ~ok
            res.rejected[i[~ok & np.isfinite(err)]] += 1
            k = np.flatnonzero(ok)
            cells = i[k]
            res.accepted[cells] += 1
            t[cells], y[:, cells], f[:, cells] = t_new[k], y_new[:, k], K[_NS][:, k]
            active[cells] = t_new[k] < t_stop[cells]
            g, g_new = ((yi[watch, k], y_new[watch, k]) if watch is not None
                        else [np.ones(k.size)] * 2)
            sign = ((g <= 0) & (g_new >= 0)) | ((g >= 0) & (g_new <= 0))
            # the samples due: up to t_new, and all that are left on a last step
            upto = np.where(active[cells], np.searchsorted(key, cells * (grid.size + 1)
                            + np.searchsorted(grid, t_new[k], "right")), stop[cells])
            lo, nxt[cells] = nxt[cells], upto
            sel = sign | (upto > lo)
            s, sign, lo, count = k[sel], sign[sel], lo[sel], (upto - lo)[sel]
            if s.size:   # the three dense-output stages
                K = K[:, :, s]
                for st, (a, frac) in enumerate(zip(_A_EXTRA, RK.C_EXTRA), _NS + 1):
                    K[st] = rhs(ti[s] + frac * h[s], yi[:, s] + _stage_sum(a, K, h[s]))
                res.stages[i[s]] += len(RK.C_EXTRA)
                dy = y_new[:, s] - yi[:, s]
                F = [dy, h[s] * K[0] - dy, 2 * dy - h[s] * (K[_NS] + K[0])]
                F += [_stage_sum(d, K, h[s]) for d in _D]
                for j, q in zip(np.flatnonzero(sign), s[sign]):
                    res.zeros[i[q]].append(_dense_zero([float(x[watch, j]) for x in F],
                                                       yi[watch, q], ti[q], t_new[q]))
                # every (step, sample) pair gathered, in one Horner call
                j = np.repeat(np.arange(s.size), count)
                at = np.arange(j.size) + np.repeat(lo - np.cumsum(count) + count, count)
                q, at = s[j], order[at]
                out[:, at] = _horner([row[:, j] for row in F], (ts[at] - ti[q]) / h[q]) + yi[:, q]
    return res, t, y, out


def integrate_legs_batch(w: Potential, t0, y0, t_end, cfg: IntegratorConfig,
                         damping, samples=None) -> LegBatch:
    """Joint three-leg runs of many cells at once, forward from t0 to t_end
    (each one time or one per cell) from the (u, p, xi, xi') columns of y0:
    each cell's strip leg as `integrate_legs` runs it, stepped by
    `_dop853_batch` watching xi. The samples (one array of times per cell)
    are read on the legs and steps `LegSolution` reads them from."""
    y0 = np.asarray(y0, dtype=float)
    m = y0.shape[1]
    t0, t_end = (np.broadcast_to(np.asarray(a, dtype=float), (m,)) for a in (t0, t_end))
    if np.any(t0 > t_end):
        raise InvalidParameterError("batched runs go forward: need t0 <= t_end")
    t_in = np.minimum(np.maximum(w.t_lower, t0), t_end)
    t_out = np.minimum(np.maximum(w.t_upper, t0), t_end)
    d_xi = damping[1]
    rhs = _joint_rhs(w, damping[0], d_xi, np.exp)
    ts = [np.ravel(np.asarray(x, dtype=float)) for x in samples or [()] * m]
    sizes = np.array([x.size for x in ts], dtype=int)
    owner, ts = np.repeat(np.arange(m), sizes), np.concatenate(ts + [np.zeros(0)])
    before, strip = ts <= t_in[owner], (ts > t_in[owner]) & (ts < t_out[owner])
    res, t, y, out = _dop853_batch(rhs, t_in, t_out, _free(y0, t_in - t0, damping), cfg,
                                   min(cfg.max_step, (w.t_upper - w.t_lower) / _STRIP_STEPS),
                                   ts[strip], owner[strip], watch=2)
    res.failures = [msg and IntegrationFailureError(
        "integration failed: " + msg,
        last_state=PhaseState(u=float(y[0, c]), p=float(y[1, c]), t=float(t[c])))
        for c, msg in enumerate(res.failures)]
    states = np.full((len(y), ts.size), np.nan)
    states[:, strip] = out
    after = ~before & (ts >= t_out[owner]) & (t[owner] == t_out[owner])  # not failed
    for leg, y_a, t_a in ((before, y0, t0), (after, y, t_out)):
        states[:, leg] = _free(y_a[:, owner[leg]], ts[leg] - t_a[owner[leg]], damping)
    start = np.cumsum(sizes) - sizes
    res.samples = [states[:, a:b] for a, b in zip(start, start + sizes)]
    res.zeros = [[] if res.failures[c] else
                 _joint_zeros(t0[c], y0[:, c], t_in[c], t_out[c], y[:, c], t_end[c],
                              d_xi, res.zeros[c], cfg.event_tol) for c in range(m)]
    return res


def stepper_work(batches) -> dict:
    """The stepper work of some LegBatch runs, summed."""
    return {"stage_evaluations": int(sum(b.stages.sum() for b in batches)),
            "accepted_steps": int(sum(b.accepted.sum() for b in batches)),
            "rejected_steps": int(sum(b.rejected.sum() for b in batches))}


def _sample_grid(t_lo, t_hi):
    n_pts = max(int(math.ceil((t_hi - t_lo) / _SCAN_DX)), 16)
    return np.linspace(t_lo, t_hi, n_pts + 1)


@dataclass
class Trajectory:
    """Dense solution of the log-time flow, with support entry/exit events."""

    n: int
    w: Potential
    damping: float
    sol: LegSolution  # over [t_min, t_max]
    t: np.ndarray
    u: np.ndarray
    p: np.ndarray
    events: list[SupportEvent] = field(default_factory=list)
    cfg: IntegratorConfig = field(default_factory=IntegratorConfig)

    @property
    def t_min(self) -> float:
        return float(self.t[0])

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    def state(self, t):
        y = self.sol(t)
        return y[0], y[1]

    def u_of_r(self, r):
        return self.state(np.log(np.asarray(r, float)))[0]

    def first_entry(self) -> Optional[float]:
        for ev in self.events:
            if ev.kind == "enter":
                return ev.t
        return None


def _trajectory(w: Potential, n: int, t0: float, u0: float, p0: float,
                cfg: IntegratorConfig, t_end: float) -> Trajectory:
    damping = float(n - 2)
    sol = integrate_legs(w, t0, (u0, p0), t_end, cfg, (damping,))
    ts = _sample_grid(min(t0, t_end), max(t0, t_end))
    ys = sol(ts)
    return Trajectory(n=n, w=w, damping=damping, sol=sol, t=ts,
                      u=ys[0], p=ys[1], events=sol.events, cfg=cfg)


def integrate_hamiltonian(w: Potential, s0: PhaseState,
                          cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Flow of u' = p, p' = -e^{2t} W'_u from the given state (n = 2)."""
    t_end = cfg.t_range[1] if cfg.t_range else w.t_upper + 20.0
    return _trajectory(w, 2, s0.t, s0.u, s0.p, cfg, t_end)


def integrate_radial_ivp(pot: Potential, n: int, r0: float, u0: float,
                         du0: float, cfg: IntegratorConfig = IntegratorConfig(),
                         w: Optional[Potential] = None) -> Trajectory:
    """Radial solution of u'' + (n-1)/r u' + V'_u = 0 from (r0, u0, u'(r0)).

    Integrated in t = ln r with p = r u'; `w`, when given, is integrated in
    place of pot (a potential reads in both coordinates; K is not used).
    """
    if r0 <= 0:
        raise InvalidParameterError("r0 must be positive")
    if n < 2:
        raise InvalidParameterError("dimension must be >= 2")
    w = pot if w is None else w
    t0 = math.log(r0)
    p0 = r0 * du0
    t_end = cfg.t_range[1] if cfg.t_range else w.t_upper + 20.0
    return _trajectory(w, n, t0, u0, p0, cfg, t_end)


def hamiltonian_value(w: Potential, s: PhaseState) -> float:
    """H = p^2/2 + e^{2t} W(u, t)."""
    return 0.5 * s.p * s.p + math.exp(2.0 * s.t) * float(w.w(s.u, s.t))


@dataclass(frozen=True)
class AsymptoticFit:
    alpha: float
    A: float
    max_residual: float


def asymptotic_match_outer(traj: Trajectory, n: int) -> AsymptoticFit:
    """Least-squares fit of u = alpha / r^{n-2} + A on samples beyond the support."""
    if n < 3:
        raise InvalidParameterError("outer matching requires n >= 3")
    t_out = traj.w.t_upper
    mask = traj.t > t_out + 1e-9
    if int(np.count_nonzero(mask)) < 4:
        raise InsufficientRangeError("trajectory does not extend beyond the support")
    ts = traj.t[mask]
    us = traj.u[mask]
    r = np.exp(ts)
    basis = np.column_stack([r ** (2.0 - n), np.ones_like(r)])
    coef, *_ = np.linalg.lstsq(basis, us, rcond=None)
    resid = np.max(np.abs(basis @ coef - us))
    return AsymptoticFit(alpha=float(coef[0]), A=float(coef[1]),
                         max_residual=float(resid))


def flow_volume_check(w: Potential, s0: PhaseState,
                      cfg: IntegratorConfig = IntegratorConfig()) -> float:
    """Jacobian determinant of the time-t flow map, as the Wronskian
    xi_a xi_b' - xi_b xi_a' of the linearizations started at (xi, xi') = (1, 0)
    and (0, 1).

    The flow preserves the Liouville measure dp du, so the exact value is 1.
    """
    t0, t_end = cfg.t_range if cfg.t_range else (s0.t, w.t_upper + 10.0)
    a, b = (integrate_legs(w, t0, (s0.u, s0.p) + xi, t_end, cfg, (0.0, 0.0))(t_end)
            for xi in ((1.0, 0.0), (0.0, 1.0)))
    return float(a[2] * b[3] - b[2] * a[3])
