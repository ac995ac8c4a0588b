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

Every run steps in `_dop853_batch`: scipy's DOP853 rules applied per cell to
a (state, cell) array, the right-hand side (one potential jet, for a product
potential one profile pass over both bumps) evaluated once per stage on the
active cells, and each step's stages in one buffer, summed in stage order so
that no cell's bits depend on another. A single run is a one-cell batch,
and a backward batch steps forward in s = -t. The step loop only steps;
dense output (Hairer, Norsett & Wanner, Solving ODEs I, II.6) is one pass
after it over the steps it kept. A dense run keeps each accepted
step's output rows, read by scipy's OdeSolution rule. A dense run is the one
way a solution is read: each consumer evaluates its LegSolution at its own
times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .errors import IntegrationFailureError, InsufficientRangeError, InvalidParameterError
from .potential import Potential


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float = math.inf
    t_range: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise InvalidParameterError("integrator tolerances must be positive and finite, "
                                        "got rel_tol=%r, abs_tol=%r" % (self.rel_tol, self.abs_tol))
        if not self.max_step > 0:
            raise InvalidParameterError("integrator max_step must be > 0, got %r"
                                        % (self.max_step,))
        if self.t_range is not None and not (
                np.isfinite(self.t_range).all() and self.t_range[0] != self.t_range[1]):
            raise InvalidParameterError("t_range must be two finite, distinct times, got %r"
                                        % (self.t_range,))

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


# spacing of the sample grids that consumers read dense runs on
_SCAN_DX = 1e-2
# strip-leg step bound: this fraction of the strip width. By Sturm comparison
# zeros of xi lie at least pi / (K e^{t_upper}) apart, so a step below that
# spacing holds at most one zero. The bound is not assumed to be below it: a
# scan reports their ratio (rigidity.strip_step_over_zero_spacing), and past 1
# only the error control keeps a step from spanning two zeros.
_STRIP_STEPS = 8
# zeros of xi closer than this are one zero
_ZERO_MERGE = 1e-12
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
    """The s in (0, span] (span may be negative or infinite) at which the free
    motion from (x, dx) with damping d vanishes, or None."""
    if dx == 0.0 or span == 0.0:
        return None
    s = -x / dx
    if d != 0.0:
        if d * s >= 1.0:
            return None
        s = -math.log1p(-d * s) / d
    return s if 0.0 < s * math.copysign(1.0, span) <= abs(span) else None


@dataclass
class StepRows:
    """The dense output of one cell's accepted steps in its run's frame (time
    times direction): per step its start s_old, length h, state y_old and
    seven coefficient rows F (7, state, step)."""

    s_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    F: np.ndarray

    def __call__(self, s):
        """The states at the times s, read as scipy's OdeSolution reads them:
        from the step (s_old, s_old + h] holding s, else the first or last."""
        j = np.maximum(np.searchsorted(self.s_old, s) - 1, 0)
        return _horner(list(self.F[:, :, j]), (s - self.s_old[j]) / self.h[j]) + self.y_old[:, j]


@dataclass
class LegSolution:
    """Dense solution of one three-leg run, callable on a time or an array of
    times like scipy's OdeSolution. It is the free motion from (t0, y0) up to
    t_in, the strip steps on [t_in, t_out] and the free motion from
    (t_out, y_out) beyond. `ts` holds the strip leg's step times, and stages,
    accepted and rejected its stepper work."""

    t0: float
    y0: np.ndarray
    direction: float             # +1 forward in t, -1 backward
    t_in: float
    t_out: float
    y_out: np.ndarray
    strip: StepRows
    damping: tuple               # one damping per (x, x') pair
    ts: np.ndarray
    stages: int
    accepted: int
    rejected: int
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
            out[:, mid] = self.strip(self.direction * tt[mid])
        return out.reshape((len(self.y0),) + t.shape)


def _joint_zeros(t0, y0, t_in, t_out, y_out, t_end, d_xi, strip_zeros):
    """Zeros of xi over a joint run, sorted, those closer than _ZERO_MERGE
    merged: t0 if xi starts at 0, the closed-form zero of each free leg, and
    the strip leg's zeros."""
    zeros = [t0] if y0[2] == 0.0 else []
    for t_a, y_a, t_b in ((t0, y0, t_in), (t_out, y_out, t_end)):
        s = _free_zero(y_a[2], y_a[3], d_xi, t_b - t_a)
        if s is not None:
            zeros.append(t_a + s)
    zeros = sorted(zeros + strip_zeros)
    return [z for i, z in enumerate(zeros) if i == 0 or z - zeros[i - 1] > _ZERO_MERGE]


def _flow_rhs(w: Potential, damping):
    """(u, p)' of the flow, and (xi, xi')' of its linearization when damping
    holds a second entry, on a (state, cell) array: one potential jet a call,
    at 1-D u and t of one shape, which a product potential evaluates in one
    stacked profile pass."""
    d_u, d_xi, orders = damping[0], damping[-1], (1, 2)[:len(damping)]

    def rhs(t, y):
        e2 = np.exp(2.0 * t)
        jet = w.jet(y[0], t, orders)
        out = np.empty_like(y)
        out[::2] = y[1::2]
        np.subtract(-d_u * y[1], e2 * jet[0], out=out[1])
        if len(y) == 4:
            np.subtract(-d_xi * y[3], e2 * jet[1] * y[2], out=out[3])
        return out
    return rhs


@dataclass
class LegBatch:
    """Per cell of a batch run: the zeros of xi (or a flow's support events),
    the failure or None, the work done, and for a dense cell its LegSolution
    (None if the cell is not dense or failed)."""

    zeros: list
    failures: list
    stages: np.ndarray      # right-hand-side evaluations
    accepted: np.ndarray    # steps (of the strip leg)
    rejected: np.ndarray
    runs: list = field(default_factory=list)

    def __getitem__(self, cells: slice) -> "LegBatch":
        """The record of a slice of the batch's cells."""
        return LegBatch(*(x[cells] for x in (self.zeros, self.failures, self.stages,
                                             self.accepted, self.rejected, self.runs)))

    def raise_failure(self):
        """Raise the first failed cell's error, if any cell failed."""
        for exc in filter(None, self.failures):
            raise exc


def _stage_sum(coef, K, h):
    """h * sum_j coef[j] K[j] over the first stages of the buffer K, added in
    stage order from 0.0 as a term-by-term loop adds them, so that a cell's
    bits depend on neither the other cells nor the layout of K. The terms are
    laid out C-contiguous, where reduce adds whole rows in order onto its
    initial 0.0. A row of one element would be summed pairwise, so it
    accumulates instead and adds 0.0 last, which gives the same bits."""
    terms = np.multiply(coef, K[:len(coef)], order="C")
    acc = (0.0 + np.add.accumulate(terms)[-1] if terms[0].size == 1
           else np.add.reduce(terms, axis=0, initial=0.0))
    acc *= h
    return acc


def _norm(x):
    """np.linalg.norm of each cell's column: reduce adds fewer than 8 rows in
    order in any layout."""
    return np.sqrt(np.add.reduce(x * x, axis=0))


def _horner(F, x):
    """A DOP853 step's dense output less y_old at the step fraction x, its
    coefficient rows F summed in scipy's order."""
    v = 0.0
    for i, f in enumerate(reversed(F)):
        v = (v + f) * (x if i % 2 == 0 else 1 - x)
    return v


def _dense_zero(watch, F, y_old, t_old, t_new):
    """brentq at scipy's event tolerances on the watched row of one step's
    dense output (rows F (7, state)), on floats, summing only that row: the
    root and the state there."""
    rows, t_old, h = list(zip(F.T.tolist(), y_old.tolist())), float(t_old), float(t_new - t_old)
    (f, y), g = rows[watch[0]], watch[1]
    root = brentq(lambda t: g(_horner(f, (t - t_old) / h) + y), t_old, float(t_new),
                  xtol=4 * _EPS, rtol=4 * _EPS)
    return root, [_horner(f, (root - t_old) / h) + y for f, y in rows]


def _dop853_batch(rhs, t, t_stop, y, tol, max_step, watch=None, dense=False):
    """scipy's DOP853 run per cell of the (state, cell) array y, forward from
    t to t_stop at tol = (rel_tol, abs_tol) with step bound max_step (each
    one value, or one per cell): its tables, error norm, controller, initial
    step and step bound, with vectorized rhs(t, y) called once per stage on
    the active cells. The step loop only steps: it keeps the stages of each
    accepted step that a dense cell takes (dense is one flag, or one per
    cell) or on which g(y[row]) changes sign, with watch = (row, g). The
    three dense-output stages, which the step control does not read, then
    come from three rhs calls over all kept steps, and brentq finds each
    watched zero on its step's dense output. A step below scipy's minimum,
    or a non-finite error norm, fails that cell alone. Returns a LegBatch
    (work, watched zeros and the states there, failure messages), the final
    times and states, and per cell its StepRows (None unless dense)."""
    t, y, m = np.array(t, dtype=float), np.array(y, dtype=float), y.shape[1]
    RK, rms = DOP853, math.sqrt(len(y))    # per cell: rtol at scipy's floor, atol, step bound
    rtol, atol, max_step = (np.broadcast_to(x, (m,)) for x in (
        np.maximum(tol[0], 100 * _EPS), tol[1], max_step))
    dense = np.broadcast_to(dense, (m,))
    power = -1 / (RK.error_estimator_order + 1)
    res = LegBatch([[] for _ in range(m)], np.array([None] * m), *np.zeros((3, m), dtype=int))
    active, retry = t < t_stop, np.zeros(m, dtype=bool)
    # per kept step: cell, sign change, t_old, t_new, y_old, y_new, stages
    kept = [(np.zeros(0, dtype=int), np.zeros(0, dtype=bool), *np.zeros((2, 0)),
             *np.zeros((2, len(y), 0)), np.zeros((_NS + 1, len(y), 0)))]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        i = active.nonzero()[0]   # scipy's initial step, per cell
        ti, yi, span, f = t[i], y[:, i], t_stop[i] - t[i], np.zeros_like(y)
        f[:, i] = fi = rhs(ti, yi)
        scale = atol[i] + np.abs(yi) * rtol[i]
        d0, d1 = _norm(yi / scale) / rms, _norm(fi / scale) / rms
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), span)
        d2 = _norm((rhs(ti + h0, yi + h0 * fi) - fi) / scale) / rms / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** -power)
        h_abs = np.zeros(m)
        h_abs[i] = np.minimum(np.minimum(100 * h0, h1), np.minimum(span, max_step[i]))
        res.stages[i] += 2
        while active.any():
            i = active.nonzero()[0]
            ti, h = t[i], h_abs[i]
            min_step = 10 * np.abs(np.nextafter(ti, np.inf) - ti)
            new, h_max = ~retry[i], max_step[i]   # a new step starts clipped to [min_step, h_max]
            h = np.where(new & (h > h_max), h_max, np.where(new & (h < min_step), min_step, h))
            small = h < min_step     # False for a NaN step, whose error norm fails
            if small.any():
                res.failures[i[small]], active[i[small]] = (
                    "Required step size is less than spacing between numbers.", False)
                i, ti, h = i[~small], ti[~small], h[~small]
            t_new = np.minimum(ti + h, t_stop[i])
            h = t_new - ti
            yi = y[:, i]
            K = np.empty((_NS + 1,) + yi.shape)   # the step's stages
            K[0] = f[:, i]
            for st, (a, t_st) in enumerate(zip(_A, ti + RK.C[1:, None] * h), 1):
                K[st] = rhs(t_st, yi + _stage_sum(a, K, h))
            y_new = yi + _stage_sum(_B, K, h)
            K[_NS] = rhs(t_new, y_new)
            res.stages[i] += _NS
            scale = atol[i] + np.maximum(np.abs(yi), np.abs(y_new)) * rtol[i]
            n5 = _norm(_stage_sum(_E5, K, 1.0) / scale) ** 2
            n3 = _norm(_stage_sum(_E3, K, 1.0) / scale) ** 2
            err = np.where((n5 == 0) & (n3 == 0), 0.0,
                           h * n5 / np.sqrt((n5 + 0.01 * n3) * len(y)))
            finite, ok = np.isfinite(err), err < 1
            if not finite.all():
                bad = i[~finite]
                res.failures[bad], active[bad] = "error norm is not finite", False
            factor = 0.9 * err ** power
            grow = np.where(err == 0, 10.0, np.minimum(10.0, factor))
            h_abs[i] = h * np.where(ok, np.where(retry[i], np.minimum(1.0, grow), grow),
                                    np.maximum(0.2, factor))
            retry[i] = rejected = ~ok
            res.rejected[i] += rejected & finite
            k = ok.nonzero()[0]
            cells = i[k]
            res.accepted[cells] += 1
            t[cells], y[:, cells], f[:, cells] = t_new[k], y_new[:, k], K[_NS][:, k]
            active[cells] = t_new[k] < t_stop[cells]
            g, g_new = ([watch[1](x[watch[0], k]) for x in (yi, y_new)] if watch is not None
                        else [np.ones(k.size)] * 2)
            sign = (np.minimum(g, g_new) <= 0) & (np.maximum(g, g_new) >= 0)
            sel = sign | dense[cells]
            if sel.any():
                s = k[sel]
                kept.append((i[s], sign[sel], ti[s], t_new[s], yi[:, s], y_new[:, s], K[:, :, s]))
        cell, sign, t_old, t_new, y_old, y_new = (np.concatenate(x, axis=-1) for x in
                                                  list(zip(*kept))[:-1])
        K = np.empty((_NS + 1 + len(_A_EXTRA),) + y_old.shape)   # the kept steps' stages
        np.concatenate([x[-1] for x in kept], axis=-1, out=K[:_NS + 1])
        del kept
        h = t_new - t_old
        for st, (a, frac) in enumerate(zip(_A_EXTRA, RK.C_EXTRA) if h.size else (), _NS + 1):
            K[st] = rhs(t_old + frac * h, y_old + _stage_sum(a, K, h))
        res.stages += len(RK.C_EXTRA) * np.bincount(cell, minlength=m)
        dy = y_new - y_old
        F = np.array([dy, h * K[0] - dy, 2 * dy - h * (K[_NS] + K[0])]
                     + [_stage_sum(d, K, h) for d in _D])
        for j in np.flatnonzero(sign):   # in round order: each cell's zeros in time order
            res.zeros[cell[j]] += [_dense_zero(watch, F[..., j], y_old[:, j], t_old[j], t_new[j])]
    if not np.any(dense):
        return res, t, y, [None] * m
    keep = dense[cell]
    cell, cols = cell[keep], (t_old[keep], h[keep], y_old[:, keep], F[..., keep])
    order = np.argsort(cell, kind="stable")   # each cell's steps, in time order
    ends = np.searchsorted(cell[order], np.arange(m + 1))
    steps = (order[a:b] for a, b in zip(ends, ends[1:]))
    return res, t, y, [StepRows(*(x[..., j] for x in cols)) if keep else None
                       for j, keep in zip(steps, dense)]


def strip_step(w: Potential, cfg: IntegratorConfig) -> float:
    """The strip leg's step bound: cfg's, at most the width over _STRIP_STEPS."""
    return min(cfg.max_step, (w.t_upper - w.t_lower) / _STRIP_STEPS)


def integrate_legs(w: Potential, t0, y0, t_end, cfg, damping, dense=False) -> LegBatch:
    """Three-leg runs from the columns of y0 at t0 to t_end (each one time or
    one per cell), all in one direction: flow states (u, p) with damping (d,)
    record where they enter and leave the support box, joint states
    (u, p, xi, xi') with damping (d, d_xi) the zeros of xi. cfg is one
    IntegratorConfig or one per cell: its tolerances and strip step bound. A
    backward batch steps forward in s = -t on -f(-s, y), which negates every
    time and stage exactly. A dense cell (dense is one
    flag, or one per cell) keeps the rows of every step and gets its
    LegSolution in `runs`, which reads it at any times."""
    y0 = np.asarray(y0, dtype=float)
    m = y0.shape[1]
    cfgs = [cfg] * m if isinstance(cfg, IntegratorConfig) else list(cfg)
    if len(cfgs) != m:
        raise InvalidParameterError("need one integrator config per cell, got %d for %d"
                                    % (len(cfgs), m))
    t0, t_end = (np.broadcast_to(np.asarray(a, dtype=float), (m,)) for a in (t0, t_end))
    if np.any(t_end > t0) and np.any(t_end < t0):
        raise InvalidParameterError("the runs of one batch go in one direction")
    d = -1.0 if np.any(t_end < t0) else 1.0
    lo, hi = np.minimum(t0, t_end), np.maximum(t0, t_end)
    a, b = (np.minimum(np.maximum(x, lo), hi) for x in (w.t_lower, w.t_upper))
    t_in, t_out = (a, b) if d > 0 else (b, a)
    y_in = _free(y0, t_in - t0, damping)
    joint, rhs = len(damping) == 2, _flow_rhs(w, damping)
    res, s, y, rows = _dop853_batch(
        rhs if d > 0 else lambda s, y: -rhs(-s, y), d * t_in, d * t_out, y_in,
        [np.array([c.rel_tol for c in cfgs]), np.array([c.abs_tol for c in cfgs])],
        np.array([strip_step(w, c) for c in cfgs]),
        (2, lambda xi: xi) if joint else (0, lambda u: abs(u) - w.u_bound), dense=dense)
    t = d * s
    res.failures = [msg and IntegrationFailureError(
        "integration failed: " + msg,
        last_state=PhaseState(u=float(y[0, c]), p=float(y[1, c]), t=float(t[c])))
        for c, msg in enumerate(res.failures)]
    for c in range(m):
        hits = [(float(d * z), yz) for z, yz in res.zeros[c]]
        if res.failures[c]:
            res.zeros[c] = []
        elif joint:
            res.zeros[c] = _joint_zeros(t0[c], y0[:, c], t_in[c], t_out[c], y[:, c], t_end[c],
                                        damping[1], [z for z, _ in hits])
        else:   # strip crossings of |u| = u_bound, and the strip's edges inside the box
            events = [SupportEvent(t=z, kind="enter" if yz[0] * yz[1] < 0 else "exit")
                      for z, yz in hits]
            edge = {t_in[c]: y_in[:, c], t_out[c]: y[:, c]}
            for t_b, kind in ((w.t_lower, "enter"), (w.t_upper, "exit")):
                if lo[c] <= t_b <= hi[c] and abs(edge[t_b][0]) < w.u_bound:
                    events.append(SupportEvent(t=t_b, kind=kind))
            res.zeros[c] = sorted(events, key=lambda ev: ev.t)
    res.runs = [None if res.failures[c] or rows[c] is None else LegSolution(
        t0=t0[c], y0=y0[:, c], direction=d, t_in=t_in[c], t_out=t_out[c],
        y_out=y[:, c], strip=rows[c], damping=tuple(damping),
        ts=d * np.append(rows[c].s_old, s[c]), stages=int(res.stages[c]),
        accepted=int(res.accepted[c]), rejected=int(res.rejected[c]),
        zeros=res.zeros[c] if joint else [], events=[] if joint else res.zeros[c])
        for c in range(m)]
    return res


def stepper_work(runs) -> dict:
    """The stepper work of some LegBatch or LegSolution runs, summed."""
    return {"stage_evaluations": int(sum(np.sum(r.stages) for r in runs)),
            "accepted_steps": int(sum(np.sum(r.accepted) for r in runs)),
            "rejected_steps": int(sum(np.sum(r.rejected) for r in runs))}


def _sample_grid(t_lo, t_hi):
    n_pts = max(int(math.ceil((t_hi - t_lo) / _SCAN_DX)), 16)
    return np.linspace(t_lo, t_hi, n_pts + 1)


@dataclass
class Trajectory:
    """Dense solution of the log-time flow on [t_min, t_max]; its support
    events are `sol.events`."""

    w: Potential
    damping: float
    sol: LegSolution
    t_min: float
    t_max: float
    cfg: IntegratorConfig = field(default_factory=IntegratorConfig)

    def state(self, t):
        y = self.sol(t)
        return y[0], y[1]

    def u_of_r(self, r):
        return self.state(np.log(np.asarray(r, float)))[0]


def _trajectories(w: Potential, n: int, t0: float, y0, cfg: IntegratorConfig) -> list:
    """The dense flows from the (u, p) columns of y0 at t0 to the end of cfg's
    t_range (default: 20 past the strip), all in one batch: per column its
    Trajectory, or its IntegrationFailureError."""
    t_end = cfg.t_range[1] if cfg.t_range else w.t_upper + 20.0
    damping = float(n - 2)
    run = integrate_legs(w, t0, y0, t_end, cfg, (damping,), dense=True)
    return [exc or Trajectory(w=w, damping=damping, sol=sol, t_min=float(min(t0, t_end)),
                              t_max=float(max(t0, t_end)), cfg=cfg)
            for exc, sol in zip(run.failures, run.runs)]


def _trajectory(w: Potential, n: int, t0: float, u0: float, p0: float,
                cfg: IntegratorConfig) -> Trajectory:
    traj, = _trajectories(w, n, t0, [[u0], [p0]], cfg)
    if isinstance(traj, Exception):
        raise traj
    return traj


def integrate_hamiltonian(w: Potential, s0: PhaseState,
                          cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Flow of u' = p, p' = -e^{2t} W'_u from the given state (n = 2)."""
    return _trajectory(w, 2, s0.t, s0.u, s0.p, cfg)


def integrate_radial_ivp(pot: Potential, n: int, r0: float, u0: float,
                         du0: float, cfg: IntegratorConfig = IntegratorConfig(),
                         w: Optional[Potential] = None) -> Trajectory:
    """Radial solution of u'' + (n-1)/r u' + V'_u = 0 from (r0, u0, u'(r0)).

    Integrated in t = ln r with p = r u', on W(u, t) = V(u, e^t); `w`, when
    given, is integrated in place of pot.
    """
    if not (math.isfinite(r0) and r0 > 0):
        raise InvalidParameterError("r0 must be finite and positive, got %r" % (r0,))
    for name, value in (("u0", u0), ("du0", du0)):
        if not math.isfinite(value):
            raise InvalidParameterError("%s must be finite, got %r" % (name, value))
    if n < 2:
        raise InvalidParameterError("dimension must be >= 2")
    return _trajectory(pot if w is None else w, n, math.log(r0), u0, r0 * du0, cfg)


def hamiltonian_value(w: Potential, s: PhaseState) -> float:
    """H = p^2/2 + e^{2t} W(u, t)."""
    return 0.5 * s.p * s.p + math.exp(2.0 * s.t) * float(w.w(s.u, s.t))


@dataclass(frozen=True)
class AsymptoticFit:
    alpha: float
    A: float
    max_residual: float


def asymptotic_match_outer(traj: Trajectory, n: int) -> AsymptoticFit:
    """Least-squares fit of u = alpha / r^{n-2} + A on the span's samples past the support."""
    if n < 3:
        raise InvalidParameterError("outer matching requires n >= 3")
    ts = _sample_grid(traj.t_min, traj.t_max)
    mask = ts > traj.w.t_upper + 1e-9
    if int(np.count_nonzero(mask)) < 4:
        raise InsufficientRangeError("trajectory does not extend beyond the support")
    us = traj.state(ts)[0][mask]
    ts = ts[mask]
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
    run = integrate_legs(w, t0, [[s0.u] * 2, [s0.p] * 2, [1.0, 0.0], [0.0, 1.0]], t_end,
                         cfg, (0.0, 0.0), dense=True)
    run.raise_failure()
    a, b = (sol(t_end) for sol in run.runs)
    return float(a[2] * b[3] - b[2] * a[3])
