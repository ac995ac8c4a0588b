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
a (state, cell) array, the right-hand side split along the potential's
product structure: its t-factors (e^{2t}, and g(e^t) for a product
potential) taken once per step at all the step's stage times, then one
u-pass per stage on the active cells. Each step's stages are in one buffer,
summed in stage order so that no cell's bits depend on another. A single
run is a one-cell batch, and a backward batch steps forward in s = -t. The
step loop only steps; dense output (Hairer, Norsett & Wanner, Solving ODEs
I, II.6) is one pass after it over the steps it kept, and every watched zero
comes from one lane-masked port of scipy's brentq over all kept steps. A
dense run keeps each accepted step's output rows, read by scipy's
OdeSolution rule. A dense run is the one way a solution is read: each
consumer evaluates its LegSolution at its own times, or `read_runs` many
runs at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

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
# DOP853's tables as scipy's doubles (repr round-trips), each row cut to the stages it reads,
# its zeros kept: a zero times a non-finite stage is NaN, which fails the error norm. Nodes are
# (stage, 1) columns, coefficients (stage, 1, 1) columns against a (stage, state, cell) buffer.
_NS, _ORDER = 12, 7   # stages; the order of the error estimator
_C, _C_EXTRA = (np.array(c)[:, None] for c in (   # stages 1..11; the dense-output stages
    (0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
     0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
     1.0),
    (0.1, 0.2, 0.7777777777777778)))
_A = [np.array(row)[:, None, None] for row in (   # row s: the stages before s
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636))]
_A_EXTRA = [np.array(row)[:, None, None] for row in (   # the dense-output stages' rows
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987))]
_B, _E5, _E3, *_D = (np.array(c)[:, None, None] for c in (   # then the 4 dense-output rows
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294, 0.0),
    (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
     0.02265179219836082, 0.0),
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564)))


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
        return read_runs([self], [t.reshape(-1)]).reshape((len(self.y0),) + t.shape)


def read_runs(runs, ts) -> np.ndarray:
    """The states of the LegSolutions runs (of one direction and damping)
    each at its own 1-D array of times ts[k], side by side, in one pass over
    all of them: before t_in the free motion from (t0, y0), after t_out the
    free motion from (t_out, y_out), between them the strip's steps."""
    k = np.repeat(np.arange(len(runs)), [len(t) for t in ts])   # each time's run
    tt, d, damping = np.concatenate(ts), runs[0].direction, runs[0].damping
    t0, t_in, t_out = (np.array([getattr(r, a) for r in runs])[k] for a in ("t0", "t_in", "t_out"))
    y0, y_out = (np.array([getattr(r, a) for r in runs]).T[:, k] for a in ("y0", "y_out"))
    before = d * (tt - t_in) <= 0.0
    after = ~before & (d * (tt - t_out) >= 0.0)
    mid = ~(before | after)
    out = np.empty((len(runs[0].y0), tt.size))
    out[:, before] = _free(y0[:, before], tt[before] - t0[before], damping)
    out[:, after] = _free(y_out[:, after], tt[after] - t_out[after], damping)
    if np.any(mid):
        out[:, mid] = read_steps([r.strip for r in runs], k[mid], d * tt[mid])
    return out


def read_steps(strips, k, s) -> np.ndarray:
    """The states of the StepRows strips[k[i]] at the times s[i], as scipy's
    OdeSolution reads them: from the step (s_old, s_old + h] holding s, else
    the first or last. One searchsorted finds every step, over the (strip,
    s_old) pairs as complex keys, which numpy orders by strip first."""
    steps = [x.h.size for x in strips]
    s_old, h, y_old, F = (np.concatenate([getattr(x, a) for x in strips], axis=-1)
                          for a in ("s_old", "h", "y_old", "F"))
    keys, at = np.empty(s_old.size, complex), np.empty(len(s), complex)
    keys.real, keys.imag, at.real, at.imag = np.repeat(np.arange(len(strips)), steps), s_old, k, s
    j = np.maximum(np.searchsorted(keys, at) - 1, (np.cumsum(steps) - steps)[k])
    return _horner(list(F[:, :, j]), (s - s_old[j]) / h[j]) + y_old[:, j]


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


def _flow_rhs(w: Potential, damping, sign=1.0):
    """(u, p)' of the flow, and (xi, xi')' of its linearization when damping
    holds a second entry, split for a DOP853 step: rhs(t) takes the step's
    stage times (stage, cell) and evaluates the t-factors there in one pass
    (e^{2t}, and g(e^t) by `Potential.split_jet`); it returns stage(j, y,
    out), which writes the derivative at the times t[j] and the (state,
    cell) array y into out from one u-pass of the potential. Each row takes
    the operations of -d y' - e^{2t} jet (times xi) in that order, so every
    point has the bits of one jet there. sign -1 gives -f(-s, y), the field
    of a backward run stepped forward in s = -t, which negates every time
    and stage exactly."""
    # a duck-typed potential with only a jet takes the unsplit path
    at_times = getattr(type(w), "split_jet", Potential.split_jet)(w, (1, 2)[:len(damping)])
    neg_d = [np.array(-d) for d in damping]

    def rhs(t):
        t = t if sign > 0 else np.negative(t)
        e2, at = list(np.exp(np.multiply(2.0, t))), at_times(t)

        def stage(j, y, out):
            J = at(j, y[0])
            out[0] = y[1]
            np.subtract(np.multiply(neg_d[0], y[1]), np.multiply(e2[j], J[0]), out=out[1])
            if len(J) == 2:
                out[2] = y[3]
                np.subtract(np.multiply(neg_d[1], y[3]),
                            np.multiply(np.multiply(e2[j], J[1]), y[2]), out=out[3])
            return out if sign > 0 else np.negative(out, out=out)
        return stage
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
    acc = (0.0 + np.add.accumulate(terms)[-1] if terms.size == len(terms)
           else np.add.reduce(terms, axis=0, initial=0.0))
    return np.multiply(acc, h, out=acc)


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


def _brentq(f, xpre, xcur):
    """scipy's brentq(f, a, b, xtol=4 eps, rtol=4 eps) on every lane of
    the 1-D arrays a = xpre and b = xcur at once: brentq.c's operations in
    its order, each lane masked on its own, so that each root has scipy's
    bits. f(x, lanes) is the function on the lanes asked for. As in scipy, a
    NaN value or a bracket without a sign change raises ValueError, and a
    lane still open after 100 iterations RuntimeError."""
    def at(x, lanes):
        fx = f(x, lanes)
        if np.isnan(fx).any():
            raise ValueError("The function value at x=%r is NaN; solver cannot continue."
                             % (x[np.isnan(fx)][0],))
        return fx

    lanes, tol, where = np.arange(xpre.size), 4 * _EPS, np.where
    fpre, fcur = at(xpre, lanes), at(xcur, lanes)
    root, live = where(fpre == 0, xpre, xcur), (fpre != 0) & (fcur != 0)
    if np.any(live & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    state = (lanes, xpre, xcur, fpre, fcur, *np.zeros((4, xpre.size)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(100):
            lanes, xpre, xcur, fpre, fcur, xblk, fblk, spre, scur = (x[live] for x in state)
            if not lanes.size:
                return root
            flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk, fblk = where(flip, xpre, xblk), where(flip, fpre, fblk)
            spre, scur = (where(flip, xcur - xpre, x) for x in (spre, scur))
            swap = np.abs(fblk) < np.abs(fcur)   # make xcur the end nearer the root
            xpre, xcur, xblk, fpre, fcur, fblk = (where(swap, *p) for p in (
                (xcur, xpre), (xblk, xcur), (xcur, xblk),
                (fcur, fpre), (fblk, fcur), (fcur, fblk)))
            delta, sbis = (tol + tol * np.abs(xcur)) / 2, (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta)
            root[lanes[done]] = xcur[done]
            # inverse quadratic or secant step if short enough, else bisection
            dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
            stry = where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                         -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
            a, b = np.abs(spre), 3 * np.abs(sbis) - delta
            short = ((a > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2 * np.abs(stry) < where(a < b, a, b)))
            spre, scur = where(short, scur, sbis), where(short, stry, sbis)
            xpre, fpre, live = xcur, fcur, ~done
            xcur = xcur + where(np.abs(scur) > delta, scur, where(sbis > 0, delta, -delta))
            fcur = np.zeros(xcur.size)
            fcur[live] = at(xcur[live], lanes[live])
            state = (lanes, xpre, xcur, fpre, fcur, xblk, fblk, spre, scur)
    if np.any(live):
        raise RuntimeError("Failed to converge after 100 iterations, value is %r"
                           % (xcur[live][0],))
    return root


def _dop853_batch(rhs, t, t_stop, y, tol, max_step, watch=None, dense=False):
    """scipy's DOP853 run per cell of the (state, cell) array y, forward from
    t to t_stop at tol = (rel_tol, abs_tol) with step bound max_step (each
    one value, or one per cell): its tables, error norm, controller, initial
    step and step bound. rhs is split as `_flow_rhs` splits it: rhs(t) takes
    a step's stage times (stage, cell), all known before its first stage,
    and returns stage(j, y, out), called once per stage on the active cells,
    which stay side by side in cell order between rounds. The step loop only
    steps: it keeps the stages of each accepted step that a dense cell takes
    (dense is one flag, or one per cell) or on which g(y[row]) changes sign,
    with watch = (row, g). The three dense-output stages, which the step
    control does not read, then come from one rhs call and three stage calls
    over all kept steps, and one `_brentq` pass finds every watched zero on
    its step's dense output. A step below scipy's minimum, or a non-finite
    error norm, fails that cell alone. Returns a LegBatch (work, watched
    zeros and the states there, failure messages), the final times and
    states, and per cell its StepRows (None unless dense)."""
    t, y, m = np.array(t, dtype=float), np.array(y, dtype=float), y.shape[1]
    rms, where = math.sqrt(len(y)), np.where
    power = -1 / (_ORDER + 1)
    res = LegBatch([[] for _ in range(m)], np.array([None] * m), *np.zeros((3, m), dtype=int))
    # per kept step: cell, sign change, t_old, t_new, y_old, y_new, stages
    kept = [(np.zeros(0, dtype=int), np.zeros(0, dtype=bool), *np.zeros((2, 0)),
             *np.zeros((2, len(y), 0)), np.zeros((_NS + 1, len(y), 0)))]
    c, dense = np.flatnonzero(t < t_stop), np.broadcast_to(dense, (m,))   # the active cells
    # per active cell: rtol at scipy's floor, atol, step bound, end, dense flag
    rtol, atol, h_max, stop, is_dense = (np.broadcast_to(x, (m,))[c] for x in (
        np.maximum(tol[0], 100 * _EPS), tol[1], max_step, t_stop, dense))

    def retire(cols, gone, failure=None, tried=0):
        """Write the time, state and work of the cells gone (less the attempt
        `tried` of a failure) and drop their columns."""
        cells, (ti, yi, _, _, _, accepted, rejected) = cols[0][gone], cols[1:8]
        t[cells], y[:, cells], res.failures[cells] = ti[gone], yi[:, gone], failure
        res.accepted[cells], res.rejected[cells] = accepted[gone], rejected[gone] - tried
        res.stages[cells] = 2 + _NS * (accepted[gone] + rejected[gone])
        return tuple(x[..., ~gone] for x in cols)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ti, yi, span = t[c], y[:, c], stop - t[c]   # scipy's initial step, per cell
        fi = rhs(ti[None])(0, yi, np.empty_like(yi))
        scale = atol + np.abs(yi) * rtol
        d0, d1 = _norm(yi / scale) / rms, _norm(fi / scale) / rms
        h0 = np.minimum(where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), span)
        d2 = _norm((rhs((ti + h0)[None])(0, yi + h0 * fi, np.empty_like(yi)) - fi)
                   / scale) / rms / h0
        h1 = where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                   (0.01 / np.maximum(d1, d2)) ** -power)
        h_abs = np.minimum(np.minimum(100 * h0, h1), np.minimum(span, h_max))
        # the active cells' columns: cell, time, state, derivative, next step,
        # retry flag, accepted and rejected steps (a failed attempt counted as
        # rejected), and the settings
        cols = (c, ti, yi, fi, h_abs, np.zeros(c.size, dtype=bool),
                *np.zeros((2, c.size), dtype=int), rtol, atol, h_max, stop, is_dense)
        while cols[0].size:
            ti, h_abs, retry, h_max = cols[1], cols[4], cols[5], cols[10]
            min_step = 10 * np.abs(np.nextafter(ti, np.inf) - ti)
            # a new step starts clipped to [min_step, h_max]
            h = where(retry, h_abs, where(h_abs > h_max, h_max, np.maximum(h_abs, min_step)))
            small = h < min_step     # False for a NaN step, whose error norm fails
            if np.count_nonzero(small):
                cols = retire(cols, small, "Required step size is less than spacing between "
                                           "numbers.")
                h = h[~small]
            c, ti, yi, fi, _, retry, accepted, rejected, rtol, atol, h_max, stop, is_dense = cols
            t_new = np.minimum(ti + h, stop)
            h = t_new - ti
            K = np.empty((_NS + 1,) + yi.shape)   # the step's stages
            K[0] = fi
            stage = rhs(np.concatenate((ti + _C * h, t_new[None])))
            for st, a in enumerate(_A, 1):
                stage(st - 1, np.add(yi, _stage_sum(a, K, h)), K[st])
            y_new = np.add(yi, _stage_sum(_B, K, h))
            stage(_NS - 1, y_new, K[_NS])
            scale = atol + np.maximum(np.abs(yi), np.abs(y_new)) * rtol
            n5 = _norm(_stage_sum(_E5, K, 1.0) / scale) ** 2
            n3 = _norm(_stage_sum(_E3, K, 1.0) / scale) ** 2
            err = where((n5 == 0) & (n3 == 0), 0.0, h * n5 / np.sqrt((n5 + 0.01 * n3) * len(y)))
            ok, factor = err < 1, 0.9 * err ** power
            grow = where(err == 0, 10.0, np.minimum(10.0, factor))
            h_abs = h * where(ok, where(retry, np.minimum(1.0, grow), grow),
                              np.maximum(0.2, factor))
            g, g_new = ([watch[1](x[watch[0]]) for x in (yi, y_new)] if watch is not None
                        else [np.ones(ok.size)] * 2)
            sign = ok & (np.minimum(g, g_new) <= 0) & (np.maximum(g, g_new) >= 0)
            sel = sign | (ok & is_dense)
            n_sel = np.count_nonzero(sel)
            if n_sel:
                kept.append((c, sign, ti, t_new, yi, y_new, K) if n_sel == sel.size else
                            (c[sel], sign[sel], ti[sel], t_new[sel], yi[:, sel], y_new[:, sel],
                             K[:, :, sel]))
            cols = (c, where(ok, t_new, ti), where(ok, y_new, yi), where(ok, K[_NS], fi), h_abs,
                    ~ok, accepted + ok, rejected + ~ok, rtol, atol, h_max, stop, is_dense)
            finite = np.isfinite(err)
            if np.count_nonzero(finite) < finite.size:
                cols = retire(cols, ~finite, "error norm is not finite", 1)
                ok, t_new, stop = ok[finite], t_new[finite], stop[finite]
            done = ok & (t_new >= stop)
            if np.count_nonzero(done):
                cols = retire(cols, done)
        cell, sign, t_old, t_new, y_old, y_new = (np.concatenate(x, axis=-1) for x in
                                                  list(zip(*kept))[:-1])
        K = np.empty((_NS + 1 + len(_A_EXTRA),) + y_old.shape)   # the kept steps' stages
        np.concatenate([x[-1] for x in kept], axis=-1, out=K[:_NS + 1])
        del kept
        h = t_new - t_old
        if h.size:
            stage = rhs(t_old + _C_EXTRA * h)
            for st, a in enumerate(_A_EXTRA):
                stage(st, y_old + _stage_sum(a, K, h), K[_NS + 1 + st])
        res.stages += len(_C_EXTRA) * np.bincount(cell, minlength=m)
        dy = y_new - y_old
        F = np.array([dy, h * K[0] - dy, 2 * dy - h * (K[_NS] + K[0])]
                     + [_stage_sum(d, K, h) for d in _D])
        j = np.flatnonzero(sign)   # in round order: each cell's zeros in time order
        if j.size:   # each zero of g(y[row]) on its step's dense output, and the state there
            (row, g), F_j, y_j, t_j, h_j = watch, F[..., j], y_old[:, j], t_old[j], h[j]
            roots = _brentq(lambda x, k: g(_horner(list(F_j[:, row, k]), (x - t_j[k]) / h_j[k])
                                           + y_j[row, k]), t_j, t_new[j])
            states = _horner(list(F_j), (roots - t_j) / h_j) + y_j
            for c, root, state in zip(cell[j], roots.tolist(), states.T.tolist()):
                res.zeros[c].append((root, state))
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
    backward batch steps forward in s = -t on -f(-s, y) (`_flow_rhs` with
    sign -1), which negates every time and stage exactly. A dense cell (dense is one
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
    joint = len(damping) == 2
    res, s, y, rows = _dop853_batch(
        _flow_rhs(w, damping, d), d * t_in, d * t_out, y_in,
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
