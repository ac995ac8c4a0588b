"""Linearized fields along trajectories, conjugate points and Riccati bounds.
A field is the dense joint run of the flow and its linearization, read at the
times each consumer needs (a Riccati trace: the sample grid of its span)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractViolationError, InapplicableError, InvalidParameterError
from .odeflow import IntegratorConfig, LegSolution, Trajectory, _sample_grid, integrate_legs
from .potential import Potential

# the slack of each Riccati bound and of the disconjugacy test's omega >= 0
_BOUND_TOL = 1e-9


@dataclass
class JacobiField:
    """The linearized equation's solution along a trajectory, on [t_min, t_max]."""

    sol: LegSolution  # the joint run (u, p, xi, xi')
    t_min: float
    t_max: float

    @property
    def zeros(self) -> list[float]:
        return self.sol.zeros

    def value(self, t):
        return self.sol(t)[2]

    def derivative(self, t):
        return self.sol(t)[3]


def integrate_jacobi(traj: Trajectory, xi0: float, dxi0: float,
                     mode: str = "log-form",
                     cfg: Optional[IntegratorConfig] = None,
                     t_init: Optional[float] = None,
                     t_end: Optional[float] = None) -> JacobiField:
    """Integrate xi'' + damping xi' + e^{2t} W''_uu(u(t), t) xi = 0.

    mode "log-form" has no damping (the n = 2 Jacobi equation); "radial-form"
    carries the (n-2) damping of the general radial linearization.  All
    derivatives and zero locations are in log time.  The flow is integrated
    again together with the field, from the trajectory's state at t_init.
    """
    if mode not in ("log-form", "radial-form"):
        raise InvalidParameterError("unknown mode %r" % (mode,))
    if xi0 == 0.0 and dxi0 == 0.0:
        raise InvalidParameterError("trivial initial data for the Jacobi field")
    cfg = cfg or traj.cfg
    t_init = traj.t_min if t_init is None else float(t_init)
    t_end = traj.t_max if t_end is None else float(t_end)
    lo, hi = min(t_init, t_end), max(t_init, t_end)
    if t_init == t_end or lo < traj.t_min - 1e-9 or hi > traj.t_max + 1e-9:
        raise InvalidParameterError("requested range not covered by the trajectory")
    damping = 0.0 if mode == "log-form" else traj.damping
    u, p = traj.state(t_init)
    run = integrate_legs(traj.w, t_init, [[float(u)], [float(p)], [xi0], [dxi0]], t_end,
                         cfg, (traj.damping, damping), dense=True)
    run.raise_failure()
    return JacobiField(sol=run.runs[0], t_min=lo, t_max=hi)


def find_vanishing(fld: JacobiField, kind: str, from_t: float) -> list[float]:
    """Zeros of xi strictly after from_t.

    kind "conjugate" requires the normalization xi(from_t) = 0, xi'(from_t) = 1;
    kind "focal" requires xi'(from_t) = 0, xi(from_t) = 1.
    """
    if kind not in ("conjugate", "focal"):
        raise InvalidParameterError("unknown kind %r" % (kind,))
    v = float(fld.value(from_t))
    dv = float(fld.derivative(from_t))
    if kind == "conjugate":
        if abs(v) > 1e-9 or abs(dv - 1.0) > 1e-6:
            raise ContractViolationError(
                "conjugate search needs xi(from_t)=0, xi'(from_t)=1; "
                "got (%g, %g)" % (v, dv))
    else:
        if abs(dv) > 1e-9 or abs(v - 1.0) > 1e-6:
            raise ContractViolationError(
                "focal search needs xi'(from_t)=0, xi(from_t)=1; "
                "got (%g, %g)" % (v, dv))
    return [z for z in fld.zeros if z > from_t + 1e-9]


@dataclass
class RiccatiTrace:
    """omega = xi'/xi sampled along the field's trajectory, with the flow's
    (u, p) at the same samples of the same joint run."""

    t: np.ndarray
    u: np.ndarray
    p: np.ndarray
    omega: np.ndarray  # nan where xi vanishes at a sample
    blowups: list[float] = field(default_factory=list)


def riccati_from_jacobi(fld: JacobiField) -> RiccatiTrace:
    """The trace on the sample grid of the field's span; xi's zeros mark its blow-ups."""
    ts = _sample_grid(fld.t_min, fld.t_max)
    u, p, xi, xidot = fld.sol(ts)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = xidot / xi
    omega = np.where(np.isfinite(omega), omega, np.nan)
    return RiccatiTrace(t=ts, u=u, p=p, omega=omega, blowups=list(fld.zeros))


def riccati_blowup_window(omega0: float, B: float,
                          t0: float) -> Optional[tuple[float, float]]:
    """Blow-up window for dω/dt <= B^2 - ω^2 when |ω0| > B, else None.

    Delta = (1/2B) ln((ω0-B)/(ω0+B)); for ω0 > B the blow-up is backward in
    (t0+Delta, t0), for ω0 < -B forward in (t0, t0+Delta).  The equality ODE
    blows up exactly at t0 + Delta.
    """
    if B <= 0:
        raise InvalidParameterError("B must be positive")
    if abs(omega0) <= B:
        return None
    delta = math.log((omega0 - B) / (omega0 + B)) / (2.0 * B)
    if omega0 > B:
        return (t0 + delta, t0)
    return (t0, t0 + delta)


def omega_region_bound(s, K: float, T: float, U: float) -> tuple[float, float]:
    """Case-matched bounds on omega at a PhaseState (see _region_bound)."""
    lo, hi = _region_bound(s.u, s.p, s.t, K, T, U)
    return float(lo), float(hi)


def _region_bound(u, p, t, K: float, T: float, U: float):
    """Case-matched (lower, upper) bounds on omega for states outside the
    strip, elementwise over arrays u, p, t.

    Cases where the backward free line never touches the support give (0, 0)
    exactly; lines entering the strip at time t~ give [0, K e^{t~}).  States
    matching no case fall back to the global bounds |omega| <= K e^T and,
    for t > T, 0 <= omega < 1/(t - T).  The first matching case wins.
    """
    u, p, t = (np.asarray(x, float) for x in (u, p, t))
    cap, early = K * math.exp(T), t <= T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        free = np.where(early, ((p <= 0) & (u > U - p * (T - t)))
                        | ((p >= 0) & (u < -U - p * (T - t))),
                        ((u < -U) & (p >= 0)) | ((u > U) & (p <= 0)))
        above = (p > 0) & np.where(early, u > U, u > U + p * (t - T))
        below = (p < 0) & np.where(early, u < -U, u < -U + p * (t - T))
        hi = np.select([free, above, below],
                       [0.0, K * np.exp(t - (u - U) / p), K * np.exp(t + (-U - u) / p)], cap)
        hi = np.where(early, hi, np.minimum(hi, 1.0 / (t - T)))
    lo = np.where(early & ~(free | above | below), -cap, 0.0)
    return lo, hi


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _lower_envelopes(K: float, tau0) -> np.ndarray:
    """certified_lower_envelope at each tau0 < 0 of a 1-D array: the minimum
    of each row of a 200-point grid, its bracket refined by golden section,
    and the smaller of the two, each B coth(B d) at a tau1 in (tau0, 0)."""
    tau0 = np.asarray(tau0, float)

    def term(tau1):  # B coth(B d), d = tau1 - tau0, with its limit 1/d as B d -> 0
        B, d = K * np.exp(tau1), tau1 - tau0[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(B * d < 1e-8, 1.0 / d, B / np.tanh(B * d))

    taus = np.linspace(tau0 + 1e-6 * np.abs(tau0), -1e-12, 200, axis=1)
    vals = term(taus)
    i = np.argmin(vals, axis=1)[:, None]
    a = np.take_along_axis(taus, np.maximum(i - 1, 0), 1)
    b = np.take_along_axis(taus, np.minimum(i + 1, taus.shape[1] - 1), 1)
    for _ in range(48):  # each step shrinks the brackets by _GOLDEN, all 48 by ~1e-10
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        a, b = np.where(term(c) < term(d), (a, d), (c, b))
    return -np.minimum(np.take_along_axis(vals, i, 1), term(0.5 * (a + b)))[:, 0]


def certified_lower_envelope(K: float, tau0: float) -> float:
    """Certified lower bound on omega at time tau0 < 0 for conjugate-point-free
    solutions: the best comparison bound -min over tau1 in (tau0, 0) of
    B coth(B (tau1 - tau0)), B = K e^{tau1}."""
    if tau0 >= 0:
        raise InvalidParameterError("envelope applies to tau0 < 0")
    return float(_lower_envelopes(K, [tau0])[0])


@dataclass
class RiccatiBoundsReport:
    t: np.ndarray
    omega: np.ndarray
    uniform_margin: np.ndarray        # K e^T - |omega|
    tail_ok: bool                     # 0 <= omega < 1/(t-T) for t > T
    envelope_margin: np.ndarray       # omega - certified lower envelope (t < 0)
    region_ok: bool                   # case-matched bounds at every sample
    decay_rate_coeff: float           # empirical sup of -envelope * e^{-t/4}
    all_ok: bool


def riccati_bounds_check(trace: RiccatiTrace, w: Potential) -> RiccatiBoundsReport:
    """Check the uniform, tail, region and certified-envelope bounds on omega.

    Requires a blow-up-free trace; each bound holds to within _BOUND_TOL.
    The region bounds are read at the trace's own (u, p).  The certified
    comparison envelope is authoritative for the lower bound at t < 0; the
    e^{t/4} decay rate is reported informationally only.
    """
    if trace.blowups:
        raise InapplicableError("trace has blow-up markers; bounds do not apply")
    K, T = w.k_curvature, w.t_upper
    if K is None:
        raise InvalidParameterError("the bounds need the curvature constant K: "
                                    "pass the potential through to_log_form")
    cap = K * math.exp(T)
    t = trace.t
    om = trace.omega
    uniform_margin = cap - np.abs(om)

    tail = t > T + 1e-12
    tail_ok = bool(np.all(om[tail] >= -_BOUND_TOL)
                   and np.all(om[tail] < 1.0 / (t[tail] - T) + _BOUND_TOL))

    env = np.full_like(om, -cap)
    neg = t < -1e-9
    env[neg] = np.maximum(_lower_envelopes(K, t[neg]), -cap)
    envelope_margin = om - env

    lo, hi = _region_bound(trace.u, trace.p, t, K, T, w.u_bound)
    region_ok = bool(np.all((lo - _BOUND_TOL <= om) & (om <= hi + _BOUND_TOL)))

    rate = float(np.max(-env[neg] * np.exp(-t[neg] / 4.0), initial=0.0))

    all_ok = bool(np.all(uniform_margin >= -_BOUND_TOL) and tail_ok
                  and np.all(envelope_margin >= -_BOUND_TOL) and region_ok)
    return RiccatiBoundsReport(t=t, omega=om, uniform_margin=uniform_margin,
                               tail_ok=tail_ok, envelope_margin=envelope_margin,
                               region_ok=region_ok, decay_rate_coeff=rate,
                               all_ok=all_ok)


def nonvanishing_field(traj: Trajectory,
                       cfg: Optional[IntegratorConfig] = None) -> JacobiField:
    """The canonical candidate non-vanishing field: xi = 1, xi' = 0 imposed
    before the trajectory first enters the support strip (free motion keeps
    it constant there), integrated forward in log form."""
    cfg = cfg or traj.cfg
    return integrate_jacobi(traj, 1.0, 0.0, mode="log-form", cfg=cfg,
                            t_init=traj.t_min)


def is_disconjugate(traj: Trajectory,
                    cfg: Optional[IntegratorConfig] = None) -> bool:
    """Whole-line disconjugacy test: the canonical field never vanishes and
    leaves the strip with omega >= 0, so it stays positive under the exact
    free decay omega' = -omega^2 for all later times."""
    fld = nonvanishing_field(traj, cfg)
    if fld.zeros:
        return False
    omega_end = float(fld.derivative(traj.t_max) / fld.value(traj.t_max))
    return omega_end >= -_BOUND_TOL
