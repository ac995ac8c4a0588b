"""Linearized fields along trajectories, conjugate points and Riccati bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import optimize

from .errors import ContractViolationError, InapplicableError, InvalidParameterError
from .odeflow import IntegratorConfig, LegSolution, Trajectory, _sample_grid, integrate_legs
from .potential import Potential


@dataclass
class JacobiField:
    """Solution of the linearized equation along a reference trajectory."""

    traj: Trajectory
    mode: str  # "log-form" | "radial-form"
    t_init: float
    xi0: float
    dxi0: float
    sol: LegSolution  # the joint run (u, p, xi, xi')
    t: np.ndarray
    xi: np.ndarray
    xidot: np.ndarray
    zeros: list[float] = field(default_factory=list)

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
    ts = _sample_grid(lo, hi)
    run = integrate_legs(traj.w, t_init, [[float(u)], [float(p)], [xi0], [dxi0]], t_end,
                         cfg, (traj.damping, damping), [ts])
    run.raise_failure()
    sol, ys = run.runs[0], run.samples[0]
    return JacobiField(traj=traj, mode=mode, t_init=t_init, xi0=xi0, dxi0=dxi0,
                       sol=sol, t=ts, xi=ys[2], xidot=ys[3], zeros=sol.zeros)


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
    return [z for z in fld.zeros if z > from_t + max(fld.traj.cfg.event_tol, 1e-9)]


@dataclass
class RiccatiTrace:
    """omega = xi'/xi sampled along the field's trajectory."""

    fld: JacobiField
    t: np.ndarray
    omega: np.ndarray  # nan where xi vanishes at a sample
    blowups: list[float] = field(default_factory=list)


def riccati_from_jacobi(fld: JacobiField) -> RiccatiTrace:
    """Build the Riccati trace; the zeros of xi are its blow-up markers."""
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = fld.xidot / fld.xi
    omega = np.where(np.isfinite(omega), omega, np.nan)
    return RiccatiTrace(fld=fld, t=fld.t, omega=omega, blowups=list(fld.zeros))


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
    return _region_bound(s.u, s.p, s.t, K, T, U)


def _region_bound(u: float, p: float, t: float, K: float, T: float,
                  U: float) -> tuple[float, float]:
    """Case-matched (lower, upper) bounds on omega for states outside the strip.

    Cases where the backward free line never touches the support give (0, 0)
    exactly; lines entering the strip at time t~ give [0, K e^{t~}).  States
    matching no case fall back to the global bounds |omega| <= K e^T and,
    for t > T, 0 <= omega < 1/(t - T).
    """
    cap = K * math.exp(T)
    if t <= T:
        if p <= 0 and u > U - p * (T - t):
            return (0.0, 0.0)
        if p >= 0 and u < -U - p * (T - t):
            return (0.0, 0.0)
        if u > U and p > 0:
            return (0.0, K * math.exp(t - (u - U) / p))
        if u < -U and p < 0:
            return (0.0, K * math.exp(t + (-U - u) / p))
        return (-cap, cap)
    # t > T
    if (u < -U and p >= 0) or (u > U and p <= 0):
        return (0.0, 0.0)
    if p > 0 and u > U + p * (t - T):
        return (0.0, min(K * math.exp(t - (u - U) / p), 1.0 / (t - T)))
    if p < 0 and u < -U + p * (t - T):
        return (0.0, min(K * math.exp(t + (-U - u) / p), 1.0 / (t - T)))
    return (0.0, min(cap, 1.0 / (t - T)))


def _envelope_term(K: float, tau1: float, d: float) -> float:
    """B coth(B d) with B = K e^{tau1}; continuous limit 1/d as B -> 0."""
    B = K * math.exp(tau1)
    x = B * d
    if x < 1e-8:
        return 1.0 / d if d > 0 else math.inf
    return B / math.tanh(x)


def certified_lower_envelope(K: float, tau0: float, n_grid: int = 200) -> float:
    """Certified lower bound on omega at time tau0 < 0 for conjugate-point-free
    solutions: the best comparison bound -min over tau1 in (tau0, 0) of
    B coth(B (tau1 - tau0)), B = K e^{tau1}."""
    if tau0 >= 0:
        raise InvalidParameterError("envelope applies to tau0 < 0")
    taus = np.linspace(tau0 + 1e-6 * abs(tau0), -1e-12, n_grid)
    vals = [_envelope_term(K, float(x), float(x) - tau0) for x in taus]
    i = int(np.argmin(vals))
    lo = taus[max(i - 1, 0)]
    hi = taus[min(i + 1, n_grid - 1)]
    res = optimize.minimize_scalar(lambda x: _envelope_term(K, x, x - tau0),
                                   bounds=(float(lo), float(hi)), method="bounded")
    return -min(float(res.fun), float(vals[i]))


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


def riccati_bounds_check(trace: RiccatiTrace, w: Potential,
                         tol: float = 1e-9) -> RiccatiBoundsReport:
    """Check the uniform, tail, region and certified-envelope bounds on omega.

    Requires a blow-up-free trace.  The certified comparison envelope is
    authoritative for the lower bound at t < 0; the e^{t/4} decay rate is
    reported informationally only.
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
    tail_ok = bool(np.all(om[tail] >= -tol)
                   and np.all(om[tail] < 1.0 / (t[tail] - T) + tol))

    env = np.full_like(om, -cap)
    neg = t < -1e-9
    for i in np.flatnonzero(neg):
        env[i] = max(certified_lower_envelope(K, float(t[i])), -cap)
    envelope_margin = om - env

    region_ok = True
    for uu, pp, tt, o in zip(*trace.fld.traj.state(t), t, om):
        lo, hi = _region_bound(float(uu), float(pp), float(tt), K, T, w.u_bound)
        if not (lo - tol <= o <= hi + tol):
            region_ok = False
            break

    rate = 0.0
    for i in np.flatnonzero(neg):
        rate = max(rate, -env[i] * math.exp(-t[i] / 4.0))

    all_ok = bool(np.all(uniform_margin >= -tol) and tail_ok
                  and np.all(envelope_margin >= -tol) and region_ok)
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
                    cfg: Optional[IntegratorConfig] = None,
                    tol: float = 1e-9) -> bool:
    """Whole-line disconjugacy test: the canonical field never vanishes and
    leaves the strip with omega >= 0, so it stays positive under the exact
    free decay omega' = -omega^2 for all later times."""
    fld = nonvanishing_field(traj, cfg)
    if fld.zeros:
        return False
    omega_end = float(fld.derivative(traj.t_max) / fld.value(traj.t_max))
    return omega_end >= -tol
