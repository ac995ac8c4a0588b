"""Phase flow of the radial equation in log time and its verification tools.

Everything is integrated in t = ln r, so the (n-1)/r coordinate singularity
never appears: the second-order equation becomes
    u'' + (n-2) u' + e^{2t} W'_u(u, t) = 0,
which for n = 2 is the Hamiltonian system (u' = p, p' = -e^{2t} W'_u).
Outside the support strip the force evaluators are exactly zero, so explicit
Runge-Kutta steps reproduce free motion to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationFailureError, InsufficientRangeError, InvalidParameterError
from .potential import Potential, to_log_form


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
        return IntegratorConfig(rel_tol=self.rel_tol / 2, abs_tol=self.abs_tol / 2,
                                max_step=self.max_step, t_range=self.t_range,
                                event_tol=self.event_tol)


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


# dense sample spacing for event scans and exported sample grids
_SCAN_DX = 1e-2


@dataclass
class Trajectory:
    """Dense solution of the log-time flow, with support entry/exit events."""

    n: int
    w: Potential
    damping: float
    sol: object  # scipy OdeSolution over [t_min, t_max]
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

    def du_dr(self, r):
        r = np.asarray(r, float)
        return self.state(np.log(r))[1] / r

    def first_entry(self) -> Optional[float]:
        for ev in self.events:
            if ev.kind == "enter":
                return ev.t
        return None

    def last_exit(self) -> Optional[float]:
        for ev in reversed(self.events):
            if ev.kind == "exit":
                return ev.t
        return None


def _inside_strip(w: Potential, u, t):
    return (np.abs(u) < w.u_bound) & (t < w.t_upper) & (t > w.t_lower)


def _locate_events(w: Potential, sol, t_lo, t_hi, event_tol):
    """Support-box crossings of the dense solution, bisected to event_tol."""
    n_pts = max(int(math.ceil((t_hi - t_lo) / _SCAN_DX)), 8)
    ts = np.linspace(t_lo, t_hi, n_pts + 1)
    inside = _inside_strip(w, sol(ts)[0], ts)
    events = []
    for i in np.flatnonzero(inside[:-1] != inside[1:]):
        a, b = ts[i], ts[i + 1]
        fa = bool(inside[i])
        while b - a > event_tol:
            m = 0.5 * (a + b)
            fm = bool(_inside_strip(w, sol(m)[0], m))
            if fm == fa:
                a = m
            else:
                b = m
        events.append(SupportEvent(t=0.5 * (a + b),
                                   kind="enter" if not fa else "exit"))
    return events


def _sample_grid(t_lo, t_hi):
    n_pts = max(int(math.ceil((t_hi - t_lo) / _SCAN_DX)), 16)
    return np.linspace(t_lo, t_hi, n_pts + 1)


def _run_flow(w: Potential, n: int, t0: float, u0: float, p0: float,
              cfg: IntegratorConfig, t_end: float) -> Trajectory:
    damping = float(n - 2)

    def rhs(t, y):
        force = float(w.dw_du(y[0], t))
        return (y[1], -damping * y[1] - math.exp(2.0 * t) * force)

    res = solve_ivp(rhs, (t0, t_end), (u0, p0), method="DOP853",
                    dense_output=True, rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    max_step=cfg.max_step)
    if not res.success:
        last = PhaseState(u=float(res.y[0, -1]), p=float(res.y[1, -1]),
                          t=float(res.t[-1]))
        raise IntegrationFailureError("integration failed: %s" % res.message,
                                      last_state=last)
    t_lo, t_hi = min(t0, t_end), max(t0, t_end)
    ts = _sample_grid(t_lo, t_hi)
    ys = res.sol(ts)
    events = _locate_events(w, res.sol, t_lo, t_hi, cfg.event_tol)
    return Trajectory(n=n, w=w, damping=damping, sol=res.sol, t=ts,
                      u=ys[0], p=ys[1], events=events, cfg=cfg)


def integrate_hamiltonian(w: Potential, s0: PhaseState,
                          cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Flow of u' = p, p' = -e^{2t} W'_u from the given state (n = 2)."""
    t_end = cfg.t_range[1] if cfg.t_range else w.t_upper + 20.0
    return _run_flow(w, 2, s0.t, s0.u, s0.p, cfg, t_end)


def integrate_radial_ivp(pot: Potential, n: int, r0: float, u0: float,
                         du0: float, cfg: IntegratorConfig = IntegratorConfig(),
                         w: Optional[Potential] = None) -> Trajectory:
    """Radial solution of u'' + (n-1)/r u' + V'_u = 0 from (r0, u0, u'(r0)).

    Integrated in t = ln r with p = r u'; pass a precomputed log form to
    avoid repeating the curvature sup search.
    """
    if r0 <= 0:
        raise InvalidParameterError("r0 must be positive")
    if n < 2:
        raise InvalidParameterError("dimension must be >= 2")
    if w is None:
        w = to_log_form(pot)
    t0 = math.log(r0)
    p0 = r0 * du0
    t_end = cfg.t_range[1] if cfg.t_range else w.t_upper + 20.0
    return _run_flow(w, n, t0, u0, p0, cfg, t_end)


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
    """Jacobian determinant of the time-t flow map via the variational system.

    The flow preserves the Liouville measure dp du, so the exact value is 1.
    """
    t0, t_end = cfg.t_range if cfg.t_range else (s0.t, w.t_upper + 10.0)

    def rhs(t, y):
        u, p, a, b, c, d = y
        coeff = math.exp(2.0 * t) * float(w.d2w_duu(u, t))
        force = math.exp(2.0 * t) * float(w.dw_du(u, t))
        return (p, -force, c, d, -coeff * a, -coeff * b)

    res = solve_ivp(rhs, (t0, t_end), (s0.u, s0.p, 1.0, 0.0, 0.0, 1.0),
                    method="DOP853", rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    max_step=cfg.max_step)
    if not res.success:
        raise IntegrationFailureError("variational integration failed: %s" % res.message)
    a, b, c, d = res.y[2:, -1]
    return float(a * d - b * c)
