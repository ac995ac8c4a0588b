import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from minfol.catalog import (certified_bump, flat, scaling_bump, strong_bump,
                            weak_bump)
from minfol.odeflow import (_STRIP_STEPS, IntegratorConfig, SupportEvent, _free,
                            _joint_zeros)
from minfol.potential import to_log_form

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)


@pytest.fixture(scope="session")
def flat_pot():
    return flat()


@pytest.fixture(scope="session")
def weak_pot():
    return weak_bump()


@pytest.fixture(scope="session")
def strong_pot():
    return strong_bump()


@pytest.fixture(scope="session")
def scaling_pot():
    return scaling_bump()


@pytest.fixture(scope="session")
def certified_pot():
    return certified_bump(n=3, safety=0.9)


@pytest.fixture(scope="session")
def flat_log(flat_pot):
    return to_log_form(flat_pot)


@pytest.fixture(scope="session")
def weak_log(weak_pot):
    return to_log_form(weak_pot)


@pytest.fixture(scope="session")
def strong_log(strong_pot):
    return to_log_form(strong_pot)


@pytest.fixture(scope="session")
def scaling_log(scaling_pot):
    return to_log_form(scaling_pot)


class ScipyLegs:
    """The reference for minfol's own stepper: one three-leg run with its
    strip leg solved by scipy's solve_ivp (DOP853, scalar callbacks, dense
    output, a sign-change event). Callable on times like `LegSolution`, with
    the strip's step times `ts`, the zeros of xi of a joint run and the
    support events of a flow run."""

    def __init__(self, w, t0, y0, t_end, cfg, damping):
        y0 = np.asarray(y0, dtype=float)
        direction = 1.0 if t_end >= t0 else -1.0
        lo, hi = min(t0, t_end), max(t0, t_end)
        a, b = (min(max(x, lo), hi) for x in (w.t_lower, w.t_upper))
        t_in, t_out = (a, b) if direction > 0 else (b, a)
        y_in = _free(y0, t_in - t0, damping)
        d_u, d_xi = damping[0], damping[-1]

        if len(y0) == 4:
            def rhs(t, y):
                e2 = math.exp(2.0 * t)
                du, duu = w.jet(y[0], t, (1, 2))
                return (y[1], -d_u * y[1] - e2 * du, y[3], -d_xi * y[3] - e2 * duu * y[2])

            def event(t, y):
                return y[2]
        else:
            def rhs(t, y):
                return (y[1], -d_u * y[1] - math.exp(2.0 * t) * float(w.dw_du(y[0], t)))

            def event(t, y):
                return abs(y[0]) - w.u_bound

        self.strip, self.ts, self.y_out, hits = None, np.array([t_in]), y_in, []
        if t_in != t_out:
            res = solve_ivp(rhs, (t_in, t_out), y_in, method="DOP853",
                            dense_output=True, rtol=cfg.rel_tol, atol=cfg.abs_tol,
                            max_step=min(cfg.max_step, (w.t_upper - w.t_lower) / _STRIP_STEPS),
                            events=event)
            assert res.success, res.message
            self.strip, self.ts, self.y_out = res.sol, res.t, res.y[:, -1]
            hits = list(zip(res.t_events[0], res.y_events[0]))
        self.t0, self.y0, self.direction = t0, y0, direction
        self.t_in, self.t_out, self.damping = t_in, t_out, tuple(damping)
        self.zeros, self.events = [], []
        if len(y0) == 4:
            self.zeros = _joint_zeros(t0, y0, t_in, t_out, self.y_out, t_end, d_xi,
                                      [float(t) for t, _ in hits])
        else:
            self.events = [SupportEvent(t=float(t), kind="enter" if y[0] * y[1] < 0 else "exit")
                           for t, y in hits]
            for t_b, kind in ((w.t_lower, "enter"), (w.t_upper, "exit")):
                if lo <= t_b <= hi and abs(float(self(t_b)[0])) < w.u_bound:
                    self.events.append(SupportEvent(t=t_b, kind=kind))
            self.events.sort(key=lambda ev: ev.t)

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


@pytest.fixture(scope="session")
def scipy_legs():
    """The scipy oracle of one three-leg run: ScipyLegs(w, t0, y0, t_end,
    cfg, damping)."""
    return ScipyLegs
