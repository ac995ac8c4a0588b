import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.integrate import solve_ivp

from minfol.errors import ContractViolationError, InvalidParameterError
from minfol import jacobi
from minfol.jacobi import (_lower_envelopes, _region_bound,
                           certified_lower_envelope, find_vanishing,
                           integrate_jacobi, is_disconjugate,
                           nonvanishing_field, omega_region_bound,
                           riccati_blowup_window, riccati_bounds_check,
                           riccati_from_jacobi)
from minfol.odeflow import (IntegratorConfig, LegSolution, PhaseState, Trajectory,
                            integrate_hamiltonian)

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)


def _constant_coefficient_log(sign=1.0):
    """Synthetic potential with e^{2t} W''_uu = sign, so the linearized
    equation is xi'' + sign * xi = 0 along any trajectory."""
    w = SimpleNamespace(
        w=lambda u, t: np.zeros_like(np.asarray(u, float) * np.asarray(t, float)),
        dw_du=lambda u, t: np.zeros_like(np.asarray(u, float) * np.asarray(t, float)),
        d2w_duu=lambda u, t: sign * np.exp(-2.0 * np.asarray(t, float))
        * np.ones_like(np.asarray(u, float)),
        dw_dt=lambda u, t: np.zeros_like(np.asarray(u, float) * np.asarray(t, float)),
        u_bound=50.0, t_upper=50.0, t_lower=-50.0, k_curvature=1.0)
    views = (w.w, w.dw_du, w.d2w_duu, w.dw_dt)
    w.jet = lambda u, t, orders: [views[o](u, t) for o in orders]
    return w


def _trajectory(w, t0=0.0, t1=20.0, u0=0.0, p0=0.0):
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13, t_range=(t0, t1))
    return integrate_hamiltonian(w, PhaseState(u=u0, p=p0, t=t0), cfg)


class TestOscillation:
    def test_sine_zero_spacing(self):
        traj = _trajectory(_constant_coefficient_log(+1.0))
        fld = integrate_jacobi(traj, 0.0, 1.0, mode="log-form", cfg=TIGHT,
                               t_init=0.0)
        zeros = np.asarray(fld.zeros)
        assert len(zeros) >= 5
        assert np.max(np.abs(np.diff(zeros) - math.pi)) < 1e-8
        positive = zeros[zeros > 1e-9]
        assert positive[0] == pytest.approx(math.pi, abs=1e-8)

    def test_sturm_interlacing(self):
        traj = _trajectory(_constant_coefficient_log(+1.0))
        f1 = integrate_jacobi(traj, 0.0, 1.0, mode="log-form", cfg=TIGHT,
                              t_init=0.0)
        f2 = integrate_jacobi(traj, 1.0, 0.0, mode="log-form", cfg=TIGHT,
                              t_init=0.0)
        z1, z2 = sorted(f1.zeros), sorted(f2.zeros)
        # between consecutive zeros of one solution lies exactly one of the other
        for a, b in zip(z1, z1[1:]):
            inside = [z for z in z2 if a < z < b]
            assert len(inside) == 1

    def test_nonpositive_curvature_never_oscillates(self):
        traj = _trajectory(_constant_coefficient_log(-1.0), t1=10.0)
        fld = integrate_jacobi(traj, 1.0, 0.0, mode="log-form", cfg=TIGHT,
                               t_init=0.0)
        assert fld.zeros == []

    def test_conjugate_normalization_contract(self):
        traj = _trajectory(_constant_coefficient_log(+1.0), t1=5.0)
        fld = integrate_jacobi(traj, 0.5, 1.0, mode="log-form", cfg=TIGHT,
                               t_init=0.0)
        with pytest.raises(ContractViolationError):
            find_vanishing(fld, "conjugate", 0.0)

    def test_find_vanishing_focal(self):
        traj = _trajectory(_constant_coefficient_log(+1.0), t1=10.0)
        fld = integrate_jacobi(traj, 1.0, 0.0, mode="log-form", cfg=TIGHT,
                               t_init=0.0)
        zeros = find_vanishing(fld, "focal", 0.0)
        # cos(t): first zero at pi/2
        assert zeros[0] == pytest.approx(math.pi / 2.0, abs=1e-8)


class TestRadialForm:
    def test_radial_and_log_forms_agree_at_n2(self, weak_pot, weak_log):
        from minfol.odeflow import integrate_radial_ivp

        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                               t_range=(math.log(0.5), math.log(6.0)))
        traj = integrate_radial_ivp(weak_pot, 2, 0.5, 0.1, 0.0, cfg,
                                    w=weak_log)
        f_log = integrate_jacobi(traj, 1.0, 0.0, mode="log-form", cfg=TIGHT,
                                 t_init=traj.t_min)
        f_rad = integrate_jacobi(traj, 1.0, 0.0, mode="radial-form", cfg=TIGHT,
                                 t_init=traj.t_min)
        for t in np.linspace(traj.t_min, traj.t_max, 20):
            assert float(f_log.value(t)) == pytest.approx(
                float(f_rad.value(t)), abs=1e-9)


class TestRiccati:
    def test_blowup_window_closed_form(self):
        lo, hi = riccati_blowup_window(-2.0, 1.0, 0.0)
        assert lo == 0.0
        assert hi == pytest.approx(0.5 * math.log(3.0), abs=1e-15)

    def test_no_blowup_inside_band(self):
        assert riccati_blowup_window(0.5, 1.0, 0.0) is None

    def test_invalid_b(self):
        with pytest.raises(InvalidParameterError):
            riccati_blowup_window(-2.0, 0.0, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(b=st.floats(0.2, 4.0), excess=st.floats(0.05, 4.0))
    def test_equality_ode_blows_up_at_window_end(self, b, excess):
        omega0 = -(b + excess)
        _, t_star = riccati_blowup_window(omega0, b, 0.0)

        def rhs(t, y):
            return (b * b - y[0] * y[0],)

        def blown(t, y):
            return abs(y[0]) - 1e8
        blown.terminal = True
        blown.direction = 1
        res = solve_ivp(rhs, (0.0, t_star + 1.0), (omega0,), method="DOP853",
                        rtol=1e-12, atol=1e-12, events=blown)
        assert res.t_events[0].size == 1
        # past the 1e8 cap the remaining time to blow-up is ~1e-8
        t_numeric = float(res.t_events[0][0]) + 1e-8
        assert abs(t_numeric - t_star) < 1e-6

    def test_region_bounds_are_ordered(self, weak_log):
        K, T, U = weak_log.k_curvature, weak_log.t_upper, weak_log.u_bound
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = PhaseState(u=rng.uniform(-3, 3), p=rng.uniform(-2, 2),
                           t=rng.uniform(-4, T + 3))
            lo, hi = omega_region_bound(s, K, T, U)
            assert lo <= hi

    def test_past_support_upper_bound(self, weak_log):
        K, T, U = weak_log.k_curvature, weak_log.t_upper, weak_log.u_bound
        s = PhaseState(u=0.0, p=0.0, t=T + 2.0)
        lo, hi = omega_region_bound(s, K, T, U)
        assert hi <= 1.0 / 2.0 + 1e-12
        assert lo >= 0.0 - 1e-12

    def test_certified_envelope_is_a_lower_bound(self):
        # against direct integration of the worst-case comparison equation
        K = 0.3
        for tau0 in (-0.5, -1.5, -3.0):
            env = certified_lower_envelope(K, tau0)
            assert env < 0.0 and math.isfinite(env)

    def test_certified_envelope_monotone(self):
        K = 0.3
        vals = [certified_lower_envelope(K, tau0)
                for tau0 in (-0.25, -1.0, -2.5, -5.0)]
        # deeper into the past the bound relaxes toward 0
        assert all(a <= b for a, b in zip(vals, vals[1:])) or \
            all(abs(v) < 1.0 for v in vals)


def _coth_term(K, tau1, tau0):
    """B coth(B (tau1 - tau0)), B = K e^{tau1}, with its limit 1/d as B d -> 0."""
    B, d = K * np.exp(tau1), tau1 - tau0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(B * d < 1e-8, 1.0 / d, B / np.tanh(B * d))


@pytest.mark.parametrize("name", ["flat_log", "weak_log", "strong_log", "scaling_log"])
def test_envelope_is_the_attained_comparison_minimum(request, name):
    K = request.getfixturevalue(name).k_curvature
    taus = -np.geomspace(1e-4, 60.0, 300)
    env = _lower_envelopes(K, taus)
    for j, tau0 in enumerate(taus):
        tau1 = np.linspace(tau0 + 1e-6 * abs(tau0), -1e-12, 200_000)
        f = _coth_term(K, tau1, tau0)
        i = int(np.argmin(f))
        assert -env[j] == pytest.approx(f[i], rel=1e-9)
        # f -> inf as tau1 -> tau0 and f is continuous, so -env is a value of f
        # on (tau0, 0) unless it lies below f's minimum there
        ref = optimize.minimize_scalar(lambda x: float(_coth_term(K, x, tau0)),
                                       bounds=(tau1[max(i - 1, 0)], tau1[min(i + 1, 199_999)]),
                                       method="bounded", options={"xatol": 1e-13})
        assert -env[j] >= min(f[i], ref.fun) * (1.0 - 4e-16)
        if j % 30 == 0:
            assert certified_lower_envelope(K, float(tau0)) == env[j]


def test_jacobi_imports_no_scipy():
    tree = ast.parse(Path(jacobi.__file__).read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "scipy"]


class TestDisconjugacy:
    def test_flat_is_disconjugate(self, flat_log):
        traj = _trajectory(flat_log, t0=-3.0, t1=6.0, u0=0.2, p0=0.05)
        assert is_disconjugate(traj)

    def test_strong_bump_is_not(self, strong_log):
        traj = _trajectory(strong_log, t0=-2.0, t1=strong_log.t_upper + 10.0)
        assert not is_disconjugate(traj)

    def test_bounds_report_on_weak_bump(self, weak_log):
        traj = _trajectory(weak_log, t0=-2.0, t1=weak_log.t_upper + 5.0,
                           u0=0.1, p0=0.0)
        fld = nonvanishing_field(traj, TIGHT)
        trace = riccati_from_jacobi(fld)
        rep = riccati_bounds_check(trace, weak_log)
        assert rep.all_ok
        assert rep.tail_ok and rep.region_ok
        assert np.all(rep.uniform_margin >= -1e-9)

    def test_trace_reads_the_flow_of_its_own_joint_run(self, weak_log, monkeypatch):
        # (u, p) are the bits of the run that gives omega, and the bounds
        # check evaluates no trajectory or run of its own
        traj = _trajectory(weak_log, t0=-2.0, t1=weak_log.t_upper + 5.0,
                           u0=0.1, p0=0.0)
        fld = nonvanishing_field(traj, TIGHT)
        trace = riccati_from_jacobi(fld)
        u, p = fld.sol(trace.t)[:2]
        assert trace.u.tobytes() == u.tobytes() and trace.p.tobytes() == p.tobytes()

        def forbidden(*args):
            raise AssertionError("the bounds check evaluated a run")
        monkeypatch.setattr(Trajectory, "state", forbidden)
        monkeypatch.setattr(LegSolution, "__call__", forbidden)
        assert riccati_bounds_check(trace, weak_log).region_ok

    def test_bounds_need_the_curvature_constant(self, weak_pot):
        # a potential that did not pass through to_log_form has K = None
        assert weak_pot.k_curvature is None
        traj = _trajectory(weak_pot, t0=-2.0, t1=weak_pot.t_upper + 5.0,
                           u0=0.1, p0=0.0)
        trace = riccati_from_jacobi(nonvanishing_field(traj, TIGHT))
        with pytest.raises(InvalidParameterError, match="to_log_form"):
            riccati_bounds_check(trace, weak_pot)


class TestFreeField:
    def test_free_jacobi_field_is_affine(self, flat_log):
        traj = _trajectory(flat_log, t0=0.0, t1=8.0, u0=3.0, p0=0.0)
        fld = integrate_jacobi(traj, 0.0, 1.0, mode="log-form", cfg=TIGHT,
                               t_init=0.0)
        for t in np.linspace(0.5, 8.0, 10):
            assert float(fld.value(t)) == pytest.approx(t, abs=1e-10)
        assert [z for z in fld.zeros if z > 1e-9] == []


class TestRefinementOracle:
    def test_zero_locations_against_finer_reference(self, strong_log):
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-9,
                               t_range=(-2.0, strong_log.t_upper + 4.0))
        traj = integrate_hamiltonian(strong_log,
                                     PhaseState(u=0.0, p=0.0, t=-2.0), cfg)
        fld = integrate_jacobi(traj, 0.0, 1.0, mode="log-form", cfg=cfg,
                               t_init=-2.0)
        ref_cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10,
                                   t_range=cfg.t_range)
        ref = integrate_jacobi(traj, 0.0, 1.0, mode="log-form", cfg=ref_cfg,
                               t_init=-2.0)
        assert len(fld.zeros) == len(ref.zeros)
        for a, b in zip(fld.zeros, ref.zeros):
            assert abs(a - b) < 1e-6


class TestRiccatiResidual:
    def test_omega_satisfies_riccati_equation(self, weak_log):
        traj = _trajectory(weak_log, t0=-2.0, t1=weak_log.t_upper + 2.0,
                           u0=0.05, p0=0.0)
        fld = nonvanishing_field(traj, TIGHT)

        def omega(t):
            return float(fld.derivative(t)) / float(fld.value(t))

        h = 1e-3
        for t in np.linspace(traj.t_min + 2 * h, traj.t_max - 2 * h, 40):
            dom = (-omega(t + 2 * h) + 8 * omega(t + h) - 8 * omega(t - h)
                   + omega(t - 2 * h)) / (12 * h)
            u, _ = traj.state(float(t))
            coeff = math.exp(2.0 * t) * float(weak_log.d2w_duu(u, t))
            assert abs(dom + omega(t) ** 2 + coeff) < 1e-6


def _region_reference(u, p, t, K, T, U):
    """The case-by-case bounds on scalars: (case, lower, upper)."""
    cap = K * math.exp(T)
    if t <= T:
        if p <= 0 and u > U - p * (T - t):
            return "free-above", 0.0, 0.0
        if p >= 0 and u < -U - p * (T - t):
            return "free-below", 0.0, 0.0
        if u > U and p > 0:
            return "enters-above", 0.0, K * math.exp(t - (u - U) / p)
        if u < -U and p < 0:
            return "enters-below", 0.0, K * math.exp(t + (-U - u) / p)
        return "fallback", -cap, cap
    if (u < -U and p >= 0) or (u > U and p <= 0):
        return "late-free", 0.0, 0.0
    if p > 0 and u > U + p * (t - T):
        return "late-above", 0.0, min(K * math.exp(t - (u - U) / p), 1.0 / (t - T))
    if p < 0 and u < -U + p * (t - T):
        return "late-below", 0.0, min(K * math.exp(t + (-U - u) / p), 1.0 / (t - T))
    return "late-fallback", 0.0, min(cap, 1.0 / (t - T))


class TestRegionCases:
    @pytest.mark.parametrize("name", ["weak_log", "strong_log", "scaling_log"])
    def test_array_bounds_equal_the_case_chain(self, request, name):
        w = request.getfixturevalue(name)
        K, T, U = w.k_curvature, w.t_upper, w.u_bound
        rng = np.random.default_rng(11)
        u = rng.uniform(-3.0 * U, 3.0 * U, 3000)
        p = rng.uniform(-2.0, 2.0, 3000)
        t = rng.uniform(T - 4.0, T + 3.0, 3000)
        p[::7], t[::11], u[::13] = 0.0, T, U
        lo, hi = _region_bound(u, p, t, K, T, U)
        cases = set()
        for j in range(len(u)):
            case, ref_lo, ref_hi = _region_reference(u[j], p[j], t[j], K, T, U)
            cases.add(case)
            assert lo[j] == ref_lo
            assert hi[j] == pytest.approx(ref_hi, rel=1e-15, abs=0.0)
            s = PhaseState(u=float(u[j]), p=float(p[j]), t=float(t[j]))
            assert omega_region_bound(s, K, T, U) == (lo[j], hi[j])
        assert len(cases) == 9


    def test_above_strip_at_rest_is_free(self, weak_log):
        K, T, U = weak_log.k_curvature, weak_log.t_upper, weak_log.u_bound
        lo, hi = omega_region_bound(
            PhaseState(u=2.0 * U, p=0.0, t=T - 1.0), K, T, U)
        assert (lo, hi) == (0.0, 0.0)

    def test_below_strip_past_support_is_free(self, weak_log):
        K, T, U = weak_log.k_curvature, weak_log.t_upper, weak_log.u_bound
        lo, hi = omega_region_bound(
            PhaseState(u=-2.0 * U, p=0.5, t=T + 1.0), K, T, U)
        assert (lo, hi) == (0.0, 0.0)

    def test_approaching_strip_from_above(self, weak_log):
        K, T, U = weak_log.k_curvature, weak_log.t_upper, weak_log.u_bound
        t = T - 1.0
        lo, hi = omega_region_bound(
            PhaseState(u=U + 1.0, p=1.0, t=t), K, T, U)
        assert lo == 0.0
        assert hi == pytest.approx(K * math.exp(t - 1.0), rel=1e-12)

    def test_backward_blowup_window(self):
        lo, hi = riccati_blowup_window(2.0, 1.0, 0.0)
        assert hi == 0.0
        assert lo == pytest.approx(-0.5 * math.log(3.0), abs=1e-15)
