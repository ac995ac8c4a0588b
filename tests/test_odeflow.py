import math
import os
from dataclasses import replace

import numpy as np
import pytest

from minfol.errors import InvalidParameterError
from minfol.jacobi import integrate_jacobi
from minfol.odeflow import (IntegratorConfig, PhaseState,
                            asymptotic_match_outer, flow_volume_check,
                            hamiltonian_value, integrate_hamiltonian,
                            integrate_legs, integrate_radial_ivp)

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)


def _free_radial(n, alpha, A, r_lo=0.01, r_hi=100.0):
    from minfol.catalog import flat

    pot = flat()
    r0 = 1.0
    if n == 2:
        u0, du0 = A + alpha * math.log(r0), alpha / r0
    else:
        u0 = alpha / r0 ** (n - 2) + A
        du0 = -(n - 2) * alpha / r0 ** (n - 1)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                           t_range=(math.log(r0), math.log(r_hi)))
    out = integrate_radial_ivp(pot, n, r0, u0, du0, cfg)
    cfg_in = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                              t_range=(math.log(r0), math.log(r_lo)))
    inward = integrate_radial_ivp(pot, n, r0, u0, du0, cfg_in)
    return out, inward


@pytest.mark.parametrize("n,alpha,A", [(3, 0.7, -0.2), (4, -1.1, 0.4)])
def test_free_field_power_law(n, alpha, A):
    out, inward = _free_radial(n, alpha, A)
    for traj in (out, inward):
        rr = np.geomspace(math.exp(traj.t_min), math.exp(traj.t_max), 200)
        exact = alpha / rr ** (n - 2) + A
        got = traj.u_of_r(rr)
        assert np.max(np.abs(got - exact) / (1.0 + np.abs(exact))) < 1e-9


def test_free_field_logarithmic_n2():
    out, inward = _free_radial(2, 0.5, 0.3)
    for traj in (out, inward):
        rr = np.geomspace(math.exp(traj.t_min), math.exp(traj.t_max), 200)
        exact = 0.3 + 0.5 * np.log(rr)
        got = traj.u_of_r(rr)
        assert np.max(np.abs(got - exact) / (1.0 + np.abs(exact))) < 1e-9


def test_hamiltonian_free_motion_is_linear(flat_log):
    s0 = PhaseState(u=-2.0, p=0.3, t=-1.0)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13, t_range=(-1.0, 4.0))
    traj = integrate_hamiltonian(flat_log, s0, cfg)
    for t in np.linspace(-1.0, 4.0, 30):
        u, p = traj.state(float(t))
        assert u == pytest.approx(-2.0 + 0.3 * (t + 1.0), abs=1e-12)
        assert p == pytest.approx(0.3, abs=1e-12)


def test_support_events_detected(weak_log):
    s0 = PhaseState(u=-3.0, p=1.0, t=-2.0)
    cfg = IntegratorConfig(t_range=(-2.0, 4.0))
    traj = integrate_hamiltonian(weak_log, s0, cfg)
    kinds = [ev.kind for ev in traj.sol.events]
    assert "enter" in kinds and "exit" in kinds
    entry = next(ev.t for ev in traj.sol.events if ev.kind == "enter")
    u, _ = traj.state(entry)
    # at entry the state sits on the strip boundary
    assert (abs(abs(u) - weak_log.u_bound) < 1e-6
            or abs(entry - weak_log.t_upper) < 1e-6
            or abs(entry - weak_log.t_lower) < 1e-6)


def test_reversibility(strong_log):
    s0 = PhaseState(u=0.1, p=-0.2, t=-1.0)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13, t_range=(-1.0, 3.0))
    fwd = integrate_hamiltonian(strong_log, s0, cfg)
    u1, p1 = fwd.state(3.0)
    back_cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                                t_range=(3.0, -1.0))
    back = integrate_hamiltonian(strong_log, PhaseState(u=u1, p=p1, t=3.0),
                                 back_cfg)
    u0, p0 = back.state(-1.0)
    assert u0 == pytest.approx(0.1, abs=1e-8)
    assert p0 == pytest.approx(-0.2, abs=1e-8)


def test_self_convergence(strong_log):
    s0 = PhaseState(u=0.0, p=0.1, t=-1.0)
    coarse = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-8, t_range=(-1.0, 2.0))
    fine = coarse.halved()
    tc = integrate_hamiltonian(strong_log, s0, coarse)
    tf = integrate_hamiltonian(strong_log, s0, fine)
    uc, _ = tc.state(2.0)
    uf, _ = tf.state(2.0)
    assert uc == pytest.approx(uf, abs=1e-7)


def test_hamiltonian_value_free(flat_log):
    s = PhaseState(u=0.0, p=0.4, t=0.0)
    assert hamiltonian_value(flat_log, s) == pytest.approx(0.08)


def test_asymptotic_match_roundtrip(weak_pot):
    n, alpha, A = 3, 0.8, -0.1
    r0 = 2.0 * weak_pot.r_outer
    u0 = alpha / r0 + A
    du0 = -alpha / r0 ** 2
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                           t_range=(math.log(r0), math.log(1.5 * r0)))
    traj = integrate_radial_ivp(weak_pot, n, r0, u0, du0, cfg)
    fit = asymptotic_match_outer(traj, n)
    assert fit.alpha == pytest.approx(alpha, abs=1e-6)
    assert fit.A == pytest.approx(A, abs=1e-6)
    assert fit.max_residual < 1e-6


@pytest.mark.parametrize("state", [PhaseState(u=0.0, p=0.1, t=-2.0),
                                   PhaseState(u=-3.0, p=0.8, t=-4.0)])
def test_liouville_volume(strong_log, state):
    det = flow_volume_check(strong_log, state,
                            IntegratorConfig(t_range=(state.t, state.t + 8.0)))
    assert abs(det - 1.0) < 1e-6


def test_invalid_state_rejected():
    with pytest.raises(InvalidParameterError):
        PhaseState(u=float("nan"), p=0.0, t=0.0)


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_tolerances_must_be_positive_and_finite(name, value):
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        IntegratorConfig(**{name: value})


@pytest.mark.parametrize("t_range", [(-2.0, math.nan), (math.nan, 3.0), (-2.0, math.inf),
                                     (-math.inf, 3.0), (1.0, 1.0)],
                         ids=["end-nan", "start-nan", "end-inf", "start-inf", "degenerate"])
def test_t_range_must_be_finite_and_distinct(t_range):
    # a non-finite end would reach the flow: NaN passes an == test
    with pytest.raises(InvalidParameterError, match="finite, distinct"):
        IntegratorConfig(t_range=t_range)


def test_straight_line_outside_strip(weak_log):
    # above the strip with outward momentum past the support: free forever
    t0 = weak_log.t_upper + 0.1
    s0 = PhaseState(u=2.0 * weak_log.u_bound, p=0.5, t=t0)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                           t_range=(t0, t0 + 20.0))
    traj = integrate_hamiltonian(weak_log, s0, cfg)
    for t in np.linspace(t0, t0 + 20.0, 15):
        u, p = traj.state(float(t))
        assert u == pytest.approx(2.0 + 0.5 * (t - t0), abs=1e-10)
        assert p == pytest.approx(0.5, abs=1e-10)


def test_dh_dt_matches_explicit_time_derivative(scaling_log):
    w = scaling_log
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                           t_range=(-1.0, w.t_upper))
    traj = integrate_hamiltonian(w, PhaseState(u=0.1, p=0.05, t=-1.0), cfg)
    h = 1e-5
    for t in np.linspace(-0.5, w.t_upper - 0.1, 10):
        hs = []
        for tt in (t - h, t + h):
            u, p = traj.state(float(tt))
            hs.append(hamiltonian_value(w, PhaseState(u=u, p=p, t=float(tt))))
        dh_dt = (hs[1] - hs[0]) / (2 * h)
        u, _ = traj.state(float(t))
        explicit = math.exp(2.0 * t) * (2.0 * float(w.w(u, t))
                                        + float(w.dw_dt(u, t)))
        assert dh_dt == pytest.approx(explicit, abs=1e-6)


def test_liouville_for_rescaled_hamiltonian(scaling_log):
    from minfol.potential import rescale_log_potential

    wn = rescale_log_potential(scaling_log, 4)
    det = flow_volume_check(wn, PhaseState(u=0.05, p=0.1, t=-5.0),
                            IntegratorConfig(t_range=(-5.0, 5.0)))
    assert abs(det - 1.0) <= 1e-6


def test_strip_leg_is_step_bounded_and_dense_on_arrays(strong_log):
    w = strong_log
    t_end = w.t_upper + 5.0
    cfg = IntegratorConfig(t_range=(-2.0, t_end))
    traj = integrate_hamiltonian(w, PhaseState(u=0.1, p=0.2, t=-2.0), cfg)
    ts = traj.sol.ts
    assert ts[0] == w.t_lower and ts[-1] == w.t_upper
    assert np.max(np.diff(ts)) <= (w.t_upper - w.t_lower) / 8 * (1 + 1e-12)
    grid = np.linspace(-2.0, t_end, 9)
    ys = traj.sol(grid)
    assert ys.shape == (2, 9)
    for k, t in enumerate(grid):
        assert np.allclose(traj.sol(float(t)), ys[:, k], rtol=0.0, atol=1e-14)
    # after the strip the flow is free: u linear in t, p constant
    u_out, p_out = traj.state(w.t_upper)
    assert ys[1, -1] == p_out
    assert ys[0, -1] == pytest.approx(u_out + p_out * (t_end - w.t_upper), abs=1e-14)


@pytest.mark.parametrize("damping", [(0.0, 0.0), (1.0, 1.0)])
def test_batch_takes_scipys_steps(strong_log, damping, scipy_legs):
    # each cell: the same accepted strip steps and zeros as its own solve_ivp
    w = strong_log
    t0 = np.array([-2.0, -1.0, 0.5, 0.3, w.t_upper + 1.0])
    y0 = np.array([[0.25, -0.25, 0.4, 0.0, 0.1], [0.25, 0.5, -0.1, 0.0, 0.2],
                   [0.0, 0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.5, 1.0, 1.0]])
    t_end = w.t_upper + 10.0
    batch = integrate_legs(w, t0, y0, t_end, IntegratorConfig(), damping)
    assert batch.failures == [None] * 5
    for c in range(5):
        ref = scipy_legs(w, t0[c], y0[:, c], t_end, IntegratorConfig(), damping)
        assert batch.accepted[c] == len(ref.ts) - 1
        assert len(batch.zeros[c]) == len(ref.zeros)
        assert np.allclose(batch.zeros[c], ref.zeros, rtol=0.0, atol=1e-12)
    with pytest.raises(InvalidParameterError, match="one direction"):
        integrate_legs(w, [-2.0, t_end + 1.0], y0[:, :2], t_end, IntegratorConfig(),
                       damping)


@pytest.mark.parametrize("damping", [(0.0, 0.0), (1.0, 1.0)])
def test_batch_samples_match_the_dense_runs(strong_log, damping, scipy_legs):
    # per-cell end times, before, inside and after the strip, on step times,
    # in any order: the states scipy's dense output gives at the same times
    w = strong_log
    t0 = np.array([-2.0, -1.0, 0.5, w.t_upper + 1.0, -2.0])
    t_end = np.array([w.t_upper + 3.0, 0.7, w.t_upper + 0.5, w.t_upper + 4.0, -1.0])
    y0 = np.array([[0.25, -0.25, 0.4, 0.1, 0.3], [0.25, 0.5, -0.1, 0.2, 0.1],
                   [0.0, 0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.5, 1.0, 1.0]])
    cfg = IntegratorConfig()
    refs = [scipy_legs(w, t0[c], y0[:, c], t_end[c], cfg, damping) for c in range(5)]
    samples = [np.concatenate((np.linspace(t_end[c], t0[c], 37), ref.ts[::3]))
               for c, ref in enumerate(refs)]
    batch = integrate_legs(w, t0, y0, t_end, cfg, damping, dense=True)
    for c, ref in enumerate(refs):
        got = batch.runs[c](samples[c])
        assert got.shape == (4, len(samples[c]))
        assert np.allclose(got, ref(samples[c]), rtol=1e-12, atol=1e-12)
        assert len(batch.zeros[c]) == len(ref.zeros)
        alone = integrate_legs(w, t0[c], y0[:, c:c + 1], t_end[c], cfg, damping, dense=True)
        assert np.array_equal(alone.runs[0](samples[c]), got)


def _single_runs(w, n, t0, u0, p0, t_end):
    """A flow run from (u0, p0) at t0 to t_end and the joint runs of its
    Jacobi fields (0, 1) forward from t0 and (1, 0) backward from t_end:
    each LegSolution with its start time, start state, end time and damping."""
    cfg = IntegratorConfig(t_range=(t0, t_end))
    traj = integrate_radial_ivp(w, n, math.exp(t0), u0, p0 / math.exp(t0), cfg)
    runs = [(traj.sol, t0, (u0, p0), t_end, (n - 2.0,))]
    for xi, a, b in (((0.0, 1.0), t0, t_end), ((1.0, 0.0), t_end, t0)):
        fld = integrate_jacobi(traj, *xi, mode="radial-form", cfg=cfg, t_init=a, t_end=b)
        u, p = traj.state(a)
        runs.append((fld.sol, a, (float(u), float(p)) + xi, b, (n - 2.0, n - 2.0)))
    return cfg, runs


def _assert_run_is_the_oracles(w, sol, t0, y0, t_end, cfg, damping, ref_cls):
    ref = ref_cls(w, t0, y0, t_end, cfg, damping)
    assert sol.accepted == len(sol.ts) - 1 == len(ref.ts) - 1
    # the same steps; the controller magnifies last-bit differences of the
    # error estimate (stage sums in stage order against scipy's np.dot)
    assert np.allclose(sol.ts, ref.ts, rtol=0.0, atol=1e-6)
    assert len(sol.zeros) == len(ref.zeros)
    assert np.allclose(sol.zeros, ref.zeros, rtol=0.0, atol=1e-12)
    assert [ev.kind for ev in sol.events] == [ev.kind for ev in ref.events]
    assert np.allclose([ev.t for ev in sol.events], [ev.t for ev in ref.events],
                       rtol=0.0, atol=1e-12)
    # reads exactly on either's step times, between them and off the strip
    grid = np.concatenate((sol.ts, ref.ts, np.linspace(t0, t_end, 101)))
    assert np.allclose(sol(grid), ref(grid), rtol=1e-12, atol=1e-12)
    for t in np.concatenate((sol.ts[::4], ref.ts[::4])):
        assert np.allclose(sol(float(t)), ref(float(t)), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n, u0, p0, forward", [
    (2, 0.25, 0.25, True), (2, -0.25, 0.5, False), (2, 3.0, -1.0, True),
    (3, 0.2, -0.1, True), (3, 0.4, 0.3, False)])
def test_single_runs_take_the_oracles_steps(strong_log, scipy_legs, n, u0, p0, forward):
    # flow and joint runs, forward and backward, with and without damping
    w = strong_log
    t0, t_end = (-2.0, w.t_upper + 3.0)[::1 if forward else -1]
    cfg, runs = _single_runs(w, n, t0, u0, p0, t_end)
    assert runs[0][0].direction == (1.0 if forward else -1.0)
    assert any(run[0].zeros for run in runs[1:]) or n == 3
    for sol, a, y0, b, damping in runs:
        _assert_run_is_the_oracles(w, sol, a, y0, b, cfg, damping, scipy_legs)


def test_solve_config_takes_the_oracles_steps(scipy_legs):
    from minfol.config import build_potential, load_config

    cfg = load_config(os.path.join(CONFIGS, "solve.json"))
    pot, p = build_potential(cfg), cfg.params
    t0, t_end = math.log(p["r0"]), math.log(p["r_end"])
    run_cfg = replace(cfg.integrator, t_range=(t0, t_end))
    traj = integrate_radial_ivp(pot, cfg.n, p["r0"], p["u0"], p["du0"], run_cfg)
    assert traj.sol.events and traj.sol.direction == -1.0
    _assert_run_is_the_oracles(pot, traj.sol, t0, (p["u0"], p["r0"] * p["du0"]), t_end,
                               run_cfg, (cfg.n - 2.0,), scipy_legs)


def test_foliate_family_takes_the_oracles_steps(scipy_legs):
    from minfol.config import build_potential, load_config
    from minfol.foliation import build_NA_family

    cfg = load_config(os.path.join(CONFIGS, "foliate.json"))
    pot = build_potential(cfg)
    alphas = np.linspace(-0.5, 0.5, 9)
    fam = build_NA_family(pot, cfg.n, 0.0, alphas, cfg=cfg.integrator,
                          r_min=cfg.params["r_min"])
    r0 = 2.0 * pot.r_outer
    t0, t_end = math.log(r0), math.log(cfg.params["r_min"])
    run_cfg = replace(cfg.integrator, t_range=(t0, t_end))
    for alpha, traj in zip(alphas, fam.trajectories):
        y0 = (alpha / r0, r0 * (-alpha / r0 ** 2))
        _assert_run_is_the_oracles(pot, traj.sol, t0, y0, t_end, run_cfg, (1.0,), scipy_legs)


@pytest.mark.parametrize("t_end", [1e12, math.inf])
def test_infinite_span_keeps_the_zeros_after_the_strip(weak_log, t_end):
    # the principal solution (1, 0) from entry states at t_lower: every zero
    # of this grid lies after the strip, up to t ~ 1e10
    w = weak_log
    us, ps = np.meshgrid(np.linspace(-1.5, 1.5, 9) * w.u_bound, np.linspace(-1.0, 1.0, 9))
    y0 = np.array([us.ravel(), ps.ravel(), np.ones(81), np.zeros(81)])
    batch = integrate_legs(w, w.t_lower, y0, t_end, IntegratorConfig(), (0.0, 0.0))
    finite = integrate_legs(w, w.t_lower, y0, 1e12, IntegratorConfig(), (0.0, 0.0))
    assert batch.zeros == finite.zeros
    assert sum(map(bool, batch.zeros)) == 26
    assert all(w.t_upper < z < 1e12 for zeros in batch.zeros for z in zeros)
    c = next(c for c, zeros in enumerate(batch.zeros) if zeros)
    alone = integrate_legs(w, w.t_lower, y0[:, c:c + 1], t_end, IntegratorConfig(),
                           (0.0, 0.0), dense=True)
    assert alone.zeros[0] == alone.runs[0].zeros == batch.zeros[c]


def _combine(K, coef, h):
    """The oracle: h * sum_j coef[j] K[j] term by term over the nonzero
    coefficients, from 0.0, as one list of stage arrays."""
    acc = 0.0
    for c, k in zip(coef, K):
        if c != 0.0:
            acc = acc + c * k
    return acc * h


def _dop853_rows():
    from scipy.integrate import DOP853 as RK

    return ([RK.A[s, :s] for s in range(1, RK.n_stages)] + [RK.B, RK.E5, RK.E3]
            + [RK.A_EXTRA[j, :RK.n_stages + 1 + j] for j in range(3)] + list(RK.D))


@pytest.mark.parametrize("neg_zero", [False, True])
@pytest.mark.parametrize("layout", ["contiguous", "fancy-indexed", "one-element",
                                    "two-element-column", "two-element-row"])
@pytest.mark.parametrize("cells", [3, 40])
def test_stage_sums_equal_the_term_by_term_loop(cells, layout, neg_zero):
    from minfol.odeflow import _stage_sum

    rng = np.random.default_rng(cells)
    K = rng.standard_normal((16, 4, cells)) * 10.0 ** rng.integers(-6, 6, (16, 4, cells))
    h = rng.uniform(1e-3, 0.1, cells)
    if neg_zero:   # an entry whose every stage is -0.0, one with some
        K[:, 0, 0], K[::3, 1, 0] = -0.0, -0.0
    if layout == "fancy-indexed":   # as the dense stages take their cells
        pick = np.flatnonzero(rng.random(cells) < 0.7)
        K, h = K[:, :, pick], h[pick]
        assert not K.flags.c_contiguous
    elif layout == "one-element":   # a one-cell first-order flow
        K, h = K[:, :1, :1], h[:1]
    elif layout == "two-element-column":   # a one-cell flow of (u, p)
        K, h = K[:, :2, :1], h[:1]
    elif layout == "two-element-row":   # two first-order cells, taken by index
        K, h = K[:, :1, [0, 2]], h[[0, 2]]
    for coef in _dop853_rows():
        got = _stage_sum(coef[:, None, None], K, h)
        want = _combine(list(K[:len(coef)]), coef, h)
        assert got.shape == K.shape[1:]
        assert got.tobytes() == want.tobytes()
    if neg_zero and layout != "fancy-indexed":
        assert np.signbit(K[0, 0, 0]) and not np.signbit(got[0, 0])


@pytest.mark.parametrize("shape", [(4, 1), (4, 2), (1, 11), (2, 9), (4, 42)])
def test_norm_adds_the_squares_in_row_order(shape):
    from minfol.odeflow import _norm

    rng = np.random.default_rng(sum(shape))
    for _ in range(200):
        x = rng.standard_normal((shape[0], shape[1] + 2)) * 10.0 ** rng.integers(-6, 6)
        for y in (x[:, :shape[1]], x[:, ::-1][:, :shape[1]],
                  x[:, rng.permutation(shape[1] + 2)[:shape[1]]]):
            assert _norm(y).tobytes() == np.sqrt(sum(c * c for c in y)).tobytes()



def test_dense_stages_come_from_three_calls_after_the_last_step(strong_log):
    # the three dense-output stages of every kept step (each step of a dense
    # cell, and each step on which xi changes sign) come from three rhs calls
    # after the step loop, each over all kept steps, three stages a kept step
    from minfol.odeflow import _NS, _dop853_batch, _flow_rhs

    w = strong_log
    y0 = np.array([[0.25, -0.25, 0.4, 0.1], [0.25, 0.5, -0.1, 0.2],
                   [0.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.5, 1.0]])
    rhs, widths = _flow_rhs(w, (0.0, 0.0)), []

    def counted(t, y):
        widths.append(y.shape[1])
        return rhs(t, y)

    dense = np.array([True, False, False, True])
    res, _, _, rows = _dop853_batch(counted, np.full(4, w.t_lower), np.full(4, w.t_upper),
                                    y0, (1e-10, 1e-10), (w.t_upper - w.t_lower) / 8,
                                    (2, lambda xi: xi), dense=dense)
    kept = np.where(dense, res.accepted, [len(z) for z in res.zeros])
    assert np.all(kept[~dense] > 0) and kept.sum() > 4
    assert widths[-3:] == [kept.sum()] * 3 and max(widths[:-3]) <= 4
    assert list(res.stages) == list(2 + _NS * (res.accepted + res.rejected) + 3 * kept)
    assert [len(r.h) for r in rows if r is not None] == list(res.accepted[dense])


def test_a_dense_cell_without_strip_steps_reads_its_free_legs(strong_log):
    # a span that ends before the strip takes no strip step: its run reads
    # the free motion, beside a cell that crosses the strip and alone
    w = strong_log
    t0, t_end = w.t_lower - 3.0, np.array([w.t_lower - 1.0, w.t_upper + 2.0])
    y0 = np.array([[0.3, 0.3], [0.2, 0.2], [1.0, 1.0], [-0.8, -0.8]])
    ts = np.linspace(t0, t_end[0], 9)
    free = np.array([0.3 + 0.2 * (ts - t0), 0.2 + 0.0 * ts, 1.0 - 0.8 * (ts - t0),
                     -0.8 + 0.0 * ts])
    batch = integrate_legs(w, t0, y0, t_end, IntegratorConfig(), (0.0, 0.0), dense=True)
    alone = integrate_legs(w, t0, y0[:, :1], t_end[0], IntegratorConfig(), (0.0, 0.0),
                           dense=True)
    assert batch.accepted[1] > 0
    for run in (batch.runs[0], alone.runs[0]):
        assert run.accepted == 0 and run.strip.s_old.size == run.strip.F.shape[-1] == 0
        assert run(ts).tobytes() == free.tobytes()
        assert run.zeros == [pytest.approx(t0 + 1.25, abs=1e-15)]


@pytest.mark.parametrize("name, rhs_calls, stage_sums", [("scan-conjugate", 1181, 1379),
                                                         ("example446", 1037, 1211)])
def test_shipped_configs_make_the_counted_rhs_calls_and_stage_sums(
        tmp_path, monkeypatch, name, rhs_calls, stage_sums):
    from minfol import foliation, odeflow
    from minfol.cli import main

    calls = {"rhs": 0, "stage_sum": 0}
    core, stage_sum = odeflow._dop853_batch, odeflow._stage_sum

    def counted_core(rhs, *args, **kwargs):
        def counted(t, y):
            calls["rhs"] += 1
            return rhs(t, y)
        return core(counted, *args, **kwargs)

    def counted_sum(*args):
        calls["stage_sum"] += 1
        return stage_sum(*args)

    for module in (odeflow, foliation):
        monkeypatch.setattr(module, "_dop853_batch", counted_core)
    monkeypatch.setattr(odeflow, "_stage_sum", counted_sum)
    out = str(tmp_path / "out")
    assert main(["--config", os.path.join(CONFIGS, name + ".json"), "--out", out]) == 0
    assert calls == {"rhs": rhs_calls, "stage_sum": stage_sums}

def test_stage_coefficients_are_views_of_scipys_tables():
    from scipy.integrate import DOP853 as RK

    from minfol import odeflow

    for table, rows in ((RK.A, odeflow._A), (RK.A_EXTRA, odeflow._A_EXTRA),
                        (RK.D, odeflow._D), (RK.B, [odeflow._B]),
                        (RK.E5, [odeflow._E5]), (RK.E3, [odeflow._E3])):
        assert all(np.shares_memory(row, table) for row in rows)


def test_mixed_tolerance_cell_equals_its_uniform_batch(strong_log):
    # a cell reads only its own tolerances, step bound and dense flag: its
    # states, dense rows, zeros and work are the bits of a batch run wholly at
    # them, and of the cell run alone
    from minfol.odeflow import _dop853_batch, _flow_rhs

    w = strong_log
    width = w.t_upper - w.t_lower
    # per cell: (rel_tol, abs_tol), step bound, dense; the last rtol is floored
    cells = [((1e-10, 1e-10), width / 8, True), ((1e-12, 1e-13), width / 64, False),
             ((1e-6, 1e-9), width / 8, False), ((1e-17, 1e-14), width / 3, True)]
    y0 = np.array([[0.25, -0.25, 0.4, 0.1], [0.25, 0.5, -0.1, 0.2],
                   [0.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.5, 1.0]])
    m = y0.shape[1]

    def run(y, tol, max_step, dense):
        k = y.shape[1]
        return _dop853_batch(_flow_rhs(w, (0.0, 0.0)), np.full(k, w.t_lower),
                             np.full(k, w.t_upper), y, tol, max_step,
                             (2, lambda xi: xi), dense=dense)

    tols, steps, dense = zip(*cells)
    res, t, y, rows = run(y0, [np.array(x) for x in zip(*tols)], np.array(steps),
                          np.array(dense))
    assert list(res.failures) == [None] * m
    for c, (tol, step, dense_c) in enumerate(cells):
        for y_ref, k in ((y0, c), (y0[:, c:c + 1], 0)):   # its uniform batch, and alone
            res_u, t_u, y_u, rows_u = run(y_ref, tol, step, dense_c)
            assert t[c] == t_u[k] and y[:, c].tobytes() == y_u[:, k].tobytes()
            assert (rows[c] is None) == (rows_u[k] is None) == (not dense_c)
            for name in ("s_old", "h", "y_old", "F") if dense_c else ():
                assert getattr(rows[c], name).tobytes() == getattr(rows_u[k], name).tobytes()
            assert res.zeros[c] == res_u.zeros[k]
            assert [res.stages[c], res.accepted[c], res.rejected[c]] == \
                [res_u.stages[k], res_u.accepted[k], res_u.rejected[k]]
    assert len(set(res.accepted)) == m


def test_legs_take_one_config_per_cell(strong_log):
    # per cell its own tolerances and strip step bound, and dense rows only
    # where it is dense: each cell runs as if alone
    w = strong_log
    width = w.t_upper - w.t_lower
    cfgs = [IntegratorConfig(), IntegratorConfig(rel_tol=5e-11, abs_tol=5e-11,
                                                 max_step=width / 64),
            IntegratorConfig(rel_tol=1e-8, abs_tol=1e-8)]
    y0 = np.array([[0.25, 0.25, -0.4], [0.25, 0.25, 0.1], [0.0] * 3, [1.0] * 3])
    t_end = w.t_upper + 10.0
    dense = [False, True, False]
    batch = integrate_legs(w, -2.0, y0, t_end, cfgs, (0.0, 0.0), dense)
    assert batch.runs[0] is batch.runs[2] is None
    for c, cfg in enumerate(cfgs):
        alone = integrate_legs(w, -2.0, y0[:, c:c + 1], t_end, cfg, (0.0, 0.0), dense[c])
        assert batch.zeros[c] == alone.zeros[0]
        assert [batch.stages[c], batch.accepted[c], batch.rejected[c]] == \
            [alone.stages[0], alone.accepted[0], alone.rejected[0]]
        if dense[c]:
            ts = np.linspace(-2.0, t_end, 9)
            assert batch.runs[c](ts).tobytes() == alone.runs[0](ts).tobytes()
    assert batch.accepted[1] > batch.accepted[0] > batch.accepted[2]
    with pytest.raises(InvalidParameterError, match="one integrator config per cell"):
        integrate_legs(w, -2.0, y0, t_end, cfgs[:2], (0.0, 0.0))


@pytest.mark.parametrize("r0, u0, du0, name", [
    (math.nan, 0.1, 0.0, "r0"), (math.inf, 0.1, 0.0, "r0"), (0.0, 0.1, 0.0, "r0"),
    (-1.0, 0.1, 0.0, "r0"), (1.0, math.nan, 0.0, "u0"), (1.0, -math.inf, 0.0, "u0"),
    (1.0, 0.1, math.nan, "du0"), (1.0, 0.1, math.inf, "du0")])
def test_radial_ivp_needs_a_finite_start(r0, u0, du0, name):
    # r0 = nan once gave a Trajectory on [nan, nan], r0 = inf one with
    # t_max = inf, and u0 = nan a "phase state must be finite" from the
    # failure bookkeeping
    from minfol.catalog import certified_bump

    with pytest.raises(InvalidParameterError, match="^%s must be finite" % name):
        integrate_radial_ivp(certified_bump(), 3, r0, u0, du0)


def _stacked_force_cases():
    """Every catalog product potential, a scaled one, rescaled ones and bumps
    of width 1 and of other widths."""
    from minfol import catalog
    from minfol.potential import (make_bump, product_potential, rescale_log_potential,
                                  scale_potential)

    cases = {name: getattr(catalog, name)() for name in
             ("flat", "weak_bump", "strong_bump", "certified_bump", "narrow_bump",
              "scaling_bump")}
    cases["scaled"] = scale_potential(catalog.strong_bump(), -0.37)
    for N in (2, 4, 8):
        cases["rescaled-%d" % N] = rescale_log_potential(catalog.strong_bump(), N)
    cases["widths"] = product_potential(make_bump(0.3, 0.7, -1.7), make_bump(2.5, 1.25, 0.6))
    cases["widths-rescaled"] = rescale_log_potential(scale_potential(cases["widths"], 3.0), 4)
    return cases


STACKED_FORCE_CASES = _stacked_force_cases()


def _force_points(w):
    """(u, t) points inside the support box, outside it, and on |s| = 1 in u
    (u = +-u_bound for a centered f) and in t (r = e^0 = 1 for g of support
    [1, 3])."""
    us = np.concatenate((np.linspace(-0.9, 0.9, 5) * w.u_bound, [-w.u_bound, w.u_bound],
                         np.array([-3.0, -1.5, 1.5, 3.0]) * w.u_bound))
    ts = np.concatenate((np.linspace(w.t_lower, w.t_upper, 5), [0.0, w.t_lower - 1.0,
                                                                 w.t_upper + 1.0]))
    return [(u, t) for u in us for t in ts]


@pytest.mark.parametrize("cells", [1, 2, 64])
@pytest.mark.parametrize("damping", [(0.0,), (1.0,), (0.0, 0.0), (2.0, 2.0)],
                         ids=["flow-n2", "flow-n3", "joint-n2", "joint-n4"])
@pytest.mark.parametrize("name", sorted(STACKED_FORCE_CASES))
def test_flow_rhs_equals_the_jets_point_by_point(name, damping, cells):
    # the stacked profile pass gives the bits of one w.jet per point, whose
    # 0-d evaluation passes each bump on its own; signed zeros count
    from minfol.odeflow import _flow_rhs

    w = STACKED_FORCE_CASES[name]
    points = _force_points(w)
    rng = np.random.default_rng(len(points) + cells)
    for start in range(0, len(points), cells):
        chunk = [points[(start + k) % len(points)] for k in range(cells)]
        u, t = (np.array(x) for x in zip(*chunk))
        y = np.vstack((u, rng.uniform(-1.0, 1.0, (2 * len(damping) - 1, cells))))
        y[1, ::3] = 0.0
        got = _flow_rhs(w, damping)(t, y)
        want = np.empty_like(y)
        orders = (1, 2)[:len(damping)]
        for c in range(cells):
            e2, jet = np.exp(2.0 * t[c]), w.jet(y[0, c], t[c], orders)
            want[0, c], want[1, c] = y[1, c], -damping[0] * y[1, c] - e2 * jet[0]
            if len(damping) == 2:
                want[2, c] = y[3, c]
                want[3, c] = -damping[1] * y[3, c] - e2 * jet[1] * y[2, c]
        assert got.shape == y.shape and got.tobytes() == want.tobytes(), (start, got, want)
