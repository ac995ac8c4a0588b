import collections
import importlib.util
import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from minfol import catalog
from minfol.errors import IntegrationFailureError, InvalidParameterError
from minfol.jacobi import integrate_jacobi
from minfol.odeflow import (IntegratorConfig, PhaseState, _sample_grid, hamiltonian_value,
                            integrate_hamiltonian, integrate_legs)
from minfol.potential import Potential, make_bump, product_potential, to_log_form
from minfol.quadrature import quad_2d
from minfol.rigidity import (ConjugateFinding, RescaledSides, conjugate_point_scan,
                             discriminant_inequality_check, rescaled_inequality_sides,
                             scaling_exponent_fit, strip_step_over_zero_spacing, verify_finding,
                             verify_findings)

GRID = np.linspace(-0.4, 0.4, 4)
# the (u0, p0) grid of configs/scan-conjugate.json
CONFIG_GRID = np.linspace(-0.5, 0.5, 11)


def _load_reference():
    """perfbench/reference.py: the planar flow and its Jacobi field written
    apart from minfol, with closed-form legs outside the strip."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        "reference.py")
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def config_scan(strong_log):
    """The shipped scan config: 11 x 11 cells from t_start = -2."""
    rep = conjugate_point_scan(strong_log, CONFIG_GRID, CONFIG_GRID, -2.0,
                               strong_log.t_upper + 10.0)
    return {(f.u0, f.p0): f.t2 for f in rep.findings}


def _simpson_sides(w, N, num=801):
    """Independent fixed-grid Simpson oracle for the two rescaled integrals."""
    from scipy.integrate import simpson

    U, t_lo, t_hi = w.u_bound, w.t_lower, w.t_upper
    vv = np.linspace(-U, U, num)
    tt = np.linspace(t_lo, t_hi, num)
    V, T = np.meshgrid(vv, tt, indexing="ij")
    e2 = np.exp(2.0 * T)
    weight = np.exp(-w.w(V, T) * e2 / N ** 2)
    lhs_vals = weight * (e2 * w.dw_du(V, T)) ** 2
    rhs_vals = weight * (e2 * (2.0 * w.w(V, T) + w.dw_dt(V, T))) ** 2
    lhs = simpson(simpson(lhs_vals, x=tt, axis=1), x=vv)
    rhs = simpson(simpson(rhs_vals, x=tt, axis=1), x=vv)
    return 4.0 / N ** 3 * lhs, 1.0 / N ** 5 * rhs


def _one_shot_sides(w, N, quad_tol=1e-12):
    """The two rescaled sides from one quadrature of their own, every array
    evaluated afresh at each order."""
    n2 = float(N) ** 2

    def sides_f(v, t):
        e2 = np.exp(2.0 * t)
        W, W_u, W_t = w.jet(v, t, (0, 1, 3))
        gibbs = np.exp(-W * e2 / n2)
        g = e2 * W_u
        h = e2 * (2.0 * W + W_t)
        return gibbs * g * g, gibbs * h * h

    lhs, rhs = quad_2d(sides_f, -w.u_bound, w.u_bound, w.t_lower, w.t_upper, quad_tol)
    return max(4.0 / N**3 * lhs, 0.0), max(1.0 / N**5 * rhs, 0.0)


def _wide_shell():
    """A wide u-profile on a narrow radial shell: holds up to N = 20."""
    return to_log_form(product_potential(make_bump(0.0, 2.0, 0.2),
                                         make_bump(2.0, 0.1, 0.1)))


class TestScan:
    def test_strong_bump_has_conjugate_points(self, strong_log):
        rep = conjugate_point_scan(strong_log, GRID, GRID, -2.0,
                                   strong_log.t_upper + 10.0)
        assert len(rep.findings) >= 1
        assert not rep.failures
        for f in rep.findings:
            assert f.t1 < f.t2
            assert verify_finding(strong_log, f) < 1e-6

    def test_scan_makes_no_solve_ivp_call(self, strong_log, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        monkeypatch.setattr("scipy.integrate.solve_ivp", forbidden)
        rep = conjugate_point_scan(strong_log, GRID, GRID, -2.0,
                                   strong_log.t_upper + 10.0, n_slide=2)
        assert rep.findings and not rep.failures

    def test_flat_has_none(self, flat_log):
        rep = conjugate_point_scan(flat_log, GRID, GRID, -1.0, 5.0)
        assert rep.findings == []

    def test_nonpositive_curvature_has_none(self):
        # W''_uu <= 0 comparison case: no oscillation can occur
        from types import SimpleNamespace

        from minfol.potential import make_bump

        f = make_bump(0.0, 1.0, 1.0)
        g = make_bump(1.0, 0.5, 1.0)
        w = SimpleNamespace(
            w=lambda u, t: np.zeros_like(np.asarray(u) * np.asarray(t)),
            dw_du=lambda u, t: np.zeros_like(np.asarray(u) * np.asarray(t)),
            d2w_duu=lambda u, t: -f.value(u) * g.value(t),
            dw_dt=lambda u, t: np.zeros_like(np.asarray(u) * np.asarray(t)),
            u_bound=1.0, t_upper=1.5, t_lower=0.5, k_curvature=0.0)
        views = (w.w, w.dw_du, w.d2w_duu, w.dw_dt)
        w.jet = lambda u, t, orders: [views[o](u, t) for o in orders]
        rep = conjugate_point_scan(w, GRID, GRID, -1.0, 5.0)
        assert rep.findings == []

    def test_bad_grid_rejected(self, flat_log):
        with pytest.raises(InvalidParameterError):
            conjugate_point_scan(flat_log, [], GRID, -1.0, 5.0)
        with pytest.raises(InvalidParameterError):
            conjugate_point_scan(flat_log, GRID, GRID, 5.0, -1.0)

    @pytest.mark.parametrize("t_start", [math.nan, -math.inf])
    def test_nonfinite_t_start_rejected(self, strong_log, t_start):
        # a NaN t_start once passed the t_start < t_end check and stepped nothing
        with pytest.raises(InvalidParameterError, match="t_start must be finite"):
            conjugate_point_scan(strong_log, [0.0], [0.0], t_start, 5.0)

    @pytest.mark.parametrize("axis", ["u0", "p0"])
    def test_nonfinite_grid_value_rejected(self, strong_log, axis):
        # a NaN grid value once failed every cell of its slide ("phase state
        # must be finite"): 0 findings and 3 failures where the finite cells
        # alone give 2 findings
        grids = {"u0": [0.25], "p0": [0.25]}
        for bad in (math.nan, math.inf):
            grids[axis] = [bad, 0.0, 0.25]
            with pytest.raises(InvalidParameterError, match=axis + " grid values must be finite"):
                conjugate_point_scan(strong_log, grids["u0"], grids["p0"], -2.0,
                                     strong_log.t_upper + 10.0)
        rep = conjugate_point_scan(strong_log, [0.0, 0.25], [0.25], -2.0,
                                   strong_log.t_upper + 10.0)
        assert len(rep.findings) == 2 and not rep.failures

    def test_slides_need_a_finite_t_end(self, strong_log):
        # the slides once fell at [nan, inf, inf]: 0 findings, 0 failures, 0 steps
        with pytest.raises(InvalidParameterError, match="finite t_end"):
            conjugate_point_scan(strong_log, [0.0], [0.0], -2.0, math.inf, n_slide=3)
        rep = conjugate_point_scan(strong_log, [-0.25], [0.5], -2.0, math.inf)
        assert rep.findings and rep.diagnostics["accepted_steps"] > 0
        assert rep.residuals == verify_findings(strong_log, rep.findings, t_end=math.inf)[0]


class TestStripCannotBeSteppedOver:
    """Cells where a solver unbounded outside the strip stepped across the
    force; reference values from perfbench/reference.py at rtol 1e-12."""

    ROW = {1: 0.6289389467560432, 2: 0.6357161384984258,
           3: 0.6364604758387199, 7: 0.5830019332548906,
           8: 0.5607632635405511, 9: 0.5437578321201293}

    def test_config_row_p0_one_tenth(self, config_scan):
        p0 = CONFIG_GRID[6]
        assert p0 == 0.10000000000000009
        for i, t2 in self.ROW.items():
            assert config_scan[(CONFIG_GRID[i], p0)] == pytest.approx(t2, abs=1e-9)

    def test_repro_cell_is_a_hit(self, strong_log):
        rep = conjugate_point_scan(strong_log, [-0.25], [0.5], -2.0,
                                   strong_log.t_upper + 10.0)
        assert len(rep.findings) == 1
        assert rep.findings[0].t2 == pytest.approx(0.7597353985188967, abs=1e-9)

    def test_last_bit_of_the_launch_state(self, strong_log, config_scan):
        rep = conjugate_point_scan(strong_log, [0.3], [0.1], -2.0,
                                   strong_log.t_upper + 10.0)
        grid_t2 = config_scan[(CONFIG_GRID[8], CONFIG_GRID[6])]
        assert abs(rep.findings[0].t2 - grid_t2) < 1e-9

    def test_cell_alone_matches_the_grid(self, strong_log, config_scan):
        for i, j in ((8, 6), (0, 10), (5, 5), (3, 9)):
            u0, p0 = CONFIG_GRID[i], CONFIG_GRID[j]
            rep = conjugate_point_scan(strong_log, [u0], [p0], -2.0,
                                       strong_log.t_upper + 10.0)
            alone = rep.findings[0].t2 if rep.findings else None
            assert alone == config_scan.get((u0, p0))


class TestChunkIndependence:
    """A cell's result depends neither on the chunk map_fn hands it in nor on
    where its t_start slide falls."""

    def test_pooled_config_scan_equals_serial(self, strong_log, config_scan):
        with ThreadPoolExecutor(max_workers=2) as pool:
            rep = conjugate_point_scan(strong_log, CONFIG_GRID, CONFIG_GRID,
                                       -2.0, strong_log.t_upper + 10.0,
                                       map_fn=pool.map)
        assert {(f.u0, f.p0): f.t2 for f in rep.findings} == config_scan

    def test_pooled_slides_equal_serial(self, strong_log):
        args = (strong_log, GRID, GRID, -2.0, strong_log.t_upper + 10.0)
        serial = conjugate_point_scan(*args, n_slide=3)
        with ThreadPoolExecutor(max_workers=3) as pool:
            pooled = conjugate_point_scan(*args, n_slide=3, map_fn=pool.map)
        assert pooled.findings == serial.findings
        assert pooled.failures == serial.failures == []
        assert pooled.diagnostics == serial.diagnostics
        assert serial.diagnostics["accepted_steps"] > 0

    def test_slides_match_joint_runs(self, strong_log, scipy_legs):
        # slides at -1, 0.1 and 1.2: before, inside and after the strip
        t_end = 3.4
        rep = conjugate_point_scan(strong_log, GRID, GRID, -1.0, t_end,
                                   n_slide=3)
        assert strong_log.t_lower < rep.t_starts[1] < strong_log.t_upper
        assert rep.t_starts[2] > strong_log.t_upper
        found = {(f.u0, f.p0, f.t_start): f.t2 for f in rep.findings}
        assert any(ts == rep.t_starts[1] for _, _, ts in found)
        for ts in rep.t_starts:
            for u0 in GRID:
                for p0 in GRID:
                    run = scipy_legs(strong_log, ts, (u0, p0, 0.0, 1.0),
                                     t_end, IntegratorConfig(), (0.0, 0.0))
                    zeros = [z for z in run.zeros if z > ts + 1e-9]
                    got = found.get((float(u0), float(p0), ts))
                    assert (got is None) == (not zeros)
                    if zeros:
                        assert abs(got - zeros[0]) < 1e-9


class TestVerification:
    @staticmethod
    def _joint_run(w, f, scipy_legs, cfg=IntegratorConfig()):
        """The verification as one scipy joint run of the flow and the field."""
        t_hi = min(f.t2 + 0.5, w.t_upper + 10.0)
        run_cfg = replace(cfg.halved(),
                          max_step=min(cfg.max_step, (w.t_upper - w.t_lower) / 64))
        run = scipy_legs(w, f.t1, (f.u0, f.p0, 0.0, 1.0), t_hi, run_cfg, (0.0, 0.0))
        scale = float(np.max(np.abs(run(_sample_grid(f.t1, t_hi))[2]))) or 1.0
        return abs(float(run(f.t2)[2])) / scale

    @staticmethod
    def _two_solves(w, f, cfg=IntegratorConfig()):
        """The verification as a flow solve followed by a Jacobi solve."""
        t_end = w.t_upper + 10.0
        run_cfg = replace(cfg.halved(), t_range=(f.t_start, t_end),
                          max_step=min(cfg.max_step,
                                       (w.t_upper - w.t_lower) / 64))
        traj = integrate_hamiltonian(w, PhaseState(u=f.u0, p=f.p0, t=f.t_start),
                                     run_cfg)
        fld = integrate_jacobi(traj, 0.0, 1.0, mode="log-form", cfg=run_cfg,
                               t_init=f.t1, t_end=min(f.t2 + 0.5, t_end))
        scale = float(np.max(np.abs(fld.sol(_sample_grid(fld.t_min, fld.t_max))[2]))) or 1.0
        return abs(float(fld.value(f.t2))) / scale

    @staticmethod
    def _findings(config_scan):
        return [ConjugateFinding(u0=u0, p0=p0, t_start=-2.0, t1=-2.0, t2=t2)
                for (u0, p0), t2 in sorted(config_scan.items())]

    def test_single_solve_equals_two_solves(self, strong_log, config_scan):
        for i, j in ((8, 6), (0, 10), (3, 9)):
            u0, p0 = CONFIG_GRID[i], CONFIG_GRID[j]
            f = ConjugateFinding(u0=u0, p0=p0, t_start=-2.0, t1=-2.0,
                                 t2=config_scan[(u0, p0)])
            assert verify_finding(strong_log, f) == self._two_solves(strong_log, f)

    def test_batch_matches_the_joint_runs(self, strong_log, config_scan, scipy_legs):
        findings = self._findings(config_scan)
        assert len(findings) == 87
        got, work = verify_findings(strong_log, findings)
        expected = [self._joint_run(strong_log, f, scipy_legs) for f in findings]
        assert np.allclose(got, expected, rtol=0.0, atol=1e-13)
        assert max(got) < 1e-6
        assert 0 < work["accepted_steps"] < work["stage_evaluations"]

    def test_finding_alone_equals_the_batch(self, strong_log, config_scan):
        findings = self._findings(config_scan)
        batch, _ = verify_findings(strong_log, findings)
        for k in (0, 40, 86):
            assert verify_finding(strong_log, findings[k]) == batch[k]

    @pytest.mark.parametrize("n_slide,t_end", [(1, None), (2, 3.4)])
    def test_scan_residuals_are_verify_findings(self, strong_log, n_slide, t_end):
        # the residual read from a cell's verification copy has the bits
        # verify_findings gives; with t_end 3.4 the second slide is on the strip
        t_end = strong_log.t_upper + 10.0 if t_end is None else t_end
        rep = conjugate_point_scan(strong_log, CONFIG_GRID, CONFIG_GRID, -2.0, t_end,
                                   n_slide=n_slide)
        assert len({f.t_start for f in rep.findings}) == n_slide
        got, work = verify_findings(strong_log, rep.findings, t_end=t_end)
        assert len(rep.residuals) == len(rep.findings)
        assert np.array(rep.residuals).tobytes() == np.array(got).tobytes()
        assert max(got) < 1e-6
        # every cell has a copy, so the scan's check steps more than the findings'
        assert rep.diagnostics["verification"]["accepted_steps"] > work["accepted_steps"]

    def test_failed_copy_of_a_finding_is_raised(self, strong_log, flat_log, monkeypatch):
        def fail_the_copies(w, t0, y0, t_end, cfgs, *args):
            # every cell at other settings than the scan's is a verification copy
            res = integrate_legs(w, t0, y0, t_end, cfgs, *args)
            res.failures = [IntegrationFailureError("copy") if c != IntegratorConfig()
                            else exc for c, exc in zip(cfgs, res.failures)]
            return res

        monkeypatch.setattr("minfol.rigidity.integrate_legs", fail_the_copies)
        with pytest.raises(IntegrationFailureError, match="copy"):
            conjugate_point_scan(strong_log, GRID, GRID, -2.0, strong_log.t_upper + 10.0)
        # the copy of a cell without a finding only adds its work
        rep = conjugate_point_scan(flat_log, GRID, GRID, -1.0, 5.0)
        assert rep.findings == rep.failures == rep.residuals == []
        assert rep.diagnostics["verification"]["stage_evaluations"] > 0

    def test_t2_outside_the_run_rejected(self, strong_log):
        # t2 past t_end was once read from free motion extrapolated inside the strip
        f = ConjugateFinding(u0=0.0, p0=0.0, t_start=-2.0, t1=-2.0, t2=0.63)
        for bad, t_end in ((f, 0.3), (replace(f, t2=-2.0), None),
                           (replace(f, t2=math.nan), None)):
            with pytest.raises(InvalidParameterError, match=r"\(t1, t_end\]"):
                verify_findings(strong_log, [bad], t_end=t_end)

    def test_first_failed_finding_is_raised(self, strong_log, config_scan,
                                            monkeypatch):
        def failing(*args, **kwargs):
            res = integrate_legs(*args, **kwargs)
            res.failures[2] = IntegrationFailureError("third")
            res.failures[4] = IntegrationFailureError("fifth")
            return res

        monkeypatch.setattr("minfol.rigidity.integrate_legs", failing)
        with pytest.raises(IntegrationFailureError, match="third"):
            verify_findings(strong_log, self._findings(config_scan)[:6])


class TestSturmStepCheck:
    """The scan's strip step bound over the least spacing pi / (K e^T) of two
    zeros of xi: reported, not assumed below 1."""

    def test_shipped_config_is_below_one(self, strong_log):
        assert strip_step_over_zero_spacing(strong_log, IntegratorConfig()) == \
            pytest.approx(0.655, abs=5e-4)

    def test_steep_bump_is_above_one(self, strong_log):
        w = product_potential(make_bump(0.0, 1.0, -60.0), make_bump(2.0, 1.0, 1.0))
        ratio = strip_step_over_zero_spacing(w, IntegratorConfig())
        assert ratio == pytest.approx(2.07, abs=5e-3)
        # K scales with the square root of the amplitude, the step bound not at all
        assert ratio == pytest.approx(
            math.sqrt(10) * strip_step_over_zero_spacing(strong_log, IntegratorConfig()),
            rel=1e-12)

    def test_config_step_bound_and_zero_curvature(self, strong_log, flat_log):
        width = strong_log.t_upper - strong_log.t_lower
        half = strip_step_over_zero_spacing(strong_log, IntegratorConfig(max_step=width / 16))
        assert half == strip_step_over_zero_spacing(strong_log, IntegratorConfig()) / 2
        assert strip_step_over_zero_spacing(flat_log, IntegratorConfig()) == 0.0


class TestZeroCount:
    @pytest.mark.parametrize("u0,p0", [(0.0, 0.0), (0.25, 0.25),
                                       (-0.25, 0.5), (0.4, -0.1),
                                       (-0.5, -0.5)])
    def test_every_zero_matches_the_reference(self, strong_log, u0, p0):
        ref = _load_reference()
        t_end = strong_log.t_upper + 10.0
        flow = ref.planar_flow(ref.scan_potential(), u0, p0, -2.0)
        expected = list(flow.strip_zeros)
        _, _, xi, dxi = flow.exit
        if dxi != 0.0 and flow.t_out < flow.t_out - xi / dxi <= t_end:
            expected.append(flow.t_out - xi / dxi)
        traj = integrate_hamiltonian(strong_log, PhaseState(u=u0, p=p0, t=-2.0),
                                     IntegratorConfig(t_range=(-2.0, t_end)))
        fld = integrate_jacobi(traj, 0.0, 1.0, mode="log-form", t_init=-2.0)
        zeros = [z for z in fld.zeros if z > -2.0]
        assert len(zeros) == len(expected)
        assert np.allclose(zeros, expected, rtol=0.0, atol=1e-7)


class TestGibbs:
    def test_density_evolves_by_minus_dh_dt(self, scaling_log):
        w = scaling_log
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                               t_range=(-1.0, w.t_upper + 1.0))
        traj = integrate_hamiltonian(w, PhaseState(u=0.05, p=0.1, t=-1.0), cfg)
        h = 1e-5
        for t in np.linspace(-0.5, w.t_upper, 12):
            states = []
            for tt in (t - h, t, t + h):
                u, p = traj.state(float(tt))
                states.append(PhaseState(u=u, p=p, t=float(tt)))
            # the Gibbs density is e^{-H}
            lhs = (-hamiltonian_value(w, states[2]) + hamiltonian_value(w, states[0])) / (2 * h)
            u, _ = traj.state(float(t))
            e2 = math.exp(2.0 * t)
            rhs = -e2 * (2.0 * float(w.w(u, t)) + float(w.dw_dt(u, t)))
            assert lhs == pytest.approx(rhs, abs=1e-6)


class TestScaling:
    def test_matches_simpson_oracle_at_n1(self, scaling_log):
        lhs, rhs = rescaled_inequality_sides(scaling_log, 1)
        olhs, orhs = _simpson_sides(scaling_log, 1)
        assert lhs == pytest.approx(olhs, rel=1e-6)
        assert rhs == pytest.approx(orhs, rel=1e-6)

    def test_slopes_and_crossover(self, scaling_log):
        fit = scaling_exponent_fit(scaling_log, [4, 8, 16, 32])
        assert abs(fit.slope_lhs + 3.0) < 0.15
        assert abs(fit.slope_rhs + 5.0) < 0.15
        assert fit.crossover_N is not None
        l, r = rescaled_inequality_sides(scaling_log, fit.crossover_N)
        assert l > r

    def test_crossover_is_the_first_failing_n(self, scaling_log):
        # the listed N all fail; N = 1 holds and N = 2 already fails
        fit = scaling_exponent_fit(scaling_log, [4, 8, 16, 32])
        assert fit.crossover_N == 2
        l1, r1 = rescaled_inequality_sides(scaling_log, 1)
        assert l1 <= r1

    def test_crossover_bisected_past_the_list(self):
        w = _wide_shell()
        fit = scaling_exponent_fit(w, [2, 4, 8])
        N = fit.crossover_N
        assert N is not None and N > 16 and N != 32
        l, r = rescaled_inequality_sides(w, N)
        assert l > r
        l, r = rescaled_inequality_sides(w, N - 1)
        assert l <= r

    def test_one_field_pass_per_order(self):
        w = catalog.scaling_bump()
        calls = collections.Counter()

        class Counting:
            def __getattr__(self, name):
                attr = getattr(w, name)
                if name not in ("w", "dw_du", "dw_dt", "jet"):
                    return attr

                def counted(*args):
                    calls[name, *args[2:]] += 1
                    return attr(*args)
                return counted

        assert rescaled_inequality_sides(Counting(), 8) == \
            rescaled_inequality_sides(w, 8)
        # one jet of W, W_u and W_t per quadrature order
        assert calls == {("jet", (0, 1, 3)): 4}

    @pytest.mark.parametrize("name", ["scaling_log", "wide_shell"])
    def test_evaluator_equals_one_shot_quadratures(self, scaling_log, name):
        w = scaling_log if name == "scaling_log" else _wide_shell()
        Ns = [1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128]
        shared, backwards = RescaledSides(w), RescaledSides(w)
        for N in reversed(Ns):
            backwards(N)
        for N in Ns:
            one_shot = _one_shot_sides(w, N)
            assert shared(N) == one_shot
            assert backwards(N) == one_shot
            assert rescaled_inequality_sides(w, N) == one_shot
        assert shared.diagnostics == backwards.diagnostics
        assert shared.diagnostics["quadratures"] == len(Ns)
        assert shared.discriminant() == discriminant_inequality_check(w)

    def test_evaluator_passes_once_per_order(self, scaling_log, monkeypatch):
        orders = collections.Counter()
        jet = Potential.jet

        def counted(self, u, t, which):
            orders[u.shape[0], which] += 1
            return jet(self, u, t, which)

        monkeypatch.setattr(Potential, "jet", counted)
        sides = RescaledSides(scaling_log)
        for N in (1, 8, 1, 64, 8):
            sides(N)
        assert set(orders.values()) == {1}
        assert sides.diagnostics == {
            "quadratures": 3, "integrand_evaluations": len(orders),
            "highest_order": max(order for order, _ in orders)}

    def test_warm_evaluator_allocates_no_order_sized_array(self, scaling_log):
        sides = RescaledSides(scaling_log)
        sides(4), sides(8)
        assert sides.diagnostics["highest_order"] == 192
        tracemalloc.start()
        try:
            sides(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one order-192 array is 295 KB; allocating the Gibbs factor and the
        # integrands afresh peaks near 869 KB
        assert sides.diagnostics["highest_order"] == 192
        assert peak < 64 * 1024

    def test_evaluators_share_the_workspace(self, scaling_log):
        wide = _wide_shell()
        Ns = [1, 3, 8, 32, 128]
        expected = {(name, N): _one_shot_sides(w, N)
                    for name, w in (("log", scaling_log), ("wide", wide)) for N in Ns}
        first, second = RescaledSides(scaling_log), RescaledSides(wide)
        for N in Ns:
            assert first(N) == expected["log", N]
            assert second(N) == expected["wide", N]
        # every thread has a workspace of its own
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = list(pool.map(lambda w: [RescaledSides(w)(N) for N in Ns],
                                   [scaling_log, wide] * 2))
        assert pooled == [[expected[name, N] for N in Ns]
                          for name in ("log", "wide") * 2]

    def test_zero_potential_is_identically_zero(self, flat_log):
        fit = scaling_exponent_fit(flat_log, [4, 8, 16])
        assert fit.identically_zero
        assert fit.crossover_N is None

    def test_discriminant_holds_at_n1(self, scaling_log):
        lhs, rhs, holds = discriminant_inequality_check(scaling_log)
        assert holds
        assert lhs == pytest.approx(
            math.sqrt(2 * math.pi)
            * rescaled_inequality_sides(scaling_log, 1)[0], rel=1e-12)

    def test_invalid_inputs(self, scaling_log):
        with pytest.raises(InvalidParameterError):
            rescaled_inequality_sides(scaling_log, 0)
        with pytest.raises(InvalidParameterError):
            scaling_exponent_fit(scaling_log, [4, 8])
        with pytest.raises(InvalidParameterError):
            scaling_exponent_fit(scaling_log, [4, 8, 8])

    @pytest.mark.parametrize("N_list", [[4, 8, 16.5], [1.5, 1.9, 8]])
    def test_fractional_N_is_rejected(self, scaling_log, N_list):
        # truncating with int(N) would fit [4, 8, 16] and reject [1, 1, 8]
        with pytest.raises(InvalidParameterError, match="integers"):
            scaling_exponent_fit(scaling_log, N_list)

    def test_numpy_integer_N_fit_as_ints(self, scaling_log):
        fit = scaling_exponent_fit(scaling_log, np.array([4, 8, 16]))
        assert fit.N_list == [4, 8, 16]
        assert all(type(N) is int for N in fit.N_list)
        assert fit == scaling_exponent_fit(scaling_log, [4, 8, 16])


class TestRigidityConsistency:
    def test_conjugate_points_imply_broken_discriminant(self):
        # a potential with a steep u-profile: the inequality already fails
        # at N = 1, and the scan finds conjugate points on the same potential
        from minfol.catalog import narrow_bump
        from minfol.potential import to_log_form

        w = to_log_form(narrow_bump())
        lhs, rhs, holds = discriminant_inequality_check(w)
        assert not holds and lhs > rhs
        rep = conjugate_point_scan(w, np.linspace(-0.2, 0.2, 3),
                                   np.linspace(-0.2, 0.2, 3), -2.0,
                                   w.t_upper + 10.0)
        assert len(rep.findings) >= 1
