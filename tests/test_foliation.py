import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from minfol import foliation
from minfol.catalog import example_pair
from minfol.errors import InapplicableError, InvalidParameterError
from minfol.foliation import (LeafFamily, build_MA_family, build_NA_family,
                              check_ordering, example_446_check,
                              select_example_446_variant)
from minfol.odeflow import IntegratorConfig, _sample_grid, asymptotic_match_outer
from minfol.potential import make_bump, zero_potential

ALPHAS = np.linspace(-0.4, 0.4, 5)


@pytest.fixture(scope="module")
def family(certified_pot):
    return build_NA_family(certified_pot, 3, 0.1, ALPHAS)


class TestOuterFamily:
    def test_is_ordered(self, family):
        rep = family.ordering
        assert rep.verdict == "ordered"
        assert rep.min_gap > 0
        assert rep.min_dudalpha > 0

    def test_asymptotics_roundtrip(self, family):
        for alpha, traj in zip(ALPHAS, family.trajectories):
            fit = asymptotic_match_outer(traj, 3)
            assert fit.alpha == pytest.approx(alpha, abs=1e-6)
            assert fit.A == pytest.approx(0.1, abs=1e-6)

    def test_grid_shape(self, family):
        assert family.u_matrix.shape == (len(family.r_grid), len(ALPHAS))

    def test_backward_leaf_alone_equals_the_batch(self, certified_pot, family):
        # the leaves step inward together; a leaf's bits do not depend on the others
        for j in (0, 2, 4):
            alone = build_NA_family(certified_pot, 3, 0.1, [ALPHAS[j]])
            a, b = alone.trajectories[0], family.trajectories[j]
            assert a.sol.direction == b.sol.direction == -1.0
            assert np.array_equal(alone.u_matrix[:, 0], family.u_matrix[:, j])
            assert np.array_equal(a.sol.ts, b.sol.ts)
            ts = _sample_grid(a.t_min, a.t_max)
            assert (a.t_min, a.t_max) == (b.t_min, b.t_max)
            assert a.sol(ts).tobytes() == b.sol(ts).tobytes()

    def test_rejects_unsorted_alphas(self, certified_pot):
        with pytest.raises(InvalidParameterError):
            build_NA_family(certified_pot, 3, 0.0, [0.2, 0.1])
        with pytest.raises(InvalidParameterError):
            build_NA_family(certified_pot, 3, 0.0, [])

    def test_rejects_n2(self, certified_pot):
        with pytest.raises(InvalidParameterError):
            build_NA_family(certified_pot, 2, 0.0, ALPHAS)

    @pytest.mark.parametrize("radii", [{"r_start": 0.0}, {"r_start": -6.0},
                                       {"r_min": 0.0}, {"r_min": -1.0}])
    def test_rejects_nonpositive_radii(self, certified_pot, radii):
        # r_start = 0.0 used to fall back to the default 2 r_outer
        with pytest.raises(InvalidParameterError, match="radii must be > 0"):
            build_NA_family(certified_pot, 3, 0.0, ALPHAS, **radii)

    @pytest.mark.parametrize("radii, message", [
        ({"r_min": 50.0}, "runs inward"), ({"r_start": 0.5}, "outer form")])
    def test_rejects_a_span_that_pins_nothing(self, certified_pot, radii, message):
        # an r_min past r_start runs outward; inside r_outer the outer form fails
        with pytest.raises(InvalidParameterError, match=message):
            build_NA_family(certified_pot, 3, 0.0, ALPHAS, **radii)


class TestInnerFamily:
    def test_is_ordered(self, certified_pot):
        fam = build_MA_family(certified_pot, 3, 0.05, ALPHAS)
        assert fam.ordering.verdict == "ordered"
        assert fam.ordering.min_gap > 0

    @pytest.mark.parametrize("r_end", [0.0, -1.0])
    def test_rejects_nonpositive_end_radius(self, certified_pot, r_end):
        # r_end = 0.0 used to fall back to the default 2 r_outer = 6
        with pytest.raises(InvalidParameterError, match="radii must be > 0"):
            build_MA_family(certified_pot, 3, 0.0, [-0.1, 0.1], r_end=r_end)

    @pytest.mark.parametrize("r_end", [0.5, 1.0])
    def test_rejects_an_end_radius_at_or_below_r_inner(self, certified_pot, r_end):
        assert certified_pot.r_inner == 1.0
        with pytest.raises(InvalidParameterError, match="runs outward"):
            build_MA_family(certified_pot, 3, 0.0, ALPHAS, r_end=r_end)

    def test_requires_inner_gap(self):
        pot = zero_potential(u_bound=1.0, r_inner=0.0, r_outer=3.0)
        with pytest.raises(InapplicableError):
            build_MA_family(pot, 3, 0.0, ALPHAS)


class TestOrderingReport:
    def test_degenerate_alpha_grid_flagged(self):
        fam = LeafFamily(kind="N_A", n=3, A=0.0,
                         alpha_grid=np.asarray([0.0, 0.0]),
                         r_grid=np.linspace(1, 2, 8),
                         u_matrix=np.column_stack([np.ones(8), 2 * np.ones(8)]))
        rep = check_ordering(fam)
        assert rep.degenerate_input
        assert rep.verdict == "not-ordered"

    def test_crossing_leaves_detected(self):
        r = np.linspace(1, 2, 16)
        fam = LeafFamily(kind="N_A", n=3, A=0.0,
                         alpha_grid=np.asarray([0.0, 1.0]),
                         r_grid=r,
                         u_matrix=np.column_stack([r, 3.0 - r]))
        rep = check_ordering(fam)
        assert rep.min_gap <= 0
        assert rep.verdict == "not-ordered"


class TestExplicitFamily:
    def test_variant_oracle_prefers_consistent_form(self):
        phi, psi = example_pair()
        assert select_example_446_variant(phi, psi) == "chain-rule"

    def test_variant_oracle_integrates_each_probe_once(self, monkeypatch):
        runs = _captured_runs(monkeypatch)
        phi, psi = example_pair()
        assert select_example_446_variant(phi, psi) == "chain-rule"
        assert [args[3].shape[1] for args, _ in runs] == [5]

    def test_auto_steps_the_probes_with_the_leaves(self, monkeypatch):
        # one batch of 5 probes + the leaves gives the bits of the oracle's
        # own run followed by the check at the variant it picked
        phi, psi = example_pair()
        u0s = list(np.linspace(-0.8, 0.8, 11))
        probe_work = {}
        variant = select_example_446_variant(phi, psi, diagnostics=probe_work)
        ref = example_446_check(phi, psi, u0s, variant=variant)
        runs = _captured_runs(monkeypatch)
        rep = example_446_check(phi, psi, u0s, variant="auto")
        assert [args[3].shape[1] for args, _ in runs] == [5 + len(u0s)]
        assert rep.variant == variant == "chain-rule"
        assert rep.diagnostics == {"leaves": ref.diagnostics["leaves"],
                                   "variant_selection": probe_work}
        assert sorted(rep.timing) == ["flow_seconds", "residual_seconds"]
        for got, want in zip(rep.leaves, ref.leaves):
            assert got.u0 == want.u0 and got.max_residual == want.max_residual
            assert got.t.tobytes() == want.t.tobytes() and got.u.tobytes() == want.u.tobytes()
        assert (rep.max_residual, rep.min_pairwise_gap, rep.initial_gap, rep.crossings) == \
            (ref.max_residual, ref.min_pairwise_gap, ref.initial_gap, ref.crossings)

    def test_selected_variant_solves_newton_equation(self):
        phi, psi = example_pair()
        u0s = np.linspace(-0.8, 0.8, 11)
        rep = example_446_check(phi, psi, u0s, variant="chain-rule")
        assert rep.max_residual <= 1e-8
        assert rep.crossings == 0
        assert rep.min_pairwise_gap > 0

    def test_rejected_variant_misses_by_a_lot(self):
        phi, psi = example_pair()
        u0s = np.linspace(-0.8, 0.8, 5)
        rep = example_446_check(phi, psi, u0s, variant="as-printed")
        assert rep.max_residual > 1e-3


def _scipy_leaves(phi, psi, u0_grid, cfg, fd_step):
    """The oracle: one scipy DOP853 run per leaf with scalar callbacks (the
    former `foliation._first_order_flow`) and the stencil on its dense
    output. Per leaf: the accepted steps, u and u'' at the sample times."""
    t_lo, t_hi = psi.support
    t_span = (t_lo - 0.5, t_hi + 0.5)
    ts = np.linspace(t_span[0] + 2 * fd_step, t_span[1] - 2 * fd_step, 801)
    leaves = []
    for u0 in u0_grid:
        res = solve_ivp(lambda t, y: (float(phi.derivative(y[0])) * float(psi.value(t)),),
                        t_span, (u0,), method="DOP853", dense_output=True,
                        rtol=cfg.rel_tol, atol=cfg.abs_tol)
        assert res.success

        def udot(t):
            return phi.derivative(res.sol(t)[0]) * psi.value(t)

        h = fd_step
        uddot = (-udot(ts + 2 * h) + 8 * udot(ts + h) - 8 * udot(ts - h)
                 + udot(ts - 2 * h)) / (12.0 * h)
        leaves.append((len(res.t) - 1, res.sol(ts)[0], uddot))
    return ts, leaves


def _captured_runs(monkeypatch):
    """Records the arguments and results of every batch-core call."""
    runs, core = [], foliation._dop853_batch

    def captured(*args, **kwargs):
        runs.append((args, core(*args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(foliation, "_dop853_batch", captured)
    return runs


PROBES = list(np.linspace(-0.8, 0.8, 5))
CHECK_CFG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)


class TestBatchedLeaves:
    @pytest.mark.parametrize("cfg, u0s", [(IntegratorConfig(), PROBES),
                                          (CHECK_CFG, list(np.linspace(-0.8, 0.8, 11)))])
    def test_each_leaf_takes_scipys_steps(self, monkeypatch, cfg, u0s):
        phi, psi = example_pair()
        runs = _captured_runs(monkeypatch)
        (ts, flows, work), = foliation._example_leaves(phi, psi, [(u0s, cfg, 2e-4)])
        ts_ref, oracle = _scipy_leaves(phi, psi, u0s, cfg, 2e-4)
        assert np.array_equal(ts, ts_ref) and len(runs) == 1
        accepted = runs[0][1][0].accepted
        assert list(accepted) == [steps for steps, _, _ in oracle]
        assert work["accepted_steps"] == sum(accepted)
        for (us, uddot), (_, us_ref, uddot_ref) in zip(flows, oracle):
            assert np.max(np.abs(us - us_ref)) <= 1e-12
            # the stencil divides by 12 fd_step, so u'' moves about 10x as much as u
            assert np.max(np.abs(uddot - uddot_ref)) <= 1e-11

    def test_leaf_alone_equals_the_batch(self):
        phi, psi = example_pair()
        u0s = list(np.linspace(-0.8, 0.8, 11))
        (_, batch, _), = foliation._example_leaves(phi, psi, [(u0s, CHECK_CFG, 2e-4)])
        for j in (0, 3, 5, 10):
            (_, alone, _), = foliation._example_leaves(phi, psi, [([u0s[j]], CHECK_CFG, 2e-4)])
            assert np.array_equal(alone[0][0], batch[j][0])
            assert np.array_equal(alone[0][1], batch[j][1])

    @pytest.mark.parametrize("u0s, fd_step", [([], 2e-4), (PROBES, 0.0),
                                              (PROBES, -1e-3), (PROBES, math.nan),
                                              (PROBES, math.inf), (PROBES, 0.5),
                                              (PROBES, 0.6)])
    def test_rejects_grids_and_steps_off_the_span(self, u0s, fd_step):
        phi, psi = example_pair()
        with pytest.raises(InvalidParameterError):
            example_446_check(phi, psi, u0s, fd_step=fd_step)


class TestFreeFamilies:
    def test_free_outer_leaves_are_exact(self):
        from minfol.catalog import flat

        pot = flat()
        fam = build_NA_family(pot, 3, 0.25, ALPHAS, r_min=0.05)
        for alpha, j in zip(ALPHAS, range(len(ALPHAS))):
            exact = alpha / fam.r_grid + 0.25
            assert np.max(np.abs(fam.u_matrix[:, j] - exact)) < 1e-8

    def test_free_inner_leaves_are_exact(self):
        from minfol.catalog import flat

        pot = flat()
        fam = build_MA_family(pot, 3, 1.0, ALPHAS)
        for alpha, j in zip(ALPHAS, range(len(ALPHAS))):
            exact = 1.0 / fam.r_grid + alpha
            assert np.max(np.abs(fam.u_matrix[:, j] - exact)) < 1e-8
        assert fam.ordering.verdict == "ordered"

    def test_single_leaf_is_trivially_ordered(self, certified_pot):
        fam = build_NA_family(certified_pot, 3, 0.0, [0.3])
        assert fam.ordering.verdict == "ordered"
        assert fam.ordering.min_gap == np.inf


class TestFocalPoints:
    def test_no_focal_pair_along_inner_leaves(self, certified_pot):
        from minfol.jacobi import find_vanishing, integrate_jacobi
        from minfol.odeflow import IntegratorConfig

        fam = build_MA_family(certified_pot, 3, 0.0, ALPHAS)
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)
        for traj in fam.trajectories:
            fld = integrate_jacobi(traj, 1.0, 0.0, mode="radial-form",
                                   cfg=cfg, t_init=traj.t_min)
            assert find_vanishing(fld, "focal", traj.t_min) == []


@pytest.mark.parametrize("phi, psi", [
    (make_bump(0.0, 1.0, 1.0), make_bump(0.5, 0.5, 1.0)),
    (make_bump(0.3, 0.7, -1.7), make_bump(-0.2, 1.3, 0.6))], ids=["config", "scaled"])
@pytest.mark.parametrize("where", ["inside", "mixed", "outside"])
def test_first_order_rhs_equals_the_two_bump_calls(phi, psi, where):
    # one stacked profile pass gives the bits of phi'(u) psi(t), signed zeros too
    rng = np.random.default_rng(3)
    (u_lo, u_hi), (t_lo, t_hi) = phi.support, psi.support
    u_in, t_in = rng.uniform(u_lo, u_hi, 64), rng.uniform(t_lo, t_hi, 64)
    u_out = np.concatenate((rng.uniform(u_hi, u_hi + 2.0, 30), [u_lo, u_hi, -5.0, 9.0]))
    t_out = np.concatenate((rng.uniform(t_lo - 2.0, t_lo, 30), [t_lo, t_hi, -5.0, 9.0]))
    u, t = {"inside": (u_in, t_in),
            "mixed": (np.concatenate((u_in[:32], u_in[32:48], u_out[:16])),
                      np.concatenate((t_in[:32], t_out[:16], t_in[32:48]))),
            "outside": (u_out, t_out)}[where]
    got = foliation._first_order_rhs(phi, psi)(t, u[None])
    want = (phi.derivative(u) * psi.value(t))[None]
    assert got.shape == (1, len(u)) and got.tobytes() == want.tobytes()
    if where == "outside" and phi.amplitude < 0:
        assert np.all(got == 0.0) and np.all(np.signbit(got))
