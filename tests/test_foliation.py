import numpy as np
import pytest

from minfol import foliation
from minfol.catalog import example_pair
from minfol.errors import InapplicableError, InvalidParameterError
from minfol.foliation import (LeafFamily, build_MA_family, build_NA_family,
                              check_ordering, example_446_check,
                              select_example_446_variant)
from minfol.odeflow import asymptotic_match_outer
from minfol.potential import zero_potential

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

    def test_rejects_unsorted_alphas(self, certified_pot):
        with pytest.raises(InvalidParameterError):
            build_NA_family(certified_pot, 3, 0.0, [0.2, 0.1])

    def test_rejects_n2(self, certified_pot):
        with pytest.raises(InvalidParameterError):
            build_NA_family(certified_pot, 2, 0.0, ALPHAS)


class TestInnerFamily:
    def test_is_ordered(self, certified_pot):
        fam = build_MA_family(certified_pot, 3, 0.05, ALPHAS)
        assert fam.ordering.verdict == "ordered"
        assert fam.ordering.min_gap > 0

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
        flows = []
        original = foliation._first_order_flow

        def counted(*args):
            flows.append(args[2])
            return original(*args)

        monkeypatch.setattr(foliation, "_first_order_flow", counted)
        phi, psi = example_pair()
        assert select_example_446_variant(phi, psi) == "chain-rule"
        assert len(flows) == 5

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
