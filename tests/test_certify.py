import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfol.certify import (SupportedFunction, check_condition_A,
                            check_condition_B, hardy_identity_check, hardy_identity_checks,
                            second_variation, sobolev_constant, sphere_area, sphere_volume)
from minfol.cli import _random_test_function
from minfol.errors import InvalidParameterError
from minfol.jacobi import integrate_jacobi
from minfol.odeflow import IntegratorConfig, integrate_radial_ivp
from minfol.potential import make_bump, scale_potential
from minfol.quadrature import quad_1d


def _simpson_lhs(xi, dxi, n, r1, r2, num=20001):
    """Independent fixed-grid Simpson oracle for the weighted energy."""
    from scipy.integrate import simpson

    rr = np.linspace(r1 if r1 > 0 else 1e-12, r2, num)
    c = ((n - 2) / 2.0) ** 2
    vals = (rr ** (n - 1) * np.asarray([dxi(r) for r in rr]) ** 2
            - c * rr ** (n - 3) * np.asarray([xi(r) for r in rr]) ** 2)
    return simpson(vals, x=rr)


class TestSphereConstants:
    def test_sphere_volumes(self):
        assert sphere_volume(1) == pytest.approx(2.0 * math.pi)
        assert sphere_volume(2) == pytest.approx(4.0 * math.pi)
        assert sphere_volume(3) == pytest.approx(2.0 * math.pi ** 2)

    def test_sobolev_constant_n3(self):
        # 3 * 1 / 4 * |S^3| = (3/4) * 2 pi^2
        assert sobolev_constant(3) == pytest.approx(1.5 * math.pi ** 2)

    def test_area_is_lower_sphere_volume(self):
        assert sphere_area(3) == pytest.approx(sphere_volume(2))


class TestHardyIdentity:
    def test_closed_form_n3(self):
        lhs, rhs = hardy_identity_check(lambda r: 1.0 - r, 3, 0.0, 1.0,
                                        dxi=lambda r: -1.0)
        assert lhs == pytest.approx(0.25, rel=1e-10)
        assert rhs == pytest.approx(0.25, rel=1e-10)
        oracle = _simpson_lhs(lambda r: 1.0 - r, lambda r: -1.0, 3, 0.0, 1.0)
        assert oracle == pytest.approx(0.25, rel=1e-8)

    def test_closed_form_n4(self):
        lhs, rhs = hardy_identity_check(lambda r: 1.0 - r, 4, 0.0, 1.0,
                                        dxi=lambda r: -1.0)
        assert lhs == pytest.approx(1.0 / 6.0, rel=1e-10)
        assert rhs == pytest.approx(1.0 / 6.0, rel=1e-10)
        oracle = _simpson_lhs(lambda r: 1.0 - r, lambda r: -1.0, 4, 0.0, 1.0)
        assert oracle == pytest.approx(1.0 / 6.0, rel=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([3, 4, 5]),
           center=st.floats(1.0, 3.0), width=st.floats(0.2, 0.9),
           amp=st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 0.05))
    def test_identity_for_random_bumps(self, n, center, width, amp):
        xi = make_bump(center, width, amp)
        lhs, rhs = hardy_identity_check(xi, n, 0.05, 4.5)
        assert lhs >= -1e-10
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)

    def test_rejects_nonvanishing_endpoint(self):
        with pytest.raises(InvalidParameterError):
            hardy_identity_check(lambda r: 1.0, 3, 0.0, 1.0,
                                 dxi=lambda r: 0.0)

    def test_rejects_a_supported_function(self):
        # a test function is a bump, or a callable with its derivative
        xi = SupportedFunction(value=lambda r: 1.0 - r, derivative=lambda r: -1.0,
                               support=(0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            hardy_identity_check(xi, 3, 0.0, 1.0)


def _hardy_one_at_a_time(xi, n, r1, r2):
    """The oracle: one bump's Hardy sides by one scalar `quad_1d` over its
    support within [r1, r2], with the integrands written out here."""
    c, m = ((n - 2) / 2.0) ** 2, n / 2.0 - 1.0
    lo, hi = max(r1, xi.support[0]), min(r2, xi.support[1])

    def integrands(r):
        x, dx = xi.value(r), xi.derivative(r)
        dphi = dx * r ** m + m * x * r ** (m - 1.0)
        return r ** (n - 1) * dx * dx - c * r ** (n - 3) * x * x, r * dphi * dphi

    if lo < hi:
        sides = quad_1d(integrands, lo, hi)
        (lhs, rhs), orders = sides, sides.orders
    else:
        (lhs, rhs), orders = (0.0, 0.0), (0, 0)
    boundary = m * (float(xi.value(r1)) * r1 ** m) ** 2 if r1 > 0 else 0.0
    return (lhs, boundary + rhs), tuple(orders)


def _hex(values):
    return [float(v).hex() for v in values]


class TestHardyBatch:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 7, 31])
    def test_batch_has_the_bits_of_one_at_a_time(self, n, seed):
        rng = np.random.default_rng(seed)
        bumps = [_random_test_function(rng, 0.1, 4.0) for _ in range(20)]
        batch = hardy_identity_checks(bumps, n, 0.1, 4.0)
        for j, xi in enumerate(bumps):
            sides, orders = _hardy_one_at_a_time(xi, n, 0.1, 4.0)
            assert _hex(v[j] for v in batch) == _hex(sides)
            assert tuple(int(k[j]) for k in batch.orders) == orders
            single = hardy_identity_check(xi, n, 0.1, 4.0)
            assert _hex(single) == _hex(sides) and single.orders == orders

    def test_clipped_and_outside_bumps(self):
        r1, r2 = 0.5, 3.0
        bumps = [make_bump(0.7, 0.4, 1.3),      # clipped by r1: xi(r1) != 0
                 make_bump(2.0, 1.0 / 0.99, -0.8),   # clipped by r2, xi(r2) < 1e-10
                 make_bump(0.2, 0.25, 2.0),     # wholly below r1
                 make_bump(1.5, 0.5, 0.6),      # inside
                 make_bump(3.5, 0.4, 1.0)]      # wholly above r2
        assert bumps[1].support[1] > r2 and abs(bumps[1].value(r2)) < 1e-10
        batch = hardy_identity_checks(bumps, 4, r1, r2)
        for j, xi in enumerate(bumps):
            sides, orders = _hardy_one_at_a_time(xi, 4, r1, r2)
            assert _hex(v[j] for v in batch) == _hex(sides)
            assert tuple(int(k[j]) for k in batch.orders) == orders
        for j in (2, 4):   # (0, 0) plus a boundary term, which is 0 here
            assert [v[j] for v in batch] == [0.0, 0.0]
            assert [k[j] for k in batch.orders] == [0, 0]
        # the r1-clipped bump's right side holds a boundary term
        boundary = 1.0 * (bumps[0].value(r1) * r1) ** 2
        assert boundary > 0.1 and batch[1][0] > boundary
        assert batch[0][0] == pytest.approx(batch[1][0], rel=1e-8)

    def test_one_element_batch_is_the_single_check(self):
        xi = make_bump(1.4, 0.6, -1.1)
        (lhs,), (rhs,) = hardy_identity_checks([xi], 5, 0.1, 4.0)
        assert _hex(hardy_identity_check(xi, 5, 0.1, 4.0)) == _hex((lhs, rhs))

    def test_empty_batch(self):
        batch = hardy_identity_checks([], 3, 0.1, 4.0)
        assert [v.shape for v in batch] == [(0,), (0,)]
        assert [k.shape for k in batch.orders] == [(0,), (0,)]

    def test_nonvanishing_endpoint_and_bad_dimension(self):
        with pytest.raises(InvalidParameterError):
            hardy_identity_checks([make_bump(1.0, 0.5, 1.0), make_bump(3.8, 0.5, 1.0)],
                                  3, 0.1, 4.0)
        with pytest.raises(InvalidParameterError):
            hardy_identity_checks([make_bump(1.0, 0.5, 1.0)], 2, 0.1, 4.0)


class TestConditions:
    def test_condition_a_certified(self, certified_pot):
        cert = check_condition_A(certified_pot, 3)
        assert cert.verdict == "certified"
        assert cert.margin > 0

    def test_condition_a_fails_at_10x(self, certified_pot):
        cert = check_condition_A(scale_potential(certified_pot, 10.0), 3)
        assert cert.verdict == "not-certified"
        assert cert.margin < 0

    def test_condition_b_certified(self, certified_pot):
        cert = check_condition_B(certified_pot, 3)
        assert cert.verdict == "certified"
        assert cert.norm_value < cert.threshold

    def test_margin_monotone_in_scale(self, certified_pot):
        margins = [check_condition_A(scale_potential(certified_pot, lam),
                                     3).margin
                   for lam in (1.0, 0.5, 0.25)]
        assert margins[0] < margins[1] < margins[2]

    def test_n2_rejected(self, certified_pot):
        with pytest.raises(InvalidParameterError):
            check_condition_A(certified_pot, 2)


class TestSecondVariation:
    def _center_trajectory(self, pot, n, r_lo=0.3, r_hi=8.0):
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                               t_range=(math.log(r_lo), math.log(r_hi)))
        return integrate_radial_ivp(pot, n, r_lo, 0.0, 0.0, cfg)

    def test_positive_on_certified_potential(self, certified_pot):
        traj = self._center_trajectory(certified_pot, 3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            width = rng.uniform(0.3, 1.5)
            center = rng.uniform(0.5 + width, 7.0 - width)
            xi = make_bump(center, width, rng.uniform(0.2, 2.0))
            assert second_variation(traj, xi, certified_pot, 3) > 0

    def test_vanishes_on_conjugate_pair_field(self, strong_pot):
        # the truncated Jacobi field between a conjugate pair is the
        # classical null direction of the second variation
        n = 3
        traj = self._center_trajectory(strong_pot, n)
        t1 = math.log(0.8)
        fld = integrate_jacobi(traj, 0.0, 1.0, mode="radial-form",
                               cfg=IntegratorConfig(rel_tol=1e-12,
                                                    abs_tol=1e-13),
                               t_init=t1)
        zeros = [z for z in fld.zeros if z > t1 + 1e-9]
        assert zeros, "strong potential should produce a conjugate pair"
        t2 = zeros[0]
        r1, r2 = math.exp(t1), math.exp(t2)
        xi = SupportedFunction(
            value=lambda r: float(fld.value(math.log(r)))
            if r1 < r < r2 else 0.0,
            derivative=lambda r: float(fld.derivative(math.log(r))) / r
            if r1 < r < r2 else 0.0,
            support=(r1, r2))
        q = second_variation(traj, xi, strong_pot, n)
        scale = max(abs(float(fld.value(0.5 * (t1 + t2)))), 1e-6)
        assert abs(q) / scale ** 2 < 1e-6


class TestAdditionalConstants:
    def test_sobolev_constant_n4(self):
        # 4 * 2 / 4 * |S^4| = 2 * 8 pi^2 / 3
        assert sobolev_constant(4) == pytest.approx(16.0 * math.pi ** 2 / 3.0)
