"""Tests of the benchmark's own reference computations (no minfol involved)."""

import numpy as np
import pytest

import reference as ref


def test_free_flow_closed_form():
    """With W = 0 the flow is free flight and the Jacobi field xi = t - t_start
    never vanishes again, also across the solver's strip leg."""
    pot = ref.ProductPotential(ref.Bump(0.0, 1.0, 0.0), ref.Bump(2.0, 1.0, 1.0))
    u0, p0, t_start = 0.3, -0.2, -2.0
    flow = ref.planar_flow(pot, u0, p0, t_start)
    assert flow.strip is not None
    for t in np.linspace(t_start, pot.t_upper + 5.0, 41):
        u, p, xi, dxi = flow.state(float(t))
        assert u == pytest.approx(u0 + p0 * (t - t_start), abs=1e-12)
        assert p == pytest.approx(p0, abs=1e-12)
        assert xi == pytest.approx(t - t_start, abs=1e-12)
        assert dxi == pytest.approx(1.0, abs=1e-12)
    assert flow.strip_zeros == []
    assert flow.first_conjugate(pot.t_upper + 10.0) is None


@pytest.mark.parametrize("order", [1, 2, 3])
def test_bump_derivatives_match_finite_differences(order):
    b = ref.Bump(0.3, 0.7, -1.3)
    h = 1e-5
    xs = np.linspace(b.lo + 0.05, b.hi - 0.05, 57)
    analytic = b.derivs(xs, order)[order]
    lower = lambda x: b.derivs(x, order - 1)[order - 1]
    central = (lower(xs + h) - lower(xs - h)) / (2.0 * h)
    scale = np.max(np.abs(analytic))
    assert np.max(np.abs(central - analytic)) <= 1e-6 * scale


def test_bump_vanishes_off_support():
    b = ref.Bump(0.3, 0.7, -1.3)
    xs = np.array([b.lo - 1.0, b.lo, b.hi, b.hi + 0.5])
    for values in b.derivs(xs, 3):
        assert np.all(values == 0.0)
    assert float(b.derivs(b.c, 0)[0]) == pytest.approx(b.a)


@pytest.mark.parametrize("f, g", [((0.0, 1.0, 0.2), (2.0, 0.8, 0.1)),
                                  ((0.0, 0.8, -0.3), (1.8, 0.6, 0.15))])
def test_rescaled_sides_rule_is_converged(f, g):
    """The default tensor rule agrees with a finer one far below the 1e-8
    tolerance the scaling-law checks use."""
    pot = ref.ProductPotential(ref.Bump(*f), ref.Bump(*g))
    Ns = [1, 4, 128]
    coarse = ref.rescaled_sides(pot, Ns)
    fine = ref.rescaled_sides(pot, Ns, panels=32, order=32)
    for N in Ns:
        assert coarse[N][0] == pytest.approx(fine[N][0], rel=1e-10)
        assert coarse[N][1] == pytest.approx(fine[N][1], rel=1e-10)
