import numpy as np
import pytest
from scipy.integrate import quad

from minfol.errors import AccuracyError
from minfol.potential import make_bump
from minfol.quadrature import ORDERS, gauss_legendre, quad_1d


def _counted(f):
    calls = []

    def wrapped(x):
        calls.append(len(x))
        return f(x)
    return wrapped, calls


class TestGaussLegendre:
    def test_nodes_are_cached_and_read_only(self):
        x, w = gauss_legendre(48)
        again = gauss_legendre(48)
        assert again[0] is x and again[1] is w
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert w.sum() == pytest.approx(2.0, rel=1e-14)


class TestQuad1D:
    def test_polynomial_is_exact_at_the_first_orders(self):
        # the 24-point rule integrates degree <= 47 exactly, so the ladder
        # stops at the second order
        coeffs = np.random.default_rng(3).uniform(-1.0, 1.0, 48)
        poly = np.polynomial.Polynomial(coeffs)
        a, b = 0.2, 1.0
        f, calls = _counted(lambda x: (poly(x),))
        (got,) = quad_1d(f, a, b)
        exact = poly.integ()(b) - poly.integ()(a)
        assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)
        assert calls == list(ORDERS[:2])

    def test_bump_integral(self):
        xi = make_bump(1.5, 0.8, 2.0)
        a, b = xi.support
        (got,) = quad_1d(lambda x: (xi.value(x),), a, b)
        ref, _ = quad(xi.value, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_components_share_evaluations(self):
        xi = make_bump(0.0, 1.0, 1.0)
        f, calls = _counted(lambda x: (np.ones_like(x), xi.value(x)))
        one, bump = quad_1d(f, -1.0, 1.0)
        (alone,) = quad_1d(lambda x: (xi.value(x),), -1.0, 1.0)
        assert one == pytest.approx(2.0, rel=1e-15)
        assert bump == alone
        assert len(calls) > 2

    def test_step_raises_with_estimate(self):
        with pytest.raises(AccuracyError) as info:
            quad_1d(lambda x: (np.where(x > 0.3, 1.0, 0.0),), 0.0, 1.0)
        assert info.value.estimate == pytest.approx(0.7, abs=1e-2)
