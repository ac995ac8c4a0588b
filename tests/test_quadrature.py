import numpy as np
import pytest
from scipy.integrate import quad

from minfol.errors import AccuracyError, InvalidParameterError
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

    @pytest.mark.parametrize("order", ORDERS)
    def test_nodes_mirror_exactly(self, order):
        # rigidity.RescaledSides computes half the rows of an even integrand
        # and copies the others from them, reversed
        x, w = gauss_legendre(order)
        assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)


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
        assert quad_1d(lambda x: (poly(x),), a, b).orders == (ORDERS[1],)

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


def _bump_integrands(x):
    """Two elementwise integrands of one bump, for nodes of any shape."""
    xi = make_bump(1.0, 0.9, 1.5)
    return xi.value(x), x * x * xi.derivative(x)


class TestQuad1DBatch:
    def test_each_row_has_the_bits_of_the_scalar_rule(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.1, 1.0, 12)      # inside the bump's support (0.1, 1.9)
        b = a + rng.uniform(0.05, 0.9, 12)
        batch = quad_1d(_bump_integrands, a, b)
        assert [v.shape for v in batch] == [(12,), (12,)]
        for j in range(12):
            one = quad_1d(_bump_integrands, float(a[j]), float(b[j]))
            assert [float(v[j]).hex() for v in batch] == [v.hex() for v in one]
            assert [int(k[j]) for k in batch.orders] == list(one.orders)

    def test_nodes_have_one_row_per_interval(self):
        f, calls = _counted(lambda x: (x,))
        quad_1d(f, np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 2.5]))
        assert calls == [3, 3]   # len of a (B, order) array is B

    def test_the_accepted_order_does_not_depend_on_the_other_rows(self):
        # [0, 0.1] converges at the second order; [0, 40] of the narrow bump
        # needs more, and its row must not hold the first row back or on
        xi = make_bump(20.0, 19.0, 1.0)
        f = lambda x: (xi.value(x),)
        alone = quad_1d(f, 0.5, 0.6)
        for other in (1.1, 39.0):
            both = quad_1d(f, np.array([0.5, 1.0]), np.array([0.6, other]))
            assert float(both[0][0]).hex() == alone[0].hex()
            assert int(both.orders[0][0]) == alone.orders[0]
            assert int(both.orders[0][1]) == quad_1d(f, 1.0, other).orders[0]
        assert quad_1d(f, 1.0, 39.0).orders[0] > alone.orders[0]

    def test_an_empty_batch_is_an_error(self):
        with pytest.raises(InvalidParameterError):
            quad_1d(lambda x: (x,), np.array([]), np.array([]))
