import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from minfol.errors import InvalidParameterError, InvalidSupportError
from minfol.potential import (Example446Potential, example_446_potential,
                              k_constant, make_bump, product_potential,
                              rescale_log_potential, scale_potential,
                              to_log_form, u_bound_function, zero_potential)

finite_floats = st.floats(-5.0, 5.0, allow_nan=False)


class TestBumpFunction:
    def test_support_and_compactness(self):
        b = make_bump(2.0, 1.5, 3.0)
        assert b.support == (0.5, 3.5)
        for x in (0.5, 3.5, -10.0, 10.0):
            assert b.value(x) == 0.0
            assert b.derivative(x) == 0.0
            assert b.second_derivative(x) == 0.0
            assert b.third_derivative(x) == 0.0

    def test_peak_value(self):
        b = make_bump(1.0, 2.0, 4.0)
        assert b.value(1.0) == pytest.approx(4.0)
        assert b.derivative(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_invalid_width(self):
        with pytest.raises(InvalidParameterError):
            make_bump(0.0, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            make_bump(0.0, -1.0, 1.0)

    # finite-difference oracles for all three analytic derivatives
    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(-0.95, 0.95))
    def test_derivative_fd_oracle(self, x):
        b = make_bump(0.0, 1.0, 1.0)
        h = 1e-6
        fd = (b.value(x + h) - b.value(x - h)) / (2 * h)
        assert b.derivative(x) == pytest.approx(fd, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(-0.9, 0.9))
    def test_second_derivative_fd_oracle(self, x):
        b = make_bump(0.0, 1.0, 1.0)
        h = 1e-5
        fd = (b.derivative(x + h) - b.derivative(x - h)) / (2 * h)
        assert b.second_derivative(x) == pytest.approx(fd, abs=1e-4)

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(-0.9, 0.9))
    def test_third_derivative_fd_oracle(self, x):
        b = make_bump(0.0, 1.0, 1.0)
        h = 1e-5
        fd = (b.second_derivative(x + h)
              - b.second_derivative(x - h)) / (2 * h)
        assert b.third_derivative(x) == pytest.approx(fd, abs=1e-3,
                                                      rel=1e-4)

    def test_vectorized_evaluation(self):
        b = make_bump(0.0, 1.0, 2.0)
        xs = np.linspace(-2, 2, 41)
        vals = b.value(xs)
        assert vals.shape == xs.shape
        assert vals[0] == 0.0 and vals[20] == pytest.approx(2.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("s", [np.linspace(-0.95, 0.95, 11), np.array([0.3]),
                               np.linspace(-1.5, 1.5, 13), np.array([-1.0, 1.0, 2.5])],
                         ids=["all-inside", "one-inside", "mixed", "all-outside"])
def test_profile_fast_path_equals_masked_branch(s, n):
    from minfol.potential import _profile, _profile_inside

    masked = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    masked[inside] = _profile_inside(s[inside], (n,))[0]
    got = _profile(s, (n,))[0]
    assert got.shape == s.shape
    assert np.array_equal(got.view(np.int64), masked.view(np.int64))

class TestRadialPotential:
    def test_product_support(self):
        pot = product_potential(make_bump(0.0, 1.0, 1.0),
                                make_bump(2.0, 1.0, 1.0))
        assert pot.r_inner == pytest.approx(1.0)
        assert pot.r_outer == pytest.approx(3.0)
        assert pot.u_bound == pytest.approx(1.0)
        assert pot.w(0.5, math.log(1.0)) == 0.0
        assert pot.w(0.0, math.log(2.0)) == pytest.approx(1.0)

    def test_radial_support_must_avoid_origin(self):
        with pytest.raises(InvalidSupportError):
            product_potential(make_bump(0.0, 1.0, 1.0),
                              make_bump(0.0, 1.0, 1.0))

    def test_scale_potential_is_linear(self):
        pot = product_potential(make_bump(0.0, 1.0, 1.0),
                                make_bump(2.0, 1.0, 1.0))
        half = scale_potential(pot, 0.5)
        for u, r in ((0.0, 2.0), (0.3, 1.7), (-0.4, 2.5)):
            t = math.log(r)
            assert half.w(u, t) == pytest.approx(0.5 * pot.w(u, t))
            assert half.d2w_duu(u, t) == pytest.approx(0.5 * pot.d2w_duu(u, t))

    def test_zero_potential(self):
        pot = zero_potential(u_bound=1.0, r_inner=1.0, r_outer=3.0)
        assert pot.w(0.2, math.log(2.0)) == 0.0
        assert pot.dw_du(0.2, math.log(2.0)) == 0.0


class TestLogForm:
    def test_log_form_matches_radial(self, weak_pot):
        # W(u, ln r) = V(u, r) = f(u) g(r), and to_log_form returns its input
        w = to_log_form(weak_pot)
        assert w is weak_pot
        f, g = weak_pot.f, weak_pot.g
        for u, r in ((0.0, 2.0), (0.3, 1.5), (-0.2, 2.8)):
            t = math.log(r)
            assert w.w(u, t) == pytest.approx(f.value(u) * g.value(r))
            assert w.dw_du(u, t) == pytest.approx(f.derivative(u) * g.value(r))
        assert w.t_upper == pytest.approx(math.log(weak_pot.r_outer))

    @pytest.mark.parametrize("family", ["product", "example446"])
    @pytest.mark.parametrize("n_scale", [1, 3])
    def test_centred_in_u_is_a_translate_on_its_support(self, family, n_scale):
        def built(c):
            if family == "product":
                return product_potential(make_bump(c, 0.7, 0.3), make_bump(2.0, 0.8, 0.1))
            return example_446_potential(make_bump(c, 0.7, 1.0), make_bump(0.5, 0.5, 1.0))
        w = rescale_log_potential(built(-0.4), n_scale)
        centred = w.centred_in_u()
        # the same bump built centred, to the last bit; W(u + c/N, t) elsewhere
        assert centred == rescale_log_potential(built(0.0), n_scale)
        assert centred.u_bound == 0.7 / n_scale
        u = np.linspace(-1.2, 1.2, 41) / n_scale
        t = np.linspace(w.t_lower, w.t_upper, 41)
        for k, (a, b) in enumerate(zip(centred.jet(u, t, (0, 1, 2, 3)),
                                       w.jet(u - 0.4 / n_scale, t, (0, 1, 2, 3)))):
            assert np.allclose(a, b, rtol=1e-9, atol=1e-12 * n_scale ** k), k
        for already in (built(0.0), zero_potential(), rescale_log_potential(built(0.0), 2)):
            assert already.centred_in_u() is already

    def test_k_constant_dominates_curvature(self, weak_log):
        K = weak_log.k_curvature
        rng = np.random.default_rng(0)
        us = rng.uniform(-weak_log.u_bound, weak_log.u_bound, 200)
        ts = rng.uniform(weak_log.t_lower, weak_log.t_upper, 200)
        curv = weak_log.d2w_duu(us, ts)
        assert np.all(curv <= K * K + 1e-12)

    def test_k_constant_positive_part_only(self):
        # pure downward curvature along u = 0 gives K = 0 there; the sup
        # over the whole strip still picks up the positive rim values
        pot = product_potential(make_bump(0.0, 1.0, 1.0),
                                make_bump(2.0, 1.0, 1.0))
        w = to_log_form(pot)
        assert w.k_curvature >= 0.0

    @pytest.mark.parametrize("N", [2, 4])
    def test_k_constant_rescaling_invariance(self, weak_log, N):
        # W_N(u, t) = W(Nu, t)/N^2 has the same sup of the second u-derivative
        wn = rescale_log_potential(weak_log, N)
        assert k_constant(wn) == k_constant(weak_log)

    # K of the 512 x 512 grid search plus refinement that the closed form
    # replaced, on the same potentials
    SEARCHED_K = {
        ("weak_bump", 1.0): 0.10263011770169227,
        ("weak_bump", -1.0): 0.04560107131400205,
        ("strong_bump", 1.0): 4.995347081016132,
        ("strong_bump", -1.0): 11.242566108925422,
        ("narrow_bump", 1.0): 6.244183851270164,
        ("narrow_bump", -1.0): 14.053207636156772,
        ("scaling_bump", 1.0): 0.6490898569370253,
        ("scaling_bump", -1.0): 0.2884064981920275,
        ("certified_bump", 1.0): 0.21639810345290467,
        ("certified_bump", -1.0): 0.09615096980063177,
        ("flat", 1.0): 0.0,
        ("flat", -1.0): 0.0,
    }

    @pytest.mark.parametrize("name, lam", list(SEARCHED_K))
    def test_closed_form_k_bounds_the_curvature(self, name, lam):
        from minfol import catalog

        w = to_log_form(scale_potential(getattr(catalog, name)(), lam))
        K, searched = w.k_curvature, self.SEARCHED_K[name, lam]
        uu = np.linspace(-w.u_bound, w.u_bound, 801)
        tt = np.linspace(w.t_lower, w.t_upper, 801)
        assert K * K >= np.max(w.d2w_duu(uu[:, None], tt[None, :]))
        assert K >= searched
        assert K - searched <= 5e-15 * searched

    def test_k_constant_rejects_example446(self):
        with pytest.raises(InvalidParameterError):
            k_constant(_example446("chain-rule"))
        with pytest.raises(InvalidParameterError):
            to_log_form(_example446("as-printed"))
        with pytest.raises(InvalidParameterError):
            _example446("chain-rule").k_curvature

    @pytest.mark.parametrize("name", ["flat", "weak_bump", "strong_bump", "certified_bump",
                                      "narrow_bump", "scaling_bump"])
    def test_k_curvature_is_k_constant(self, name):
        from minfol import catalog

        w = getattr(catalog, name)()
        assert w.k_curvature.hex() == k_constant(w).hex()
        for N in (2, 4, 8):
            wn = rescale_log_potential(w, N)
            assert wn.k_curvature.hex() == k_constant(wn).hex() == k_constant(w).hex()

    def test_rescale_shrinks_u_bound(self, weak_log):
        wn = rescale_log_potential(weak_log, 4)
        assert wn.u_bound == pytest.approx(weak_log.u_bound / 4)
        assert wn.w(0.1, 1.0) == pytest.approx(weak_log.w(0.4, 1.0) / 16.0)

    @pytest.mark.parametrize("family", ["product", "example446"])
    @pytest.mark.parametrize("N", [2, 3, 7])
    def test_rescaled_potential_is_a_narrower_u_bump(self, family, N):
        # W(N u, t) / N^2 is the family's potential of bump(c/N, w/N, a/N^2)
        c, width, a = -0.3, 0.7, 1.3
        if family == "product":
            g = make_bump(2.0, 0.8, 0.1)
            pot, built = (product_potential(make_bump(*p), g)
                          for p in ((c, width, a), (c / N, width / N, a / N**2)))
        else:
            psi = make_bump(0.5, 0.5, 1.0)
            pot, built = (example_446_potential(make_bump(*p), psi)
                          for p in ((c, width, a), (c / N, width / N, a / N**2)))
        wn = rescale_log_potential(pot, N)
        assert wn == replace(built, u_bound=pot.u_bound / N)
        U, T = _interior_grid(wn)
        scale = (N * N, N, 1.0, N * N)   # of W, W_u, W_uu and W_t
        for view, k in zip(LOG_VIEWS, scale):
            got, want = getattr(wn, view)(U, T), getattr(pot, view)(N * U, T) / k
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=view)

    def test_rescaled_zero_potential_only_shrinks_its_box(self):
        w = zero_potential(u_bound=1.5)
        assert rescale_log_potential(w, 3) == replace(w, u_bound=0.5)


class TestEnvelope:
    def test_envelope_dominates_pointwise_curvature(self, certified_pot):
        env = u_bound_function(certified_pot, 3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = rng.uniform(certified_pot.r_inner, certified_pot.r_outer)
            u = rng.uniform(-certified_pot.u_bound, certified_pot.u_bound)
            assert env(np.asarray([r]))[0] >= certified_pot.d2w_duu(u, math.log(r)) - 1e-9

    def test_envelope_nonnegative(self, strong_pot):
        env = u_bound_function(strong_pot, 3)
        rr = np.linspace(0.5, 4.0, 64)
        assert np.all(env(rr) >= 0.0)

    @pytest.mark.parametrize("case", ["certified", "negative-scale", "rescaled"])
    def test_factored_envelope_matches_per_radius_search(self, case,
                                                         certified_pot):
        if case == "certified":
            pot = certified_pot
        elif case == "negative-scale":   # the max comes from inf f''
            pot = scale_potential(certified_pot, -1.0)
        else:
            pot = rescale_log_potential(to_log_form(_product()), 4)
        env = u_bound_function(pot, 3)
        rr = np.linspace(pot.r_inner - 0.1, pot.r_outer + 0.1, 41)
        uu = np.linspace(-pot.u_bound, pot.u_bound, 4001)
        grid = pot.d2w_duu(uu[:, None], np.log(rr)[None, :])
        got = env(rr)
        assert np.all(got >= np.max(grid, axis=0) - 1e-12)
        # reference: the dense grid max at each radius, refined locally
        ref = []
        for j, r in enumerate(rr):
            i = int(np.argmax(grid[:, j]))
            lo, hi = uu[max(i - 1, 0)], uu[min(i + 1, len(uu) - 1)]
            res = optimize.minimize_scalar(lambda u: -float(pot.d2w_duu(u, math.log(r))),
                                           bounds=(lo, hi), method="bounded",
                                           options={"xatol": 1e-12})
            ref.append(max(0.0, grid[i, j], -res.fun))
        assert np.max(np.abs(got - np.asarray(ref))) <= 1e-9
        assert np.max(got) > 0.0

    def test_zero_potential_envelope_is_zero(self):
        env = u_bound_function(zero_potential(), 3)
        assert np.all(env(np.linspace(0.5, 3.5, 16)) == 0.0)
        assert env(2.0) == 0.0

    def test_envelope_rejects_example446(self):
        with pytest.raises(InvalidParameterError):
            u_bound_function(_example446("chain-rule"), 3)


def test_profile_curvature_extremes_are_enclosed():
    # g''' = -4 s g (6s^6 + 3s^4 - 10s^2 + 3) / (1-s^2)^6, so the extremes of
    # g'' sit at s = 0 or at s = sqrt(x), x a root of 6x^3 + 3x^2 - 10x + 3 in
    # (0, 1); sympy isolates the roots exactly, mpmath evaluates g'' there
    import mpmath
    import sympy

    from minfol.potential import _G2_INF, _G2_SUP

    x = sympy.Symbol("x")
    roots = [r for r in sympy.real_roots(6 * x**3 + 3 * x**2 - 10 * x + 3) if 0 < r < 1]
    assert len(roots) == 2
    with mpmath.workdps(50):
        def g2(s):
            q = 1 - s * s
            return mpmath.exp(1 - 1 / q) * (4 * s * s / q**4 - 2 * (1 + 3 * s * s) / q**3)

        vals = [g2(mpmath.mpf(0))] + [g2(mpmath.sqrt(mpmath.mpf(r.evalf(60)))) for r in roots]
        sup, inf = max(vals), min(vals)
        assert mpmath.mpf(_G2_SUP) >= sup and mpmath.mpf(_G2_INF) <= inf
        # one ulp outward, no more
        assert mpmath.mpf(np.nextafter(_G2_SUP, 0.0)) < sup
        assert mpmath.mpf(np.nextafter(_G2_INF, 0.0)) > inf
    g2s = make_bump(0.0, 1.0, 1.0).second_derivative(np.linspace(-0.999, 0.999, 20001))
    assert _G2_INF <= np.min(g2s) and np.max(g2s) <= _G2_SUP


def _product():
    return product_potential(make_bump(0.1, 0.9, 1.5), make_bump(2.0, 1.0, 0.8))


def _example446(variant):
    return example_446_potential(make_bump(0.0, 1.0, 1.0),
                                 make_bump(0.5, 0.5, 1.0), variant=variant)


def _family_case(name):
    """The log form of one member of each family."""
    if name == "product":
        return _product()
    if name == "scaled":
        return scale_potential(_product(), 0.37)
    if name == "zero":
        return zero_potential(u_bound=1.0, r_inner=1.0, r_outer=3.0)
    if name == "rescaled":
        return rescale_log_potential(_product(), 4)
    return _example446(name)


FAMILY_CASES = ["product", "scaled", "rescaled", "zero", "as-printed",
                "chain-rule"]


def _interior_grid(w, count=7):
    """Points of the support strip at least 15% of its size from its edges."""
    us = np.linspace(-0.7, 0.7, count) * w.u_bound
    margin = 0.15 * (w.t_upper - w.t_lower)
    ts = np.linspace(w.t_lower + margin, w.t_upper - margin, count)
    return np.meshgrid(us, ts, indexing="ij")


@pytest.mark.parametrize("name", FAMILY_CASES)
def test_derivatives_match_finite_differences(name):
    w = _family_case(name)
    U, T = _interior_grid(w)
    h = 1e-5

    def check(exact, fd):
        np.testing.assert_allclose(exact, fd, rtol=1e-6, atol=1e-6)

    check(w.dw_du(U, T), (w.w(U + h, T) - w.w(U - h, T)) / (2 * h))
    check(w.d2w_duu(U, T), (w.dw_du(U + h, T) - w.dw_du(U - h, T)) / (2 * h))
    check(w.dw_dt(U, T), (w.w(U, T + h) - w.w(U, T - h)) / (2 * h))


def _radial_definition(pot, u, r, N=1):
    """V, V_u, V_uu and r V_r at (u, r) of pot rescaled by N, written out from
    each family's definition in the radius r and from V_N(u, r) = V(N u, r) / N^2."""
    if isinstance(pot, Example446Potential):
        phi, psi, k = pot.phi, pot.psi, pot.psi_power
        s = np.log(r)
        P, P1, P2 = (d(s) for d in (psi.value, psi.derivative, psi.second_derivative))
        F0, F1, F2, F3 = (d(u) for d in (phi.value, phi.derivative, phi.second_derivative,
                                         phi.third_derivative))
        c = -1.0 / (r * r)
        bracket = P1 * F0 + 0.5 * P**k * F1 * F1
        return (c * bracket, c * (P1 * F1 + P**k * F1 * F2),
                c * (P1 * F2 + P**k * (F2 * F2 + F1 * F3)),
                -2.0 * c * bracket + c * (P2 * F0 + 0.5 * k * P**(k - 1) * P1 * F1 * F1))
    if pot.f is None:
        return (np.zeros(np.broadcast(u, r).shape),) * 4
    c = pot.lam
    f, g = pot.f, pot.g
    return (c * f.value(N * u) * g.value(r) / N**2, c * f.derivative(N * u) * g.value(r) / N,
            c * f.second_derivative(N * u) * g.value(r),
            c * f.value(N * u) * r * g.derivative(r) / N**2)


@pytest.mark.parametrize("name", FAMILY_CASES)
def test_radial_and_log_views_agree(name):
    # the log views at t = ln r are the potential's radial definition V(u, r)
    # (a rescaled one from the definition of the potential before rescaling)
    w = _family_case(name)
    U, T = _interior_grid(w)
    views = (w.w(U, T), w.dw_du(U, T), w.d2w_duu(U, T), w.dw_dt(U, T))
    pot, N = (_product(), 4) if name == "rescaled" else (w, 1)
    for got, want in zip(views, _radial_definition(pot, U, np.exp(T), N)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


LOG_VIEWS = ("w", "dw_du", "d2w_duu", "dw_dt")


@pytest.mark.parametrize("name", FAMILY_CASES)
def test_pickle_round_trip(name):
    pot = _family_case(name)
    copy = pickle.loads(pickle.dumps(pot))
    assert copy == pot
    U, T = _interior_grid(pot)
    for view in LOG_VIEWS:
        before = np.asarray(getattr(pot, view)(U, T))
        after = np.asarray(getattr(copy, view)(U, T))
        assert after.tobytes() == before.tobytes(), view


def _jet_inputs(w):
    """(u, t) pairs of each kind: one point, all inside the support box,
    some inside, none inside."""
    U, T = _interior_grid(w)
    lo, hi = w.t_lower, w.t_upper
    mixed = np.meshgrid(np.linspace(-1.5, 1.5, 9) * w.u_bound,
                        np.linspace(lo - 0.5, hi + 0.5, 11), indexing="ij")
    outside = (np.linspace(1.1, 3.0, 6) * w.u_bound, np.linspace(lo, hi, 6))
    return {"0-d": (U[2, 3], T[2, 3]), "all-inside": (U, T), "mixed": mixed,
            "all-outside": outside}


JET_ORDERS = [(0, 1, 2, 3), (1, 2), (0, 1, 3), (3, 0), (2,)]


@pytest.mark.parametrize("kind", ["0-d", "all-inside", "mixed", "all-outside"])
@pytest.mark.parametrize("name", FAMILY_CASES)
def test_jet_equals_the_views_bit_for_bit(name, kind):
    w = _family_case(name)
    u, t = _jet_inputs(w)[kind]
    views = [getattr(w, view)(u, t) for view in LOG_VIEWS]
    for orders in JET_ORDERS:
        jet = w.jet(u, t, orders)
        assert len(jet) == len(orders)
        for o, got in zip(orders, jet):
            want = np.asarray(views[o])
            assert np.shape(got) == want.shape
            assert np.asarray(got).tobytes() == want.tobytes(), (orders, o)


@pytest.mark.parametrize("s", [np.float64(0.3), np.float64(1.5), np.linspace(-0.95, 0.95, 11),
                               np.linspace(-1.5, 1.5, 13), np.array([-1.0, 1.0, 2.5])],
                         ids=["0-d-inside", "0-d-outside", "all-inside", "mixed",
                              "all-outside"])
def test_profile_orders_equal_single_orders(s):
    from minfol.potential import _profile

    bump = make_bump(0.2, 0.7, -1.3)
    views = (bump.value, bump.derivative, bump.second_derivative, bump.third_derivative)
    for orders in [(0, 1, 2, 3), (1, 2), (0, 3), (2,), (3,)]:
        got, jet = _profile(s, orders), bump.jet(s, orders)
        for k, n in enumerate(orders):
            assert np.asarray(got[k]).tobytes() == np.asarray(_profile(s, (n,))[0]).tobytes()
            assert np.asarray(jet[k]).tobytes() == np.asarray(views[n](s)).tobytes()


@pytest.mark.parametrize("shape", [(14,), (2, 7)])
@pytest.mark.parametrize("orders", [(0,), (1,), (2,), (3,), (1, 2), (0, 1, 2, 3), (3, 0)])
def test_profile_masked_branch_equals_its_points_without_warnings(orders, shape):
    # the points outside go through the formula at a point of its foot, where
    # every order is +0.0; nothing at or past |s| = 1 may raise a warning
    import warnings

    from minfol.potential import _profile

    s = np.array([-np.inf, -1.5, -1.0, np.nextafter(-1.0, 0.0), -0.5, -0.0, 0.0, 0.3,
                  0.9999, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 3.0,
                  np.nan]).reshape(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _profile(s, orders)
        points = [_profile(x, orders) for x in s.flat]
    for k in range(len(orders)):
        want = np.array([p[k] for p in points]).reshape(shape)
        assert got[k].shape == shape
        assert got[k].tobytes() == want.tobytes(), orders[k]
    outside = ~(np.abs(s) < 1.0)
    assert all(np.all(d[outside] == 0.0) and not np.any(np.signbit(d[outside])) for d in got)
