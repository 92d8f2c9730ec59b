"""Series module tests.

The ground truth throughout is the damped Newton solver for
chi - phi - beta*sin(chi) = 0, which is itself checked against an
independent bisection and by its residual.  Everything series-shaped
(sin_beta, cos_beta, exp_mu_coeff, g_coeff) is compared against
functions of the Newton chi.  bessel_j, a Miller recurrence, is compared
with scipy's jv, an independent implementation.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from coupler_lab import kapteyn
from coupler_lab.errors import NumericError
from coupler_lab.kapteyn import (
    FourierSeries,
    _sin_coeffs,
    bessel_j,
    cos_beta,
    exp_mu_coeff,
    g_coeff,
    kepler_solve,
    sin_beta,
)

BETAS = [0.25, 0.5, 0.75, 0.9]
PHI_GRID = np.linspace(-np.pi, np.pi, 97)


def bessel_series(n, x, terms=80):
    # power-series oracle: J_n(x) = sum_k (-1)^k (x/2)^{n+2k} / (k! (n+k)!)
    n = abs(int(n))
    t = (x / 2.0) ** n / float(math.factorial(n))
    total = t
    for k in range(terms):
        t *= -(x / 2.0) ** 2 / ((k + 1.0) * (n + k + 1.0))
        total += t
    return total


class TestBessel:
    def test_against_power_series(self):
        for n in [0, 1, 2, 5, 13]:
            for x in [0.1, 0.9, 2.5, 3.75]:
                assert bessel_j(n, x) == pytest.approx(bessel_series(n, x), rel=1e-12, abs=1e-300)

    def test_negative_order_symmetry(self):
        for n in range(1, 8):
            assert bessel_j(-n, 1.7) == pytest.approx((-1) ** n * bessel_j(n, 1.7), rel=1e-13)

    def test_rejects_fractional_order(self):
        with pytest.raises(ValueError):
            bessel_j(0.5, 1.0)

    def test_vectorized(self):
        nu = np.arange(1, 6)
        out = bessel_j(nu, 0.5 * nu)
        assert out.shape == (5,)
        assert out[2] == pytest.approx(bessel_series(3, 1.5), rel=1e-12)


ORACLE_BETAS = [5e-324, 1e-300, 1e-6, 0.05, 0.3, 0.75, 0.95, 0.99]
ORACLE_NU = [1, 2, 7, 64, 400, 2048]


class TestBesselOracle:
    # scipy's jv (Amos / Cephes) is an implementation independent of the
    # recurrence.  Below the turning point (order < x) J oscillates, and at
    # a double x near one of its zeros no evaluation is relatively
    # accurate (mpmath: at J_2004(2027.52) = -2.87e-4 jv is off by 7.8e-12
    # relative, the recurrence by 3.2e-12), so there the error is measured
    # against the largest of J at the order and its two neighbours.
    @pytest.mark.parametrize("beta", ORACLE_BETAS)
    def test_kapteyn_bands_match_jv(self, beta):
        for nu in ORACLE_NU:
            x = beta * nu
            orders = np.arange(nu - 121, nu + 122)
            ref = jv(orders, x)
            got = bessel_j(orders[1:-1], x)
            ref, scale = ref[1:-1], np.abs(ref[1:-1])
            below = orders[1:-1] < x
            scale[below] = np.max(np.abs(np.stack((ref, jv(orders[:-2], x),
                                                    jv(orders[2:], x)))), axis=0)[below]
            shown = np.abs(ref) > 1e-290
            assert np.all(np.abs(got - ref)[shown] <= 1e-12 * scale[shown]), (beta, nu)
            assert np.all(np.isfinite(got))

    def test_scalars(self):
        for n, x in [(0, 0.3), (5, 2.5), (300, 225.0), (50, 400.0), (7, 1e-310)]:
            alone = bessel_j(n, x)
            assert isinstance(alone, np.float64)
            assert alone == pytest.approx(jv(n, x), rel=1e-12, abs=1e-300)

    def test_zero_argument(self):
        assert bessel_j(0, 0.0) == 1.0
        assert np.all(bessel_j(np.arange(1, 6), 0.0) == 0.0)
        assert np.all(bessel_j(-np.arange(1, 6), -0.0) == 0.0)

    def test_sign_rules(self):
        n = np.arange(-9, 10)
        for x in (0.7, 3.0, 40.0):
            want = jv(n, x)
            assert np.allclose(bessel_j(n, x), want, rtol=1e-12, atol=0.0)
            assert np.allclose(bessel_j(n, -x), jv(n, -x), rtol=1e-12, atol=0.0)
            assert np.array_equal(bessel_j(-n, x), (-1.0) ** np.abs(n) * bessel_j(n, x))
            assert np.array_equal(bessel_j(n, -x), (-1.0) ** np.abs(n) * bessel_j(n, x))

    def test_broadcast_and_non_finite(self):
        out = bessel_j(np.arange(3)[:, None], np.array([0.5, 1.5]))
        assert out.shape == (3, 2)
        assert np.allclose(out, jv(np.arange(3)[:, None], np.array([0.5, 1.5])), rtol=1e-13)
        assert np.all(np.isnan(bessel_j([1, 2], [np.nan, np.inf])))
        assert bessel_j(np.zeros(0, dtype=int), 1.0).shape == (0,)


class TestKeplerSolve:
    def test_residual(self):
        for beta in BETAS + [0.99]:
            chi = kepler_solve(beta, PHI_GRID)
            resid = chi - PHI_GRID - beta * np.sin(chi)
            assert np.max(np.abs(resid)) < 1e-13

    def test_against_bisection(self):
        # independent root finder on the same strictly increasing function
        beta, phi = 0.9, 1.3
        lo, hi = phi - 1.0, phi + 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid - phi - beta * np.sin(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert kepler_solve(beta, phi) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_scalar_round_trip(self):
        chi = kepler_solve(0.5, 0.0)
        assert isinstance(chi, float)
        assert chi == 0.0

    def test_monotone_in_phi(self):
        chi = kepler_solve(0.95, np.linspace(-7.0, 7.0, 501))
        assert np.all(np.diff(chi) > 0.0)

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ValueError):
            kepler_solve(1.0, 0.3)
        with pytest.raises(ValueError):
            kepler_solve(-0.1, 0.3)

    def test_step_limit_raises(self, monkeypatch):
        # one Newton step from chi = phi leaves beta = 0.9, phi = 2 far from the root
        monkeypatch.setattr(kapteyn, "_KEPLER_MAX_ITER", 1)
        with pytest.raises(NumericError, match="did not converge") as info:
            kepler_solve(0.9, np.array([0.0, 2.0]))
        assert info.value.details["iterations"] == 1
        assert info.value.details["residual"] > 1e-3


class TestSinBeta:
    # Truncation tails: the coefficients decay like exp(-nu*g(beta)) with
    # g(0.75) = 0.126 and g(0.9) = 0.031, so nu_max=300 is at machine
    # precision for beta <= 0.75 but only ~4e-8 at beta = 0.9; nu_max=450
    # brings beta = 0.9 under 1e-9.
    def test_matches_newton_chi(self):
        for beta in BETAS:
            chi = kepler_solve(beta, PHI_GRID)
            err = sin_beta(beta, PHI_GRID, nu_max=300) - np.sin(chi)
            tol = 1e-12 if beta <= 0.75 else 5e-7
            assert np.max(np.abs(err)) < tol

    def test_self_consistency(self):
        # s = sin(phi + beta*s) is the defining equation in disguise
        for beta in BETAS:
            s = sin_beta(beta, PHI_GRID, nu_max=300)
            tol = 1e-12 if beta <= 0.75 else 1e-7
            assert np.max(np.abs(s - np.sin(PHI_GRID + beta * s))) < tol

    def test_self_consistency_deep_tail(self):
        s = sin_beta(0.9, PHI_GRID, nu_max=450)
        assert np.max(np.abs(s - np.sin(PHI_GRID + 0.9 * s))) < 1e-9

    def test_beta_zero_is_sin(self):
        phi = np.linspace(-3.0, 3.0, 11)
        assert np.allclose(sin_beta(0.0, phi), np.sin(phi), atol=1e-15)

    def test_scalar(self):
        assert isinstance(sin_beta(0.5, 1.0), float)

    @settings(max_examples=30, deadline=None)
    @given(
        beta=st.floats(0.0, 0.9),
        phi=st.floats(-10.0, 10.0),
        nu_max=st.integers(5, 60),
    )
    def test_odd_and_periodic(self, beta, phi, nu_max):
        s = sin_beta(beta, np.array([phi, -phi, phi + 2.0 * np.pi]), nu_max=nu_max)
        assert s[1] == pytest.approx(-s[0], abs=1e-10)
        assert s[2] == pytest.approx(s[0], abs=1e-10)


class TestCosBeta:
    def test_closed_form(self):
        # cos_beta = (beta/2) sin_beta^2 + cos(chi), from integrating the
        # derivative of the defining equation
        for beta in BETAS:
            chi = kepler_solve(beta, PHI_GRID)
            c = cos_beta(beta, PHI_GRID, nu_max=300)
            ref = (beta / 2.0) * np.sin(chi) ** 2 + np.cos(chi)
            tol = 1e-12 if beta <= 0.75 else 1e-7
            assert np.max(np.abs(c - ref)) < tol

    def test_unity_at_origin_any_truncation(self):
        for nu_max in [1, 3, 10]:
            assert cos_beta(0.8, 0.0, nu_max=nu_max) == 1.0
            assert cos_beta(0.8, 2.0 * np.pi, nu_max=nu_max) == pytest.approx(1.0, abs=1e-12)

    def test_period_mean(self):
        # mean over a period is -beta/4; quadrature of the closed form
        # with Newton chi is the independent route
        theta = np.linspace(0.0, 2.0 * np.pi, 20001)
        for beta in [0.5, 0.95]:
            chi = kepler_solve(beta, theta)
            vals = (beta / 2.0) * np.sin(chi) ** 2 + np.cos(chi)
            mean = np.trapezoid(vals, theta) / (2.0 * np.pi)
            assert mean == pytest.approx(-beta / 4.0, abs=1e-9)
            if beta <= 0.9:
                nu = np.arange(1, 301)
                series_mean = 1.0 - np.sum(2.0 * bessel_j(nu, beta * nu) / (beta * nu**2))
                assert series_mean == pytest.approx(-beta / 4.0, abs=1e-9)

    def test_beta_zero_is_cos(self):
        phi = np.linspace(-3.0, 3.0, 11)
        assert np.allclose(cos_beta(0.0, phi), np.cos(phi), atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(beta=st.floats(0.0, 0.9), phi=st.floats(-10.0, 10.0))
    def test_even_and_periodic(self, beta, phi):
        c = cos_beta(beta, np.array([phi, -phi, phi + 2.0 * np.pi]), nu_max=40)
        assert c[1] == pytest.approx(c[0], abs=1e-10)
        assert c[2] == pytest.approx(c[0], abs=1e-10)


@pytest.mark.parametrize("series", [sin_beta, cos_beta])
def test_memory_stays_linear_in_points(series):
    # Clenshaw's recurrence keeps a few arrays of the points' shape: no
    # (points, nu_max) table of phases, which would be 320 MB here
    phi = np.linspace(-np.pi, np.pi, 100_000)
    series(0.9, 0.0, nu_max=400)  # the coefficient table is cached
    tracemalloc.start()
    try:
        series(0.9, phi, nu_max=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * len(phi)


class TestExpMuCoeff:
    @pytest.mark.parametrize("mu", [0, 1, -1, 2, -3, 5])
    def test_reconstructs_exp_of_chi(self, mu):
        beta, nu_max = 0.75, 400
        phi = np.linspace(-np.pi, np.pi, 41)
        chi = kepler_solve(beta, phi)
        total = np.zeros_like(phi, dtype=complex)
        for nu in range(-nu_max, nu_max + 1):
            total += exp_mu_coeff(mu, nu, beta) * np.exp(1j * nu * phi)
        assert np.max(np.abs(total - np.exp(1j * mu * chi))) < 1e-8

    def test_zero_row(self):
        beta = 0.6
        assert exp_mu_coeff(0, 0, beta) == 1.0
        assert exp_mu_coeff(1, 0, beta) == -beta / 2.0
        assert exp_mu_coeff(-1, 0, beta) == -beta / 2.0
        assert exp_mu_coeff(2, 0, beta) == 0.0

    def test_sin_beta_is_mu_one_combination(self):
        # (A^{(1)} - A^{(-1)})/2 = J_nu(beta*nu)/(beta*nu) by the Bessel
        # three-term recurrence; these are the sin_beta coefficients
        beta, nu = 0.5, 7
        a = (exp_mu_coeff(1, nu, beta) - exp_mu_coeff(-1, nu, beta)) / 2.0
        assert a == pytest.approx(float(bessel_j(nu, beta * nu)) / (beta * nu), rel=1e-12)


class TestGCoeff:
    def test_sqrt_kernel_identity(self):
        # sum_mu G_mu e^{i mu theta} = sqrt(1 - beta cos theta)
        theta = np.linspace(0.0, np.pi, 21)
        for beta in [0.3, 0.75, 0.95]:
            total = g_coeff(0, beta) * np.ones_like(theta)
            for mu in range(1, 200):
                c = g_coeff(mu, beta)
                total += 2.0 * c * np.cos(mu * theta)
                if abs(c) < 1e-14:
                    break
            assert np.max(np.abs(total - np.sqrt(1.0 - beta * np.cos(theta)))) < 1e-10

    def test_frozen_values(self):
        # pinned from an 80-digit mpmath quadrature of the defining integral
        assert g_coeff(0, 0.75) == pytest.approx(0.958494416759, abs=1e-12)
        assert g_coeff(1, 0.75) == pytest.approx(-0.200336000220, abs=1e-12)
        assert g_coeff(0, 0.95) == pytest.approx(0.920207466153, abs=1e-12)
        assert g_coeff(1, 0.95) == pytest.approx(-0.272464866532, abs=1e-12)

    def test_even_in_mu(self):
        assert g_coeff(-3, 0.8) == g_coeff(3, 0.8)

    def test_beta_zero(self):
        assert g_coeff(0, 0.0) == 1.0
        assert g_coeff(1, 0.0) == 0.0

    @pytest.mark.parametrize("beta, mu, want", [
        (0.75, 30, -6.1720600104209432e-14),
        (0.75, 43, -1.1559952666452527e-18),
        (0.95, 100, -1.491075987457744e-18),
        (0.99, 200, -1.7539704533143315e-17),
    ])
    def test_small_coefficients(self, beta, mu, want):
        # 60-digit values, from the defining series and by quadrature (the
        # two agree to 1e-39): small coefficients keep their relative accuracy
        assert g_coeff(mu, beta) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", [0.3, 0.75, 0.95, 0.99])
    def test_table_rebuilds_the_kernel(self, beta):
        g = kapteyn._g_table(beta, 512)
        theta = np.linspace(0.0, np.pi, 41)
        total = g[0] + 2.0 * np.cos(np.outer(theta, np.arange(1, 512))) @ g[1:]
        assert np.max(np.abs(total - np.sqrt(1.0 - beta * np.cos(theta)))) < 1e-14


class TestFourierSeries:
    def test_even_evaluation(self):
        f = FourierSeries(2, [1.0, 0.5, -0.25], parity="even")
        phi = 0.7
        expect = 1.0 + 2 * 0.5 * np.cos(phi) - 2 * 0.25 * np.cos(2 * phi)
        assert f(phi) == pytest.approx(expect, rel=1e-15)
        assert f.coeff(-2) == -0.25

    def test_odd_evaluation(self):
        f = FourierSeries(2, [0.0, 0.5, 0.25], parity="odd")
        phi = np.array([0.7, -0.7])
        expect = 2 * 0.5 * np.sin(phi) + 2 * 0.25 * np.sin(2 * phi)
        assert np.allclose(f(phi), expect)
        assert f.coeff(-1) == -0.5

    def test_odd_requires_zero_mean(self):
        with pytest.raises(ValueError):
            FourierSeries(1, [0.1, 0.5], parity="odd")

    def test_rejects_bad_shape_and_nan(self):
        with pytest.raises(ValueError):
            FourierSeries(3, [1.0, 2.0], parity="even")
        with pytest.raises(ValueError):
            FourierSeries(1, [1.0, np.nan], parity="even")

    def test_rejects_general_parity(self):
        with pytest.raises(ValueError, match="parity"):
            FourierSeries(1, [1.0, 2.0], parity="general")

    def test_coeff_out_of_range(self):
        f = FourierSeries(1, [1.0, 2.0], parity="even")
        with pytest.raises(IndexError):
            f.coeff(5)

    def test_matches_sin_beta(self):
        beta, nu_max = 0.6, 80
        nu = np.arange(1, nu_max + 1)
        coeffs = np.concatenate([[0.0], bessel_j(nu, beta * nu) / (beta * nu)])
        f = FourierSeries(nu_max, coeffs, parity="odd")
        phi = np.linspace(-2.0, 2.0, 9)
        assert np.allclose(f(phi), sin_beta(beta, phi, nu_max=nu_max), atol=1e-14)


class TestSinCoeffsCache:
    @pytest.mark.parametrize("beta", [0.0, 0.6])
    def test_result_is_read_only(self, beta):
        c = _sin_coeffs(beta, 10)
        with pytest.raises(ValueError):
            c[0] = 1.0
        assert _sin_coeffs(beta, 10) is c

    def test_cache_is_bounded(self):
        maxsize = _sin_coeffs.cache_info().maxsize
        assert maxsize is not None and maxsize <= 64

    @pytest.mark.parametrize("beta", [0.0, 0.35, 0.9])
    def test_scalar_calls_match_uncached_build(self, beta):
        nu_max = 120
        nu = np.arange(1, nu_max + 1)
        fresh = _sin_coeffs.__wrapped__(beta, nu_max)
        _sin_coeffs.cache_clear()
        # the same evaluator sin_beta and cos_beta use, on the uncached build
        odd = FourierSeries(nu_max, np.concatenate(([0.0], fresh / 2.0)), parity="odd")
        even = FourierSeries(nu_max, np.concatenate(([0.0], fresh / (2.0 * nu))), parity="even")
        for phi in np.linspace(-np.pi, np.pi, 13):
            s_want = float(odd(phi))
            c_want = float(1.0 + (even(phi) - even(0.0)))
            assert sin_beta(beta, float(phi), nu_max=nu_max) == s_want
            assert cos_beta(beta, float(phi), nu_max=nu_max) == c_want
        assert _sin_coeffs.cache_info().misses == 1
