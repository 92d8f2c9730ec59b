"""Coupler energy-series tests.

Oracles:
  * direct 1-D minimization of the coupler potential (scipy bounded
    scalar minimizer on a strictly convex function) for the classical
    limit, independent of the implicit-equation solver;
  * central finite differences of the exact ground energy for both
    derivative routes;
  * the closed-form tail identities for the truncation bound;
  * the per-mu sum of scipy ``jv`` calls for the zero-point convolution
    that ``_series_parts`` takes from one Bessel recurrence, and ``jv``
    for the J_nu(beta nu) of its classical column.
"""

import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import jv

from coupler_lab import coupler, oscillator
from coupler_lab.coupler import (
    BodcMetrics,
    CouplerParams,
    _mu_cutoff,
    _series_parts,
    b_coeffs,
    bodc_metrics,
    eg_derivs_analytic,
    eg_derivs_numeric,
    eg_eval,
    eg_exact,
    min_nu_for_error,
    truncation_bound,
    u_min,
    u_zpe_harmonic,
)
from coupler_lab.kapteyn import _g_table, bessel_j, g_coeff, kepler_solve, sin_beta
from coupler_lab.errors import ConfigurationError, NumericError


def potential_min(beta, phi_x):
    """Direct minimization oracle: min_phi (phi-phi_x)^2/2 + beta cos phi.

    The potential is strictly convex for beta < 1 (curvature >= 1-beta),
    so the bounded minimizer cannot miss the global minimum.
    """
    res = minimize_scalar(
        lambda p: 0.5 * (p - phi_x) ** 2 + beta * math.cos(p),
        bounds=(phi_x - math.pi - 1.0, phi_x + math.pi + 1.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return res.x, res.fun


def exact_ground(beta, zeta, phi_x, n_basis=60):
    p = CouplerParams(beta_c=beta, zeta_c=zeta)
    return float(eg_exact(p, phi_x, n_basis=n_basis, n_levels=1)[0])


def fd_derivs(beta, zeta, phi_x, h=1e-4, n_basis=60):
    em = exact_ground(beta, zeta, phi_x - h, n_basis)
    e0 = exact_ground(beta, zeta, phi_x, n_basis)
    ep = exact_ground(beta, zeta, phi_x + h, n_basis)
    return (ep - em) / (2 * h), (ep - 2 * e0 + em) / h**2


# ---------------------------------------------------------------- u_min


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75, 0.95])
def test_u_min_matches_direct_minimization(beta):
    nu_max = 2500 if beta > 0.9 else 400
    phis = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    vals = u_min(beta, phis, nu_max=nu_max)
    for phi, got in zip(phis, vals):
        _, want = potential_min(beta, phi)
        assert abs(got - want) < 1e-9


def test_u_min_endpoints():
    # phi_x = 0 sits at the cosine peak, phi_x = pi at its bottom
    assert u_min(0.75, 0.0) == pytest.approx(0.75, abs=1e-12)
    assert u_min(0.75, np.pi, nu_max=400) == pytest.approx(-0.75, abs=1e-12)


def test_u_min_domain():
    with pytest.raises(ValueError):
        u_min(1.0, 0.0)


def test_u_zpe_matches_curvature_at_direct_minimum():
    for beta in (0.5, 0.9):
        for phi in np.linspace(0.1, 2 * np.pi, 8):
            phi_star, _ = potential_min(beta, phi)
            want = 0.05 * math.sqrt(1.0 - beta * math.cos(phi_star))
            assert u_zpe_harmonic(beta, 0.05, phi) == pytest.approx(want, abs=1e-9)


# ------------------------------------------------------------- b_coeffs


def test_b_coeffs_harmonic_limit():
    s = b_coeffs(0.0, 0.05, nu_max=10)
    assert s.coeff(0) == pytest.approx(0.05, abs=1e-15)
    assert np.all(s.coeffs[1:] == 0.0)
    # constant series: E_g = zeta everywhere
    assert eg_eval(s, 1.234) == pytest.approx(0.05, abs=1e-15)


def test_b_coeffs_classical_zeroth():
    s = b_coeffs(0.6, 0.0, nu_max=10)
    assert s.coeff(0) == pytest.approx(-0.6**2 / 4, abs=1e-15)


def test_series_at_zero_bias_classical():
    s = b_coeffs(0.75, 0.0, nu_max=60, mu_max=60)
    bound = truncation_bound(0.75, 0.0, 60)
    # at phi_x = 0 the bound equals the omitted tail exactly; allow roundoff
    assert abs(eg_eval(s, 0.0) - 0.75) <= bound + 1e-12


def test_series_at_zero_bias_with_zpe():
    # classical peak 0.75 plus harmonic ZPE 0.05*sqrt(1-0.75) = 0.025
    s = b_coeffs(0.75, 0.05, nu_max=60, mu_max=60)
    bound = truncation_bound(0.75, 0.05, 60)
    assert abs(eg_eval(s, 0.0) - 0.775) <= bound + 1e-12


def test_eg_eval_even_and_periodic():
    s = b_coeffs(0.75, 0.05, nu_max=80, mu_max=60)
    for phi in np.linspace(0.1, 3.0, 7):
        assert eg_eval(s, phi) == pytest.approx(eg_eval(s, -phi), abs=1e-14)
        assert eg_eval(s, phi) == pytest.approx(eg_eval(s, phi + 2 * np.pi), abs=1e-12)


def test_coefficient_magnitude_bound():
    # interaction terms only: sum over nu != 0 of |B_nu| stays below the
    # closed-form bound, up to truncation slack (B_0 is a constant shift)
    from coupler_lab.kapteyn import g_coeff

    for beta, zeta in ((0.3, 0.05), (0.75, 0.25), (0.9, 0.05)):
        s = b_coeffs(beta, zeta, nu_max=300, mu_max=80)
        total = 2.0 * float(np.sum(np.abs(s.coeffs[1:])))
        rhs = beta * (1 + beta / 4) - zeta * (
            math.sqrt(1 - beta) - g_coeff(0, beta) + beta * g_coeff(1, beta)
        )
        assert total <= rhs + truncation_bound(beta, zeta, 300) + 1e-12


def test_b_coeffs_validation():
    with pytest.raises(ValueError):
        b_coeffs(1.0, 0.05)
    with pytest.raises(ValueError):
        b_coeffs(0.5, 0.05, nu_max=0)


class TestSeriesCache:
    def test_parts_are_read_only_and_shared_across_zeta(self):
        a = b_coeffs(0.6, 0.05, nu_max=30, mu_max=20)
        b = b_coeffs(0.6, 0.2, nu_max=30, mu_max=20)
        for part in ("b_classical", "b_quantum"):
            coeffs = getattr(a, part).coeffs
            assert getattr(b, part).coeffs is coeffs
            with pytest.raises(ValueError):
                coeffs[0] = 1.0
        assert np.array_equal(b.coeffs, b.b_classical.coeffs + 0.2 * b.b_quantum.coeffs)

    def test_cache_is_bounded(self):
        maxsize = _series_parts.cache_info().maxsize
        assert maxsize is not None and maxsize <= 64

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.95])
    def test_zeta_loop_matches_uncached_build(self, beta):
        fresh = _series_parts.__wrapped__(beta, 120, 60)
        _series_parts.cache_clear()
        for zeta in (0.01, 0.05, 0.3):
            s = b_coeffs(beta, zeta, nu_max=120, mu_max=60)
            assert np.array_equal(s.b_classical.coeffs, fresh[0])
            assert np.array_equal(s.b_quantum.coeffs, fresh[1])
        assert _series_parts.cache_info().misses == 1

    def test_threads_share_one_consistent_cache(self):
        # more keys than the cache holds, so the threads evict entries
        # under each other
        keys = [(0.1 + 0.02 * (i % 40), 1 + (7 * i) % 45) for i in range(6000)]
        mu_max = 3
        fresh = {key: _series_parts.__wrapped__(*key, mu_max) for key in set(keys)}
        _series_parts.cache_clear()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                jobs = [pool.submit(_series_parts, beta, nu, mu_max) for beta, nu in keys]
                results = [job.result(timeout=60) for job in jobs]
        finally:
            sys.setswitchinterval(switch)
        for key, parts in zip(keys, results):
            for got, want in zip(parts, fresh[key]):
                assert got.tobytes() == want.tobytes()
        info = _series_parts.cache_info()
        assert info.hits + info.misses == len(keys)
        assert info.currsize == info.maxsize

    def test_argument_checks_precede_the_cache(self):
        before = _series_parts.cache_info()
        for args in ((1.0, 0.05), (-0.1, 0.05)):
            with pytest.raises(ValueError):
                b_coeffs(*args)
        with pytest.raises(ValueError):
            b_coeffs(0.5, 0.05, nu_max=10, mu_max=0)
        after = _series_parts.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


# ------------------------------------------------ zero-point convolution

RECURRENCE_BETAS = [1e-300, 2.5813704503701304e-264, 1e-30, 1e-4, 0.05, 0.3,
                    0.5, 0.75, 0.9, 0.95, 0.98]
RECURRENCE_NU = [1, 7, 64, 400, 2048]
RECURRENCE_MU = [1, 5, 40, 120]


def per_mu_series(beta, nu_max, mu_max, record=()):
    """The per-mu ``jv`` build of B^(1), as the series was first written.

    Returns the quantum column and, for each mu_max in ``record`` (and
    mu_max itself), the convolution sum over mu <= that value and the
    row scale sum_mu |mu G_mu| (|J_{nu-mu}| + |J_{nu+mu}|).
    """
    g = np.array([g_coeff(mu, beta) for mu in range(mu_max + 1)])
    nu = np.arange(1, nu_max + 1)
    conv = np.zeros(nu_max)
    scale = np.zeros(nu_max)
    partial = {}
    for mu in range(1, mu_max + 1):
        lower = jv(nu - mu, beta * nu)
        upper = jv(nu + mu, beta * nu)
        conv += mu * g[mu] * (lower - upper)
        scale += abs(mu * g[mu]) * (np.abs(lower) + np.abs(upper))
        if mu in record or mu == mu_max:
            partial[mu] = (conv.copy(), scale.copy())
    quantum = np.concatenate(([g[0] - beta * g[1]], conv / nu))
    return quantum, partial


class TestZeroPointRecurrence:
    @pytest.mark.parametrize("beta", RECURRENCE_BETAS)
    def test_matches_per_mu_sum(self, beta):
        # one oracle pass at the largest (nu_max, mu_max) holds every
        # smaller case: rows do not depend on nu_max, and the partial sums
        # over mu <= mu_max are recorded on the way
        _, partial = per_mu_series(beta, max(RECURRENCE_NU), max(RECURRENCE_MU),
                                   record=RECURRENCE_MU)
        for nu_max in RECURRENCE_NU:
            nu = np.arange(1, nu_max + 1)
            classical = bessel_j(nu, beta * nu) / nu**2
            diagonal = jv(nu, beta * nu)
            shown = np.abs(diagonal) > 1e-290
            rel = np.abs(classical * nu**2 - diagonal)[shown] / np.abs(diagonal[shown])
            assert np.all(rel <= 1e-12), nu_max
            for mu_max in RECURRENCE_MU:
                got_classical, got = _series_parts.__wrapped__(beta, nu_max, mu_max)
                assert got_classical[1:].tobytes() == classical.tobytes()
                conv, scale = (a[:nu_max] for a in partial[mu_max])
                assert np.all(np.isfinite(got))
                gated = scale > 1e-250
                err = np.abs(got[1:] * nu - conv)
                assert np.all(err[gated] <= 2e-12 * scale[gated]), (nu_max, mu_max)

    def test_covers_underflowed_anchors(self):
        # at (0.3, 1024, 120) J_{nu+119}(0.3 nu), next to the top of each
        # row's band, underflows for nu = 1 and from nu = 501 on, and rows up
        # to nu = 622 are still above the 1e-250 gate: those rows pass
        # through underflowed orders before their sums count
        nu = np.arange(1, 1025)
        anchor = jv(nu + 119, 0.3 * nu)
        _, partial = per_mu_series(0.3, 1024, 120)
        conv, scale = partial[120]
        miller = (anchor < np.finfo(float).tiny) & (scale > 1e-250)
        assert np.count_nonzero(miller) >= 100
        got = _series_parts.__wrapped__(0.3, 1024, 120)[1]
        err = np.abs(got[1:] * nu - conv)
        assert np.all(err[miller] <= 2e-12 * scale[miller])

    @pytest.mark.parametrize("nu_max, mu_max", [(1, 1), (7, 5), (64, 40), (400, 120)])
    def test_zero_beta_is_the_per_mu_build_bitwise(self, nu_max, mu_max):
        quantum, _ = per_mu_series(0.0, nu_max, mu_max)
        assert _series_parts.__wrapped__(0.0, nu_max, mu_max)[1].tobytes() == quantum.tobytes()

    @pytest.mark.parametrize("beta", [1e-310, 5e-324])
    def test_subnormal_beta_is_finite(self, beta):
        for nu_max in (1, 7, 64, 400):
            for mu_max in (1, 5, 40, 120):
                for part in _series_parts.__wrapped__(beta, nu_max, mu_max):
                    assert np.all(np.isfinite(part))

    def test_memory_stays_linear_in_nu_max(self):
        # the recurrence adds each order into the sum as it passes: no
        # (nu_max, 2 mu_max + 1) band is stored
        nu_max = 100_000
        tracemalloc.start()
        try:
            _series_parts.__wrapped__(0.5, nu_max, 26)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 8 * nu_max


@settings(max_examples=30, deadline=None)
@example(beta=2.5813704503701304e-264, zeta=0.001, phi=1.0)
@given(
    beta=st.floats(0.0, 0.85),
    zeta=st.floats(0.001, 0.3),
    phi=st.floats(-8.0, 8.0),
)
def test_eg_eval_evenness_property(beta, zeta, phi):
    s = b_coeffs(beta, zeta, nu_max=40)
    assert eg_eval(s, phi) == pytest.approx(eg_eval(s, -phi), abs=1e-13)


# ------------------------------------------------------------- eg_exact


def test_eg_exact_harmonic_ladder():
    p = CouplerParams(beta_c=0.0, zeta_c=0.05)
    ev = eg_exact(p, 0.0, n_basis=50, n_levels=5)
    assert np.allclose(ev, 0.05 * (2 * np.arange(5) + 1), atol=1e-12)


@pytest.mark.parametrize(
    "beta,zeta,want",
    [(0.75, 0.05, 5.324800e-2), (0.75, 0.02, 2.056280e-2), (0.5, 0.05, 7.189971e-2)],
)
def test_eg_exact_gap_values(beta, zeta, want):
    p = CouplerParams(beta_c=beta, zeta_c=zeta)
    ev = eg_exact(p, 0.0, n_basis=50, n_levels=2)
    gap = float(ev[1] - ev[0])
    assert gap == pytest.approx(want, rel=1e-5)


def test_eg_exact_basis_guard():
    p = CouplerParams(beta_c=0.5, zeta_c=0.05)
    with pytest.raises(ConfigurationError):
        eg_exact(p, 0.0, n_basis=20, n_levels=2)


@pytest.mark.parametrize("n_levels", [0, -1, 31])
def test_eg_exact_level_count_guard(n_levels):
    p = CouplerParams(beta_c=0.5, zeta_c=0.05)
    with pytest.raises(ConfigurationError):
        eg_exact(p, 0.0, n_basis=30, n_levels=n_levels)
    assert len(eg_exact(p, 0.0, n_basis=30, n_levels=30)) == 30


def test_series_tracks_exact_ground_energy():
    # harmonic-ZPE regime: series error stays within the published envelope
    for zeta in (0.01, 0.05):
        s = b_coeffs(0.75, zeta, nu_max=200, mu_max=60)
        worst = 0.0
        for phi in np.linspace(0.05 * 2 * np.pi, np.pi, 9):
            diff = abs(eg_eval(s, phi) - exact_ground(0.75, zeta, phi))
            worst = max(worst, diff)
        assert worst <= 3.0 * zeta * 0.05


# ---------------------------------------------------------- derivatives


def test_derivs_analytic_trivial_point():
    d1, d2 = eg_derivs_analytic(0.5, 0.0, 0.0)
    assert d1 == pytest.approx(0.0, abs=1e-14)
    assert d2 == pytest.approx(-1.0, abs=1e-12)


def test_derivs_analytic_vs_finite_difference():
    d1, d2 = eg_derivs_analytic(0.75, 0.05, 0.3 * 2 * np.pi)
    f1, f2 = fd_derivs(0.75, 0.05, 0.3 * 2 * np.pi)
    assert d1 == pytest.approx(f1, rel=1e-3)
    assert d2 == pytest.approx(f2, rel=1e-3)


def test_derivs_analytic_array_matches_pointwise():
    grid = np.linspace(-np.pi, np.pi, 201)
    for beta, zeta in ((0.3, 0.02), (0.75, 0.05), (0.95, 0.25)):
        d1, d2 = eg_derivs_analytic(beta, zeta, grid)
        loop = np.array([eg_derivs_analytic(beta, zeta, p) for p in grid])
        for got, want in ((d1, loop[:, 0]), (d2, loop[:, 1])):
            assert got.shape == grid.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert all(type(d) is float for d in eg_derivs_analytic(0.75, 0.05, 0.3))


def test_derivs_numeric_vs_finite_difference():
    p = CouplerParams(beta_c=0.75, zeta_c=0.05)
    d1, d2 = eg_derivs_numeric(p, 0.2 * 2 * np.pi, n_basis=60)
    f1, f2 = fd_derivs(0.75, 0.05, 0.2 * 2 * np.pi)
    assert d1 == pytest.approx(f1, rel=1e-4)
    assert d2 == pytest.approx(f2, rel=1e-4)


def test_derivs_numeric_vs_analytic():
    p = CouplerParams(beta_c=0.75, zeta_c=0.05)
    dn = eg_derivs_numeric(p, 0.3 * 2 * np.pi, n_basis=60)
    da = eg_derivs_analytic(0.75, 0.05, 0.3 * 2 * np.pi)
    assert dn[0] == pytest.approx(da[0], rel=1e-2)
    assert dn[1] == pytest.approx(da[1], rel=1e-2)


def test_derivs_numeric_harmonic_limit():
    # beta = 0: E_g is independent of the bias, both derivatives vanish
    p = CouplerParams(beta_c=0.0, zeta_c=0.05)
    d1, d2 = eg_derivs_numeric(p, 0.7, n_basis=40)
    assert d1 == pytest.approx(0.0, abs=1e-12)
    assert d2 == pytest.approx(0.0, abs=1e-10)


def test_derivs_analytic_unclamped_near_unit_beta():
    # stiffness denominator 1 - beta cos(chi) -> 0: values blow up honestly
    _, d2 = eg_derivs_analytic(1.0 - 1e-10, 0.05, 0.0)
    assert abs(d2) > 1e8


def test_derivs_numeric_basis_guard():
    p = CouplerParams(beta_c=0.5, zeta_c=0.05)
    with pytest.raises(ConfigurationError):
        eg_derivs_numeric(p, 0.0, n_basis=10)


# ------------------------------------------------ ground-state continuation

BETAS = (0.0, 0.3, 0.75, 0.95, 0.99)
ZETAS = (0.02, 0.05, 0.25, 0.5)
BIAS_GRID = np.linspace(0.0, 2.0 * np.pi, 61)


def level_sums(params, phi_x, n_basis=50):
    """(E_g, E_g', E_g'', <dg|dg>) from every level of one full eigh: the
    sums over all levels the resolvent solve replaces."""
    kinetic, potential, flux = oscillator._junction_mode(params.zeta_c, params.beta_c, phi_x,
                                                         n_basis)
    vals, vecs = np.linalg.eigh(kinetic + np.diag(potential))
    xg = vecs.T @ (flux * vecs[:, 0])
    gaps = vals[0] - vals[1:]
    return (vals[0], -xg[0], 1.0 + 2.0 * np.sum(xg[1:] ** 2 / gaps),
            np.sum(xg[1:] ** 2 / gaps**2))


def column_errors(got, want, absolute):
    """Largest |got - want| per column, over the column's largest |want|
    unless absolute."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.max(np.abs(got - want), axis=0)
    return err if absolute else err / np.max(np.abs(want), axis=0)


@pytest.mark.parametrize("zeta", ZETAS)
@pytest.mark.parametrize("beta", BETAS)
def test_grid_calls_match_scalar_calls(beta, zeta):
    # the continued grid and one scalar solve per bias agree to rounding
    p = CouplerParams(beta_c=beta, zeta_c=zeta)
    grid = np.column_stack([eg_exact(p, BIAS_GRID, n_levels=1)[:, 0],
                            *eg_derivs_numeric(p, BIAS_GRID)])
    scalar = [(eg_exact(p, phi)[0], *eg_derivs_numeric(p, phi)) for phi in BIAS_GRID]
    # at beta = 0 both derivatives vanish, so they compare absolutely
    assert np.all(column_errors(grid, scalar, beta == 0.0) <= 1e-13)


@pytest.mark.parametrize("zeta", ZETAS)
@pytest.mark.parametrize("beta", BETAS)
def test_resolvent_solve_matches_level_sums(beta, zeta):
    # E_g', E_g'' and the diagonal correction from one linear solve equal
    # the sums over every level of a full eigh, on the grid and per bias
    p = CouplerParams(beta_c=beta, zeta_c=zeta)
    want = [level_sums(p, phi) for phi in BIAS_GRID]
    grid = coupler._perturbative(p, BIAS_GRID, 50, "test")
    scalar = [(*coupler._ground_energy_derivs(p, phi, 50), bodc_metrics(p, phi).exact_norm)
              for phi in BIAS_GRID[::6]]
    assert np.all(column_errors(grid, want, beta == 0.0) <= 1e-12)
    assert np.all(column_errors(scalar, want[::6], beta == 0.0) <= 1e-12)


def test_grid_shapes_and_scalar_types():
    p = CouplerParams(beta_c=0.75, zeta_c=0.05)
    grid = BIAS_GRID[:5]
    assert eg_exact(p, grid, n_levels=1).shape == (5, 1)
    with pytest.raises(ConfigurationError):
        eg_exact(p, grid)  # only the ground level is followed
    assert eg_exact(p, [], n_levels=1).shape == (0, 1)
    assert [d.shape for d in eg_derivs_numeric(p, [])] == [(0,), (0,)]
    d1, d2 = eg_derivs_numeric(p, grid)
    assert d1.shape == d2.shape == (5,)
    assert all(type(v) is float for v in coupler._ground_energy_derivs(p, 0.3, 50))
    with pytest.raises(ConfigurationError):
        eg_derivs_numeric(p, np.zeros((2, 2)))


@pytest.mark.parametrize("phi", [0.0, 0.3, np.pi / 2, np.pi])
def test_scalar_call_is_one_junction_eigh(phi):
    # a scalar bias is solved by lowest_eigs on the one-axis grid operator,
    # as a qubit's junction mode is: its levels are that solve's, and the
    # lowest of one eigh of the junction matrix K + diag(V), bitwise
    p = CouplerParams(beta_c=0.9, zeta_c=0.05)
    kinetic, potential, _ = oscillator._junction_mode(p.zeta_c, p.beta_c, phi, 40)
    spec = oscillator.lowest_eigs(oscillator.TensorOperator([kinetic], potential), 5)
    assert spec.metadata["solver"] == "dense"
    got = eg_exact(p, phi, n_basis=40, n_levels=5)
    assert np.array_equal(got, spec.eigenvalues)
    assert np.array_equal(got, np.linalg.eigh(kinetic + np.diag(potential))[0][:5])


def test_wrong_level_fails_the_certificate_and_restarts(monkeypatch):
    # a continuation step forced onto level 1 converges there, the
    # certificate (Weyl's test, then both Cholesky tests) rejects it, and
    # the point is solved from scratch: bitwise
    # its scalar call, with the grid going on from there
    p = CouplerParams(beta_c=0.75, zeta_c=0.05)
    real = coupler._continued_ground
    outcomes = []

    def onto_level_1(h, h_norm, g, shift, anchor):
        if not outcomes:
            g = np.linalg.eigh(h)[1][:, 1]
        outcomes.append(real(h, h_norm, g, shift, anchor))
        return outcomes[-1]

    monkeypatch.setattr(coupler, "_continued_ground", onto_level_1)
    energies = eg_exact(p, BIAS_GRID[:4], n_levels=1)[:, 0]
    assert outcomes[0] is None and all(found is not None for found in outcomes[1:])
    outcomes.clear()
    coupler._ground_track.cache_clear()
    d1, d2 = eg_derivs_numeric(p, BIAS_GRID[:4])
    assert outcomes[0] is None
    monkeypatch.undo()
    assert energies[1] == eg_exact(p, BIAS_GRID[1])[0]
    assert (d1[1], d2[1]) == eg_derivs_numeric(p, BIAS_GRID[1])


def test_certificate_holds_on_every_continued_point(monkeypatch):
    # every accepted pair has its residual within the dense gate, and H
    # minus its level, deflated along its vector, is positive definite
    # past the gap threshold
    real = coupler._continued_ground
    accepted = []

    def record(h, h_norm, g, shift, anchor):
        found = real(h, h_norm, g, shift, anchor)
        if found is not None:
            accepted.append((h, h_norm, shift, *found))
        return found

    monkeypatch.setattr(coupler, "_continued_ground", record)
    eg_derivs_numeric(CouplerParams(beta_c=0.95, zeta_c=0.02), BIAS_GRID)
    monkeypatch.undo()
    # a 61-point grid is coarse at beta 0.95, zeta 0.02: a few points
    # restart from scratch, most continue
    assert len(BIAS_GRID) // 2 < len(accepted) < len(BIAS_GRID)
    for h, h_norm, shift, theta, g in accepted:
        resid = np.linalg.norm(h @ g - theta * g)
        assert resid <= 64 * np.finfo(float).eps * h_norm
        deflated = h - theta * np.eye(len(h)) + shift * np.outer(g, g)
        assert np.linalg.eigvalsh(deflated)[0] > coupler._GAP_TOL


@pytest.mark.parametrize("grid", [
    BIAS_GRID[::-1],                                          # descending
    np.concatenate(([0.0], np.cumsum(np.linspace(0.02, 0.3, 20)))),  # non-uniform
    BIAS_GRID[3:5],                                           # 2 points
    BIAS_GRID[3:6],                                           # 3 points
    np.array([0.1, 0.2, 0.2, 0.35, 0.2, 0.5, 0.5, 0.7]),     # repeated biases
], ids=["descending", "non-uniform", "two-points", "three-points", "repeated"])
def test_predicted_starts_match_scalar_calls(grid):
    # whatever the spacing, order or repeats, the extrapolated starts land
    # on each bias's scalar solve to rounding
    p = CouplerParams(beta_c=0.75, zeta_c=0.05)
    got = np.column_stack([eg_exact(p, grid, n_levels=1)[:, 0], *eg_derivs_numeric(p, grid)])
    scalar = [(eg_exact(p, phi)[0], *eg_derivs_numeric(p, phi)) for phi in grid]
    assert np.all(column_errors(got, scalar, False) <= 1e-13)


def test_predictor_extrapolates_a_quadratic_exactly():
    # three vectors quadratic in the bias, unevenly spaced, predict the
    # fourth (normalized); fewer than three give the last one
    a, b, c = np.eye(3)
    curve = lambda x: a + x * b + x * x * c  # noqa: E731
    history = [(x, curve(x)) for x in (0.1, 0.25, 0.7)]
    want = curve(1.3) / np.linalg.norm(curve(1.3))
    assert np.allclose(coupler._predicted(history, 1.3), want, rtol=0.0, atol=1e-14)
    assert coupler._predicted(history[1:], 1.3) is history[-1][1]
    _, g1 = history[1]
    assert np.array_equal(coupler._predicted(history, 0.25), g1 / np.linalg.norm(g1))


@pytest.mark.parametrize("derivs, limit", [(False, 2.2), (True, 3.2)])
def test_continued_points_cost_about_one_solve(monkeypatch, derivs, limit):
    # along 201 biases over [0, pi] at 60 states each continued point takes
    # a solve or two to the rounding floor; E_g'' adds one per point
    solves = []
    real = np.linalg.solve

    def counted(*args):
        solves.append(1)
        return real(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    grid = np.linspace(0.0, np.pi, 201)
    for beta, zeta in ((0.3, 0.02), (0.75, 0.05), (0.95, 0.02)):
        p = CouplerParams(beta_c=beta, zeta_c=zeta)
        if derivs:
            eg_derivs_numeric(p, grid, n_basis=60)
        else:
            eg_exact(p, grid, n_basis=60, n_levels=1)
    assert len(solves) / (3 * (len(grid) - 1)) <= limit


CLI_GRID = np.linspace(0.0, np.pi, 201)  # the eg and derivs commands' default grid


def traced(p, grid, n_basis):
    """eg_exact's and eg_derivs_numeric's grids and which biases were solved
    from scratch, from one fresh track."""
    coupler._ground_track.cache_clear()
    energies = eg_exact(p, grid, n_basis=n_basis, n_levels=1)
    derivs = np.array(eg_derivs_numeric(p, grid, n_basis=n_basis))
    scratch = [level is not None for level in coupler._ground_states(p, grid, n_basis)[2]]
    return energies, derivs, scratch


@pytest.mark.parametrize("zeta", (0.01, 0.05, 0.25, 0.5))
@pytest.mark.parametrize("beta", (0.1, 0.5, 0.75, 0.95, 0.99))
def test_weyl_certificate_changes_no_output(monkeypatch, beta, zeta):
    # with the Weyl test forced off (a fresh anchor at every point, so each
    # continued point is certified by a Cholesky factorization, as before
    # the Weyl test), the same biases are solved from scratch and every
    # energy and derivative is bitwise the same
    p = CouplerParams(beta_c=beta, zeta_c=zeta)
    weyl = [traced(p, BIAS_GRID, 50), traced(p, CLI_GRID, 60)]
    real = coupler._continued_ground
    monkeypatch.setattr(coupler, "_continued_ground", lambda h, h_norm, g, shift, anchor:
                        real(h, h_norm, g, shift, [0.0, -math.inf]))
    per_point = [traced(p, BIAS_GRID, 50), traced(p, CLI_GRID, 60)]
    for (e_weyl, d_weyl, s_weyl), (e_chol, d_chol, s_chol) in zip(weyl, per_point):
        assert s_weyl == s_chol
        assert np.array_equal(e_weyl, e_chol)
        assert np.array_equal(d_weyl, d_chol)


def test_weyl_margin_runs_out_into_the_cholesky_tests(monkeypatch):
    # at beta 0.95, zeta 0.02 the diagonal moves by about beta dphi per
    # step, so an anchor's margin lasts a few points: then a Cholesky
    # factorization proves a new margin, or, where the gap is under zeta,
    # fails and the unmargined test certifies the point.  Every accepted
    # point is the ground level, isolated by more than _GAP_TOL.
    real_ground, real_cholesky = coupler._continued_ground, np.linalg.cholesky
    points = []

    def ground(h, h_norm, g, shift, anchor):
        points.append({"h": h, "cholesky": []})
        points[-1]["found"] = real_ground(h, h_norm, g, shift, anchor)
        return points[-1]["found"]

    def cholesky(a):
        try:
            factor = real_cholesky(a)
        except np.linalg.LinAlgError:
            points[-1]["cholesky"].append(False)
            raise
        points[-1]["cholesky"].append(True)
        return factor

    monkeypatch.setattr(coupler, "_continued_ground", ground)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    eg_exact(CouplerParams(beta_c=0.95, zeta_c=0.02), CLI_GRID, n_basis=60, n_levels=1)
    monkeypatch.undo()
    routes = [tuple(point["cholesky"]) for point in points if point["found"] is not None]
    assert len(routes) == len(CLI_GRID) - 1
    weyl, margin, fallback = routes.count(()), routes.count((True,)), routes.count((False, True))
    assert weyl + margin + fallback == len(routes)
    assert weyl > len(routes) // 2 and margin > 0 and fallback > 0
    for point in points:
        theta, g = point["found"]
        levels = np.linalg.eigvalsh(point["h"])
        assert abs(levels[0] - theta) <= 64 * np.finfo(float).eps * np.linalg.norm(point["h"])
        assert levels[1] - levels[0] > coupler._GAP_TOL


@pytest.mark.parametrize("zeta", (1e-11, 5e-11))
def test_tiny_zeta_takes_only_the_unmargined_test(monkeypatch, zeta):
    # below zeta = r + _GAP_TOL + 64 eps ||H||_F neither Weyl's test nor the
    # margin factorization runs: each continued point makes at most the one
    # unmargined factorization, the grid is bitwise the per-point path's,
    # and E_g'' reports a gap under _GAP_TOL
    p = CouplerParams(beta_c=0.75, zeta_c=zeta)
    real_ground, real_cholesky = coupler._continued_ground, np.linalg.cholesky
    factored = []

    def ground(h, h_norm, g, shift, anchor):
        factored.append(0)
        return real_ground(h, h_norm, g, shift, anchor)

    def cholesky(a):
        factored[-1] += 1
        return real_cholesky(a)

    monkeypatch.setattr(coupler, "_continued_ground", ground)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    energies, _, levels = coupler._ground_states(p, CLI_GRID, 60)
    assert len(factored) == len(CLI_GRID) - 1 and max(factored) == 1
    monkeypatch.setattr(coupler, "_continued_ground", lambda h, h_norm, g, shift, anchor:
                        real_ground(h, h_norm, g, shift, [0.0, -math.inf]))
    per_point = coupler._ground_track.__wrapped__(p.beta_c, p.zeta_c, 60, 2, CLI_GRID.tobytes())
    monkeypatch.undo()
    assert np.array_equal(energies, per_point[0])
    assert [level is None for level in levels] == [level is None for level in per_point[2]]
    with pytest.raises(NumericError, match="nearly degenerate"):
        eg_derivs_numeric(p, CLI_GRID, n_basis=60)


def test_tracks_are_memoized_read_only_and_bounded(monkeypatch):
    p = CouplerParams(beta_c=0.75, zeta_c=0.05)
    real = coupler._continued_ground
    continued = []

    def counted(*args):
        continued.append(1)
        return real(*args)

    monkeypatch.setattr(coupler, "_continued_ground", counted)
    # eg then derivs on one grid: one continuation, 200 continued points
    energies = eg_exact(p, CLI_GRID, n_basis=60, n_levels=1)
    d1, d2 = eg_derivs_numeric(p, CLI_GRID, n_basis=60)
    assert len(continued) == len(CLI_GRID) - 1
    monkeypatch.undo()
    key = (p.beta_c, p.zeta_c, 60, 2, CLI_GRID.tobytes())
    hit = coupler._ground_track(*key)
    fresh = coupler._ground_track.__wrapped__(*key)
    assert np.array_equal(hit[0], fresh[0]) and np.array_equal(hit[1], fresh[1])
    assert [level is None for level in hit[2]] == [level is None for level in fresh[2]]
    assert np.array_equal(energies[:, 0], hit[0])
    assert not hit[0].flags.writeable and not hit[1].flags.writeable
    assert not any(level.flags.writeable for level in hit[2] if level is not None)
    # callers get their own arrays
    assert energies.flags.writeable and d1.flags.writeable and d2.flags.writeable
    for k in range(coupler._TRACKS + 2):
        eg_exact(p, BIAS_GRID[k:k + 5], n_levels=1)
    assert coupler._ground_track.cache_info().currsize == coupler._TRACKS
    # a scalar bias is solved each call, never memoized
    eg_exact(p, 0.3)
    assert coupler._ground_track.cache_info().currsize == coupler._TRACKS


# ----------------------------------------------------------- truncation


def test_truncation_bound_zero_beta():
    assert truncation_bound(0.0, 0.05, 1) == 0.0


def test_truncation_bound_published_thresholds():
    assert truncation_bound(0.75, 0.25, 18) <= 1e-3
    assert truncation_bound(0.75, 0.25, 17) > 1e-3
    assert truncation_bound(0.95, 0.25, 186) > 1e-3
    assert truncation_bound(0.95, 0.25, 187) <= 1e-3


def test_min_nu_published_values():
    assert min_nu_for_error(0.75, 0.25, 1e-3) == 18
    assert min_nu_for_error(0.95, 0.25, 1e-3) == 187
    assert min_nu_for_error(0.0, 0.25, 1e-3) == 1


def test_min_nu_search_cap():
    # demands below the roundoff floor of the tail identities cannot be met
    with pytest.raises(NumericError):
        min_nu_for_error(0.5, 0.25, 1e-18)


def test_unmet_mu_cutoff_raises():
    # at beta_c = 0.999 |mu G_mu| is still above 1e-16 at mu = 399, so no
    # bound built on the capped convolution holds
    for call in (lambda: truncation_bound(0.999, 0.25, 100),
                 lambda: min_nu_for_error(0.999, 0.25, 1e-3)):
        with pytest.raises(NumericError) as info:
            call()
        assert info.value.details["beta_c"] == 0.999
        assert 1e-16 < info.value.details["smallest_mu_g"] < 1e-9


def scanned_mu_cutoff(beta_c):
    """Linear-scan oracle: the least M with |mu G_mu| < 1e-16 for every mu in
    [M, 399], or None where |399 G_399| is not below it."""
    cut = None
    for mu in range(399, 0, -1):
        if not abs(mu * g_coeff(mu, beta_c)) < 1e-16:
            break
        cut = mu
    return cut


def test_mu_cutoff_matches_the_linear_scan():
    # the range runs past the last beta_c with a cut (about 0.99693), so both
    # outcomes are checked
    outcomes = []
    for beta_c in np.linspace(0.0, 0.999, 401):
        want = scanned_mu_cutoff(float(beta_c))
        if want is None:
            with pytest.raises(NumericError):
                _mu_cutoff(float(beta_c))
        else:
            assert _mu_cutoff(float(beta_c)) == want, beta_c
        outcomes.append(want is None)
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("beta_c, want", [(0.3, 19), (0.5, 26), (0.75, 43), (0.9, 71),
                                          (0.95, 102), (0.99, 225), (0.995, 315)])
def test_mu_cutoff_documented_values(beta_c, want):
    assert _mu_cutoff(beta_c) == want


def test_unmet_mu_cutoff_fails_at_the_first_probe():
    with pytest.raises(NumericError) as info:
        _mu_cutoff(0.999)
    assert info.value.details["smallest_mu_g"] == abs(399 * g_coeff(399, 0.999))


def test_mu_cutoff_is_memoized_per_beta():
    # the cutoff, the series and both truncation routines read one G table
    _g_table.cache_clear()
    _series_parts.cache_clear()
    first = _mu_cutoff(0.9)
    assert _mu_cutoff(0.9) == first
    b_coeffs(0.9, 0.05, 40)
    truncation_bound(0.9, 0.25, 50)
    min_nu_for_error(0.9, 0.25, 1e-3)
    info = _g_table.cache_info()
    assert info.misses == 1 and info.hits >= 4


def test_unmet_mu_cutoff_is_memoized(monkeypatch):
    # a cutoff that does not exist is remembered too: the second call raises
    # the same error without summing a single G_mu again
    with pytest.raises(NumericError) as first:
        _mu_cutoff(0.999)

    def forbidden(*args):
        raise AssertionError("g_coeff called for a memoized cutoff")

    monkeypatch.setattr(coupler, "g_coeff", forbidden)
    with pytest.raises(NumericError) as second:
        _mu_cutoff(0.999)
    assert str(second.value) == str(first.value)
    assert second.value.details == first.value.details
    assert first.value.details["beta_c"] == 0.999


@pytest.mark.parametrize("epsilon", [0.0, -1e-3, math.nan])
def test_min_nu_rejects_nonpositive_and_nan_epsilon(epsilon):
    with pytest.raises(ValueError):
        min_nu_for_error(0.75, 0.25, epsilon)


def test_mu_cutoff_below_the_cap_still_bounds():
    nu = min_nu_for_error(0.995, 0.25, 1e-3)
    assert truncation_bound(0.995, 0.25, nu) <= 1e-3 < truncation_bound(0.995, 0.25, nu - 1)


def test_min_nu_consistent_with_bound():
    for beta, zeta, eps in ((0.5, 0.05, 1e-6), (0.75, 0.25, 1e-4)):
        nu = min_nu_for_error(beta, zeta, eps)
        assert truncation_bound(beta, zeta, nu) <= eps
        assert truncation_bound(beta, zeta, nu - 1) > eps


@pytest.mark.parametrize("beta", [0.5, 0.75, 0.9])
def test_truncation_bound_soundness(beta):
    # doubling nu_max moves the zero-bias value by less than the bound
    for nu_max in (10, 20, 40):
        a = eg_eval(b_coeffs(beta, 0.25, nu_max=nu_max, mu_max=80), 0.0)
        b = eg_eval(b_coeffs(beta, 0.25, nu_max=2 * nu_max, mu_max=80), 0.0)
        assert abs(a - b) <= truncation_bound(beta, 0.25, nu_max) + 1e-12


# ----------------------------------------------------------------- bodc


def test_bodc_harmonic_norm():
    p = CouplerParams(beta_c=0.0, zeta_c=0.05)
    m = bodc_metrics(p, 0.0, n_basis=40)
    assert m.exact_norm == pytest.approx(1.0 / (4 * 0.05), rel=1e-10)
    assert m.linearized_norm == pytest.approx(1.0 / (4 * 0.05), rel=1e-12)


def test_bodc_linearized_tracks_exact():
    p = CouplerParams(beta_c=0.75, zeta_c=0.05)
    m = bodc_metrics(p, 0.0, n_basis=60)
    assert m.linearized_norm == pytest.approx(1.0 / (4 * 0.05 * 0.25**1.5), rel=1e-12)
    assert 0.5 < m.exact_norm / m.linearized_norm < 2.0


def test_bodc_smallness_sides():
    class Q:
        e_lj = 1.0
        zeta_j = 0.05
        alpha_j = 0.05

    p = CouplerParams(beta_c=0.75, zeta_c=0.05, e_ltc=3.0)
    m = bodc_metrics(p, 0.0, n_basis=40, qubits=(Q(), Q()))
    assert m.smallness_lhs == pytest.approx(2 * 2 * (1 / 3) * 0.0025 * 0.0025, rel=1e-12)
    assert m.smallness_rhs == pytest.approx(4 * 0.0025 * 0.0625, rel=1e-12)
    assert m.smallness_lhs < m.smallness_rhs
    assert isinstance(m, BodcMetrics)


def test_bodc_takes_one_bias():
    # the correction is defined at one bias; an array is an input error
    # that names its shape
    with pytest.raises(ConfigurationError, match=r"one bias, got shape \(2,\)"):
        bodc_metrics(CouplerParams(beta_c=0.75, zeta_c=0.05), np.array([0.1, 0.2]))


# ----------------------------------------------------------- validation


def test_params_validation():
    with pytest.raises(ConfigurationError):
        CouplerParams(beta_c=1.0, zeta_c=0.05)
    with pytest.raises(ConfigurationError):
        CouplerParams(beta_c=0.5, zeta_c=0.0)
    with pytest.raises(ConfigurationError):
        CouplerParams(beta_c=0.5, zeta_c=0.05, e_ltc=-1.0)


def test_series_order_is_the_coefficient_count():
    # nu_max is read from the coefficients: an int whatever integral type
    # the order was given as
    for nu_max in (7, np.int64(7), 7.0):
        s = b_coeffs(0.75, 0.05, nu_max)
        assert type(s.nu_max) is int and s.nu_max == 7
        assert s.b_classical.nu_max == s.b_quantum.nu_max == len(s.coeffs) - 1 == 7


ZETA_ENTRIES = {
    "b_coeffs": lambda zeta: b_coeffs(0.75, zeta, 10).coeffs,
    "truncation_bound": lambda zeta: truncation_bound(0.75, zeta, 10),
    "min_nu_for_error": lambda zeta: min_nu_for_error(0.75, zeta, 1e-3),
    "u_zpe_harmonic": lambda zeta: u_zpe_harmonic(0.5, zeta, 0.0),
    "eg_derivs_analytic": lambda zeta: eg_derivs_analytic(0.5, zeta, 0.3),
}


@pytest.mark.parametrize("bad", [-0.1, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", ZETA_ENTRIES)
def test_series_functions_check_zeta(entry, bad):
    call = ZETA_ENTRIES[entry]
    with pytest.raises(ConfigurationError, match="zeta_c must be nonnegative and finite"):
        call(bad)
    # zeta_c = 0 is the classical limit
    assert np.all(np.isfinite(call(0.0)))


@pytest.mark.parametrize("bias", [math.nan, math.inf, -math.inf, np.array([0.1, math.nan])])
@pytest.mark.parametrize("call", [lambda p, phi: eg_exact(p, phi, n_levels=1),
                                  eg_derivs_numeric, bodc_metrics],
                         ids=["eg_exact", "eg_derivs_numeric", "bodc_metrics"])
def test_non_finite_bias_is_a_configuration_error(call, bias):
    # rejected as input before any solve, not reported as a failed solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="bias phi_x must be finite"):
            call(CouplerParams(beta_c=0.75, zeta_c=0.05), bias)


def test_closed_forms_pass_nan_through():
    assert math.isnan(kepler_solve(0.5, math.nan))
    assert math.isnan(sin_beta(0.5, math.nan))
    assert all(math.isnan(v) for v in eg_derivs_analytic(0.5, 0.1, math.nan))


@pytest.mark.parametrize("call", [eg_derivs_numeric, bodc_metrics])
def test_near_degenerate_ground_is_ill_conditioned(call):
    # at zeta_c = 1e-11 the two lowest levels are 1.4e-11 apart, inside
    # _GAP_TOL, so the perturbative quantities are refused
    with pytest.raises(NumericError, match="nearly degenerate") as err:
        call(CouplerParams(beta_c=0.5, zeta_c=1e-11), 0.0)
    assert 0.0 < err.value.details["gap"] < coupler._GAP_TOL
