"""Acceptance gate: the twelve primary requirements, one verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py``.  Every test prints
its PASS/FAIL line with the measured numbers before asserting, so a
red requirement still reports its evidence.

Five verdict lines are expected red and are left failing on purpose
rather than loosened: the computed physics disagrees with the quoted
target value, and the supporting oracles (independent solvers,
closed-form limits) all side with the computation.  They are
criterion 3 (the quoted 884 MHz bare-qubit splitting reconstructs
only under different parameters), the beta = 0.9 edge of criterion 6
(all three sub-identities 6a/6b/6c miss their tolerances by exactly
the order-300 coefficient tail; order ~450 passes), and criterion
10a (a uniform 2% excitation-error bound across the full beta_j
window breaks down where the tunnel splitting collapses toward
degeneracy).
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from coupler_lab import (
    CouplerParams,
    CouplerSystem,
    QubitParams,
    b_coeffs,
    bo_spectrum,
    couplings,
    eg_derivs_analytic,
    eg_derivs_numeric,
    eg_eval,
    eg_exact,
    exact_spectrum,
    exp_mu_coeff,
    gxx_quadrature,
    ho_exp_matrix_element,
    kepler_solve,
    cos_beta,
    min_nu_for_error,
    qubit_subspace,
    sin_beta,
    truncation_bound,
    u_min,
)
from coupler_lab.kapteyn import g_coeff

TWO_PI = 2.0 * math.pi
E_L1_GHZ = 200.0  # example presentation unit used by the quoted targets

BETA_J_GRID = (0.5, 0.65, 0.8, 0.95, 1.05, 1.2, 1.4)
THEORIES = ("NA", "LA", "LN")


def _verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {tag}: {detail}")
    return ok


def _ref_system(beta_j, zeta_c=0.05, beta_c=0.75, phi_cx=0.0):
    q = QubitParams(beta_j=beta_j, zeta_j=0.05, alpha_j=0.05)
    return CouplerSystem(beta_c=beta_c, zeta_c=zeta_c, qubits=(q, q),
                         e_ltc=3.0, phi_cx=phi_cx)


def _theory_errors(system, n_levels=6, **bo_kwargs):
    """Relative error per excitation of each theory against exact."""
    exact = exact_spectrum(system, n_levels=n_levels)
    exc = exact.excitations[:4]
    errs = {}
    for theory in THEORIES:
        bo = bo_spectrum(theory, system, n_levels=n_levels, **bo_kwargs)
        errs[theory] = np.abs(bo.excitations[:4] - exc) / exc
    return exc, errs, exact.metadata


@pytest.fixture(scope="module")
def spectrum_profile():
    """Theory-vs-exact errors over the beta_j window at the reference point."""
    profile = {}
    for beta_j in BETA_J_GRID:
        t0 = time.perf_counter()
        exc, errs, meta = _theory_errors(_ref_system(beta_j))
        profile[beta_j] = {
            "exc": exc,
            "errors": errs,
            "seconds": time.perf_counter() - t0,
            "solver": meta.get("solver", "?"),
        }
    return profile


@pytest.fixture(scope="module")
def ref_sub():
    return qubit_subspace(QubitParams(beta_j=1.05, zeta_j=0.05), n_basis=60)


@pytest.fixture(scope="module")
def threebody_scan(ref_sub):
    subs, alphas = [ref_sub] * 3, [0.05] * 3
    t0 = time.perf_counter()
    s05 = b_coeffs(0.5, 0.05, nu_max=100, mu_max=40)
    gxxx, gxxi = [], []
    for phi in np.linspace(0.0, TWO_PI, 41):
        tab = couplings(s05, subs, alphas, phi, labels=["xxx", "xxI"])
        gxxx.append(abs(tab["xxx"]))
        gxxi.append(abs(tab["xxI"]))
    s075 = b_coeffs(0.75, 0.05, nu_max=100, mu_max=40)
    grid75 = TWO_PI * np.linspace(0.0, 0.06, 61)
    g75 = [abs(couplings(s075, subs, alphas, phi, labels=["xxx"])["xxx"])
           for phi in grid75]
    i_max = int(np.argmax(g75))
    return {
        "max_gxxx_05": max(gxxx),
        "max_2body_05": max(gxxi),
        "max_gxxx_075": g75[i_max],
        "argmax_075": grid75[i_max] / TWO_PI,
        "seconds": time.perf_counter() - t0,
    }


def test_criterion_01_truncation_thresholds():
    t0 = time.perf_counter()
    got = (min_nu_for_error(0.75, 0.25, 1e-3), min_nu_for_error(0.95, 0.25, 1e-3))
    dt = time.perf_counter() - t0
    ok = got == (18, 187) and dt < 1.0
    _verdict("criterion  1", ok, f"min orders {got}, want (18, 187), {dt * 1e3:.0f} ms")
    assert got == (18, 187)
    assert dt < 1.0


def test_criterion_02_coupler_gaps():
    cases = [((0.75, 0.05), 5.32e-2), ((0.75, 0.02), 2.06e-2), ((0.5, 0.05), 7.19e-2)]
    results = []
    for (beta, zeta), want in cases:
        t0 = time.perf_counter()
        levels = eg_exact(CouplerParams(beta_c=beta, zeta_c=zeta), 0.0, n_basis=50)
        dt = time.perf_counter() - t0
        results.append((float(levels[1] - levels[0]), want, dt))
    ok = all(abs(g - w) <= 0.01 * w and dt < 1.0 for g, w, dt in results)
    _verdict("criterion  2", ok,
             "; ".join(f"{g:.4e} vs {w:.2e} [{dt * 1e3:.0f} ms]" for g, w, dt in results))
    for gap, want, dt in results:
        assert gap == pytest.approx(want, rel=0.01)
        assert dt < 1.0


def test_criterion_03_bare_qubit_splitting(ref_sub):
    t0 = time.perf_counter()
    mhz = ref_sub.splitting * E_L1_GHZ * 1e3
    dt = time.perf_counter() - t0
    ok = abs(mhz - 884.0) <= 0.01 * 884.0
    _verdict("criterion  3", ok,
             f"splitting {mhz:.1f} MHz vs quoted 884 MHz (faithful value; the "
             f"quoted number reconstructs only at zeta_j = 0.0201 or beta_j = 1.1822), "
             f"{dt * 1e3:.0f} ms")
    assert ok, "quoted splitting target is inconsistent with the stated parameters"


def test_criterion_04_kbody_maxima(threebody_scan):
    r = threebody_scan
    checks = [
        (r["max_gxxx_05"], 1.71e-5, "max |g_xxx| (beta_c=0.5)"),
        (r["max_2body_05"], 5.35e-4, "max 2-body x (beta_c=0.5)"),
        (r["max_gxxx_075"], 8.63e-5, "max |g_xxx| (beta_c=0.75)"),
    ]
    ok = all(abs(g - w) <= 0.05 * w for g, w, _ in checks)
    ok = ok and abs(r["argmax_075"] - 0.0272) <= 0.002 and r["seconds"] < 60.0
    _verdict("criterion  4", ok,
             "; ".join(f"{n} {g:.3e} vs {w:.2e}" for g, w, n in checks)
             + f"; argmax at {r['argmax_075']:.4f}*2pi vs 0.0272; {r['seconds']:.1f} s")
    for got, want, name in checks:
        assert got == pytest.approx(want, rel=0.05), name
    assert abs(r["argmax_075"] - 0.0272) <= 0.002
    assert r["seconds"] < 60.0


def test_criterion_05_mhz_conversions(threebody_scan):
    # couplings are tabulated per E_Ltc here; scale by E_Ltc/E_L1 = 3
    to_mhz = 3.0 * E_L1_GHZ * 1e3
    checks = [
        (threebody_scan["max_gxxx_05"] * to_mhz, 10.3),
        (threebody_scan["max_2body_05"] * to_mhz, 321.0),
        (threebody_scan["max_gxxx_075"] * to_mhz, 51.8),
    ]
    ok = all(abs(g - w) <= 0.05 * w for g, w in checks)
    _verdict("criterion  5", ok,
             "; ".join(f"{g:.1f} vs {w} MHz" for g, w in checks))
    for got, want in checks:
        assert got == pytest.approx(want, rel=0.05)


def test_criterion_06a_sine_self_consistency():
    t0 = time.perf_counter()
    phis = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    worst = {}
    for beta in (0.25, 0.5, 0.75, 0.9):
        chi = phis + beta * sin_beta(beta, phis, nu_max=300)
        worst[beta] = float(np.max(np.abs(chi - phis - beta * np.sin(chi))))
    dt = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-9 and dt < 10.0
    _verdict("criterion 6a", ok,
             "residuals " + ", ".join(f"beta={b}: {r:.1e}" for b, r in worst.items())
             + f" vs 1e-9 at order 300 [{dt:.1f} s]"
             + ("" if ok else " (order ~450 reaches the tolerance; 300 cannot)"))
    assert max(worst.values()) <= 1e-9
    assert dt < 10.0


def test_criterion_06b_cosine_period_mean():
    t0 = time.perf_counter()
    # more samples than the series order, so no harmonic aliases into DC
    phis = np.linspace(0.0, TWO_PI, 512, endpoint=False)
    worst = {}
    for beta in (0.25, 0.5, 0.75, 0.9):
        mean = float(np.mean(cos_beta(beta, phis, nu_max=300)))
        worst[beta] = abs(mean + beta / 4.0)
    dt = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-9 and dt < 10.0
    _verdict("criterion 6b", ok,
             "period-mean deviations " + ", ".join(f"{r:.1e}" for r in worst.values())
             + f" vs 1e-9 [{dt:.1f} s]"
             + ("" if ok else " (equals the order-300 coefficient tail at beta = 0.9"
                " to 9 digits; order 400 reaches the tolerance)"))
    assert max(worst.values()) <= 1e-9
    assert dt < 10.0


def test_criterion_06c_exponential_coefficients():
    t0 = time.perf_counter()
    phis = np.linspace(0.1, TWO_PI, 32)
    nu = np.arange(-300, 301)
    worst = {}
    for beta in (0.25, 0.5, 0.75, 0.9):
        chi = np.array([kepler_solve(beta, p) for p in phis])
        err = 0.0
        for mu in (1, 2):
            coeffs = np.array([exp_mu_coeff(mu, n, beta) for n in nu])
            series = np.exp(1j * np.outer(phis, nu)) @ coeffs
            err = max(err, float(np.max(np.abs(series - np.exp(1j * mu * chi)))))
        worst[beta] = err
    dt = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-8 and dt < 10.0
    _verdict("criterion 6c", ok,
             "reconstruction errors " + ", ".join(f"beta={b}: {r:.1e}" for b, r in worst.items())
             + f" vs 1e-8 at order 300 [{dt:.1f} s]"
             + ("" if ok else " (same order-300 tail as 6a)"))
    assert max(worst.values()) <= 1e-8
    assert dt < 10.0


def test_criterion_07_classical_minimum():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.25, 0.5, 0.75, 0.95):
        nu_max = 2500 if beta > 0.9 else 400
        phis = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        vals = u_min(beta, phis, nu_max=nu_max)
        for phi, got in zip(phis, vals):
            res = minimize_scalar(
                lambda p: 0.5 * (p - phi) ** 2 + beta * math.cos(p),
                bounds=(phi - math.pi - 1.0, phi + math.pi + 1.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            worst = max(worst, abs(got - res.fun))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 5.0
    _verdict("criterion  7", ok, f"max |u_min - direct min| {worst:.1e} over 64x4 "
             f"points vs 1e-9 [{dt:.1f} s]")
    assert worst <= 1e-9
    assert dt < 5.0


def test_criterion_08_matrix_element_oracle():
    t0 = time.perf_counter()
    dim, pad = 31, 60
    ladder = np.sqrt(np.arange(1, dim + pad))
    x = np.diag(ladder, 1) + np.diag(ladder, -1)
    worst = 0.0
    for r in (-2.0, -1.2, -0.5, 0.3, 1.0, 2.0):
        ref = expm(1j * r * x)[:dim, :dim]
        got = np.array([[ho_exp_matrix_element(j, k, r) for k in range(dim)]
                        for j in range(dim)])
        worst = max(worst, float(np.max(np.abs(got - ref))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 10.0
    _verdict("criterion  8", ok,
             f"max element deviation {worst:.1e} vs 1e-8 (j,k <= 30, |r| <= 2) [{dt:.1f} s]")
    assert worst <= 1e-8
    assert dt < 10.0


def test_criterion_09_derivative_consistency():
    t0 = time.perf_counter()
    params = CouplerParams(beta_c=0.75, zeta_c=0.05)
    phi = 0.3 * TWO_PI
    d_num = eg_derivs_numeric(params, phi, n_basis=60)
    h = 1e-4
    em = float(eg_exact(params, phi - h, n_basis=60, n_levels=1)[0])
    e0 = float(eg_exact(params, phi, n_basis=60, n_levels=1)[0])
    ep = float(eg_exact(params, phi + h, n_basis=60, n_levels=1)[0])
    fd = ((ep - em) / (2 * h), (ep - 2 * e0 + em) / h**2)
    rel_fd = max(abs(n - f) / abs(f) for n, f in zip(d_num, fd))
    d_ana = eg_derivs_analytic(0.75, 0.05, phi)
    rel_routes = max(abs(a - n) / abs(n) for a, n in zip(d_ana, d_num))
    dt = time.perf_counter() - t0
    ok = rel_fd <= 1e-4 and rel_routes <= 0.01 and dt < 10.0
    _verdict("criterion  9", ok,
             f"sum-over-states vs finite diff {rel_fd:.1e} (tol 1e-4); "
             f"closed form vs numeric {rel_routes:.1e} (tol 1e-2) [{dt:.1f} s]")
    assert rel_fd <= 1e-4
    assert rel_routes <= 0.01
    assert dt < 10.0


def test_criterion_10a_reference_window(spectrum_profile):
    worst = {}
    for theory in THEORIES:
        errs = {b: float(np.max(spectrum_profile[b]["errors"][theory]))
                for b in BETA_J_GRID}
        worst[theory] = max(errs.values())
        print(f"  {theory}: " + "  ".join(f"{b}:{100 * e:.2f}%" for b, e in errs.items()))
    green = [b for b in BETA_J_GRID
             if all(np.max(spectrum_profile[b]["errors"][t]) <= 0.02 for t in THEORIES)]
    ok = max(worst.values()) <= 0.02
    _verdict("criterion 10a", ok,
             "max excitation error " + ", ".join(f"{t} {100 * w:.1f}%" for t, w in worst.items())
             + f" vs 2% over beta_j in [0.5, 1.4]; all theories <= 2% for beta_j <= "
             + (f"{max(green)}" if green else "(none)")
             + " (the lowest splitting collapses to ~1.2e-7 at 40x40x18 by beta_j = 1.4,"
             " 1.773e-10 converged, so a uniform relative bound cannot hold there)")
    assert ok, "uniform 2% bound over the full beta_j window"


def test_criterion_10b_strong_nonlinearity_window():
    series95 = b_coeffs(0.95, 0.05, nu_max=400, mu_max=120)
    window = [0.015, 0.0225, 0.03, 0.04, 0.05]
    errs = {t: [] for t in THEORIES}
    t0 = time.perf_counter()
    for f in window:
        system = _ref_system(1.05, beta_c=0.95, phi_cx=f * TWO_PI)
        exact = exact_spectrum(system, n_levels=6)
        exc = exact.excitations[:4]
        for theory in THEORIES:
            bo = bo_spectrum(theory, system, n_levels=6, nu_max=400,
                             series=series95 if theory == "NA" else None)
            errs[theory].append(float(np.max(np.abs(bo.excitations[:4] - exc) / exc)))
    dt = time.perf_counter() - t0
    na_max = max(errs["NA"])
    la_max, ln_max = max(errs["LA"]), max(errs["LN"])
    ok = na_max <= 0.03 and la_max > 0.03 and ln_max > 0.03
    _verdict("criterion 10b", ok,
             f"beta_c=0.95: NA max {100 * na_max:.2f}% (<= 3% everywhere); linear "
             f"theories peak at {100 * la_max:.2f}% / {100 * ln_max:.2f}% [{dt:.0f} s]")
    assert na_max <= 0.03
    assert la_max > 0.03 and ln_max > 0.03


def test_criterion_10c_stiffness_degradation(spectrum_profile):
    base = {t: float(spectrum_profile[0.8]["errors"][t][0]) for t in THEORIES}
    t0 = time.perf_counter()
    _, errs_stiff, _ = _theory_errors(_ref_system(0.8, zeta_c=0.02))
    dt = time.perf_counter() - t0
    ratios = {t: float(errs_stiff[t][0]) / base[t] for t in THEORIES}
    ok = all(r >= 3.0 for r in ratios.values())
    _verdict("criterion 10c", ok,
             "zeta_c 0.05 -> 0.02 inflates the lowest-excitation error by "
             + ", ".join(f"{t} x{r:.1f}" for t, r in ratios.items())
             + f" (>= 3x required) [{dt:.0f} s]")
    for theory, ratio in ratios.items():
        assert ratio >= 3.0, theory


def test_criterion_10d_solver_scale(spectrum_profile):
    point = spectrum_profile[1.05]
    ok = point["seconds"] < 300.0 and point["solver"] == "lanczos"
    _verdict("criterion 10d", ok,
             f"three-mode 40x40x18 solve ({point['solver']}) in {point['seconds']:.1f} s")
    assert point["solver"] == "lanczos"
    assert point["seconds"] < 300.0


def test_criterion_11_interaction_footprint():
    details, ok = [], True
    for beta in (0.5, 0.75, 0.95):
        zeta = 0.05
        nu_max = 400 if beta > 0.9 else 300
        s = b_coeffs(beta, zeta, nu_max=nu_max, mu_max=120)
        lhs = 2.0 * float(np.sum(np.abs(s.coeffs[1:])))
        rhs = beta * (1 + beta / 4) - zeta * (
            math.sqrt(1 - beta) - g_coeff(0, beta) + beta * g_coeff(1, beta)
        )
        slack = truncation_bound(beta, zeta, nu_max)
        good = lhs <= rhs + slack + 1e-12
        ok &= good
        details.append(f"beta={beta}: {lhs:.4f} <= {rhs:.4f}+{slack:.1e}")
    _verdict("criterion 11", ok, "; ".join(details))
    assert ok


def test_criterion_12_quadrature_identity(ref_sub):
    series = b_coeffs(0.75, 0.05, nu_max=100, mu_max=40)
    phi = 0.1 * TWO_PI
    tab = couplings(series, [ref_sub, ref_sub], [0.05, 0.05], phi, labels=["xx"])
    quad = gxx_quadrature(lambda x: eg_eval(series, x), [ref_sub, ref_sub], 0.05, phi)
    rel = abs(quad - tab["xx"]) / abs(tab["xx"])
    ok = rel <= 1e-6
    _verdict("criterion 12", ok,
             f"g_xx quadrature vs series route rel diff {rel:.1e} vs 1e-6")
    assert rel <= 1e-6
