"""Qubit-projection tests.

The independent oracle here is a position-grid finite-difference
diagonalization of the qubit Hamiltonian (tridiagonal, O(h^2)): it
shares no code with the package's Gauss-Hermite route and pins the
subspace data, the flux matrix elements, and the exponential
coefficients.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from coupler_lab.coupler import (
    CouplerParams,
    b_coeffs,
    eg_derivs_analytic,
    eg_derivs_numeric,
    eg_eval,
)
from coupler_lab.errors import ConfigurationError, NumericError
from coupler_lab.projection import (
    CouplingTable,
    QubitParams,
    QubitSubspace,
    ResonanceWarning,
    couplings,
    gxx_gaussian,
    gxx_quadrature,
    linear_couplings,
    linear_error_bound,
    pauli_exp_coeffs,
    qubit_subspace,
    resonance_check,
)

REF_QUBIT = QubitParams(beta_j=1.05, zeta_j=0.05)


def trapz(y, h):
    return h * (np.sum(y) - 0.5 * y[0] - 0.5 * y[-1])


def grid_eigensystem(beta, zeta, phi_x=0.0, lo=-4.0, hi=4.0, n=4001):
    """Finite-difference oracle: 2 zeta^2 k^2 + (phi-phi_x)^2/2 + beta cos phi."""
    phi = np.linspace(lo, hi, n)
    h = phi[1] - phi[0]
    diag = 4.0 * zeta**2 / h**2 + 0.5 * (phi - phi_x) ** 2 + beta * np.cos(phi)
    off = np.full(n - 1, -2.0 * zeta**2 / h**2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 3))
    return phi, h, vals, vecs / math.sqrt(h)


# -------------------------------------------------------- qubit_subspace


def test_subspace_against_position_grid_oracle():
    phi, h, vals, vecs = grid_eigensystem(1.05, 0.05)
    p0, p1 = vecs[:, 0], vecs[:, 1]
    if trapz(p0 * p1 * phi, h) < 0:
        p1 = -p1
    phi_p = trapz(p0 * p1 * phi, h)
    psi_r = (p0 + p1) / math.sqrt(2)
    mean = trapz(psi_r**2 * phi, h)
    zeff = trapz(psi_r**2 * (phi - mean) ** 2, h)

    sub = qubit_subspace(REF_QUBIT, n_basis=60)
    assert sub.splitting == pytest.approx(vals[1] - vals[0], rel=1e-5)
    assert sub.phi_p == pytest.approx(phi_p, abs=1e-6)
    assert sub.zeta_eff == pytest.approx(zeff, rel=1e-5)

    # exponential matrix elements against direct quadrature
    for s in (0.05, 0.4, 2.0):
        m01 = trapz(p0 * np.exp(-1j * s * phi) * p1, h)
        _, c_x, _, _ = pauli_exp_coeffs(sub, s)
        assert c_x == pytest.approx(m01, abs=1e-6)


def test_subspace_harmonic_limit():
    sub = qubit_subspace(QubitParams(beta_j=0.0, zeta_j=0.05, e_lj=2.0), n_basis=40)
    assert sub.splitting == pytest.approx(2.0 * 0.05 * 2.0, rel=1e-12)
    assert sub.phi_p == pytest.approx(math.sqrt(0.05), rel=1e-12)
    assert sub.zeta_eff == pytest.approx(0.05, rel=1e-10)
    # equidistant ladder: the third level sits right above the subspace
    assert sub.weak_isolation


def test_subspace_flux_qubit_splitting():
    # double-well regime; value pinned from two independent routes
    # (Fock ladder at n_basis 60 and the Richardson-extrapolated grid)
    sub = qubit_subspace(REF_QUBIT, n_basis=60)
    assert sub.splitting == pytest.approx(2.0911748e-2, rel=1e-5)
    assert sub.phi_p == pytest.approx(0.48200987, abs=1e-6)
    assert sub.weak_isolation


def test_subspace_deep_well_isolation():
    # collapsed tunnel splitting, wide intrawell gap: well isolated
    sub = qubit_subspace(QubitParams(beta_j=1.4, zeta_j=0.05), n_basis=70)
    assert not sub.weak_isolation


def test_subspace_energies_in_global_unit():
    a = qubit_subspace(REF_QUBIT, n_basis=60)
    b = qubit_subspace(
        QubitParams(beta_j=1.05, zeta_j=0.05, e_lj=200.0), n_basis=60
    )
    assert b.splitting == pytest.approx(200.0 * a.splitting, rel=1e-12)


def test_subspace_validation():
    with pytest.raises(ConfigurationError):
        QubitParams(beta_j=1.05, zeta_j=0.0)
    with pytest.raises(ConfigurationError):
        QubitParams(beta_j=-0.1, zeta_j=0.05)
    with pytest.raises(ConfigurationError):
        QubitParams(beta_j=1.05, zeta_j=0.05, e_lj=0.0)
    with pytest.raises(ConfigurationError):
        qubit_subspace(REF_QUBIT, n_basis=30)


# ------------------------------------------------------ pauli_exp_coeffs


def test_exp_coeffs_identity():
    sub = qubit_subspace(REF_QUBIT, n_basis=50)
    c = pauli_exp_coeffs(sub, 0.0)
    assert c[0] == pytest.approx(1.0, abs=1e-12)
    for v in c[1:]:
        assert abs(v) < 1e-12


def test_exp_coeffs_harmonic_closed_form():
    # beta = 0: matrix elements of a displacement operator are explicit
    zeta = 0.05
    sub = qubit_subspace(QubitParams(beta_j=0.0, zeta_j=zeta), n_basis=50)
    for s in (0.3, 1.0, 2.5):
        decay = math.exp(-(s**2) * zeta / 2.0)
        c_i, c_x, c_y, c_z = pauli_exp_coeffs(sub, s)
        assert c_i == pytest.approx(decay * (1 - s**2 * zeta / 2), abs=1e-10)
        assert c_x == pytest.approx(-1j * s * math.sqrt(zeta) * decay, abs=1e-10)
        assert abs(c_y) < 1e-12
        assert c_z == pytest.approx(decay * s**2 * zeta / 2, abs=1e-10)


def test_exp_coeffs_parity_selection():
    sub = qubit_subspace(REF_QUBIT, n_basis=60)
    for s in np.linspace(0.1, 3.0, 6):
        c_i, c_x, c_y, c_z = pauli_exp_coeffs(sub, s)
        assert abs(c_y) < 1e-12
        assert abs(c_i.imag) < 1e-12
        assert abs(c_z.imag) < 1e-12
        assert abs(c_x.real) < 1e-12


# ------------------------------------------------------------- couplings


@pytest.fixture(scope="module")
def ref_series():
    return b_coeffs(0.5, 0.05, nu_max=100, mu_max=40)


@pytest.fixture(scope="module")
def ref_sub():
    return qubit_subspace(REF_QUBIT, n_basis=60)


def test_couplings_alpha_zero(ref_series, ref_sub):
    tab = couplings(ref_series, [ref_sub, ref_sub], [0.0, 0.0], 0.7)
    assert tab["II"] == pytest.approx(eg_eval(ref_series, 0.7), rel=1e-12)
    for label, val in tab.entries.items():
        if label != "II":
            assert abs(val) < 1e-14


def test_couplings_three_body_maxima(ref_series, ref_sub):
    subs = [ref_sub] * 3
    alphas = [0.05] * 3
    gxxx, gxxi = [], []
    for phi in np.linspace(0.0, 2 * np.pi, 41):
        tab = couplings(ref_series, subs, alphas, phi, labels=["xxx", "xxI"])
        gxxx.append(abs(tab["xxx"]))
        gxxi.append(abs(tab["xxI"]))
    assert max(gxxx) == pytest.approx(1.71e-5, rel=0.05)
    assert max(gxxi) == pytest.approx(5.35e-4, rel=0.05)


def test_couplings_permutation_symmetry(ref_series, ref_sub):
    subs = [ref_sub] * 3
    tab = couplings(ref_series, subs, [0.05] * 3, 1.1)
    for a, b in (("xxI", "xIx"), ("xxI", "Ixx"), ("xzI", "zxI"), ("xyy", "yxy")):
        assert tab[a] == pytest.approx(tab[b], abs=1e-12)


def test_couplings_odd_y_vanishes(ref_series, ref_sub):
    tab = couplings(ref_series, [ref_sub, ref_sub], [0.05, 0.05], 0.9)
    for label, val in tab.entries.items():
        if label.count("y") % 2 == 1:
            assert abs(val) < 1e-10


def test_couplings_residue_tracked(ref_series, ref_sub):
    tab = couplings(ref_series, [ref_sub, ref_sub], [0.05, 0.05], 0.3)
    assert tab.metadata["imag_residue"] < 1e-10
    assert tab.metadata["theory"] == "NA"


def test_couplings_nan_bias_fails_the_hermiticity_gate(ref_series, ref_sub):
    # a NaN bias makes every total NaN, which the gate rejects as it does a
    # residue above 1e-10
    with pytest.raises(NumericError, match="lost Hermiticity") as err:
        couplings(ref_series, [ref_sub, ref_sub], [0.05, 0.05], math.nan)
    assert math.isnan(err.value.details["imag_residue"])


def test_couplings_validation(ref_series, ref_sub):
    with pytest.raises(ConfigurationError):
        couplings(ref_series, [ref_sub], [0.05, 0.05], 0.0)
    with pytest.raises(ConfigurationError):
        couplings(ref_series, [ref_sub], [0.05], 0.0, labels=["qq"])


def test_resonance_detection():
    # equal harmonic ladders: E_20 of one equals E_10 + E_10 of the others
    sub = qubit_subspace(QubitParams(beta_j=0.0, zeta_j=0.05), n_basis=40)
    hits = resonance_check([sub, sub, sub])
    assert hits
    series = b_coeffs(0.5, 0.05, nu_max=40)
    with pytest.warns(ResonanceWarning):
        tab = couplings(series, [sub] * 3, [0.02] * 3, 0.0, labels=["III"])
    assert tab.metadata["resonances"]


def test_resonance_warning_names_the_caller():
    # the warning points at the line that called couplings or coupling_scan,
    # not at the library's own warn call
    from coupler_lab.bench import CouplerSystem, coupling_scan

    sub = qubit_subspace(QubitParams(beta_j=0.0, zeta_j=0.05), n_basis=40)
    series = b_coeffs(0.5, 0.05, nu_max=40)
    with pytest.warns(ResonanceWarning) as direct:
        couplings(series, [sub] * 3, [0.02] * 3, 0.0, labels=["III"])
    q = QubitParams(beta_j=0.0, zeta_j=0.05, alpha_j=0.02)
    system = CouplerSystem(beta_c=0.5, zeta_c=0.05, qubits=(q,) * 3)
    with pytest.warns(ResonanceWarning) as scanned:
        coupling_scan(system, ["III"], (0.0, 0.1, 2), nu_max=40, n_basis=40)
    for record in (*direct, *scanned):
        assert Path(record.filename).name == Path(__file__).name


def test_no_false_resonance(ref_sub):
    # detuned pair: E_20 far from 2 E_10
    assert resonance_check([ref_sub, ref_sub]) == []


# ------------------------------------------------------ linear couplings


def test_linear_couplings_zero_derivs(ref_sub):
    tab = linear_couplings((0.0, 0.0), [ref_sub, ref_sub], [0.05, 0.05], 0.0)
    assert all(v == 0.0 for v in tab.entries.values())


def test_linear_xx_factorization(ref_sub):
    # g_xx = E'' a1 a2 <0|phi|1>^2: the mutual-inductance form
    d2 = 0.7
    tab = linear_couplings((0.3, d2), [ref_sub, ref_sub], [0.04, 0.06], 0.0)
    want = d2 * 0.04 * 0.06 * ref_sub.phi_p**2
    assert tab["xx"] == pytest.approx(want, rel=1e-12)


PAULI = {
    "I": np.eye(2),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "y": np.array([[0.0, -1j], [1j, 0.0]]),
    "z": np.diag([1.0, -1.0]),
}


def kron_all(mats):
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


@pytest.mark.parametrize("case", ["two_unequal_biased", "three"])
def test_linear_table_against_dense_kronecker_projection(case):
    # oracle: Tr(sigma_label P^T diag(V) P) / 2^k with P = W_1 x ... x W_k
    if case == "two_unequal_biased":
        qubits = [QubitParams(beta_j=1.05, zeta_j=0.05, phi_jx=0.1),
                  QubitParams(beta_j=0.8, zeta_j=0.07, e_lj=1.3, phi_jx=-0.2)]
        dims, alphas = (44, 40), [0.04, 0.06]
    else:
        qubits = [QubitParams(beta_j=1.05, zeta_j=0.05),
                  QubitParams(beta_j=0.9, zeta_j=0.05, phi_jx=0.05),
                  QubitParams(beta_j=1.2, zeta_j=0.04)]
        dims, alphas = (40, 40, 40), [0.05, 0.03, 0.04]
    subs = [qubit_subspace(q, n_basis=d) for q, d in zip(qubits, dims)]
    d1, d2, e_ltc = 0.3, 0.7, 1.7
    tab = linear_couplings((d1, d2), subs, alphas, 0.4, e_ltc=e_ltc)

    k = len(subs)
    flux = sum(
        a * kron_all([s.flux_eigs[None, :] if m == j else np.ones((1, len(t.flux_eigs)))
                      for m, t in enumerate(subs)])[0]
        for j, (s, a) in enumerate(zip(subs, alphas))
    )
    v = e_ltc * (-d1 * flux + 0.5 * d2 * flux**2)
    proj = kron_all([s.flux_modes for s in subs])
    block = proj.T @ (v[:, None] * proj)
    assert set(tab.labels) == {"".join(p) for p in itertools.product("Ixyz", repeat=k)}
    scale = max(abs(x) for x in tab.entries.values())
    for label, got in tab.entries.items():
        want = np.trace(kron_all([PAULI[ch] for ch in label]) @ block) / 2**k
        assert abs(got - want.real) <= 1e-14 * scale, label
        assert abs(want.imag) <= 1e-14 * scale, label


@pytest.mark.parametrize("case", ["two_unequal_biased", "three"])
def test_nonlinear_table_against_dense_kronecker_projection(case):
    # oracle: Tr(sigma_label M) / 2^k with M = sum_nu B_nu e^{i nu phi_cx}
    # (x)_j P_j^T e^{-i nu alpha_j phi_j} P_j, the 2x2 blocks built from
    # flux_modes and multiplied out by explicit Kronecker products
    if case == "two_unequal_biased":
        qubits = [QubitParams(beta_j=1.05, zeta_j=0.05, phi_jx=0.1),
                  QubitParams(beta_j=0.8, zeta_j=0.07, e_lj=1.3, phi_jx=-0.2)]
        dims, alphas, nu_max = (44, 40), [0.04, 0.06], 100
    else:
        qubits = [QubitParams(beta_j=1.05, zeta_j=0.05),
                  QubitParams(beta_j=0.9, zeta_j=0.05, phi_jx=0.05),
                  QubitParams(beta_j=1.2, zeta_j=0.04)]
        dims, alphas, nu_max = (40, 40, 40), [0.05, 0.03, 0.04], 60
    subs = [qubit_subspace(q, n_basis=d) for q, d in zip(qubits, dims)]
    series = b_coeffs(0.75, 0.05, nu_max=nu_max)
    e_ltc, k = 1.7, len(subs)
    labels = ["".join(p) for p in itertools.product("Ixyz", repeat=k)]
    sigmas = {label: kron_all([PAULI[ch] for ch in label]) for label in labels}
    for phi_cx in (0.4, 2.3):
        tab = couplings(series, subs, alphas, phi_cx, e_ltc=e_ltc)
        assert list(tab.labels) == labels
        m = np.zeros((2**k, 2**k), dtype=complex)
        for nu in range(-nu_max, nu_max + 1):
            blocks = [s.flux_modes.T @ (np.exp(-1j * nu * a * s.flux_eigs)[:, None] * s.flux_modes)
                      for s, a in zip(subs, alphas)]
            m += series.coeffs[abs(nu)] * np.exp(1j * nu * phi_cx) * kron_all(blocks)
        scale = max(abs(x) for x in tab.entries.values())
        for label, got in tab.entries.items():
            want = e_ltc * np.trace(sigmas[label] @ m) / 2**k
            assert abs(got - want.real) <= 1e-13 * scale, (phi_cx, label)
            assert abs(want.imag) <= 1e-13 * scale, (phi_cx, label)


def test_linear_vs_nonlinear_reference_sweep(ref_series, ref_sub):
    # away from zero bias the two theories track each other closely
    p = CouplerParams(beta_c=0.5, zeta_c=0.05)
    subs = [ref_sub, ref_sub]
    alphas = [0.05, 0.05]
    for phi in np.linspace(0.05 * 2 * np.pi, np.pi, 7):
        derivs = eg_derivs_numeric(p, phi, n_basis=60)
        lin = linear_couplings(derivs, subs, alphas, phi, theory="LN")
        non = couplings(ref_series, subs, alphas, phi, labels=["xx", "Ix", "Iz"])
        assert lin["xx"] == pytest.approx(non["xx"], rel=2e-2)
        assert lin["Ix"] == pytest.approx(non["Ix"], rel=2e-2)
        assert lin["Iz"] == pytest.approx(non["Iz"], rel=2e-2)


def test_linear_vs_nonlinear_weak_coupling(ref_series, ref_sub):
    # weak-coupling limit, against the analytic-derivative route (same
    # ground-energy model as the series, so only Taylor remainders are
    # left): g_xx lands inside the quartic bound, and every other 1-
    # and 2-local coefficient shrinks at cubic order or better.  The
    # numeric-derivative route adds an O(alpha^2) model residual and is
    # compared at the 2% level in the reference sweep instead.
    subs = [ref_sub, ref_sub]
    bound = linear_error_bound(0.5, ref_sub.zeta_eff, ref_sub.phi_p, 0.01)
    for phi in (0.1 * 2 * np.pi, 0.3 * 2 * np.pi):
        derivs = eg_derivs_analytic(0.5, 0.05, phi)
        diff = {}
        for a in (0.05, 0.01):
            lin = linear_couplings(derivs, subs, [a, a], phi, theory="LA")
            non = couplings(ref_series, subs, [a, a], phi)
            diff[a] = {l: abs(lin[l] - non[l]) for l in non.labels if l != "II"}
        assert diff[0.01]["xx"] <= bound + 1e-12
        for label, d in diff[0.01].items():
            if diff[0.05][label] < 1e-13:
                continue
            assert d <= 1.5 * 0.2**3 * diff[0.05][label], label


# --------------------------------------------------------- gxx shortcuts


def test_gxx_gaussian_trivial(ref_series):
    assert gxx_gaussian(ref_series, 0.5, 0.1, 0.0, 0.3) == 0.0
    assert gxx_gaussian(ref_series, 0.0, 0.1, 0.05, 0.3) == 0.0


def test_gxx_gaussian_tracks_couplings(ref_series, ref_sub):
    for phi in (0.1 * 2 * np.pi, 0.25 * 2 * np.pi, 0.45 * 2 * np.pi):
        tab = couplings(ref_series, [ref_sub, ref_sub], [0.05, 0.05], phi,
                        labels=["xx"])
        approx = gxx_gaussian(ref_series, ref_sub.phi_p, ref_sub.zeta_eff, 0.05, phi)
        assert approx == pytest.approx(tab["xx"], rel=0.10)


def test_gxx_quadrature_matches_couplings(ref_series):
    # across the double-well range, each qubit on a grid of its own size:
    # the pair sum is the grid projection
    eg = lambda x: eg_eval(ref_series, x)
    for beta_j in (0.8, 1.05, 1.4):
        q = QubitParams(beta_j=beta_j, zeta_j=0.05)
        subs = [qubit_subspace(q, n_basis=60), qubit_subspace(q, n_basis=72)]
        for phi in (0.1 * 2 * np.pi, 0.25 * 2 * np.pi):
            tab = couplings(ref_series, subs, [0.05, 0.05], phi, labels=["xx"])
            quad = gxx_quadrature(eg, subs, 0.05, phi)
            assert quad == pytest.approx(tab["xx"], rel=1e-10), beta_j


def test_gxx_quadrature_needs_identical_unbiased_pair(ref_series, ref_sub):
    eg = lambda x: eg_eval(ref_series, x)
    unequal = qubit_subspace(QubitParams(beta_j=0.8, zeta_j=0.05), n_basis=60)
    biased = qubit_subspace(QubitParams(beta_j=1.05, zeta_j=0.05, phi_jx=0.1), n_basis=60)
    for subs in ([ref_sub, unequal], [biased, biased], [ref_sub], [ref_sub] * 3):
        with pytest.raises(ConfigurationError):
            gxx_quadrature(eg, subs, 0.05, 0.6)


def test_gxx_quadrature_alpha_zero(ref_series, ref_sub):
    eg = lambda x: eg_eval(ref_series, x)
    assert gxx_quadrature(eg, [ref_sub, ref_sub], 0.0, 0.5) == 0.0


def test_gxx_quadrature_exact_on_quadratics(ref_sub):
    curv = 0.37
    eg = lambda x: 1.3 + 0.2 * np.asarray(x) + 0.5 * curv * np.asarray(x) ** 2
    alpha = 0.05
    want = 0.25 * (2 * alpha * ref_sub.phi_p) ** 2 * curv
    got = gxx_quadrature(eg, [ref_sub, ref_sub], alpha, 0.8)
    assert got == pytest.approx(want, rel=1e-8)


def test_linear_error_bound_values(ref_series, ref_sub):
    assert linear_error_bound(0.5, 0.1, 0.5, 0.0) == 0.0
    assert linear_error_bound(0.0, 0.1, 0.5, 0.05) == 0.0
    with pytest.raises(ValueError):
        linear_error_bound(1.0, 0.1, 0.5, 0.05)
    # soundness: bound dominates the observed linear-theory error
    p = CouplerParams(beta_c=0.5, zeta_c=0.05)
    bound = linear_error_bound(0.5, ref_sub.zeta_eff, ref_sub.phi_p, 0.05)
    for phi in np.linspace(0.05 * 2 * np.pi, np.pi, 7):
        derivs = eg_derivs_numeric(p, phi, n_basis=60)
        lin = linear_couplings(derivs, [ref_sub] * 2, [0.05] * 2, phi, theory="LN")
        non = couplings(ref_series, [ref_sub] * 2, [0.05] * 2, phi, labels=["xx"])
        assert abs(non["xx"] - lin["xx"]) <= bound


def test_coupling_table_interface(ref_series, ref_sub):
    tab = couplings(ref_series, [ref_sub], [0.05], 0.4)
    assert set(tab.labels) == {"I", "x", "y", "z"}
    assert isinstance(tab, CouplingTable)
    nz = tab.nonzero(1e-15)
    assert "y" not in nz
