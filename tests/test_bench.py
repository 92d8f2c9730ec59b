"""Spectrum-harness tests.

The fast cross-checks live here: separability oracles, analytic
ladders, truncation bounds, and sweep plumbing.  The slow full-basis
theory-vs-exact comparisons run from the acceptance suite instead.
"""

import dataclasses
import inspect
import math
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

from coupler_lab import bench, coupler, oscillator, projection
from coupler_lab.bench import (
    CouplerSystem,
    SweepSpec,
    bo_spectrum,
    coupling_scan,
    exact_spectrum,
    sweep,
)
from coupler_lab.coupler import (CouplerParams, b_coeffs, eg_derivs_numeric, eg_eval, eg_exact,
                                  truncation_bound, u_min, u_zpe_harmonic)
from coupler_lab.errors import ConfigurationError, NumericError
from coupler_lab.kapteyn import sin_beta
from coupler_lab.oscillator import NormalModeSystem, assemble_tensor_operator, lowest_eigs
from coupler_lab.projection import QubitParams, ResonanceWarning, couplings, qubit_subspace

REF_QUBIT = QubitParams(beta_j=1.05, zeta_j=0.05, alpha_j=0.05)
DECOUPLED = QubitParams(beta_j=1.05, zeta_j=0.05, alpha_j=0.0)


def single_mode_levels(freq, disp, amp, dim, m):
    nm = NormalModeSystem(
        freqs=[freq], displacements=[[disp]], amplitudes=[amp], dims=(dim,)
    )
    return lowest_eigs(assemble_tensor_operator(nm), m).eigenvalues


def minkowski(*level_sets):
    total = level_sets[0]
    for levels in level_sets[1:]:
        total = np.add.outer(total, levels).ravel()
    return np.sort(total)


# --------------------------------------------------------- exact_spectrum


def test_exact_alpha_zero_separability():
    system = CouplerSystem(
        beta_c=0.75, zeta_c=0.05, qubits=(DECOUPLED, DECOUPLED), e_ltc=3.0
    )
    spec = exact_spectrum(system, dims=(24, 24, 16), n_levels=6)
    qubit = single_mode_levels(0.1, math.sqrt(0.05), 0.5 * 1.05, 24, 24)
    coupler = single_mode_levels(
        2 * 0.05 * 3.0, math.sqrt(0.05), 0.5 * 0.75 * 3.0, 16, 16
    )
    want = minkowski(qubit, qubit, coupler)[:6]
    np.testing.assert_allclose(spec.eigenvalues, want, rtol=0, atol=1e-8)


def test_exact_harmonic_ladder():
    q = QubitParams(beta_j=0.0, zeta_j=0.05, alpha_j=0.0)
    system = CouplerSystem(beta_c=0.0, zeta_c=0.05, qubits=(q, q), e_ltc=3.0)
    spec = exact_spectrum(system, dims=(12, 12, 8), n_levels=6)
    # two 0.1 ladders and one 0.3 ladder
    want = minkowski(
        0.1 * (np.arange(12) + 0.5),
        0.1 * (np.arange(12) + 0.5),
        0.3 * (np.arange(8) + 0.5),
    )[:6]
    np.testing.assert_allclose(spec.eigenvalues, want, rtol=0, atol=1e-10)


def test_exact_qubit_count_guard():
    with pytest.raises(ConfigurationError):
        exact_spectrum(
            CouplerSystem(beta_c=0.5, zeta_c=0.05, qubits=(REF_QUBIT,)), dims=(20, 12)
        )
    four = (REF_QUBIT,) * 4
    with pytest.raises(ConfigurationError):
        exact_spectrum(
            CouplerSystem(beta_c=0.5, zeta_c=0.05, qubits=four),
            dims=(10, 10, 10, 10, 8),
        )


def test_exact_dims_convergence():
    # variational sanity: enlarging the basis moves E_0 by < 1e-6 at the
    # reference qubit, and by < 1e-7 past (48, 48, 18) in the deep double
    # well at beta_j = 1.4 (5.3e-8 there; 4.6e-5 from (40, 40, 18))
    deep = replace(REF_QUBIT, beta_j=1.4)
    for qubit, small, large, bound in [(REF_QUBIT, (24, 24, 16), (28, 28, 18), 1e-6),
                                       (deep, (48, 48, 18), (56, 56, 18), 1e-7)]:
        system = CouplerSystem(beta_c=0.75, zeta_c=0.05, qubits=(qubit, qubit), e_ltc=3.0)
        a = exact_spectrum(system, dims=small, n_levels=3)
        b = exact_spectrum(system, dims=large, n_levels=3)
        assert abs(a.eigenvalues[0] - b.eigenvalues[0]) < bound


# ------------------------------------------------------------ bo_spectrum


@pytest.fixture(scope="module")
def ref_system():
    return CouplerSystem(
        beta_c=0.75, zeta_c=0.05, qubits=(REF_QUBIT, REF_QUBIT), e_ltc=3.0
    )


def test_bo_alpha_zero_all_theories():
    system = CouplerSystem(
        beta_c=0.75, zeta_c=0.05, qubits=(DECOUPLED, DECOUPLED), e_ltc=3.0,
        phi_cx=0.3,
    )
    qubit = single_mode_levels(0.1, math.sqrt(0.05), 0.5 * 1.05, 30, 30)
    want_exc = minkowski(qubit, qubit)[:4]
    want_exc = want_exc[1:] - want_exc[0]
    series = b_coeffs(0.75, 0.05, nu_max=100, mu_max=40)
    consts = {
        "NA": 3.0 * eg_eval(series, 0.3),
        "LA": 3.0 * (u_min(0.75, 0.3) + u_zpe_harmonic(0.75, 0.05, 0.3)),
        "LN": 3.0 * eg_exact(CouplerParams(beta_c=0.75, zeta_c=0.05), 0.3)[0],
    }
    base = minkowski(qubit, qubit)[0]
    for theory, const in consts.items():
        spec = bo_spectrum(theory, system, dims=(30, 30), n_levels=4)
        np.testing.assert_allclose(spec.excitations, want_exc, rtol=0, atol=1e-10)
        assert spec.eigenvalues[0] == pytest.approx(base + const, abs=1e-10)


def test_bo_dims_convergence(ref_system):
    a = bo_spectrum("NA", ref_system, dims=(30, 30), n_levels=3)
    b = bo_spectrum("NA", ref_system, dims=(40, 40), n_levels=3)
    assert abs(a.eigenvalues[0] - b.eigenvalues[0]) < 1e-6


def test_bo_series_truncation_bound():
    # halving the Fourier tail moves levels by less than the tail bound
    q = REF_QUBIT
    system = CouplerSystem(
        beta_c=0.9, zeta_c=0.05, qubits=(q, q), e_ltc=3.0, phi_cx=0.1
    )
    a = bo_spectrum("NA", system, dims=(24, 24), n_levels=4, nu_max=20)
    b = bo_spectrum("NA", system, dims=(24, 24), n_levels=4, nu_max=60)
    tau_short = truncation_bound(0.9, 0.05, 20)
    tau_long = truncation_bound(0.9, 0.05, 60)
    weyl = 3.0 * (tau_short + tau_long)
    assert np.all(np.abs(a.eigenvalues - b.eigenvalues) <= weyl)
    assert np.all(np.abs(a.excitations - b.excitations) <= 2 * weyl)
    # and the bound is not vacuous at this nu_max
    assert np.max(np.abs(a.excitations - b.excitations)) > 1e-6


def test_bo_rejects_series_for_another_coupler(ref_system):
    for beta_c, zeta_c in [(0.8, 0.05), (0.75, 0.06)]:
        series = b_coeffs(beta_c, zeta_c, nu_max=20, mu_max=20)
        with pytest.raises(ConfigurationError, match="series was built for"):
            bo_spectrum("NA", ref_system, dims=(16, 16), n_levels=3, series=series)


def test_bo_accepts_matching_series(ref_system):
    series = b_coeffs(ref_system.beta_c, ref_system.zeta_c, nu_max=20)
    assert (series.beta_c, series.zeta_c) == (0.75, 0.05)
    given = bo_spectrum("NA", ref_system, dims=(16, 16), n_levels=3, series=series)
    built = bo_spectrum("NA", ref_system, dims=(16, 16), n_levels=3, nu_max=20)
    assert given.eigenvalues.tobytes() == built.eigenvalues.tobytes()
    assert given.metadata["mu_max"] == built.metadata["mu_max"] == coupler._mu_cutoff(0.75)


def test_bo_theory_tags(ref_system):
    spec = bo_spectrum("LA", ref_system, dims=(24, 24), n_levels=3)
    assert spec.metadata["theory"] == "LA"
    assert "d2" in spec.metadata
    with pytest.raises(ConfigurationError):
        bo_spectrum("exact", ref_system)
    with pytest.raises(ConfigurationError):
        bo_spectrum("NA", ref_system, dims=(24,))


@pytest.mark.parametrize("theory", ["NA", "LA", "LN"])
def test_bo_rejects_nonpositive_dims(ref_system, theory, monkeypatch):
    import coupler_lab.bench as bench

    def forbidden(*args, **kwargs):
        raise AssertionError("built before the dims check")

    monkeypatch.setattr(bench, "b_coeffs", forbidden)
    monkeypatch.setattr(bench, "TensorOperator", forbidden)
    for dims in [(0, 40), (-3, 40)]:
        with pytest.raises(ConfigurationError, match="positive size"):
            bo_spectrum(theory, ref_system, dims=dims)


# ------------------------------------------------------------------ sweep


def test_sweep_matches_single_points(ref_system):
    spec = SweepSpec(
        axis="phi_cx",
        range=(0.0, 0.2, 2),
        system=ref_system,
        theories=("NA", "LA"),
        n_levels=3,
        bo_dims=(24, 24),
        nu_max=60,
    )
    result = sweep(spec)
    assert result.metadata["n_failed"] == 0
    for rec, phi in zip(result.points, (0.0, 0.2)):
        import dataclasses

        point = dataclasses.replace(ref_system, phi_cx=phi)
        for theory in ("NA", "LA"):
            direct = bo_spectrum(theory, point, dims=(24, 24), n_levels=3, nu_max=60)
            assert rec["energies"][theory] == tuple(float(v) for v in direct.eigenvalues)


def test_sweep_records_solver_diagnostics(ref_system):
    spec = SweepSpec(
        axis="phi_cx",
        range=(0.0, 0.1, 2),
        system=ref_system,
        theories=("exact", "NA"),
        n_levels=3,
        dims=(6, 6, 4),
        bo_dims=(12, 12),
        nu_max=20,
    )
    for rec in sweep(spec).points:
        exact, na = rec["meta"]["exact"], rec["meta"]["NA"]
        # exact 6x6x4 and NA 12x12: every sector holds more than the Lanczos basis
        assert exact["solver"] == na["solver"] == "lanczos"
        assert (exact["dim"], na["dim"]) == (144, 144)
        assert 0.0 <= exact["max_residual"] < 1e-10
        assert 0.0 <= na["max_residual"] < 1e-10


def test_sweep_records_iterative_matvecs(ref_system, monkeypatch):
    import coupler_lab.bench as bench

    # the Lanczos route at its fixed tolerance, as above the dense limit
    monkeypatch.setattr(oscillator, "DENSE_DIM_LIMIT", 0)
    spec = SweepSpec(axis="phi_cx", range=(0.0, 0.1, 2), system=ref_system,
                     theories=("exact",), n_levels=3, dims=(8, 8, 4))
    for rec in sweep(spec).points:
        meta = rec["meta"]["exact"]
        assert meta["solver"] == "lanczos"
        assert (meta["dim"], meta["basis"]) == (256, 20)
        assert meta["matvecs"] > 3
        assert 0.0 <= meta["max_residual"] < 1e-7


def test_sweep_records_leave_out_solver_timings(ref_system, monkeypatch):
    # matvec_s and solve_s vary run to run, so records keep them out
    import coupler_lab.bench as bench

    seen = []

    def iterative(op, m):
        spec = oscillator.lowest_eigs(op, m)
        seen.append(spec.metadata)
        return spec

    monkeypatch.setattr(oscillator, "DENSE_DIM_LIMIT", 0)
    monkeypatch.setattr(bench, "lowest_eigs", iterative)
    spec = SweepSpec(axis="phi_cx", range=(0.0, 0.1, 2), system=ref_system,
                     theories=("exact",), n_levels=3, dims=(8, 8, 4))
    points = sweep(spec).points
    assert all("solve_s" in meta and "matvec_s" in meta for meta in seen)
    for rec in points:
        assert not {"solve_s", "matvec_s"} & set(rec["meta"]["exact"])


def test_sweep_records_point_failures(ref_system):
    # beta_c = 1.2 violates monostability at the second point; the
    # sweep keeps going and reports the failure in place
    spec = SweepSpec(
        axis="beta_c",
        range=(0.5, 1.2, 2),
        system=ref_system,
        theories=("LA",),
        n_levels=3,
        bo_dims=(24, 24),
    )
    result = sweep(spec)
    assert result.metadata["n_failed"] == 1
    assert not result.points[0]["errors"]
    assert "system" in result.points[1]["errors"]
    arr = result.excitation_array("LA")
    assert arr.shape == (2, 2)
    assert np.all(np.isfinite(arr[0]))
    assert np.all(np.isnan(arr[1]))


def test_sweep_excitations_sorted_nonnegative(ref_system):
    spec = SweepSpec(
        axis="alpha",
        range=(0.0, 0.05, 2),
        system=ref_system,
        theories=("NA",),
        n_levels=4,
        bo_dims=(24, 24),
        nu_max=60,
    )
    arr = sweep(spec).excitation_array("NA")
    assert np.all(arr >= 0)
    assert np.all(np.diff(arr, axis=1) >= 0)


def test_sweep_spec_validation(ref_system):
    good = dict(axis="phi_cx", range=(0.0, 1.0, 3), system=ref_system)
    SweepSpec(**good)
    with pytest.raises(ConfigurationError):
        SweepSpec(**{**good, "axis": "zeta_j"})
    with pytest.raises(ConfigurationError):
        SweepSpec(**{**good, "range": (1.0, 0.0, 3)})
    with pytest.raises(ConfigurationError):
        SweepSpec(**{**good, "range": (0.0, 1.0, 1)})
    with pytest.raises(ConfigurationError):
        SweepSpec(**{**good, "n_levels": 1})
    with pytest.raises(ConfigurationError):
        SweepSpec(**{**good, "theories": ("NA", "BO")})
    # a series order that is not a whole number >= 1 fails when the spec is
    # built, not on every NA point of the sweep
    with pytest.raises(ConfigurationError, match="nu_max must be a whole number"):
        SweepSpec(**{**good, "nu_max": 100.5})
    with pytest.raises(ConfigurationError, match="nu_max must be >= 1"):
        SweepSpec(**{**good, "nu_max": 0})


BAD_RANGES = [(1.0, 0.0, 3), (0.0, 1.0, 1), (math.nan, 1.0, 3), (0.0, math.nan, 3),
              (0.0, math.inf, 3), (-math.inf, 0.0, 3)]


@pytest.mark.parametrize("bad", BAD_RANGES)
def test_axis_grids_share_one_check(ref_system, bad):
    # a sweep range, a scan range and a CLI bias grid go through one check,
    # which NaN and +-inf ends fail as a reversed range does
    with pytest.raises(ConfigurationError, match="grid needs"):
        SweepSpec(axis="phi_cx", range=bad, system=ref_system)
    with pytest.raises(ConfigurationError, match="grid needs"):
        coupling_scan(ref_system, ["xx"], bad)
    from coupler_lab import cli

    with pytest.raises(ConfigurationError, match="grid needs"):
        cli._bias_grid(types.SimpleNamespace(lo=bad[0], hi=bad[1], n_grid=bad[2]))


def test_axis_grid_is_linspace(ref_system):
    spec = SweepSpec(axis="phi_cx", range=(0, 0.3, 7), system=ref_system)
    assert spec.range == (0.0, 0.3, 7)
    assert np.array_equal(spec.values, np.linspace(0.0, 0.3, 7))
    assert np.array_equal(bench._axis_grid(0.1, 2.9, 5), np.linspace(0.1, 2.9, 5))


# each entry that takes a count, as a call of one count n, with an integral
# count, a count that is not a whole number and the name its error gives:
# the grids' numbers of points and dims entries, the series orders nu_max and
# mu_max, and the coupler and qubit grid sizes n_basis
REF_COUPLER = CouplerParams(beta_c=0.75, zeta_c=0.05)
COUNT_ENTRIES = {
    "coupling_scan": (lambda system, n: coupling_scan(system, ["xx"], (0.0, 0.1, n), nu_max=40,
                                                      n_basis=40).label_array("xx"), 3, 2.9,
                      "the number of grid points"),
    "sweep_spec": (lambda system, n: SweepSpec(axis="phi_cx", range=(0.5, 1.4, n),
                                               system=system).values, 3, 3.99,
                   "the number of grid points"),
    "bo_spectrum": (lambda system, n: bo_spectrum("LA", system, dims=(n, 12.0)).eigenvalues,
                    12, 12.9, "a dims entry"),
    "exact_spectrum": (lambda system, n: exact_spectrum(system, dims=(8, n, 6)).eigenvalues,
                       8, 6.5, "a dims entry"),
    "normal_mode_system": (lambda system, n: NormalModeSystem(
        freqs=[0.1], displacements=[[0.2]], amplitudes=[0.5], dims=(n,)).dims, 4, 4.5,
        "a dims entry"),
    "b_coeffs_nu_max": (lambda system, n: b_coeffs(0.75, 0.05, n).coeffs, 100, 100.5, "nu_max"),
    "b_coeffs_mu_max": (lambda system, n: b_coeffs(0.75, 0.05, 100, n).coeffs, 40, 40.5,
                        "mu_max"),
    "sin_beta": (lambda system, n: sin_beta(0.5, 0.1, nu_max=n), 10, 10.5, "nu_max"),
    "u_min": (lambda system, n: u_min(0.5, 0.1, nu_max=n), 100, 100.5, "nu_max"),
    "truncation_bound": (lambda system, n: truncation_bound(0.75, 0.05, n), 10, 10.5, "nu_max"),
    "bo_spectrum_nu_max": (lambda system, n: bo_spectrum("NA", system, dims=(12, 12),
                                                         nu_max=n).eigenvalues,
                           100, 100.5, "nu_max"),
    "coupling_scan_nu_max": (lambda system, n: coupling_scan(
        system, ["xx"], (0.0, 0.1, 2), nu_max=n, n_basis=40).label_array("xx"), 100, 100.5,
        "nu_max"),
    "qubit_subspace": (lambda system, n: qubit_subspace(system.qubits[0], n_basis=n).flux_modes,
                       60, 60.5, "n_basis"),
    "eg_exact": (lambda system, n: eg_exact(REF_COUPLER, 0.0, n_basis=n), 50, 50.5, "n_basis"),
    "eg_derivs_numeric": (lambda system, n: eg_derivs_numeric(REF_COUPLER, 0.1, n_basis=n),
                          50, 50.5, "n_basis"),
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_counts_must_be_whole_numbers(ref_system, entry):
    # an int, a numpy int and an integral float give the same result; a
    # count with a fractional part is rejected where it enters, before any
    # solve or numpy warning, not truncated
    call, n, fractional, name = COUNT_ENTRIES[entry]
    expected = call(ref_system, n)
    for same in (np.int64(n), float(n)):
        assert np.array_equal(call(ref_system, same), expected)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError,
                           match=f"^{name} must be a whole number, got {fractional}$"):
            call(ref_system, fractional)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_parameter_types_reject_non_finite_fields(bad):
    # each numeric field fails its own check at construction, so no NaN or
    # infinity reaches a solve
    coupler_fields = dict(beta_c=0.5, zeta_c=0.05, e_ltc=3.0)
    for key in coupler_fields:
        with pytest.raises(ConfigurationError, match=key):
            CouplerParams(**{**coupler_fields, key: bad})
    for key in (*coupler_fields, "phi_cx"):
        with pytest.raises(ConfigurationError, match=key):
            CouplerSystem(**{**coupler_fields, "phi_cx": 0.1, key: bad}, qubits=(REF_QUBIT,))
    qubit_fields = dict(beta_j=1.05, zeta_j=0.05, e_lj=1.0, phi_jx=0.1, alpha_j=0.05)
    for key in qubit_fields:
        with pytest.raises(ConfigurationError, match=key):
            QubitParams(**{**qubit_fields, key: bad})


def test_system_validation():
    with pytest.raises(ConfigurationError):
        CouplerSystem(beta_c=1.0, zeta_c=0.05, qubits=(REF_QUBIT,))
    with pytest.raises(ConfigurationError):
        CouplerSystem(beta_c=0.5, zeta_c=0.0, qubits=(REF_QUBIT,))
    with pytest.raises(ConfigurationError):
        CouplerSystem(beta_c=0.5, zeta_c=0.05, qubits=())


# ----------------------------------------------------------- coupling_scan


def test_coupling_scan_three_qubit_maxima():
    system = CouplerSystem(
        beta_c=0.5, zeta_c=0.05, qubits=(REF_QUBIT,) * 3, e_ltc=1.0
    )
    result = coupling_scan(system, ["xxx", "xxI"], (0.0, 2 * np.pi, 41))
    assert result.labels == ("xxx", "xxI")
    assert result.phi_cx.shape == (41,)
    assert np.max(np.abs(result.label_array("xxx"))) == pytest.approx(1.71e-5, rel=0.05)
    assert np.max(np.abs(result.label_array("xxI"))) == pytest.approx(5.35e-4, rel=0.05)


def test_coupling_scan_e_ltc_scaling():
    base = CouplerSystem(beta_c=0.5, zeta_c=0.05, qubits=(REF_QUBIT,) * 2)
    big = CouplerSystem(beta_c=0.5, zeta_c=0.05, qubits=(REF_QUBIT,) * 2, e_ltc=3.0)
    a = coupling_scan(base, ["xx"], (0.1, 0.5, 3))
    b = coupling_scan(big, ["xx"], (0.1, 0.5, 3))
    np.testing.assert_allclose(
        b.label_array("xx"), 3.0 * a.label_array("xx"), rtol=1e-12
    )


def test_coupling_scan_validation():
    system = CouplerSystem(beta_c=0.5, zeta_c=0.05, qubits=(REF_QUBIT,) * 2)
    with pytest.raises(ConfigurationError):
        coupling_scan(system, ["xx"], (1.0, 0.0, 5))
    with pytest.raises(ConfigurationError):
        coupling_scan(system, ["xx"], (0.0, 1.0, 1))


SCAN_QUBITS = (
    REF_QUBIT,
    QubitParams(beta_j=0.8, zeta_j=0.06, alpha_j=0.04, phi_jx=0.3),
    QubitParams(beta_j=1.2, zeta_j=0.045, alpha_j=0.06, phi_jx=-0.2, e_lj=1.3),
)


def table_bytes(table):
    return np.asarray(list(table.entries.values())).tobytes()


@pytest.mark.parametrize("n_qubits, labels, nu_max", [
    (2, ["xx", "zz", "xz", "yI"], 100),
    (2, "all", 400),
    (3, ["xxI", "xxx", "zzz", "xzy"], 400),
    (3, "all", 100),
])
def test_coupling_scan_equals_per_point_couplings(n_qubits, labels, nu_max):
    qubits = SCAN_QUBITS[:n_qubits]
    system = CouplerSystem(beta_c=0.75, zeta_c=0.05, qubits=qubits, e_ltc=3.0)
    result = coupling_scan(system, labels, (0.1, 2.9, 5), nu_max=nu_max)
    series = b_coeffs(0.75, 0.05, nu_max)
    subs = [qubit_subspace(q) for q in qubits]
    alphas = [q.alpha_j for q in qubits]
    for phi, table in zip(result.phi_cx, result.tables):
        point = couplings(series, subs, alphas, float(phi), labels=labels, e_ltc=3.0)
        assert table.labels == point.labels
        assert table_bytes(table) == table_bytes(point)
        assert table.metadata == point.metadata
    assert len({table_bytes(t) for t in result.tables}) == 5


def test_coupling_scan_builds_pauli_tables_once_per_qubit(monkeypatch):
    calls = []
    pauli_exp_table = projection._pauli_exp_table

    def spy(sub, s):
        calls.append(len(s))
        return pauli_exp_table(sub, s)

    monkeypatch.setattr(projection, "_pauli_exp_table", spy)
    system = CouplerSystem(beta_c=0.5, zeta_c=0.05, qubits=SCAN_QUBITS, e_ltc=1.0)
    coupling_scan(system, ["xxx", "zzI"], (0.0, 2 * np.pi, 41), nu_max=100)
    assert calls == [201, 201, 201]


def test_coupling_scan_checks_hermiticity_per_point(monkeypatch):
    # a small imaginary B_1 breaks Hermiticity wherever cos(phi_cx) is not ~0
    series = b_coeffs(0.5, 0.05, 100)
    coeffs = series.coeffs.astype(complex)
    coeffs[1] += 1e-6j
    broken = types.SimpleNamespace(nu_max=100, coeffs=coeffs)
    monkeypatch.setattr(bench, "b_coeffs", lambda *args: broken)
    system = CouplerSystem(beta_c=0.5, zeta_c=0.05, qubits=(REF_QUBIT,) * 2)
    subs = [qubit_subspace(REF_QUBIT)] * 2
    first = couplings(broken, subs, [0.05, 0.05], 0.5 * np.pi, labels=["xx", "zz"])
    assert first.metadata["imag_residue"] < 1e-10
    with pytest.raises(NumericError) as err:
        coupling_scan(system, ["xx", "zz"], (0.5 * np.pi, np.pi, 2))
    assert err.value.details["imag_residue"] > 1e-10


def test_resonant_coupling_scan_warns_once():
    # equal harmonic ladders: E_20 of one qubit equals E_10 + E_10 of the others
    harmonic = QubitParams(beta_j=0.0, zeta_j=0.05, alpha_j=0.02)
    system = CouplerSystem(beta_c=0.5, zeta_c=0.05, qubits=(harmonic,) * 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = coupling_scan(system, ["III", "xxx"], (0.0, 1.0, 4), nu_max=40, n_basis=40)
    assert [w.category for w in caught] == [ResonanceWarning]
    lists = [t.metadata["resonances"] for t in result.tables]
    assert lists[0] and all(hits == lists[0] for hits in lists)
    assert len({id(hits) for hits in lists}) == len(lists)
    lists[0][0]["qubit"] = -1
    assert lists[1][0]["qubit"] != -1


def test_ln_solves_the_coupler_once(ref_system, monkeypatch):
    # E_g and both derivatives come from one coupler eigensolve (one
    # eigh of the 50-state coupler matrix), and equal eg_exact and
    # eg_derivs_numeric at the same bias bitwise.  The 144-state qubit
    # problem is a Lanczos solve, whose projected 20 x 20 matrices make
    # eigh calls of their own
    real = np.linalg.eigh
    calls = []

    def counting(a):
        calls.append(a.shape)
        return real(a)

    system = replace(ref_system, phi_cx=0.3)
    basis = coupler._COUPLER_BASIS
    for dim in (12, basis):
        oscillator._grid(dim)  # cached nodes, so only the coupler solve calls eigh
    monkeypatch.setattr(np.linalg, "eigh", counting)
    spec = bo_spectrum("LN", system, dims=(12, 12), n_levels=3)
    monkeypatch.undo()
    assert spec.metadata["solver"] == "lanczos"
    assert calls.count((basis, basis)) == 1
    assert set(calls) == {(basis, basis), (20, 20)}
    assert basis == 50
    params = CouplerParams(beta_c=system.beta_c, zeta_c=system.zeta_c)
    # the qubits sit at zero bias, so the coupler sees phi_cx
    derivs = coupler.eg_derivs_numeric(params, 0.3)
    assert (spec.metadata["d1"], spec.metadata["d2"]) == derivs
    assert coupler._ground_energy_derivs(params, 0.3, 50) == (
        float(eg_exact(params, 0.3)[0]), *derivs)


TWO_QUBIT_SCAN_CONFIG = """[meta]
schema = 1
[coupler]
beta_c = {beta_c}
zeta_c = 0.05
[qubit.1]
beta_j = 1.05
zeta_j = 0.05
alpha_j = 0.05
[qubit.2]
beta_j = 1.05
zeta_j = 0.05
alpha_j = 0.05
[scan]
labels = xx,zz
lo = 0.0
hi = 0.1
n_points = 3
[numerics]
nu_max = 60
n_basis = 40
"""
SERIES_COMMANDS = {"series": ["--n-grid", "9"], "eg": ["--n-grid", "3"], "couplings": [],
                   "scan": []}


def test_solver_surface_has_no_knobs(tmp_path, capsys):
    # the solver is chosen from the operator itself, sweeps run point by point,
    # the series' convolution depth follows from beta_c, and a config that
    # still sets parallel or mu_max loads and writes the data it would without
    from coupler_lab.cli import EXIT_OK, load_config, main

    def params(func):
        return list(inspect.signature(func).parameters)

    assert params(lowest_eigs) == ["op", "m", "want_vectors"]
    assert params(exact_spectrum) == ["system", "dims", "n_levels"]
    assert params(bo_spectrum) == ["theory", "system", "dims", "n_levels", "nu_max", "series"]
    assert params(coupling_scan) == ["system", "labels", "phi_cx_range", "nu_max", "n_basis"]
    assert params(assemble_tensor_operator) == ["system"]
    assert [f.name for f in dataclasses.fields(SweepSpec)] == [
        "axis", "range", "system", "theories", "n_levels", "dims", "bo_dims", "nu_max"]
    assert "phi_cx" not in {f.name for f in dataclasses.fields(CouplerParams)}
    data = {}
    for name, old_keys in (("new", ""), ("old", "parallel = 2\nmu_max = 7\n")):
        path = tmp_path / f"{name}.ini"
        path.write_text(TWO_QUBIT_SCAN_CONFIG.format(beta_c=0.5) + old_keys)
        cfg = load_config(path)
        assert cfg.numerics["nu_max"] == 60
        assert not {"parallel", "mu_max"} & set(cfg.numerics)
        for command in ("series", "couplings", "scan"):
            argv = [command, "--config", str(path), "--out", str(tmp_path / name)]
            assert main(argv + SERIES_COMMANDS[command]) == EXIT_OK
        data[name] = {}
        for csv in ("series_profile.csv", "series_coefficients.csv", "couplings.csv",
                    "scan.csv"):
            lines = (tmp_path / name / csv).read_bytes().splitlines()
            assert b"# mu_max=26" in lines
            data[name][csv] = [line for line in lines if not line.startswith(b"#")]
    assert data["old"] == data["new"]
    capsys.readouterr()


def test_series_builds_at_the_derived_mu_cutoff(ref_system, tmp_path, monkeypatch, capsys):
    # NA solves, scans, NA sweep points and the four series commands each cut
    # the zero-point convolution at _mu_cutoff(beta_c), and report that cut
    from coupler_lab.cli import EXIT_OK, main

    built = []
    real = coupler._series_parts

    def spy(beta_c, nu_max, mu_max):
        built.append((beta_c, mu_max))
        return real(beta_c, nu_max, mu_max)

    monkeypatch.setattr(coupler, "_series_parts", spy)
    system = replace(ref_system, beta_c=0.9)
    cut = coupler._mu_cutoff(0.9)
    assert cut == 71
    na = bo_spectrum("NA", system, dims=(12, 12), n_levels=3, nu_max=20)
    assert na.metadata["mu_max"] == cut
    assert coupling_scan(system, ["zz"], (0.0, 0.1, 2), nu_max=20).metadata["mu_max"] == cut
    spec = SweepSpec(axis="beta_c", range=(0.3, 0.9, 2), system=ref_system, theories=("NA",),
                     n_levels=3, bo_dims=(12, 12), nu_max=20)
    assert [rec["meta"]["NA"]["mu_max"] for rec in sweep(spec).points] == [19, cut]
    path = tmp_path / "strong.ini"
    path.write_text(TWO_QUBIT_SCAN_CONFIG.format(beta_c=0.9))
    for command, flags in SERIES_COMMANDS.items():
        argv = [command, "--config", str(path), "--out", str(tmp_path)]
        assert main(argv + flags) == EXIT_OK
    for csv in ("series_coefficients.csv", "eg.csv", "couplings.csv", "scan.csv"):
        assert f"# mu_max={cut}" in (tmp_path / csv).read_text().splitlines()
    assert len(built) == 8
    assert all(mu_max == coupler._mu_cutoff(beta_c) for beta_c, mu_max in built)
    capsys.readouterr()


def test_unmet_mu_cutoff_fails_per_sweep_point(ref_system):
    # at beta_c = 0.999 no cut below mu = 400 bounds the dropped terms
    spec = SweepSpec(axis="beta_c", range=(0.99, 0.999, 2), system=ref_system,
                     theories=("NA",), n_levels=3, bo_dims=(12, 12), nu_max=20)
    result = sweep(spec)
    assert result.metadata["n_failed"] == 1
    assert result.points[0]["meta"]["NA"]["mu_max"] == 225
    assert result.points[1]["errors"]["NA"].startswith("NumericError: |mu G_mu| stays above")
    assert "beta_c = 0.999" in result.points[1]["errors"]["NA"]
