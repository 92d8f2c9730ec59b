"""Fock-space machinery tests.

Oracles: scaling-and-squaring matrix exponential on a padded basis for
the exponential matrix elements; an independently solved generalized
characteristic polynomial for the normal modes; explicit Kronecker
assembly and the textbook Fock-basis Hamiltonian for the grid operator
and the single-mode grid problems, np.tensordot for its matvec, and the
operator's image of the identity for its direct dense build; the dense
solver and an independent scipy eigsh call (ARPACK's implicitly
restarted Lanczos) as cross-checks for the package's own thick-restart
Lanczos.
"""

import functools
import inspect
import json
import math
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import LinearOperator, eigsh

import coupler_lab
from coupler_lab import oscillator
from coupler_lab.bench import CouplerSystem, SweepSpec, bo_spectrum, exact_spectrum, sweep
from coupler_lab.coupler import (CouplerParams, _series_parts, b_coeffs, bodc_metrics,
                                 eg_derivs_numeric, eg_eval, eg_exact)
from coupler_lab.errors import ConfigurationError, NumericError, ResourceError
from coupler_lab.kapteyn import _sin_coeffs
from coupler_lab.oscillator import (
    DENSE_DIM_LIMIT,
    NormalModeSystem,
    TensorOperator,
    _fused_diagonal,
    assemble_tensor_operator,
    ho_exp_matrix,
    ho_exp_matrix_element,
    lowest_eigs,
    normal_modes,
)
from coupler_lab.projection import QubitParams, qubit_subspace


def x_matrix(dim):
    n = np.sqrt(np.arange(1, dim))
    return np.diag(n, 1) + np.diag(n, -1)


def exp_oracle(r, dim, pad=40):
    # truncated-exponential oracle: exponentiate on a padded space so
    # edge truncation does not pollute the kept block
    full = expm(1j * r * x_matrix(dim + pad))
    return full[:dim, :dim]


def junction_matrix(zeta, beta, phase, dim):
    # the single-mode problem as the package solves it: K + diag(V) on the grid
    kinetic, potential, _ = oscillator._junction_mode(zeta, beta, phase, dim)
    return kinetic + np.diag(potential)


def fock_junction_matrix(zeta, beta, phase, dim):
    # the same problem in the Fock basis: the ladder plus P e^{i sqrt(zeta) X} P
    c = 0.5 * beta * np.exp(1j * phase)
    ladder = np.diag(2.0 * zeta * (np.arange(dim) + 0.5))
    return ladder + 2.0 * np.real(c * ho_exp_matrix(math.sqrt(zeta), dim))


def make_qubit(e_lj=1.0, zeta_j=0.05, beta_j=1.05, alpha_j=0.05, phi_jx=0.0):
    return SimpleNamespace(e_lj=e_lj, zeta_j=zeta_j, beta_j=beta_j,
                           alpha_j=alpha_j, phi_jx=phi_jx)


def make_system(beta_c=0.75, zeta_c=0.05, e_ltc=3.0, phi_cx=0.0, qubits=()):
    return SimpleNamespace(beta_c=beta_c, zeta_c=zeta_c, e_ltc=e_ltc,
                           phi_cx=phi_cx, qubits=list(qubits))


class TestHoExpElement:
    def test_identity_limit(self):
        assert ho_exp_matrix_element(0, 0, 0.0) == 1.0
        assert ho_exp_matrix_element(2, 7, 0.0) == 0.0

    def test_ground_diagonal(self):
        assert ho_exp_matrix_element(0, 0, 0.5) == pytest.approx(math.exp(-0.125))

    def test_against_expm(self):
        oracle = exp_oracle(31, 31)
        for r in [-2.0, -0.7, 0.3, 0.8, 2.0]:
            oracle = exp_oracle(r, 31)
            for j in [0, 3, 11, 30]:
                for k in [0, 5, 17, 30]:
                    got = ho_exp_matrix_element(j, k, r)
                    assert got == pytest.approx(oracle[j, k], abs=1e-8)

    def test_symmetry(self):
        assert ho_exp_matrix_element(3, 9, 1.3) == ho_exp_matrix_element(9, 3, 1.3)

    def test_unitarity_row_sums(self):
        # sum_k |<j|e^{irX}|k>|^2 = 1, k summed well past truncation
        for r in [0.5, 2.0]:
            for j in [0, 7, 30]:
                total = sum(abs(ho_exp_matrix_element(j, k, r)) ** 2 for k in range(200))
                assert total == pytest.approx(1.0, abs=1e-6)

    def test_deep_off_diagonal_scaling(self):
        # elements far off the diagonal at high index: the plain
        # prefactor underflows long before the element itself does
        got = ho_exp_matrix_element(400, 800, 2.0)
        oracle = exp_oracle(2.0, 801, pad=120)
        assert got == pytest.approx(oracle[400, 800], abs=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ho_exp_matrix_element(-1, 0, 0.5)
        with pytest.raises(ValueError):
            ho_exp_matrix_element(0, 0, float("nan"))


class TestHoExpMatrix:
    def test_matches_elements(self):
        m = ho_exp_matrix(0.8, 12)
        for j in [0, 4, 11]:
            for k in [0, 7, 11]:
                assert m[j, k] == pytest.approx(ho_exp_matrix_element(j, k, 0.8), rel=1e-13)

    def test_complex_symmetric(self):
        m = ho_exp_matrix(-1.1, 25)
        assert np.allclose(m, m.T, atol=0, rtol=0)

    def test_negative_r_is_conjugate_transpose_free(self):
        # e^{-irX} = (e^{irX})^dagger = conj(e^{irX}) for symmetric X
        assert np.allclose(ho_exp_matrix(-0.6, 15), ho_exp_matrix(0.6, 15).conj())


def fresh_exp_matrix(r, dim):
    # one _fused_diagonal per offset, mirrored
    out = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        vals = (1j) ** (a % 4) * _fused_diagonal(r, a, dim - a)
        idx = np.arange(dim - a)
        out[idx, idx + a] = vals
        out[idx + a, idx] = vals
    return out


class TestHoExpMatrixCache:
    """ho_exp_matrix builds a fresh factor per call; the memoized Kapteyn
    and series caches stay consistent under threads."""

    @pytest.mark.parametrize("r", [0.0, -0.0, 0.3, -0.3, 5.0, -40.0])
    @pytest.mark.parametrize("dim", [1, 18, 60])
    def test_bitwise_equal_to_fresh_build(self, r, dim):
        # r = -40 starts the recurrence below the underflow threshold
        assert ho_exp_matrix(r, dim).tobytes() == fresh_exp_matrix(r, dim).tobytes()

    def test_threaded_sweep_shares_caches(self):
        # two sweeps from two threads fill the same cold caches at once and
        # must give the records a lone sweep gives
        q = QubitParams(beta_j=1.05, zeta_j=0.05, alpha_j=0.05)
        system = CouplerSystem(beta_c=0.75, zeta_c=0.05, qubits=(q, q), e_ltc=3.0)
        spec = SweepSpec(axis="phi_cx", range=(0.0, 0.6, 4), system=system,
                         theories=("NA", "LA", "LN"), n_levels=3, bo_dims=(16, 16),
                         nu_max=20)

        def records(result):
            return [(rec["energies"], rec["excitations"], rec["errors"])
                    for rec in result.points]

        _sin_coeffs.cache_clear()
        _series_parts.cache_clear()
        lone = records(sweep(spec))
        _sin_coeffs.cache_clear()
        _series_parts.cache_clear()
        start = threading.Barrier(2)
        results = [None, None]

        def run(i):
            start.wait(timeout=60)
            results[i] = records(sweep(spec))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert results == [lone, lone]
        assert not any(errors for _, _, errors in lone)


class TestNormalModes:
    def test_single_mode(self):
        sys_ = make_system(beta_c=0.0, zeta_c=0.07, e_ltc=2.0)
        nm = normal_modes(sys_)
        assert nm.freqs == pytest.approx([2 * 0.07 * 2.0])
        assert nm.displacements[0, 0] == pytest.approx(math.sqrt(0.07))

    def test_uncoupled_qubits_block_diagonal(self):
        q = make_qubit(alpha_j=0.0, zeta_j=0.04, e_lj=1.5)
        nm = normal_modes(make_system(qubits=[q, q]))
        assert sorted(nm.freqs) == pytest.approx(sorted([2 * 0.05 * 3.0, 0.12, 0.12]))

    def test_characteristic_polynomial_oracle(self):
        # det(K - w^2 T^{-1}... ) root-finding done independently via numpy roots
        qs = [make_qubit(), make_qubit()]
        sys_ = make_system(qubits=qs)
        nm = normal_modes(sys_)
        t = np.diag([4 * 0.05**2 * 3.0, 4 * 0.05**2, 4 * 0.05**2])
        k = np.array([
            [3.0, 3.0 * 0.05, 3.0 * 0.05],
            [3.0 * 0.05, 3.0 * 0.05**2 + 1.0, 3.0 * 0.05**2],
            [3.0 * 0.05, 3.0 * 0.05**2, 3.0 * 0.05**2 + 1.0],
        ])
        # w^2 are generalized eigenvalues of (T K T, identity) in scaled form;
        # get them as polynomial roots of det(T K T - w^2 I)
        w = np.sqrt(t) @ k @ np.sqrt(t)
        coeffs = np.poly(w)
        roots = np.sort(np.sqrt(np.roots(coeffs).real))
        assert nm.freqs == pytest.approx(roots, rel=1e-10)

    def test_bias_offsets_fold_into_amplitudes(self):
        q1 = make_qubit(phi_jx=0.2)
        q2 = make_qubit(phi_jx=-0.1)
        nm = normal_modes(make_system(phi_cx=0.5, qubits=[q1, q2]))
        expect_c = 0.5 - 0.05 * 0.2 - 0.05 * (-0.1)
        assert np.angle(nm.amplitudes[0]) == pytest.approx(expect_c)
        assert np.angle(nm.amplitudes[1]) == pytest.approx(0.2)
        assert abs(nm.amplitudes[1]) == pytest.approx(0.5 * 1.05 * 1.0)

    def test_degenerate_pair_gets_a_fixed_basis(self, monkeypatch):
        # three identical qubits: the two qubit-antisymmetric modes share
        # w = 0.1, and eigh may return any rotation of that pair
        system = make_system(qubits=[make_qubit()] * 3)
        nm = normal_modes(system)
        assert np.sum(np.isclose(nm.freqs, 0.1, rtol=1e-12)) == 2
        spec = exact_spectrum(system, dims=(10, 10, 10, 6), n_levels=4)
        assert spec.metadata["sectors"]["dims"] == (1500,) * 4
        real = np.linalg.eigh
        c, s = math.cos(0.7), math.sin(0.7)

        def rotated(a):
            vals, vecs = real(a)
            pair = np.flatnonzero(np.isclose(vals, 0.01, rtol=1e-12))
            vecs[:, pair] = vecs[:, pair] @ np.array([[c, -s], [s, c]])
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", rotated)
        turned = normal_modes(system)
        assert np.max(np.abs(turned.displacements - nm.displacements)) <= 1e-14

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            normal_modes(make_system(e_ltc=-1.0))

    def test_sorted_invariant_enforced(self):
        with pytest.raises(ConfigurationError):
            NormalModeSystem([2.0, 1.0], np.eye(2), [1.0, 1.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["freqs", "displacements", "amplitudes"])
    def test_non_finite_modes_rejected(self, field, value):
        fields = {"freqs": [1.0, 2.0], "displacements": np.eye(2), "amplitudes": [1.0, 1.0]}
        NormalModeSystem(**fields)  # the finite system constructs
        fields[field] = np.array(fields[field], dtype=float)
        fields[field].flat[-1] = value
        with pytest.raises(ConfigurationError):
            NormalModeSystem(**fields)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["e_ltc", "zeta_c", "beta_c", "phi_cx",
                                       "e_lj", "zeta_j", "alpha_j", "beta_j", "phi_jx"])
    def test_non_finite_circuit_rejected(self, field, value):
        # a duck-typed system gets the ConfigurationError, never a failed eigh
        if field in ("e_ltc", "zeta_c", "beta_c", "phi_cx"):
            system = make_system(qubits=[make_qubit()], **{field: value})
        else:
            system = make_system(qubits=[make_qubit(**{field: value})])
        with np.errstate(invalid="ignore"), pytest.raises(ConfigurationError):
            normal_modes(system)


class TestGrid:
    @pytest.mark.parametrize("dim", [1, 2, 7, 18, 40, 61])
    def test_nodes_are_bitwise_antisymmetric(self, dim):
        x, _ = oscillator._grid(dim)
        assert np.array_equal(x, -x[::-1])
        assert np.all(np.diff(x) > 0.0)

    @pytest.mark.parametrize("dim", [6, 18, 40, 61])
    def test_nodes_diagonalize_the_quadrature(self, dim):
        x, u = oscillator._grid(dim)
        np.testing.assert_allclose(u.T @ u, np.eye(dim), atol=1e-13)
        np.testing.assert_allclose(u.T @ x_matrix(dim) @ u, np.diag(x), atol=1e-12)
        # reversing the nodes is the Fock parity, given k = 0 components > 0
        # (they underflow at the outer nodes of larger grids)
        assert np.all(u[0][np.abs(u[0]) > 1e-12] > 0.0)
        parity = (-1.0) ** np.arange(dim)
        np.testing.assert_allclose(u[:, ::-1], parity[:, None] * u, atol=1e-13)

    @pytest.mark.parametrize("dim", [18, 40, 61])
    def test_sign_fix_makes_the_ladder_reflection_symmetric(self, dim):
        # the ladder before symmetrization is already reflection-symmetric
        # within the sector tolerance; the kept factor is so bitwise
        _, u = oscillator._grid(dim)
        raw = u.T @ ((0.1 * (np.arange(dim) + 0.5))[:, None] * u)
        tol = oscillator._SECTOR_TOL * np.finfo(float).eps * np.max(np.abs(raw))
        assert np.max(np.abs(raw - raw[::-1, ::-1])) <= tol
        k = oscillator._kinetic(0.1, dim)
        assert np.array_equal(k, k[::-1, ::-1])
        assert np.array_equal(k, k.T)
        np.testing.assert_allclose(np.linalg.eigvalsh(k), 0.1 * (np.arange(dim) + 0.5),
                                   rtol=0, atol=1e-13)

    def test_grid_is_memoized_read_only(self):
        x, u = oscillator._grid(12)
        assert oscillator._grid(12)[0] is x
        with pytest.raises(ValueError):
            u[0, 0] = 1.0


class TestTensorOperator:
    def build_reference(self, dims=(8, 8, 6)):
        qs = [make_qubit(), make_qubit()]
        nm = normal_modes(make_system(qubits=qs), dims=dims)
        return assemble_tensor_operator(nm)

    def test_single_mode_matches_direct_assembly(self):
        # one junction, one mode: the grid operator's levels must equal
        # those of the textbook H = w(n+1/2) + (C e^{irX} + h.c.) built by
        # hand in a padded Fock basis; both are converged at these sizes
        sys_ = make_system(beta_c=0.75, zeta_c=0.05, e_ltc=1.0, phi_cx=0.3)
        nm = normal_modes(sys_, dims=(50,))
        op = assemble_tensor_operator(nm)
        dense = op.to_dense()
        w = 2 * 0.05
        r = math.sqrt(0.05)
        half = 0.5 * 0.75 * np.exp(0.3j) * expm(1j * r * x_matrix(130))[:90, :90]
        ref = np.diag(w * (np.arange(90) + 0.5)) + (half + half.conj().T).real
        np.testing.assert_allclose(np.linalg.eigvalsh(dense)[:10],
                                   np.linalg.eigvalsh(ref)[:10], rtol=0, atol=1e-10)

    def test_exact_potential_is_the_junction_cosines(self):
        op = self.build_reference((5, 4, 3))
        nm = normal_modes(make_system(qubits=[make_qubit(), make_qubit()]))
        xs = [oscillator._grid(d)[0] for d in (5, 4, 3)]
        for idx in [(0, 0, 0), (4, 1, 2), (2, 3, 1)]:
            x = np.array([xs[n][i] for n, i in enumerate(idx)])
            want = sum(2.0 * (c * np.exp(1j * (r @ x))).real
                       for c, r in zip(nm.amplitudes, nm.displacements))
            assert op.potential[idx] == pytest.approx(want, abs=1e-13)

    def test_matvec_matches_dense(self):
        op = self.build_reference()
        dense = op.to_dense()
        rng = np.random.default_rng(7)
        v = rng.standard_normal(op.size)
        assert np.max(np.abs(op.matvec(v) - dense @ v)) < 1e-12

    def test_block_matvec(self):
        op = self.build_reference()
        rng = np.random.default_rng(8)
        v = rng.standard_normal((op.size, 3))
        block = op.matvec(v)
        for i in range(3):
            assert np.allclose(block[:, i], op.matvec(v[:, i]), atol=1e-13)

    def test_hermitian_on_random_vectors(self):
        op = self.build_reference()
        rng = np.random.default_rng(9)
        v = rng.standard_normal(op.size)
        w_ = rng.standard_normal(op.size)
        lhs = w_ @ op.matvec(v)
        rhs = v @ op.matvec(w_)
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(v) * np.linalg.norm(w_)

    def test_rejects_complex_vector(self):
        op = self.build_reference()
        with pytest.raises(ValueError):
            op.matvec(np.zeros(op.size, dtype=complex))

    def test_memory_budget(self, monkeypatch):
        qs = [make_qubit(), make_qubit()]
        nm = normal_modes(make_system(qubits=qs), dims=(40, 40, 18))
        # the potential and a one-vector matvec workspace, 0.66 MiB: one byte
        # less raises, and the budget at the need passes
        need = 40 * 40 * 18 * (8 + oscillator._MATVEC_BYTES)
        monkeypatch.setattr(oscillator, "DEFAULT_MEMORY_BUDGET", need - 1)
        with pytest.raises(ResourceError, match="over the 1 MiB budget"):
            assemble_tensor_operator(nm)
        monkeypatch.setattr(oscillator, "DEFAULT_MEMORY_BUDGET", need)
        assert assemble_tensor_operator(nm).size == 40 * 40 * 18

    def test_requires_dims(self):
        nm = normal_modes(make_system())
        with pytest.raises(ConfigurationError):
            assemble_tensor_operator(nm)


def identity_image(op):
    # the operator applied to every unit vector: the dense matrix by definition
    return op.matvec(np.eye(op.size))


def random_operator(dims, seed):
    # random symmetric kinetic factors and potential with O(1) entries, so
    # 1e-13 is a rounding-level bound
    rng = np.random.default_rng(seed)
    kinetic = []
    for d in dims:
        a = rng.standard_normal((d, d))
        kinetic.append(a + a.T)
    return TensorOperator(kinetic, rng.standard_normal(dims))


def diagonal_operator(dims, potential):
    return TensorOperator([np.zeros((d, d)) for d in dims], potential)


class TestToDense:
    @pytest.mark.parametrize("dims", [(9,), (6, 7), (4, 3, 5)])
    def test_matches_identity_image(self, dims):
        op = random_operator(dims, seed=len(dims))
        assert np.max(np.abs(op.to_dense() - identity_image(op))) < 1e-13

    def test_single_mode_is_bitwise(self):
        op = random_operator((17,), seed=11)
        assert np.array_equal(op.to_dense(), identity_image(op))

    @pytest.mark.parametrize("dims", [(7,), (5, 6), (3, 4, 2)])
    def test_no_terms(self, dims):
        # no kinetic part: the potential alone, on the diagonal
        op = diagonal_operator(dims, np.arange(float(np.prod(dims))))
        assert np.array_equal(op.to_dense(), np.diag(np.arange(float(np.prod(dims)))))
        assert np.array_equal(op.to_dense(), identity_image(op))

    def test_identity_factors_in_other_modes(self):
        # each K_n acts on its own axis with identities on the others
        for dims in [(6, 5), (4, 3, 5)]:
            op = random_operator(dims, seed=5)
            want = np.diag(op.potential.ravel())
            for n, k in enumerate(op.kinetic):
                lead, trail = int(np.prod(dims[:n])), int(np.prod(dims[n + 1:]))
                want = want + np.kron(np.kron(np.eye(lead), k), np.eye(trail))
            assert np.max(np.abs(op.to_dense() - want)) < 1e-13

    def test_two_qubit_na_operator(self, monkeypatch):
        import coupler_lab.bench as bench

        captured = []
        real = bench.lowest_eigs

        def spy(op, *args, **kwargs):
            captured.append(op)
            return real(op, *args, **kwargs)

        monkeypatch.setattr(bench, "lowest_eigs", spy)
        system = bench.CouplerSystem(beta_c=0.75, zeta_c=0.05, e_ltc=3.0,
                                     phi_cx=0.3, qubits=(make_qubit(), make_qubit()))
        bench.bo_spectrum("NA", system, dims=(10, 12), n_levels=3, nu_max=40)
        (op,) = captured
        assert op.dims == (10, 12)
        assert np.max(np.abs(op.to_dense() - identity_image(op))) < 1e-13
        # the potential: each qubit's junction cosine plus e_ltc E_g at the
        # coupler's effective bias, one series evaluation per grid point
        series = b_coeffs(0.75, 0.05, nu_max=40, mu_max=40)
        xs = [oscillator._grid(d)[0] for d in (10, 12)]
        r = math.sqrt(0.05)
        for i, j in [(0, 0), (3, 7), (9, 11)]:
            want = (1.05 * math.cos(r * xs[0][i]) + 1.05 * math.cos(r * xs[1][j])
                    + 3.0 * eg_eval(series, 0.3 - 0.05 * r * (xs[0][i] + xs[1][j])))
            assert op.potential[i, j] == pytest.approx(want, abs=1e-13)

    def test_dense_limit(self):
        op = diagonal_operator((91, 91), np.zeros((91, 91)))
        assert op.size > DENSE_DIM_LIMIT
        with pytest.raises(ResourceError):
            op.to_dense()

    def test_memory_peak(self):
        # the kinetic factors are added through views of the output, so the
        # build stays well under three size x size float matrices
        op = random_operator((12, 12, 12), seed=12)
        tracemalloc.start()
        try:
            dense = op.to_dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dense.shape == (op.size, op.size)
        assert peak < 3 * op.size**2 * 8


def tensordot_matvec(op, v):
    # the matvec written with np.tensordot: the oracle the transposes and
    # matrix products of matvec must reproduce bit for bit
    t = v.reshape(op.dims + (-1,))
    out = op.potential[..., None] * t
    for n, k in enumerate(op.kinetic):
        out += np.moveaxis(np.tensordot(k, t, axes=(1, n)), 0, n)
    return out.reshape(v.shape)


class TestMatvecBlas:
    @pytest.mark.parametrize("layout", ["vector", "block", "fortran"])
    @pytest.mark.parametrize("dims", [(9,), (6, 7), (4, 3, 5)])
    def test_matches_dense_product(self, dims, layout):
        op = random_operator(dims, seed=40 + len(dims))
        rng = np.random.default_rng(41)
        v = rng.standard_normal(op.size if layout == "vector" else (op.size, 6))
        if layout == "fortran":
            v = np.asfortranarray(v)
        got = op.matvec(v)
        assert got.shape == v.shape
        assert np.max(np.abs(got - op.to_dense() @ v)) < 1e-12

    @pytest.mark.parametrize("cols", [None, 1, 6])
    @pytest.mark.parametrize("dims", [(9,), (6, 7), (4, 3, 5)])
    def test_bitwise_equal_to_tensordot(self, dims, cols):
        op = random_operator(dims, seed=20 + len(dims))
        rng = np.random.default_rng(21)
        v = rng.standard_normal(op.size if cols is None else (op.size, cols))
        got, want = op.matvec(v), tensordot_matvec(op, v)
        assert np.array_equal(got, want)
        # same layout too: reductions over the result then round the same
        assert got.strides == want.strides

    def test_bitwise_equal_on_fortran_block(self):
        # a transposed product, such as a block of Ritz vectors, is Fortran-ordered
        op = two_qubit_operator()
        v = np.asfortranarray(np.random.default_rng(22).standard_normal((op.size, 6)))
        got, want = op.matvec(v), tensordot_matvec(op, v)
        assert np.array_equal(got, want)
        assert got.strides == want.strides

    def test_import_leaves_scipy_linalg_unloaded(self):
        # the package is numpy only: importing it loads no scipy module
        assert loaded("scipy", "pass") == []

    @pytest.mark.parametrize("cols", [1, 6])
    def test_memory_peak_within_estimate(self, cols):
        # C-order blocks, and a Fortran-order block such as the transposed
        # Ritz vectors: both are viewed in place, so the peak is the
        # accumulator and one product, _MATVEC_BYTES per state and column,
        # plus a fixed part (array headers, numpy's fixed ufunc buffers of
        # ~64 KiB at most) that is far below the 8 bytes per state and
        # column one copy of the input would add.  Reference-size dims, so
        # that fixed part stays small next to the per-state workspace.
        op = two_qubit_operator((40, 40, 18))
        v = np.random.default_rng(32).standard_normal((op.size, cols))
        inputs = [v, np.asfortranarray(v)]
        op.matvec(v)  # the first call allocates numpy's own buffers
        for v in inputs:
            tracemalloc.start()
            try:
                op.matvec(v)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            workspace = oscillator._MATVEC_BYTES * op.size * cols
            assert workspace <= peak < workspace + (64 << 10)
            assert 64 << 10 < 8 * op.size


class TestLowestEigs:
    def test_diagonal_operator(self):
        op = diagonal_operator((9,), np.arange(9.0))
        spec = lowest_eigs(op, 4)
        assert spec.metadata["solver"] == "dense"
        assert spec.eigenvalues == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_uncoupled_modes_minkowski_sum(self):
        freqs = [0.3, 0.5, 1.1]
        nm = NormalModeSystem(freqs, np.zeros((1, 3)), [0.0], dims=(6, 6, 6))
        spec = lanczos(assemble_tensor_operator(nm), 8)
        ladders = [w * (np.arange(6) + 0.5) for w in freqs]
        all_sums = np.sort([a + b + c for a in ladders[0] for b in ladders[1] for c in ladders[2]])
        assert spec.eigenvalues == pytest.approx(all_sums[:8], abs=1e-9)

    def test_dense_iterative_agreement(self):
        qs = [make_qubit(), make_qubit()]
        nm = normal_modes(make_system(qubits=qs), dims=(12, 12, 8))
        op = assemble_tensor_operator(nm)
        d = lowest_eigs(op, 6)
        it = lanczos(op, 6)
        assert it.eigenvalues == pytest.approx(d.eigenvalues, abs=1e-8)

    def test_iterative_matches_scipy(self):
        qs = [make_qubit(beta_j=1.1), make_qubit(beta_j=0.9)]
        nm = normal_modes(make_system(qubits=qs), dims=(16, 16, 10))
        op = assemble_tensor_operator(nm)
        mine = lanczos(op, 5)
        lo = LinearOperator(op.shape, matvec=lambda v: op.matvec(np.real(v)))
        ref = np.sort(eigsh(lo, k=5, which="SA", return_eigenvectors=False,
                            v0=np.ones(op.size)))
        assert mine.eigenvalues == pytest.approx(ref, abs=1e-7)

    def test_eigenvector_residuals(self):
        qs = [make_qubit()]
        nm = normal_modes(make_system(qubits=qs), dims=(14, 10))
        op = assemble_tensor_operator(nm)
        spec = lanczos(op, 4, want_vectors=True)
        for i in range(4):
            v = spec.eigenvectors[:, i]
            r = op.matvec(v) - spec.eigenvalues[i] * v
            assert np.linalg.norm(r) < 1e-8

    def test_deterministic(self):
        qs = [make_qubit()]
        nm = normal_modes(make_system(qubits=qs), dims=(14, 10))
        op = assemble_tensor_operator(nm)
        a = lanczos(op, 3, want_vectors=True)
        b = lanczos(op, 3, want_vectors=True)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_truncation_convergence_at_reference_dims(self):
        # basis truncation is converged at the working sizes: +8 states
        # per mode moves the ground energy by under 1e-6
        qs = [make_qubit(), make_qubit()]
        e0 = []
        for d in [(40, 40, 18), (48, 48, 26)]:
            nm = normal_modes(make_system(qubits=qs), dims=d)
            e0.append(lowest_eigs(assemble_tensor_operator(nm), 1).eigenvalues[0])
        assert abs(e0[1] - e0[0]) < 1e-6

    def test_mode_guards(self):
        op = diagonal_operator((9,), np.arange(9.0))
        with pytest.raises(ConfigurationError, match="exceeds operator dimension"):
            lowest_eigs(op, 40)
        # only grid operators: a plain array is rejected
        with pytest.raises(ConfigurationError):
            lowest_eigs(np.eye(3), 2)
        with pytest.raises(ConfigurationError):
            lowest_eigs(op.to_dense(), 1)
        # the Lanczos tolerance is fixed, not a parameter
        assert "tol" not in inspect.signature(lowest_eigs).parameters
        assert oscillator._LANCZOS_TOL == 1e-9

    def test_size_picks_the_solver(self, monkeypatch):
        # the folded sector's size picks: Lanczos whenever it holds more states
        # than the Lanczos basis ncv = max(2m + 1, 20), at any m, at the
        # dense-range tolerance up to DENSE_DIM_LIMIT states and the fixed one
        # above, unless the operator has one axis; one dense eigh of the
        # sector's matrix (to_dense) otherwise
        class Picked(Exception):
            pass

        def pick(*entry):
            picked.append(entry)
            raise Picked

        # a biased LA pair at 28x28 has no reflection: one sector of 784 states
        _, biased = captured_operator(monkeypatch, "LA",
                                      identical_pair(1.05, phi_cx=STRONG_PHI_CX),
                                      dims=(28, 28), n_levels=3)
        picked = []
        monkeypatch.setattr(TensorOperator, "to_dense", lambda sub: pick("dense", sub.size))
        monkeypatch.setattr(oscillator, "_lanczos",
                            lambda apply, n, m, ncv, tol, bound: pick("lanczos", n, tol, bound))
        rng = np.random.default_rng(5)
        cases = [
            (diagonal_operator((20, 28), rng.standard_normal((20, 28))), 3),  # one sector of 560
            (diagonal_operator((19, 30), rng.standard_normal((19, 30))), 33),  # m above 32
            (diagonal_operator((60,), rng.standard_normal(60)), 3),  # one axis: dense
            (diagonal_operator((40, 56), np.zeros((40, 56))), 3),  # four reflection sectors of 560
            (biased, 6),
            (diagonal_operator((90, 91), np.zeros((90, 91))), 3),  # odd pivot: one of 8190
            (diagonal_operator((91, 91), np.zeros((91, 91))), 3),  # above DENSE_DIM_LIMIT
        ]
        for op, m in cases:
            with pytest.raises(Picked):
                lowest_eigs(op, m)
        # the first sector is solved with no bound
        inf = math.inf
        assert picked == [("lanczos", 560, 1e-14, inf), ("lanczos", 570, 1e-14, inf),
                          ("dense", 60), ("lanczos", 560, 1e-14, inf), ("lanczos", 784, 1e-14, inf),
                          ("lanczos", 8190, 1e-14, inf), ("lanczos", 8281, 1e-9, inf)]
        # Lanczos needs m < ncv < size: sectors of at most ncv states are dense
        picked.clear()
        for dims, m in (((8, 10), 3), ((10, 10), 3), ((18, 18), 40), ((20, 18), 40)):
            # four sectors of 20, 25, 81 and 90 states; ncv is 20, 20, 81 and 81
            with pytest.raises(Picked):
                lowest_eigs(diagonal_operator(dims, np.zeros(dims)), m)
        assert picked == [("dense", 20), ("lanczos", 25, 1e-14, inf), ("dense", 81),
                          ("lanczos", 90, 1e-14, inf)]
        monkeypatch.undo()
        assert DENSE_DIM_LIMIT == 8192

def lanczos(op, m, want_vectors=False):
    # the Lanczos route at its fixed tolerance, which lowest_eigs takes above
    # DENSE_DIM_LIMIT states: the limit is lowered just below the operator
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oscillator, "DENSE_DIM_LIMIT", op.size - 1)
        return lowest_eigs(op, m, want_vectors)


def two_qubit_operator(dims=(14, 14, 8)):
    # unequal qubits at zero bias: the joint flux reflection splits two sectors
    qs = [make_qubit(beta_j=1.1), make_qubit(beta_j=0.9)]
    return assemble_tensor_operator(normal_modes(make_system(qubits=qs), dims=dims))


def identical_operator(dims=(14, 14, 8), beta_j=1.1):
    # identical qubits at zero bias: reflections {1} and {0, 2}, four sectors
    qs = [make_qubit(beta_j=beta_j), make_qubit(beta_j=beta_j)]
    return assemble_tensor_operator(normal_modes(make_system(qubits=qs), dims=dims))


def biased_operator(dims=(14, 14, 8)):
    # a biased qubit leaves no reflection: the full space is one Lanczos solve
    qs = [make_qubit(beta_j=1.1), make_qubit(beta_j=0.9, phi_jx=0.3)]
    return assemble_tensor_operator(normal_modes(make_system(qubits=qs), dims=dims))


def lanczos_workspace(op, m, sectors, swap=False):
    # the bytes the budget check counts, the full space being the one-sector
    # fold: per sector the Lanczos basis and its restart product, the levels
    # kept from earlier sectors, its potential, the last new vector and a
    # one-vector matvec with a reflected product; then the m x n output, a
    # one-row matvec and, with a swap, the output's exchanged copy
    ncv, size = max(2 * m + 1, 20), op.size // sectors
    return (8 * size * (2 * ncv + m + 5) + oscillator._MATVEC_BYTES * size
            + (8 * m * (2 if swap else 1) + oscillator._MATVEC_BYTES) * op.size)


def count_applications(monkeypatch):
    # operator applications per operator size, on the full operator and on
    # every folded sector (each a TensorOperator of its own)
    applied = {}
    real = TensorOperator.matvec

    def counting(self, v):
        applied[self.size] = applied.get(self.size, 0) + (1 if v.ndim == 1 else v.shape[1])
        return real(self, v)

    monkeypatch.setattr(TensorOperator, "matvec", counting)
    return applied


# the reference point's solves: the exact 40x40x18 one (Lanczos in four
# 7,200-state sectors) and NA, LA and LN (Lanczos in two 800-state sectors)
REFERENCE_SOLVES = '''
from coupler_lab import CouplerSystem, QubitParams, bo_spectrum, exact_spectrum
q = QubitParams(beta_j=1.05, zeta_j=0.05, alpha_j=0.05)
system = CouplerSystem(beta_c=0.75, zeta_c=0.05, qubits=(q, q), e_ltc=3.0)
spectra = [exact_spectrum(system, n_levels=6)]
spectra += [bo_spectrum(theory, system, n_levels=6) for theory in ("NA", "LA", "LN")]
assert [s.metadata["solver"] for s in spectra] == ["lanczos"] * 4
'''


class TestIterativeSolver:
    def test_metadata_counts_operator_applications(self, monkeypatch):
        # two reflection sectors of half the states each; matvecs counts
        # their applications plus the m columns of the full-size residual check
        op = two_qubit_operator()
        applied = count_applications(monkeypatch)
        spec = lanczos(op, 4)
        meta = spec.metadata
        assert meta["solver"] == "lanczos"
        assert meta["basis"] == 20
        assert meta["sectors"]["dims"] == (op.size // 2,) * 2
        assert set(applied) == {op.size, op.size // 2}
        assert applied[op.size] == 4
        assert meta["matvecs"] == sum(applied.values())
        # one count per sector, together every sector-vector application
        assert len(meta["sectors"]["matvecs"]) == 2
        assert sum(meta["sectors"]["matvecs"]) == applied[op.size // 2]
        assert "block" not in meta
        assert len(meta["residuals"]) == 4

    @pytest.mark.parametrize("beta_j", [0.615763, 1.262359])
    def test_later_sectors_stop_early_at_the_reference_point(self, beta_j):
        # the exact 40x40x18 solve: the sector counts and the m residual
        # columns make up matvecs, and a sector solved against the bound of
        # the levels kept so far takes fewer applications than the first
        meta = exact_spectrum(identical_pair(beta_j), n_levels=6).metadata
        counts = meta["sectors"]["matvecs"]
        assert meta["sectors"]["dims"] == (7200,) * 4 and len(counts) == 4
        assert sum(counts) + 6 == meta["matvecs"]
        assert min(counts[1:]) < counts[0]

    def test_basis_grows_with_levels(self):
        spec = lanczos(two_qubit_operator(), 12)
        assert spec.metadata["basis"] == 25

    def test_over_budget_raises_before_any_matvec(self, monkeypatch):
        def forbidden(self, v):
            raise AssertionError("matvec ran before the budget check")

        monkeypatch.setattr(TensorOperator, "matvec", forbidden)
        for op, sectors in ((two_qubit_operator(), 2), (biased_operator(), 1)):
            need = lanczos_workspace(op, 4, sectors)
            monkeypatch.setattr(oscillator, "DEFAULT_MEMORY_BUDGET", need - 1)
            with pytest.raises(ResourceError, match="Lanczos solve would need"):
                lanczos(op, 4)

    def test_level_count_is_held_by_the_memory_budget(self, monkeypatch):
        # no cap on m above DENSE_DIM_LIMIT states: 33 levels of a 91x91
        # operator (ncv = 67) run to their values, and under a budget one
        # byte short of that solve's workspace the budget check raises
        # before any matvec
        d = 91
        potential = 1.0 + np.add.outer(np.arange(d), math.sqrt(2.0) * np.arange(d))
        op = diagonal_operator((d, d), potential)
        assert op.size > DENSE_DIM_LIMIT
        spec = lowest_eigs(op, 33)
        assert spec.metadata["solver"] == "lanczos" and spec.metadata["basis"] == 67
        np.testing.assert_allclose(spec.eigenvalues, np.sort(potential.ravel())[:33],
                                   rtol=1e-12, atol=0)
        need = lanczos_workspace(op, 33, 1)
        assert spec.metadata["workspace_bytes"] == need

        def forbidden(self, v):
            raise AssertionError("matvec ran before the budget check")

        monkeypatch.setattr(TensorOperator, "matvec", forbidden)
        monkeypatch.setattr(oscillator, "DEFAULT_MEMORY_BUDGET", need - 1)
        with pytest.raises(ResourceError, match="Lanczos solve would need"):
            lowest_eigs(op, 33)

    def test_level_at_zero_is_held_to_the_dense_gate(self):
        # the same 33 levels with the lowest exactly 0: 10 x 1e-9 |theta|
        # alone would ask level 0 for a residual below any rounding, so the
        # gate is never tighter than the dense one, leak + 64 eps ||H||_F
        d = 91
        potential = np.add.outer(np.arange(d), math.sqrt(2.0) * np.arange(d))
        op = diagonal_operator((d, d), potential)
        assert op.size > DENSE_DIM_LIMIT
        spec = lowest_eigs(op, 33)
        assert spec.metadata["solver"] == "lanczos"
        np.testing.assert_allclose(spec.eigenvalues, np.sort(potential.ravel())[:33],
                                   rtol=1e-12, atol=1e-12)
        resid = spec.metadata["residuals"]
        dense_gate = 64 * np.finfo(float).eps * np.linalg.norm(potential)
        assert 10 * 1e-9 * abs(spec.eigenvalues[0]) < resid[0] <= dense_gate
        assert np.all(resid <= np.maximum(10 * 1e-9 * np.abs(spec.eigenvalues), dense_gate))

    def test_budget_at_workspace_passes(self, monkeypatch):
        for op, sectors in ((two_qubit_operator(), 2), (biased_operator(), 1)):
            need = lanczos_workspace(op, 4, sectors)
            monkeypatch.setattr(oscillator, "DEFAULT_MEMORY_BUDGET", need)
            spec = lanczos(op, 4)
            assert len(spec.eigenvalues) == 4
            assert len(spec.metadata["sectors"]["labels"]) == sectors

    def test_no_convergence_is_numeric_error(self, monkeypatch):
        monkeypatch.setattr(oscillator, "_LANCZOS_MAXITER", 1)
        with pytest.raises(NumericError, match="did not converge in 1 restarts") as info:
            lanczos(two_qubit_operator(), 6)
        assert info.value.details["wanted"] == 6
        assert 0 <= info.value.details["converged"] < 6
        # one restart cycle builds the whole basis of 20
        assert info.value.details["matvecs"] == 20

    def test_large_true_residual_is_numeric_error(self, monkeypatch):
        real = oscillator._lanczos

        def off_by_1e6(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            return vals + 1e-6, vecs

        monkeypatch.setattr(oscillator, "_lanczos", off_by_1e6)
        with pytest.raises(NumericError) as info:
            lanczos(two_qubit_operator(), 3)
        assert len(info.value.details["residuals"]) == 3

    def test_arpack_error_is_numeric_error(self, monkeypatch):
        # a solver failure (here the operator's first product is not
        # finite) is a NumericError with its message and the matvecs made
        real = TensorOperator.matvec

        def broken(self, v):
            out = real(self, v)
            if out.ndim == 1:
                out[0] = np.nan
            return out

        monkeypatch.setattr(TensorOperator, "matvec", broken)
        with pytest.raises(NumericError, match="non-finite") as info:
            lanczos(two_qubit_operator(), 4)
        assert "nan" in info.value.details["message"]
        assert info.value.details["matvecs"] == 1

    @pytest.mark.parametrize("dims, m", [((14, 14, 8), 4), ((24, 24, 12), 16)])
    def test_memory_peak_within_budget_estimate(self, dims, m, monkeypatch):
        # the estimate the budget check uses covers the Lanczos workspace of
        # one sector, the levels kept from earlier sectors, the (n, m) output
        # and the residual check's one-column matvec, with 2, 1 and 4
        # sectors; and it stays within 2x the peak (measured 1.26-1.86x), so
        # it cannot drift loose
        for make in (two_qubit_operator, biased_operator, identical_operator):
            op = make(dims)
            # a first call, so that only the solve's own arrays are traced
            sectors = len(lanczos(op, m).metadata["sectors"]["labels"])
            need = lanczos_workspace(op, m, sectors)
            tracemalloc.start()
            try:
                lanczos(op, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < need < 2.0 * peak
            with monkeypatch.context() as patch:
                patch.setattr(oscillator, "DEFAULT_MEMORY_BUDGET", need - 1)
                with pytest.raises(ResourceError):
                    lanczos(op, m)

    def test_invariant_subspace_takes_a_new_vector(self, monkeypatch):
        # a diagonal operator with three distinct values: the Krylov space of
        # one start vector has dimension 3 and holds one copy of the lowest
        # value, so the triple ground level needs fresh start vectors
        values = np.random.default_rng(7).choice([1.0, 2.0, 3.0], size=(24, 30))
        op = diagonal_operator((24, 30), values)
        spec = lanczos(op, 3, want_vectors=True)
        assert spec.metadata["solver"] == "lanczos"
        assert spec.metadata["sectors"]["labels"] == ("all",)
        assert np.max(np.abs(spec.eigenvalues - 1.0)) <= 1e-12
        vecs = spec.eigenvectors
        assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) <= 1e-12
        assert np.all(np.abs(vecs[values.ravel() != 1.0]) <= 1e-9)
        # the zero operator leaves nothing after Gram-Schmidt at every step
        vals, vecs = oscillator._lanczos(lambda v: 0.0 * v, 50, 3, 20, 1e-9)
        assert np.array_equal(vals, np.zeros(3))
        assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) <= 1e-12

    def test_start_vectors_are_splitmix64(self):
        # counter c gives splitmix64's c-th output from seed 0, whose first
        # three are the published e220a8397b1dcdaf, 6e789e6aa1b965f4 and
        # 06c45d188009454f; its top 53 bits map to [-1, 1).  The reference is
        # Python's unbounded integers, masked to 64 bits
        mask = (1 << 64) - 1

        def splitmix64(c):
            z = c * 0x9E3779B97F4A7C15 & mask
            z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
            return z ^ z >> 31

        assert [splitmix64(c) for c in (1, 2, 3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        for start, n in ((1, 3), (oscillator._LANCZOS_SEED, 500), (2**63 - 7, 5)):
            want = [(splitmix64(c) >> 11) * 2.0**-52 - 1.0 for c in range(start, start + n)]
            assert np.array_equal(oscillator._uniform(start, n), want)

    def test_timings_split_matvecs_from_solver(self):
        meta = lanczos(two_qubit_operator(), 4).metadata
        assert 0.0 < meta["matvec_s"] <= meta["solve_s"]

    def test_concurrent_solves_bitwise_equal_serial(self, monkeypatch):
        ops = [two_qubit_operator(), two_qubit_operator((12, 12, 10))]
        # the Lanczos route for both, set once: the lanczos helper patches
        # the module per call, which threads would interleave
        monkeypatch.setattr(oscillator, "DENSE_DIM_LIMIT", min(op.size for op in ops) - 1)
        serial = [lowest_eigs(op, 4, want_vectors=True) for op in ops]
        start = threading.Barrier(len(ops))
        results = [None] * len(ops)

        def solve(i):
            start.wait(timeout=60)
            results[i] = lowest_eigs(ops[i], 4, want_vectors=True)

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(ops))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        for got, want in zip(results, serial):
            assert np.array_equal(got.eigenvalues, want.eigenvalues)
            assert np.array_equal(got.eigenvectors, want.eigenvectors)
            assert got.metadata["matvecs"] == want.metadata["matvecs"]
            assert got.metadata["solver"] == "lanczos"

    @pytest.mark.parametrize("m", [0, -1])
    @pytest.mark.parametrize("mode", ["auto", "dense", "iterative"])
    def test_nonpositive_level_count_rejected(self, mode, m):
        # whichever solver the size picks: the reference two-qubit operator,
        # a single mode (dense) and one over the dense limit (Lanczos)
        op = {"auto": two_qubit_operator,
              "dense": lambda: diagonal_operator((9,), np.arange(9.0)),
              "iterative": lambda: diagonal_operator((91, 91), np.zeros((91, 91)))}[mode]()
        with pytest.raises(ConfigurationError, match="m must be >= 1"):
            lowest_eigs(op, m)

    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_level_count_rejected_for_arrays(self, m):
        with pytest.raises(ConfigurationError):
            lowest_eigs(np.eye(3), m)

    def test_import_leaves_sparse_linalg_unloaded(self):
        # the Lanczos route is numpy only: the reference point's solves load
        # no scipy module
        assert loaded("scipy", REFERENCE_SOLVES) == []

    def test_solves_leave_numpy_random_unloaded(self):
        # the start vectors come from counters, not numpy.random: the same
        # reference-point solves load no numpy.random module
        assert loaded("numpy.random", REFERENCE_SOLVES) == []
        assert "numpy.linalg" in modules_after(REFERENCE_SOLVES)

    def test_three_qubit_exact_solve_holds_one_sector_at_a_time(self):
        # three qubits at (20, 20, 20, 10), m = 8: four sectors of 20,000
        # states.  The solve's traced peak, assembly included, stays within
        # one sector's basis of ncv + 1 vectors and its restart product of
        # ncv, the (n, m) output and a one-column matvec workspace
        dims, m = (20, 20, 20, 10), 8
        n, ncv = math.prod(dims), max(2 * m + 1, 20)
        system = make_system(qubits=[make_qubit()] * 3)
        tracemalloc.start()
        try:
            spec = exact_spectrum(system, dims, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.metadata["solver"] == "lanczos"
        assert spec.metadata["sectors"]["dims"] == (n // 4,) * 4
        assert peak <= 8 * (n // 4) * (2 * ncv + 1) + 8 * n * m + oscillator._MATVEC_BYTES * n


@functools.lru_cache(maxsize=None)
def modules_after(code):
    # the modules a fresh interpreter holds after importing the package and
    # running code, one interpreter per code string
    src = str(Path(coupler_lab.__file__).resolve().parents[1])
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import coupler_lab\n" + code
              + "\nprint(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", script, src],
                         capture_output=True, text=True, check=True)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


def loaded(package, code):
    # the modules of package that a fresh interpreter holds after code
    return [name for name in modules_after(code)
            if name == package or name.startswith(package + ".")]


def full_space_lanczos(op, m):
    # the full-space Lanczos solve lowest_eigs makes when nothing folds, made
    # directly: the vectors copied into the rows of one (m, n) buffer,
    # sign-fixed in place and checked one at a time; returns (eigenvalues,
    # true residuals, operator applications)
    n, ncv, applied = op.size, max(2 * m + 1, 20), []

    def apply(v):
        applied.append(1 if v.ndim == 1 else v.shape[1])
        return op.matvec(v)

    vals, vecs = oscillator._lanczos(apply, n, m, ncv, oscillator._LANCZOS_TOL)
    vecs = oscillator._fix_vector_signs(np.ascontiguousarray(vecs.T).T)
    resid = [np.linalg.norm(apply(v) - theta * v) for theta, v in zip(vals, vecs.T)]
    return vals, np.array(resid), sum(applied)


def full_space_eigsh(op, m):
    # ARPACK's full-space solve, an independent oracle for the folded solve
    n, ncv = op.size, max(2 * m + 1, 20)
    v0 = np.random.default_rng(oscillator._LANCZOS_SEED).standard_normal(n)
    vals = eigsh(LinearOperator((n, n), matvec=op.matvec, dtype=float), k=m, which="SA",
                 ncv=ncv, tol=1e-9, v0=v0, maxiter=1000, return_eigenvectors=False)
    return np.sort(vals)


class TestFoldedLanczos:
    """Lanczos runs once per reflection sector, on the folded product grid."""

    @pytest.mark.parametrize("make, labels", [
        (identical_operator, ("000", "100", "010", "110")),
        (two_qubit_operator, ("000", "100")),
        (biased_operator, ("all",)),
    ])
    def test_small_operators_match_dense(self, make, labels):
        op = make((12, 12, 8))
        spec = lanczos(op, 6, want_vectors=True)
        want = np.linalg.eigvalsh(op.to_dense())[:6]
        np.testing.assert_allclose(spec.eigenvalues, want, rtol=1e-12, atol=0)
        sectors = spec.metadata["sectors"]
        assert sectors["labels"] == labels
        assert sectors["dims"] == (op.size // len(labels),) * len(labels)
        assert set(sectors["levels"]) <= set(labels) and len(sectors["levels"]) == 6
        vecs = spec.eigenvectors
        assert np.max(np.abs(vecs.T @ vecs - np.eye(6))) <= 1e-12
        # each level's vector lies in its sector: reversing the grid along a
        # generator's modes multiplies it by the sector's character
        grid = vecs.T.reshape((6,) + op.dims)
        for i, label in enumerate(sectors["levels"]):
            for mask in ((0b010, 0b101) if len(labels) == 4 else (0b111,) if len(labels) == 2
                         else ()):
                flips = tuple(n for n in range(3) if mask >> n & 1)
                code = int(label[::-1], 2)
                sign = (-1) ** bin(mask & code).count("1")
                np.testing.assert_allclose(np.flip(grid[i], flips), sign * grid[i],
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta_j", [0.616, 1.05, 1.4])
    def test_acceptance_system_matches_full_space(self, beta_j):
        op = identical_operator((40, 40, 18), beta_j)
        spec = lanczos(op, 6)
        vals = full_space_eigsh(op, 6)
        np.testing.assert_allclose(spec.eigenvalues, vals, rtol=1e-12, atol=0)
        meta = spec.metadata
        assert meta["sectors"]["dims"] == (7200,) * 4
        assert meta["sector_leak"] < 1e-12
        limit = 10.0 * oscillator._LANCZOS_TOL * np.abs(spec.eigenvalues)
        assert np.all(meta["residuals"] <= limit)
        if beta_j == 1.4:
            # the tunnel doublet, about 1e-7 wide at these dims, is the
            # ground state of two sectors
            assert spec.eigenvalues[1] - spec.eigenvalues[0] < 1e-6
            assert meta["sectors"]["levels"][0] != meta["sectors"]["levels"][1]

    def test_residuals_use_the_full_operator(self, monkeypatch):
        op = identical_operator()
        applied = count_applications(monkeypatch)
        spec = lanczos(op, 4, want_vectors=True)
        assert applied[op.size] == 4
        vecs = spec.eigenvectors
        resid = np.linalg.norm(op.to_dense() @ vecs - vecs * spec.eigenvalues, axis=0)
        np.testing.assert_allclose(spec.metadata["residuals"], resid, rtol=1e-6, atol=1e-15)

    @pytest.mark.parametrize("make", [
        lambda: identical_operator((13, 12, 8)),  # odd pivot axis 0
        biased_operator,
    ])
    def test_unfoldable_operators_keep_the_full_space_solve(self, make):
        op = make()
        spec = lanczos(op, 4)
        vals, resid, applied = full_space_lanczos(op, 4)
        assert np.array_equal(spec.eigenvalues, vals)
        assert np.array_equal(spec.metadata["residuals"], resid)
        assert spec.metadata["matvecs"] == applied
        assert spec.metadata["basis"] == 20 and spec.metadata["dim"] == op.size
        assert spec.metadata["sectors"] == {"labels": ("all",), "dims": (op.size,),
                                            "levels": ("all",) * 4, "matvecs": (applied - 4,)}
        assert spec.metadata["sector_leak"] == 0.0

    def test_small_sectors_are_solved_dense(self):
        # 2 x 10 x 4 states fold to four sectors of 20, no more than the Lanczos
        # basis of 20: each gets one dense eigh, also above the limit
        op = identical_operator((2, 10, 4))
        spec = lanczos(op, 4)
        assert spec.metadata["solver"] == "dense"
        assert spec.metadata["sectors"]["dims"] == (20,) * 4
        np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(op.to_dense())[:4],
                                   rtol=1e-12, atol=0)
        assert np.all(spec.metadata["residuals"] <= 10.0 * oscillator._LANCZOS_TOL
                      * np.abs(spec.eigenvalues))

    def test_error_bounds_in_both_routes(self):
        # each level's residual norm bounds its distance to the exact
        # eigenvalue, up to the oracle's own rounding (64 eps ||H||_2).  The
        # dense and folded bounds sit at rounding level; the full-space
        # Lanczos ones (~1e-9) are the ones this can test
        for op in (identical_operator((12, 12, 8)), biased_operator((12, 12, 8))):
            every = np.linalg.eigvalsh(op.to_dense())
            want, slack = every[:6], 64 * np.finfo(float).eps * np.max(np.abs(every))
            for spec in (lowest_eigs(op, 6, want_vectors=True), lanczos(op, 6, want_vectors=True)):
                meta = spec.metadata
                norms = np.linalg.norm(spec.eigenvectors, axis=0)
                np.testing.assert_allclose(meta["error_bounds"], meta["residuals"] / norms,
                                           rtol=1e-15)
                assert np.all(np.abs(spec.eigenvalues - want) <= meta["error_bounds"] + slack)

    def test_two_calls_are_bitwise_equal(self):
        op = identical_operator()
        a = lanczos(op, 6, want_vectors=True)
        b = lanczos(op, 6, want_vectors=True)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert np.array_equal(a.metadata["residuals"], b.metadata["residuals"])
        assert a.metadata["sectors"] == b.metadata["sectors"]

    def test_folded_sector_dense_build_is_its_matvec(self):
        # each folded sector's dense matrix, reflected terms included, is its
        # matvec's image of the identity, bit for bit, and exactly symmetric
        three_qubits = normal_modes(make_system(qubits=[make_qubit()] * 3), dims=(6, 6, 6, 4))
        ops = [
            # only the joint reflection: a reflected term on the pivot axis
            TensorOperator([[[1.0, 0.5], [0.5, 1.0]], [[2.0, 0.3], [0.3, 2.0]]],
                           [[1.0, 2.0], [2.0, 1.0]]),
            identical_operator(),
            identical_operator((12, 12, 9)),  # the joint reflection flips an odd axis
            assemble_tensor_operator(three_qubits),
        ]
        for op, n_sectors in zip(ops, (2, 4, 4, 4)):
            group, _, sectors = oscillator._folded_sectors(op, oscillator._symmetries(op)[0])
            assert len(sectors) == len(group) == n_sectors
            for _, sub, _ in sectors:
                dense = sub.to_dense()
                assert sub.size == op.size // len(group)
                assert np.array_equal(dense, sub.matvec(np.eye(sub.size)))
                assert np.array_equal(dense, dense.T)


    @pytest.mark.parametrize("dims, solver", [((4, 4, 4), "dense"), ((6, 6, 6), "lanczos")])
    def test_three_generator_fold_row_reduces(self, dims, solver):
        # x0 x1 x2 is odd under one reflection and even under two, so the group
        # is {0, 011, 101, 110}; its second generator 101 holds the first's
        # pivot, mode 0, and is reduced to 110, whose pivot is mode 1
        kinetic = [oscillator._kinetic(w, d) for w, d in zip((0.7, 1.0, 1.3), dims)]
        x0, x1, x2 = np.meshgrid(*(oscillator._grid(d)[0] for d in dims), indexing="ij")
        op = TensorOperator(kinetic, 0.3 * x0 * x1 * x2 + 0.1 * (x0**2 + x1**4 + x2**2 / 2))
        group = oscillator._symmetries(op)[0]
        assert group == [0, 3, 5, 6]
        _, pivots, sectors = oscillator._folded_sectors(op, group)
        assert pivots == (0, 1)
        assert [label for label, _, _ in sectors] == ["000", "100", "010", "110"]
        spec = lowest_eigs(op, 6)
        assert spec.metadata["solver"] == solver
        assert spec.metadata["sectors"]["dims"] == (op.size // 4,) * 4
        want = np.linalg.eigvalsh(op.to_dense())[:6]
        np.testing.assert_allclose(spec.eigenvalues, want, rtol=0, atol=1e-12)


def old_dense_lowest(h, m):
    # the single full eigh every dense solve ran before the sector split
    vals, vecs = np.linalg.eigh(h)
    vals = vals[:m]
    vecs = oscillator._fix_vector_signs(vecs[:, :m])
    return vals, vecs, np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0)


def one_eigh(op, m):
    # the one eigh of the whole dense matrix that a one-sector dense solve
    # makes, its lowest m vectors sign-fixed as the solve returns them, and
    # their residuals as the solve measures them: H applied by matvec to one
    # vector at a time
    vals, vecs = np.linalg.eigh(op.to_dense())
    vals, vecs = vals[:m], oscillator._fix_vector_signs(np.ascontiguousarray(vecs[:, :m]))
    resid = [np.linalg.norm(op.matvec(v) - theta * v) for theta, v in zip(vals, vecs.T)]
    return vals, vecs, np.array(resid)


def captured_operator(monkeypatch, theory, system, **kwargs):
    import coupler_lab.bench as bench

    captured = []
    real = bench.lowest_eigs

    def spy(op, *args, **kw):
        captured.append(op)
        return real(op, *args, **kw)

    monkeypatch.setattr(bench, "lowest_eigs", spy)
    if theory == "exact":
        spec = bench.exact_spectrum(system, **kwargs)
    else:
        spec = bench.bo_spectrum(theory, system, **kwargs)
    monkeypatch.setattr(bench, "lowest_eigs", real)
    return spec, captured[0]


def identical_pair(beta_j=1.05, beta_c=0.75, phi_cx=0.0):
    q = QubitParams(beta_j=beta_j, zeta_j=0.05, alpha_j=0.05)
    return CouplerSystem(beta_c=beta_c, zeta_c=0.05, qubits=(q, q), e_ltc=3.0, phi_cx=phi_cx)


STRONG_PHI_CX = 0.03 * 2.0 * math.pi


def exchanged(vecs, dims):
    # the columns with the grid's two qubit axes swapped
    return vecs.reshape(dims + (-1,)).swapaxes(0, 1).reshape(vecs.shape)


def exchange_signs(levels):
    # the exchange parity each level's label ends in
    return np.array([1.0 if level[-1] == "+" else -1.0 for level in levels])


class TestSectorSolve:
    """Solves split into the reflection sectors of the operator, labelled
    with each level's measured exchange parity."""

    @pytest.mark.parametrize("beta_j", [0.616, 1.05, 1.262, 1.4])
    @pytest.mark.parametrize("theory", ["NA", "LA", "LN"])
    def test_reference_point_matches_full_eigh(self, monkeypatch, theory, beta_j):
        spec, op = captured_operator(monkeypatch, theory, identical_pair(beta_j), n_levels=6)
        want = old_dense_lowest(op.to_dense(), 6)[0]
        np.testing.assert_allclose(spec.eigenvalues, want, rtol=1e-12, atol=0)
        sectors = spec.metadata["sectors"]
        # the joint flux reflection folds two sectors of 800; the exchange
        # parity is measured on each level
        assert sectors["labels"] == ("00", "10")
        assert sectors["dims"] == (800, 800)
        assert set(sectors["levels"]) <= {"00+", "00-", "10+", "10-"}
        assert len(sectors["levels"]) == 6
        assert spec.metadata["sector_leak"] < 1e-12

    @pytest.mark.parametrize("theory", ["NA", "LA", "LN"])
    def test_strong_coupler_keeps_exchange_only(self, monkeypatch, theory):
        system = identical_pair(1.05, beta_c=0.95, phi_cx=STRONG_PHI_CX)
        spec, op = captured_operator(monkeypatch, theory, system, n_levels=6, nu_max=400)
        h = op.to_dense()
        want = np.linalg.eigvalsh(h)[:6]
        # no reflection survives the bias: one sector of 1600 states, solved by Lanczos
        vectors = lowest_eigs(op, 6, want_vectors=True)
        for got in (spec, vectors):
            np.testing.assert_allclose(got.eigenvalues, want, rtol=1e-12, atol=0)
            sectors = got.metadata["sectors"]
            assert sectors["labels"] == ("all",) and sectors["dims"] == (1600,)
            assert set(sectors["levels"]) <= {"+", "-"}
            assert got.metadata["solver"] == "lanczos"
        assert spec.metadata["sectors"]["levels"] == vectors.metadata["sectors"]["levels"]
        assert spec.metadata["sectors"]["levels"] == symmetry_levels(h, 40, False, 6)[1]
        # each level's vector has the exchange parity its label gives
        vecs = vectors.eigenvectors
        np.testing.assert_allclose(np.sum(vecs * exchanged(vecs, op.dims), axis=0),
                                   exchange_signs(vectors.metadata["sectors"]["levels"]),
                                   atol=1e-12)

    def test_exact_small_dims_match_full_eigh(self, monkeypatch):
        spec, op = captured_operator(monkeypatch, "exact", identical_pair(1.05),
                                     dims=(12, 12, 6), n_levels=6)
        want = old_dense_lowest(op.to_dense(), 6)[0]
        np.testing.assert_allclose(spec.eigenvalues, want, rtol=1e-12, atol=0)
        # reflection (-1)^(k0+k1+k2) times exchange (-1)^k1 in the normal modes
        assert len(spec.metadata["sectors"]["labels"]) == 4

    def test_vectors_lift_back_to_the_full_basis(self, monkeypatch):
        spec, op = captured_operator(monkeypatch, "NA", identical_pair(1.05),
                                     dims=(16, 16), n_levels=6, nu_max=40)
        full = lowest_eigs(op, 6, want_vectors=True)
        vecs = full.eigenvectors
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(6), atol=1e-13)
        h = op.to_dense()
        assert np.max(np.linalg.norm(h @ vecs - vecs * full.eigenvalues, axis=0)) < 1e-12

    @pytest.mark.parametrize("theory", ["NA", "LA"])
    def test_non_identical_qubits_are_bitwise_one_eigh(self, monkeypatch, theory):
        # biased unequal qubits have no symmetry: one sector, the full space.
        # At 4x4 it holds no more states than the Lanczos basis, so it is one
        # eigh of the whole matrix, bit for bit; at 20x20 it is one Lanczos solve
        qs = (QubitParams(beta_j=1.05, zeta_j=0.05, alpha_j=0.05),
              QubitParams(beta_j=0.95, zeta_j=0.05, alpha_j=0.05))
        system = CouplerSystem(beta_c=0.75, zeta_c=0.05, qubits=qs, e_ltc=3.0,
                               phi_cx=STRONG_PHI_CX)
        for dims in ((4, 4), (20, 20)):
            _, op = captured_operator(monkeypatch, theory, system, dims=dims, n_levels=6,
                                      nu_max=60)
            spec = lowest_eigs(op, 6, want_vectors=True)
            assert spec.metadata["sectors"]["labels"] == ("all",)
            assert spec.metadata["sector_leak"] == 0.0
            if op.size <= 20:
                vals, vecs, resid = one_eigh(op, 6)
                assert spec.metadata["solver"] == "dense"
                assert np.array_equal(spec.eigenvalues, vals)
                assert np.array_equal(spec.eigenvectors, vecs)
                assert np.array_equal(spec.metadata["residuals"], resid)
            else:
                assert spec.metadata["solver"] == "lanczos"
                np.testing.assert_allclose(spec.eigenvalues,
                                           np.linalg.eigvalsh(op.to_dense())[:6],
                                           rtol=1e-12, atol=0)

    def test_single_mode_and_arrays_are_bitwise_one_eigh(self):
        # a one-mode grid operator stays one eigh of the whole matrix at any
        # size, also above the Lanczos basis of 20 states (its dense matrix is
        # reflection-symmetric at zero bias, and one axis does not fold); a
        # junction mode's levels and vectors are those of one eigh of its
        # matrix K + diag(V), signs fixed, with residuals within the dense gate
        op = assemble_tensor_operator(normal_modes(make_system(), dims=(16,)))
        want = one_eigh(op, 4)
        got = lowest_eigs(op, 4, want_vectors=True)
        assert got.metadata["sectors"] == {"labels": ("all",), "dims": (16,),
                                           "levels": ("all",) * 4}
        assert np.array_equal(got.eigenvalues, want[0])
        assert np.array_equal(got.eigenvectors, want[1])
        assert np.array_equal(got.metadata["residuals"], want[2])

        kinetic, potential, flux = oscillator._junction_mode(0.05, 1.05, 0.0, 60)
        single = TensorOperator([kinetic], potential)
        h = junction_matrix(0.05, 1.05, 0.0, 60)
        assert np.array_equal(flux, math.sqrt(0.05) * oscillator._grid(60)[0])
        for m in (2, 4, 6):
            got = lowest_eigs(single, m, want_vectors=True)
            want = one_eigh(single, m)
            assert got.metadata["solver"] == "dense"
            assert np.array_equal(want[0], np.linalg.eigh(h)[0][:m])
            assert np.array_equal(got.eigenvalues, want[0])
            assert np.array_equal(got.eigenvectors, want[1])
            assert np.array_equal(got.metadata["residuals"], want[2])
            assert np.all(want[2] <= 64 * np.finfo(float).eps * np.linalg.norm(h))

    def test_sectors_within_the_basis_are_one_eigh_each(self, monkeypatch):
        # unequal qubits at zero bias on a 4x4 grid: the joint reflection folds
        # two sectors of 8 states, no more than the Lanczos basis of 20, and no
        # swap.  Each sector is one np.linalg.eigh of its matrix, and the
        # levels are the lowest of theirs, bit for bit
        qs = (QubitParams(beta_j=1.05, zeta_j=0.05, alpha_j=0.05),
              QubitParams(beta_j=0.95, zeta_j=0.05, alpha_j=0.05))
        system = CouplerSystem(beta_c=0.75, zeta_c=0.05, qubits=qs, e_ltc=3.0)
        _, op = captured_operator(monkeypatch, "NA", system, dims=(4, 4), n_levels=6,
                                  nu_max=40)
        _, _, sectors = oscillator._folded_sectors(op, oscillator._symmetries(op)[0])
        levels = sorted(value for _, sub, _ in sectors
                        for value in np.linalg.eigh(sub.to_dense())[0][:6])[:6]
        shapes = []
        real = np.linalg.eigh

        def spy(a):
            shapes.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        spec = lowest_eigs(op, 6)
        monkeypatch.undo()
        assert shapes == [(8, 8), (8, 8)]
        assert spec.metadata["solver"] == "dense"
        assert spec.metadata["sectors"]["dims"] == (8, 8)
        assert np.array_equal(spec.eigenvalues, levels)

    def test_forty_levels_go_to_lanczos(self, monkeypatch):
        # m = 40 on the zero-bias 40x40 NA operator: two sectors of 800 states,
        # above the Lanczos basis of 81, so Lanczos, at any m
        _, op = captured_operator(monkeypatch, "NA", identical_pair(1.05), n_levels=6,
                                  nu_max=40)
        spec = lowest_eigs(op, 40, want_vectors=True)
        assert spec.metadata["solver"] == "lanczos"
        assert spec.metadata["basis"] == 81
        assert spec.metadata["sectors"]["dims"] == (800, 800)
        np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(op.to_dense())[:40],
                                   rtol=1e-12, atol=0)
        vecs = spec.eigenvectors
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(40), atol=1e-12)

    def test_cli_single_mode_solves_stay_one_sector(self, monkeypatch):
        # the eg and derivs commands (n_basis 50) make one eigh of the whole
        # junction matrix per scalar call, as each qubit subspace does, never
        # a parity split and never an eigvalsh
        for dim in (50, 60):
            oscillator._grid(dim)  # cached nodes, so only the solves call eigh
        shapes = {"eigh": [], "eigvalsh": []}

        def spy(name):
            real = getattr(np.linalg, name)

            def solve(a):
                shapes[name].append(a.shape)
                return real(a)
            return solve

        monkeypatch.setattr(np.linalg, "eigh", spy("eigh"))
        monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh"))
        params = CouplerParams(beta_c=0.75, zeta_c=0.05)
        levels = eg_exact(params, 0.0, n_basis=50, n_levels=3)
        eg_derivs_numeric(params, 0.0, n_basis=50)
        sub = qubit_subspace(QubitParams(beta_j=1.05, zeta_j=0.05), n_basis=60)
        monkeypatch.undo()
        assert shapes == {"eigh": [(50, 50), (50, 50), (60, 60)], "eigvalsh": []}
        assert np.array_equal(levels, np.linalg.eigh(junction_matrix(0.05, 0.75, 0.0, 50))[0][:3])
        assert np.array_equal(sub.energies,
                              np.linalg.eigh(junction_matrix(0.05, 1.05, 0.0, 60))[0][:4])

    def test_false_symmetry_trips_residual_gate(self, monkeypatch):
        # with every block under the zero tolerance the split is wrong;
        # reporting its leak honestly passes, hiding it fails the gate
        _, op = captured_operator(monkeypatch, "NA", identical_pair(1.05, phi_cx=STRONG_PHI_CX),
                                  dims=(16, 16), n_levels=4, nu_max=40)
        monkeypatch.setattr(oscillator, "_SECTOR_TOL", 1.0 / np.finfo(float).eps)
        honest = lowest_eigs(op, 4)
        assert len(honest.metadata["sectors"]["labels"]) > 2
        assert honest.metadata["sector_leak"] > 1e-3
        monkeypatch.setattr(oscillator, "_sector_leak", lambda op, group: 0.0)
        with pytest.raises(NumericError) as info:
            lowest_eigs(op, 4)
        assert info.value.details["sector_leak"] == 0.0
        assert max(info.value.details["residuals"]) > info.value.details["bound"]

    def test_wrong_eigenpairs_trip_residual_gate(self, monkeypatch):
        # every single-mode solve checks what its eigensolver hands back, as
        # the dense grid-operator solve (a sector of at most the Lanczos basis)
        # checks its eigh's: levels 1e-6 off their vectors fail the residual
        # gate on every coupler route, scalar or grid
        params = CouplerParams(beta_c=0.75, zeta_c=0.05)
        qubit = QubitParams(beta_j=1.05, zeta_j=0.05)
        op = assemble_tensor_operator(normal_modes(make_system(), dims=(16,)))
        grid = np.linspace(0.0, 1.0, 4)
        for dim in (16, 30, 40):
            oscillator._grid(dim)  # cached before eigh is broken
        solves = {
            "eg_exact": lambda: eg_exact(params, 0.0, n_basis=30, n_levels=3),
            "eg_exact grid": lambda: eg_exact(params, grid, n_basis=30, n_levels=1),
            "eg_derivs_numeric": lambda: eg_derivs_numeric(params, 0.0, n_basis=30),
            "eg_derivs_numeric grid": lambda: eg_derivs_numeric(params, grid, n_basis=30),
            "bodc_metrics": lambda: bodc_metrics(params, 0.0, n_basis=30),
            "qubit_subspace": lambda: qubit_subspace(qubit, n_basis=40),
            "lowest_eigs": lambda: lowest_eigs(op, 3),
        }
        def off_by_1e6(real):
            def solve(a, **kwargs):
                vals, vecs = real(a, **kwargs)
                return vals + 1e-6, vecs
            return solve

        monkeypatch.setattr(np.linalg, "eigh", off_by_1e6(np.linalg.eigh))
        for name, solve in solves.items():
            with pytest.raises(NumericError) as info:
                solve()
            assert min(info.value.details["residuals"]) > info.value.details["bound"], name

    def test_labels_are_least_parity_codes(self):
        # exact circuit, normal modes: reflections {1} (exchange) and
        # {0, 1, 2} (flux reflection); at nonzero bias only {1} survives
        spec = exact_spectrum(identical_pair(1.05), dims=(12, 12, 6), n_levels=6)
        assert spec.metadata["sectors"]["labels"] == ("000", "100", "010", "110")
        assert spec.metadata["sectors"]["dims"] == (216,) * 4
        spec = exact_spectrum(identical_pair(1.05, phi_cx=0.0485 * 2.0 * math.pi),
                              dims=(12, 12, 6), n_levels=6)
        assert spec.metadata["sectors"]["labels"] == ("000", "010")
        # reduced problem: joint reflection and swap, both exact on the grid,
        # with the swap-fixed diagonal and reflection-swap-fixed antidiagonal
        spec = bo_spectrum("LA", identical_pair(1.05), n_levels=6)
        assert spec.metadata["sectors"]["labels"] == ("00", "10")
        assert spec.metadata["sectors"]["dims"] == (800, 800)
        assert spec.metadata["sector_leak"] == 0.0

    def test_sweep_records_keep_sectors(self):
        spec = SweepSpec(axis="phi_cx", range=(0.0, STRONG_PHI_CX, 2),
                         system=identical_pair(1.05), theories=("LA",), n_levels=3,
                         bo_dims=(12, 12))
        first, second = sweep(spec).points
        assert first["meta"]["LA"]["sectors"]["labels"] == ("00", "10")
        assert second["meta"]["LA"]["sectors"]["labels"] == ("all",)
        assert set(first["meta"]["LA"]["sectors"]["levels"]) <= {"00+", "00-", "10+", "10-"}
        assert set(second["meta"]["LA"]["sectors"]["levels"]) <= {"+", "-"}
        assert "sector_leak" not in first["meta"]["LA"]


    def test_sweep_records_keep_exact_sectors(self):
        # exact points above the dense limit report their reflection sectors
        spec = SweepSpec(axis="phi_cx", range=(0.0, STRONG_PHI_CX, 2),
                         system=identical_pair(1.05), theories=("exact",), n_levels=3,
                         dims=(24, 24, 16))
        first, second = sweep(spec).points
        assert first["meta"]["exact"]["solver"] == "lanczos"
        assert first["meta"]["exact"]["sectors"]["labels"] == ("000", "100", "010", "110")
        assert second["meta"]["exact"]["sectors"]["labels"] == ("000", "010")
        assert second["meta"]["exact"]["sectors"]["dims"] == (4608, 4608)


class TestPartialSectorSolve:
    """Each sector's solve for its lowest levels gives those of a full eigh.

    The oracle is np.linalg.eigvalsh of the whole dense matrix; every
    returned pair must also pass the residual gate, sector_leak + 64 eps
    ||H||_F, recomputed here from the returned vectors.
    """

    @staticmethod
    def operator(monkeypatch, case):
        if case == "three_qubits":
            system = make_system(qubits=[make_qubit()] * 3)
            return assemble_tensor_operator(normal_modes(system, dims=(10, 10, 10, 6)))
        if case == "na_beta_j_1.4":
            return captured_operator(monkeypatch, "NA", identical_pair(1.4), n_levels=6)[1]
        if case == "strong_coupler":
            system = identical_pair(1.05, beta_c=0.95, phi_cx=STRONG_PHI_CX)
            return captured_operator(monkeypatch, "NA", system, n_levels=6, nu_max=400)[1]
        # two pairs of levels 1.7e-3 and 3.2e-3 apart within the one sector
        qs = (QubitParams(beta_j=1.05, zeta_j=0.05, alpha_j=0.05),
              QubitParams(beta_j=1.08, zeta_j=0.05, alpha_j=0.05))
        system = CouplerSystem(beta_c=0.75, zeta_c=0.05, qubits=qs, e_ltc=3.0,
                               phi_cx=STRONG_PHI_CX)
        return captured_operator(monkeypatch, "NA", system, n_levels=6, nu_max=100)[1]

    @staticmethod
    def check(spec, h, want):
        m = len(spec.eigenvalues)
        np.testing.assert_allclose(spec.eigenvalues, want[:m], rtol=1e-12, atol=0)
        vecs = spec.eigenvectors
        resid = np.linalg.norm(h @ vecs - vecs * spec.eigenvalues, axis=0)
        bound = spec.metadata["sector_leak"] + 64 * np.finfo(float).eps * np.linalg.norm(h)
        assert np.all(resid <= bound)
        assert len(spec.metadata["sectors"]["levels"]) == m

    @pytest.mark.parametrize("case, sector_dims, levels", [
        pytest.param("na_beta_j_1.4", (800, 800), (6, 1), id="na_beta_j_1.4"),
        pytest.param("strong_coupler", (1600,), (6, 1), id="strong_coupler"),
        pytest.param("non_identical_gap", (1600,), (6, 1), id="non_identical_gap"),
        pytest.param("three_qubits", (1500,) * 4, (6,), id="three_qubits"),
    ])
    def test_acceptance_points_match_full_eigh(self, monkeypatch, case, sector_dims, levels):
        op = self.operator(monkeypatch, case)
        # solved before the test builds its own dense copy: at 6000 states
        # each copy is 288 MB; every point has sectors above the Lanczos
        # basis, so lowest_eigs solves it by Lanczos
        specs = [lowest_eigs(op, m, want_vectors=True) for m in levels]
        h = op.to_dense()
        want = np.linalg.eigvalsh(h)
        for spec in specs:
            self.check(spec, h, want)
            assert spec.metadata["sectors"]["dims"] == sector_dims
        assert {spec.metadata["solver"] for spec in specs} == {"lanczos"}
        if case == "non_identical_gap":
            assert np.min(np.diff(want[:6])) < 2e-3

    def test_sectors_smaller_than_m(self, monkeypatch):
        # a 4x4 grid folds into two sectors of 8 states, so each is solved
        # whole (k = its size) and the merge picks the lowest 10 of 16
        _, op = captured_operator(monkeypatch, "NA", identical_pair(1.05), dims=(4, 4),
                                  n_levels=6, nu_max=40)
        spec = lowest_eigs(op, 10, want_vectors=True)
        h = op.to_dense()
        self.check(spec, h, np.linalg.eigvalsh(h))
        assert spec.metadata["sectors"]["dims"] == (8, 8)

    def test_odd_grid_is_one_sector_with_exchange_labels(self, monkeypatch):
        # a 3x3 grid's reflection has an odd pivot axis, so nothing folds: one
        # sector of 9 states whose levels carry only their exchange parity
        _, op = captured_operator(monkeypatch, "NA", identical_pair(1.05), dims=(3, 3),
                                  n_levels=6, nu_max=40)
        assert oscillator._symmetries(op)[:2] == ([0, 3], (0, 1))
        spec = lowest_eigs(op, 6, want_vectors=True)
        h = op.to_dense()
        self.check(spec, h, np.linalg.eigvalsh(h))
        sectors = spec.metadata["sectors"]
        assert (sectors["labels"], sectors["dims"]) == (("all",), (9,))
        assert set(sectors["levels"]) <= {"+", "-"}
        vecs = spec.eigenvectors
        np.testing.assert_allclose(np.sum(vecs * exchanged(vecs, op.dims), axis=0),
                                   exchange_signs(sectors["levels"]), atol=1e-12)


class TestSectorBuild:
    """Dense sector matrices, built by to_dense from the folded operators.

    lowest_eigs builds one only for a sector of at most the Lanczos basis
    of max(2m + 1, 20) states; every larger sector is solved matrix-free.
    """

    def test_solve_never_builds_the_dense_matrix(self, monkeypatch):
        # two-qubit NA 40x40 (two sectors of 800), three-qubit NA 10x10x10 (two
        # of 500) and exact 12x12x6 (four of 216) are solved without any
        # to_dense; NA 4x4 (two sectors of 8) builds its two sector matrices
        q = QubitParams(beta_j=1.05, zeta_j=0.05, alpha_j=0.05)
        three = CouplerSystem(beta_c=0.75, zeta_c=0.05, qubits=(q,) * 3, e_ltc=3.0)
        ops = [captured_operator(monkeypatch, "NA", identical_pair(1.05), dims=(40, 40),
                                 n_levels=6, nu_max=40)[1],
               captured_operator(monkeypatch, "NA", three, dims=(10, 10, 10), n_levels=6,
                                 nu_max=40)[1],
               captured_operator(monkeypatch, "exact", identical_pair(1.05), dims=(12, 12, 6),
                                 n_levels=6)[1],
               captured_operator(monkeypatch, "NA", identical_pair(1.05), dims=(4, 4),
                                 n_levels=6, nu_max=40)[1]]
        built = []
        real = TensorOperator.to_dense

        def refuse_above_basis(self):
            if self.size > 20:
                raise AssertionError(f"lowest_eigs built a {self.size}-state matrix")
            built.append(self.size)
            return real(self)

        monkeypatch.setattr(TensorOperator, "to_dense", refuse_above_basis)
        for op in ops:
            spec = lowest_eigs(op, 6, want_vectors=True)
            assert len(spec.eigenvalues) == 6
        assert built == [8, 8]


def symmetry_levels(h, d, reflection, m):
    # the lowest m eigenvalues of a two-qubit dense matrix h on a (d, d) grid,
    # with the label lowest_eigs gives each, from eigvalsh of h's blocks under
    # the exchange S and, with reflection, the joint reflection P of both
    # axes: "00" or "10" for P = +1 or -1, then "+" or "-" for S.  A block's
    # basis is one orbit sum sum_g chi(g) e_g(k) per orbit of grid points
    n = d * d
    swap = np.arange(n).reshape(d, d).T.ravel()
    flip = np.arange(n)[::-1]  # reversing both axes reverses the flat index
    perms = [np.arange(n), swap] + ([flip, flip[swap]] if reflection else [])
    found = []
    for r in ((1, -1) if reflection else (1,)):
        for s in (1, -1):
            chi = [1, s, r, r * s][:len(perms)]
            basis = []
            for k in range(n):
                orbit = [int(perm[k]) for perm in perms]
                v = np.zeros(n)
                np.add.at(v, orbit, chi)
                if k == min(orbit) and np.any(v):
                    basis.append(v / np.linalg.norm(v))
            q = np.array(basis).T
            label = ("00" if r > 0 else "10") if reflection else ""
            found += [(value, label + ("+" if s > 0 else "-"))
                      for value in np.linalg.eigvalsh(q.T @ h @ q)[:m]]
    found = sorted(found)[:m]
    return np.array([value for value, _ in found]), tuple(label for _, label in found)


def reflection_levels(h, dims, masks, m):
    # the lowest m eigenvalues of a dense matrix h on a dims grid with no
    # swap, with the label lowest_eigs gives each, from eigvalsh of h's blocks
    # under the reflection group the masks generate: a block's basis is one
    # orbit sum sum_g chi(g) e_g(k) per orbit of grid points, and its label
    # the least Fock-parity code carrying its character chi
    n_modes, n = len(dims), h.shape[0]
    group = [0]
    for mask in masks:
        group += [g ^ mask for g in group]
    index = np.arange(n).reshape(dims)
    perms = [np.flip(index, [i for i in range(n_modes) if g >> i & 1]).ravel() for g in group]
    found, seen = [], []
    for code in range(1 << n_modes):
        chi = [(-1) ** bin(g & code).count("1") for g in group]
        if chi in seen:
            continue
        seen.append(chi)
        basis = []
        for k in range(n):
            orbit = [int(perm[k]) for perm in perms]
            v = np.zeros(n)
            np.add.at(v, orbit, chi)
            if k == min(orbit) and np.any(v):
                basis.append(v / np.linalg.norm(v))
        q = np.array(basis).T
        label = "".join(str(code >> i & 1) for i in range(n_modes))
        found += [(value, label) for value in np.linalg.eigvalsh(q.T @ h @ q)[:m]]
    found = sorted(found)[:m]
    return np.array([value for value, _ in found]), tuple(label for _, label in found)


def sector_stops(monkeypatch):
    # each Lanczos sector solve's bound and the number of pairs it returned
    stops = []
    real = oscillator._lanczos

    def spy(apply, n, m, ncv, tol, bound=math.inf):
        vals, vecs = real(apply, n, m, ncv, tol, bound)
        stops.append((bound, len(vals)))
        return vals, vecs

    monkeypatch.setattr(oscillator, "_lanczos", spy)
    return stops


class TestSectorStop:
    """After the first sector, a Lanczos sector stops once its Ritz values
    below the m-th level kept so far, and the first one at or above it, have
    converged.  The oracle is eigvalsh of the dense reflection blocks: the
    levels and labels symmetry_levels (two identical qubits) or
    reflection_levels (the exact circuit) give, and from every level of each
    block, the bound each sector must get and the pairs it must return.
    """

    @staticmethod
    def check(spec, stops, every, labels, sectors, m):
        # every, labels: all levels of the blocks and their labels
        assert np.max(np.abs(spec.eigenvalues - every[:m])) <= 1e-13
        assert spec.metadata["sectors"]["levels"] == labels[:m]
        assert len(stops) == len(sectors)
        kept = []
        for (bound, returned), sector in zip(stops, sectors):
            values = [v for v, label in zip(every, labels) if label.startswith(sector)][:m]
            if kept:
                assert abs(bound - kept[m - 1]) <= 1e-13
            else:
                assert bound == math.inf
            below = sum(v < bound for v in values)
            assert returned == min(m, below + 1)
            kept = sorted(kept + values[:returned])
        return [returned for _, returned in stops]

    def na_solve(self, monkeypatch, beta_j, m):
        _, op = captured_operator(monkeypatch, "NA", identical_pair(beta_j), n_levels=6)
        stops = sector_stops(monkeypatch)
        spec = lowest_eigs(op, m)
        every, labels = symmetry_levels(op.to_dense(), op.dims[0], True, op.size)
        return spec, self.check(spec, stops, every, labels, ("00", "10"), m)

    def test_levels_interleave_across_sectors(self, monkeypatch):
        # the twelve lowest NA levels at beta_j = 1.262 alternate between the
        # two sectors, and the second sector stops one pair short of m
        spec, returned = self.na_solve(monkeypatch, 1.262, 12)
        order = [label[:2] for label in spec.metadata["sectors"]["levels"]]
        assert order != sorted(order)
        assert returned == [12, 11]

    def test_tunnel_doublet_lands_in_two_sectors(self, monkeypatch):
        # at beta_j = 1.4 the ground doublet, about 2e-10 wide, has one
        # member in each sector
        spec, _ = self.na_solve(monkeypatch, 1.4, 6)
        levels = spec.metadata["sectors"]["levels"]
        assert spec.eigenvalues[1] - spec.eigenvalues[0] < 1e-9
        assert levels[0][:2] != levels[1][:2]

    def test_bound_that_never_binds_converges_every_pair(self, monkeypatch):
        # at beta_j = 0.616 the second sector holds five of its six lowest
        # levels below the bound, so both sectors converge all m pairs
        _, returned = self.na_solve(monkeypatch, 0.616, 6)
        assert returned == [6, 6]

    def test_sector_above_the_bound_converges_one_pair(self, monkeypatch):
        # the exact circuit's four sectors at m = 3: the last sector's lowest
        # level lies above the third kept so far, so it converges one pair
        op = identical_operator((12, 12, 8), 1.05)
        stops = sector_stops(monkeypatch)
        spec = lowest_eigs(op, 3)
        every, labels = reflection_levels(op.to_dense(), op.dims, (0b010, 0b101), op.size)
        sectors = spec.metadata["sectors"]["labels"]
        assert sectors == ("000", "100", "010", "110")
        assert self.check(spec, stops, every, labels, sectors, 3) == [3, 2, 2, 1]
        lowest = min(v for v, label in zip(every, labels) if label == "110")
        assert lowest > stops[3][0]

    def test_ritz_vectors_stay_orthonormal_on_a_reference_sector(self):
        # one Gram-Schmidt pass after the local step keeps the basis
        # orthogonal: the Ritz vectors of a 7,200-state sector, without and
        # with a bound, are orthonormal to 1e-12
        op = identical_operator((40, 40, 18), 1.05)
        _, _, sectors = oscillator._folded_sectors(op, oscillator._symmetries(op)[0])
        bound = math.inf
        for _, sub, _ in sectors[:2]:
            assert sub.size == 7200
            vals, vecs = oscillator._lanczos(sub.matvec, sub.size, 6, 20,
                                             oscillator._DENSE_RANGE_TOL, bound)
            assert np.max(np.abs(vecs.T @ vecs - np.eye(len(vals)))) <= 1e-12
            bound = vals[-1]


class TestSectorRoute:
    """Sectors above the Lanczos basis go to Lanczos.

    The oracle is eigvalsh of the dense matrix's exchange and reflection
    blocks (symmetry_levels): the Lanczos route must give its eigenvalues
    to 1e-13 and its level labels, exchange parity included, and residuals
    within its gate, sector_leak + 64 eps ||H||_F.
    """

    @pytest.mark.parametrize("theory", ["NA", "LA", "LN"])
    def test_lanczos_route_matches_dense(self, monkeypatch, theory):
        systems = [(0.75, 0.0), (0.75, STRONG_PHI_CX), (0.95, STRONG_PHI_CX)]
        routes = []
        for beta_j in (0.616, 1.05, 1.262, 1.4):
            for beta_c, phi_cx in systems:
                kwargs = {"nu_max": 400} if beta_c == 0.95 else {}
                _, op = captured_operator(monkeypatch, theory,
                                          identical_pair(beta_j, beta_c, phi_cx),
                                          n_levels=6, **kwargs)
                routed = lowest_eigs(op, 6, True)
                h = op.to_dense()
                want, labels = symmetry_levels(h, op.dims[0], phi_cx == 0.0, 6)
                assert np.max(np.abs(routed.eigenvalues - want)) <= 1e-13
                assert routed.metadata["sectors"]["levels"] == labels
                vecs = routed.eigenvectors
                resid = np.linalg.norm(op.matvec(vecs) - vecs * routed.eigenvalues, axis=0)
                bound = routed.metadata["sector_leak"] + 64 * np.finfo(float).eps * np.linalg.norm(h)
                assert np.all(resid <= bound)
                # each level's vector has the exchange parity its label ends in
                parity = np.sum(vecs * exchanged(vecs, op.dims), axis=0)
                np.testing.assert_allclose(
                    parity, exchange_signs(routed.metadata["sectors"]["levels"]), atol=1e-12)
                picked = lowest_eigs(op, 6)
                assert np.array_equal(picked.eigenvalues, routed.eigenvalues)
                routes.append(picked.metadata["solver"])
        # zero bias: two folded sectors of 800 states; biased: one of 1600
        assert routes == ["lanczos"] * 12

    def test_degenerate_levels_get_exchange_parities(self, monkeypatch):
        # two uncoupled identical qubits: |01> and |10> are degenerate, so the
        # Lanczos vectors mix them until S is diagonalized within the pair
        kinetic, potential, _ = oscillator._junction_mode(0.05, 1.05, 0.3, 40)
        op = TensorOperator([kinetic, kinetic], potential[:, None] + potential[None, :])
        spec = lowest_eigs(op, 6, want_vectors=True)
        h = op.to_dense()
        want, labels = symmetry_levels(h, 40, False, 6)
        assert spec.metadata["solver"] == "lanczos"
        assert np.min(np.diff(want)) < 1e-13
        assert np.max(np.abs(spec.eigenvalues - want)) <= 1e-13
        levels = spec.metadata["sectors"]["levels"]
        assert sorted(levels) == sorted(labels)
        vecs = spec.eigenvectors
        np.testing.assert_allclose(exchanged(vecs, op.dims), vecs * exchange_signs(levels),
                                   atol=1e-12)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(6), atol=1e-13)
        assert np.all(spec.metadata["residuals"] <= 64 * np.finfo(float).eps * np.linalg.norm(h))

    def test_exchange_parities_above_the_dense_limit(self):
        # the same uncoupled identical qubits at 96x96, 9,216 states: above
        # DENSE_DIM_LIMIT the swap is still measured on every level, so the
        # labels are + or - and each vector is even or odd under it; the
        # swapped copy of the output is counted in the budget estimate
        kinetic, potential, _ = oscillator._junction_mode(0.05, 1.05, 0.3, 96)
        op = TensorOperator([kinetic, kinetic], potential[:, None] + potential[None, :])
        assert op.size > DENSE_DIM_LIMIT
        tracemalloc.start()
        try:
            spec = lowest_eigs(op, 6, want_vectors=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.metadata["solver"] == "lanczos"
        assert spec.metadata["workspace_bytes"] == lanczos_workspace(op, 6, 1, swap=True)
        assert peak < spec.metadata["workspace_bytes"]
        levels = spec.metadata["sectors"]["levels"]
        assert set(levels) == {"+", "-"}
        vecs = spec.eigenvectors
        np.testing.assert_allclose(np.sum(vecs * exchanged(vecs, op.dims), axis=0),
                                   exchange_signs(levels), rtol=0, atol=1e-12)

    def test_routed_solve_is_held_to_the_dense_gate(self, monkeypatch):
        # a loose tolerance in the dense range stops Lanczos early, and the
        # dense gate, not the Lanczos tolerance, rejects the residuals
        kinetic, potential, _ = oscillator._junction_mode(0.05, 1.05, 0.3, 40)
        op = TensorOperator([kinetic, kinetic], potential[:, None] + 1.1 * potential[None, :])
        monkeypatch.setattr(oscillator, "_DENSE_RANGE_TOL", 1e-6)
        with pytest.raises(NumericError, match="dense bound") as info:
            lowest_eigs(op, 6)
        assert max(info.value.details["residuals"]) > info.value.details["bound"]
        assert info.value.details["bound"] < 1e-11


class TestThreeQubitSymmetry:
    """Mode reflections of three identical qubits hold on every grid (no solve)."""

    @staticmethod
    def group(qubits, dims):
        system = CouplerSystem(beta_c=0.75, zeta_c=0.05, qubits=tuple(qubits), e_ltc=3.0)
        return oscillator._symmetries(assemble_tensor_operator(normal_modes(system, dims)))[:2]

    @pytest.mark.parametrize("dims", [(20, 20, 20, 10), (36, 36, 36, 14)])
    def test_mode_reflection_survives_large_grids(self, dims):
        # the last degenerate mode is odd under the exchange of the last two
        # qubits, and its reflection is exact: four elements, not two
        q = QubitParams(beta_j=1.05, zeta_j=0.05, alpha_j=0.05)
        assert self.group((q,) * 3, dims) == ([0, 4, 11, 15], None)

    @pytest.mark.parametrize("field", ["beta_j", "alpha_j", "zeta_j"])
    def test_reflection_broken_at_1e_10_is_rejected(self, field):
        q = QubitParams(beta_j=1.05, zeta_j=0.05, alpha_j=0.05)
        broken = replace(q, **{field: getattr(q, field) * (1 + 1e-10)})
        assert self.group((q, q, broken), (20, 20, 20, 10)) == ([0, 15], None)

    @pytest.mark.parametrize("dims", [(12, 12, 6), (40, 40, 18), (96, 96, 24)])
    def test_two_qubit_groups_are_unchanged(self, dims):
        q = QubitParams(beta_j=1.05, zeta_j=0.05, alpha_j=0.05)
        groups = [self.group(qs, dims) for qs in [
            (q, q), (q, replace(q, phi_jx=0.3)), (q, replace(q, beta_j=0.95))]]
        assert groups == [([0, 2, 5, 7], None), ([0], None), ([0, 7], None)]


def fock_reduced_matrix(theory, system, dims, n_basis=50):
    # the reduced two-qubit problem in the qubits' product Fock basis, as it
    # was built before the grid: ladders, P e^{i sqrt(zeta) X} P junction
    # factors, and the quadratic expansion from the truncated X
    from coupler_lab.coupler import eg_derivs_analytic, u_min, u_zpe_harmonic

    (q0, q1), e_ltc = system.qubits, system.e_ltc
    if theory == "LA":
        d1, d2 = eg_derivs_analytic(system.beta_c, system.zeta_c, system.phi_cx)
        const = (u_min(system.beta_c, system.phi_cx)
                 + u_zpe_harmonic(system.beta_c, system.zeta_c, system.phi_cx))
    else:
        cp = CouplerParams(beta_c=system.beta_c, zeta_c=system.zeta_c)
        d1, d2 = eg_derivs_numeric(cp, system.phi_cx, n_basis=n_basis)
        const = float(eg_exact(cp, system.phi_cx, n_basis=n_basis)[0])
    eyes = [np.eye(d) for d in dims]
    singles, xs = [], []
    for q, d in zip((q0, q1), dims):
        x = math.sqrt(q.zeta_j) * x_matrix(d)
        junction = 0.5 * q.beta_j * q.e_lj * ho_exp_matrix(math.sqrt(q.zeta_j), d)
        single = (np.diag(2.0 * q.zeta_j * q.e_lj * (np.arange(d) + 0.5))
                  + 2.0 * junction.real
                  + e_ltc * (-d1 * q.alpha_j * x + 0.5 * d2 * q.alpha_j**2 * x @ x))
        singles.append(single)
        xs.append(x)
    cross = e_ltc * d2 * q0.alpha_j * q1.alpha_j * np.kron(xs[0], xs[1])
    return (np.kron(singles[0], eyes[1]) + np.kron(eyes[0], singles[1]) + cross
            + e_ltc * const * np.eye(dims[0] * dims[1]))


class TestReducedFockEquivalence:
    """LA/LN on the grid are the Fock-basis problems up to truncation.

    Their flux polynomials are unitarily equivalent ((PXP)^2 = U diag(x^2)
    U^T); only the junction cosine's truncation differs, which is
    converged at 40 states per qubit.
    """

    @pytest.mark.parametrize("beta_j", [0.616, 1.05, 1.262, 1.4])
    @pytest.mark.parametrize("theory", ["LA", "LN"])
    def test_spectrum_matches_fock_build(self, theory, beta_j):
        system = identical_pair(beta_j)
        spec = bo_spectrum(theory, system, dims=(40, 40), n_levels=6)
        want = np.linalg.eigvalsh(fock_reduced_matrix(theory, system, (40, 40)))[:6]
        np.testing.assert_allclose(spec.eigenvalues, want, rtol=1e-12, atol=0)


def fock_coupler_couplings(beta_c, zeta_c, phi_x, dim):
    # the coupler's levels and <k|X|g> in the Fock basis, X = sqrt(zeta) (a + a^dag)
    vals, vecs = np.linalg.eigh(fock_junction_matrix(zeta_c, beta_c, phi_x, dim))
    return vals, vecs.T @ (math.sqrt(zeta_c) * x_matrix(dim) @ vecs[:, 0])


def max_rel(got, want):
    # largest deviation relative to the largest value of the column
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestSingleModeFockEquivalence:
    """The single-mode problems on the grid are their Fock-basis builds.

    The grid solves K + diag(V) and the Fock build the ladder plus the
    truncated factors P e^{i sqrt(zeta) X} P; both are converged at the
    default basis sizes, so each column agrees to rounding.
    """

    BIASES = np.linspace(0.0, 2.0 * np.pi, 7)

    @pytest.mark.parametrize("zeta_c", [0.02, 0.25])
    @pytest.mark.parametrize("beta_c", [0.3, 0.75, 0.95])
    def test_coupler_matches_fock_oracle(self, beta_c, zeta_c):
        params = CouplerParams(beta_c=beta_c, zeta_c=zeta_c)
        levels, d1, d2, norm = [], [], [], []
        want = {"levels": [], "d1": [], "d2": [], "norm": []}
        for phi in self.BIASES:
            levels.append(eg_exact(params, phi))
            derivs = eg_derivs_numeric(params, phi)
            d1.append(derivs[0])
            d2.append(derivs[1])
            norm.append(bodc_metrics(params, phi).exact_norm)
            vals, xg = fock_coupler_couplings(beta_c, zeta_c, phi, 50)
            want["levels"].append(vals[:6])
            want["d1"].append(-xg[0])
            want["d2"].append(1.0 + 2.0 * np.sum(xg[1:] ** 2 / (vals[0] - vals[1:])))
            want["norm"].append(np.sum(xg[1:] ** 2 / (vals[0] - vals[1:]) ** 2))
        for name, got in (("levels", levels), ("d1", d1), ("d2", d2), ("norm", norm)):
            assert max_rel(got, want[name]) <= 1e-12, name

    @pytest.mark.parametrize("phi_jx", [0.0, 0.2])
    @pytest.mark.parametrize("beta_j", [0.8, 1.05, 1.4])
    def test_qubit_matches_fock_oracle(self, beta_j, phi_jx):
        params = QubitParams(beta_j=beta_j, zeta_j=0.05, e_lj=1.3, phi_jx=phi_jx)
        sub = qubit_subspace(params)
        dim = len(sub.flux_eigs)
        x, _ = oscillator._grid(dim)
        assert np.array_equal(sub.flux_eigs, phi_jx + math.sqrt(0.05) * x)

        vals, vecs = np.linalg.eigh(fock_junction_matrix(0.05, beta_j, phi_jx, dim))
        flux = math.sqrt(0.05) * x_matrix(dim) + phi_jx * np.eye(dim)
        v0, v1 = vecs[:, 0], vecs[:, 1]
        phi_p = v0 @ flux @ v1
        if phi_p < 0.0:
            v1, phi_p = -v1, -phi_p
        ref = (v0 + v1) / math.sqrt(2.0)
        zeta_eff = ref @ flux @ flux @ ref - (ref @ flux @ ref) ** 2
        assert max_rel(sub.energies, 1.3 * vals[:4]) <= 1e-12
        assert sub.phi_p == pytest.approx(phi_p, rel=1e-12, abs=0)
        assert sub.zeta_eff == pytest.approx(zeta_eff, rel=1e-12, abs=0)
