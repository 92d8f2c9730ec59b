"""Truncated Fock-space machinery for the coupled-circuit Hamiltonian.

The circuit Hamiltonian, after normal-mode decomposition of its
quadratic part, is a sum of oscillator ladders and junction cosines

    H = sum_n w_n (a_n^dag a_n + 1/2)
      + sum_m [ C_m exp(i sum_n r_mn (a_n + a_n^dag)) + h.c. ],

where each cosine term m comes from one junction, C_m carries half the
junction energy and the phase offset at the quadratic minimum, and
r_mn is the zero-point amplitude of coordinate m along mode n.  The
factor matrices are exponentials of the dimensionless quadrature,
evaluated per element through generalized Laguerre polynomials:

    <j|e^{irX}|k> = i^{k-j} sqrt(j!/k!) e^{-r^2/2} r^{k-j} L_j^{(k-j)}(r^2)

for j <= k, X = a + a^dag, with the j > k entry equal by symmetry.
These matrices are complex symmetric, so the Hermitian pairing above
is elementwise conjugation; applying a paired term to a real vector
costs one tensor contraction and a real part.

The dense matrix (for problems up to DENSE_DIM_LIMIT states) is built
from the same factors, not by applying the operator to identity
columns: all terms go through one real matrix product of stacked
leading-mode and last-mode factors (see TensorOperator.to_dense),
chunked so the build holds under three size x size float matrices.

Factor matrices are pure functions of (r, dim), so ho_exp_matrix
memoizes them in a small bounded cache (16 entries) and returns the
cached array itself, marked read-only.  A grid loop over one single-mode
problem and identical qubits sharing a factor per series order then
build each matrix once.

A dense solve of a multi-mode operator runs in symmetry sectors found in
the dense matrix itself, never from a flag (symmetry-adapted bases, as in
Light & Carrington, Adv. Chem. Phys. 114, 263 (2000)).  Each state's code
holds its per-mode Fock parities k_n mod 2; the parity changes that occur
in H's nonzero blocks span a subspace of GF(2)^N whose cosets are the
parity sectors.  At bias 0 or pi these hold the flux reflection
(-1)^(sum k_n) of the reduced two-qubit problems and the normal-mode
parities of the exact circuit.  A swap of two equal-dim modes (identical
qubits) that commutes with H and keeps every parity sector splits each
again into (|ab> +- |ba>)/sqrt 2 combinations.  A block counts as zero
below _SECTOR_TOL eps max|H|, since to_dense's roundoff leaves exchange
blocks near eps max|H|; the Frobenius norm of what was dropped is
reported as sector_leak, and the residuals are checked against the full
matrix.  Two identical qubits at zero bias give four sectors of about
400 states instead of one eigh of 1600.

Above the dense limit the lowest levels come from ARPACK's implicitly
restarted Lanczos (scipy's eigsh) applied through matvec: a fixed
basis of max(2m + 1, 20) vectors, a seeded start vector, and the true
residuals checked after the solve.

Every BLAS call inside that iterative path goes through scipy.linalg.blas
(imported on first use, like scipy.sparse.linalg).  numpy and scipy each
bundle their own OpenBLAS with its own thread pool, and ARPACK runs on
scipy's; were the matvec's GEMMs left to numpy, the two pools' spinning
threads would fight over the cores at every hand-over between an ARPACK
step and a matvec.  matvec makes the same zgemm call numpy's tensordot
makes, so the result is bitwise the same.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ConfigurationError, NumericError, ResourceError

__all__ = [
    "NormalModeSystem",
    "Spectrum",
    "TensorOperator",
    "assemble_tensor_operator",
    "ho_exp_matrix",
    "ho_exp_matrix_element",
    "lowest_eigs",
    "normal_modes",
]

DENSE_DIM_LIMIT = 8192
ITERATIVE_M_LIMIT = 32
DEFAULT_MEMORY_BUDGET = 4 << 30
_LANCZOS_SEED = 175_1031
_ARPACK_MAXITER = 1000
# matvec workspace per state and column: the contiguous copy and the
# GEMM output (complex), the real accumulator, and the input's copy when
# it cannot be reshaped in place
_MATVEC_BYTES = 16 + 16 + 8 + 8
# A block of a dense operator counts as zero when its largest entry is at
# most _SECTOR_TOL eps max|H|: to_dense's stacked GEMM leaves the exchange
# blocks of a symmetric operator at about eps max|H|, not at exact zero.
_SECTOR_TOL = 64
# Dense eigenpairs must meet ||H v - lambda v|| <= sector_leak + c eps ||H||_F.
_DENSE_RESIDUAL_C = 64


def _fused_diagonal(r: float, a: int, count: int) -> np.ndarray:
    """Values M_j = <j|e^{irX}|j+a>/i^a for j = 0..count-1, offset a >= 0.

    Runs the Laguerre three-term recurrence with the normalization
    sqrt(j!/(j+a)!) e^{-r^2/2} r^a folded in, so intermediate values
    stay near the final element magnitudes.  A power-of-two rescaling
    guards against underflow of the leading element when a is large
    (the true elements deeper along the diagonal need not be small).
    """
    x = r * r
    out = np.zeros(count)
    # log of M_0 = e^{-x/2} |r|^a / sqrt(a!)
    if r == 0.0:
        if a == 0:
            out[:] = 1.0
        return out
    log_m0 = -0.5 * x + a * math.log(abs(r)) - 0.5 * math.lgamma(a + 1)
    sign = -1.0 if (r < 0.0 and a % 2) else 1.0
    scale_pow = 0
    if log_m0 < -600.0:
        shift = int((-600.0 - log_m0) / math.log(2.0)) + 1
        scale_pow = -shift
        m_curr = sign * math.exp(log_m0 + shift * math.log(2.0))
    else:
        m_curr = sign * math.exp(log_m0)
    m_prev = 0.0
    out[0] = math.ldexp(m_curr, scale_pow) if scale_pow else m_curr
    for j in range(count - 1):
        # M_{j+1} from the L_{j+1}^{(a)} recurrence with normalization ratios
        ca = math.sqrt((j + 1.0) / (j + a + 1.0))
        cb = math.sqrt((j + 1.0) * j / ((j + a + 1.0) * (j + a))) if j > 0 else 0.0
        m_next = (ca * (2 * j + 1 + a - x) * m_curr - cb * (j + a) * m_prev) / (j + 1.0)
        m_prev, m_curr = m_curr, m_next
        if scale_pow and abs(m_curr) > 1.0:
            # hand part of the pending scale back as the entries grow
            step = min(-scale_pow, 900)
            m_curr = math.ldexp(m_curr, -step)
            m_prev = math.ldexp(m_prev, -step)
            scale_pow += step
        out[j + 1] = math.ldexp(m_curr, scale_pow) if scale_pow else m_curr
    return out


def ho_exp_matrix_element(j: int, k: int, r: float) -> complex:
    """Matrix element <j|exp(ir(a+a^dag))|k> in the number basis.

    Symmetric in (j, k); real for k-j divisible by 4, etc., through the
    i^{k-j} phase.  Stable for orders up to 1e4 via a normalized
    Laguerre recurrence.
    """
    if j < 0 or k < 0:
        raise ValueError("Fock indices must be non-negative")
    if not math.isfinite(r):
        raise ValueError("displacement must be finite")
    if j > k:
        j, k = k, j
    a = k - j
    val = _fused_diagonal(r, a, j + 1)[j]
    return (1j) ** (a % 4) * val


def ho_exp_matrix(r: float, dim: int) -> np.ndarray:
    """Dense dim x dim matrix of exp(ir(a+a^dag)), complex symmetric.

    The matrix is memoized on (r, dim) and returned as a shared,
    read-only array; copy it before writing.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return _ho_exp_matrix(float(r), int(dim))


@lru_cache(maxsize=16)
def _ho_exp_matrix(r: float, dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        vals = _fused_diagonal(r, a, dim - a)
        phase = (1j) ** (a % 4)
        idx = np.arange(dim - a)
        out[idx, idx + a] = phase * vals
        if a:
            out[idx + a, idx] = phase * vals
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class NormalModeSystem:
    """Normal-mode form of the coupled circuit.

    freqs are sorted ascending.  displacements[m, n] is the amplitude
    of cosine term m along mode n; amplitudes[m] is the half junction
    energy with the bias offset folded into its phase (each stored term
    stands for itself plus its Hermitian conjugate).  dims, when set,
    assigns per-mode truncations in the sorted-mode order, so the
    highest-frequency mode carries the last entry.
    """

    freqs: np.ndarray
    displacements: np.ndarray
    amplitudes: np.ndarray
    dims: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        object.__setattr__(self, "displacements", np.asarray(self.displacements, dtype=float))
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=complex))
        if np.any(self.freqs <= 0.0):
            raise ConfigurationError("mode frequencies must be positive")
        if np.any(np.diff(self.freqs) < 0.0):
            raise ConfigurationError("mode frequencies must be sorted ascending")
        n_terms, n_modes = self.displacements.shape
        if len(self.freqs) != n_modes or len(self.amplitudes) != n_terms:
            raise ConfigurationError("inconsistent mode/term counts")
        if self.dims is not None:
            object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
            if len(self.dims) != n_modes or any(d < 1 for d in self.dims):
                raise ConfigurationError("dims must give a positive size per mode")

    @property
    def n_modes(self) -> int:
        return len(self.freqs)


def normal_modes(system, dims=None) -> NormalModeSystem:
    """Normal-mode decomposition of the circuit's quadratic part.

    ``system`` describes one coupler plus its qubits: attributes e_ltc,
    zeta_c, beta_c, phi_cx, and a sequence ``qubits`` whose entries
    carry e_lj, zeta_j, beta_j, alpha_j, phi_jx.  The potential is

        E_Ltc [ (phi_c + sum_j alpha_j phi_j - phi_cx)^2/2 + beta_c cos(phi_c) ]
        + sum_j E_Lj [ (phi_j - phi_jx)^2/2 + beta_j cos(phi_j) ]

    with kinetic weight 4 zeta^2 E_L per coordinate.  The origin is
    shifted to the quadratic minimum (phi_j = phi_jx, phi_c = phi_cx -
    sum alpha_j phi_jx), which leaves no linear terms and puts the
    minimum phases into the cosine offsets.  The generalized symmetric
    problem is solved as eig(sqrt(T) K sqrt(T)); coordinate m then
    carries zero-point amplitude R[m, n] = sqrt(T_m) V[m, n] /
    sqrt(2 w_n) along mode n.
    """
    qubits = list(system.qubits)
    e_ltc = float(system.e_ltc)
    zeta_c = float(system.zeta_c)
    if e_ltc <= 0.0 or zeta_c <= 0.0:
        raise ConfigurationError("coupler energies must be positive")
    n = len(qubits) + 1
    kinetic = np.zeros(n)
    stiff = np.zeros((n, n))
    kinetic[0] = 4.0 * zeta_c**2 * e_ltc
    stiff[0, 0] = e_ltc
    for i, q in enumerate(qubits, start=1):
        if q.e_lj <= 0.0 or q.zeta_j <= 0.0:
            raise ConfigurationError(f"qubit {i} energies must be positive")
        kinetic[i] = 4.0 * q.zeta_j**2 * q.e_lj
        stiff[0, i] = stiff[i, 0] = e_ltc * q.alpha_j
        for i2, q2 in enumerate(qubits, start=1):
            stiff[i, i2] = e_ltc * q.alpha_j * q2.alpha_j
        stiff[i, i] += q.e_lj
    sq = np.sqrt(kinetic)
    w2, vecs = np.linalg.eigh(sq[:, None] * stiff * sq[None, :])
    if w2[0] <= 0.0:
        raise ConfigurationError("quadratic form is not positive definite")
    freqs = np.sqrt(w2)
    # deterministic eigenvector signs: largest component positive
    flip = np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)])
    vecs = vecs * flip
    disp = sq[:, None] * vecs / np.sqrt(2.0 * freqs)[None, :]
    offsets = np.empty(n)
    offsets[0] = system.phi_cx - sum(q.alpha_j * q.phi_jx for q in qubits)
    amps = np.empty(n, dtype=complex)
    amps[0] = 0.5 * system.beta_c * e_ltc * np.exp(1j * offsets[0])
    for i, q in enumerate(qubits, start=1):
        offsets[i] = q.phi_jx
        amps[i] = 0.5 * q.beta_j * q.e_lj * np.exp(1j * offsets[i])
    return NormalModeSystem(freqs, disp, amps, None if dims is None else tuple(dims))


class TensorOperator:
    """Matrix-free Hermitian operator on a tensor-product Fock space.

    Holds a diagonal ladder part and a list of (coefficient, per-mode
    factor matrix) cosine terms, each standing for the stored term plus
    its conjugate.  Immutable after construction; matvec application is
    read-only and safe to call concurrently.
    """

    def __init__(self, dims, diag, terms):
        self.dims = tuple(int(d) for d in dims)
        self.size = int(np.prod(self.dims))
        self.diag = np.asarray(diag, dtype=float).reshape(self.dims)
        self.terms = [(complex(c), [np.asarray(u) for u in us]) for c, us in terms]
        for c, us in self.terms:
            if len(us) != len(self.dims):
                raise ConfigurationError("each term needs one factor per mode")
            for n, u in enumerate(us):
                if u.shape != (self.dims[n], self.dims[n]):
                    raise ConfigurationError("factor shape mismatch")

    @property
    def shape(self):
        return (self.size, self.size)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply to one real vector (size,) or a real block (size, b).

        Each factor is applied the way np.tensordot would: the contracted
        axis moved first and made contiguous, then the column-major
        zgemm numpy itself calls (zgemv for a single column), and the
        axis moved back.  The calls go through scipy.linalg.blas, so the
        result is bitwise tensordot's, computed on the BLAS that ARPACK
        runs on.  The peak workspace is _MATVEC_BYTES per state and column.
        """
        from scipy.linalg.blas import zgemm, zgemv

        v = np.asarray(v)
        if np.iscomplexobj(v):
            raise ValueError("TensorOperator acts on real vectors")
        single = v.ndim == 1
        t = v.reshape(self.dims + (-1,))
        out = self.diag[..., None] * t
        for c, us in self.terms:
            z = t.astype(complex)
            # rebinding z drops each buffer once the next one exists, so at
            # most two complex blocks are alive
            for n, u in enumerate(us):
                z = np.ascontiguousarray(np.moveaxis(z, n, 0))
                shape = z.shape
                z = z.reshape(shape[0], -1)
                if z.shape[1] == 1:
                    z = zgemv(1.0, u.T, z[:, 0], trans=1)
                else:
                    z = zgemm(1.0, z.T, u.T).T
                z = np.moveaxis(z.reshape(shape), 0, n)
            np.multiply(c, z, out=z)
            out = out + 2.0 * z.real
        return out.reshape(self.size) if single else out.reshape(self.size, -1)

    def to_dense(self) -> np.ndarray:
        """Dense (size, size) real matrix built directly from the factors.

        A single-mode operator is diag + sum_t 2 Re(c_t U_t), summed in
        term order.  With more modes, split the space as P x d (all
        modes but the last, then the last): term t contributes
        2 Re(A_t (x) B_t) with A_t = c_t U_t1 (x) ... (the P x P leading
        factor) and B_t its d x d last factor.  Stacking the flattened
        A_t as rows (real part, then minus the imaginary part) and B_t
        likewise (real, imaginary) turns the whole sum into one real
        product stack_A^T stack_B of shape (P^2, d^2), which reshapes
        (P, P, d, d) -> (P, d, P, d) into the matrix.  The stacks are
        built in chunks of at most half a size x size float matrix, and
        each chunk's product is added into the output in place, so the
        peak is the output, one product buffer and one chunk: under
        three size x size float matrices.
        """
        if self.size > DENSE_DIM_LIMIT:
            raise ResourceError(
                f"dense materialization of a {self.size}-dim operator exceeds the"
                f" {DENSE_DIM_LIMIT}-dim limit"
            )
        if len(self.dims) == 1:
            out = np.diag(self.diag)
            for c, (u,) in self.terms:
                out = out + 2.0 * np.real(c * u)
            return out
        d = self.dims[-1]
        p = self.size // d
        out = np.zeros((self.size, self.size))
        out4 = out.reshape(p, d, p, d)
        if self.terms:
            # 16 bytes per term and stacked element, within 4 * size^2 bytes
            chunk = max(1, 4 * self.size**2 // (16 * (p * p + d * d)))
            chunk = min(chunk, len(self.terms))
            stack_a = np.empty((2 * chunk, p * p))
            stack_b = np.empty((2 * chunk, d * d))
            prod = np.empty((p * p, d * d))
            for lo in range(0, len(self.terms), chunk):
                part = self.terms[lo:lo + chunk]
                for i, (c, us) in enumerate(part):
                    a = (2.0 * c) * us[0]
                    for u in us[1:-1]:
                        a = np.kron(a, u)
                    stack_a[2 * i] = a.real.ravel()
                    stack_a[2 * i + 1] = -a.imag.ravel()
                    stack_b[2 * i] = us[-1].real.ravel()
                    stack_b[2 * i + 1] = us[-1].imag.ravel()
                rows = 2 * len(part)
                np.matmul(stack_a[:rows].T, stack_b[:rows], out=prod)
                out4 += prod.reshape(p, p, d, d).transpose(0, 2, 1, 3)
        out.flat[::self.size + 1] += self.diag.ravel()
        return out


def assemble_tensor_operator(system: NormalModeSystem,
                             memory_budget: int = DEFAULT_MEMORY_BUDGET) -> TensorOperator:
    """Build the matrix-free operator for a normal-mode system.

    Factor matrices are computed once per (term, mode); the ladder part
    sum_n w_n (k + 1/2) is stored as a diagonal.  The projected memory
    footprint (factors plus matvec temporaries) is checked against the
    budget before anything is allocated.
    """
    if system.dims is None:
        raise ConfigurationError("system has no dims; pass dims to normal_modes")
    dims = system.dims
    n_terms = len(system.amplitudes)
    size = int(np.prod(dims))
    factor_bytes = 16 * n_terms * sum(d * d for d in dims)
    work_bytes = size * _MATVEC_BYTES
    if factor_bytes + work_bytes > memory_budget:
        raise ResourceError(
            f"assembly needs ~{(factor_bytes + work_bytes) / 2**20:.0f} MiB,"
            f" over the {memory_budget / 2**20:.0f} MiB budget"
        )
    diag = np.zeros(dims)
    for n, d in enumerate(dims):
        shape = [1] * len(dims)
        shape[n] = d
        diag = diag + (system.freqs[n] * (np.arange(d) + 0.5)).reshape(shape)
    terms = []
    for m in range(n_terms):
        us = [ho_exp_matrix(system.displacements[m, n], dims[n]) for n in range(len(dims))]
        terms.append((system.amplitudes[m], us))
    return TensorOperator(dims, diag, terms)


def _junction_mode(zeta: float, beta: float, phase: float, dim: int) -> TensorOperator:
    """One biased junction oscillator in the Fock basis of its beta = 0 part.

    Ladder frequency 2 zeta, quadrature amplitude sqrt(zeta), and the
    junction pair with half amplitude (beta/2) e^{i phase}: the
    single-mode problem shared by the coupler and each qubit.
    """
    nm = NormalModeSystem(
        freqs=[2.0 * zeta],
        displacements=[[math.sqrt(zeta)]],
        amplitudes=[0.5 * beta * np.exp(1j * phase)],
        dims=(dim,),
    )
    return assemble_tensor_operator(nm)


def _quadrature(zeta: float, dim: int) -> np.ndarray:
    """Real dim x dim matrix of sqrt(zeta) (a + a^dag)."""
    n = np.sqrt(np.arange(1, dim))
    return math.sqrt(zeta) * (np.diag(n, 1) + np.diag(n, -1))


@dataclass
class Spectrum:
    """Sorted eigenvalues with optional vectors and solver metadata."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(self.eigenvalues) < 0.0):
            raise ValueError("eigenvalues must be non-decreasing")

    @property
    def excitations(self) -> np.ndarray:
        return self.eigenvalues[1:] - self.eigenvalues[0]


def _fix_vector_signs(vecs: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(vecs), axis=0)
    flip = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    flip[flip == 0.0] = 1.0
    return vecs * flip


def _parity_cosets(h: np.ndarray, dims: tuple):
    """Fock-parity sectors of a dense operator on the product space `dims`.

    Each state carries the code sum_n (k_n mod 2) 2^n.  The block of H
    between codes a and b is a strided view of H reshaped to dims + dims;
    a block is present when its largest entry exceeds the zero tolerance.
    The present parity changes a ^ b span a subspace S of GF(2)^N, and H
    has no present block between the cosets of S, so the cosets are the
    sectors.  Returns (coset representative per code, tolerance, sum of
    squares of the dropped blocks, sum of squares of H).
    """
    n_modes = len(dims)
    n_codes = 1 << n_modes
    h4 = h.reshape(dims + dims)

    def part(code):
        return tuple(slice((code >> k) & 1, None, 2) for k in range(n_modes))

    peak = np.zeros((n_codes, n_codes))
    squares = np.zeros((n_codes, n_codes))
    for a in range(n_codes):
        for b in range(n_codes):
            blk = np.abs(h4[part(a) + part(b)]).ravel()
            if blk.size:
                peak[a, b] = blk.max()
                squares[a, b] = blk @ blk
    tol = _SECTOR_TOL * np.finfo(float).eps * peak.max()
    # xor basis of the present parity changes, leading bits distinct and
    # descending; reducing a code by it gives the least code of its coset
    basis = []
    for a, b in zip(*np.nonzero(peak > tol)):
        x = int(a) ^ int(b)
        for v in basis:
            x = min(x, x ^ v)
        if x:
            basis = sorted(basis + [x], reverse=True)
    rep = np.arange(n_codes)
    for v in basis:
        rep = np.minimum(rep, rep ^ v)
    dropped = squares[rep[:, None] != rep[None, :]].sum()
    return rep, tol, dropped, squares.sum()


def _exchange_split(h: np.ndarray, idx: np.ndarray, perm: np.ndarray):
    """Split one sector by the mode swap `perm` into its +/- combinations.

    The sector's states are the swap-fixed states F and pairs (a, b =
    perm[a]) with a < b; the + sector has basis F and (|a> + |b>)/sqrt 2,
    the - sector (|a> - |b>)/sqrt 2.  Returns the two (matrix, lift)
    pairs, where lift lists (full indices, local slice, weight) to map
    sector vectors back, and the (+, -) and (-, +) blocks that the split
    drops.
    """
    p = perm[idx]
    fixed, a = idx[p == idx], idx[p > idx]
    b = perm[a]
    order = np.concatenate([fixed, a, b])
    g = h[np.ix_(order, order)]
    f, k = len(fixed), len(a)
    F, A, B = slice(0, f), slice(f, f + k), slice(f + k, f + 2 * k)
    s = math.sqrt(0.5)
    plus = np.block([[g[F, F], (g[F, A] + g[F, B]) * s],
                     [(g[A, F] + g[B, F]) * s, (g[A, A] + g[A, B] + g[B, A] + g[B, B]) * 0.5]])
    minus = (g[A, A] - g[A, B] - g[B, A] + g[B, B]) * 0.5
    cross = [np.concatenate([(g[F, A] - g[F, B]) * s, (g[A, A] - g[A, B] + g[B, A] - g[B, B]) * 0.5]),
             np.concatenate([(g[A, F] - g[B, F]) * s, (g[A, A] + g[A, B] - g[B, A] - g[B, B]) * 0.5],
                            axis=1)]
    lift_plus = [(fixed, slice(0, f), 1.0), (a, slice(f, None), s), (b, slice(f, None), s)]
    lift_minus = [(a, slice(None), s), (b, slice(None), -s)]
    return (plus, lift_plus), (minus, lift_minus), cross


def _sectors(h: np.ndarray, dims: tuple):
    """Symmetry sectors of a dense operator on the product space `dims`.

    Parity cosets first (see _parity_cosets), then at most one swap of
    two equal-dim modes that maps every coset onto itself, leaves the
    diagonal unchanged and commutes with H within each coset.  Returns
    a list of (label, matrix, lift), the Frobenius norm of every dropped
    block (sector_leak) and that of H.
    """
    n = h.shape[0]
    rep, tol, dropped, total = _parity_cosets(h, dims)
    codes = sum((ks % 2) << k for k, ks in enumerate(np.indices(dims)))
    state_rep = rep[codes.ravel()]
    cosets = [(r, np.flatnonzero(state_rep == r)) for r in np.unique(state_rep)]

    def parity_label(r):
        return "".join(str((r >> k) & 1) for k in range(len(dims))) if len(cosets) > 1 else ""

    diag = h.diagonal()
    all_codes = np.arange(len(rep))
    for i, j in combinations(range(len(dims)), 2):
        if dims[i] != dims[j]:
            continue
        swapped = all_codes & ~((1 << i) | (1 << j))
        swapped |= ((all_codes >> i) & 1) << j | ((all_codes >> j) & 1) << i
        if np.any(rep[swapped] != rep):
            continue
        perm = np.arange(n).reshape(dims).swapaxes(i, j).ravel()
        if np.max(np.abs(diag[perm] - diag)) > tol:
            continue
        sectors, leak = [], dropped
        for r, idx in cosets:
            plus, minus, cross = _exchange_split(h, idx, perm)
            if max((np.max(np.abs(c)) for c in cross if c.size), default=0.0) > tol:
                break
            leak += sum(float(np.sum(c * c)) for c in cross)
            label = parity_label(r)
            sectors += [(label + "+", *plus), (label + "-", *minus)]
        else:
            return [sec for sec in sectors if len(sec[1])], math.sqrt(leak), math.sqrt(total)
    if len(cosets) == 1:
        return [("all", h, None)], 0.0, math.sqrt(total)
    sectors = [(parity_label(r), h[np.ix_(idx, idx)], [(idx, slice(None), 1.0)])
               for r, idx in cosets]
    return sectors, math.sqrt(dropped), math.sqrt(total)


def _dense_lowest(h: np.ndarray, m: int, want_vectors: bool, dims=None) -> Spectrum:
    """Lowest m levels by np.linalg.eigh, sector by sector when H has symmetries.

    With dims of two or more modes the sectors come from H itself (see
    _sectors); each gets its own eigh, its lowest levels are lifted back
    to the full basis, and the merged lowest m are kept.  Without dims
    or without a symmetry, H gets one eigh, as a plain matrix would.
    The true residuals against the full H must stay within sector_leak
    (a Weyl bound on the eigenvalue error of the dropped blocks) plus
    _DENSE_RESIDUAL_C eps ||H||_F, else NumericError.
    """
    n = h.shape[0]
    if dims is not None and len(dims) > 1:
        sectors, leak, h_norm = _sectors(h, dims)
    else:
        sectors, leak, h_norm = [("all", h, None)], 0.0, float(np.linalg.norm(h))
    if len(sectors) == 1:
        vals, vecs = np.linalg.eigh(h)
        vals, vecs, levels = vals[:m], vecs[:, :m], [0] * m
    else:
        found_vals, found_vecs, found_sectors = [], [], []
        for s, (_, mat, lift) in enumerate(sectors):
            w, y = np.linalg.eigh(mat)
            k = min(m, len(w))
            v = np.zeros((n, k))
            for rows, cols, weight in lift:
                v[rows] = weight * y[cols, :k]
            found_vals.append(w[:k])
            found_vecs.append(v)
            found_sectors += [s] * k
        vals = np.concatenate(found_vals)
        order = np.argsort(vals, kind="stable")[:m]
        vals = vals[order]
        vecs = np.concatenate(found_vecs, axis=1)[:, order]
        levels = [found_sectors[i] for i in order]
    vecs = _fix_vector_signs(vecs)
    labels = tuple(sec[0] for sec in sectors)
    resid = np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0)
    bound = leak + _DENSE_RESIDUAL_C * np.finfo(float).eps * h_norm
    if not np.all(resid <= bound):
        raise NumericError(
            "dense eigenvector residuals exceed the bound",
            {"residuals": resid.tolist(), "bound": bound, "sector_leak": leak,
             "sectors": list(labels)},
        )
    meta = {"solver": "dense", "dim": n, "residuals": resid, "sector_leak": leak,
            "sectors": {"labels": labels,
                        "dims": tuple(len(sec[1]) for sec in sectors),
                        "levels": tuple(labels[s] for s in levels)}}
    return Spectrum(vals, vecs if want_vectors else None, meta)


def _iterative_lowest(op: TensorOperator, m: int, tol: float, want_vectors: bool,
                     memory_budget: int) -> Spectrum:
    """ARPACK's implicitly restarted Lanczos on the matrix-free operator.

    The Krylov basis is fixed at ncv columns and restarted in place
    (Lehoucq & Sorensen, SIAM J. Matrix Anal. Appl. 17, 789 (1996)), so
    memory stays at a few vectors of the operator's size whatever the
    number of iterations.  The start vector is seeded, so repeated
    solves are bitwise equal.  ARPACK needs m < ncv < size; smaller
    operators go to the dense solver.
    """
    n = op.size
    ncv = max(2 * m + 1, 20)
    if ncv >= n:
        return _dense_lowest(op.to_dense(), m, want_vectors, op.dims)
    # the Lanczos basis, ARPACK's work arrays and the m Ritz vectors (8 bytes
    # each), then the residual check: the block matvec on the Ritz vectors
    # (_MATVEC_BYTES per state and column) and its product and difference
    work_bytes = 8 * n * (ncv + m + 4) + (_MATVEC_BYTES + 16) * n * m
    if work_bytes > memory_budget:
        raise ResourceError(
            f"Lanczos solve would need ~{work_bytes / 2**20:.0f} MiB,"
            f" over the {memory_budget / 2**20:.0f} MiB budget"
        )
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

    matvecs = 0
    matvec_s = 0.0

    def apply(v):
        nonlocal matvecs, matvec_s
        matvecs += 1 if v.ndim == 1 else v.shape[1]
        start = time.perf_counter()
        out = op.matvec(v)
        matvec_s += time.perf_counter() - start
        return out

    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    start = time.perf_counter()
    try:
        vals, vecs = eigsh(LinearOperator((n, n), matvec=apply, dtype=float), k=m,
                           which="SA", ncv=ncv, tol=tol, v0=v0, maxiter=_ARPACK_MAXITER)
    except ArpackNoConvergence as exc:
        raise NumericError(
            f"Lanczos did not converge in {_ARPACK_MAXITER} restarts",
            {"converged": len(exc.eigenvalues), "wanted": m, "matvecs": matvecs},
        ) from None
    except ArpackError as exc:
        raise NumericError(f"Lanczos failed: {exc}",
                           {"message": str(exc), "matvecs": matvecs}) from None
    order = np.argsort(vals)
    vals = vals[order]
    vecs = _fix_vector_signs(vecs[:, order])
    true_res = np.linalg.norm(apply(vecs) - vecs * vals[None, :], axis=0)
    meta = {"solver": "lanczos", "dim": n, "basis": ncv, "matvecs": matvecs,
            "residuals": true_res, "matvec_s": matvec_s,
            "solve_s": time.perf_counter() - start}
    # ARPACK stops at ||r_i|| <= tol max(|theta_i|, eps^(2/3)); allow a 10x margin
    limit = 10.0 * tol * np.maximum(np.abs(vals), np.finfo(float).eps ** (2.0 / 3.0))
    if np.any(true_res > limit):
        raise NumericError(
            "Lanczos residuals exceed the tolerance",
            {"residuals": true_res.tolist(), "limits": limit.tolist(), "matvecs": matvecs},
        )
    return Spectrum(vals, vecs if want_vectors else None, meta)


def lowest_eigs(op, m: int, mode: str = "auto", want_vectors: bool = False,
                tol: float = 1e-9, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> Spectrum:
    """Lowest m eigenvalues of a TensorOperator or dense symmetric matrix.

    mode "dense" runs full symmetric eigendecompositions (allowed up
    to 8192 dims); "iterative" runs ARPACK's implicitly restarted
    Lanczos on the matrix-free operator (m <= 32); "auto" picks dense
    when it fits.  Iterative solves report the basis size, the operator
    applications ("matvecs"), the true residuals, and the seconds spent
    in the matvecs and in the whole solve ("matvec_s", "solve_s").

    A dense solve of a TensorOperator with two or more modes is split
    into the symmetry sectors found in its own matrix: the cosets of its
    Fock-parity changes, each split again by one commuting swap of two
    equal-dim modes.  Each sector gets its own eigh and the merged lowest
    m are returned; with no symmetry, or for a single mode or a plain
    array, there is one sector "all" and the result is that of one full
    eigh.  Dense solves report "sectors" (labels, dims, and the sector of
    each returned level), "sector_leak" (the Frobenius norm of the blocks
    treated as zero, a Weyl bound on the eigenvalue error) and the true
    residuals against the full matrix; a residual above sector_leak +
    c eps ||H||_F (c = _DENSE_RESIDUAL_C = 64) raises NumericError.
    """
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    if isinstance(op, np.ndarray):
        size = op.shape[0]
        if mode == "iterative":
            raise ConfigurationError("iterative mode needs a TensorOperator")
        if size > DENSE_DIM_LIMIT:
            raise ConfigurationError(f"dense solve limited to {DENSE_DIM_LIMIT} dims")
        if m > size:
            raise ConfigurationError("m exceeds operator dimension")
        return _dense_lowest(op, m, want_vectors)
    if mode == "auto":
        mode = "dense" if op.size <= DENSE_DIM_LIMIT else "iterative"
    if m > op.size:
        raise ConfigurationError("m exceeds operator dimension")
    if mode == "dense":
        if op.size > DENSE_DIM_LIMIT:
            raise ConfigurationError(f"dense solve limited to {DENSE_DIM_LIMIT} dims")
        return _dense_lowest(op.to_dense(), m, want_vectors, op.dims)
    if mode != "iterative":
        raise ConfigurationError(f"unknown solver mode {mode!r}")
    if m > ITERATIVE_M_LIMIT:
        raise ConfigurationError(f"iterative solver limited to m <= {ITERATIVE_M_LIMIT}")
    return _iterative_lowest(op, m, tol, want_vectors, memory_budget)
