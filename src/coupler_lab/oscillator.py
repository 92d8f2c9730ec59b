"""Product-grid machinery for the coupled-circuit Hamiltonian.

The circuit Hamiltonian, after normal-mode decomposition of its
quadratic part, is a sum of oscillator ladders and junction cosines

    H = sum_n w_n (a_n^dag a_n + 1/2)
      + sum_m [ C_m exp(i sum_n r_mn X_n) + h.c. ],    X_n = a_n + a_n^dag,

where each cosine term m comes from one junction, C_m carries half the
junction energy and the phase offset at the quadratic minimum, and
r_mn is the zero-point amplitude of coordinate m along mode n.  The
reduced two- and three-qubit problems (NA, LA, LN) have the same form:
qubit ladders plus a potential in the qubit fluxes.

Every multi-mode problem is held in a discrete variable representation
(Light, Hamilton & Lill, J. Chem. Phys. 82, 1400 (1985)).  Each mode's
basis is the eigenbasis U of its truncated quadrature X, whose
eigenvalues are the Gauss-Hermite nodes x.  Any function of the fluxes
is then diagonal on the product grid, so

    H = sum_n K_n + diag(V),    K_n = U^T diag(w_n (k + 1/2)) U,

with K_n a real dense d_n x d_n matrix acting on axis n of the grid and
V the potential at every grid point (see TensorOperator).  The nodes
are exactly antisymmetric and each eigenvector's ground component is
positive, so reflecting a mode's nodes, x -> -x, is its Fock parity
(-1)^k.  Functions of the quadrature are those of the truncated PXP,
where a Fock-factor build truncates P e^{irX} P; the two agree once the
basis is converged.

Single-mode problems (the coupler's levels and derivatives, each
qubit's subspace) live on the same grid: _junction_mode returns one
mode's kinetic factor, its junction potential and its flux nodes.  A
solve from scratch is lowest_eigs on the one-axis TensorOperator([K], V),
which takes its dense route: each qubit's four lowest levels
(qubit_subspace, since its double-well doublets, split down to about
2e-10, need both vectors), and the coupler's n_levels at a scalar bias,
or its two lowest at the first point of a grid of biases and wherever
the continuation along it fails (coupler._ground_track).  The
continuation works on the dense K + diag(V), bitwise to_dense(): it takes
Rayleigh-quotient steps, about one per bias, from the extrapolated
previous ground vectors, certified by Weyl's inequality from the last
anchor or else by a Cholesky factorization, and E_g'' is one
further solve, not a sum over every level: at 60 states on one BLAS
thread (x86-64, a shared host) an eigh took 470 to 520 us, one
np.linalg.solve about 62 us and one np.linalg.cholesky about 55 us.
The Fock-basis factors P e^{irX} P remain as the oracle the grid is
tested against: ho_exp_matrix builds them per element through
generalized Laguerre polynomials,

    <j|e^{irX}|k> = i^{k-j} sqrt(j!/k!) e^{-r^2/2} r^{k-j} L_j^{(k-j)}(r^2)

for j <= k, with the j > k entry equal by symmetry.

Every multi-mode solve runs in symmetry sectors found in the operator
itself, never from a flag (symmetry-adapted bases, as in Light &
Carrington, Adv. Chem. Phys. 114, 263 (2000)).  On the grid each
candidate symmetry is a permutation of grid points: the reflection of a
subset of modes, or one swap of two equal-dim modes (identical qubits)
that commutes with every accepted reflection.  A candidate P is
accepted when max|H - PHP| is at most _SECTOR_TOL eps max|H|
(_symmetries).  The accepted reflections split the operator, and each
sector keeps the product form on a folded grid: the reflection masks
are row-reduced over GF(2) so that each generator owns a pivot mode no
other generator contains, a sector is half of each pivot axis, and a
pivot mode's kinetic factor gains a term applied after reversing the
generator's other modes, so a sector's matvec is still GEMMs and flips
(_folded_sectors).  Every sector has op.size // |G| states: two
identical qubits at zero bias give two sectors of 800 states at 40x40
(NA, LA, LN) and four of 7,200 at 40x40x18 (exact).  A sector is
labelled by the least Fock-parity code carrying its reflection
character.  An operator with no reflection or an odd-length pivot axis
(its middle plane both halves would share) is the one sector "all", the
full space.  The Frobenius norm of H minus its reflection-group average
is reported as sector_leak.

Each sector is solved for its lowest m levels by a thick-restart
Lanczos (_lanczos; Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602
(2000)) through its matvec: a fixed basis of max(2m + 1, 20) vectors, a
start vector from fixed counters (_uniform, no numpy.random), numpy BLAS
throughout.  A later sector stops once its levels below the m-th kept so
far, and the first at or above it, have converged.  A sector of at most
that many states, where a Krylov basis cannot grow, and a one-axis
operator, whose matvec is already one dense product, get one
np.linalg.eigh of the matrix (to_dense) instead (lowest_eigs).  The
sectors are solved and dropped one at a time, so a solve holds one
sector's basis or matrix, and it loads numpy only.  Both routes share
one tail: the lowest m of all sectors, kept as each sector finishes, are
lifted straight into the rows of one (m, op.size) buffer (_lift), whose
transpose is the output, and their true residuals measured with the
full operator one row at a time.  Swaps are not folded (they break the
product form): each returned level's exchange parity is measured on its
vector instead and added to its label, with the swap diagonalized inside
any cluster of levels its residuals cannot separate
(_exchange_parities).  Assembly and the Lanczos workspace are checked
against DEFAULT_MEMORY_BUDGET, read at call time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ConfigurationError, NumericError, ResourceError, _whole

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
DEFAULT_MEMORY_BUDGET = 4 << 30
_LANCZOS_SEED = 175_1031
# restarts before a Lanczos solve gives up
_LANCZOS_MAXITER = 1000
# Lanczos's relative tolerance above DENSE_DIM_LIMIT states
_LANCZOS_TOL = 1e-9
# Lanczos's relative tolerance for an operator in the dense range: residuals
# of 2-4e-14 on the 40x40 operators, 100x inside the dense gate they are held to
_DENSE_RANGE_TOL = 1e-14
# Gram-Schmidt is repeated when it leaves less than this share of the norm
# (the DGKS test: Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772 (1976))
_DGKS = 0.717
# matvec workspace per state and column: the accumulator and one GEMM output
_MATVEC_BYTES = 8 + 8
# A grid permutation P counts as a symmetry when max|H - PHP| is at most
# _SECTOR_TOL eps max|H|: the exact circuit's normal-mode amplitudes come
# from an eigh, so its mode reflections hold to about 1e-14, not exactly.
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
    """Dense dim x dim matrix of exp(ir(a+a^dag)), complex symmetric."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    out = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        vals = _fused_diagonal(r, a, dim - a)
        phase = (1j) ** (a % 4)
        idx = np.arange(dim - a)
        out[idx, idx + a] = phase * vals
        if a:
            out[idx + a, idx] = phase * vals
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
        if not np.all((0.0 < self.freqs) & (self.freqs < np.inf)):
            raise ConfigurationError("mode frequencies must be positive and finite")
        if not (np.isfinite(self.displacements).all() and np.isfinite(self.amplitudes).all()):
            raise ConfigurationError("mode displacements and amplitudes must be finite")
        if np.any(np.diff(self.freqs) < 0.0):
            raise ConfigurationError("mode frequencies must be sorted ascending")
        n_terms, n_modes = self.displacements.shape
        if len(self.freqs) != n_modes or len(self.amplitudes) != n_terms:
            raise ConfigurationError("inconsistent mode/term counts")
        if self.dims is not None:
            object.__setattr__(self, "dims", tuple(_whole(d, "a dims entry") for d in self.dims))
            if len(self.dims) != n_modes or any(d < 1 for d in self.dims):
                raise ConfigurationError("dims must give a positive size per mode")


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
    sqrt(2 w_n) along mode n.  Modes of equal frequency (identical
    qubits) get a basis fixed by their span, not by the eigensolver.
    """
    qubits = list(system.qubits)
    e_ltc = float(system.e_ltc)
    zeta_c = float(system.zeta_c)
    if not (0.0 < e_ltc < math.inf and 0.0 < zeta_c < math.inf):
        raise ConfigurationError("coupler energies must be positive and finite")
    n = len(qubits) + 1
    kinetic = np.zeros(n)
    stiff = np.zeros((n, n))
    kinetic[0] = 4.0 * zeta_c**2 * e_ltc
    stiff[0, 0] = e_ltc
    for i, q in enumerate(qubits, start=1):
        if not (0.0 < q.e_lj < math.inf and 0.0 < q.zeta_j < math.inf):
            raise ConfigurationError(f"qubit {i} energies must be positive and finite")
        if not math.isfinite(q.alpha_j):
            raise ConfigurationError(f"qubit {i} alpha_j must be finite")
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
    vecs = _canonical_clusters(w2, vecs * flip, sq, stiff)
    disp = sq[:, None] * vecs / np.sqrt(2.0 * freqs)[None, :]
    offsets = np.empty(n)
    offsets[0] = system.phi_cx - sum(q.alpha_j * q.phi_jx for q in qubits)
    amps = np.empty(n, dtype=complex)
    amps[0] = 0.5 * system.beta_c * e_ltc * np.exp(1j * offsets[0])
    for i, q in enumerate(qubits, start=1):
        offsets[i] = q.phi_jx
        amps[i] = 0.5 * q.beta_j * q.e_lj * np.exp(1j * offsets[i])
    return NormalModeSystem(freqs, disp, amps, None if dims is None else tuple(dims))


def _canonical_clusters(w2: np.ndarray, vecs: np.ndarray, sq, stiff) -> np.ndarray:
    """vecs with a fixed, symmetry-adapted basis for each cluster of degenerate w2.

    w2 neighbours within 1024 eps max(w2) share a cluster.  eigh returns
    an arbitrary, LAPACK-dependent rotation of a cluster, which can hide
    the exchange symmetry of identical qubits.  The cluster's projector
    does not depend on it: its columns, Gram-Schmidt orthonormalized in
    coordinate order and skipping those already spanned, give the basis.

    In exact arithmetic the cluster's last basis vector is then the
    difference of two identical coordinates i, j (its two largest
    entries), and every mode is even or odd under their transposition t,
    which leaves the kinetic weights sq and the stiffness unchanged.  The
    eigensolver's rounding breaks that by about eps ||w2|| over the gap to
    the next frequency: 5e-14 relative for three identical qubits, enough
    to hide the last mode's reflection on large grids.  So when t leaves sq
    and stiff bitwise unchanged and every mode is within 1e-6 of even or
    odd, each mode v is set to (v +/- t v) / 2, which makes the reflection
    of that mode exact on the grid.  Two identical qubits make no
    cluster, so their modes keep eigh's output.
    """
    edges = np.flatnonzero(np.diff(w2) > 1024 * np.finfo(float).eps * w2[-1]) + 1
    vecs = vecs.copy()
    pairs = []
    for lo, hi in zip([0, *edges], [*edges, len(w2)]):
        if hi - lo < 2:
            continue
        proj = vecs[:, lo:hi] @ vecs[:, lo:hi].T
        basis = np.empty((len(w2), 0))
        for col in proj.T:
            v = col - basis @ (basis.T @ col)
            if np.linalg.norm(v) > 1e-3:  # a spanned column leaves rounding only
                basis = np.column_stack((basis, v / np.linalg.norm(v)))
        vecs[:, lo:hi] = basis[:, : hi - lo]
        pairs.append(np.argsort(np.abs(vecs[:, hi - 1]))[-2:])
    for i, j in pairs:
        t = np.arange(len(w2))
        t[[i, j]] = j, i
        parity = np.sum(vecs * vecs[t], axis=0)
        if (np.array_equal(sq[t], sq) and np.array_equal(stiff[t][:, t], stiff)
                and np.all(np.abs(parity) > 1.0 - 1e-6)):
            vecs = 0.5 * (vecs + np.sign(parity) * vecs[t])
    return vecs


@lru_cache(maxsize=16)
def _grid(dim: int):
    """Nodes x and eigenvectors U (Fock index by node) of the truncated X.

    The nodes are made exactly antisymmetric and each eigenvector's k = 0
    component positive, so U[k, dim - 1 - i] = (-1)^k U[k, i]: reversing
    the nodes is the Fock parity.  That component underflows at the outer
    nodes, so the sign is read off the last one instead: U[dim - 1, i] =
    U[0, i] p(x_i) with p the degree dim - 1 Hermite polynomial, whose
    sign at the nodes alternates, (-1)^(dim - 1 - i), and whose size is
    1/sqrt(dim) at every node.  Memoized and read-only.
    """
    n = np.sqrt(np.arange(1, dim))
    x, u = np.linalg.eigh(np.diag(n, 1) + np.diag(n, -1))
    x = (x - x[::-1]) / 2.0
    u = u * np.sign(u[-1]) * (-1.0) ** np.arange(dim - 1, -1, -1)
    x.flags.writeable = False
    u.flags.writeable = False
    return x, u


@lru_cache(maxsize=32)
def _kinetic(freq: float, dim: int) -> np.ndarray:
    """Ladder freq (k + 1/2) of one mode in its grid basis.

    Symmetric and reflection-symmetric in exact arithmetic; both are
    imposed bitwise, so a reflection of the grid is an exact symmetry
    whenever the potential has it.  Memoized and read-only.
    """
    _, u = _grid(dim)
    k = u.T @ ((freq * (np.arange(dim) + 0.5))[:, None] * u)
    k = 0.5 * (k + k.T)
    k = 0.5 * (k + k[::-1, ::-1])
    k.flags.writeable = False
    return k


def _cosine(c: complex, theta) -> np.ndarray:
    """A cosine term plus its conjugate, 2 Re(c e^{i theta})."""
    return 2.0 * (c * np.exp(1j * theta)).real


class TensorOperator:
    """Real symmetric operator sum_n K_n + diag(V) on a product grid.

    kinetic[n] is the d_n x d_n matrix acting on axis n of the grid and
    potential holds V at every grid point.  Immutable after construction;
    matvec is read-only and safe to call concurrently.
    """

    def __init__(self, kinetic, potential):
        self.kinetic = tuple(np.asarray(k, dtype=float) for k in kinetic)
        self.dims = tuple(k.shape[0] for k in self.kinetic)
        if any(k.shape != (d, d) for k, d in zip(self.kinetic, self.dims)):
            raise ConfigurationError("kinetic factors must be square")
        self.size = int(np.prod(self.dims))
        self.potential = np.asarray(potential, dtype=float).reshape(self.dims)
        # a reflection sector's extra terms (set by _folded_sectors): axis n ->
        # (K_n stacked over B, flips, the index reversing them), B acting on
        # axis n of the grid reversed along the axes flips; one GEMM gives
        # both products
        self._reflected = {}
        # the states before and after each axis in C order, and K_n^T made
        # contiguous where nothing follows axis n: matvec's view @ K_n^T is
        # about twice as slow with a transposed operand
        self._sides = [(math.prod(self.dims[:n]), math.prod(self.dims[n + 1:]))
                       for n in range(len(self.dims))]
        self._transposed = {n: np.ascontiguousarray(k.T) for n, (k, (_, after))
                            in enumerate(zip(self.kinetic, self._sides)) if after == 1}

    @property
    def shape(self):
        return (self.size, self.size)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply to one real vector (size,) or a real block (size, b).

        The input and the accumulator are viewed, without a copy, as C-order
        (lead, dims..., trail) arrays: lead = 1 and trail = b for a vector or
        a C-order block, lead = b and trail = 1 for a Fortran-order block
        (such as transposed Ritz vectors); any other layout is copied to C
        order first.  Each K_n is one np.matmul on the (before, d_n, after)
        view: a single GEMM when nothing comes before axis n, view @ K_n^T
        when nothing comes after it, a batch of GEMMs otherwise, added into
        the same view of the accumulator.  The peak workspace is
        _MATVEC_BYTES per state and column.  On an axis with a reflected term
        the product takes K_n stacked over B, twice as tall, and its lower
        half is added reversed along that term's flips (which B commutes
        with).
        """
        v = np.asarray(v)
        if np.iscomplexobj(v):
            raise ValueError("TensorOperator acts on real vectors")
        t = v.reshape(self.dims + (-1,))
        a = t if t.flags.c_contiguous else np.moveaxis(t, -1, 0)
        if not a.flags.c_contiguous:
            t = a = np.ascontiguousarray(t)
        # empty_like keeps t's layout, so acc is C-ordered as a is
        out = np.multiply(self.potential[..., None], t, out=np.empty_like(t, dtype=float))
        acc, lead, trail = (out, 1, t.shape[-1]) if a is t else (np.moveaxis(out, -1, 0),
                                                                  t.shape[-1], 1)
        grid = (lead,) + self.dims + (trail,)
        for n, (d, (before, after)) in enumerate(zip(self.dims, self._sides)):
            k, _, reverse = self._reflected.get(n, (self.kinetic[n], None, None))
            shape = (lead * before, d, after * trail)
            if shape[0] == 1:
                z = (k @ a.reshape(shape[1:]))[None]
            elif shape[2] == 1:
                # no reflected term here: its flips are later axes, and an
                # operator with a one-state axis does not fold
                z = (a.reshape(shape[:2]) @ self._transposed[n])[..., None]
            else:
                z = np.matmul(k, a.reshape(shape))
            view = acc.reshape(shape)
            view += z[:, :d]
            if reverse is not None:
                view = acc.reshape(grid)
                view += z[:, d:].reshape(grid)[reverse]
            del z  # before the next product is allocated
        return out.reshape(v.shape)

    def to_dense(self) -> np.ndarray:
        """Dense (size, size) matrix diag(V) + sum_n I (x) K_n (x) I.

        Each K_n is added through a writeable einsum view of the entries
        it fills (equal indices on every other mode), so the build holds
        one size x size matrix, in the order matvec sums its terms.  A
        folded sector's reflected term B on axis n is added the same way
        after K_n, through the view with the column axes of its flips
        reversed, so the matrix is bitwise matvec's image of the identity.
        lowest_eigs builds each sector's dense matrix with it, and the
        tests use it as the oracle the solvers are checked against.
        """
        if self.size > DENSE_DIM_LIMIT:
            raise ResourceError(
                f"dense materialization of a {self.size}-dim operator exceeds the"
                f" {DENSE_DIM_LIMIT}-dim limit"
            )
        n_modes = len(self.dims)
        out = np.diag(self.potential.ravel())
        grid = out.reshape(self.dims * 2)
        rows = "".join(chr(ord("a") + n) for n in range(n_modes))
        for n, k in enumerate(self.kinetic):
            # row indices rows, column indices rows with axis n's made free (Z)
            entries = f"{rows}{rows[:n]}Z{rows[n + 1:]}->{rows}Z"
            terms = [(k, ())]
            if n in self._reflected:
                stacked, flips, _ = self._reflected[n]
                terms.append((stacked[len(k):], flips))
            for term, flips in terms:
                view = np.einsum(entries, np.flip(grid, tuple(n_modes + f for f in flips)))
                view[...] += term.reshape((1,) * n + term.shape[:1] + (1,) * (n_modes - n - 1)
                                          + term.shape[1:])
        return out


def assemble_tensor_operator(system: NormalModeSystem) -> TensorOperator:
    """Build the grid operator of a normal-mode system.

    Mode n carries the ladder w_n (k + 1/2) as its kinetic factor; the
    junction cosines are the potential V = sum_m 2 Re(C_m e^{i sum_n
    r_mn x_n}) on the product grid.  The potential and the matvec
    workspace are checked against DEFAULT_MEMORY_BUDGET before anything
    is allocated.
    """
    if system.dims is None:
        raise ConfigurationError("system has no dims; pass dims to normal_modes")
    dims = system.dims
    need = int(np.prod(dims)) * (8 + _MATVEC_BYTES)
    if need > DEFAULT_MEMORY_BUDGET:
        raise ResourceError(
            f"assembly needs ~{need / 2**20:.0f} MiB,"
            f" over the {DEFAULT_MEMORY_BUDGET / 2**20:.0f} MiB budget"
        )
    xs = np.meshgrid(*(_grid(d)[0] for d in dims), indexing="ij", sparse=True)
    potential = np.zeros(dims)
    for c, rs in zip(system.amplitudes, system.displacements):
        potential += _cosine(c, sum(r * x for r, x in zip(rs, xs)))
    kinetic = [_kinetic(w, d) for w, d in zip(system.freqs, dims)]
    return TensorOperator(kinetic, potential)


class _JunctionGrid:
    """One junction oscillator on its grid, at any bias phase.

    The phase-free parts are made once: the kinetic factor K, the ladder
    2 zeta e_l (k + 1/2); the flux nodes sqrt(zeta) x; and e^{i flux}.
    potential(phase) is the junction pair with half amplitude
    (beta e_l / 2) e^{i phase}, 2 Re(c e^{i flux}) as _cosine forms it,
    and matrix(V) is the dense K + diag(V).
    """

    def __init__(self, zeta: float, beta: float, dim: int, e_l: float = 1.0):
        self.flux = math.sqrt(zeta) * _grid(dim)[0]
        self.kinetic = _kinetic(2.0 * zeta * e_l, dim)
        self._half = 0.5 * beta * e_l
        self._nodes = np.exp(1j * self.flux)

    def potential(self, phase: float) -> np.ndarray:
        return 2.0 * (self._half * np.exp(1j * phase) * self._nodes).real

    def matrix(self, potential: np.ndarray) -> np.ndarray:
        h = self.kinetic.copy()
        h.ravel()[::len(h) + 1] += potential
        return h


def _junction_mode(zeta: float, beta: float, phase: float, dim: int, e_l: float = 1.0):
    """One biased junction oscillator on its grid: (K, V, flux nodes).

    The single-mode problem shared by the coupler and each qubit, whose
    dense matrix is K + diag(V), and each qubit's part of the reduced
    problems (see _JunctionGrid).
    """
    mode = _JunctionGrid(zeta, beta, dim, e_l)
    return mode.kinetic, mode.potential(phase), mode.flux


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
    """Negate, in place, each column whose largest-magnitude entry (the
    first, on a tie) is negative; returns vecs.  One column at a time, so
    the only temporary is one column long."""
    for v in vecs.T:
        if v[np.argmax(np.abs(v))] < 0.0:
            v *= -1.0
    return vecs


def _entry_norms(kinetic, potential):
    """Largest |entry| and squared Frobenius norm of sum_n K_n + diag(V)."""
    dims = potential.shape
    diag = potential
    peak, squares = 0.0, 0.0
    for n, k in enumerate(kinetic):
        d = np.diagonal(k)
        diag = diag + d.reshape((-1,) + (1,) * (len(dims) - 1 - n))
        off = k - np.diag(d)
        peak = max(peak, float(np.max(np.abs(off))))
        squares += potential.size // dims[n] * float(np.sum(off * off))
    return max(peak, float(np.max(np.abs(diag)))), squares + float(np.sum(diag * diag))


def _asymmetry(op: TensorOperator, flips, swap):
    """Kinetic factors and potential of H - PHP for the grid permutation P
    that reverses the nodes of the modes in `flips` and swaps the mode
    pair `swap` (None for no swap)."""
    kinetic, potential = list(op.kinetic), op.potential
    if swap is not None:
        i, j = swap
        kinetic[i], kinetic[j] = kinetic[j], kinetic[i]
        potential = potential.swapaxes(i, j)
    for n in flips:
        kinetic[n] = kinetic[n][::-1, ::-1]
    return ([a - b for a, b in zip(op.kinetic, kinetic)],
            op.potential - np.flip(potential, flips))


def _modes(mask: int, n_modes: int) -> tuple:
    """The modes whose bits are set in mask."""
    return tuple(n for n in range(n_modes) if mask >> n & 1)


def _symmetries(op: TensorOperator):
    """Grid symmetries of op: (group, swap, squared Frobenius norm of H).

    The candidates are the reflections of every nonempty subset of modes,
    then the first swap of two equal-dim modes that commutes with every
    accepted reflection; each is tested on op's kinetic factors and
    potential, and accepted when max|H - PHP| is at most _SECTOR_TOL eps
    max|H|.  group lists the reflection masks the accepted reflections
    generate, closed under XOR, with the k-th accepted generator at index
    2^k; swap is the accepted pair or None.  One mode has no symmetry.
    """
    n_modes = len(op.dims)
    peak, squares = _entry_norms(op.kinetic, op.potential)
    if n_modes == 1:
        return [0], None, squares
    tol = _SECTOR_TOL * np.finfo(float).eps * peak

    def commutes(flips, swap=None):
        return _entry_norms(*_asymmetry(op, flips, swap))[0] <= tol

    group = [0]
    for mask in range(1, 1 << n_modes):
        if mask not in group and commutes(_modes(mask, n_modes)):
            group += [g ^ mask for g in group]
    swap = next((pair for pair in combinations(range(n_modes), 2)
                 if op.dims[pair[0]] == op.dims[pair[1]]
                 and all((g >> pair[0] ^ g >> pair[1]) & 1 == 0 for g in group)
                 and commutes((), pair)), None)
    return group, swap, squares


def _sector_leak(op: TensorOperator, group) -> float:
    """Frobenius norm of H minus its average over the reflection masks group."""
    if len(group) == 1:
        return 0.0  # the trivial group's average is H itself
    n_modes = len(op.dims)
    odd_k, odd_v = [0.0] * n_modes, 0.0
    for g in group:
        dk, dv = _asymmetry(op, _modes(g, n_modes), None)
        odd_k = [a + b for a, b in zip(odd_k, dk)]
        odd_v = odd_v + dv
    return math.sqrt(_entry_norms([k / len(group) for k in odd_k], odd_v / len(group))[1])


def _parity_labels(group, n_modes: int) -> dict:
    """Each reflection character (the parity it gives each group element,
    in group order) labelled by the least Fock-parity code carrying it."""
    labels = {}
    for c in range(1 << n_modes):
        labels.setdefault(tuple(bin(g & c).count("1") % 2 for g in group),
                          "".join(str(c >> n & 1) for n in range(n_modes)))
    return labels


def _residual_bound(leak: float, h_norm: float) -> float:
    """The dense residual gate, leak + _DENSE_RESIDUAL_C eps h_norm."""
    return leak + _DENSE_RESIDUAL_C * np.finfo(float).eps * h_norm


def _folded_sectors(op: TensorOperator, group):
    """Reflection sectors of op, each a TensorOperator on a folded grid.

    The generators of op's reflection group (_symmetries' group) are
    row-reduced over GF(2) so that each owns a pivot mode (its lowest) that
    no other generator contains.  A sector vector is then fixed by its
    values u on the first half of every pivot axis: for the character chi
    it is |G|^(-1/2) sum_g chi(g) P_g E u, with E the embedding of those
    halves (see _lift).  On u the operator keeps the product form: V sliced
    to the halves, and on the pivot axis p of generator g, K_p[:h, :h] plus
    chi(g) K_p[:h, ::-1][:, :h] applied after reversing g's other modes
    (summed into one factor when g has none).  Each sector is labelled by
    the least Fock-parity code carrying its character.  Returns the group,
    the pivots and a list of (label, operator, chi over group), every
    operator of size // len(group) states; the full space, the one-sector
    fold [0], (), [("all", op, [1.0])], when op has no reflection or a
    pivot axis has odd length (its middle plane both halves would share).
    """
    n_modes = len(op.dims)
    rows = []  # (pivot, generator)
    for g in (group[1 << i] for i in range(len(group).bit_length() - 1)):
        for p, r in rows:
            if g >> p & 1:
                g ^= r
        p = (g & -g).bit_length() - 1
        rows = [(q, r ^ g if r >> p & 1 else r) for q, r in rows] + [(p, g)]
    half = {p: op.dims[p] // 2 for p, _ in rows}
    if not rows or any(op.dims[p] % 2 for p in half):
        return [0], (), [("all", op, [1.0])]
    potential = np.ascontiguousarray(
        op.potential[tuple(slice(half.get(n)) for n in range(n_modes))])
    sectors = []
    for parity, label in _parity_labels(group, n_modes).items():
        chi = [(-1) ** bit for bit in parity]
        kinetic, reflected = list(op.kinetic), {}
        for p, g in rows:
            k, h = op.kinetic[p], half[p]
            b = chi[group.index(g)] * k[:h, ::-1][:, :h]
            flips = _modes(g & ~(1 << p), n_modes)
            kinetic[p] = k[:h, :h] if flips else k[:h, :h] + b
            if flips:
                # np.flip(t, flips) as one precomputed index into matvec's
                # (lead, dims..., trail) view
                reverse = (slice(None), *(slice(None, None, -1 if m in flips else None)
                                          for m in range(n_modes)))
                reflected[p] = (np.vstack((kinetic[p], b)), flips, reverse)
        sub = TensorOperator(kinetic, potential)
        sub._reflected = reflected
        sectors.append((label, sub, chi))
    return group, tuple(half), sectors


def _lift(u: np.ndarray, grid: np.ndarray, pivots, group, chi) -> None:
    """Write the folded sector vector u into grid, its full-grid (dims) view.

    Group element g fills the block holding the second half of each pivot
    axis it reverses and the first half of the others, with chi(g)
    |G|^(-1/2) times u reversed along all of g's modes.
    """
    dims = grid.shape
    n_modes = len(dims)
    t = u.reshape(tuple(d // 2 if n in pivots else d for n, d in enumerate(dims)))
    scale = 1.0 / math.sqrt(len(group))
    for g, x in zip(group, chi):
        block = tuple(slice(None) if n not in pivots
                      else slice(dims[n] // 2, None) if g >> n & 1 else slice(dims[n] // 2)
                      for n in range(n_modes))
        grid[block] = (x * scale) * np.flip(t, _modes(g, n_modes))


def _residuals(apply, vals, vecs) -> np.ndarray:
    """||H v - theta v|| of each column v of vecs and its value theta, with H
    applied by apply to one column at a time (a contiguous row of vecs.T,
    as lowest_eigs lays them out)."""
    return np.array([np.linalg.norm(apply(v) - theta * v) for theta, v in zip(vals, vecs.T)])


def _exchange_parities(apply, dims: tuple, swap, vals, vecs, resid):
    """Each level's parity under the swap S of two grid axes, +1 or -1.

    The parity is the sign of <v|S|v>.  As S commutes with H, it couples
    two levels by at most |<v_i|S|v_j>| <= (r_i + r_j) / |theta_i -
    theta_j|, with r the residuals; so where neighbouring levels lie
    within 4 (r_i + r_j) of each other, the vectors of that cluster are
    rotated to the eigenvectors of S within it, and their residuals are
    measured again with apply, which is H by matvec (_residuals).  vecs is
    the transpose of a C-order (m, n) buffer, so S of every vector is one
    m x n copy, freed before any rotation.  Returns (vecs, resid,
    parities), the vectors sign-fixed.
    """
    n, m = vecs.shape
    swapped = vecs.T.reshape((m,) + dims).swapaxes(1 + swap[0], 1 + swap[1]).reshape(m, n)
    overlap = vecs.T @ swapped.T
    del swapped
    parities = np.where(np.diagonal(overlap) < 0.0, -1.0, 1.0)
    edges = [0, *(np.flatnonzero(np.diff(vals) > 4.0 * (resid[:-1] + resid[1:])) + 1), m]
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo > 1:
            sign, q = np.linalg.eigh(overlap[lo:hi, lo:hi])
            vecs[:, lo:hi] = _fix_vector_signs(vecs[:, lo:hi] @ q)
            parities[lo:hi] = np.where(sign < 0.0, -1.0, 1.0)
            resid[lo:hi] = _residuals(apply, vals[lo:hi], vecs[:, lo:hi])
    return vecs, resid, parities


def _uniform(start: int, n: int) -> np.ndarray:
    """n numbers in [-1, 1), one per counter start, ..., start + n - 1.

    Counter c gives the c-th output of splitmix64 seeded at 0 (Steele, Lea
    & Flood, OOPSLA 2014): a few wrapping uint64 multiplies and xor-shifts
    of c gamma, its top 53 bits scaled to [-1, 1).  Every counter is mixed
    on its own, so a stream is the same on every platform and takes no
    generator state and no numpy.random.
    """
    z = np.arange(start, start + n, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    x = z * 2.0 ** -52
    x -= 1.0
    return x


def _lanczos(apply, n: int, m: int, ncv: int, tol: float, bound: float = math.inf):
    """Lowest m eigenpairs (ascending values, (n, k) vectors) of the
    symmetric operator apply on R^n, by thick-restart Lanczos; given a
    bound, only those below it and the first at or above it (k <= m).

    The basis grows to ncv vectors, one application each, from a start
    vector of _uniform numbers from the counter _LANCZOS_SEED on.  Each new
    vector w = H v_j first loses what the recurrence knows, alpha_j v_j
    (alpha_j = v_j^T w) and t[j, j-1] v_{j-1}, or after a restart the
    arrowhead row against the kept Ritz vectors; then one Gram-Schmidt pass
    against the whole basis, a second when the first leaves less than _DGKS
    of the norm the local step left.  If the second pass cancels too, the
    basis spans an invariant subspace and a new vector of the next n
    counters, uncoupled, takes its place.  The projected matrix T is then
    the Rayleigh quotient of the basis, and its eigenpairs (theta_i, y_i)
    give Ritz pairs with residual norms beta |y_i[-1]|, beta the norm of
    the last new vector.  A pair is converged at beta |y_i[-1]| <= tol
    max(|theta_i|, eps^(2/3)), ARPACK's test.  The solve stops when the
    lowest k are: k = m, or with a bound one more than the count of the
    lowest m values below it, as Ritz values bound eigenvalues from above.
    Until then the basis restarts from the Ritz vectors of the lowest m +
    min(nconv, (ncv - m) // 2) values (ncv // 2 where that is 1), nconv
    counted among the lowest m, ARPACK's dsaup2 rule, plus the last new
    vector: T is then diagonal with one arrowhead row beta y_i[-1] (Wu &
    Simon 2000), and the basis grows again.  After _LANCZOS_MAXITER
    restarts NumericError is raised.

    The basis of ncv + 1 vectors and one buffer of ncv for the restart's
    product are the whole workspace; the returned vectors are the first k
    rows of that buffer, transposed.
    """
    basis = np.empty((ncv + 1, n))
    basis[0] = _uniform(_LANCZOS_SEED, n)
    basis[0] /= math.sqrt(basis[0] @ basis[0])
    product = np.empty((ncv, n))
    drawn = n
    t = np.zeros((ncv, ncv))
    kept = applications = 0
    for _ in range(_LANCZOS_MAXITER):
        for j in range(kept, ncv):
            w = apply(basis[j])
            applications += 1
            # the local step: t[j, lo:j] holds the couplings the recurrence
            # set, t[j, j] = alpha_j
            t[j, j] = basis[j] @ w
            lo = 0 if j == kept else j - 1
            w -= basis[lo:j + 1].T @ t[j, lo:j + 1]
            # math.sqrt(w @ w) is np.linalg.norm(w) of a real vector, without its checks
            norm = math.sqrt(w @ w)
            if not math.isfinite(norm):
                raise NumericError("Lanczos failed: the operator gave non-finite values",
                                   {"message": f"norm {norm} after {applications} applications",
                                    "matvecs": applications})
            h = basis[:j + 1] @ w
            w -= basis[:j + 1].T @ h
            beta = math.sqrt(w @ w)
            if beta <= _DGKS * norm:
                again = basis[:j + 1] @ w
                w -= basis[:j + 1].T @ again
                h += again
                norm, beta = beta, math.sqrt(w @ w)
                if beta <= _DGKS * norm:
                    w = _uniform(_LANCZOS_SEED + drawn, n)
                    drawn += n
                    w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
                    w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
                    w /= math.sqrt(w @ w)
                    beta = 0.0
            t[j, j] += h[j]
            if j + 1 < ncv:
                t[j, j + 1] = t[j + 1, j] = beta
            basis[j + 1] = w / beta if beta else w
        theta, y = np.linalg.eigh(t)
        bounds = beta * np.abs(y[-1])
        done = bounds[:m] <= tol * np.maximum(np.abs(theta[:m]), np.finfo(float).eps ** (2 / 3))
        k = min(m, int(np.count_nonzero(theta[:m] < bound)) + 1)
        if done[:k].all():
            return theta[:k], np.matmul(y[:, :k].T, basis[:ncv], out=product[:k]).T
        nconv = int(np.count_nonzero(done))
        kept = m + min(nconv, (ncv - m) // 2)
        kept = ncv // 2 if kept == 1 else kept
        basis[:kept] = np.matmul(y[:, :kept].T, basis[:ncv], out=product[:kept])
        basis[kept] = basis[ncv]
        t[:] = 0.0
        t[np.arange(kept), np.arange(kept)] = theta[:kept]
        t[kept, :kept] = t[:kept, kept] = beta * y[-1, :kept]
    raise NumericError(f"Lanczos did not converge in {_LANCZOS_MAXITER} restarts",
                       {"converged": nconv, "wanted": m, "matvecs": applications})


def _merged(levels: list, s: int, vals, vecs, m: int) -> list:
    """The lowest m of levels and sector s's pairs (vals, the columns of
    vecs), as ascending (value, sector, vector) triples.

    sorted is stable, so equal values keep sector order, as one sort of
    every sector's pairs would.  Only the kept columns of vecs are copied,
    so vecs and the solve's workspace can be freed at once.
    """
    merged = sorted(levels + [(value, s, vecs[:, j]) for j, value in enumerate(vals)],
                    key=lambda level: level[0])[:m]
    return [(value, t, u.copy() if t == s else u) for value, t, u in merged]


def lowest_eigs(op: TensorOperator, m: int, want_vectors: bool = False) -> Spectrum:
    """Lowest m eigenvalues of a TensorOperator, solved sector by sector.

    Every eigenproblem of the package solved from scratch comes here: the
    exact circuit, the reduced NA, LA and LN problems, and the single
    junction modes (the coupler's levels, each qubit's subspace) as one-axis
    operators.  The operator is split once into the reflection sectors of
    its symmetries (_symmetries, _folded_sectors; see the module
    docstring), all of one size: op.size // len(group), or op.size when
    nothing folds, the one sector "all".  Each sector is solved for its
    lowest m levels in one of two ways, picked by that size and the
    operator's axes:

    - Lanczos, when it holds more states than the Lanczos basis ncv =
      max(2m + 1, 20) and the operator has more than one axis: a
      thick-restart Lanczos (_lanczos) on the sector's matrix-free
      operator, with a fixed basis of ncv vectors restarted in place as
      ARPACK's implicit restart would (Lehoucq & Sorensen, SIAM J. Matrix
      Anal. Appl. 17, 789 (1996); Wu & Simon 2000) and a start vector from
      fixed counters (_uniform), so repeated solves are bitwise equal.  The
      first sector (the identity character, so the ground level) converges
      its lowest m pairs, each later one only those below the m-th lowest
      level kept so far and the first at or above it.  Its workspace is
      checked against DEFAULT_MEMORY_BUDGET before any matvec;
    - dense otherwise, where a basis of ncv vectors cannot grow, or where
      the one-axis matvec is itself a full dense product: one
      np.linalg.eigh of the sector's matrix (to_dense), whose lowest
      min(m, size) pairs are kept.

    Both then share one tail.  As each sector finishes, only its levels
    that can still be among the lowest m of all sectors are kept, copied
    out of its solve (_merged), so a Lanczos solve holds one sector's basis
    and restart product and at most m folded vectors at a time.  The kept
    vectors are then lifted straight into the contiguous rows of one (m, n)
    buffer (_lift), whose transpose is the (n, m) output, sign-fixed in
    place, and their true residuals measured with the full operator, one
    matvec per row (_residuals).  When _symmetries accepts a swap of two
    identical modes, which the fold does not use, each level's exchange
    parity is measured on its vector and appended to its label, + or -
    (_exchange_parities), at any size.  Up to DENSE_DIM_LIMIT states
    Lanczos runs at the relative tolerance _DENSE_RANGE_TOL (1e-14) and
    every residual must meet the dense gate, sector_leak + c eps ||H||_F
    (c = _DENSE_RESIDUAL_C = 64).  Above it Lanczos runs at _LANCZOS_TOL
    (1e-9), and a residual above both 10 _LANCZOS_TOL |lambda| and the
    dense gate fails.  A failed gate raises NumericError.

    Every solve reports "solver" ("dense" or "lanczos"), "dim", the true
    "residuals", "sector_leak" (the Frobenius norm of H minus its average
    over the reflection group) and "sectors" (the fold's labels and dims,
    and the label of each returned level).  "error_bounds" gives each
    level's residual norm ||H v - theta v|| / ||v||, which bounds the
    distance from theta to an eigenvalue of the symmetric H, so an
    excitation theta_i - theta_0 is resolved only above the sum of its two
    levels' bounds.  Lanczos solves also report the basis size, the
    operator applications ("matvecs": every sector-vector application plus
    the rows of the full-size residual checks, and each sector's own
    applications as the sectors' "matvecs"), the seconds spent in
    the matvecs and in the whole solve ("matvec_s", "solve_s"), and the
    workspace estimate the budget check used ("workspace_bytes").  An op
    that is not a TensorOperator raises ConfigurationError.
    """
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    if not isinstance(op, TensorOperator):
        raise ConfigurationError(f"lowest_eigs needs a TensorOperator, got {type(op).__name__}")
    if m > op.size:
        raise ConfigurationError("m exceeds operator dimension")
    dense_range = op.size <= DENSE_DIM_LIMIT
    start = time.perf_counter()
    n, ncv = op.size, max(2 * m + 1, 20)
    tol = _DENSE_RANGE_TOL if dense_range else _LANCZOS_TOL
    group, swap, squares = _symmetries(op)
    group, pivots, sectors = _folded_sectors(op, group)
    size = n // len(group)
    # the Lanczos basis needs m < ncv < size; one axis is one dense product
    lanczos = size > ncv and len(op.dims) > 1
    if lanczos:
        # per sector (8 bytes per state each): the basis of ncv + 1 vectors,
        # the restart's product buffer of ncv, the m levels kept from earlier
        # sectors, the folded potential, the last new vector (held while the
        # next is applied) and a one-vector matvec (_MATVEC_BYTES, plus the
        # reflected half of a stacked product); then the m x n output, the
        # residual check's one-row matvec and, with a swap, its m x n image
        work_bytes = (8 * size * (2 * ncv + m + 5) + _MATVEC_BYTES * size
                      + (8 * m * (1 if swap is None else 2) + _MATVEC_BYTES) * n)
        if work_bytes > DEFAULT_MEMORY_BUDGET:
            raise ResourceError(
                f"Lanczos solve would need ~{work_bytes / 2**20:.0f} MiB,"
                f" over the {DEFAULT_MEMORY_BUDGET / 2**20:.0f} MiB budget"
            )
    matvecs = 0
    matvec_s = 0.0

    def applied(sub):
        def apply(v):
            nonlocal matvecs, matvec_s
            matvecs += 1 if v.ndim == 1 else v.shape[1]
            begin = time.perf_counter()
            out = sub.matvec(v)
            matvec_s += time.perf_counter() - begin
            return out
        return apply

    def solve(sub, bound):
        if lanczos:
            return _lanczos(applied(sub), sub.size, m, ncv, tol, bound)
        vals, vecs = np.linalg.eigh(sub.to_dense())
        return vals[:m], vecs[:, :m]

    found = []  # (value, sector, folded vector) of the lowest m so far
    sector_matvecs = []
    for s, (_, sub, _) in enumerate(sectors):
        # a later sector's levels count only below the m-th kept so far
        bound = found[-1][0] if len(found) == m else math.inf
        before = matvecs
        found = _merged(found, s, *solve(sub, bound), m)
        sector_matvecs.append(matvecs - before)
    labels = tuple(label for label, _, _ in sectors)
    leak = _sector_leak(op, group)
    vals = np.array([value for value, _, _ in found])
    levels = tuple(labels[s] for _, s, _ in found)
    rows = np.empty((m, n))
    grid = rows.reshape((m,) + op.dims)
    for j, (_, s, u) in enumerate(found):
        _lift(u, grid[j], pivots, group, sectors[s][2])
    del found  # the folded copies go before the full-size residual checks
    vecs = _fix_vector_signs(rows.T)
    apply = applied(op)
    resid = _residuals(apply, vals, vecs)
    if swap is not None:
        vecs, resid, parities = _exchange_parities(apply, op.dims, swap, vals, vecs, resid)
        levels = tuple((level if level != "all" else "") + ("+" if p > 0 else "-")
                       for level, p in zip(levels, parities))
    if dense_range:
        bound = _residual_bound(leak, math.sqrt(squares))
        if not np.all(resid <= bound):
            raise NumericError(
                "eigenvector residuals exceed the dense bound",
                {"residuals": resid.tolist(), "bound": bound, "sector_leak": leak,
                 "sectors": list(labels), "matvecs": matvecs},
            )
    else:
        # Lanczos stops at ||r_i|| <= tol max(|theta_i|, eps^(2/3)); allow a 10x
        # margin, and never ask for less than the dense gate, the rounding of
        # any residual at this ||H||
        limit = np.maximum(10.0 * tol * np.abs(vals), _residual_bound(leak, math.sqrt(squares)))
        if np.any(resid > limit):
            raise NumericError(
                "Lanczos residuals exceed the tolerance",
                {"residuals": resid.tolist(), "limits": limit.tolist(), "matvecs": matvecs},
            )
    # the column norms of np.linalg.norm(vecs, axis=0), without its two n x m temporaries
    meta = {"solver": "lanczos" if lanczos else "dense", "dim": n, "residuals": resid,
            "error_bounds": resid / np.sqrt(np.einsum("ij,ij->j", vecs, vecs)),
            "sector_leak": leak,
            "sectors": {"labels": labels, "dims": (size,) * len(sectors), "levels": levels}}
    if lanczos:
        meta["sectors"]["matvecs"] = tuple(sector_matvecs)
        meta.update(basis=ncv, matvecs=matvecs, matvec_s=matvec_s,
                    solve_s=time.perf_counter() - start, workspace_bytes=work_bytes)
    return Spectrum(vals, vecs if want_vectors else None, meta)
