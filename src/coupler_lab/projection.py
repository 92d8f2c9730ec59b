"""Qubit-subspace reduction of the coupler-mediated interaction.

Each qubit is diagonalized on its own Gauss-Hermite grid, where its
flux is diagonal, and truncated to its two lowest eigenstates.  Every
projection goes through one per-node Pauli table per qubit: the (n, 4)
Pauli coefficients of w w^T at each node, w the node's row of the two
qubit vectors, so a function f of the flux projects to sum_k f(phi_k)
times row k.  The interaction E_g(phi_cx - sum_j alpha_j phi_j) reduces,
term by Fourier term, to products of single-qubit Pauli coefficients

    e^{-is phi_j} -> c_I(s) I + c_x(s) sx + c_y(s) sy + c_z(s) sz,

each row of c one product of the node phases with that table, giving
the coupling table g_labels = E_Ltc sum_nu B_nu e^{i nu phi_cx}
prod_j c_{label_j}(nu alpha_j).  Any other interaction potential is
diagonal on the qubits' product grid, so its table is one contraction
of the potential with the same tables, axis by axis: the linear theory
projects E_g expanded to second order in the total qubit flux that way.

Two cheaper routes to g_xx for identical unbiased qubits are included:
a Gaussian closed form over the reference state (|0> + |1>)/sqrt(2)
and a pair sum over the grid nodes of the second-order finite
difference of E_g, plus the closed-form bound on the linear theory's
error.

Conventions: sz = |0><0| - |1><1| in the energy eigenbasis; eigenvector
phases are fixed so phi_p = <0|phi|1> >= 0; zeta_eff is the central
variance of the reference state (it equals zeta_j in the harmonic
limit).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coupler import EgSeries
from .errors import ConfigurationError, NumericError, _whole
from .oscillator import TensorOperator, _junction_mode, lowest_eigs

__all__ = [
    "CouplingTable",
    "QubitParams",
    "QubitSubspace",
    "ResonanceWarning",
    "couplings",
    "gxx_gaussian",
    "gxx_quadrature",
    "linear_couplings",
    "linear_error_bound",
    "pauli_exp_coeffs",
    "qubit_subspace",
    "resonance_check",
]

PAULI_LABELS = "Ixyz"
# the qubit grid size n_basis that qubit_subspace, coupling_scan and [numerics] default to
_QUBIT_BASIS = 60
# relative distance of E_2 - E_0 from a sum of two splittings that counts as a resonance
_RESONANCE_WINDOW = 0.02


class ResonanceWarning(UserWarning):
    """A multi-qubit resonance threatens the two-level reduction."""


@dataclass(frozen=True)
class QubitParams:
    """Flux-qubit parameters; e_lj is E_Lj in the global energy unit."""

    beta_j: float
    zeta_j: float
    e_lj: float = 1.0
    phi_jx: float = 0.0
    alpha_j: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.beta_j < math.inf:
            raise ConfigurationError(f"beta_j must be nonnegative and finite, got {self.beta_j}")
        for name in ("zeta_j", "e_lj"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        for name in ("alpha_j", "phi_jx"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class QubitSubspace:
    """Two-level reduction of a single qubit.

    energies holds the lowest few levels in the global unit (at least
    E_0 <= E_1).  The qubit is solved on the n_basis-point grid of its
    quadrature, where the flux operator phi_jx + sqrt(zeta) (a + a^dag)
    is diagonal: flux_eigs holds its values at the nodes and flux_modes
    the (n_basis, 2) block of the two qubit vectors in those grid
    coordinates, so functions of the flux are a diagonal away.
    """

    params: QubitParams
    energies: np.ndarray
    phi_p: float
    zeta_eff: float
    weak_isolation: bool
    flux_eigs: np.ndarray = field(repr=False)
    flux_modes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.energies[1] < self.energies[0]:
            raise ConfigurationError("subspace energies out of order")
        if self.phi_p < 0.0:
            raise ConfigurationError("phi_p must be nonnegative by convention")

    @property
    def splitting(self) -> float:
        return float(self.energies[1] - self.energies[0])


def qubit_subspace(params: QubitParams, n_basis: int = _QUBIT_BASIS) -> QubitSubspace:
    """Diagonalize one qubit and reduce it to its two lowest states.

    The qubit's ladder (frequency 2 zeta_j E_Lj) and junction cosine are
    one mode on the grid, whose four lowest levels come from
    oscillator.lowest_eigs as the coupler's do: one np.linalg.eigh with
    every returned pair's residual checked.  The double-well regime
    beta_j > 1 is allowed.  weak_isolation flags E_2 - E_1 < 3 (E_1 - E_0).
    """
    n_basis = _whole(n_basis, "n_basis", 40)
    kinetic, potential, x = _junction_mode(params.zeta_j, params.beta_j, params.phi_jx, n_basis)
    spectrum = lowest_eigs(TensorOperator([kinetic], potential), 4, want_vectors=True)
    vals = spectrum.eigenvalues
    flux = params.phi_jx + x

    # deterministic signs: largest grid component of |0> positive (as
    # lowest_eigs returns it), then phi_p >= 0
    pair = spectrum.eigenvectors[:, :2].copy()
    phi_p = float(pair[:, 0] @ (flux * pair[:, 1]))
    if phi_p < 0.0:
        pair[:, 1] *= -1.0
        phi_p = -phi_p

    psi_r = (pair[:, 0] + pair[:, 1]) / math.sqrt(2.0)
    mean = float(psi_r @ (flux * psi_r))
    second = float(psi_r @ (flux**2 * psi_r))
    zeta_eff = second - mean**2

    weak = bool(vals[2] - vals[1] < 3.0 * (vals[1] - vals[0]))

    return QubitSubspace(
        params=params,
        energies=params.e_lj * vals,
        phi_p=phi_p,
        zeta_eff=zeta_eff,
        weak_isolation=weak,
        flux_eigs=flux,
        flux_modes=pair,
    )


def _pauli_weights(sub: QubitSubspace) -> np.ndarray:
    """Pauli coefficients of w w^T at each grid node, w the node's flux_modes row.

    Shape (n, 4), columns in PAULI_LABELS order; w w^T is symmetric, so
    the y column is 0.
    """
    a, b = sub.flux_modes.T
    return np.stack([(a * a + b * b) / 2.0, a * b, np.zeros_like(a), (a * a - b * b) / 2.0],
                    axis=1)


def _pauli_exp_table(sub: QubitSubspace, s) -> np.ndarray:
    """(c_I, c_x, c_y, c_z) of e^{-is phi} for each s, shape (len(s), 4).

    The projected block is sum over nodes of e^{-is phi_k} w_k w_k^T, so
    its Pauli coefficients are the node phases times _pauli_weights.
    """
    return np.exp(-1j * np.outer(s, sub.flux_eigs)) @ _pauli_weights(sub)


def pauli_exp_coeffs(sub: QubitSubspace, s: float) -> tuple:
    """(c_I, c_x, c_y, c_z) of e^{-is phi} in the {|0>, |1>} basis."""
    return tuple(complex(c) for c in _pauli_exp_table(sub, [s])[0])


@dataclass(frozen=True)
class CouplingTable:
    """Pauli-label coupling coefficients in the global energy unit."""

    entries: dict
    metadata: dict = field(default_factory=dict)

    def __getitem__(self, label: str) -> float:
        return self.entries[label]

    @property
    def labels(self):
        return tuple(self.entries)

    def nonzero(self, cutoff: float = 0.0) -> dict:
        return {k: v for k, v in self.entries.items() if abs(v) > cutoff}


def _expand_labels(labels, n_qubits: int):
    if labels == "all":
        return ["".join(p) for p in itertools.product(PAULI_LABELS, repeat=n_qubits)]
    out = []
    for label in labels:
        if len(label) != n_qubits or any(ch not in PAULI_LABELS for ch in label):
            raise ConfigurationError(f"bad Pauli label {label!r} for {n_qubits} qubits")
        out.append(label)
    return out


def resonance_check(subs):
    """Detect E_2-E_0 of one qubit within 2% of a sum of two other splittings.

    Such accidental degeneracies undermine the independent two-level
    reductions; they are reported, not corrected.
    """
    hits = []
    e10 = [s.splitting for s in subs]
    e20 = [float(s.energies[2] - s.energies[0]) if len(s.energies) > 2 else None
           for s in subs]
    for i, gap in enumerate(e20):
        if gap is None:
            continue
        others = [j for j in range(len(subs)) if j != i]
        for j, k in itertools.combinations_with_replacement(others, 2):
            target = e10[j] + e10[k]
            if abs(gap - target) <= _RESONANCE_WINDOW * gap:
                hits.append({"qubit": i, "pair": (j, k), "e20": gap, "sum": target})
    return hits


def couplings(series: EgSeries, subs, alphas, phi_cx: float, labels="all",
              e_ltc: float = 1.0) -> CouplingTable:
    """Full nonlinear coupling table from the interaction series.

    g_labels = e_ltc sum_nu B_nu e^{i nu phi_cx} prod_j c_{label_j}(nu
    alpha_j), summed over nu in [-nu_max, nu_max].  The negative-nu
    blocks are computed independently rather than by conjugate
    symmetry, so the imaginary residue is a real consistency check; it
    must stay below 1e-10 (in units of e_ltc).  This is one point of
    the bias grid that ``bench.coupling_scan`` evaluates in one pass.
    """
    return _coupling_tables(series, subs, alphas, [phi_cx], labels, e_ltc)[0]


def _coupling_tables(series: EgSeries, subs, alphas, phi_cxs, labels,
                     e_ltc: float) -> list:
    """One ``couplings`` table per bias in phi_cxs.

    Nothing but the phase e^{i nu phi_cx} depends on the bias, so each
    label's factor B_nu prod_j c_{label_j}(nu alpha_j), and the resonance
    check, are formed once; each bias then costs one product of those
    factors with its phase vector, with its own Hermiticity check.  A
    resonance warns once for the whole sequence.
    """
    if len(subs) != len(alphas) or not subs:
        raise ConfigurationError("need one alpha per qubit subspace")
    label_list = _expand_labels(labels, len(subs))
    nu_max = series.nu_max
    nus = np.arange(-nu_max, nu_max + 1)
    factors = series.coeffs[np.abs(nus)]
    for j, (sub, alpha) in enumerate(zip(subs, alphas)):
        columns = [PAULI_LABELS.index(label[j]) for label in label_list]
        factors = factors * _pauli_exp_table(sub, nus * alpha)[:, columns].T
    resonances = resonance_check(subs)

    tables = []
    for phi_cx in phi_cxs:
        totals = factors @ np.exp(1j * nus * phi_cx)
        worst = float(np.max(np.abs(totals.imag)))
        if not worst <= 1e-10:
            raise NumericError(
                "coupling table lost Hermiticity", {"imag_residue": worst}
            )
        entries = dict(zip(label_list, (e_ltc * totals.real).tolist()))
        meta = {
            "theory": "NA",
            "nu_max": nu_max,
            "phi_cx": phi_cx,
            "imag_residue": worst,
            "resonances": [dict(hit) for hit in resonances],
        }
        tables.append(CouplingTable(entries=entries, metadata=meta))

    if resonances:
        # stacklevel 3 names the line that called couplings or coupling_scan,
        # the two public callers of this helper
        warnings.warn(
            f"{len(resonances)} multi-qubit resonance(s) detected", ResonanceWarning,
            stacklevel=3,
        )
    return tables


def _grid_table(subs, potential) -> dict:
    """Pauli table {label: value} of a potential on the qubits' product grid.

    On the grid, P^T diag(V) P = sum_x V(x) prod_j w_j(x_j) w_j(x_j)^T
    with w_j the qubit's flux_modes row at node x_j, so each axis of V
    is contracted with the real Pauli coefficients of w w^T per node.
    """
    table = np.asarray(potential, dtype=float)
    for sub in subs:
        table = np.tensordot(table, _pauli_weights(sub), axes=([0], [0]))  # Pauli index last
    return dict(zip(_expand_labels("all", len(subs)), table.ravel().tolist()))


def linear_couplings(derivs, subs, alphas, phi_cx: float, e_ltc: float = 1.0,
                     theory: str = "LA") -> CouplingTable:
    """Coupling table of the linearized interaction.

    Expanding E_g about phi_cx gives -E_g' u + (E_g''/2) u^2 in the
    total flux u = sum_j alpha_j phi_j.  That potential is projected on
    the qubits' product grid, so same-qubit squares use the exact
    truncated phi^2 block (leakage through the whole basis), not the
    square of the projected 2x2 flux.  The cost grows as n_basis^k for
    k qubits.
    """
    if len(subs) != len(alphas) or not subs:
        raise ConfigurationError("need one alpha per qubit subspace")
    d1, d2 = derivs
    flux = 0.0
    for n, (sub, alpha) in enumerate(zip(subs, alphas)):
        axis = (-1,) + (1,) * (len(subs) - 1 - n)  # broadcast along grid axis n
        flux = flux + alpha * sub.flux_eigs.reshape(axis)
    entries = _grid_table(subs, e_ltc * (-d1 * flux + 0.5 * d2 * flux**2))
    return CouplingTable(entries=entries, metadata={"theory": theory, "phi_cx": phi_cx})


def gxx_gaussian(series: EgSeries, phi_p: float, zeta_eff: float, alpha: float,
                 phi_cx: float, e_ltc: float = 1.0) -> float:
    """Gaussian-reference closed form for g_xx of identical unbiased qubits.

    g_xx = -e_ltc sum_nu B_nu e^{i nu phi_cx} sin^2(nu alpha phi_p)
    e^{-alpha^2 nu^2 zeta_eff}; the nu = 0 term vanishes.
    """
    nu = np.arange(1, series.nu_max + 1)
    b = series.coeffs[1:]
    total = np.sum(
        2.0 * b * np.cos(nu * phi_cx) * np.sin(nu * alpha * phi_p) ** 2
        * np.exp(-(alpha * nu) ** 2 * zeta_eff)
    )
    return float(-e_ltc * total)


def gxx_quadrature(eg_callable, subs, alpha: float, phi_cx: float) -> float:
    """g_xx as the reference-state average of finite differences of E_g.

    For two identical unbiased qubits, expanding <00|E_g(phi_cx -
    alpha(phi_1 + phi_2))|11> through the parity decomposition of the
    qubit states gives four terms over the reference density rho =
    psi_r^2, psi_r = (|0> + |1>)/sqrt(2):

        4 g_xx = <E_g(phi_cx - alpha(u1+u2))> + <E_g(phi_cx + alpha(u1+u2))>
               - 2 <E_g(phi_cx - alpha(u1-u2))>.

    Each average is a pair sum rho_a rho_b over the two qubits' grid
    nodes.  The asymmetry of the true density is kept, so the sum
    equals the projection of ``couplings`` up to rounding.  eg_callable
    must accept arrays.
    """
    if len(subs) != 2:
        raise ConfigurationError(f"g_xx quadrature needs a qubit pair, got {len(subs)}")
    sub_a, sub_b = subs
    if sub_a.params != sub_b.params or sub_a.params.phi_jx != 0.0:
        raise ConfigurationError(
            "g_xx quadrature needs two identical unbiased qubits,"
            f" got {sub_a.params} and {sub_b.params}"
        )
    rho_a, rho_b = ((s.flux_modes[:, 0] + s.flux_modes[:, 1]) ** 2 / 2.0 for s in subs)
    plus = np.add.outer(sub_a.flux_eigs, sub_b.flux_eigs)
    minus = np.subtract.outer(sub_a.flux_eigs, sub_b.flux_eigs)
    pair = (eg_callable(phi_cx - alpha * plus) + eg_callable(phi_cx + alpha * plus)
            - 2.0 * eg_callable(phi_cx - alpha * minus))
    return float(rho_a @ pair @ rho_b / 4.0)


def linear_error_bound(beta_c: float, zeta_eff: float, phi_p: float, alpha: float,
                       e_ltc: float = 1.0) -> float:
    """Worst-case |g_xx - g_xx_lin| from the quartic remainder of E_g.

    e_ltc beta_c (alpha/(1-beta_c))^4 phi_p^2 (2 zeta_eff + phi_p^2/3),
    using the closed-form maximum of the classical fourth derivative.
    """
    if not 0.0 <= beta_c < 1.0:
        raise ValueError(f"linear_error_bound requires 0 <= beta_c < 1, got {beta_c}")
    return (
        e_ltc * beta_c * (alpha / (1.0 - beta_c)) ** 4
        * phi_p**2 * (2.0 * zeta_eff + phi_p**2 / 3.0)
    )
