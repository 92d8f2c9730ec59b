"""Validation harness: exact spectra versus the reduced theories.

exact_spectrum diagonalizes the full coupler-plus-qubits circuit on
the normal-mode product grid; bo_spectrum eliminates the coupler through
its ground energy, either as the full Fourier series ("NA") or as the
quadratic expansion with analytic ("LA") or numerically exact ("LN")
derivatives.  sweep and coupling_scan drive parameter studies over
those routes with per-point failure capture.  Every solve goes through
oscillator.lowest_eigs, which folds the operator into its reflection
sectors and solves each dense or by Lanczos as the sectors' size picks.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coupler import (
    CouplerParams,
    _ground_energy_derivs,
    b_coeffs,
    eg_derivs_analytic,
    eg_eval,
    u_min,
    u_zpe_harmonic,
)
from .errors import ConfigurationError, _whole
from .kapteyn import _NU_MAX
from .oscillator import (
    Spectrum,
    TensorOperator,
    _junction_mode,
    assemble_tensor_operator,
    lowest_eigs,
    normal_modes,
)
from .projection import _QUBIT_BASIS, _coupling_tables, qubit_subspace

__all__ = [
    "CouplerSystem",
    "ScanResult",
    "SweepResult",
    "SweepSpec",
    "bo_spectrum",
    "coupling_scan",
    "exact_spectrum",
    "sweep",
]

SWEEP_AXES = ("beta_j", "phi_cx", "zeta_c", "alpha", "beta_c")
THEORIES = ("exact", "NA", "LA", "LN")


@dataclass(frozen=True)
class CouplerSystem:
    """One coupler with its attached qubits, in qubit energy units.

    e_ltc is the coupler inductive energy over the (first) qubit's,
    so couplings and spectra come out in the same global unit as the
    qubit parameters.  beta_c < 1 keeps the coupler monostable; the
    coupler fields are checked as CouplerParams checks them.
    """

    beta_c: float
    zeta_c: float
    qubits: tuple
    e_ltc: float = 1.0
    phi_cx: float = 0.0

    def __post_init__(self):
        CouplerParams(self.beta_c, self.zeta_c, self.e_ltc)
        if not math.isfinite(self.phi_cx):
            raise ConfigurationError(f"phi_cx must be finite, got {self.phi_cx}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if not self.qubits:
            raise ConfigurationError("at least one qubit is required")


def _axis_grid(lo, hi, n) -> np.ndarray:
    """np.linspace(lo, hi, n) over a finite lo < hi with n >= 2 points."""
    lo, hi, n = float(lo), float(hi), _whole(n, "the number of grid points")
    if not -math.inf < lo < hi < math.inf:
        raise ConfigurationError(f"grid needs finite lo < hi, got ({lo}, {hi})")
    if n < 2:
        raise ConfigurationError(f"grid needs >= 2 points, got {n}")
    return np.linspace(lo, hi, n)


def exact_spectrum(system, dims=None, n_levels: int = 6) -> Spectrum:
    """Lowest levels of the full coupled circuit.

    dims index the normal modes in ascending frequency; at reference
    parameters the qubit-like modes come first, so the default keeps
    40 states per qubit mode and 18 on the coupler-like mode.
    """
    qubits = tuple(system.qubits)
    if not 2 <= len(qubits) <= 3:
        raise ConfigurationError(
            f"exact spectrum supports 2 or 3 qubits plus the coupler, got {len(qubits)}"
        )
    if dims is None:
        dims = (40,) * len(qubits) + (18,)
    nm = normal_modes(system, dims)
    spec = lowest_eigs(assemble_tensor_operator(nm), n_levels)
    spec.metadata.update(theory="exact", dims=nm.dims)
    return spec


def bo_spectrum(theory: str, system, dims=None, n_levels: int = 6,
                nu_max: int = _NU_MAX, series=None) -> Spectrum:
    """Lowest levels of the coupler-eliminated qubit Hamiltonian.

    Each qubit keeps its ladder and junction cosine; the coupler's ground
    energy enters as a potential in the qubit fluxes on the product grid
    (see oscillator.TensorOperator).  "NA" evaluates the full Fourier
    series there, e_ltc E_g(phi_eff - sum_j alpha_j phi_j), so its cost
    does not grow with nu_max; the series is b_coeffs' at its derived
    mu_max (both in the metadata), and a prebuilt ``series`` must match
    the system's beta_c and zeta_c.  "LA"/"LN" keep the quadratic expansion
    about the bias point with analytic respectively numeric derivatives
    (LN's E_g and derivatives come from one coupler solve on eg_exact's
    default grid).  The parameter types admit only finite inputs, and for
    them LA's d1 and d2 are finite (1 - beta_c cos chi >= 1 - beta_c > 0) and
    LN's solve runs only behind a certified gap.
    """
    if theory not in ("NA", "LA", "LN"):
        raise ConfigurationError(f"unknown reduced theory {theory!r}")
    qubits = tuple(system.qubits)
    if dims is None:
        dims = (40,) * len(qubits)
    dims = tuple(_whole(d, "a dims entry") for d in dims)
    if len(dims) != len(qubits):
        raise ConfigurationError("need one basis dimension per qubit")
    if any(d < 1 for d in dims):
        raise ConfigurationError(f"dims must give a positive size per mode, got {dims}")
    e_ltc = float(system.e_ltc)
    phi_eff = system.phi_cx - sum(q.alpha_j * q.phi_jx for q in qubits)

    kinetic = []
    potential = np.zeros(dims)
    # the flux the qubits thread through the coupler, sum_j alpha_j phi_j
    flux = 0.0
    for n, (q, d) in enumerate(zip(qubits, dims)):
        k, v, phi = _junction_mode(q.zeta_j, q.beta_j, q.phi_jx, d, q.e_lj)
        axis = (d,) + (1,) * (len(dims) - 1 - n)  # broadcast along grid axis n
        kinetic.append(k)
        potential = potential + v.reshape(axis)
        flux = flux + q.alpha_j * phi.reshape(axis)

    if theory == "NA":
        if series is None:
            series = b_coeffs(system.beta_c, system.zeta_c, nu_max)
        elif (series.beta_c, series.zeta_c) != (system.beta_c, system.zeta_c):
            raise ConfigurationError(
                f"series was built for beta_c={series.beta_c}, zeta_c={series.zeta_c};"
                f" the system has beta_c={system.beta_c}, zeta_c={system.zeta_c}"
            )
        potential = potential + e_ltc * eg_eval(series, phi_eff - flux)
        meta = {"nu_max": series.nu_max, "mu_max": series.mu_max}
    else:
        if theory == "LA":
            d1, d2 = eg_derivs_analytic(system.beta_c, system.zeta_c, phi_eff)
            const = u_min(system.beta_c, phi_eff) + u_zpe_harmonic(
                system.beta_c, system.zeta_c, phi_eff
            )
        else:
            cp = CouplerParams(beta_c=system.beta_c, zeta_c=system.zeta_c)
            const, d1, d2 = _ground_energy_derivs(cp, phi_eff)
        potential = potential + e_ltc * (float(const) - d1 * flux + 0.5 * d2 * flux**2)
        meta = {"d1": float(d1), "d2": float(d2)}

    spec = lowest_eigs(TensorOperator(kinetic, potential), n_levels)
    spec.metadata.update(theory=theory, dims=dims, **meta)
    return spec


@dataclass(frozen=True)
class SweepSpec:
    """One-axis parameter sweep over the chosen theories.

    axis "beta_j" and "alpha" apply the point value to every qubit;
    the coupler axes replace the corresponding system field.  dims
    configure the exact solve, bo_dims the reduced ones.
    """

    axis: str
    range: tuple
    system: CouplerSystem
    theories: tuple = THEORIES
    n_levels: int = 4
    dims: tuple = None
    bo_dims: tuple = None
    nu_max: int = _NU_MAX

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigurationError(
                f"axis must be one of {SWEEP_AXES}, got {self.axis!r}"
            )
        lo, hi, n = self.range
        object.__setattr__(self, "range", (float(lo), float(hi), _axis_grid(lo, hi, n).size))
        if self.n_levels < 2:
            raise ConfigurationError(f"n_levels must be >= 2, got {self.n_levels}")
        _whole(self.nu_max, "nu_max", 1)
        bad = set(self.theories) - set(THEORIES)
        if bad:
            raise ConfigurationError(f"unknown theories {sorted(bad)}")
        object.__setattr__(self, "theories", tuple(self.theories))

    @property
    def values(self) -> np.ndarray:
        return _axis_grid(*self.range)


@dataclass(frozen=True)
class SweepResult:
    """Per-point records in axis order; failures recorded, not raised.

    Each record's meta maps a theory to its solver diagnostics: solver,
    dim, basis and matvecs (iterative solves), sectors (sector labels and
    dims and the sector of each level, from either solver), max_residual
    and, for NA, the series' mu_max.  Timings stay out of the records.
    """

    spec: SweepSpec
    points: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def values(self) -> np.ndarray:
        return np.asarray([rec["value"] for rec in self.points])

    def excitation_array(self, theory: str) -> np.ndarray:
        """(n_points, n_levels - 1) excitations; NaN rows where failed."""
        width = self.spec.n_levels - 1
        rows = []
        for rec in self.points:
            exc = rec["excitations"].get(theory)
            rows.append(exc if exc is not None else (np.nan,) * width)
        return np.asarray(rows, dtype=float)


def _point_system(system: CouplerSystem, axis: str, value: float) -> CouplerSystem:
    if axis in ("beta_c", "zeta_c", "phi_cx"):
        return replace(system, **{axis: value})
    fld = {"beta_j": "beta_j", "alpha": "alpha_j"}[axis]
    qubits = tuple(replace(q, **{fld: value}) for q in system.qubits)
    return replace(system, qubits=qubits)


def _sweep_point(spec: SweepSpec, value: float) -> dict:
    record = {
        "value": float(value),
        "energies": {},
        "excitations": {},
        "errors": {},
        "meta": {},
    }
    try:
        point_system = _point_system(spec.system, spec.axis, value)
    except Exception as exc:
        record["errors"]["system"] = f"{type(exc).__name__}: {exc}"
        return record
    for theory in spec.theories:
        try:
            if theory == "exact":
                s = exact_spectrum(point_system, spec.dims, spec.n_levels)
            else:
                s = bo_spectrum(theory, point_system, spec.bo_dims, spec.n_levels,
                                nu_max=spec.nu_max)
            record["energies"][theory] = tuple(float(v) for v in s.eigenvalues)
            record["excitations"][theory] = tuple(float(v) for v in s.excitations)
            keep = ("solver", "dim", "basis", "matvecs", "sectors", "mu_max")
            meta = {key: s.metadata[key] for key in keep if key in s.metadata}
            meta["max_residual"] = float(np.max(s.metadata["residuals"]))
            record["meta"][theory] = meta
        except Exception as exc:
            record["errors"][theory] = f"{type(exc).__name__}: {exc}"
    return record


def sweep(spec: SweepSpec) -> SweepResult:
    """Run the sweep point by point, in axis order.

    NA points with the same beta_c share one interaction series through
    b_coeffs' memo.
    """
    points = [_sweep_point(spec, v) for v in spec.values]
    failed = sum(1 for rec in points if rec["errors"])
    meta = {"axis": spec.axis, "n_points": len(points), "n_failed": failed}
    return SweepResult(spec=spec, points=tuple(points), metadata=meta)


@dataclass(frozen=True)
class ScanResult:
    """Coupling tables over a coupler-bias grid."""

    phi_cx: np.ndarray
    tables: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def labels(self):
        return self.tables[0].labels if self.tables else ()

    def label_array(self, label: str) -> np.ndarray:
        return np.asarray([t[label] for t in self.tables], dtype=float)


def coupling_scan(system, labels, phi_cx_range, nu_max: int = _NU_MAX,
                  n_basis: int = _QUBIT_BASIS) -> ScanResult:
    """Coupling coefficients for each bias point on a linear grid.

    The interaction series (at b_coeffs' derived mu_max, which the
    metadata reports), the qubit subspaces and each qubit's Pauli
    tables are built once per scan; only the bias phases change per
    point.  Each table equals ``couplings`` at its bias bitwise, and a
    resonance warns once per scan.
    """
    grid = _axis_grid(*phi_cx_range)
    series = b_coeffs(system.beta_c, system.zeta_c, nu_max)
    subs = [qubit_subspace(q, n_basis=n_basis) for q in system.qubits]
    alphas = [q.alpha_j for q in system.qubits]
    tables = tuple(_coupling_tables(series, subs, alphas, grid.tolist(), labels,
                                    system.e_ltc))
    meta = {
        "beta_c": system.beta_c,
        "zeta_c": system.zeta_c,
        "e_ltc": system.e_ltc,
        "nu_max": series.nu_max,
        "mu_max": series.mu_max,
    }
    return ScanResult(phi_cx=grid, tables=tables, metadata=meta)
