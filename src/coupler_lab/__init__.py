"""Effective qubit-qubit interactions mediated by a nonlinear inductive coupler."""

import importlib

__version__ = "0.1.0"

from .bench import (
    CouplerSystem,
    ScanResult,
    SweepResult,
    SweepSpec,
    bo_spectrum,
    coupling_scan,
    exact_spectrum,
    sweep,
)
from .coupler import (
    BodcMetrics,
    CouplerParams,
    EgSeries,
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
from .errors import ConfigurationError, NumericError, ResourceError
from .kapteyn import (
    FourierSeries,
    bessel_j,
    cos_beta,
    exp_mu_coeff,
    g_coeff,
    kepler_solve,
    sin_beta,
)
from .oscillator import (
    NormalModeSystem,
    Spectrum,
    TensorOperator,
    assemble_tensor_operator,
    ho_exp_matrix,
    ho_exp_matrix_element,
    lowest_eigs,
    normal_modes,
)
from .projection import (
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

__all__ = [
    "BodcMetrics",
    "ConfigurationError",
    "CouplerParams",
    "CouplerSystem",
    "CouplingTable",
    "EgSeries",
    "FourierSeries",
    "NormalModeSystem",
    "NumericError",
    "QubitParams",
    "QubitSubspace",
    "ResonanceWarning",
    "ResourceError",
    "ScanResult",
    "Spectrum",
    "SweepResult",
    "SweepSpec",
    "SystemConfig",
    "TensorOperator",
    "assemble_tensor_operator",
    "b_coeffs",
    "bessel_j",
    "bo_spectrum",
    "bodc_metrics",
    "cos_beta",
    "coupling_scan",
    "couplings",
    "eg_derivs_analytic",
    "eg_derivs_numeric",
    "eg_eval",
    "eg_exact",
    "exact_spectrum",
    "exp_mu_coeff",
    "from_physical",
    "g_coeff",
    "gxx_gaussian",
    "gxx_quadrature",
    "ho_exp_matrix",
    "ho_exp_matrix_element",
    "kepler_solve",
    "linear_couplings",
    "linear_error_bound",
    "load_config",
    "lowest_eigs",
    "min_nu_for_error",
    "normal_modes",
    "pauli_exp_coeffs",
    "qubit_subspace",
    "resonance_check",
    "run",
    "sin_beta",
    "sweep",
    "to_physical",
    "truncation_bound",
    "u_min",
    "u_zpe_harmonic",
    "__version__",
]


# The cli module is imported on first use, not here: ``python -m
# coupler_lab.cli`` imports this package first and must find cli unimported.
_CLI_NAMES = ("SystemConfig", "from_physical", "load_config", "run", "to_physical")


def __getattr__(name):
    if name == "cli" or name in _CLI_NAMES:
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
