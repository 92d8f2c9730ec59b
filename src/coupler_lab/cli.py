"""Command-line interface: config files, unit conversion, CSV output.

Config format (INI, ``schema = 1``).  Each component is parameterized
either dimensionlessly or physically (SI), never a mix, and the whole
circuit must use one style so energy ratios are well defined::

    [meta]
    schema = 1

    [coupler]
    beta_c = 0.75
    zeta_c = 0.05
    e_ltc = 3.0
    phi_cx = 0.0

    [qubit.1]
    beta_j = 1.05
    zeta_j = 0.05
    alpha_j = 0.05
    phi_jx = 0.0

    [numerics]
    nu_max = 100
    n_basis = 60
    n_levels = 4

    [units]
    e_l1_ghz = 200

    [sweep]
    axis = beta_j
    lo = 0.5
    hi = 1.4
    n_points = 7
    theories = exact,NA,LA,LN

    [scan]
    labels = xx,xz,zz
    lo = 0.0
    hi = 0.1
    n_points = 41

The physical alternative gives the coupler ``l_c, c, i_c`` and each
qubit ``l_j, c_j, i_j, m_j`` (henry, farad, ampere).  Internally all
energies are in units of the first qubit's inductive energy E_L1; the
optional ``e_l1_ghz`` adds presentation-only GHz/MHz columns.

Flux biases (``phi_cx``, ``phi_jx``, sweep/scan ranges on bias axes)
are written in units of 2*pi.  Note the sign convention: the junction
term enters the potential as +beta cos(phi), i.e. the stored bias is
pi-shifted relative to the raw loop flux, so phi_cx = 0 is the
maximum-coupling point.

Each CSV command returns ({file name: columns}, header extras), and main
writes the tables under one ``#`` header; ``--nu-max`` goes on the
commands that build a series, ``--dims`` on spectrum only.  The series'
convolution depth mu_max follows from beta_c (``b_coeffs``), and
``series``, ``eg``, ``couplings`` and ``scan`` echo it in the header.

Every section is read through one table of keys, parsers and defaults
(``_SECTIONS``, and ``_CIRCUIT`` per style for the coupler and qubits):
a value its parser rejects names its section and key, a missing
required key reads ``[section] needs key``, and keys the program does
not read are ignored in every section.  A circuit value the parameter
types reject names its section too (``[qubit.10] beta_j must be ...``).  ``couplings --labels`` parses
as ``[scan] labels`` does, and ``series --n-grid`` needs >= 2 points.

Exit codes: 0 success, 1 configuration or usage error, 2 numeric
failure, 3 validation failure.  Errors print one machine-readable JSON
object on stderr.
"""

import argparse
import configparser
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .bench import THEORIES, CouplerSystem, SweepSpec, _axis_grid, coupling_scan, sweep
from .coupler import (
    _COUPLER_BASIS,
    CouplerParams,
    b_coeffs,
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
from .kapteyn import _NU_MAX, cos_beta, kepler_solve, sin_beta
from .projection import _QUBIT_BASIS, QubitParams, couplings, gxx_quadrature, qubit_subspace

__all__ = [
    "SystemConfig",
    "from_physical",
    "load_config",
    "main",
    "run",
    "to_physical",
]

PLANCK = 6.62607015e-34
E_CHARGE = 1.602176634e-19
PHI_0 = PLANCK / (2.0 * E_CHARGE)
TWO_PI = 2.0 * math.pi

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3

SCHEMA_VERSION = 1


# ------------------------------------------------------- unit conversion


def from_physical(coupler: dict, qubits: list) -> dict:
    """Dimensionless circuit parameters from SI values.

    coupler holds l_c, c, i_c and each qubit l_j, c_j, i_j, m_j.  The
    mutual inductances renormalize the coupler inductance, which must
    stay positive; the flux quantum h/2e absorbs all remaining units.
    Returns beta/zeta/alpha/e_lj per component plus e_l1_joule, the
    global energy unit.
    """
    phi_red = PHI_0 / TWO_PI
    positive = [(f"coupler {key}", coupler.get(key, 0.0)) for key in ("l_c", "c", "i_c")]
    positive += [(f"qubit {i} {key}", q.get(key, 0.0))
                 for i, q in enumerate(qubits, start=1) for key in ("l_j", "c_j", "i_j")]
    for name, value in positive:
        if not 0.0 < value < math.inf:
            raise ConfigurationError(f"{name} must be positive and finite, got {value}")
    mutuals = [q.get("m_j", 0.0) for q in qubits]
    for i, m_j in enumerate(mutuals, start=1):
        if not math.isfinite(m_j):
            raise ConfigurationError(f"qubit {i} m_j must be finite, got {m_j}")
    alphas = [m_j / q["l_j"] for m_j, q in zip(mutuals, qubits)]
    l_tilde = coupler["l_c"] - sum(a * m_j for a, m_j in zip(alphas, mutuals))
    if l_tilde <= 0.0:
        raise ConfigurationError(
            "mutual inductances exceed the coupler inductance; the rescaled "
            f"coupler inductance must be positive, got {l_tilde:g} H"
        )
    beta_c = TWO_PI * l_tilde * coupler["i_c"] / PHI_0
    if beta_c >= 1.0:
        raise ConfigurationError(
            f"beta_c = {beta_c:g} violates the monostability condition beta_c < 1"
        )
    e_l = [phi_red**2 / q["l_j"] for q in qubits]
    out_qubits = [
        {
            "beta_j": TWO_PI * q["l_j"] * q["i_j"] / PHI_0,
            "zeta_j": (TWO_PI * E_CHARGE / PHI_0) * math.sqrt(q["l_j"] / q["c_j"]),
            "alpha_j": alpha,
            "e_lj": e_lj / e_l[0],
        }
        for q, alpha, e_lj in zip(qubits, alphas, e_l)
    ]
    return {
        "beta_c": beta_c,
        "zeta_c": (TWO_PI * E_CHARGE / PHI_0) * math.sqrt(l_tilde / coupler["c"]),
        "e_ltc": (phi_red**2 / l_tilde) / e_l[0],
        "qubits": out_qubits,
        "e_l1_joule": e_l[0],
    }


def to_physical(beta_c: float, zeta_c: float, e_ltc: float, qubits: list,
                l_1: float = 1.0) -> dict:
    """Synthetic SI values that reproduce the given dimensionless set.

    The first qubit's inductance is fixed at l_1; everything else
    follows by inverting the parameter definitions.  Useful as the
    round-trip oracle for from_physical.
    """
    imp = TWO_PI * E_CHARGE / PHI_0  # sqrt(L/C) prefactor
    out_qubits = []
    for q in qubits:
        l_j = l_1 / q.get("e_lj", 1.0)
        out_qubits.append(
            {
                "l_j": l_j,
                "c_j": l_j * (imp / q["zeta_j"]) ** 2,
                "i_j": q["beta_j"] * PHI_0 / (TWO_PI * l_j),
                "m_j": q.get("alpha_j", 0.0) * l_j,
            }
        )
    l_tilde = l_1 / e_ltc
    coupler = {
        "l_c": l_tilde + sum(
            q.get("alpha_j", 0.0) * oq["m_j"] for q, oq in zip(qubits, out_qubits)
        ),
        "c": l_tilde * (imp / zeta_c) ** 2,
        "i_c": beta_c * PHI_0 / (TWO_PI * l_tilde),
    }
    return {"coupler": coupler, "qubits": out_qubits}


# ------------------------------------------------------------- config file


@dataclass(frozen=True)
class SystemConfig:
    """Parsed experiment configuration.

    system carries the dimensionless circuit; numerics/units/sweep/scan
    mirror the file sections with defaults applied.
    """

    system: CouplerSystem
    numerics: dict
    units: dict = field(default_factory=dict)
    sweep: dict = None
    scan: dict = None
    source: str = ""


def _count(text) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _positive(text) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError(f"must be positive and finite, got {value}")
    return value


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _int_list(text) -> tuple:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _names(text) -> tuple:
    return tuple(t.strip() for t in text.split(","))


def _labels(text):
    labels = [t.strip() for t in text.split(",")]
    return "all" if labels == ["all"] else labels


def _keys(parse, **defaults) -> dict:
    return {key: (parse, default) for key, default in defaults.items()}


# each section's keys as (parser, default); a default of ... marks a required key
_SECTIONS = {
    "meta": {"schema": (int, ...)},
    "numerics": {"nu_max": (_count, _NU_MAX), "n_basis": (_count, _QUBIT_BASIS),
                 "n_levels": (_count, 4), "dims": (_int_list, None), "bo_dims": (_int_list, None)},
    "units": {"e_l1_ghz": (_positive, None)},
    "sweep": {"axis": (str, ...), "lo": (float, ...), "hi": (float, ...),
              "n_points": (int, ...), "theories": (_names, THEORIES)},
    "scan": {"labels": (_labels, "all"), "lo": (float, 0.0), "hi": (float, 0.5),
             "n_points": (int, 41)},
}

# the circuit sections' keys per style, then the bias key that either style reads;
# the parameter types check the dimensionless values, so those parse as plain floats
_CIRCUIT = {
    "coupler": ({"dimensionless": _keys(float, beta_c=..., zeta_c=..., e_ltc=1.0),
                 "physical": _keys(_positive, l_c=..., c=..., i_c=...)}, "phi_cx"),
    "qubit": ({"dimensionless": _keys(float, beta_j=..., zeta_j=..., alpha_j=0.0, e_lj=1.0),
               "physical": {**_keys(_positive, l_j=..., c_j=..., i_j=...),
                            "m_j": (_finite, 0.0)}}, "phi_jx"),
}


def _in_section(name: str, build, **values):
    """build(**values), with the ConfigurationError it raises prefixed by section name."""
    try:
        return build(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"[{name}] {exc}") from exc


def _read(parser, name: str, table: dict) -> dict:
    """Every key of table in section name, parsed or defaulted; other keys are ignored."""
    sec = parser[name] if parser.has_section(name) else {}
    out = {}
    for key, (parse, default) in table.items():
        if key in sec:
            try:
                out[key] = parse(sec[key])
            except ValueError as exc:
                raise ConfigurationError(f"[{name}] {key} = {sec[key]!r}: {exc}") from exc
        elif default is ...:
            raise ConfigurationError(f"[{name}] needs {key}")
        else:
            out[key] = default
    return out


def _read_circuit(parser, name: str):
    """(style, values) of circuit section name: the keys of the one style it holds."""
    styles, bias = _CIRCUIT[name.split(".", 1)[0]]
    held = {style: [key for key in table if key in parser[name]]
            for style, table in styles.items()}
    if all(held.values()):
        raise ConfigurationError(
            f"[{name}] mixes dimensionless ({held['dimensionless']}) and physical "
            f"({held['physical']}) parameters; pick one style per component"
        )
    style = next((style for style, keys in held.items() if keys), None)
    if style is None:
        raise ConfigurationError(f"[{name}] has no recognizable parameters")
    return style, _read(parser, name, {**styles[style], bias: (float, 0.0)})


def load_config(path) -> SystemConfig:
    """Read and validate an INI config; see the module docstring."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file: {exc}") from exc
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    schema = _read(parser, "meta", _SECTIONS["meta"])["schema"]
    if schema != SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported schema {schema}, expected {SCHEMA_VERSION}")
    if not parser.has_section("coupler"):
        raise ConfigurationError("config needs a [coupler] section")

    qubit_sections = []
    for name in parser.sections():
        if name.startswith("qubit."):
            try:
                qubit_sections.append((int(name.split(".", 1)[1]), name))
            except ValueError as exc:
                raise ConfigurationError(f"bad qubit section name [{name}]") from exc
    qubit_sections.sort()
    if not qubit_sections:
        raise ConfigurationError("config needs at least one [qubit.N] section")

    style, coupler_vals = _read_circuit(parser, "coupler")
    qubit_vals = []
    for _, name in qubit_sections:
        q_style, vals = _read_circuit(parser, name)
        if q_style != style:
            raise ConfigurationError(
                f"[{name}] is {q_style} while [coupler] is {style}; the whole "
                "circuit must use one parameterization"
            )
        qubit_vals.append(vals)

    if style == "physical":
        # dimensionless values (the first e_lj is E_L1 / E_L1 = 1), biases as given
        derived = from_physical(coupler_vals, qubit_vals)
        coupler_vals = {**derived, "phi_cx": coupler_vals["phi_cx"]}
        qubit_vals = [{**dq, "phi_jx": vals["phi_jx"]}
                      for vals, dq in zip(qubit_vals, derived["qubits"])]
    if qubit_vals[0]["e_lj"] != 1.0:
        raise ConfigurationError(f"[{qubit_sections[0][1]}] the first qubit defines the "
                                 "energy unit; its e_lj must be 1")
    qubits = tuple(_in_section(name, QubitParams, **{**vals, "phi_jx": TWO_PI * vals["phi_jx"]})
                   for (_, name), vals in zip(qubit_sections, qubit_vals))
    system = _in_section(
        "coupler", CouplerSystem,
        beta_c=coupler_vals["beta_c"],
        zeta_c=coupler_vals["zeta_c"],
        qubits=qubits,
        e_ltc=coupler_vals["e_ltc"],
        phi_cx=TWO_PI * coupler_vals["phi_cx"],
    )

    numerics = _read(parser, "numerics", _SECTIONS["numerics"])
    ghz = _read(parser, "units", _SECTIONS["units"])["e_l1_ghz"]
    if style == "physical":
        derived_ghz = derived["e_l1_joule"] / PLANCK / 1e9
        if ghz is not None and abs(ghz - derived_ghz) > 1e-6 * derived_ghz:
            raise ConfigurationError(
                f"[units] e_l1_ghz = {ghz:g} conflicts with the physical "
                f"parameters ({derived_ghz:g} GHz)"
            )
        ghz = derived_ghz
    # [sweep] n_levels defaults to [numerics]'s
    sweep_keys = {**_SECTIONS["sweep"], "n_levels": (int, numerics["n_levels"])}
    return SystemConfig(
        system=system,
        numerics=numerics,
        units={} if ghz is None else {"e_l1_ghz": ghz},
        sweep=_read(parser, "sweep", sweep_keys) if parser.has_section("sweep") else None,
        scan=_read(parser, "scan", _SECTIONS["scan"]) if parser.has_section("scan") else None,
        source=str(path),
    )


# --------------------------------------------------------------- CSV output


def _fmt(value) -> str:
    if isinstance(value, str):
        return value.replace(",", ";")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _echo_lines(cfg: SystemConfig, command: str, extra: dict) -> list:
    sys_ = cfg.system
    lines = [
        f"coupler-lab {__version__} command={command}",
        f"config={cfg.source}",
        f"coupler: beta_c={_fmt(sys_.beta_c)} zeta_c={_fmt(sys_.zeta_c)} "
        f"e_ltc={_fmt(sys_.e_ltc)} phi_cx={_fmt(sys_.phi_cx)} rad",
    ]
    for i, q in enumerate(sys_.qubits, start=1):
        lines.append(
            f"qubit.{i}: beta_j={_fmt(q.beta_j)} zeta_j={_fmt(q.zeta_j)} "
            f"e_lj={_fmt(q.e_lj)} alpha_j={_fmt(q.alpha_j)} phi_jx={_fmt(q.phi_jx)} rad"
        )
    lines.append(
        "numerics: "
        + " ".join(f"{k}={v}" for k, v in sorted(cfg.numerics.items()) if v is not None)
    )
    if cfg.units:
        lines.append(f"units: e_l1_ghz={_fmt(cfg.units['e_l1_ghz'])}")
    else:
        lines.append("units: dimensionless (energies in E_L1)")
    for key, value in extra.items():
        lines.append(f"{key}={value}")
    return lines


def _cells(values) -> list:
    """One column's cells as _fmt writes them; a float array in one pass."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return [f"{v:.17g}" for v in values.tolist()]
    return [_fmt(v) for v in values]


def _write_csv(path: Path, header_lines, columns: dict):
    cells = [_cells(values) for values in columns.values()]
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
    return path


def _energy(cfg: SystemConfig, columns: dict, name: str, values, mhz_name=None):
    """Column name in E_L1 and, given e_l1_ghz, its MHz copy (mhz_name or name_mhz)."""
    columns[name] = values
    ghz = cfg.units.get("e_l1_ghz")
    if ghz is not None:
        columns[mhz_name or f"{name}_mhz"] = np.asarray(values, dtype=float) * ghz * 1e3


# ----------------------------------------------------------------- commands


def _cmd_series(cfg, args):
    """series: sine/cosine profiles and the interaction coefficients.

    Writes series_profile.csv (phi_over_2pi, phi, sin_phi, sin_beta,
    cos_beta) and series_coefficients.csv (nu, b_classical, b_quantum,
    b_total).
    """
    beta, zeta = cfg.system.beta_c, cfg.system.zeta_c
    nu_max = cfg.numerics["nu_max"]
    phi = _axis_grid(0.0, TWO_PI, args.n_grid)
    profile = {
        "phi_over_2pi": phi / TWO_PI,
        "phi": phi,
        "sin_phi": np.sin(phi),
        "sin_beta": sin_beta(beta, phi, nu_max=nu_max),
        "cos_beta": cos_beta(beta, phi, nu_max=nu_max),
    }
    series = b_coeffs(beta, zeta, nu_max=nu_max)
    coeffs = {
        "nu": np.arange(nu_max + 1),
        "b_classical": series.b_classical.coeffs,
        "b_quantum": series.b_quantum.coeffs,
        "b_total": series.coeffs,
    }
    tables = {"series_profile.csv": profile, "series_coefficients.csv": coeffs}
    return tables, {"n_grid": args.n_grid, "mu_max": series.mu_max}


def _bias_grid(args) -> np.ndarray:
    return TWO_PI * _axis_grid(args.lo, args.hi, args.n_grid)


def _coupler_basis(cfg) -> int:
    """Grid size of the coupler solves: the configured n_basis, at least _COUPLER_BASIS."""
    return max(_COUPLER_BASIS, cfg.numerics["n_basis"])


def _cmd_eg(cfg, args):
    """eg: ground-energy curves over the coupler bias.

    Writes eg.csv with the classical minimum, the harmonic zero-point
    term, the Fourier-series total, the exact diagonalization, and the
    exact-minus-classical remainder (all in E_Ltc units).
    """
    beta, zeta = cfg.system.beta_c, cfg.system.zeta_c
    grid = _bias_grid(args)
    series = b_coeffs(beta, zeta, cfg.numerics["nu_max"])
    params = CouplerParams(beta_c=beta, zeta_c=zeta)
    classical = u_min(beta, grid, nu_max=cfg.numerics["nu_max"])
    zpe = u_zpe_harmonic(beta, zeta, grid)
    n_basis = _coupler_basis(cfg)
    exact = eg_exact(params, grid, n_basis=n_basis, n_levels=1)[:, 0]
    columns = {
        "phi_over_2pi": grid / TWO_PI,
        "u_min": classical,
        "zpe_harmonic": zpe,
        "eg_series": eg_eval(series, grid),
        "eg_exact": exact,
        "zpe_exact": exact - classical,
    }
    extra = {"n_grid": args.n_grid, "coupler_n_basis": n_basis, "mu_max": series.mu_max}
    return {"eg.csv": columns}, extra


def _cmd_derivs(cfg, args):
    """derivs: first/second bias derivatives of the ground energy.

    Writes derivs.csv comparing the closed-form route against exact
    diagonalization plus perturbation theory.
    """
    beta, zeta = cfg.system.beta_c, cfg.system.zeta_c
    grid = _bias_grid(args)
    params = CouplerParams(beta_c=beta, zeta_c=zeta)
    d1_ana, d2_ana = eg_derivs_analytic(beta, zeta, grid)
    n_basis = _coupler_basis(cfg)
    d1_num, d2_num = eg_derivs_numeric(params, grid, n_basis=n_basis)
    columns = {
        "phi_over_2pi": grid / TWO_PI,
        "d1_analytic": d1_ana,
        "d2_analytic": d2_ana,
        "d1_numeric": d1_num,
        "d2_numeric": d2_num,
    }
    return {"derivs.csv": columns}, {"n_grid": args.n_grid, "coupler_n_basis": n_basis}


def _pc_label(label: str) -> str:
    # persistent-current basis swaps the roles of x and z
    return label.translate(str.maketrans({"x": "z", "z": "x"}))


def _cmd_couplings(cfg, args):
    """couplings: the full interaction table at the configured bias.

    Writes couplings.csv (label, value in E_L1, optional value_mhz,
    optional label_pc giving the persistent-current-basis name).
    """
    system = cfg.system
    series = b_coeffs(system.beta_c, system.zeta_c, cfg.numerics["nu_max"])
    subs = [qubit_subspace(q, n_basis=cfg.numerics["n_basis"]) for q in system.qubits]
    alphas = [q.alpha_j for q in system.qubits]
    table = couplings(series, subs, alphas, system.phi_cx, labels=args.labels,
                      e_ltc=system.e_ltc)
    names = list(table.labels)
    columns = {"label": names}
    _energy(cfg, columns, "value_el1", np.asarray([table[k] for k in names]), "value_mhz")
    if args.pc_basis:
        columns["label_pc"] = [_pc_label(k) for k in names]
    extra = {"mu_max": series.mu_max, "imag_residue": _fmt(table.metadata["imag_residue"])}
    if table.metadata["resonances"]:
        extra["resonances"] = len(table.metadata["resonances"])
    return {"couplings.csv": columns}, extra


def _cmd_spectrum(cfg, args):
    """spectrum: excitation-energy sweep per the [sweep] section.

    Writes spectrum.csv: the axis column, then per theory the sorted
    excitations exc1..exc{n-1} (E_L1 units, optional MHz copies), then
    one error column per theory (empty when the point succeeded).
    """
    if cfg.sweep is None:
        raise ConfigurationError("the spectrum command needs a [sweep] section")
    lo, hi = cfg.sweep["lo"], cfg.sweep["hi"]
    if cfg.sweep["axis"] == "phi_cx":
        lo, hi = TWO_PI * lo, TWO_PI * hi
    spec = SweepSpec(
        axis=cfg.sweep["axis"],
        range=(lo, hi, cfg.sweep["n_points"]),
        system=cfg.system,
        theories=cfg.sweep["theories"],
        n_levels=cfg.sweep["n_levels"],
        dims=cfg.numerics["dims"],
        bo_dims=cfg.numerics["bo_dims"],
        nu_max=cfg.numerics["nu_max"],
    )
    result = sweep(spec)
    axis_values = result.values
    if spec.axis == "phi_cx":
        columns = {"phi_over_2pi": axis_values / TWO_PI}
    else:
        columns = {spec.axis: axis_values}
    for theory in spec.theories:
        arr = result.excitation_array(theory)
        for m in range(arr.shape[1]):
            _energy(cfg, columns, f"{theory}_exc{m + 1}", arr[:, m])
    for theory in spec.theories:
        columns[f"{theory}_error"] = [
            rec["errors"].get(theory, rec["errors"].get("system", ""))
            for rec in result.points
        ]
    return {"spectrum.csv": columns}, {"axis": spec.axis, "n_failed": result.metadata["n_failed"]}


def _cmd_scan(cfg, args):
    """scan: coupling coefficients over a coupler-bias grid.

    Writes scan.csv: phi_over_2pi plus one g_<label> column per label
    (E_L1 units, optional MHz copies).
    """
    if cfg.scan is None:
        raise ConfigurationError("the scan command needs a [scan] section")
    result = coupling_scan(
        cfg.system,
        cfg.scan["labels"],
        (TWO_PI * cfg.scan["lo"], TWO_PI * cfg.scan["hi"], cfg.scan["n_points"]),
        nu_max=cfg.numerics["nu_max"],
        n_basis=cfg.numerics["n_basis"],
    )
    columns = {"phi_over_2pi": result.phi_cx / TWO_PI}
    for label in result.labels:
        _energy(cfg, columns, f"g_{label}", result.label_array(label))
    return {"scan.csv": columns}, {"mu_max": result.metadata["mu_max"]}


def _cmd_truncation(cfg, args):
    """truncation: smallest series order meeting each error target.

    Prints one line per epsilon and writes truncation.csv (epsilon,
    min_nu, bound at that order).
    """
    epsilons = args.epsilon or [1e-3]
    orders = []
    bounds = []
    for eps in epsilons:
        nu = min_nu_for_error(cfg.system.beta_c, cfg.system.zeta_c, eps)
        orders.append(nu)
        bounds.append(truncation_bound(cfg.system.beta_c, cfg.system.zeta_c, nu))
        print(nu)
    columns = {
        "epsilon": np.asarray(epsilons),
        "min_nu": np.asarray(orders),
        "bound": np.asarray(bounds),
    }
    return {"truncation.csv": columns}, {}


def _validation_checks(cfg):
    """Built-in oracle cross-checks; yields (name, ok, detail)."""
    beta, zeta = 0.75, 0.05

    grid = np.linspace(0.0, TWO_PI, 101)
    chi = kepler_solve(beta, grid)
    res = np.max(np.abs(chi - grid - beta * np.sin(chi)))
    yield "kepler_residual", res <= 1e-12, f"max residual {res:.3e}"

    series_chi = grid + beta * sin_beta(beta, grid, nu_max=300)
    res = np.max(np.abs(series_chi - chi))
    yield "sin_beta_consistency", res <= 1e-9, f"max deviation {res:.3e}"

    mean = np.mean(cos_beta(beta, np.linspace(0, TWO_PI, 256, endpoint=False), nu_max=300))
    yield "cos_beta_period_mean", abs(mean + beta / 4) <= 1e-9, f"mean {mean:.12f}"

    n18 = min_nu_for_error(0.75, 0.25, 1e-3)
    n187 = min_nu_for_error(0.95, 0.25, 1e-3)
    yield "truncation_orders", (n18, n187) == (18, 187), f"got ({n18}, {n187})"

    levels = eg_exact(CouplerParams(beta_c=beta, zeta_c=zeta), 0.0)
    gap = levels[1] - levels[0]
    yield "coupler_gap", abs(gap - 5.3248e-2) <= 0.01 * 5.3248e-2, f"gap {gap:.6e}"

    d_ana = eg_derivs_analytic(beta, zeta, 0.3 * TWO_PI)
    d_num = eg_derivs_numeric(CouplerParams(beta_c=beta, zeta_c=zeta), 0.3 * TWO_PI)
    rel = max(abs(a - n) / abs(n) for a, n in zip(d_ana, d_num))
    yield "derivative_routes", rel <= 0.01, f"max rel {rel:.3e}"

    series = b_coeffs(0.5, zeta)
    sub = qubit_subspace(QubitParams(beta_j=1.05, zeta_j=0.05))
    table = couplings(series, [sub, sub], [0.05, 0.05], 0.1 * TWO_PI, labels=["xx"])
    quad = gxx_quadrature(lambda x: eg_eval(series, x), [sub, sub], 0.05, 0.1 * TWO_PI)
    rel = abs(quad - table["xx"]) / abs(table["xx"])
    yield "gxx_quadrature_identity", rel <= 1e-6, f"rel {rel:.3e}"

    system = cfg.system
    spec_qubits = [asdict(q) for q in system.qubits]
    phys = to_physical(system.beta_c, system.zeta_c, system.e_ltc, spec_qubits, l_1=1e-9)
    back = from_physical(phys["coupler"], phys["qubits"])
    errs = [
        abs(back["beta_c"] - system.beta_c),
        abs(back["zeta_c"] - system.zeta_c),
        abs(back["e_ltc"] - system.e_ltc) / system.e_ltc,
    ]
    errs += [abs(q[key] - b[key]) for q, b in zip(spec_qubits, back["qubits"])
             for key in ("beta_j", "zeta_j", "alpha_j")]
    worst = max(errs)
    yield "physical_roundtrip", worst <= 1e-12, f"max error {worst:.3e}"


def _cmd_validate(cfg, args) -> int:
    """validate: run the oracle cross-checks and print pass/fail lines."""
    total = failures = 0
    t0 = time.time()
    for name, ok, detail in _validation_checks(cfg):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        total += 1
        failures += 0 if ok else 1
    print(f"{total - failures}/{total} checks passed in {time.time() - t0:.1f}s")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


_COMMANDS = {
    "series": _cmd_series,
    "eg": _cmd_eg,
    "derivs": _cmd_derivs,
    "couplings": _cmd_couplings,
    "spectrum": _cmd_spectrum,
    "scan": _cmd_scan,
    "truncation": _cmd_truncation,
    "validate": _cmd_validate,
}


# ------------------------------------------------------------------- driver


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with the JSON error, as other bad input does."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process.

    parse_args keeps no state between calls (each gets a fresh namespace,
    and --epsilon's append default is None, not a shared list).
    """
    parser = _Parser(
        prog="coupler-lab",
        description="Qubit-qubit interactions through a nonlinear inductive coupler",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, nu_max=True):
        p = sub.add_parser(name, help=_COMMANDS[name].__doc__.splitlines()[0])
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if nu_max:
            p.add_argument("--nu-max", type=int, default=None, help="series order override")
        return p

    p = add("series")
    p.add_argument("--n-grid", type=int, default=721)
    for name in ("eg", "derivs"):
        p = add(name, nu_max=name == "eg")
        p.add_argument("--lo", type=float, default=0.0, help="grid start, units of 2*pi")
        p.add_argument("--hi", type=float, default=0.5, help="grid end, units of 2*pi")
        p.add_argument("--n-grid", type=int, default=201)
    p = add("couplings")
    p.add_argument("--labels", type=_labels, default="all",
                   help="comma-separated label strings, or all (the default)")
    p.add_argument("--pc-basis", action="store_true",
                   help="add persistent-current-basis label names (x and z swap)")
    p = add("spectrum")
    p.add_argument("--dims", default=None, help="exact-solve basis sizes, e.g. 40,40,18")
    add("scan")
    p = add("truncation", nu_max=False)
    p.add_argument("--epsilon", type=float, action="append", default=None,
                   help="error target; repeatable (default 1e-3)")
    add("validate", nu_max=False)
    return parser


def _apply_overrides(cfg: SystemConfig, args) -> SystemConfig:
    """cfg with the --nu-max and --dims flags, where the command takes them, applied."""
    numerics = dict(cfg.numerics)
    for flag, key in (("--nu-max", "nu_max"), ("--dims", "dims")):
        text = getattr(args, key, None)
        if text is not None:
            try:
                numerics[key] = _SECTIONS["numerics"][key][0](text)
            except ValueError as exc:
                raise ConfigurationError(f"{flag} = {text!r}: {exc}") from exc
    return replace(cfg, numerics=numerics)


def _emit_error(exc: Exception, code: int):
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    details = getattr(exc, "details", None)
    if details:
        payload["details"] = details
    print(json.dumps(payload, sort_keys=True, default=str), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _apply_overrides(load_config(args.config), args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "validate":
            return _cmd_validate(cfg, args)
        tables, extras = _COMMANDS[args.command](cfg, args)
        echo = _echo_lines(cfg, args.command, extras)
        for name, columns in tables.items():
            print(_write_csv(out / name, echo, columns))
        return EXIT_OK
    except (NumericError, ResourceError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        _emit_error(exc, EXIT_NUMERIC)
        return EXIT_NUMERIC
    except (ConfigurationError, ValueError) as exc:
        _emit_error(exc, EXIT_CONFIG)
        return EXIT_CONFIG


def run(command: str, config, out=".", **options) -> int:
    """Programmatic entry point mirroring the command line.

    options become --key=value flags (underscores map to dashes), so
    negative numbers parse as values; boolean True adds a bare flag.
    Returns the exit status.
    """
    argv = [command, "--config", str(config), "--out", str(out)]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv.append(f"{flag}={value}")
    return main(argv)


if __name__ == "__main__":
    sys.exit(main())
