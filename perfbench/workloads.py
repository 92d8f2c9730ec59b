"""Seeded inputs, timed runs and output checks for the three workloads.

reference_sweep    the paper's reference point (beta_c = 0.75, zeta_c = 0.05,
                   e_ltc = 3, two qubits with zeta_j = alpha_j = 0.05); each
                   item draws beta_j in [0.5, 1.4] and runs the exact solve
                   (40x40x18, block Lanczos) plus NA, LA and LN (40x40, dense).
strong_coupler_na  criterion 10b's window: beta_c = 0.95, beta_j = 1.05; each
                   item draws phi_cx in [0.015, 0.05] * 2 pi and runs NA
                   (nu_max = 400, mu_max = 120), LA and LN; no exact solve.
cli_pipeline       seeded INI configs; each item runs every CLI command but
                   ``spectrum`` through ``coupler_lab.cli.run``.

Draws are stratified: item i of n takes each continuous parameter that sets
the cost from the i-th of n equal slices of its range, each parameter in its
own shuffled order, and discrete choices cycle through all combinations.
Every seed still gives different inputs, but every run covers the ranges
evenly, so runs of different seeds do comparable work.  The program sees only the generated
inputs, and calls go through the ``coupler_lab`` namespace so a tracer that
rebinds it sees them.
"""

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import coupler_lab as lab

WORKLOADS = ("reference_sweep", "strong_coupler_na", "cli_pipeline")

# Seconds one item took at the commit that introduced the benchmark (2-core
# x86-64, OpenBLAS with 2 threads).  They fix how many items a run of a given
# length holds; they are constants so that a faster program runs the same
# items in less time.
NOMINAL_ITEM_S = {"reference_sweep": 20.0, "strong_coupler_na": 30.0, "cli_pipeline": 3.4}
# The exact solve's cost grows with beta_j, so a reference_sweep run takes at
# least one item from each half of the beta_j range.
MIN_ITEMS = {"reference_sweep": 2, "strong_coupler_na": 1, "cli_pipeline": 1}

TWO_PI = 2.0 * math.pi
N_LEVELS = 6
THEORIES = ("NA", "LA", "LN")
CLI_CSV = {  # command -> the CSV files it writes; the commands run in this order
    "series": ("series_profile.csv", "series_coefficients.csv"),
    "eg": ("eg.csv",),
    "derivs": ("derivs.csv",),
    "couplings": ("couplings.csv",),
    "scan": ("scan.csv",),
    "truncation": ("truncation.csv",),
    "validate": (),
}
CLI_COMMANDS = tuple(CLI_CSV)
SCAN_LABELS = {2: "xx,zz,xz", 3: "xxI,xxx,zzz,xzz"}

# Tolerance against the stored references: the ground-level change between
# exact dims (40,40,18) and (56,56,18) at beta_j = 1.4, so a converged change
# of basis passes and a wrong answer does not.  Eigenvalues compare in E_L1;
# CSV columns compare relative to the column's largest magnitude.
BASIS_TOL = 4e-5
LANCZOS_TOL = 1e-9       # the default tolerance of coupler_lab.lowest_eigs
IMAG_RESIDUE_MAX = 1e-10
LINEAR_WINDOW_BETA_J = 0.8   # criterion 10a holds up to here
LINEAR_WINDOW_REL = 0.02


@dataclass(frozen=True)
class Size:
    """Problem sizes; None keeps the package default."""

    exact_dims: tuple = None
    bo_dims: tuple = None
    ref_series: tuple = (100, 40)
    strong_series: tuple = (400, 120)
    nu_choices: tuple = (100, 200, 400)
    n_grid: int = None
    scan_points: int = 41


FULL = Size()
# Minimal sizes for the benchmark's own tests: the same code paths in seconds.
SMOKE = Size(exact_dims=(12, 12, 6), bo_dims=(12, 12), ref_series=(20, 20),
             strong_series=(40, 40), nu_choices=(10, 20, 30), n_grid=9, scan_points=5)


def item_count(workload, seconds):
    return max(MIN_ITEMS[workload], int(seconds / NOMINAL_ITEM_S[workload] + 0.5))


def _strata(rng, lo, hi, n):
    values = [round(lo + (hi - lo) * (i + rng.random()) / n, 6) for i in range(n)]
    rng.shuffle(values)
    return values


def make_inputs(workload, seed, n_items, size=FULL):
    """JSON-serializable item descriptions; the same seed gives the same items."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "reference_sweep":
        return [{"beta_j": b} for b in _strata(rng, 0.5, 1.4, n_items)]
    if workload == "strong_coupler_na":
        return [{"phi_cx_over_2pi": f} for f in _strata(rng, 0.015, 0.05, n_items)]
    if workload == "cli_pipeline":
        # qubit count and series order set most of an item's cost: a run
        # cycles through all their combinations in a seeded order
        combos = [(n_q, nu) for n_q in (2, 3) for nu in size.nu_choices]
        rng.shuffle(combos)
        # beta_c > 0.9 needs mu_max = 120, which makes every series build
        # dearer: each run takes one item in six from that window
        n_strong = 1 + (n_items - 1) // 6
        betas = (_strata(rng, 0.3, 0.9, n_items - n_strong)
                 + _strata(rng, 0.9, 0.95, n_strong))
        rng.shuffle(betas)
        items = []
        zetas = _strata(rng, 0.02, 0.25, n_items)
        for i, (beta_c, zeta_c) in enumerate(zip(betas, zetas)):
            n_q, nu_max = combos[i % len(combos)]
            items.append({
                "beta_c": beta_c,
                "zeta_c": zeta_c,
                "beta_j": [round(rng.uniform(0.8, 1.2), 6) for _ in range(n_q)],
                "nu_max": nu_max,
                # the b_coeffs docstring rule: 40 suffices up to beta_c = 0.9
                "mu_max": 40 if beta_c <= 0.9 else 120,
            })
        return items
    raise ValueError(f"unknown workload {workload!r}")


def config_text(item, size=FULL):
    """INI config of one cli_pipeline item."""
    lines = ["[meta]", "schema = 1", "", "[coupler]",
             f"beta_c = {item['beta_c']!r}", f"zeta_c = {item['zeta_c']!r}", "e_ltc = 3.0", ""]
    for j, beta_j in enumerate(item["beta_j"], start=1):
        lines += [f"[qubit.{j}]", f"beta_j = {beta_j!r}", "zeta_j = 0.05", "alpha_j = 0.05", ""]
    lines += ["[numerics]", f"nu_max = {item['nu_max']}", f"mu_max = {item['mu_max']}", "",
              "[scan]", f"labels = {SCAN_LABELS[len(item['beta_j'])]}", "lo = 0.0", "hi = 0.1",
              f"n_points = {size.scan_points}", ""]
    return "\n".join(lines)


def prepare(workload, inputs, size, workdir):
    """Write what the items read before they run: the cli configs."""
    if workload != "cli_pipeline":
        return [None] * len(inputs)
    paths = []
    for i, item in enumerate(inputs):
        path = Path(workdir) / f"item{i}.ini"
        path.write_text(config_text(item, size))
        paths.append(path)
    return paths


def system_of(workload, item):
    if workload == "reference_sweep":
        beta_c, beta_j, phi_cx = 0.75, item["beta_j"], 0.0
    else:
        beta_c, beta_j, phi_cx = 0.95, 1.05, item["phi_cx_over_2pi"] * TWO_PI
    q = lab.QubitParams(beta_j=beta_j, zeta_j=0.05, alpha_j=0.05)
    return lab.CouplerSystem(beta_c=beta_c, zeta_c=0.05, qubits=(q, q), e_ltc=3.0, phi_cx=phi_cx)


@dataclass
class Op:
    """One attempted operation: a theory solve or one CLI command."""

    item: int
    name: str
    seconds: float
    value: object = None
    error: str = None
    out_dir: Path = None


def _attempt(ops, item, name, call, out_dir=None):
    t0 = time.perf_counter()
    try:
        value, error = call(), None
    except (Exception, SystemExit) as exc:  # a failure is counted, the run goes on
        value, error = None, f"{type(exc).__name__}: {exc}"
    ops.append(Op(item, name, time.perf_counter() - t0, value, error, out_dir))


def _cli(command, config, out, size):
    options = {}
    if size.n_grid and command in ("series", "eg", "derivs"):
        options["n_grid"] = size.n_grid
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = lab.cli.run(command, config, out=out, **options)
    return rc, stdout.getvalue(), stderr.getvalue()


def _series(workload, size):
    if workload == "reference_sweep":
        return lab.b_coeffs(0.75, 0.05, *size.ref_series)
    return lab.b_coeffs(0.95, 0.05, *size.strong_series)


def run_items(workload, inputs, configs, size, out_root):
    """Run every item once.  Returns (ops, per-item seconds, wall seconds).

    The sweeps build their interaction series once per run, as ``sweep``
    does; that time counts toward the wall time but not toward any item.
    """
    ops, item_s = [], []
    t_start = time.perf_counter()
    series, series_error = None, None
    if workload != "cli_pipeline":
        try:
            series = _series(workload, size)
        except Exception as exc:
            series_error = f"{type(exc).__name__}: {exc}"
    for i, item in enumerate(inputs):
        t0 = time.perf_counter()
        if workload == "cli_pipeline":
            out = Path(out_root) / f"item{i}"
            for command in CLI_COMMANDS:
                _attempt(ops, i, command,
                         lambda c=command: _cli(c, configs[i], out, size), out)
        else:
            system = system_of(workload, item)
            if workload == "reference_sweep":
                _attempt(ops, i, "exact", lambda: lab.exact_spectrum(
                    system, dims=size.exact_dims, n_levels=N_LEVELS))
            for theory in THEORIES:
                def solve(theory=theory):
                    if theory == "NA" and series is None:
                        raise RuntimeError(f"series build failed: {series_error}")
                    return lab.bo_spectrum(theory, system, dims=size.bo_dims, n_levels=N_LEVELS,
                                           series=series if theory == "NA" else None)
                _attempt(ops, i, theory, solve)
        item_s.append(time.perf_counter() - t0)
    return ops, item_s, time.perf_counter() - t_start


# ------------------------------------------------------------------ checks


def _width_bound(system, dims):
    """Upper bound on the spectral width of the exact Hamiltonian at dims.

    It also serves as the residual scale for an iterative reduced-theory
    solve of the same item.
    """
    nm = lab.normal_modes(system, dims)
    ladder = sum(w * (d - 1) for w, d in zip(nm.freqs, dims))
    return float(ladder + 4.0 * np.sum(np.abs(nm.amplitudes)))


def _spectrum_problems(spec):
    vals = np.asarray(spec.eigenvalues)
    if len(vals) != N_LEVELS or not np.all(np.isfinite(vals)):
        return "non-finite or missing eigenvalues"
    if np.any(np.diff(vals) < 0.0):
        return "eigenvalues not sorted"
    return None


def _solve_problems(workload, item, op, size):
    problem = _spectrum_problems(op.value)
    meta = op.value.metadata
    if problem is None and meta.get("solver") != "dense":
        if "residuals" not in meta:
            return f"{meta.get('solver')} solve reports no residuals"
        dims = size.exact_dims or (40, 40, 18)
        limit = 10.0 * LANCZOS_TOL * _width_bound(system_of(workload, item), dims)
        worst = float(np.max(meta["residuals"]))
        if not worst <= limit:
            problem = f"true residual {worst:.3e} above {limit:.3e}"
    return problem


def read_csv(path):
    """(header dict of simple key=value lines, {column: [text]})."""
    header, names, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition("=")
            if sep and " " not in key:
                header[key] = value
        elif names is None:
            names = line.split(",")
        else:
            rows.append(line.split(","))
    return header, {n: [r[j] for r in rows] for j, n in enumerate(names or ())}


def _numeric_columns(columns):
    out = {}
    for name, texts in columns.items():
        try:
            out[name] = np.asarray([float(t) for t in texts])
        except ValueError:
            continue  # a text column such as the Pauli labels
    return out


def observe(workload, ops):
    """Per item and operation, the values compared against stored references."""
    obs = {}
    for op in ops:
        if op.error is not None:
            continue
        rec = obs.setdefault(op.item, {}).setdefault(op.name, {})
        if workload != "cli_pipeline":
            rec["eigenvalues"] = [float(v) for v in op.value.eigenvalues]
            continue
        for csv in CLI_CSV[op.name]:
            path = op.out_dir / csv
            if not path.is_file():
                continue
            for col, values in _numeric_columns(read_csv(path)[1]).items():
                rows = sorted({int(k) for k in np.linspace(0, max(len(values) - 1, 0), 5)})
                rows = rows if len(values) else []
                rec[f"{csv}:{col}"] = {
                    "n": len(values),
                    "scale": float(np.max(np.abs(values))) if len(values) else 0.0,
                    "rows": rows,
                    "values": [float(values[k]) for k in rows],
                }
    return obs


def _reference_problems(name, got, ref):
    if isinstance(ref, list):
        diff = np.max(np.abs(np.asarray(got) - np.asarray(ref)))
        return None if diff <= BASIS_TOL else f"{name} off reference by {diff:.3e}"
    if got["n"] != ref["n"] or got["rows"] != ref["rows"]:
        return f"{name} has {got['n']} rows, reference {ref['n']}"
    diff = np.max(np.abs(np.asarray(got["values"]) - np.asarray(ref["values"])), initial=0.0)
    if diff > BASIS_TOL * ref["scale"]:
        return f"{name} off reference by {diff:.3e} (scale {ref['scale']:.3e})"
    return None


def _cli_problems(op):
    rc, stdout, stderr = op.value
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()[-300:]}"
    if op.name == "validate":
        verdicts = [line for line in stdout.splitlines() if line.startswith(("PASS", "FAIL"))]
        bad = [line for line in verdicts if not line.startswith("PASS")]
        if not verdicts or bad:
            return "validate: " + ("; ".join(bad) or "no check lines")
    for csv in CLI_CSV[op.name]:
        path = op.out_dir / csv
        if not path.is_file():
            return f"{csv} not written"
        header, columns = read_csv(path)
        numeric = _numeric_columns(columns)
        if not columns or not all(len(v) for v in columns.values()):
            return f"{csv} has no data rows"
        if any(not np.all(np.isfinite(v)) for v in numeric.values()):
            return f"{csv} holds non-finite values"
        if csv == "couplings.csv":
            residue = float(header.get("imag_residue", "nan"))
            if not residue < IMAG_RESIDUE_MAX:
                return f"imag_residue {residue} not below {IMAG_RESIDUE_MAX}"
    return None


def check(workload, inputs, ops, size, references=None):
    """Failure causes as (item, op, cause); every op is checked."""
    failures = []
    by_item = {}
    for op in ops:
        by_item.setdefault(op.item, {})[op.name] = op
    refs = references or {}
    obs = observe(workload, ops)
    for i, item in enumerate(inputs):
        item_ops = by_item.get(i, {})
        causes = {name: op.error for name, op in item_ops.items() if op.error}
        for name, op in item_ops.items():
            if name in causes:
                continue
            try:
                problem = (_cli_problems(op) if workload == "cli_pipeline"
                           else _solve_problems(workload, item, op, size))
            except Exception as exc:  # a check that cannot run fails its operation
                problem = f"output check raised {type(exc).__name__}: {exc}"
            if problem:
                causes[name] = problem
        exact = item_ops.get("exact")
        if (workload == "reference_sweep" and exact is not None and "exact" not in causes
                and item["beta_j"] <= LINEAR_WINDOW_BETA_J):
            ref_exc = exact.value.excitations[:4]
            for theory in THEORIES:
                op = item_ops.get(theory)
                if op is None or theory in causes:
                    continue
                rel = float(np.max(np.abs(op.value.excitations[:4] - ref_exc) / ref_exc))
                if rel > LINEAR_WINDOW_REL:
                    causes[theory] = f"lowest excitations {100 * rel:.2f}% off exact"
        for name, ref_values in refs.get(item_key(item), {}).items():
            if name in causes:
                continue
            got = obs.get(i, {}).get(name, {})
            for key, ref_value in ref_values.items():
                problem = (f"{key} missing" if key not in got
                           else _reference_problems(key, got[key], ref_value))
                if problem:
                    causes[name] = problem
                    break
        failures.extend((i, name, cause) for name, cause in sorted(causes.items()))
    return failures


def item_key(item):
    return json.dumps(item, sort_keys=True)
