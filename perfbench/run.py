"""coupler-lab benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reference_sweep --seed 1 --seconds 20 --trace 0

Workloads are reference_sweep, strong_coupler_na and cli_pipeline (see
workloads.py and README.md).  ``--seconds`` fixes how many items a run holds,
through per-item constants, so every commit runs the same items.  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` the items run with every public coupler_lab function wrapped,
after the same run untraced in a child process, and the line reports the
per-layer metrics derived from the spans.
The lines before it give every metric with its unit, the failure rate with
each failure's cause, and the machine facts.  A JSON record of the run
(spans included when traced) goes to .perfbench/ in the checkout.

The package is imported from src/ of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_PROBES = 3

sys.path.insert(0, str(ROOT))  # perfbench is a package, whatever the working directory
from perfbench import spans  # noqa: E402  (imports nothing from coupler_lab)

# Layers whose calls, total_s and self_s the traced run reports.
STAT_LAYERS = (
    "oscillator.lowest_eigs.lanczos", "oscillator.lowest_eigs.dense",
    "oscillator.matvec", "oscillator.to_dense",
    "oscillator.ho_exp_matrix", "oscillator.assemble_tensor_operator",
    "bench.exact_spectrum", "bench.bo_spectrum.NA", "bench.bo_spectrum.LA",
    "bench.bo_spectrum.LN", "bench.coupling_scan",
    "coupler.b_coeffs", "coupler.eg_exact", "coupler.eg_derivs_numeric",
    "coupler.min_nu_for_error", "coupler.truncation_bound",
    "kapteyn.g_coeff", "kapteyn.bessel_j", "kapteyn.kepler_solve",
    "kapteyn.sin_beta", "kapteyn.cos_beta",
    "projection.qubit_subspace", "projection.couplings",
    "cli.load_config", "cli.run", "cli.main",
)

# BLAS threads per workload where fewer than nproc.  cli_pipeline solves
# 50-60-state dense problems: a second OpenBLAS thread makes no item faster,
# only spin-waits, and on a shared host it ties the run time to whatever else
# holds the other core.  On a 2-core x86-64 host one run took 23 s with 2
# threads and 31 s beside one busy process; with 1 thread, 21 s and 16 s.
BLAS_THREADS = {"cli_pipeline": 1}


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def limit_blas_threads(workload):
    """Cap BLAS threads at the workload's share of nproc; must run before numpy is imported."""
    cap = min(nproc(), BLAS_THREADS.get(workload, nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_package():
    """Import coupler_lab from this checkout's src/, never from elsewhere."""
    if not (SRC / "coupler_lab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no coupler_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import coupler_lab
    if Path(coupler_lab.__file__).resolve().parent != (SRC / "coupler_lab").resolve():
        raise ImportError(f"coupler_lab resolved to {coupler_lab.__file__}, not {SRC}")
    return coupler_lab


def machine_facts(blas_threads):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def source_loc():
    """Non-blank source lines per module."""
    loc = {}
    for module in spans.MODULES:
        path = SRC / "coupler_lab" / f"{module}.py"
        text = path.read_text() if path.is_file() else ""
        loc[module] = sum(1 for line in text.splitlines() if line.strip())
    return loc


def _self_command(args, *extra):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    return cmd + ["--smoke"] if args.smoke else cmd


def measure_setup(args):
    """Median seconds from process start until the first item may begin.

    Each probe is a fresh interpreter that imports coupler_lab, generates
    the inputs and exits, so the import is paid every time as a user pays it.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(_self_command(args, "--setup-probe"), check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def untraced_run(args):
    """The result line of the same run with tracing off, in a fresh process.

    A process's first pass over the items pays for faulting in its memory,
    so the traced pass is compared with a fresh process's pass, not with a
    second pass in this one.
    """
    proc = subprocess.run(_self_command(args, "--trace", "0"), check=True,
                          capture_output=True, text=True, timeout=150)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_metrics(tracer, traced_wall, untraced_wall, csv_bytes, cpu_s, report):
    """Per-layer metrics from the spans of one traced pass: {name: (value, unit)}."""
    recorded = tracer.spans
    stats = spans.layer_stats(recorded)
    out = {}
    for layer in STAT_LAYERS:
        s = stats.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{layer}.calls"] = (s["calls"], "count")
        out[f"{layer}.total_s"] = (s["total_s"], "s")
        out[f"{layer}.self_s"] = (s["self_s"], "s")
    lanczos_key = "oscillator.lowest_eigs.lanczos"
    lanczos = [sp for sp in recorded if spans.span_key(sp) == lanczos_key]
    levels = sum(sp.get("levels", 0) for sp in lanczos)
    lanczos_vectors = sum(sp.get("vectors", 0) for i, sp in enumerate(recorded)
                          if sp["name"] == "oscillator.matvec"
                          and spans.under(recorded, i, lanczos_key))
    bases = [sp["basis"] for sp in lanczos if "basis" in sp]
    out[f"{lanczos_key}.matvecs_per_level"] = (lanczos_vectors / levels if levels else 0.0, "ratio")
    out[f"{lanczos_key}.basis"] = (statistics.mean(bases) if bases else 0.0, "count")
    out[f"{lanczos_key}.max_residual"] = (
        max((sp["max_residual"] for sp in lanczos if "max_residual" in sp), default=0.0), "E_L1")
    vectors = sum(sp.get("vectors", 0) for sp in recorded if sp["name"] == "oscillator.matvec")
    matvec_s = stats.get("oscillator.matvec", {}).get("total_s", 0.0)
    out["oscillator.matvec.vectors"] = (vectors, "count")
    out["oscillator.matvec.s_per_vector"] = (matvec_s / vectors if vectors else 0.0, "s")
    out["projection.couplings.labels"] = (
        sum(sp.get("labels", 0) for sp in recorded if sp["name"] == "projection.couplings"),
        "count")
    out["cli.csv_bytes"] = (csv_bytes, "bytes")
    for module, lines in report["loc"].items():
        out[f"{module}.loc"] = (lines, "lines")
    out["cpu_s"] = (cpu_s, "s")
    out["machine.nproc"] = (report["machine"]["nproc"], "count")
    out["machine.blas_threads"] = (report["machine"]["blas_threads"], "count")
    top = sum(sp["end"] - sp["start"] for sp in recorded if sp["parent"] is None)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.unattributed_s"] = (traced_wall - top, "s")
    out["trace.unattributed_share"] = ((traced_wall - top) / traced_wall, "ratio")
    out["trace.missing"] = (len(tracer.missing), "count")
    out["trace.spans"] = (len(recorded), "count")
    return out


def csv_bytes_of(ops):
    dirs = {op.out_dir for op in ops if op.out_dir is not None}
    return sum(p.stat().st_size for d in dirs if d.is_dir() for p in d.glob("*.csv"))


def load_references(workload):
    return json.loads(REFERENCE.read_text()).get(workload, {}) if REFERENCE.is_file() else {}


def bench(args):
    """Run one workload; returns (result line dict, report dict)."""
    blas_threads = limit_blas_threads(args.workload)
    import_package()
    from perfbench import workloads as wl

    size = wl.SMOKE if args.smoke else wl.FULL
    n_items = wl.item_count(args.workload, args.seconds)
    inputs = wl.make_inputs(args.workload, args.seed, n_items, size)
    refs = {} if args.write_reference or args.smoke else load_references(args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        configs = wl.prepare(args.workload, inputs, size, workdir)
        if args.setup_probe:
            return None, None
        report = {"workload": args.workload, "seed": args.seed, "items": n_items,
                  "inputs": inputs, "machine": machine_facts(blas_threads), "loc": source_loc()}
        if args.trace:
            untraced = untraced_run(args)
            tracer = spans.Tracer()
            cpu0 = time.process_time()
            with tracer:
                ops, item_s, wall_s = wl.run_items(args.workload, inputs, configs, size, workdir)
            cpu_s = time.process_time() - cpu0
            metrics = traced_metrics(tracer, wall_s, untraced["metrics"]["wall_s"]["value"],
                                     csv_bytes_of(ops), cpu_s, report)
            report["missing_spans"] = tracer.missing
            report["spans"] = tracer.spans
        else:
            setup_s = measure_setup(args)
            ops, item_s, wall_s = wl.run_items(args.workload, inputs, configs, size, workdir)
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (wall_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        failures = wl.check(args.workload, inputs, ops, size, refs)
        if args.write_reference:
            obs = wl.observe(args.workload, ops)
            stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
            stored[args.workload] = {wl.item_key(item): obs[i] for i, item in enumerate(inputs)
                                     if i in obs}
            REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(ops), len(failures)
    if args.trace:  # the untraced comparison run counts too
        attempted += untraced["attempted"]
        failed += untraced["failed"]
    report.update(failures=[{"item": i, "op": n, "cause": c} for i, n, c in failures],
                  attempted=attempted, failed=failed, fail_rate=failed / attempted,
                  items_s=item_s)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("reference_sweep", "strong_coupler_na", "cli_pipeline"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal problem sizes: the same code paths in seconds")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the references for its items")
    args = parser.parse_args(argv)
    try:
        result, report = bench(args)
    except (FileNotFoundError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if result is None:
        return 0

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, default=str) + "\n")
    for f in report["failures"]:
        print(f"FAILED item {f['item']} {f['op']}: {f['cause']}")
    print(f"machine: {json.dumps(report['machine'], sort_keys=True)}")
    print(f"loc: {json.dumps(report['loc'], sort_keys=True)}")
    print(f"items: {report['items']}  item_s.p50 = {statistics.median(report['items_s']):.6g} s"
          f"  fail_rate = {report['fail_rate']:.6g}"
          f" ({report['failed']}/{report['attempted']} operations)")
    if report.get("missing_spans"):
        print(f"missing spans: {', '.join(report['missing_spans'])}")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
