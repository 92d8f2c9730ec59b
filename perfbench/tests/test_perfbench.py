"""Tests of the benchmark's own code: inputs, span arithmetic, metric names, smoke runs."""

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run, spans, workloads  # noqa: E402

import coupler_lab  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    def blob(seed):
        items = workloads.make_inputs(workload, seed, 5)
        text = json.dumps(items, sort_keys=True)
        if workload == "cli_pipeline":
            text += "".join(workloads.config_text(item) for item in items)
        return text.encode()

    assert blob(11) == blob(11)
    assert blob(11) != blob(12)


def test_draws_cover_each_stratum():
    items = workloads.make_inputs("reference_sweep", 3, 4)
    strata = sorted(int((item["beta_j"] - 0.5) / 0.9 * 4) for item in items)
    assert strata == [0, 1, 2, 3]


def test_self_time_on_synthetic_nest():
    nest = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "leaf", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "b", "start": 5.0, "end": 9.0, "parent": 0, "qualifier": "x"},
        {"name": "a", "start": 9.5, "end": 10.0, "parent": 0},
    ]
    assert spans.self_times(nest) == pytest.approx([2.5, 2.0, 1.0, 4.0, 0.5])
    stats = spans.layer_stats(nest)
    assert stats["a"] == pytest.approx({"calls": 2, "total_s": 3.5, "self_s": 2.5})
    assert stats["b.x"]["calls"] == stats["b"]["calls"] == 1
    assert spans.under(nest, 2, "root") and not spans.under(nest, 0, "root")


def test_tracer_records_aliases_and_restores():
    original = coupler_lab.b_coeffs
    with spans.Tracer() as tracer:
        coupler_lab.b_coeffs(0.5, 0.05, 8, 6)
    assert coupler_lab.b_coeffs is original
    assert coupler_lab.coupler.g_coeff is coupler_lab.kapteyn.g_coeff
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "coupler.b_coeffs"
    assert "kapteyn.g_coeff" in names and "kapteyn.bessel_j" in names
    assert tracer.missing == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    args = argparse.Namespace(workload=workload, seed=5, seconds=7, trace=trace, smoke=True,
                              setup_probe=False, write_reference=False)
    result, report = run.bench(args)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, report["failures"]
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == declared
    assert all(NAME.fullmatch(name) for name in emitted)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_declared_names_are_valid():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
