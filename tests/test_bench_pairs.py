"""tools/bench_pairs.py: the run order and the summary of synthetic runs."""

import importlib.util
import statistics
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def result(setup, wall, rss, failed=0):
    values = {"setup_s": setup, "wall_s": wall, "peak_rss_mb": rss}
    return {"correct": failed == 0, "attempted": 8, "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}


def test_schedule_alternates_which_side_runs_first():
    order = bench_pairs.schedule(("a", "b"), 3, 10)
    assert order[:6] == [("a", 10, "parent"), ("a", 10, "change"),
                         ("a", 11, "change"), ("a", 11, "parent"),
                         ("a", 12, "parent"), ("a", 12, "change")]
    assert [w for w, _, _ in order] == ["a"] * 6 + ["b"] * 6


def test_summary_of_synthetic_runs():
    parent_wall = [1.0, 2.0, 3.0, 4.0, 5.0]
    change_wall = [0.9, 2.2, 2.7, 3.6, 5.5]
    runs = []
    for k, (p, c) in enumerate(zip(parent_wall, change_wall)):
        runs.append({"seed": k, "workload": "w", "side": "parent",
                     "result": result(0.2, p, 40.0)})
        runs.append({"seed": k, "workload": "w", "side": "change",
                     "result": result(0.2 + 0.01 * k, c, 40.0, failed=int(k == 4))})
    # a run that printed no result drops its pair and counts as failed
    runs.append({"seed": 9, "workload": "w", "side": "parent", "result": None})
    runs.append({"seed": 9, "workload": "w", "side": "change", "result": result(1, 1, 1)})
    entry = bench_pairs.summarize(runs)["w"]
    wall = entry["wall_s"]
    assert wall["pairs"] == 5
    assert (wall["parent_q1"], wall["parent_median"], wall["parent_q3"]) == (2.0, 3.0, 4.0)
    assert (wall["change_q1"], wall["change_median"], wall["change_q3"]) == (2.2, 2.7, 3.6)
    assert wall["change_lower_in_pairs"] == "3/5"
    # paired ratios 0.9, 1.1, 0.9, 0.9, 1.1
    assert wall["median_paired_ratio"] == 0.9
    lo, hi = wall["median_paired_ratio_ci95"]
    assert 0.9 <= lo <= wall["median_paired_ratio"] <= hi <= 1.1
    assert entry["peak_rss_mb"]["median_paired_ratio_ci95"] == [1.0, 1.0]
    assert wall["relative_change"] == pytest.approx(2.7 / 3.0 - 1.0, abs=1e-6)
    assert entry["setup_s"]["change_lower_in_pairs"] == "0/5"
    assert entry["peak_rss_mb"]["median_paired_ratio"] == 1.0
    assert entry["failed_operations"] == {"parent": 0, "change": 1}
    assert entry["failed_runs"] == {"parent": 1, "change": 1}


def test_bootstrap_interval_is_deterministic_and_holds_the_median():
    ratios = [0.93, 1.02, 0.97, 1.10, 0.99, 1.04, 0.95, 1.01, 0.98, 1.06, 0.96]
    lo, hi = bench_pairs.bootstrap_interval(ratios)
    assert lo < round(statistics.median(ratios), 4) < hi
    assert min(ratios) <= lo and hi <= max(ratios)
    assert bench_pairs.bootstrap_interval(ratios) == [lo, hi]
    assert bench_pairs.bootstrap_interval([1.0] * 10) == [1.0, 1.0]


def test_source_lines_count_non_blank_lines(tmp_path):
    package = tmp_path / "src" / "coupler_lab"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\n   \ny = 2\n")
    (package / "b.py").write_text("# one\n")
    (package / "notes.txt").write_text("not counted\n")
    assert bench_pairs.source_lines(tmp_path) == 3
