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
    # wall_s quartiles 2..4 around 3 are wider than 0.25 x 3: unresolved,
    # though its median fell; setup_s 0.2 -> 0.22 is within 0.25 x 0.2
    assert (wall["unresolved"], wall["worse_than_bound"]) == (True, False)
    assert (entry["setup_s"]["unresolved"], entry["setup_s"]["worse_than_bound"]) == (False, False)


def paired_runs(parent, change, metric="wall_s"):
    """Synthetic runs whose metric takes the given values, the others fixed."""
    runs = []
    for k, values in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), values):
            fields = {"setup": 0.2, "wall": 1.0, "rss": 40.0}
            fields[{"setup_s": "setup", "wall_s": "wall", "peak_rss_mb": "rss"}[metric]] = value
            runs.append({"seed": k, "workload": "w", "side": side,
                         "result": result(fields["setup"], fields["wall"], fields["rss"])})
    return runs


@pytest.mark.parametrize("metric, parent, change, unresolved, worse", [
    # bound 0.25: a steady 1.0 -> 1.3 is worse by more than the bound
    ("wall_s", [1.0] * 5, [1.3] * 5, False, True),
    ("wall_s", [1.0] * 5, [1.2] * 5, False, False),
    # the change's own quartiles 1.0..1.4 span 0.4 > 0.25 x 1.2
    ("wall_s", [1.0] * 5, [0.9, 1.0, 1.2, 1.4, 1.5], True, False),
    # bound 0.1 on peak_rss_mb
    ("peak_rss_mb", [40.0] * 5, [44.5] * 5, False, True),
    ("peak_rss_mb", [40.0] * 5, [36.0] * 5, False, False),
])
def test_summary_flags_unresolved_and_worse_than_bound(metric, parent, change, unresolved,
                                                       worse):
    flags = bench_pairs.summarize(paired_runs(parent, change, metric))["w"][metric]
    assert (flags["unresolved"], flags["worse_than_bound"]) == (unresolved, worse)


def test_worse_follows_the_better_direction(monkeypatch):
    # a metric where higher is better is worse when its median falls
    metrics = dict(bench_pairs.METRICS)
    metrics["wall_s"] = {**metrics["wall_s"], "better": "higher"}
    monkeypatch.setattr(bench_pairs, "METRICS", metrics)
    falls = bench_pairs.summarize(paired_runs([1.0] * 5, [0.7] * 5))["w"]["wall_s"]
    rises = bench_pairs.summarize(paired_runs([1.0] * 5, [1.3] * 5))["w"]["wall_s"]
    assert (falls["worse_than_bound"], rises["worse_than_bound"]) == (True, False)


PARENT_WALL = [1.0, 0.95, 1.05, 1.0, 0.98, 1.02, 1.0, 0.97, 1.03, 1.0]


@pytest.mark.parametrize("parent, change, improved", [
    (PARENT_WALL, [0.6 * p for p in PARENT_WALL], True),
    # one pair in ten not lower still shows the gain
    (PARENT_WALL, [0.6 * p for p in PARENT_WALL[:9]] + [1.1], True),
    # two in ten not lower: too few pairs, though the interval lies below 1
    (PARENT_WALL, [0.6 * p for p in PARENT_WALL[:8]] + [1.1, 1.1], False),
    # every pair lower, interval below 1, but the medians differ by less
    # than the parent's interquartile range (0.625 .. 1.375)
    ([0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5],
     [0.4, 0.4, 0.4, 0.8, 0.8, 0.8, 0.8, 1.2, 1.2, 1.2], False),
    # most pairs lower, but the interval reaches past 1
    ([1.0] * 6, [0.6, 0.62, 0.58, 1.3, 1.2, 1.25], False),
])
def test_claimed_metric_is_flagged_improved(parent, change, improved):
    # only a claimed metric gets the flag, set when the change is lower in
    # 9 of 10 pairs, its median falls by more than the parent's
    # interquartile range and the interval of the median paired ratio lies
    # wholly below 1 (lower is better)
    entry = bench_pairs.summarize(paired_runs(parent, change), {("w", "wall_s")})["w"]
    assert entry["wall_s"]["improved"] is improved
    assert "improved" not in entry["setup_s"] and "improved" not in entry["peak_rss_mb"]
    assert "improved" not in bench_pairs.summarize(paired_runs(parent, change))["w"]["wall_s"]


def test_improved_follows_the_better_direction():
    # where higher is better, the change must be higher and the interval
    # lie wholly above 1
    parent, change = PARENT_WALL, [1.6 * p for p in PARENT_WALL]
    assert bench_pairs.improved(parent, change, [1.55, 1.65], "higher")
    assert not bench_pairs.improved(parent, change, [0.9, 1.65], "higher")
    assert not bench_pairs.improved(parent, change, [1.55, 1.65], "lower")
    assert not bench_pairs.improved(change, parent, [1.55, 1.65], "higher")


def test_claim_must_name_a_workload_and_metric(tmp_path):
    for bad in ("cli_pipeline", "cli_pipeline/cpu_s", "nowhere/wall_s"):
        with pytest.raises(SystemExit):
            bench_pairs.main([str(tmp_path), str(tmp_path), "--out", str(tmp_path / "x.json"),
                              "--claim", bad])


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


def test_module_lines_count_each_module(tmp_path):
    # two synthetic checkouts: the per-module counts show which file lost lines
    counts = {}
    for side, init in (("parent", "a = 1\nb = 2\n\nc = 3\n"), ("change", "\nfrom .m import *\n")):
        package = tmp_path / side / "src" / "coupler_lab"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(init)
        (package / "m.py").write_text("def f():\n\n    return 1\n")
        (package / "README.txt").write_text("not counted\n")
        counts[side] = bench_pairs.module_lines(tmp_path / side)
        assert bench_pairs.source_lines(tmp_path / side) == sum(counts[side].values())
    assert counts == {"parent": {"__init__.py": 3, "m.py": 2},
                      "change": {"__init__.py": 1, "m.py": 2}}
