"""Alternating benchmark pairs of two checkouts, and their summary.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --first-seed 4301 \
        --out BENCH_example.json --claim cli_pipeline/wall_s

PARENT and CHANGE are checkouts of two commits (a ``git archive`` export of
each works).  For every workload, pair k runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in both checkouts on seed S = first seed + k, one run after another, the
parent first on even k and the change first on odd k, so neither side
always runs on a warmer host.  The output JSON holds every run's result
line, the non-blank source lines of each side's ``src/coupler_lab`` in
total and per module, the machine facts perfbench printed, and per
workload and end-to-end metric the parent and change medians and
quartiles, how many pairs the change was lower in, the median paired
ratio change / parent with its bootstrap 95% interval, and the relative
change of the medians, with the failed operations and runs per side.
Each metric also states the two ways a change that claims no gain fails,
by the metric's bound and better direction: ``unresolved``, whether
either side's interquartile range is wider than the bound times its
median, and ``worse_than_bound``, whether the change's median is worse
than the parent's by more than the bound times the parent's median.
A metric claimed to improve (``--claim WORKLOAD/METRIC``, repeatable) is
also flagged ``improved`` when the gain is shown by all three rules: the
change is better in at least 9 of every 10 pairs, its median is better
than the parent's by more than the parent's interquartile range, and the
bootstrap interval lies wholly on the better side of 1 (its upper end
below 1 where lower is better).  The claims are recorded in the JSON.
The run length T, the workloads and the end-to-end metrics are those that
BENCHMARK.json at the root of this repository declares.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
METRICS = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
SIDES = ("parent", "change")
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 20161
# a claimed gain needs the change better in at least this share of pairs
CLAIM_PAIR_SHARE = 0.9


def schedule(workloads, pairs: int, first_seed: int):
    """(workload, seed, side) of every run, in the order they run."""
    order = []
    for workload in workloads:
        for k in range(pairs):
            sides = SIDES if k % 2 == 0 else SIDES[::-1]
            order += [(workload, first_seed + k, side) for side in sides]
    return order


def run_once(checkout: Path, workload: str, seed: int):
    """perfbench's result line for one run (None if it printed none) and
    the machine facts it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    machine = next((json.loads(line.split(": ", 1)[1]) for line in lines
                    if line.startswith("machine: ")), None)
    return result, machine


def module_lines(checkout: Path) -> dict:
    """Non-blank lines of each src/coupler_lab/*.py, by file name."""
    return {path.name: sum(1 for line in path.read_text().splitlines() if line.strip())
            for path in sorted((checkout / "src" / "coupler_lab").glob("*.py"))}


def source_lines(checkout: Path) -> int:
    """Non-blank lines of src/coupler_lab/*.py."""
    return sum(module_lines(checkout).values())


def _stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return round(median, 6), round(q1, 6), round(q3, 6)


def bootstrap_interval(ratios) -> list:
    """95% percentile-bootstrap interval of the median of ratios.

    The 2.5% and 97.5% quantiles of the medians of BOOTSTRAP_RESAMPLES
    resamples with replacement, drawn from a fixed seed, so a rerun on
    the same ratios gives the same interval.
    """
    rng = random.Random(BOOTSTRAP_SEED)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios)))
               for _ in range(BOOTSTRAP_RESAMPLES)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")
    return [round(cuts[0], 4), round(cuts[-1], 4)]


def improved(parent, change, interval, better: str) -> bool:
    """Whether paired values show a claimed gain: the change better in at
    least CLAIM_PAIR_SHARE of the pairs, its median better than the
    parent's by more than the parent's interquartile range, and the
    interval of change / parent ratios wholly on the better side of 1."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    p_med, p_q1, p_q3 = _stats(parent)
    gain = sign * (p_med - statistics.median(change))
    beyond = interval[1] < 1.0 if better == "lower" else interval[0] > 1.0
    return wins >= CLAIM_PAIR_SHARE * len(parent) and gain > p_q3 - p_q1 and beyond


def summarize(runs, claims=()) -> dict:
    """Per workload (in run order) and metric, the paired statistics.

    A pair counts when both of its runs gave a result; runs without one
    count as failed runs, as do runs whose result is not correct.  Each
    (workload, metric) in claims also gets its ``improved`` flag.
    """
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        by_seed = {}
        for run in mine:
            by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]
        pairs = [(sides["parent"], sides["change"]) for sides in by_seed.values()
                 if sides.get("parent") and sides.get("change")]
        entry = {}
        for metric, spec in METRICS.items():
            parent = [p["metrics"][metric]["value"] for p, _ in pairs]
            change = [c["metrics"][metric]["value"] for _, c in pairs]
            if len(pairs) < 2:
                entry[metric] = {"pairs": len(pairs)}
                continue
            p_med, p_q1, p_q3 = _stats(parent)
            c_med, c_q1, c_q3 = _stats(change)
            lower = sum(c < p for p, c in zip(parent, change))
            ratios = [c / p for p, c in zip(parent, change)]
            bound = spec["bound"]
            worse = c_med - p_med if spec["better"] == "lower" else p_med - c_med
            entry[metric] = {
                "pairs": len(pairs),
                "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
                "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
                "change_lower_in_pairs": f"{lower}/{len(pairs)}",
                "median_paired_ratio": round(statistics.median(ratios), 4),
                "median_paired_ratio_ci95": bootstrap_interval(ratios),
                "relative_change": round(statistics.median(change) / statistics.median(parent)
                                         - 1.0, 6),
                "unresolved": p_q3 - p_q1 > bound * p_med or c_q3 - c_q1 > bound * c_med,
                "worse_than_bound": worse > bound * p_med,
            }
            if (workload, metric) in claims:
                entry[metric]["improved"] = improved(
                    parent, change, entry[metric]["median_paired_ratio_ci95"], spec["better"])
        for side in SIDES:
            results = [run["result"] for run in mine if run["side"] == side]
            entry.setdefault("failed_operations", {})[side] = sum(
                r["failed"] for r in results if r)
            entry.setdefault("failed_runs", {})[side] = sum(
                1 for r in results if not r or not r["correct"])
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--note", action="append", default=[], metavar="KEY=TEXT",
                        help="a text field to add to the output; repeatable")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD/METRIC",
                        help="a metric the change claims to improve; repeatable")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    claims = [tuple(claim.split("/", 1)) for claim in args.claim]
    for claim in claims:
        if len(claim) != 2 or claim[0] not in WORKLOADS or claim[1] not in METRICS:
            parser.error(f"--claim takes WORKLOAD/METRIC from {', '.join(WORKLOADS)}"
                         f" and {', '.join(METRICS)}, got {'/'.join(claim)}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, machine = [], None
    for workload, seed, side in schedule(WORKLOADS, args.pairs, args.first_seed):
        result, facts = run_once(checkouts[side], workload, seed)
        machine = machine or facts
        runs.append({"seed": seed, "workload": workload, "side": side, "result": result})
        print(f"{workload} seed {seed} {side}: "
              + (json.dumps(result["metrics"]) if result else "no result"), file=sys.stderr)
    last = args.first_seed + args.pairs - 1
    report = dict(note.split("=", 1) for note in args.note)
    report.update({
        "claims": ["/".join(claim) for claim in claims],
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {RUN_SECONDS:g}"
                   " --trace 0, in each checkout",
        "pairs": f"{args.pairs} alternating pairs per workload on seeds {args.first_seed}-{last}"
                 " (parent first on even offsets from the first seed), run one after another,"
                 f" the workloads in the order {', '.join(WORKLOADS)}",
        "machine": machine,
        "source_lines": {"how": "non-blank lines of src/coupler_lab/*.py, in total and per file",
                         **{side: source_lines(path) for side, path in checkouts.items()},
                         "per_module": {side: module_lines(path)
                                        for side, path in checkouts.items()}},
        f"summary_{args.pairs}_pairs": summarize(runs, claims),
        "runs": runs,
    })
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
