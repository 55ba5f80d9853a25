"""Compare two checkouts on benchmark workloads in alternating pairs of runs.

For each workload named, in turn, each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in PARENT and once in CHANGE, each in its own process from its own
checkout; the side that runs first alternates from pair to pair, so a
drift in the host's speed lands on both sides alike. For every end-to-end
metric that CHANGE's BENCHMARK.json declares, the script prints each
side's median [first quartile, third quartile] over the pairs, the move
of the median, and the pairs the change won. A win follows the metric's
`better`; a tie counts for neither side. A median worse than the
parent's by more than the metric's `bound` is marked OVER BOUND. A metric
whose parent runs spread wider than its bound, (q3 - q1) / median, is
marked UNRESOLVED: its move cannot be told from the noise, unless every
change run reads better than every parent run, which leaves it unmarked.
A metric on which the change won at least nine tenths of ten or more
pairs, with its median better than the parent's by more than the parent's
quartile distance (q3 - q1), is marked GAIN: the rule a claimed gain must
meet.
The script prints one such block per workload, headed by its runs' JSON.

`--workload` takes one or more names, or `all`: every workload that
CHANGE's BENCHMARK.json declares, in its order.

Exit status: 0 when every run of every workload printed a result with
"correct": true and 0 failed operations; 1 otherwise.

Run from anywhere:

    python scripts/ab_pairs.py --parent DIR --change DIR --workload W [W ...] --pairs N --seconds S [--seed S]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def result_of(stdout: str) -> dict:
    """The result object a benchmark run prints last: {"correct", "attempted", "failed", "metrics"}, each
    metric {"value", "unit"}."""
    for line in reversed(stdout.strip().splitlines()):
        try:
            result = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(result, dict) and "metrics" in result:
            return result
    raise ValueError("no result line in the benchmark's output")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        return result_of(done.stdout)
    except ValueError:
        sys.stderr.write(done.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def summarise(end_to_end: list[dict], results: dict[str, list[dict]]) -> list[str]:
    """One line per end-to-end metric: each side's median [quartiles], the median's move and the change's wins.

    results maps "parent" and "change" to their runs' result objects, pair by pair.
    """
    lines = []
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(results["parent"], results["change"]) if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            lines.append(f"{name}: no pair reports it")
            continue
        parent_values, change_values = zip(*pairs)
        (p1, parent, p3), (c1, change, c3) = (np.percentile(v, [25, 50, 75]) for v in (parent_values, change_values))
        move = (change - parent) / parent if parent else 0.0
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        marks = "  OVER BOUND" if -sign * move > spec["bound"] else ""
        spread = (p3 - p1) / parent if parent else 0.0
        if spread > spec["bound"] and min(sign * c for c in change_values) <= max(sign * p for p in parent_values):
            marks += f"  UNRESOLVED (parent spread {spread:.1%})"
        if len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and sign * (change - parent) > p3 - p1:
            marks += "  GAIN"
        lines.append(f"{name} ({spec['unit']}, {spec['better']} is better): "
                     f"parent {parent:.4g} [{p1:.4g}, {p3:.4g}]  change {change:.4g} [{c1:.4g}, {c3:.4g}]  "
                     f"{move:+.1%}  change better in {wins}/{len(pairs)}{marks}")
    return lines


def failures(results: dict[str, list[dict]]) -> list[str]:
    """One line per run that was not correct or failed an operation."""
    return [f"{side} run {i + 1}: correct={r['correct']} failed={r['failed']}"
            for side in SIDES for i, r in enumerate(results[side]) if not r["correct"] or r["failed"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True, help="workload names, or all")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if "all" in args.workload and len(args.workload) > 1:
        parser.error("--workload all stands alone")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]] if args.workload == ["all"] else args.workload
    checkouts = {"parent": args.parent, "change": args.change}
    failed = False
    for workload in workloads:
        results: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                results[side].append(run_once(checkouts[side], workload, args.seed, args.seconds))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
        print(f"# {workload} seed={args.seed} seconds={args.seconds} pairs={args.pairs}")
        print(json.dumps(results), flush=True)
        bad = failures(results)
        for line in summarise(benchmark["end_to_end"], results) + bad:
            print(line, flush=True)
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
