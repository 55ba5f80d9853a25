"""Smoke test of the benchmark at tiny sizes: output schema and metric names.

Runs `perfbench/run.py --workload all --smoke` untraced and traced, and
checks that every metric BENCHMARK.json declares is reported with its unit,
that nothing else is, and that each run describes itself. Speed is not
checked.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
META_KEYS = {"workload", "why", "workload_seed", "model_seed", "nproc", "blas_threads", "numpy", "git_commit",
             "rounds"}


def run_smoke(trace: int) -> tuple[dict, list[dict]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    metas = [json.loads(line)["meta"] for line in lines if line.startswith('{"meta"')]
    return json.loads(lines[-1]), metas


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_declared_metric(trace, section):
    result, metas = run_smoke(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    workloads = [w["name"] for w in SPEC["workloads"]]
    expected = {f"{w}.{name}": unit for w in workloads for name, unit in declared.items()}
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == expected[name], name
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name

    assert [m["workload"] for m in metas] == workloads
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    for meta in metas:
        assert META_KEYS <= set(meta)
        assert meta["why"] == whys[meta["workload"]]
        assert meta["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        if trace:
            # names a refactor deletes are reported, never raised
            assert isinstance(meta["spans_absent"], dict) and meta["spans_wrapped"]
        else:
            assert set(meta["samples"]) >= set(declared)
            assert {"top1_agree", "fail_rate"} <= set(meta)


def test_benchmark_spec_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
