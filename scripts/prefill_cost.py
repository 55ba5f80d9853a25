"""Prefill latency and peak traced memory against prompt length, measured in process.

For each prompt length L the model prefills one `lm` stream
prompt. Each round times one `model.prefill` call per length with
`time.perf_counter_ns`, the lengths in the same order every round, after
one untimed warm-up call per length, which also grows the model's rotary
table to the longest length before any call is timed. A last call per
length runs under `tracemalloc` for the peak of numpy's allocations (time
under tracemalloc is not reported). The script prints, per L, the median, lowest and
highest prefill time over the rounds and the traced peak.

The model's shape comes from `--n-query-heads`, `--n-kv-heads` and
`--head-dim` (see shape_flags.py), the default shape when none is given;
a shape `ModelConfig.validate` rejects exits with status 2 before
anything runs. The JSON records the shape with W, the weight bytes, and κ, the KV bytes per cached token.

With `--json PATH` the numbers are written to PATH as well; with
`--label NAME` too, they go under the key NAME of the JSON object already
in PATH (created if missing), so runs of two checkouts can share one file.

Run from the repository root:

    PYTHONPATH=src python scripts/prefill_cost.py [--lengths 512 4096] [--rounds 5]
        [--n-query-heads 8 --n-kv-heads 4 --head-dim 32] [--json PATH [--label NAME]]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as perfbench/run.py runs; must precede the numpy import

import argparse
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from kvrefresh.model import init_model, prefill
from kvrefresh.tasks import synthetic_lm_stream
from shape_flags import add_shape_flags, shape_config, shape_record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lengths", type=int, nargs="+", default=[512, 1024, 2048, 4096, 8000])
    parser.add_argument("--rounds", type=int, default=5, help="timed prefill calls per length")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="also write the numbers to this file")
    parser.add_argument("--label", help="with --json: store the numbers under this key of the file's object")
    add_shape_flags(parser)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    bad = [L for L in args.lengths if L < 2]  # a stream has at least 2 tokens
    if bad:
        parser.error(f"--lengths must each be at least 2, got {bad}")
    config = shape_config(args, parser)
    weights = init_model(config)
    prompts = {L: synthetic_lm_stream(L, 256, args.seed, "repeated_motif", 64).tolist() for L in args.lengths}
    ms: dict[int, list[float]] = {L: [] for L in args.lengths}
    for timed in [False] + [True] * args.rounds:
        for L in args.lengths:
            t0 = time.perf_counter_ns()
            prefill(weights, prompts[L])
            if timed:
                ms[L].append((time.perf_counter_ns() - t0) / 1e6)
    records = []
    print(f"{'L':>6} {'prefill_ms':>10} {'min_ms':>8} {'max_ms':>8} {'peak_mib':>8}")
    for L in args.lengths:
        tracemalloc.start()
        prefill(weights, prompts[L])
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        rec = {"L": L, "prefill_ms": float(np.median(ms[L])), "min_ms": min(ms[L]), "max_ms": max(ms[L]),
               "peak_alloc_mib": peak}
        records.append(rec)
        print(f"{L:>6} {rec['prefill_ms']:>10.1f} {rec['min_ms']:>8.1f} {rec['max_ms']:>8.1f} {peak:>8.1f}")
    if args.json:
        result = {"rounds": args.rounds, "seed": args.seed, "blas_threads": 1, "shape": shape_record(config),
                  "lengths": records}
        if args.label:
            result = {**(json.loads(args.json.read_text()) if args.json.exists() else {}), args.label: result}
        args.json.write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
