"""Decode step cost per policy against prompt length, measured in process.

For each prompt length L, a vanilla session, a refreshkv session (fixed
stride 10, K=`--k`, 128 by default) and snapkv, streaming and h2o sessions
(the same K) are prefilled with the same stream and run over the same
teacher-forced tokens, one session after the other, so none evicts
another's caches from the CPU caches. The model's rotary table is grown
to the last position fed before any step is timed. Each
`DecodeSession.step` is timed with `time.perf_counter_ns`; the refreshkv
steps split into refresh steps (the scheduled full steps that refill the
partial cache) and partial steps. Each L runs `--rounds` fresh sets of
sessions, rotating which session goes first. The script prints, per L,
the median over rounds of each session's median step time, and the
median, lowest and highest per-round refresh/vanilla ratio.

With at least two distinct lengths it also fits the fixed-cost model of a step,
a + b·m µs for m attended positions, to the vanilla medians by least
squares. A vanilla step attends L + i positions at step i, so m is each
L's mean, L + (steps + 1) / 2. A refreshkv partial step attends K + 1
(K = min(`--k`, L)). Per L it prints the modeled partial/vanilla ratio
(a + b·(K + 1)) / (a + b·m) beside K/L and the measured ratio, the median
over rounds of each round's partial/vanilla.

The model's shape comes from `--n-query-heads`, `--n-kv-heads` and
`--head-dim` (see shape_flags.py), the default shape when none is given;
a shape `ModelConfig.validate` rejects exits with status 2 before
anything runs. The JSON records the shape with W, the weight bytes a step reads, and κ, the KV bytes per cached token,
and the fit line prints a/b beside W/κ: on a shape whose step is bound by
the bytes it reads, a ≈ W/BW and b ≈ κ/BW, so the two ratios agree.

With `--json PATH` the numbers are written to PATH as well; with
`--label NAME` too, they go under the key NAME of the JSON object already
in PATH (created if missing), so runs of two checkouts can share one file.

Run from the repository root:

    PYTHONPATH=src python scripts/refresh_cost.py [--lengths 1024 4096] [--k 128] [--steps 400] [--rounds 3]
        [--n-query-heads 8 --n-kv-heads 4 --head-dim 32] [--json PATH [--label NAME]]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as perfbench/run.py runs; must precede the numpy import

import argparse
import json
import time
from pathlib import Path

import numpy as np

from kvrefresh.engine import DecodeSession
from kvrefresh.model import ModelConfig, init_model
from kvrefresh.policies import PolicyConfig
from kvrefresh.scheduler import ScheduleConfig
from kvrefresh.tasks import synthetic_lm_stream
from shape_flags import add_shape_flags, shape_config, shape_record

STRIDE = 10  # refreshkv's fixed refresh stride
COLUMNS = ("vanilla", "refresh", "partial", "snapkv", "streaming", "h2o")  # median step µs, by kind of step
N_SESSIONS = 5  # vanilla, refreshkv, snapkv, streaming, h2o


def _step_times(session: DecodeSession, tokens: list[int]) -> tuple[list[int], list[bool]]:
    """Wall time of each step in ns, and whether the step attended the full cache."""
    ns, full = [], []
    for token in tokens:
        t0 = time.perf_counter_ns()
        _, rec = session.step(token)
        ns.append(time.perf_counter_ns() - t0)
        full.append("full" in rec.modes)
    return ns, full


def measure(length: int, k: int, steps: int, seed: int, first: int, config: ModelConfig) -> dict:
    """Median µs of a vanilla, refresh, refreshkv partial, snapkv, streaming and h2o step, from one fresh set of
    sessions of the model `config` with partial-cache budget k, run in turn starting with session `first`."""
    weights = init_model(config)
    weights.rope_upto(length + steps)  # grown before timing, so that no timed step builds the rotary table
    stream = synthetic_lm_stream(length + steps, 256, seed, "repeated_motif", 64).tolist()
    sessions = [
        ("vanilla", DecodeSession(weights, PolicyConfig(kind="vanilla"))),
        ("refresh", DecodeSession(weights, PolicyConfig(kind="refreshkv", k=k), ScheduleConfig(mode="fixed", stride=STRIDE))),
        ("snapkv", DecodeSession(weights, PolicyConfig(kind="snapkv", k=k))),
        ("streaming", DecodeSession(weights, PolicyConfig(kind="streaming", k=k))),
        ("h2o", DecodeSession(weights, PolicyConfig(kind="h2o", k=k))),
    ]
    times = {}
    for name, session in sessions[first:] + sessions[:first]:
        session.prefill(stream[:length])
        times[name] = _step_times(session, stream[length:])
    ns, full = times["refresh"]
    return {
        "vanilla": float(np.median(times["vanilla"][0])) / 1e3,
        "refresh": float(np.median([t for t, f in zip(ns, full) if f])) / 1e3,
        "partial": float(np.median([t for t, f in zip(ns, full) if not f])) / 1e3,
        **{name: float(np.median(times[name][0])) / 1e3 for name in ("snapkv", "streaming", "h2o")},
        "n_refresh": sum(full),
    }


def fit_fixed_cost(records: list[dict], k: int) -> dict:
    """Least-squares a and b of a step's a + b·m µs over the vanilla medians at their mean attended lengths,
    and each record's modeled partial/vanilla, (a + b·(K + 1)) / (a + b·m), written into the record."""
    b, a = np.polyfit([r["mean_attended"] for r in records], [r["vanilla_us"] for r in records], 1)
    for r in records:
        r["modeled_partial_over_vanilla"] = float((a + b * (min(k, r["L"]) + 1)) / (a + b * r["mean_attended"]))
    return {"a_us": float(a), "b_us_per_position": float(b)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lengths", type=int, nargs="+", default=[1024, 2048, 4096, 8000])
    parser.add_argument("--k", type=int, default=128, help="partial-cache budget of every session but vanilla")
    parser.add_argument("--steps", type=int, default=400, help="decode steps per session (a refresh every 10th)")
    parser.add_argument("--rounds", type=int, default=3, help="fresh session sets per length, rotating the order")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="also write the numbers to this file")
    parser.add_argument("--label", help="with --json: store the numbers under this key of the file's object")
    add_shape_flags(parser)
    args = parser.parse_args()
    if args.steps < STRIDE:
        parser.error(f"--steps must be at least the refresh stride {STRIDE}, or no step refreshes")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.k < 1:
        parser.error("--k must be at least 1")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    bad = [length for length in args.lengths if length < 1]
    if bad:
        parser.error(f"--lengths must each be at least 1, got {bad}")
    config = shape_config(args, parser)
    shape = shape_record(config)
    records = []
    print(f"{'L':>6} {'refreshes':>9} " + " ".join(f"{key + '_us':>12}" for key in COLUMNS)
          + f" {'refresh/vanilla':>15} {'ratio_min':>9} {'ratio_max':>9}")
    for length in args.lengths:
        rounds = [measure(length, args.k, args.steps, args.seed, r % N_SESSIONS, config) for r in range(args.rounds)]
        med = {key: float(np.median([r[key] for r in rounds])) for key in COLUMNS}
        ratios = [r["refresh"] / r["vanilla"] for r in rounds]
        rec = {"L": length, "n_refresh": rounds[0]["n_refresh"], **{f"{key}_us": med[key] for key in COLUMNS},
               "refresh_over_vanilla": float(np.median(ratios)), "ratio_min": min(ratios), "ratio_max": max(ratios),
               "mean_attended": length + (args.steps + 1) / 2, "k_over_l": min(args.k, length) / length,
               "partial_over_vanilla": float(np.median([r["partial"] / r["vanilla"] for r in rounds]))}
        records.append(rec)
        print(f"{length:>6} {rec['n_refresh']:>9} " + " ".join(f"{med[key]:>12.0f}" for key in COLUMNS)
              + f" {rec['refresh_over_vanilla']:>15.2f} {rec['ratio_min']:>9.2f} {rec['ratio_max']:>9.2f}")
    fit = fit_fixed_cost(records, args.k) if len({r['L'] for r in records}) >= 2 else None
    if fit:
        a, b = fit["a_us"], fit["b_us_per_position"]
        print(f"vanilla step = a + b*m: a = {a:.1f} us, b = {b:.4f} us per position; a/b = {a / b:.0f} positions"
              f" beside W/kappa = {shape['weight_bytes'] / shape['kv_bytes_per_token']:.0f}")
        print(f"{'L':>6} {'K/L':>7} {'partial/vanilla':>15} {'modeled':>8}")
        for rec in records:
            print(f"{rec['L']:>6} {rec['k_over_l']:>7.3f} {rec['partial_over_vanilla']:>15.2f}"
                  f" {rec['modeled_partial_over_vanilla']:>8.2f}")
    if args.json:
        result = {"rounds": args.rounds, "steps": args.steps, "seed": args.seed, "k": args.k, "stride": STRIDE,
                  "blas_threads": 1, "shape": shape, "fit": fit, "lengths": records}
        if args.label:
            result = {**(json.loads(args.json.read_text()) if args.json.exists() else {}), args.label: result}
        args.json.write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
