"""Refresh-step cost against a vanilla step, measured in process.

For each prompt length L, one vanilla session and one refreshkv session
(fixed stride 10, K=128) are prefilled with the same stream and run over
the same teacher-forced tokens, one session after the other, so neither
evicts the other's caches from the CPU caches. Each `DecodeSession.step`
is timed with `time.perf_counter_ns`; the refreshkv steps split into
refresh steps (the scheduled full steps that refill the partial cache)
and partial steps. Each L runs `--rounds` fresh pairs, alternating which
session goes first. The script prints, per L, the median over rounds of
each session's median step time, and the median, lowest and highest
per-round refresh/vanilla ratio.

Run from the repository root:

    PYTHONPATH=src python scripts/refresh_cost.py [--lengths 1024 4096] [--steps 400] [--rounds 3]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as perfbench/run.py runs; must precede the numpy import

import argparse
import time

import numpy as np

from kvrefresh.engine import DecodeSession
from kvrefresh.model import canonical_config, init_model
from kvrefresh.policies import PolicyConfig
from kvrefresh.scheduler import ScheduleConfig
from kvrefresh.tasks import synthetic_lm_stream


def _step_times(session: DecodeSession, tokens: list[int]) -> tuple[list[int], list[bool]]:
    """Wall time of each step in ns, and whether the step attended the full cache."""
    ns, full = [], []
    for token in tokens:
        t0 = time.perf_counter_ns()
        _, rec = session.step(token)
        ns.append(time.perf_counter_ns() - t0)
        full.append("full" in rec.modes)
    return ns, full


def measure(length: int, steps: int, seed: int, vanilla_first: bool) -> dict:
    """Median µs of a vanilla step, a refresh step and a partial step, from one fresh pair of sessions."""
    weights = init_model(canonical_config(seed=0, max_position=length + steps + 1))
    stream = synthetic_lm_stream(length + steps, 256, seed, "repeated_motif", 64).tolist()
    vanilla = DecodeSession(weights, PolicyConfig(kind="vanilla"))
    refresh = DecodeSession(weights, PolicyConfig(kind="refreshkv", k=128), ScheduleConfig(mode="fixed", stride=10))
    times = {}
    order = [("vanilla", vanilla), ("refresh", refresh)]
    for name, session in order if vanilla_first else order[::-1]:
        session.prefill(stream[:length])
        times[name] = _step_times(session, stream[length:])
    ns, full = times["refresh"]
    return {
        "vanilla": float(np.median(times["vanilla"][0])) / 1e3,
        "refresh": float(np.median([t for t, f in zip(ns, full) if f])) / 1e3,
        "partial": float(np.median([t for t, f in zip(ns, full) if not f])) / 1e3,
        "n_refresh": sum(full),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lengths", type=int, nargs="+", default=[1024, 2048, 4096, 8000])
    parser.add_argument("--steps", type=int, default=400, help="decode steps per session (a refresh every 10th)")
    parser.add_argument("--rounds", type=int, default=3, help="fresh session pairs per length, alternating order")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(f"{'L':>6} {'refreshes':>9} {'vanilla_us':>10} {'refresh_us':>10} {'partial_us':>10} "
          f"{'refresh/vanilla':>15} {'ratio_min':>9} {'ratio_max':>9}")
    for length in args.lengths:
        rounds = [measure(length, args.steps, args.seed, r % 2 == 0) for r in range(args.rounds)]
        med = {key: float(np.median([r[key] for r in rounds])) for key in ("vanilla", "refresh", "partial")}
        ratios = [r["refresh"] / r["vanilla"] for r in rounds]
        print(f"{length:>6} {rounds[0]['n_refresh']:>9} {med['vanilla']:>10.0f} {med['refresh']:>10.0f} "
              f"{med['partial']:>10.0f} {float(np.median(ratios)):>15.2f} {min(ratios):>9.2f} {max(ratios):>9.2f}")


if __name__ == "__main__":
    main()
