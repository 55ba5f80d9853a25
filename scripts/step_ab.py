"""Decode step time of two source trees, compared in one process.

Loads the `kvrefresh` package under PARENT_SRC and under CHANGE_SRC (each a
`src/` directory) as two distinct packages in one process, so both trees
step on one interpreter, one heap and one BLAS, and a move of a few percent
is not lost in the spread between processes. For each session below, one
session of each tree is prefilled with the same L-token stream (an `lm`
repeated-motif stream) and stepped over the same teacher-forced tokens,
alternating between the trees in chunks of 10 steps: which tree
goes first alternates from chunk to chunk, and from repetition to
repetition, where the tree that opens the first chunk is also built
first. The rotary tables are grown before any step is timed, and
garbage collection is off while steps are timed. Each `DecodeSession.step`
is timed with `time.perf_counter_ns` and counted as a full step when any
layer's mode is "full" (a scheduled full step, or a refreshkv_no_full
refresh), else as a plain step.

Per repetition, each session's move is CHANGE's p50 over PARENT's p50,
minus one, for plain and full steps apart. Per session the script prints
the median move over `--reps` repetitions, with its lowest and highest,
beside each tree's median p50 in µs. The two trees must take the same
steps: a step whose modes differ between them would compare different
work, so the script stops there with exit status 1.

An in-process move can read the opposite sign from the end-to-end one
when a change moves when, or how large, an array is allocated: both trees
share one heap here, where each end-to-end run starts from a fresh one.
Giving the prompt's full cache its doubled arena at the prefill read the
mean step -8.8% in one process (whole sessions alternating), and
chainkey-4k `decode_tok_per_s` -3.0% end to end (better in 0 of 8 pairs).

Sessions: vanilla, streaming, h2o, snapkv, refreshkv (fixed stride 10),
refreshkv-qc (qc_stride 10, threshold 0.95, so boundaries go full),
refreshkv_no_refresh and refreshkv_no_full (fixed stride 10); every one
but vanilla at budget K = `--k`. The model is the default shape (S0).

With `--json PATH` the numbers are written to PATH as well. Run from the
repository root (BLAS runs on one thread):

    python scripts/step_ab.py PARENT_SRC CHANGE_SRC [--length 1024] [--k 128] [--steps 300] [--reps 12]
        [--json PATH]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as perfbench/run.py runs; must precede the numpy import

import argparse
import gc
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path
from types import ModuleType

import numpy as np

SIDES = ("parent", "change")
CHUNK = 10  # steps a tree takes before the other takes its turn
SEED = 1  # of the token stream
FIXED = {"mode": "fixed", "stride": 10}
SESSIONS = (  # label, policy kind, schedule (None: the kind follows none)
    ("vanilla", "vanilla", None),
    ("streaming", "streaming", None),
    ("h2o", "h2o", None),
    ("snapkv", "snapkv", None),
    ("refreshkv", "refreshkv", FIXED),
    ("refreshkv-qc", "refreshkv", {"mode": "qc", "qc_stride": 10, "threshold": 0.95}),
    ("refreshkv_no_refresh", "refreshkv_no_refresh", FIXED),
    ("refreshkv_no_full", "refreshkv_no_full", FIXED),
)


def load_tree(src: Path, name: str) -> ModuleType:
    """The kvrefresh package under `src`, imported as the package `name` with the modules a session needs."""
    init = src / "kvrefresh" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("engine", "model", "policies", "scheduler", "tasks"):
        importlib.import_module(f"{name}.{module}")
    return package


def build(tree: ModuleType, kind: str, schedule: dict | None, k: int, weights, prompt: list[int]):
    """A prefilled session of the tree: the kind at budget k (vanilla: no budget) under the schedule."""
    policy = tree.policies.PolicyConfig(kind=kind, **({} if kind == "vanilla" else {"k": k}))
    session = tree.engine.DecodeSession(weights, policy, schedule and tree.scheduler.ScheduleConfig(**schedule))
    session.prefill(prompt)
    return session


def measure(trees, weights, kind: str, schedule: dict | None, k: int, stream: list[int], length: int,
            first: int) -> list[tuple[list[int], list[bool]]]:
    """Each tree's step times (ns) and full flags over the stream's tail, stepped in alternating chunks; tree
    `first` is built first and opens the first chunk. Exits with status 1 at the first step whose modes differ
    between the trees."""
    sessions = [None, None]
    for side in (first, 1 - first):  # the side built first allocates its arrays first: it alternates too
        sessions[side] = build(trees[side], kind, schedule, k, weights[side], stream[:length])
    tokens = stream[length:]
    times: list[list[int]] = [[], []]
    modes: list[list[list[str]]] = [[], []]
    gc.collect()
    gc.disable()
    try:
        for c, start in enumerate(range(0, len(tokens), CHUNK)):
            for side in ((first + c) % 2, (first + c + 1) % 2):
                session, ns, seen = sessions[side], times[side], modes[side]
                for token in tokens[start : start + CHUNK]:
                    t0 = time.perf_counter_ns()
                    _, rec = session.step(token)
                    ns.append(time.perf_counter_ns() - t0)
                    seen.append(rec.modes)
    finally:
        gc.enable()
    if modes[0] != modes[1]:
        step = next(i for i, (a, b) in enumerate(zip(*modes)) if a != b) + 1
        raise SystemExit(f"error: {kind} {schedule}: the trees' modes differ at step {step}: "
                         f"{modes[0][step - 1]} against {modes[1][step - 1]}")
    return [(ns, ["full" in m for m in seen]) for ns, seen in zip(times, modes)]


def split_p50(ns: list[int], full: list[bool]) -> dict[str, float | None]:
    """The p50 in µs of the plain and the full steps, None where there are none."""
    out = {}
    for name, want in (("plain", False), ("full", True)):
        picked = [t for t, f in zip(ns, full) if f == want]
        out[name] = float(np.median(picked)) / 1e3 if picked else None
    return out


def summarise(rounds: list[list[dict]]) -> dict:
    """Per step class with samples: the median, lowest and highest move over the repetitions, and each tree's
    median p50."""
    result = {}
    for name in ("plain", "full"):
        if rounds[0][0][name] is None:
            continue
        moves = [change[name] / parent[name] - 1 for parent, change in rounds]
        result[name] = {"move": float(np.median(moves)), "move_min": min(moves), "move_max": max(moves),
                        **{f"{side}_us": float(np.median([r[i][name] for r in rounds])) for i, side in enumerate(SIDES)}}
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the src/ directory of the parent tree")
    parser.add_argument("change_src", type=Path, help="the src/ directory of the changed tree")
    parser.add_argument("--length", type=int, default=1024, help="prompt length L")
    parser.add_argument("--k", type=int, default=128, help="partial-cache budget of every session but vanilla")
    parser.add_argument("--steps", type=int, default=300, help="decode steps per session")
    parser.add_argument("--reps", type=int, default=12, help="repetitions, each with fresh sessions")
    parser.add_argument("--json", type=Path, help="also write the numbers to this file")
    args = parser.parse_args()
    for name in ("length", "k", "steps", "reps"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1, got {getattr(args, name)}")
    for src in (args.parent_src, args.change_src):
        if not (src / "kvrefresh" / "__init__.py").is_file():
            parser.error(f"no kvrefresh package under {src}")

    trees = [load_tree(args.parent_src, "kvrefresh_parent"), load_tree(args.change_src, "kvrefresh_change")]
    weights = [tree.model.init_model(tree.model.ModelConfig()) for tree in trees]
    for w in weights:  # grown before timing, so that no timed step builds the rotary table
        w.rope_upto(args.length + args.steps)
    vocab = weights[0].config.vocab_size
    stream = trees[1].tasks.synthetic_lm_stream(args.length + args.steps, vocab, SEED, "repeated_motif",
                                                64).tolist()

    results = {}
    print(f"{'session':>22} {'steps':>6} {'n':>4} {'parent_us':>10} {'change_us':>10} {'move':>7} {'range':>17}")
    for label, kind, schedule in SESSIONS:
        rounds = []
        for rep in range(args.reps):
            timed = measure(trees, weights, kind, schedule, args.k, stream, args.length, rep % 2)
            rounds.append([split_p50(ns, full) for ns, full in timed])
        n_full = sum(timed[0][1])
        results[label] = {**summarise(rounds), "n_plain": args.steps - n_full, "n_full": n_full}
        for name in ("plain", "full"):
            if name in results[label]:
                r, n = results[label][name], results[label][f"n_{name}"]
                print(f"{label:>22} {name:>6} {n:>4} {r['parent_us']:>10.1f} {r['change_us']:>10.1f} "
                      f"{r['move']:>+7.1%} [{r['move_min']:+.1%}, {r['move_max']:+.1%}]")
    if args.json:
        record = {"parent_src": str(args.parent_src), "change_src": str(args.change_src), "length": args.length,
                  "k": args.k, "steps": args.steps, "chunk": CHUNK, "reps": args.reps, "seed": SEED,
                  "blas_threads": 1, "sessions": results}
        args.json.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
