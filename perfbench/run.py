"""kvrefresh benchmark: time to first token, decode step latency, top-1 agreement.

Usage (from the repository root):

    python3 perfbench/run.py --workload decode-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The benchmark drives the public `DecodeSession` API (`prefill`, `step`,
`finish`) and times every call from outside the package. It is a closed
loop: one sequence in one process, each step sent after the previous one
returns, BLAS pinned to one thread. The workload seed chooses the stream
or chain-of-key instance; the model seed is fixed.

A run repeats rounds (the workload's fixed set of sessions) until
`--seconds` have passed. With `--trace 0` it reports the end-to-end
metrics from untraced rounds. Prefill and step times are scaled to a
nominal host speed by reference kernels interleaved with them
(calibrate.py); the unscaled figures are printed beside them. With
`--trace 1` it alternates untraced and traced rounds and reports
per-layer metrics: span times from the traced rounds, step splits and
modeled costs from the untraced ones, and the tracing overhead between
the two.

Correctness checks run untimed, after the peak RSS has been read. A failed
check or an exception makes the run print `"correct": false` and exit 1.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run's description (host, versions, seeds, sample counts).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "kvrefresh" / "__init__.py").is_file():
    sys.exit(f"kvrefresh sources not found under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import kvrefresh  # noqa: E402

if Path(kvrefresh.__file__).resolve().parent != (SRC / "kvrefresh").resolve():
    sys.exit(f"imported kvrefresh from {kvrefresh.__file__}, not from {SRC}")

from kvrefresh.engine import DecodeSession  # noqa: E402
from kvrefresh.harness import self_check  # noqa: E402
from kvrefresh.model import canonical_config, full_forward, init_model  # noqa: E402
from kvrefresh.policies import REFRESH_FAMILY  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("chainkey-4k", "decode-full", "decode-policies")
MODEL_SEED = 0
SETUP_PROBES = 7  # set-up is measured this many times per run, in fresh processes
MIN_P99_STEPS = 1100  # at least 10 step latencies lie beyond the p99
ROUND_CAP_S = 100.0  # never start a round that could end past this
LOGITS_RTOL = 1e-9
CAL_EVERY = 4  # steps between reference-kernel samples
_now = time.perf_counter_ns

# name -> (unit, better, description)
END_TO_END = {
    "setup_s": ("s", "lower", "process start through imports, init_model and input generation"),
    "ttft_ms": ("ms", "lower", "median DecodeSession.prefill latency"),
    "decode_us_p50": ("us", "lower", "median DecodeSession.step latency"),
    "decode_us_p99": ("us", "lower", "p99 DecodeSession.step latency (median over groups of rounds)"),
    "decode_tok_per_s": ("1/s", "higher", "steps over total step time, refreshes included"),
    "run_wall_s": ("s", "lower", "median round wall time: prefill, steps and finish of all sessions"),
    "peak_rss_mb": ("MiB", "lower", "peak RSS of this process before any reference computation"),
}
# Also printed with every untraced run, but not bounded: top1_agree is fixed by
# the seed's stream and spreads 25-45% across seeds on decode-policies, and
# fail_rate is 0 on a correct run (the result's "failed" count carries it).
READOUTS = {
    "top1_agree": ("share", "higher", "argmax agreement with model.full_forward on the same stream"),
    "fail_rate": ("share", "lower", "failed sessions and checks over sessions, steps and checks attempted"),
}

REFRESH_LABELS = ["refreshkv", "refreshkv-fixed", "refreshkv-qc"]
# (mode, session label) pairs whose p50 step latency the traced run reports
STEP_SPLIT = [
    ("full", "vanilla"),
    *[(mode, label) for label in REFRESH_LABELS for mode in ("partial", "full")],
    ("partial", "snapkv"),
    ("partial", "h2o"),
    ("partial", "streaming"),
]

_P = "decode-policies"
_C = "chainkey-4k"
_F = "decode-full"
# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "model.prefill.ms": ("ms", "lower", f"ttft_ms on {_C}; nothing on decode workloads"),
    "model.prefill.peak_alloc_mb": ("MiB", "lower", f"peak_rss_mb on {_C} (numpy allocations via tracemalloc)"),
    "model.decode_core.us": ("us", "lower", f"decode_us_p50 on {_F} (per step)"),
    "model.decode_core.self_us": ("us", "lower", f"decode_us_p50 on {_F} (per step, view callback excluded)"),
    "model.apply_rope.us_per_step": ("us", "lower", f"decode_core self time on {_F}"),
    "numerics.softmax_rows.us_per_step": ("us", "lower", f"decode_core self time on {_F}"),
    "model.decode_core.us_per_kpos": ("us/kpos", "lower", f"decode_us_p50 on {_F} (slope against view length)"),
    "engine.view.us": ("us", "lower", f"decode_us_p50 on {_P} (per provide_view call)"),
    "engine.update.us": ("us", "lower", f"decode_us_p50 and decode_us_p99 on {_P} (step minus decode_core)"),
    **{
        f"engine.{mode}_step.us_p50.{label}": (
            "us",
            "lower",
            f"{'decode_us_p99' if mode == 'full' else 'decode_us_p50'} on "
            f"{_F if label == 'vanilla' else _C if label == 'refreshkv' else _P}",
        )
        for mode, label in STEP_SPLIT
    },
    "kv_store.full_append.calls": ("count", "lower", f"decode_us_p50 on {_F} (per round)"),
    "kv_store.full_append.us": ("us", "lower", f"decode_us_p50 on {_F} (per call)"),
    "kv_store.full_append.bytes_copied": ("B", "lower", f"decode_us_p50 on {_F} (computed from sizes, per round)"),
    "kv_store.partial_append.us": ("us", "lower", f"decode_us_p50 on {_P} (per call)"),
    "kv_store.evict_overflow.us": ("us", "lower", f"decode_us_p50 on {_P} (per call)"),
    "kv_store.evictions": ("count", "lower", f"decode_us_p50 on {_P} (per round)"),
    "kv_store.gather.us": ("us", "lower", f"decode_us_p50 on {_P} (per call)"),
    "kv_store.merge_pending.calls": ("count", "lower", f"decode_us_p99 on {_P} (per round)"),
    "kv_store.merge_pending.us": ("us", "lower", f"decode_us_p99 on {_P} (per call)"),
    "kv_store.merge_pending.entries": ("count", "lower", f"decode_us_p99 on {_P} (per round)"),
    "kv_store.init_partial.calls": ("count", "lower", f"decode_us_p99 on {_P} (per round)"),
    "kv_store.init_partial.us": ("us", "lower", f"decode_us_p99 on {_P} (per call)"),
    "policies.selection_scores.calls": ("count", "lower", f"decode_us_p99 on {_P} (per round)"),
    "policies.selection_scores.us": ("us", "lower", f"decode_us_p99 on {_P} (per call)"),
    "policies.selection_scores.positions_scored": ("count", "lower", f"decode_us_p99 on {_P} (per round)"),
    "policies.h2o_step.us": ("us", "lower", f"decode_us_p50 on {_P} (per call)"),
    "policies.top1_agree": ("share", "higher", f"policy quality on {_P} and {_C}; fixed by the seed"),
    "policies.refresh_churn": ("share", "higher", f"top1_agree on {_P} (top-K positions replaced per refresh)"),
    "policies.retained_mass": ("share", "higher", f"top1_agree on {_P} (StepRecord.retained_mass)"),
    "scheduler.full_step_share": ("share", "lower", f"decode_tok_per_s on {_P} (full layer-steps over all)"),
    "scheduler.qc_checks": ("count", "lower", f"decode_tok_per_s on {_P} (per round)"),
    **{
        f"scheduler.effective_stride.{label}": (
            "steps", "higher", f"decode_tok_per_s on {_C if label == 'refreshkv' else _P}"
        )
        for label in REFRESH_LABELS
    },
    "metrics.modeled_attn_mflop_per_step": ("MFLOP", "lower", "modeled cost beside decode_us_p50 (StepRecord)"),
    "metrics.modeled_kv_mb_per_step": ("MB", "lower", "modeled cost beside decode_us_p50 (StepRecord)"),
    "metrics.us_per_modeled_mflop": ("us/MFLOP", "lower", "decode_tok_per_s against the modeled cost"),
    # refreshkv-fixed on decode-policies, refreshkv on chainkey-4k
    "premise.partial_over_full.measured": ("ratio", "lower", f"decode_tok_per_s on {_P} (p50 partial/full step)"),
    "premise.partial_over_full.modeled": ("ratio", "lower", f"decode_tok_per_s on {_P} (same, attention_flops: K/L)"),
    "tasks.input_gen_ms": ("ms", "lower", "setup_s on all workloads"),
    "model.init_model.ms": ("ms", "lower", "setup_s on all workloads"),
    "trace.overhead": ("ratio", "lower", "traced over untraced round wall time"),
    "trace.span_coverage": ("share", "higher", "top-level spans inside steps over measured step time"),
}


# ------------------------------------------------------------------ results


@dataclass
class SessionResult:
    label: str
    kind: str
    prefill_ns: int = 0
    finish_ns: int = 0
    step_ns: np.ndarray | None = None
    step_scale: np.ndarray | None = None  # per-step host-speed factor (calibrate.py)
    prefill_scale: float = 1.0
    core_ns: np.ndarray | None = None  # traced rounds: decode_core time per step
    steps: int = 0  # completed steps
    records: list = field(default_factory=list)  # StepRecords; kept for the first round only
    preds: list[int] = field(default_factory=list)  # argmax of the prefill, then of each step
    logits: list[np.ndarray] = field(default_factory=list)  # kept for the first round only
    full_step: np.ndarray | None = None  # per step: did any layer run full attention
    kpos: np.ndarray | None = None  # per step: mean view length over layers, in thousands
    churn: list[float] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    error: str | None = None

    def compact(self, first: "SessionResult | None") -> None:
        """Reduce the per-step records to arrays, so memory does not grow with the round count.

        A session of a later round is compared with the same session of the
        first round: rounds repeat the same work, so outputs must be identical.
        """
        self.full_step = np.asarray(["full" in rec.modes for rec in self.records], dtype=bool)
        self.kpos = np.asarray([np.mean(rec.view_lens) / 1e3 for rec in self.records])
        if first is None or self.error or first.error:
            return
        same = self.preds == first.preds and all(np.array_equal(a, b) for a, b in zip(self.logits, first.logits))
        self.checks.append((f"{self.label}: identical outputs in every round", same, ""))
        self.records, self.logits = [], []

    @property
    def scaled_steps(self) -> np.ndarray:
        return self.step_ns[: self.steps] * self.step_scale[: self.steps]

    @property
    def scaled_prefill(self) -> float:
        return self.prefill_ns * self.prefill_scale

    def wall_ns(self, scaled: bool = True) -> float:
        if not scaled:
            return float(self.prefill_ns + self.step_ns[: self.steps].sum() + self.finish_ns)
        finish_scale = float(np.median(self.step_scale)) if self.step_scale.size else 1.0
        return self.scaled_prefill + float(self.scaled_steps.sum()) + self.finish_ns * finish_scale


@dataclass
class Round:
    traced: bool
    sessions: list[SessionResult]

    def wall_ns(self, scaled: bool = True) -> float:
        return sum(s.wall_ns(scaled) for s in self.sessions)

    @property
    def failed(self) -> bool:
        return any(s.error for s in self.sessions)


# ------------------------------------------------------------------- set-up


def setup(name: str, seed: int, smoke: bool):
    weights = init_model(canonical_config(seed=MODEL_SEED))
    return weights, workloads.build(name, seed, smoke)


def probe_setup(args) -> list[float]:
    """Set-up seconds of fresh processes, from launch until ready to prefill."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0"] + (["--smoke"] if args.smoke else [])
    for _ in range(1 if args.smoke else SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        out.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return out


# ---------------------------------------------------------------- sessions


def churn_recorder(sink: list[float]):
    """Recorder hook: share of top-K positions replaced at each refresh, per head."""

    def record(event: dict) -> None:
        if event.get("kind") != "refresh":
            return
        for pre, post in zip(event["pre_positions"], event["post_positions"]):
            if post.size:
                sink.append(float(np.setdiff1d(post, pre, assume_unique=True).size / post.size))

    return record


def _call(tr: tracing.Tracer | None, span: str, fn, *args):
    """Call fn, timing it (as a root span when tracing); returns (result, ns)."""
    if tr is None:
        t0 = _now()
        out = fn(*args)
        return out, _now() - t0
    tr.enter(span)
    try:
        out = fn(*args)
    finally:
        ns = tr.exit()
    return out, ns


def run_session(spec, wl, weights, cal: calibrate.Calibrator, tr: tracing.Tracer | None) -> SessionResult:
    res = SessionResult(spec.label, spec.policy.kind)
    n = len(wl.forced)
    res.step_ns = np.zeros(n, dtype=np.int64)
    res.core_ns = np.zeros(n, dtype=np.int64)
    cal_steps, cal_ns = [], []
    recorder = churn_recorder(res.churn) if tr is not None and spec.policy.kind in REFRESH_FAMILY else None
    try:
        session = DecodeSession(weights, spec.policy, spec.schedule, recorder)
        big = cal.big()
        out, res.prefill_ns = _call(tr, "session.prefill", session.prefill, wl.prompt)
        res.prefill_scale = 2 * calibrate.BIG_NOMINAL_NS / (big + cal.big())
        res.preds.append(int(np.argmax(out.logits)))
        if wl.check_logits:
            res.logits.append(out.logits.copy())
        for i, token in enumerate(wl.forced):
            core0 = tr.ns["model.decode_core"] if tr is not None else 0
            (out, rec), res.step_ns[i] = _call(tr, "session.step", session.step, token)
            if tr is not None:
                res.core_ns[i] = tr.ns["model.decode_core"] - core0
            res.records.append(rec)
            res.steps += 1
            res.preds.append(int(np.argmax(out.logits)))
            if wl.check_logits:
                res.logits.append(out.logits.copy())
            if i % CAL_EVERY == 0:
                cal_steps.append(i)
                cal_ns.append(cal.small())
        _, res.finish_ns = _call(tr, "session.finish", session.finish)
    except Exception:  # a failed session is counted and reported, never hidden
        res.error = traceback.format_exc()
        print(f"session {spec.label} failed:\n{res.error}", file=sys.stderr)
    res.step_scale = calibrate.step_factors(n, np.asarray(cal_steps), np.asarray(cal_ns))
    if res.error is None:
        res.checks = session_checks(session, res, len(wl.prompt))
    return res


def session_checks(session: DecodeSession, res: SessionResult, L: int) -> list[tuple[str, bool, str]]:
    """Store invariants after finish(), and view lengths against each step's mode."""
    N = res.steps
    kind = res.kind
    checks = []
    full_lens = [len(cache) for cache in session.full]
    if kind == "snapkv":
        # snapkv never appends to the full cache after prefill; its grow-only
        # partial cache holds every generated position on every head instead.
        generated = np.arange(L, L + N)
        held = all(np.isin(generated, p).all() for cp in session.partial for p in cp.positions)
        checks.append(("snapkv holds the prompt in full, generated positions in partial",
                       held and full_lens == [L] * len(full_lens), f"full lens {full_lens}, L={L}, N={N}"))
    else:
        checks.append(("full cache holds every position", full_lens == [L + N] * len(full_lens),
                       f"full lens {full_lens}, L+N={L + N}"))
    evicting = kind in REFRESH_FAMILY and session.policy.resolved_evict_on_append()
    if evicting:
        sizes = [s for cp in session.partial for s in cp.sizes()]
        checks.append(("partial-cache heads hold at most k_sel", max(sizes) <= session.k_sel,
                       f"max head size {max(sizes)}, k_sel={session.k_sel}"))
    bad = []
    for rec in res.records:
        i = rec.step_index
        seen = L + i - 1
        for layer, (mode, vlen) in enumerate(zip(rec.modes, rec.view_lens)):
            if mode == "full":
                ok = vlen == seen + 1
            elif kind == "snapkv":
                ok = vlen == session.k_sel + i
            elif kind in ("streaming", "h2o"):
                ok = vlen == min(session.budget, seen) + 1
            else:
                ok = vlen == session.k_sel + 1
            if not ok:
                bad.append((i, layer, mode, vlen))
    checks.append(("view_lens agree with each step's mode", not bad, f"first mismatches {bad[:3]}"))
    return checks


# ---------------------------------------------------------------- measuring


def measure(wl, weights, seconds: float, trace: bool, smoke: bool) -> tuple[list[Round], tracing.Tracer | None]:
    """Repeat rounds until `seconds` have passed (alternating traced rounds with --trace 1)."""
    tr = tracing.Tracer() if trace else None
    cal = calibrate.Calibrator()
    rounds: list[Round] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tr.install()
        try:
            sessions = []
            for i, spec in enumerate(wl.sessions):
                res = run_session(spec, wl, weights, cal, tr if traced else None)
                res.compact(rounds[0].sessions[i] if rounds else None)
                sessions.append(res)
                if res.error:
                    break
        finally:
            if traced:
                tr.uninstall()
        rounds.append(Round(traced, sessions))
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if rounds[-1].failed or elapsed + longest > ROUND_CAP_S:
            break
        if trace and len(rounds) < 2:
            continue
        enough_steps = trace or sum(s.steps for r in rounds for s in r.sessions) >= MIN_P99_STEPS
        if smoke or (elapsed >= seconds and enough_steps):
            break
    return rounds, tr


def reference_checks(wl, weights, rounds: list[Round]) -> tuple[list[tuple[str, bool, str]], int, int]:
    """Untimed checks against model.full_forward; returns (checks, agreeing, predicted)."""
    L, N = len(wl.prompt), len(wl.forced)
    ref = full_forward(weights, wl.stream)[L - 1 : L + N]  # logits for prefill then each step
    ref_top1 = np.argmax(ref, axis=1)
    checks = []
    agree = predicted = 0
    for rnd in rounds:
        for s in rnd.sessions:
            if s.error:
                continue
            preds = np.asarray(s.preds)
            agree += int((preds == ref_top1[: preds.size]).sum())
            predicted += int(preds.size)
            if s.logits:
                got = np.stack(s.logits)
                want = ref[: got.shape[0]]
                # Relative to each step's largest logit: an elementwise rtol with
                # atol=0 fails on logits near zero from roundoff alone.
                err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
                checks.append((f"{s.label}: step logits equal full_forward (rtol={LOGITS_RTOL})",
                               bool((err <= LOGITS_RTOL).all()),
                               f"{int((err > LOGITS_RTOL).sum())} of {err.size} steps differ; "
                               f"max error {err.max():.3g}"))
    return checks, agree, predicted


# ----------------------------------------------------------------- metrics


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _steps_by_mode(rounds: list[Round], label: str) -> dict[str, np.ndarray]:
    """Untraced step latencies (ns) of one session label, split full/partial.

    A step is full when any layer ran full attention.
    """
    split: dict[str, list] = {"full": [], "partial": []}
    for rnd in rounds:
        for s in rnd.sessions:
            if s.label == label and not rnd.traced:
                for full, ns in zip(s.full_step, s.scaled_steps):
                    split["full" if full else "partial"].append(ns)
    return {mode: np.asarray(v, dtype=np.float64) for mode, v in split.items()}


def end_to_end(rounds: list[Round], setup_s: list[float], rss_mib: float, scaled: bool = True):
    """End-to-end values and their sample counts.

    Decode and prefill times are scaled to the nominal host speed unless
    `scaled` is off. Set-up is not: process start-up does not track the
    reference kernels.
    """
    sessions = [s for r in rounds for s in r.sessions]
    per_round = [
        np.concatenate([s.scaled_steps if scaled else s.step_ns[: s.steps] * 1.0 for s in r.sessions])
        for r in rounds
    ]
    steps = np.concatenate(per_round)
    prefills = [s.scaled_prefill if scaled else s.prefill_ns for s in sessions if s.prefill_ns]
    groups = p99_groups(per_round)
    p99s = [float(np.percentile(g, 99)) for g in groups if g.size]
    p99 = _median(p99s)
    values = {
        "setup_s": (_median(setup_s), len(setup_s)),
        "ttft_ms": (_median(prefills) / 1e6, len(prefills)),
        "decode_us_p50": (float(np.median(steps)) / 1e3 if steps.size else 0.0, steps.size),
        "decode_us_p99": (p99 / 1e3, steps.size),
        "decode_tok_per_s": (steps.size / (steps.sum() / 1e9) if steps.size else 0.0, steps.size),
        "run_wall_s": (_median([r.wall_ns(scaled) for r in rounds]) / 1e9, len(rounds)),
        "peak_rss_mb": (rss_mib, 1),
    }
    samples = {name: n for name, (_, n) in values.items()}
    samples["decode_us_p99.groups"] = len(groups)
    samples["decode_us_p99.beyond_per_group"] = min(int((g > q).sum()) for g, q in zip(groups, p99s)) if p99s else 0
    return {name: v for name, (v, _) in values.items()}, samples


def p99_groups(per_round: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive rounds joined into groups of at least MIN_P99_STEPS steps.

    decode_us_p99 is the median of the groups' p99s, so a burst of host noise
    in one group does not set it; each group has at least 10 steps beyond
    its p99. A short remainder joins the last group.
    """
    groups: list[np.ndarray] = []
    pending: list[np.ndarray] = []
    for steps in per_round:
        pending.append(steps)
        if sum(p.size for p in pending) >= MIN_P99_STEPS:
            groups.append(np.concatenate(pending))
            pending = []
    if pending:
        tail = np.concatenate(pending)
        groups = groups[:-1] + [np.concatenate([groups[-1], tail])] if groups else [tail]
    return groups


def per_layer(rounds: list[Round], tr: tracing.Tracer, init_ms: list[float], gen_ms: list[float]) -> dict:
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    n_traced = max(len(traced), 1)
    traced_steps = max(sum(s.steps for r in traced for s in r.sessions), 1)

    def per_call(span: str, parent=...) -> float:
        calls = tr.calls(span, parent)
        return tr.total_ns(span, parent) / calls / 1e3 if calls else 0.0

    def per_round(count: float) -> float:
        return count / n_traced

    m: dict[str, float] = {}
    m["model.prefill.ms"] = per_call("model.prefill") / 1e3
    m["model.prefill.peak_alloc_mb"] = tr.peak_alloc["model.prefill"] / 2**20
    core_calls = tr.calls("model.decode_core")
    core_ns = tr.total_ns("model.decode_core")
    m["model.decode_core.us"] = per_call("model.decode_core")
    m["model.decode_core.self_us"] = (
        (core_ns - tr.total_ns(tracing.VIEW_SPAN, "model.decode_core")) / core_calls / 1e3 if core_calls else 0.0
    )
    m["model.apply_rope.us_per_step"] = tr.total_ns("model.apply_rope", "model.decode_core") / traced_steps / 1e3
    m["numerics.softmax_rows.us_per_step"] = (
        tr.total_ns("numerics.softmax_rows", "model.decode_core") / traced_steps / 1e3
    )
    kpos = np.concatenate([s.kpos for r in traced for s in r.sessions] or [np.zeros(0)])
    core = np.concatenate([s.core_ns[: s.steps] / 1e3 for r in traced for s in r.sessions] or [np.zeros(0)])
    slope_defined = kpos.size > 1 and np.ptp(kpos) > 0
    m["model.decode_core.us_per_kpos"] = float(np.polyfit(kpos, core, 1)[0]) if slope_defined else 0.0
    m["engine.view.us"] = per_call(tracing.VIEW_SPAN)
    m["engine.update.us"] = (
        tr.total_ns("session.step") - tr.total_ns("model.decode_core", "session.step")
    ) / traced_steps / 1e3

    for mode, label in STEP_SPLIT:
        lat = _steps_by_mode(untraced, label)[mode]
        m[f"engine.{mode}_step.us_p50.{label}"] = float(np.median(lat)) / 1e3 if lat.size else 0.0

    m["kv_store.full_append.calls"] = per_round(tr.calls("kv_store.full_append"))
    m["kv_store.full_append.us"] = per_call("kv_store.full_append")
    m["kv_store.full_append.bytes_copied"] = per_round(tr.counters["kv_store.full_append.bytes_copied"])
    m["kv_store.partial_append.us"] = per_call("kv_store.partial_append")
    m["kv_store.evict_overflow.us"] = per_call("kv_store.evict_overflow")
    m["kv_store.evictions"] = per_round(tr.counters["kv_store.evict_overflow.evictions"])
    m["kv_store.gather.us"] = per_call("kv_store.gather")
    m["kv_store.merge_pending.calls"] = per_round(tr.calls("kv_store.merge_pending"))
    m["kv_store.merge_pending.us"] = per_call("kv_store.merge_pending")
    m["kv_store.merge_pending.entries"] = per_round(tr.counters["kv_store.merge_pending.entries"])
    m["kv_store.init_partial.calls"] = per_round(tr.calls("kv_store.init_partial"))
    m["kv_store.init_partial.us"] = per_call("kv_store.init_partial")
    m["policies.selection_scores.calls"] = per_round(tr.calls("policies.selection_scores"))
    m["policies.selection_scores.us"] = per_call("policies.selection_scores")
    m["policies.selection_scores.positions_scored"] = per_round(
        tr.counters["policies.selection_scores.positions_scored"]
    )
    m["policies.h2o_step.us"] = per_call("policies.h2o_step")
    churn = [c for r in traced for s in r.sessions for c in s.churn]
    m["policies.refresh_churn"] = float(np.mean(churn)) if churn else 0.0

    # StepRecord-derived figures come from one untraced round: rounds repeat the same work.
    base = untraced[0].sessions
    records = [rec for s in base for rec in s.records]
    retained = [rec.retained_mass for rec in records if rec.retained_mass is not None]
    m["policies.retained_mass"] = float(np.mean(retained)) if retained else 0.0
    modes = [mode for rec in records for mode in rec.modes]
    m["scheduler.full_step_share"] = modes.count("full") / len(modes) if modes else 0.0
    m["scheduler.qc_checks"] = float(sum(x is not None for rec in records for x in rec.similarities))
    for label in REFRESH_LABELS:
        m[f"scheduler.effective_stride.{label}"] = effective_stride(base, label)
    flops = sum(rec.attention_flops for rec in records)
    m["metrics.modeled_attn_mflop_per_step"] = flops / 1e6 / len(records) if records else 0.0
    kv_bytes = sum(rec.kv_bytes_moved for rec in records)
    m["metrics.modeled_kv_mb_per_step"] = kv_bytes / 1e6 / len(records) if records else 0.0
    step_us = sum(float(s.scaled_steps.sum()) for r in untraced for s in r.sessions) / 1e3
    m["metrics.us_per_modeled_mflop"] = step_us / (flops / 1e6 * len(untraced)) if flops else 0.0

    premise_label = "refreshkv-fixed" if any(s.label == "refreshkv-fixed" for s in base) else "refreshkv"
    split = _steps_by_mode(untraced, premise_label)
    both = split["full"].size and split["partial"].size
    m["premise.partial_over_full.measured"] = (
        float(np.median(split["partial"]) / np.median(split["full"])) if both else 0.0
    )
    m["premise.partial_over_full.modeled"] = modeled_premise(base, premise_label)

    m["tasks.input_gen_ms"] = _median(gen_ms)
    m["model.init_model.ms"] = _median(init_ms)
    walls = [_median([r.wall_ns() for r in group]) for group in (traced, untraced)]
    m["trace.overhead"] = walls[0] / walls[1] if traced and untraced else 0.0
    step_total = tr.total_ns("session.step")
    m["trace.span_coverage"] = tr.children_ns("session.step") / step_total if step_total else 0.0
    return m


def effective_stride(sessions: list[SessionResult], label: str) -> float:
    """Generated steps over full-attention events, averaged over layers (0 if none)."""
    for s in sessions:
        if s.label == label and s.records:
            n_layers = len(s.records[0].modes)
            full_events = [sum(rec.modes[i] == "full" for rec in s.records) for i in range(n_layers)]
            strides = [s.steps / f for f in full_events if f]
            return float(np.mean(strides)) if strides else 0.0
    return 0.0


def modeled_premise(sessions: list[SessionResult], label: str) -> float:
    """Median modeled attention flops of partial steps over those of full steps."""
    for s in sessions:
        if s.label == label:
            full = [rec.attention_flops for rec in s.records if "full" in rec.modes]
            partial = [rec.attention_flops for rec in s.records if "full" not in rec.modes]
            if full and partial:
                return float(np.median(partial) / np.median(full))
    return 0.0


# ------------------------------------------------------------------ output


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args) -> int:
    weights, wl = setup(args.workload, args.seed, args.smoke)
    if args.setup_probe:
        print(repr(time.perf_counter()))
        return 0

    init_ms, gen_ms = [], []  # the two in-process parts of set-up, for the traced run
    for _ in range(SETUP_PROBES if args.trace else 0):
        t0 = _now()
        init_model(canonical_config(seed=MODEL_SEED))
        t1 = _now()
        workloads.build(args.workload, args.seed, args.smoke)
        init_ms.append((t1 - t0) / 1e6)
        gen_ms.append((_now() - t1) / 1e6)

    rounds, tr = measure(wl, weights, args.seconds, bool(args.trace), args.smoke)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    setup_s = probe_setup(args) if not args.trace else []

    sessions = [s for r in rounds for s in r.sessions]
    checks = [c for s in sessions for c in s.checks]
    failed_sessions = sum(1 for s in sessions if s.error)
    try:
        ref_checks, agree, predicted = reference_checks(wl, weights, rounds)
    except Exception:
        ref_checks, agree, predicted = [("reference checks ran", False, traceback.format_exc())], 0, 0
    try:
        ref_checks += [(f"self_check: {name}", ok, detail) for name, ok, detail in self_check()]
    except Exception:
        ref_checks.append(("self_check ran", False, traceback.format_exc()))
    checks += ref_checks
    failed_checks = [c for c in checks if not c[1]]
    # a failing call ends its session, which then counts as the failure
    attempted = len(sessions) + sum(s.steps for s in sessions) + len(checks)
    failed = failed_sessions + len(failed_checks)
    correct = failed == 0
    for name, _, detail in failed_checks:
        print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)

    metrics: dict[str, dict] = {}
    meta = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "workload_seed": args.seed,
        "model_seed": MODEL_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": "closed: one sequence, one process, each step sent after the previous returns",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "rounds": {"untraced": sum(not r.traced for r in rounds), "traced": sum(r.traced for r in rounds)},
        "sessions_per_round": [s.label for s in wl.sessions],
        "prompt_tokens": len(wl.prompt),
        "steps_per_session": len(wl.forced),
        "checks": {"attempted": len(checks), "failed": [c[0] for c in failed_checks]},
    }
    lines = []
    if args.trace:
        values = per_layer(rounds, tr, init_ms, gen_ms)
        values["policies.top1_agree"] = agree / predicted if predicted else 0.0
        for name, (unit, _, moves) in PER_LAYER.items():
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"{name:48s} {values[name]:14.6g} {unit:9s} -> {moves}")
        meta["spans_wrapped"] = tr.wrapped
        meta["spans_absent"] = tr.absent
        meta["counters_unavailable"] = sorted(tr.broken_counters)
        meta["traced_steps"] = sum(s.steps for r in rounds if r.traced for s in r.sessions)
    else:
        values, samples = end_to_end(rounds, setup_s, rss_mib)
        for name, (unit, better, what) in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"{name:18s} {values[name]:14.6g} {unit:6s} ({better} is better; n={samples[name]}) "
                         f"{what}")
        readouts = {"top1_agree": (agree / predicted if predicted else 0.0, predicted),
                    "fail_rate": (failed / attempted, attempted)}
        for name, (unit, better, what) in READOUTS.items():
            value, n = readouts[name]
            lines.append(f"{name:18s} {value:14.6g} {unit:6s} ({better} is better; n={n}; unbounded) {what}")
            meta[name] = value
        meta["samples"] = samples
        raw, _ = end_to_end(rounds, setup_s, rss_mib, scaled=False)
        meta["unscaled"] = {k: raw[k] for k in ("ttft_ms", "decode_us_p50", "decode_us_p99",
                                                 "decode_tok_per_s", "run_wall_s")}
        meta["host_speed"] = {
            "step_factor_median": float(np.median(np.concatenate([s.step_scale for s in sessions]))),
            "prefill_factor_median": float(np.median([s.prefill_scale for s in sessions])),
        }
        meta["effective_stride"] = {
            label: effective_stride(rounds[0].sessions, label) for label in REFRESH_LABELS
        }
        split = _steps_by_mode(rounds, "refreshkv-fixed")
        if split["full"].size and split["partial"].size:
            premise = meta["premise_refreshkv_fixed"] = {
                "measured_partial_over_full": float(np.median(split["partial"]) / np.median(split["full"])),
                "modeled_partial_over_full": modeled_premise(rounds[0].sessions, "refreshkv-fixed"),
                "samples": {"partial": int(split["partial"].size), "full": int(split["full"].size)},
            }
            lines.append(f"premise (refreshkv-fixed): p50 partial/full step "
                         f"{premise['measured_partial_over_full']:.4g} measured (n={premise['samples']}) against "
                         f"{premise['modeled_partial_over_full']:.4g} "
                         "modeled from StepRecord.attention_flops (K/L)")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {workloads.WHY[args.workload]}")
    for line in lines:
        print(line)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload, each in its own process, and print one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {done.returncode})", file=sys.stderr)
            combined["correct"] = False
            status = 1
            continue
        status = status or done.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; checks the output schema only")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
