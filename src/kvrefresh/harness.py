"""Experiment runner: bind a model, a policy, a schedule, and a task.

A run is fully described by its RunConfig and reproducible from it alone:
the same config and build produce byte-identical trace files. Every run,
and every rung of self_check, goes through engine.decode, the one decode
loop: an lm run feeds its scored tail teacher-forced and takes each
token's NLL from decode's logits; a chainkey run decodes greedily. Artifacts
per run: trace.jsonl (one StepRecord per generated step) and summary.json
(config echo, result metric, exact cost totals, per-layer effective
strides, the BLAS thread settings; wall-clock is reported for orientation
but never asserted on).

compare() lines several run summaries up against the vanilla baseline and,
for language-model runs, emits a per-step negative-log-likelihood ratio
CSV over generation steps (the divergence view of partial-cache policies
against full attention).
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import DecodeSession, decode
from .errors import ConfigurationError, require
from .metrics import StepRecord, nll_from_logits, nll_to_perplexity, per_layer_effective_strides, trace_totals
from .model import ModelConfig, canonical_config, init_model
from .policies import REFRESH_FAMILY, TOP_K_KINDS, PolicyConfig
from .scheduler import ScheduleConfig
from .tasks import (
    ChainKeyInstance,
    check_stream_structure,
    decode_tokens,
    encode_text,
    evaluate_chain,
    generate_chain_instance,
    synthetic_lm_stream,
)

TASKS = ("lm", "chainkey")
# the fields a run reads of those it may leave unread (`_optional_fields`): its task's fields (but motif_period beside a
# uniform stream), its policy kind's (but k_fraction beside a set k) and, under the refresh family only, its schedule
# mode's; RunConfig.validate refuses any other of them off its default (an unknown structure is named later)
TASK_FIELDS = {"lm": ("task_params.stream_length", "task_params.tail", "task_params.structure",
                      "task_params.motif_period"),
               "chainkey": ("task_params.n_keys", "task_params.chain_length", "task_params.words_per_key", "n_generate")}
KIND_FIELDS = {"vanilla": ("kind",), "streaming": ("kind", "k", "k_fraction", "n_sink"),
               "h2o": ("kind", "k", "k_fraction"),
               **dict.fromkeys(TOP_K_KINDS, ("kind", "k", "k_fraction", "kernel_size", "evict_on_append"))}
MODE_FIELDS = {"fixed": ("mode", "stride"), "qc": ("mode", "qc_stride", "threshold"), "never_full": ("mode",)}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class TaskConfig:
    stream_length: int = 512  # lm: total stream tokens
    tail: int = 128  # lm: scored tail length
    structure: str = "repeated_motif"  # lm: uniform | repeated_motif
    motif_period: int = 64
    n_keys: int = 32  # chainkey
    chain_length: int = 8  # chainkey
    words_per_key: int = 2  # chainkey

    def validate(self) -> None:
        require(int, **{f.name: getattr(self, f.name) for f in fields(self) if f.name != "structure"})


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=canonical_config)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    task: str = "lm"
    task_params: TaskConfig = field(default_factory=TaskConfig)
    n_generate: int = 64  # chainkey: decode steps; lm runs use task_params.tail
    seed: int = 0  # task-level seed (streams / instances)
    out_dir: str = "runs/out"

    def validate(self) -> None:
        self.model.validate()
        self.policy.validate()
        self.schedule.validate()
        self.task_params.validate()
        require(int, n_generate=self.n_generate, seed=self.seed)
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.task not in TASKS:
            raise ConfigurationError(f"unknown task {self.task!r}")
        kind, mode, default, tp = self.policy.kind, self.schedule.mode, _optional_fields(RunConfig()), self.task_params
        read = {*(f"policy.{name}" for name in KIND_FIELDS[kind] if name != "k_fraction" or self.policy.k is None),
                *(name for name in TASK_FIELDS[self.task]
                  if name != "task_params.motif_period" or tp.structure != "uniform"),
                *(f"schedule.{name}" for name in MODE_FIELDS[mode] if kind in REFRESH_FAMILY)}
        for name, value in _optional_fields(self).items():
            if name not in read and value != default[name]:
                raise ConfigurationError(f"this {self.task} run of policy kind {kind!r}, budget k={self.policy.k}, "
                                         f"schedule mode {mode!r} never reads {name}; leave it at its default")
        if not isinstance(self.out_dir, str):
            raise ConfigurationError(f"out_dir must be a string, got {self.out_dir!r}")
        if self.task == "lm":
            if not 1 <= tp.tail < tp.stream_length:
                raise ConfigurationError(
                    f"need 1 <= tail < stream_length, got tail={tp.tail} stream_length={tp.stream_length}"
                )
            check_stream_structure(tp.structure, tp.motif_period)
            prompt_length = tp.stream_length - tp.tail
        else:
            if self.n_generate < 1:
                raise ConfigurationError(f"n_generate must be positive, got {self.n_generate}")
            if self.model.vocab_size > 256:  # decode_tokens scores each generated id as one byte
                raise ConfigurationError(f"chainkey needs vocab_size <= 256, got {self.model.vocab_size}")
            prompt = encode_text(chain_instance(self).prompt)
            if max(prompt) >= self.model.vocab_size:
                raise ConfigurationError(f"chainkey prompt byte {max(prompt)} outside vocab_size {self.model.vocab_size}")
            prompt_length = len(prompt)
        self.policy.resolve_budget(prompt_length)  # a streaming budget below n_sink raises

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        """Build a config from a nested mapping; unknown keys are errors at every level."""
        _reject_unknown(obj, cls, "run config")
        kwargs = dict(obj)
        for name, section in (("model", ModelConfig), ("policy", PolicyConfig), ("schedule", ScheduleConfig),
                              ("task_params", TaskConfig)):
            if name in kwargs:
                _reject_unknown(kwargs[name], section, name)
                kwargs[name] = section(**kwargs[name])
        return cls(**kwargs)


def _optional_fields(config: RunConfig) -> dict:
    """Each policy, task and schedule field, and n_generate, by its dotted name: the fields a run may never read."""
    sections = {s: getattr(config, s) for s in ("policy", "task_params", "schedule")}
    return {**{f"{s}.{f.name}": getattr(c, f.name) for s, c in sections.items() for f in fields(c)},
            "n_generate": config.n_generate}


def _reject_unknown(obj, config_class, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} must be a mapping, got {obj!r}")
    unknown = sorted(set(obj) - {f.name for f in fields(config_class)})
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {', '.join(map(str, unknown))}")


def chain_instance(config: RunConfig) -> ChainKeyInstance:
    """The chainkey instance a run config describes."""
    tp = config.task_params
    return generate_chain_instance(tp.n_keys, tp.words_per_key, tp.chain_length, config.seed)


def run(config: RunConfig, out_dir: str | None = None) -> dict:
    """Execute one run and write trace.jsonl plus summary.json."""
    config.validate()
    target = Path(out_dir if out_dir is not None else config.out_dir)
    tp = config.task_params
    try:  # numpy refuses an array too large for memory (MemoryError) or for its index type (ValueError)
        weights = init_model(config.model)
        if config.task == "lm":
            stream = synthetic_lm_stream(tp.stream_length, config.model.vocab_size, config.seed, tp.structure,
                                         tp.motif_period)
    except (MemoryError, ValueError) as exc:
        raise ConfigurationError(f"the config's model or stream cannot be allocated: {exc}") from exc

    started = time.perf_counter()
    session = DecodeSession(weights, config.policy, config.schedule)
    if config.task == "lm":
        # the head is prefilled; each tail token is predicted, then fed: step i's record scores tail[i]
        head, tail = stream[: -tp.tail].tolist(), stream[-tp.tail :].tolist()
        _, trace, logits = decode(session, head, tp.tail - 1, forced=tail)
        nlls = [nll_from_logits(z, token) for z, token in zip(logits, tail)]
        for rec, nll in zip(trace, nlls[1:]):
            rec.nll = nll
        result = {"perplexity": nll_to_perplexity(nlls), "scored_tokens": len(nlls)}
    else:
        instance = chain_instance(config)
        generated, trace, _ = decode(session, encode_text(instance.prompt), config.n_generate)
        output_text = decode_tokens(generated)
        chain_score = evaluate_chain(instance, output_text)
        result = {
            "chain_score": chain_score.score,
            "valid_prefix_length": chain_score.valid_prefix_length,
            "output_text": output_text,
        }
    elapsed = time.perf_counter() - started

    strides = per_layer_effective_strides(trace, config.model.n_layers)
    present = [s for s in strides if s is not None]
    summary = {
        "config": asdict(config),
        "task": config.task,
        "result": result,
        "totals": trace_totals(trace),
        "effective_strides": strides,
        "effective_stride_mean": (float(np.mean(present)) if present else None),
        "n_steps": len(trace),
        "wall_clock_seconds": elapsed,
        # a multi-threaded BLAS may split matrix products differently and move float trace bits
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }

    target.mkdir(parents=True, exist_ok=True)
    with open(target / "trace.jsonl", "w", encoding="utf-8") as f:
        for rec in trace:
            f.write(rec.to_json() + "\n")
    with open(target / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
    return summary


def load_trace(run_dir: str | Path) -> list[StepRecord]:
    """A run's trace.jsonl records; a bad line is a configuration error naming the file and line."""
    path = Path(run_dir) / "trace.jsonl"
    records = []
    with open(path, "rb") as f:
        for n, line in enumerate(f, 1):
            if line.strip():
                try:
                    records.append(StepRecord.from_json(line))
                except (ValueError, TypeError) as exc:
                    raise ConfigurationError(f"{path} line {n}: {type(exc).__name__}: {exc}") from exc
    return records


def _compare_row(run_dir: str | Path) -> tuple[dict, dict]:
    """What compared runs must share (task, task seed, model, task_params, n_generate) and the run's comparison row,
    from its summary.json; a summary lacking them is a configuration error naming it."""
    path = Path(run_dir) / "summary.json"
    with open(path, encoding="utf-8") as f:
        try:
            s = json.load(f)
            c = s["config"]
            kind, totals = c["policy"]["kind"], s["totals"]
            row = {
                "run_dir": str(run_dir),
                "policy": kind,
                # the other kinds follow no schedule: RunConfig.validate keeps theirs at the defaults
                "schedule": c["schedule"]["mode"] if kind in REFRESH_FAMILY else None,
                "metric": s["result"]["perplexity" if s["task"] == "lm" else "chain_score"],
                **{key: totals[key] for key in ("attention_flops", "kv_bytes_moved", "overhead_flops")},
                "effective_stride_mean": s["effective_stride_mean"],
            }
            shared = {"task": s["task"], **{key: c[key] for key in ("seed", "model", "task_params", "n_generate")}}
            return shared, row
        except (ValueError, LookupError, TypeError) as exc:
            raise ConfigurationError(f"{path}: {type(exc).__name__}: {exc}") from exc


def compare(run_dirs: Sequence[str | Path], nll_csv: str | Path | None = None) -> dict:
    """Side-by-side comparison of runs over the same task, task seed, model and inputs.

    Ratios are against the vanilla run when one is present, otherwise
    against the first run. For language-model runs a per-step NLL table
    (with ratio-to-baseline columns) can be written as CSV.
    """
    if len(run_dirs) < 1:
        raise ConfigurationError("compare needs at least one run directory")
    loaded = [_compare_row(d) for d in run_dirs]
    first = loaded[0][0]
    if differ := [key for key in first if any(shared.get(key) != first[key] for shared, _ in loaded)]:
        raise ConfigurationError(
            f"runs are not comparable: they differ in {', '.join(differ)}; "
            "compare runs over the same task, task seed, model and inputs"
        )

    def ratio(x: float, y: float) -> float | None:
        return None if y == 0 else x / y

    rows = [row for _, row in loaded]
    baseline_idx = next((i for i, row in enumerate(rows) if row["policy"] == "vanilla"), 0)
    base = rows[baseline_idx]
    for row in rows:
        row["metric_ratio_to_baseline"] = ratio(row["metric"], base["metric"])
        row["flops_ratio_to_baseline"] = ratio(row["attention_flops"], base["attention_flops"])
        row["bytes_ratio_to_baseline"] = ratio(row["kv_bytes_moved"], base["kv_bytes_moved"])
    task = first["task"]
    report = {"baseline": str(run_dirs[baseline_idx]), "task": task, "rows": rows}

    if nll_csv is not None:
        if task != "lm":
            raise ConfigurationError("per-step NLL curves exist only for lm runs")
        traces = [load_trace(d) for d in run_dirs]
        n = min(len(t) for t in traces)
        names = [r["policy"] for r in rows]
        base_trace = traces[baseline_idx]
        with open(nll_csv, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            header = ["step"]
            header += [f"nll_{name}" for name in names]
            header += [f"nll_ratio_{name}" for name in names]
            writer.writerow(header)
            for i in range(n):
                row: list = [traces[0][i].step_index]
                row += [t[i].nll for t in traces]
                base_nll = base_trace[i].nll
                row += [
                    (t[i].nll / base_nll if base_nll not in (None, 0) and t[i].nll is not None else "")
                    for t in traces
                ]
                writer.writerow(row)
    return report


def format_comparison(report: dict) -> str:
    headers = ["policy", "schedule", "metric", "flops", "bytes", "metric/base", "bytes/base"]
    lines = ["  ".join(f"{h:>14}" for h in headers)]
    for r in report["rows"]:
        cells = [
            r["policy"],
            r["schedule"] or "-",
            f"{r['metric']:.6g}",
            str(r["attention_flops"]),
            str(r["kv_bytes_moved"]),
            "-" if r["metric_ratio_to_baseline"] is None else f"{r['metric_ratio_to_baseline']:.4f}",
            "-" if r["bytes_ratio_to_baseline"] is None else f"{r['bytes_ratio_to_baseline']:.4f}",
        ]
        lines.append("  ".join(f"{c:>14}" for c in cells))
    return "\n".join(lines)


def self_check(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run the policy-equivalence ladder and core store invariants.

    Uses a small prompt so the whole check stays fast; returns one
    (name, passed, detail) row per check.
    """
    cfg = canonical_config(seed=seed)
    weights = init_model(cfg)
    rng = np.random.default_rng(seed)
    prompt = rng.integers(0, cfg.vocab_size, size=48).tolist()
    L, N = len(prompt), 24
    results: list[tuple[str, bool, str]] = []

    def rung(name: str, policy: PolicyConfig, schedule: ScheduleConfig | None, ref: tuple) -> None:
        """One ladder row: greedy decoding under `policy` reproduces the reference run's tokens and logits."""
        ids, _, logits = decode(DecodeSession(weights, policy, schedule), prompt, N)
        same = ids == ref[0]
        close = all(np.allclose(x, y, rtol=1e-9, atol=0.0) for x, y in zip(logits, ref[2]))
        results.append((name, same and close, f"tokens {'match' if same else 'differ'}"))

    vanilla = decode(DecodeSession(weights, PolicyConfig(kind="vanilla")), prompt, N)
    rung("refreshkv(k=L, fixed stride 1) == vanilla", PolicyConfig(kind="refreshkv", k=L),
         ScheduleConfig(mode="fixed", stride=1), vanilla)
    snapkv = decode(DecodeSession(weights, PolicyConfig(kind="snapkv", k=12)), prompt, N)
    rung("refreshkv(never_full, no evict) == snapkv", PolicyConfig(kind="refreshkv", k=12, evict_on_append=False),
         ScheduleConfig(mode="never_full"), snapkv)
    for kind in ("streaming", "h2o"):
        rung(f"{kind}(k >= L+N) == vanilla", PolicyConfig(kind=kind, k=L + N), None, vanilla)

    session = DecodeSession(weights, PolicyConfig(kind="refreshkv", k=12), ScheduleConfig(mode="fixed", stride=5))
    decode(session, prompt, N)
    cf_ok = all(len(session.full[layer]) == L + N for layer in range(cfg.n_layers))
    cp_ok = all(
        size == session.k_sel for layer in range(cfg.n_layers) for size in session.partial[layer].sizes()
    )
    results.append(("full cache holds L+N entries after the run", cf_ok, f"L+N={L + N}"))
    results.append(("partial cache is exactly k after the run", cp_ok, f"k={session.k_sel}"))
    return results
