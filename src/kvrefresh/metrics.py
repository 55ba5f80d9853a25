"""Cost accounting, perplexity, and step traces.

Cost convention. Per-step attention cost is an exact function of the
recorded per-layer attended-set size:

    flops(a) = n_query_heads * 4 * a * head_dim        (scores + value mix)
    bytes(a) = a * 2 * head_dim * n_kv_heads * 8       (K and V, float64)

The attended-set size follows the budget convention of the policies
themselves: a full-attention step is charged at the prompt length L and a
budgeted step at min(K, L), ignoring the slow growth from generated
tokens (the partial cache's own budget already hides it, and the full
cache's growth is a generation-length effect excluded from the modeled
comparison on purpose). The actual per-step view lengths are recorded
alongside so nothing is hidden; only the modeled sizes feed the headline
flops/bytes. Scoring, pooling, top-K, similarity checks, and the
score-only pass of the no-full-attention ablation are tallied under a
separate overhead_flops field so the headline cost keeps the
full-vs-partial shape comparable across policies.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .model import ModelConfig
from .scheduler import effective_stride


def layer_attention_cost(attended: int, config: ModelConfig) -> tuple[int, int]:
    """(flops, kv bytes moved) for one layer attending `attended` entries."""
    if attended < 1:
        raise ContractViolation(f"attended size must be >= 1, got {attended}")
    flops = config.n_query_heads * 4 * attended * config.head_dim
    nbytes = attended * 2 * config.head_dim * config.n_kv_heads * 8
    return flops, nbytes


def selection_overhead_flops(m: int, config: ModelConfig, kernel: int) -> int:
    """Aggregate + pool + top-K work over m scored positions (one layer), pooling at max_pool_1d's width."""
    agg = (config.n_query_heads - config.n_kv_heads) * m
    pool = config.n_kv_heads * m * (min(kernel, 2 * m - 1) - 1)
    topk = config.n_kv_heads * m * max(1, math.ceil(math.log2(max(m, 2))))
    return agg + pool + topk


def qc_overhead_flops(config: ModelConfig) -> int:
    """One cosine-similarity check (one layer): dot plus two norms."""
    return 6 * config.head_dim + 3


def h2o_overhead_flops(m: int, config: ModelConfig) -> int:
    """Aggregating and accumulating one step's scores over m positions."""
    return config.n_query_heads * m


def score_pass_flops(m: int, config: ModelConfig) -> int:
    """Score-only full-cache pass (one layer): QK^T plus row softmax."""
    return config.n_query_heads * m * (2 * config.head_dim + 3)


@dataclass
class StepRecord:
    """One generated step: per-layer modes, sizes, and exact modeled costs."""

    step_index: int
    token_id: int
    modes: list[str]  # per layer: "full" | "partial"
    attended: list[int]  # per layer, modeled attended-set size (drives cost)
    view_lens: list[int]  # per layer, the length of the cache the layer attended, read when it was provided
    attention_flops: int
    kv_bytes_moved: int
    overhead_flops: int
    similarities: list[float | None] = field(default_factory=list)  # per layer, qc checks only
    retained_mass: float | None = None  # mean post-refresh coverage, refresh steps only
    nll: float | None = None  # teacher-forced negative log-likelihood (lm runs)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "StepRecord":
        return cls(**json.loads(line))


def step_cost(attended: Sequence[int], config: ModelConfig) -> tuple[int, int]:
    """A step's headline (flops, kv bytes moved) from its per-layer attended sizes."""
    costs = [layer_attention_cost(a, config) for a in attended]
    return sum(f for f, _ in costs), sum(b for _, b in costs)


def trace_totals(trace: Sequence[StepRecord]) -> dict:
    return {
        "attention_flops": sum(r.attention_flops for r in trace),
        "kv_bytes_moved": sum(r.kv_bytes_moved for r in trace),
        "overhead_flops": sum(r.overhead_flops for r in trace),
        "steps": len(trace),
    }


def per_layer_effective_strides(trace: Sequence[StepRecord], n_layers: int) -> list[float | None]:
    strides = []
    for layer in range(n_layers):
        full_events = sum(1 for r in trace if r.modes[layer] == "full")
        strides.append(effective_stride(full_events, len(trace)))
    return strides


def nll_from_logits(logits: np.ndarray, target: int) -> float:
    """Stable negative log-likelihood of one target token."""
    z = logits - np.max(logits)
    return float(np.log(np.sum(np.exp(z))) - z[int(target)])


def nll_to_perplexity(nlls: Sequence[float]) -> float:
    if len(nlls) == 0:
        raise ContractViolation("perplexity needs at least one scored token")
    return float(np.exp(np.mean(np.asarray(nlls, dtype=np.float64))))
