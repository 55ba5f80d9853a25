"""Per-layer scheduling of full-attention steps: `decide`, the one place a step is chosen full.

Two real modes plus one diagnostic constant:

  fixed       full attention every stride-th generated step, all layers
  qc          at every qc_stride-th step, compare the layer's mean query
              (`mean_query`) against the one from its most recent full step;
              run full attention only when the cosine similarity falls below
              the threshold
  never_full  the partial cache throughout, for equivalence checks;
              fixed stride 1 is full attention at every step

The qc threshold lies in [-1, 1], the range of cosine similarity.

Step indices start at 1 for the first generated token, so fixed stride S
fires first at step S. The prefill counts as the initial full-attention
event for reference-query purposes but is excluded from effective-stride
denominators, which cover the generation phase only. A similarity exactly
equal to the threshold decodes with the partial cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, require
from .numerics import cosine_similarity

SCHEDULE_MODES = ("fixed", "qc", "never_full")


@dataclass(frozen=True)
class ScheduleConfig:
    mode: str = "fixed"
    stride: int = 10
    qc_stride: int = 10
    threshold: float = 0.85

    def validate(self) -> None:
        if self.mode not in SCHEDULE_MODES:
            raise ConfigurationError(f"unknown schedule mode {self.mode!r}")
        require(int, stride=self.stride, qc_stride=self.qc_stride)
        if self.stride < 1:
            raise ConfigurationError(f"stride must be positive, got {self.stride}")
        if self.qc_stride < 1:
            raise ConfigurationError(f"qc_stride must be positive, got {self.qc_stride}")
        # cosine similarity lies in [-1, 1], so a threshold outside it adds no
        # behaviour (above 1 fires at every boundary, below -1 never fires);
        # fixed stride qc_stride and never_full cover those uses. NaN fails the range test.
        require(float, threshold=self.threshold)
        if not -1.0 <= self.threshold <= 1.0:
            raise ConfigurationError(f"threshold must lie in [-1, 1], got {self.threshold!r}")


def decide(config: ScheduleConfig, step_index: int, q: np.ndarray | None,
           reference: np.ndarray | None) -> tuple[bool, float | None, np.ndarray | None]:
    """Whether the layer's step is full, the similarity it read (None but at qc boundaries), and the reference to keep.

    Only qc reads q, the layer's (n_query_heads, head_dim) queries, and reference, the mean query of its most recent
    full step (initially the prefill), at its stride boundaries; a full qc step returns its mean query as the new
    reference. Pure function of its arguments; replaying a trace reproduces the same decisions bit for bit.
    """
    if config.mode == "fixed":
        return step_index % config.stride == 0, None, reference
    if config.mode == "never_full" or step_index % config.qc_stride:
        return False, None, reference
    similarity = cosine_similarity(query := mean_query(q), reference)
    if similarity < config.threshold:
        return True, similarity, query
    return False, similarity, reference


def mean_query(q: np.ndarray) -> np.ndarray:
    """A layer's (n_query_heads, head_dim) queries averaged over the heads: q.mean(axis=0)'s arithmetic."""
    return np.add.reduce(q, axis=0) / q.shape[0]


def effective_stride(full_events: int, generated_steps: int) -> float | None:
    """Generated steps divided by generation-phase full-attention events.

    None when the layer never ran full attention during generation.
    """
    if full_events == 0:
        return None
    return generated_steps / full_events
