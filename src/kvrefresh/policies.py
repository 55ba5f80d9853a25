"""Cache policies: configuration, the selection operations, and the
per-layer policy objects a DecodeSession drives.

make_policy maps each of the seven kinds onto one of four classes:

  vanilla               FullAttention  the complete cache every step
  streaming             Recency        sink tokens plus a recency window
  h2o                   H2OState       cumulative-attention heavy hitters
                                       plus a recency half
  snapkv                TopK           top-K from the prompt's last-token
                                       scores; never full, grow-only
  refreshkv             TopK           scheduled full steps that rebuild
                                       the top-K from their observed scores
  refreshkv_no_refresh  TopK           scheduled full steps, no rebuild
  refreshkv_no_full     TopK           scheduled steps that rebuild the
                                       top-K and attend it, not the full cache

After the prefill the session builds one policy object per layer. At each
step the session writes the fresh key/value into the layer's full cache
(unless appends_full is False: snapkv keeps only its prompt there) and
asks `view(step, position, ...)`, with the position it computed, for the
cache the layer attends: the policy returns `self.full` or `self.partial`
itself, and attention reads its window. After the forward pass `update`
gets the rows the model returns for every layer, maintains the policy's
state and reports the layer's step as a LayerStep: whether it was full,
and its overhead. The partial step every budgeted policy shares
(LayerPolicy.view) appends the current entry to the layer's partial cache
and returns that cache (see kv_store for the entry order of each kind).
So every view holds the current token, except at a refreshkv_no_full
refresh step: it attends the refreshed top-K of the full cache, which
holds the current position only if the refresh selects it.
Streaming and h2o build that arena at the prefill by gathering their
starting set from the full cache, in ascending position order, then drop
one slot per step: streaming the oldest entry after the sinks, h2o the
lightest heavy-hitter candidate. Top-K kinds keep theirs in eviction
order, so their evictions drop slot 0. The rows `update` gets, and the
rows refreshkv_no_full scores over the full cache, come from
model.attention_rows as one (n_kv_heads, group_size, m) array.

Selection scores are per kv-head: the elementwise max of its query
group's probability rows over the cache, max-pooled over neighboring
positions, and top-K runs independently per kv-head. One routine,
refresh_layers, runs every refresh: after the forward for every layer whose
full step refreshes, and mid-forward for one refreshkv_no_full layer. It
works on whole (layers * n_kv_heads, ...) arrays: one aggregation, pooling,
top-K and rank sort, whose held scores give the retained mass, then an
in-place refill of each layer's partial-cache arena from its full cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation, require
from .kv_store import FullCache, PartialCache, init_partial
from .metrics import (
    h2o_overhead_flops,
    qc_overhead_flops,
    score_pass_flops,
    selection_overhead_flops,
)
from .model import StepOutput, attention_rows
from .numerics import cosine_similarity, max_pool_1d, top_k_indices
from .scheduler import ScheduleConfig, mean_query, should_full

if TYPE_CHECKING:
    from .engine import DecodeSession

POLICY_KINDS = (
    "vanilla",
    "streaming",
    "h2o",
    "snapkv",
    "refreshkv",
    "refreshkv_no_refresh",
    "refreshkv_no_full",
)
REFRESH_FAMILY = ("refreshkv", "refreshkv_no_refresh", "refreshkv_no_full")

Recorder = Callable[[dict], None]


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "refreshkv"
    k: int | None = None  # absolute budget; when set it wins over k_fraction
    k_fraction: float | None = 0.125  # budget as a fraction of the prompt length
    kernel_size: int = 7
    n_sink: int = 4  # streaming only
    evict_on_append: bool | None = None  # default: True for refresh family, False for snapkv

    def validate(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ConfigurationError(f"unknown policy kind {self.kind!r}")
        require(int, kernel_size=self.kernel_size, n_sink=self.n_sink)
        if self.k is not None:
            require(int, k=self.k)
        if self.k_fraction is not None:
            require(float, k_fraction=self.k_fraction)
        if self.evict_on_append is not None:
            require(bool, evict_on_append=self.evict_on_append)
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigurationError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if self.k is None and self.k_fraction is None:
            raise ConfigurationError("one of k or k_fraction is required")
        if self.k is not None and self.k < 1:
            raise ConfigurationError(f"k must be positive, got {self.k}")
        if self.k_fraction is not None and not 0.0 < self.k_fraction <= 1.0:  # NaN fails the range test too
            raise ConfigurationError(f"k_fraction must lie in (0, 1], got {self.k_fraction}")
        if self.n_sink < 0:
            raise ConfigurationError(f"n_sink must be non-negative, got {self.n_sink}")

    def resolve_budget(self, input_length: int) -> int:
        """Absolute cache budget for a given prompt length.

        Fractional budgets resolve to floor(fraction * L). Policies that
        select from the prefilled cache additionally clamp to L; recency
        policies use the budget as-is so oversized budgets degenerate to
        vanilla attention.
        """
        if self.k is not None:
            return self.k
        return max(1, int(self.k_fraction * input_length))

    def resolved_evict_on_append(self) -> bool:
        if self.evict_on_append is not None:
            return self.evict_on_append
        return self.kind != "snapkv"


def aggregate_group_scores(per_query_head_rows: np.ndarray) -> np.ndarray:
    """Collapse each group of query-head score rows into one row, elementwise
    max over the group axis: (..., group_size, m) -> (..., m)."""
    rows = np.asarray(per_query_head_rows, dtype=np.float64)
    if rows.ndim < 2 or rows.shape[-2] < 1:
        raise ContractViolation(f"expected a non-empty (..., group, positions) array, got shape {rows.shape}")
    return rows.max(axis=-2)


def selection_scores(rows_per_head: Sequence[np.ndarray], config: PolicyConfig) -> np.ndarray:
    """Selection scores per kv-head: group-aggregate, then max-pool.

    rows_per_head: (n, group_size, m), or a sequence of n (group_size, m)
    arrays: the probability rows each kv head of one or more layers observed
    at a full-attention (or prefill) step. Each head's group maximum is
    written into one (n, m) array, which is pooled at once. Returns (n, m).
    """
    shapes = {np.shape(rows) for rows in rows_per_head}
    if len(shapes) != 1 or len(shape := next(iter(shapes))) != 2 or shape[0] == 0:
        raise ContractViolation(f"expected kv-head (group, positions) rows of one shape, got {sorted(shapes)}")
    aggregated = np.empty((len(rows_per_head), shape[1]))
    for rows, out in zip(rows_per_head, aggregated):
        np.maximum.reduce(rows, axis=0, out=out)
    return max_pool_1d(aggregated, config.kernel_size)


# ------------------------------------------------------------ policy objects


@dataclass
class LayerStep:
    """One layer's share of a step record, as its policy reports it."""

    full: bool = False  # a full step as the policy decided it; refreshkv_no_full's attends the partial cache
    overhead_flops: int = 0
    similarity: float | None = None  # qc check, when one ran
    retained: list[float] = field(default_factory=list)  # post-refresh coverage per kv-head


class LayerPolicy:
    """One layer's cache policy, built from its session right after the prefill.

    view(step, position, q, k_new, v_new) runs mid-forward with the layer's
    rotated (n_query_heads, head_dim) queries and returns the cache to
    attend, `self.full` or `self.partial` (the base view is the budgeted
    policies' partial step), and update(step, rows) -> LayerStep gets the
    (n_kv, group, m) rows over that view.
    """

    appends_full = True  # the session writes each fresh key/value into the full cache
    partial: PartialCache | None = None

    def __init__(self, session: DecodeSession, layer: int, out: StepOutput):
        self.config, self.model, self.recorder = session.policy, session.cfg, session.recorder
        self.layer = layer
        self.full = session.full[layer]
        self.input_length, self.budget, self.k_sel = session.input_length, session.budget, session.k_sel

    def view(self, step, position, q, k_new, v_new) -> FullCache | PartialCache:
        """The partial step: append the current entry to the partial-cache arena and attend it."""
        self.partial.append(position, k_new, v_new)
        return self.partial


class FullAttention(LayerPolicy):
    def view(self, step, position, q, k_new, v_new):
        return self.full

    def update(self, step, rows):
        return LayerStep(full=True)


class Recency(LayerPolicy):
    """The first n_sink positions plus the newest, budget in all (everything while it fits):
    each step appends to the ascending arena and, once over budget, drops slot n_sink, which
    moves the sinks one slot when they are the shorter side of the window."""

    def __init__(self, session, layer, out):
        super().__init__(session, layer, out)
        n_sink, L = self.config.n_sink, self.input_length
        if self.budget < n_sink:
            raise ConfigurationError(f"streaming budget {self.budget} smaller than n_sink {n_sink}")
        keep = np.arange(L)
        if L > self.budget:
            keep = np.concatenate([keep[:n_sink], keep[L - (self.budget - n_sink) :]])
        positions, keys, values = self.full.gather(keep)
        self.partial = PartialCache(self.budget, positions, keys, values)

    def update(self, step, rows):
        if self.partial.sizes()[0] > self.budget:
            self.partial.drop(self.config.n_sink)
        return LayerStep()


class H2OState(LayerPolicy):
    """The heavy-hitter (h2o) policy.

    Tracks the cumulative attention each held position received as the
    partial cache's `scores`: one (1, n) row, moving with the window, that
    every head shares. The arena stays in ascending position order, so
    the recency half is its last entries and a drop moves the shorter side
    of the window. The budget splits into a recency half (the newest
    positions, kept unconditionally) and a heavy half (highest cumulative
    score among the rest, ties toward the lower position). Evicted
    positions are gone for good. Requires a score observation every step.
    """

    def __init__(self, session, layer, out):
        """Keep the prompt's heavy hitters under its last-token aggregated attention row."""
        super().__init__(session, layer, out)
        row = aggregate_group_scores(out.attn_rows[layer].reshape(-1, self.input_length))
        self.heavy_n = self.budget // 2
        self.recent_n = self.budget - self.heavy_n
        keep = np.arange(row.size)
        if row.size > self.budget:
            recent_start = row.size - self.recent_n
            keep = keep[recent_start:]
            if self.heavy_n:  # top heavy_n by (sum desc, position asc), returned in ascending order
                keep = np.concatenate([top_k_indices(row[:recent_start], self.heavy_n), keep])
        positions, keys, values = self.full.gather(keep)
        self.partial = PartialCache(self.budget, positions, keys, values, row[None, keep])

    def keepset(self) -> np.ndarray:
        """The positions held, ascending: a view of the arena, valid until its next write."""
        return self.partial.positions[0]

    def step(self, attention_row: np.ndarray) -> None:
        """Accumulate one step's row over the arena, whose last entry is the just-decoded
        position, then, once over budget, drop the lowest sum outside the recency half."""
        row = np.asarray(attention_row, dtype=np.float64)
        scores = self.partial.scores
        if row.shape != scores.shape[1:]:
            raise ContractViolation(f"attention row of {row.size} entries over an arena of {scores.shape[1]}")
        scores[:, :-1] += row[:-1]
        scores[:, -1] = row[-1]
        if (n := scores.shape[1]) > self.budget:
            heavy = scores[0, : n - self.recent_n]
            # argmin over the reversed candidates: ties leave from the higher position
            self.partial.drop(heavy.size - 1 - int(heavy[::-1].argmin()))

    def update(self, step, rows):
        row = aggregate_group_scores(rows.reshape(-1, rows.shape[-1]))
        view_positions = self.keepset().copy() if self.recorder is not None else None
        self.step(row)
        if self.recorder is not None:
            self.recorder(
                {
                    "kind": "h2o",
                    "step": step,
                    "layer": self.layer,
                    "raw_rows": [r.copy() for r in rows],
                    "row": row,
                    "view_positions": view_positions,
                    "keepset": self.keepset().copy(),
                }
            )
        return LayerStep(overhead_flops=h2o_overhead_flops(row.size, self.model))


class TopK(LayerPolicy):
    """A top-K partial cache selected from the prompt's last-token scores.

    The partial cache is in eviction order (see kv_store). Partial steps
    write the fresh entry at its end, attend it, then, when
    evict_on_append resolves true, evict from its start: the lowest
    score, or the oldest entry appended since the last refresh. At
    the steps the schedule marks full, `output_full` attends the whole
    cache and, if `refresh`, notes itself in the session's `due` list, so
    that the session rebuilds every due layer's partial cache at once from
    the observed rows after the forward pass; without output_full the step
    scores the whole cache, rebuilds the partial cache and attends that.
    """

    def __init__(self, session, layer, out, schedule: ScheduleConfig, refresh: bool, output_full: bool,
                 appends_full: bool = True):
        super().__init__(session, layer, out)
        self.schedule, self.refresh, self.output_full = schedule, refresh, output_full
        self.appends_full, self.due = appends_full, session.due
        self.evict = self.config.resolved_evict_on_append()
        full = self.full  # the partial cache starts empty, and init_partial fills it
        self.partial = PartialCache(self.k_sel, full.positions[:, :0], full.keys[:, :0], full.values[:, :0])
        init_partial([full], selection_scores(out.attn_rows[layer], self.config), self.k_sel, [self.partial])
        self.reference_query = mean_query(out.queries[layer])  # from the layer's most recent full step

    def view(self, step, position, q, k_new, v_new):
        self._sim = None
        if self.schedule.mode == "qc" and step % self.schedule.qc_stride == 0:
            self._sim = cosine_similarity(mean_query(q), self.reference_query)
        self._full_step = should_full(step, self._sim, self.schedule)
        if not self._full_step:
            return super().view(step, position, q, k_new, v_new)
        self.reference_query = mean_query(q)
        if self.output_full:
            if self.refresh:
                self.due.append(self)
            return self.full
        refresh_layers([self], step, [attention_rows(q, self.full.keys, self.model.group_size)])
        return self.partial

    def update(self, step, rows):
        overhead = qc_overhead_flops(self.model) if self._sim is not None else 0
        if not self._full_step:
            if self.evict:
                self.partial.evict_overflow()
            return LayerStep(False, overhead, self._sim)

        if not self.refresh:
            return LayerStep(True, overhead, self._sim)
        m = len(self.full)
        if not self.output_full:  # the view scored the whole cache itself
            overhead += score_pass_flops(m, self.model)
        overhead += selection_overhead_flops(m, self.model, self.config.kernel_size)
        return LayerStep(True, overhead, self._sim, self._refreshed)


def refresh_layers(policies: list[TopK], step: int, rows: list[np.ndarray]) -> None:
    """Refill each TopK layer's partial cache in place with its full cache's top-K under its (n_kv_heads,
    group, m) rows, selecting and ranking every layer's kv heads at once, and set its `_refreshed` to the
    retained mass per kv-head: the selection row, normalised by its total, summed over the K positions
    held after the refill, in the order the cache holds them (the held scores the ranking returns). Each
    layer's refresh event also reports the mass for the positions held before.
    """
    first, n = policies[0], len(policies)
    for policy, r in zip(policies, rows):
        if (m := r.shape[-1]) != len(policy.full):
            raise ContractViolation(f"full-step rows over {m} positions, the full cache holds {len(policy.full)}")
    sel = selection_scores([head for r in rows for head in r], first.config)
    norm = sel.sum(axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    pre = [p.partial.positions.copy() for p in policies] if first.recorder is not None else None  # before the refill
    held = init_partial([p.full for p in policies], sel, first.k_sel, [p.partial for p in policies])
    retained = (held / norm).sum(axis=1).reshape(n, -1).tolist()
    layers = zip(policies, rows, sel.reshape(n, -1, sel.shape[1]), norm.reshape(n, -1, 1), retained)
    for i, (policy, own_rows, own, own_norm, mass) in enumerate(layers):
        policy._refreshed = mass
        if first.recorder is not None:
            # full-cache positions run from 0, so a position indexes its selection column
            pre_retained = (np.take_along_axis(own, pre[i], axis=1) / own_norm).sum(axis=1).tolist()
            first.recorder({"kind": "refresh", "step": step, "layer": policy.layer,
                            "rows": [r.copy() for r in own_rows], "selection": own.copy(), "k": first.k_sel,
                            "pre_positions": pre[i], "post_positions": policy.partial.positions.copy(),
                            "pre_retained": pre_retained, "post_retained": mass})


def make_policy(session: DecodeSession, layer: int, out: StepOutput) -> LayerPolicy:
    """The one place a policy kind turns into behaviour: one layer's policy object."""
    kind = session.policy.kind
    if kind == "vanilla":
        return FullAttention(session, layer, out)
    if kind == "streaming":
        return Recency(session, layer, out)
    if kind == "h2o":
        return H2OState(session, layer, out)
    if kind == "snapkv":
        never = ScheduleConfig(mode="never_full")
        return TopK(session, layer, out, never, refresh=False, output_full=True, appends_full=False)
    if kind in REFRESH_FAMILY:
        return TopK(session, layer, out, session.schedule, refresh=kind != "refreshkv_no_refresh",
                    output_full=kind != "refreshkv_no_full")
    raise ConfigurationError(f"unknown policy kind {kind!r}")
