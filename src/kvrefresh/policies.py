"""Cache policies: configuration, the selection operations, and the one
policy object a DecodeSession drives for all its layers.

make_policy's table maps each of the seven kinds onto one of four classes:

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
                                       top-K, then take a partial step

After the prefill the session builds one policy object, which owns the
layer axis: `full` is the session's list of full caches and `partial` the
list of partial-cache arenas, one per layer (empty for vanilla). At each
step, layer by layer, the session hands `view(layer, step, position, ...)`
the fresh key/value; the view writes it into the layer's caches and
returns the cache the layer attends: `self.full[layer]` or
`self.partial[layer]` itself, whose window attention reads. After the
forward pass one `update(step, rows)` gets every layer's rows, maintains
the policy's state and returns one LayerStep per layer: whether its step
was full (a top-K view asks scheduler.decide), and its overhead. A full
step writes the entry into the full cache and attends that. The partial
step every budgeted policy shares (CachePolicy.view) writes it into the
full cache (unless appends_full is False: snapkv keeps only its prompt
there), appends it to the layer's partial cache and returns that cache
(see kv_store for each kind's order), so every view holds the current token.
Streaming and h2o build their arenas at the prefill by gathering each
layer's starting set from its full cache, in ascending position order,
then drop one slot per step: streaming the oldest entry after the sinks,
h2o the lightest heavy-hitter candidate. Top-K kinds keep theirs in
eviction order, so their evictions drop slot 0. The rows `update` gets,
and those refreshkv_no_full scores over the full cache before the step's
write, come from model.attention_rows as one (n_kv_heads, group_size, m)
array per layer; only h2o (every step) and a refreshing layer read them.

Selection scores are per kv-head: the elementwise max of its query
group's probability rows over the cache, max-pooled over neighboring
positions, and top-K runs independently per kv-head. One routine,
refresh_layers, runs every refresh: in TopK.update for a refreshkv full
step's layers, and in a refreshkv_no_full layer's view. It works on whole
(layers * n_kv_heads, ...) arrays: one aggregation, pooling, top-K and
rank sort, whose held scores give the retained mass it returns by layer,
then an in-place refill of each layer's partial-cache arena from its full
cache. The prefill's selection is the same ranking and refill, all layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

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
from .numerics import max_pool_1d, top_k_indices
from .scheduler import ScheduleConfig, decide, mean_query

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
TOP_K_KINDS = ("snapkv", *REFRESH_FAMILY)

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
        vanilla attention. A streaming budget must hold its n_sink sinks.
        """
        budget = self.k if self.k is not None else max(1, int(self.k_fraction * input_length))
        if self.kind == "streaming" and budget < self.n_sink:
            raise ConfigurationError(f"streaming budget {budget} smaller than n_sink {self.n_sink}")
        return budget

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
    return np.maximum.reduce(rows, axis=-2)  # ndarray.max's wrapper costs more than the reduce at decode sizes


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


class LayerStep(NamedTuple):
    """One layer's share of a step record, as its policy reports it; immutable, so plain steps share one."""

    full: bool = False  # a full step as the policy decided it; refreshkv_no_full's attends its partial cache
    overhead_flops: int = 0
    similarity: float | None = None  # qc check, when one ran
    retained: Sequence[float] = ()  # post-refresh coverage per kv-head


PARTIAL_STEP, FULL_STEP = LayerStep(), LayerStep(full=True)  # every plain step's, shared


class CachePolicy:
    """A session's cache policy over every layer, built from the session right after the prefill.

    view(layer, step, position, q, k_new, v_new) runs mid-forward with the layer's rotated (n_query_heads,
    head_dim) queries, writes the fresh key/value into the layer's caches and returns the cache to attend,
    `self.full[layer]` or `self.partial[layer]` (the base view is the budgeted policies' partial step);
    update(step, rows) gets every layer's (n_kv, group, m) rows over its view and returns one LayerStep per layer.
    """

    appends_full = True  # the partial step writes each fresh key/value into the full cache too

    def __init__(self, session: DecodeSession, out: StepOutput):
        self.config, self.model, self.recorder = session.policy, session.cfg, session.recorder
        self.full, self.partial = session.full, []
        self.input_length, self.budget, self.k_sel = session.input_length, session.budget, session.k_sel

    def view(self, layer, step, position, q, k_new, v_new) -> FullCache | PartialCache:
        """The partial step: write the current entry into the layer's full cache (unless appends_full is
        False) and its partial-cache arena, and attend the latter."""
        if self.appends_full:
            self.full[layer].append(position, k_new, v_new)
        cp = self.partial[layer]
        cp.append(position, k_new, v_new)
        return cp


class FullAttention(CachePolicy):
    def view(self, layer, step, position, q, k_new, v_new):
        (full := self.full[layer]).append(position, k_new, v_new)
        return full

    def update(self, step, rows):
        return [FULL_STEP] * len(rows)


class Recency(CachePolicy):
    """The first n_sink positions plus the newest, budget in all (everything while it fits):
    each step appends to the ascending arena and, once over budget, drops slot n_sink, which
    moves the sinks one slot on."""

    def __init__(self, session, out):
        super().__init__(session, out)
        n_sink, L = self.config.n_sink, self.input_length
        keep = np.arange(L)
        if L > self.budget:
            keep = np.concatenate([keep[:n_sink], keep[L - (self.budget - n_sink) :]])
        self.partial = [PartialCache(full, keep) for full in self.full]

    def update(self, step, rows):
        for cp in self.partial:
            if len(cp) > self.budget:
                cp.drop(self.config.n_sink)
        return [PARTIAL_STEP] * len(rows)


class H2OState(CachePolicy):
    """The heavy-hitter (h2o) policy.

    Tracks the cumulative attention each held position received as each
    layer's partial-cache `scores`: one (1, n) row, moving with the window,
    that every head shares. The arenas stay in ascending position order, so
    the recency half is their last entries and a drop moves the entries
    before it one slot on. The budget splits into a recency half (the newest
    positions, kept unconditionally) and a heavy half (highest cumulative
    score among the rest, ties toward the lower position). Evicted
    positions are gone for good. Requires a score observation every step.
    """

    def __init__(self, session, out):
        """Keep each layer's prompt heavy hitters under its last-token aggregated attention row."""
        super().__init__(session, out)
        L = self.input_length
        rows = aggregate_group_scores(np.stack(out.attn_rows).reshape(len(self.full), -1, L))
        self.heavy_n = self.budget // 2
        self.recent_n = self.budget - self.heavy_n
        keep = np.broadcast_to(np.arange(L), rows.shape)
        if L > self.budget:
            recent_start = L - self.recent_n
            keep = keep[:, recent_start:]
            if self.heavy_n:  # top heavy_n by (sum desc, position asc), in ascending order, every layer at once
                keep = np.concatenate([top_k_indices(rows[:, :recent_start], self.heavy_n), keep], axis=1)
        self.partial = [PartialCache(full, kept, row[None, kept]) for full, kept, row in zip(self.full, keep, rows)]

    def keepset(self, layer: int) -> np.ndarray:
        """The positions the layer holds, ascending: a view of its arena, valid until its next write."""
        return self.partial[layer].positions[0]

    def step(self, layer: int, attention_row: np.ndarray) -> None:
        """Accumulate one step's row over the layer's arena, whose last entry is the just-decoded
        position, then, once over budget, drop the lowest sum outside the recency half."""
        row, cp = np.asarray(attention_row, dtype=np.float64), self.partial[layer]
        scores = cp.scores
        if row.shape != scores.shape[1:]:
            raise ContractViolation(f"attention row of {row.size} entries over an arena of {scores.shape[1]}")
        scores[:, :-1] += row[:-1]
        scores[:, -1] = row[-1]
        if (n := scores.shape[1]) > self.budget:
            heavy = scores[0, : n - self.recent_n]
            # argmin over the reversed candidates: ties leave from the higher position
            cp.drop(heavy.size - 1 - int(heavy[::-1].argmin()))

    def update(self, step, rows):
        steps = []
        for layer, layer_rows in enumerate(rows):
            row = aggregate_group_scores(layer_rows.reshape(-1, layer_rows.shape[-1]))
            view_positions = self.keepset(layer).copy() if self.recorder is not None else None
            self.step(layer, row)
            if self.recorder is not None:
                self.recorder({"kind": "h2o", "step": step, "layer": layer, "raw_rows": [r.copy() for r in layer_rows],
                               "row": row, "view_positions": view_positions, "keepset": self.keepset(layer).copy()})
            steps.append(LayerStep(overhead_flops=h2o_overhead_flops(row.size, self.model)))
        return steps


class TopK(CachePolicy):
    """Top-K partial caches selected from the prompt's last-token scores: snapkv and the refresh family.

    Each partial cache is in eviction order (see kv_store). Partial steps
    write the fresh entry at its end and attend it; when evict_on_append
    resolves true, `update` evicts every cache back to k_sel from its start
    (the lowest score, or the oldest entry appended since the last refresh;
    a layer that attended its full cache is at k_sel already). The view
    takes each layer's step from `scheduler.decide`, with the reference
    query it keeps per layer, and keeps its LayerStep in `steps`. At full
    steps (snapkv has none), refreshkv and refreshkv_no_refresh attend the
    layer's whole cache, and refreshkv's `update` rebuilds all such layers'
    partial caches at once from the observed rows; refreshkv_no_full's view
    scores the full cache before the step's write, rebuilds the partial
    cache from it, then takes the partial step.
    """

    def __init__(self, session, out):
        super().__init__(session, out)
        self.kind, self.evict = self.config.kind, self.config.resolved_evict_on_append()
        self.schedule = ScheduleConfig(mode="never_full") if self.kind == "snapkv" else session.schedule
        self.appends_full = self.kind != "snapkv"
        self.steps = [PARTIAL_STEP] * len(self.full)
        # the partial caches start empty, and one init_partial call fills them all
        self.partial = [PartialCache(full, np.arange(0)) for full in self.full]
        rows = [head for layer_rows in out.attn_rows for head in layer_rows]
        init_partial(self.full, selection_scores(rows, self.config), self.k_sel, self.partial)
        self.reference_query = [mean_query(q) for q in out.queries]

    def view(self, layer, step, position, q, k_new, v_new):
        full_step, sim, self.reference_query[layer] = decide(self.schedule, step, q, self.reference_query[layer])
        overhead = qc_overhead_flops(self.model) if sim is not None else 0
        if not full_step:
            self.steps[layer] = PARTIAL_STEP if sim is None else LayerStep(False, overhead, sim)
            return super().view(layer, step, position, q, k_new, v_new)
        full, kernel = self.full[layer], self.config.kernel_size
        if self.kind == "refreshkv_no_full":  # score the full cache before this step's write
            m, rows = len(full), np.divide(*attention_rows(q, full.keys, self.model.group_size))
            overhead += score_pass_flops(m, self.model) + selection_overhead_flops(m, self.model, kernel)
            self.steps[layer] = LayerStep(True, overhead, sim, refresh_layers(self, [layer], step, [rows])[0])
            return super().view(layer, step, position, q, k_new, v_new)
        full.append(position, k_new, v_new)
        if self.kind == "refreshkv":  # update rebuilds the partial cache from the rows over all len(full) positions
            overhead += selection_overhead_flops(len(full), self.model, kernel)
        self.steps[layer] = LayerStep(True, overhead, sim)
        return full

    def update(self, step, rows):
        steps = self.steps
        if self.kind == "refreshkv" and (due := [layer for layer, s in enumerate(steps) if s.full]):
            for layer, mass in zip(due, refresh_layers(self, due, step, [rows[layer] for layer in due])):
                steps[layer] = steps[layer]._replace(retained=mass)
        if self.evict:  # a layer that attended its full cache appended nothing: its cache holds k_sel already
            for cp in self.partial:
                cp.evict_overflow(self.k_sel)
        return steps.copy()


def refresh_layers(policy: TopK, layers: list[int], step: int, rows: list[np.ndarray]) -> list[list[float]]:
    """Refill each listed layer's partial cache in place with its full cache's top-K under its (n_kv_heads,
    group, m) rows, selecting and ranking every such layer's kv heads at once, and return each layer's
    retained mass per kv-head: the selection row, normalised by its total, summed over the K positions held
    after the refill, in the order the cache holds them (the held scores the ranking returns). With a
    recorder set, each layer's refresh event also reports the mass for the positions held before.
    """
    fulls, caches, n = [policy.full[i] for i in layers], [policy.partial[i] for i in layers], len(layers)
    for full, r in zip(fulls, rows):
        if (m := r.shape[-1]) != len(full):
            raise ContractViolation(f"full-step rows over {m} positions, the full cache holds {len(full)}")
    sel = selection_scores([head for r in rows for head in r], policy.config)
    norm = sel.sum(axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    pre = [cp.positions.copy() for cp in caches] if policy.recorder is not None else None  # before the refill
    held = init_partial(fulls, sel, policy.k_sel, caches)
    retained = (held / norm).sum(axis=1).reshape(n, -1).tolist()
    if policy.recorder is not None:
        per_layer = zip(layers, caches, rows, sel.reshape(n, -1, sel.shape[1]), norm.reshape(n, -1, 1), retained)
        for i, (layer, cp, own_rows, own, own_norm, mass) in enumerate(per_layer):
            # full-cache positions run from 0, so a position indexes its selection column
            pre_retained = (np.take_along_axis(own, pre[i], axis=1) / own_norm).sum(axis=1).tolist()
            policy.recorder({"kind": "refresh", "step": step, "layer": layer,
                             "rows": [r.copy() for r in own_rows], "selection": own.copy(), "k": policy.k_sel,
                             "pre_positions": pre[i], "post_positions": cp.positions.copy(),
                             "pre_retained": pre_retained, "post_retained": mass})
    return retained


POLICY_CLASSES = {"vanilla": FullAttention, "streaming": Recency, "h2o": H2OState} | dict.fromkeys(TOP_K_KINDS, TopK)


def make_policy(session: DecodeSession, out: StepOutput) -> CachePolicy:
    """The one place a (validated) policy kind turns into behaviour: the session's policy object, for every layer."""
    return POLICY_CLASSES[session.policy.kind](session, out)
