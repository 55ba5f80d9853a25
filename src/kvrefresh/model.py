"""Deterministic toy decoder-only transformer with grouped-query attention.

Pre-norm blocks, rotary position encoding, gated feed-forward, float64
throughout, greedy decoding. The decode path exposes per-layer rotated
queries and per-head attention probability rows so cache policies and the
scheduler can observe them. Weights are fully determined by the config
seed; two initializations with an equal config are bitwise identical.
Each layer projects q, k and v with one fused matrix. RoPE is one complex
multiply, as RoFormer (arXiv 2104.09864) defines it: each head vector's
pairs (2i, 2i+1) are read as complex numbers and multiplied by e^{i a_i}
from the model's complex table, grown to the positions a run reaches.
The RMS norms carry no gain (a gain of all ones would multiply by 1.0,
exactly); a decode row divides by one Python float. Prefill and decode
share one feed-forward helper, `_ffn`, and add both residuals in place.

Keys are cached post-rotation at their original absolute positions, so a
non-contiguous partial cache keeps the geometry its selection scores were
computed under.

`prefill` and `full_forward` share one layer pass, `_forward`, which runs
each layer over chunks of PREFILL_CHUNK prompt rows: a chunk's norm,
`wqkv` projection and rotation, its attention over the keys up to its last
row, `wo` and feed-forward. Each of these is exact per row, and every
chunk starts at a block boundary and holds at least two rows (a one-row
tail joins the chunk before it), because numpy sends a one-row product to
gemv, which sums in another order; so the chunks give every bit of one
whole-prompt pass. Attention is `causal_attention`: queries go in blocks
of ATTN_BLOCK rows, each block's logits cover only the keys up to its own
last position, and only the diagonal tile is masked. Each block's logits
are shifted and exponentiated in place and normalised after the value
product; no L x L array is built. Prefill memory holds the (L, model_dim)
hidden states, every layer's keys and values, one block's
(ATTN_BLOCK * group, L) exponentials and one chunk's scratch, and no
(L, ffn_dim) array: the traced peak is about 2.7 KiB per prompt position
on the canonical model. Decoding reads only the last row of the last
layer, so `prefill` runs that layer's attention, `wo` and feed-forward
only for its final 2 to ATTN_BLOCK + 1 rows, from a block boundary
`first`, and below `first` projects and rotates only keys and values.

`decode_core` runs each layer as one batched computation over all kv
heads: the view is the layer's full or partial cache itself, and
`attention_rows` (one matmul, one in-place `softmax_rows` call) gives
every kv head's query group its exponentials over its own (m, head_dim)
keys in the cache's head-major window, and their row sums. As in the
prefill, the sums divide the context after the value product, and a
layer's probability rows are divided only when read (`AttentionRows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation, require
from .kv_store import FullCache, PartialCache
from .numerics import softmax_rows

RMS_EPS = 1e-6
ROPE_BASE = 10000.0
ATTN_BLOCK = 32  # query rows per causal_attention block
PREFILL_CHUNK = 256  # prompt rows per _forward chunk, a multiple of ATTN_BLOCK
_DIAGONAL_MASK = np.triu(np.full((ATTN_BLOCK, ATTN_BLOCK), -np.inf), k=1)[:, None, :]


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 2
    n_query_heads: int = 4
    n_kv_heads: int = 2
    head_dim: int = 16
    ffn_mult: float = 4.0
    vocab_size: int = 256
    seed: int = 0

    @property
    def model_dim(self) -> int:
        return self.n_query_heads * self.head_dim

    @property
    def group_size(self) -> int:
        return self.n_query_heads // self.n_kv_heads

    @property
    def ffn_dim(self) -> int:
        return int(self.ffn_mult * self.model_dim)

    def validate(self) -> None:
        require(int, n_layers=self.n_layers, n_query_heads=self.n_query_heads, n_kv_heads=self.n_kv_heads,
                head_dim=self.head_dim, vocab_size=self.vocab_size, seed=self.seed)
        require(float, ffn_mult=self.ffn_mult)
        if min(self.n_layers, self.n_query_heads, self.n_kv_heads, self.head_dim) < 1:
            raise ConfigurationError("layer/head/dim counts must be positive")
        if self.head_dim % 2:
            raise ConfigurationError(f"head_dim={self.head_dim} must be even: RoPE rotates pairs of dimensions")
        if self.n_query_heads % self.n_kv_heads != 0:
            raise ConfigurationError(
                f"n_query_heads={self.n_query_heads} not divisible by n_kv_heads={self.n_kv_heads}"
            )
        if not 0 < self.ffn_mult * self.model_dim < float("inf"):  # ffn_dim is int() of the product
            raise ConfigurationError(f"ffn_mult must be positive with ffn_mult * model_dim finite, got {self.ffn_mult}")
        for name, low in (("vocab_size", 2), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.ffn_dim < 1:
            raise ConfigurationError(f"ffn_mult={self.ffn_mult} gives ffn_dim {self.ffn_dim}: no feed-forward unit")


def canonical_config(seed: int = 0) -> ModelConfig:
    """The fixed desk-scale test configuration: ModelConfig's defaults."""
    return ModelConfig(seed=seed)


@dataclass
class LayerWeights:
    wqkv: np.ndarray  # (model_dim, (n_query_heads + 2 * n_kv_heads) * head_dim): q, k, v columns in order
    wo: np.ndarray  # (n_query_heads * head_dim, model_dim)
    w_gate: np.ndarray  # (model_dim, ffn_dim)
    w_up: np.ndarray  # (model_dim, ffn_dim)
    w_down: np.ndarray  # (ffn_dim, model_dim)


@dataclass
class ModelWeights:
    config: ModelConfig
    embed: np.ndarray  # (vocab_size, model_dim)
    layers: list[LayerWeights]
    w_out: np.ndarray  # (model_dim, vocab_size)
    # e^{i a}: complex (n, 1, head_dim // 2) for positions below n, one entry per rotary pair; see rope_upto
    rope: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.rope = _rope_table(np.arange(0), self.config.head_dim)

    def rope_upto(self, end: int) -> np.ndarray:
        """The rotary table, grown to cover positions below `end` by rebinding a whole new table of the next power
        of two >= end rows: callers use the table returned, so sessions sharing these weights see no half-built one."""
        rope = self.rope
        if end > len(rope):
            rope = self.rope = _rope_table(np.arange(1 << (end - 1).bit_length()), self.config.head_dim)
        return rope


def init_model(config: ModelConfig) -> ModelWeights:
    """Seeded Gaussian init scaled by 1/sqrt(model_dim)."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    scale = 1.0 / np.sqrt(config.model_dim)
    d = config.model_dim
    n_q, n_kv = config.n_query_heads, config.n_kv_heads

    def gauss(*shape: int) -> np.ndarray:
        return rng.standard_normal(shape) * scale

    layers = []
    for _ in range(config.n_layers):
        layers.append(
            LayerWeights(
                # drawn as separate q, k, v blocks, in that order, so the values match unfused weights
                wqkv=np.concatenate([gauss(d, n * config.head_dim) for n in (n_q, n_kv, n_kv)], axis=1),
                wo=gauss(n_q * config.head_dim, d),
                w_gate=gauss(d, config.ffn_dim),
                w_up=gauss(d, config.ffn_dim),
                w_down=gauss(config.ffn_dim, d),
            )
        )
    return ModelWeights(
        config=config,
        embed=gauss(config.vocab_size, d),
        layers=layers,
        w_out=gauss(d, config.vocab_size),
    )


def _rms_norm(x: np.ndarray) -> np.ndarray:
    """x over the root mean square of its last axis (no gain). np.mean's own sum-then-divide, without
    its dispatch; a 1-D row divides by one Python float (math.sqrt and np.sqrt both round correctly)."""
    if x.ndim == 1:
        return x / math.sqrt(np.add.reduce(np.square(x)) / x.size + RMS_EPS)
    ms = np.add.reduce(np.square(x), axis=-1, keepdims=True) / x.shape[-1]
    return x / np.sqrt(ms + RMS_EPS)


def _silu(x: np.ndarray) -> np.ndarray:
    """x / (1 + exp(-x)), the same floats, in one temporary."""
    t = np.negative(x)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(x, t, out=t)


def _ffn(x: np.ndarray, lw: LayerWeights) -> np.ndarray:
    """The gated feed-forward of the (..., model_dim) states x, pre-norm included; residual not added."""
    xf = _rms_norm(x)
    h = _silu(xf.dot(lw.w_gate))
    h *= xf.dot(lw.w_up)
    return h.dot(lw.w_down)


def _rope_table(positions: np.ndarray, head_dim: int) -> np.ndarray:
    """Complex rotary table rows (..., 1, head_dim // 2) per position, cos(a_i) + i sin(a_i) with
    a_i = pos / base^(2i/head_dim); the unit axis broadcasts over heads."""
    inv_freq = ROPE_BASE ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    ang = np.asarray(positions, dtype=np.float64)[..., None, None] * inv_freq
    table = np.empty(ang.shape, dtype=np.complex128)
    table.real, table.imag = np.cos(ang), np.sin(ang)
    return table


def apply_rope(x: np.ndarray, positions: int | slice | np.ndarray, rope: np.ndarray) -> np.ndarray:
    """Rotate head vectors by their absolute positions.

    x: (..., n_heads, head_dim) with a contiguous last axis; positions: an
    index, slice or index array into the model's complex table `rope`,
    broadcastable over the leading axes. Pair (2i, 2i+1) is read as
    x1 + i x2 and multiplied by e^{i a_i}, giving (x1 cos - x2 sin,
    x1 sin + x2 cos) at angle a_i = pos / base^(2i/head_dim). Each row's
    result depends on that row alone, so a chunk gives every row's bits.
    """
    return (x.view(np.complex128) * rope[positions]).view(np.float64)


# provide_view(layer_idx, q_heads, k_new, v_new) -> the layer's cache to attend (see `decode_core`)
ViewProvider = Callable[[int, np.ndarray, np.ndarray, np.ndarray], FullCache | PartialCache]


class AttentionRows:
    """A decode step's per-layer rows (see StepOutput), held as `attention_rows`' exponentials and row sums; a
    layer's are divided in place on its first read, by the divide softmax_rows ran before (the same bits)."""

    def __init__(self, parts: list[tuple[np.ndarray, np.ndarray | None]]):
        self._parts = parts

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, layer: int) -> np.ndarray:
        exps, sums = self._parts[layer]
        if sums is not None:
            exps /= sums
            self._parts[layer] = exps, None
        return exps


@dataclass
class StepOutput:
    logits: np.ndarray  # (vocab_size,)
    queries: list[np.ndarray]  # per layer: (n_query_heads, head_dim), rotated, at the last position
    attn_rows: list[np.ndarray] | AttentionRows = field(default_factory=list)
    # per layer: (n_kv_heads, group_size, m) probability rows over the attended
    # view (row order matches the view); iterating yields each kv head's
    # (group_size, m) rows. A decode step's are normalised on read (AttentionRows):
    # only h2o (every step) and a refreshing top-K layer (at its refresh) read them.


def _check_token(config: ModelConfig, token: int) -> None:
    if not 0 <= int(token) < config.vocab_size:
        raise ContractViolation(f"token id {token} outside vocab of size {config.vocab_size}")


def _check_sequence(config: ModelConfig, tokens: Sequence[int]) -> np.ndarray:
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.ndim != 1 or toks.size == 0:
        raise ContractViolation("token sequence must be non-empty and 1-D")
    if toks.min() < 0 or toks.max() >= config.vocab_size:
        raise ContractViolation("token id outside vocabulary")
    return toks


def attention_rows(q: np.ndarray, keys: np.ndarray, group: int) -> tuple[np.ndarray, np.ndarray]:
    """One token's (n_kv_heads, group, m) attention rows as `softmax_rows`' (exps, sums): query head j of q
    (n_kv_heads * group, head_dim), times 1/sqrt(head_dim) before the product (as in `causal_attention`), against
    kv head j // group's keys."""
    n_kv, _, d = keys.shape
    qs = q * (1.0 / math.sqrt(d))  # the same float as 1.0 / np.sqrt(d), without a numpy scalar
    logits = qs.reshape(n_kv, group, d) @ keys.transpose(0, 2, 1)  # one GEMM per kv head (layout: see kv_store)
    return softmax_rows(logits, logits)  # in place; `out` positional, as TestTraceSpans' wrapper forwards only *args


def causal_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, group: int
) -> tuple[np.ndarray, np.ndarray]:
    """Causal self-attention of the last n positions over their prefixes, ATTN_BLOCK queries at a time.

    q: (n, n_kv_heads * group, head_dim), the queries of positions L - n ..
    L - 1, with L - n a multiple of ATTN_BLOCK so that each block is the one
    an all-rows call runs; k, v: head-major (n_kv_heads, L, head_dim) in the
    cache's layout (see `kv_store`); query head j reads kv head j // group.
    A block of queries ending at block_end attends keys [0, block_end) with
    one matmul per kv head (all `group` query heads at once); only the
    diagonal tile needs the causal mask. Each row sees its whole prefix, so its softmax is exact
    with no running rescale: `softmax_rows` shifts the logits by their row max
    and exponentiates them in place, and the row sums divide the (rows, head_dim)
    context after the value product instead of the (rows, L) block. Every
    block's logits go into one reused (ATTN_BLOCK * group, L) buffer. Returns the
    context (n, n_query_heads, head_dim) and the last position's
    (n_kv_heads, group, L) probability rows.
    """
    (n, n_q, d), (n_kv, L) = q.shape, k.shape[:2]
    if (first := L - n) % ATTN_BLOCK or not 0 <= first < L:
        raise ContractViolation(f"{n} queries of {L} positions do not start a block of {ATTN_BLOCK}")
    # kv-head-major, so a block's rows for one kv head are contiguous (rows * group, d)
    qs = (q * (1.0 / np.sqrt(d))).reshape(n, n_kv, group, d).transpose(1, 0, 2, 3).copy()
    ctx = np.empty((n_kv, n, group, d))
    last_rows = np.empty((n_kv, group, L))
    buf = np.empty(min(n, ATTN_BLOCK) * group * L)  # every block's logits, one (rows * group, end) prefix at a time
    for start in range(first, L, ATTN_BLOCK):
        end = min(start + ATTN_BLOCK, L)
        rows = end - start
        for h in range(n_kv):
            logits = np.matmul(qs[h, start - first : end - first].reshape(-1, d), k[h, :end].T,
                               out=buf[: rows * group * end].reshape(-1, end)).reshape(rows, group, end)
            logits[:, :, start:] += _DIAGONAL_MASK[:rows, :, :rows]
            logits, total = softmax_rows(logits, logits)  # unnormalised probabilities in place, and their row sums
            ctx[h, start - first : end - first] = (logits.reshape(-1, end) @ v[h, :end]).reshape(rows, group, d) / total
            if end == L:
                last_rows[h] = logits[-1] / total[-1]
    return ctx.transpose(1, 0, 2, 3).reshape(n, n_q, d), last_rows


def _row_chunks(L: int, first: int) -> list[tuple[int, int]]:
    """_forward's [start, end) row chunks: PREFILL_CHUNK rows each, split at `first`; a one-row tail joins
    the chunk before it (a one-row product goes to gemv, which sums in another order)."""
    starts = sorted({*range(0, L, PREFILL_CHUNK), first})
    if len(starts) > 1 and L - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [L]))


def _forward(weights: ModelWeights, tokens: Sequence[int], last_rows_only: bool) -> tuple[np.ndarray, list[tuple]]:
    """The layer pass `full_forward` and `prefill` share, PREFILL_CHUNK rows at a time.

    Each chunk of a layer runs the norm, the `wqkv` projection and RoPE on its
    rows, writes its keys and values into the layer's `FullCache` (built
    for all L positions) through its `keys` and `values` windows,
    attends its queries over the keys up to its last row, and adds `wo` and
    `_ffn` to its rows in place. Every stage is exact per row, and every
    chunk starts at a block boundary and has at least two rows (see
    `_row_chunks`), so the bits are those of one whole-prompt pass. With
    `last_rows_only` the last layer runs attention, `wo` and `_ffn` only for
    rows `first` = max(L - 2, 0) // ATTN_BLOCK * ATTN_BLOCK on, and its
    chunks below `first` project and rotate only keys and values.
    Returns the final hidden states of the rows kept and per layer its cache,
    the last position's rotated queries and causal_attention's last-position
    rows.
    """
    cfg = weights.config
    toks = _check_sequence(cfg, tokens)
    L = toks.size
    n_q, n_kv, d = cfg.n_query_heads, cfg.n_kv_heads, cfg.head_dim
    x = weights.embed[toks]  # (L, D)
    rope = weights.rope_upto(L)
    first = 0
    layers = []
    for i, lw in enumerate(weights.layers):
        if last_rows_only and i == cfg.n_layers - 1:
            first = max(L - 2, 0) // ATTN_BLOCK * ATTN_BLOCK
        cache = FullCache(n_kv, L, d)
        k, v = cache.keys, cache.values
        for s, e in _row_chunks(L, first):
            xs, queried = x[s:e], e > first  # nothing reads the queries of rows below `first`
            qkv = (_rms_norm(xs) @ lw.wqkv[:, 0 if queried else n_q * d :]).reshape(e - s, -1, d)
            qk = apply_rope(qkv[:, :-n_kv], slice(s, e), rope)
            k[:, s:e] = qk[:, -n_kv:].transpose(1, 0, 2)
            v[:, s:e] = qkv[:, -n_kv:].transpose(1, 0, 2)
            if queried:
                ctx, last_rows = causal_attention(qk[:, :n_q], k[:, :e], v[:, :e], cfg.group_size)
                xs += ctx.reshape(e - s, -1) @ lw.wo
                xs += _ffn(xs, lw)
        layers.append((cache, qk[-1, :n_q].copy(), last_rows))  # a copy: a view would keep the chunk alive
    return x[first:], layers


def full_forward(weights: ModelWeights, tokens: Sequence[int]) -> np.ndarray:
    """Teacher-forced causal forward over a whole sequence; logits per position."""
    x, _ = _forward(weights, tokens, last_rows_only=False)
    return _rms_norm(x) @ weights.w_out


def prefill(weights: ModelWeights, tokens: Sequence[int]) -> tuple[list[FullCache], StepOutput]:
    """Ingest the prompt with full attention and populate per-layer caches.

    Returns the caches and the last position's StepOutput; the observation
    window is the single last token, so attn_rows carry exactly one row per
    query head: (n_kv_heads, group_size, L) per layer. The last layer computes
    only its final 2 to ATTN_BLOCK + 1 rows (1 at L = 1), with every bit of
    the all-rows pass (see `_forward`).
    """
    x, layers = _forward(weights, tokens, last_rows_only=True)
    caches, queries, rows = (list(column) for column in zip(*layers))
    return caches, StepOutput(_rms_norm(x[-1]) @ weights.w_out, queries, rows)


def decode_core(
    weights: ModelWeights,
    token: int,
    position: int,
    provide_view: ViewProvider,
) -> StepOutput:
    """One decode step; each layer's attended view is supplied by a callback.

    The callback, provide_view(layer, q, k_new, v_new), gets the layer's
    rotated (n_query_heads, head_dim) queries and the current token's fresh
    key/value mid-forward, so per-layer scheduling can depend on them. It
    stores the fresh entry wherever the view should see it and returns the
    layer's cache to attend, a FullCache or a PartialCache: the view is
    that cache's window (`keys`, `values`), read without a copy, with
    entries in the order the cache holds them. The layer attends it exactly
    as returned: one batched matmul over the kv heads, with each head's
    query group against its own keys, and one softmax over every head's rows.
    """
    cfg = weights.config
    _check_token(cfg, token)
    if position < 0:  # a negative row index would wrap to the table's end
        raise ContractViolation(f"position {position} is negative")
    rope = weights.rope_upto(position + 1)

    n_q, n_kv, d = cfg.n_query_heads, cfg.n_kv_heads, cfg.head_dim
    x = weights.embed[int(token)].copy()

    queries: list[np.ndarray] = []
    parts: list[tuple[np.ndarray, np.ndarray]] = []  # per layer: attention_rows' (exps, sums)

    for layer_idx, lw in enumerate(weights.layers):
        # ndarray.dot on a vector is the same BLAS gemv as @, without matmul's dispatch
        qkv = _rms_norm(x).dot(lw.wqkv).reshape(n_q + 2 * n_kv, d)
        qk = apply_rope(qkv[: n_q + n_kv], position, rope)
        q, k_new, v_new = qk[:n_q], qk[n_q:], qkv[n_q + n_kv :]

        view = provide_view(layer_idx, q, k_new, v_new)

        if len(view) == 0:
            raise ContractViolation(f"layer {layer_idx}: empty attention view")
        exps, sums = attention_rows(q, view.keys, cfg.group_size)
        x += ((exps @ view.values) / sums).reshape(-1).dot(lw.wo)  # the context normalised, not the rows
        x += _ffn(x, lw)

        queries.append(q)
        parts.append((exps, sums))

    logits = _rms_norm(x).dot(weights.w_out)
    return StepOutput(logits, queries, AttentionRows(parts))
