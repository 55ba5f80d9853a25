"""Deterministic toy decoder-only transformer with grouped-query attention.

Pre-norm blocks, rotary position encoding, gated feed-forward, float64
throughout, greedy decoding. The decode path exposes per-layer query
vectors and per-head attention probability rows so cache policies and the
scheduler can observe them. Weights are fully determined by the config
seed; two initializations with an equal config are bitwise identical.

Keys are cached post-rotation at their original absolute positions, so a
non-contiguous partial cache keeps the geometry its selection scores were
computed under.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation, require
from .kv_store import FullCache
from .numerics import softmax_rows

RMS_EPS = 1e-6
ROPE_BASE = 10000.0


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 2
    n_query_heads: int = 4
    n_kv_heads: int = 2
    head_dim: int = 16
    ffn_mult: float = 4.0
    vocab_size: int = 256
    max_position: int = 8192
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
                head_dim=self.head_dim, vocab_size=self.vocab_size, max_position=self.max_position, seed=self.seed)
        require(float, ffn_mult=self.ffn_mult)
        if min(self.n_layers, self.n_query_heads, self.n_kv_heads, self.head_dim) < 1:
            raise ConfigurationError("layer/head/dim counts must be positive")
        if self.n_query_heads % self.n_kv_heads != 0:
            raise ConfigurationError(
                f"n_query_heads={self.n_query_heads} not divisible by n_kv_heads={self.n_kv_heads}"
            )
        if not 0 < self.ffn_mult < float("inf") or self.vocab_size < 2 or self.max_position < 1:
            raise ConfigurationError("ffn_mult, vocab_size, max_position out of range")


def canonical_config(seed: int = 0, max_position: int = 8192) -> ModelConfig:
    """The fixed desk-scale test configuration."""
    return ModelConfig(
        n_layers=2,
        n_query_heads=4,
        n_kv_heads=2,
        head_dim=16,
        ffn_mult=4.0,
        vocab_size=256,
        max_position=max_position,
        seed=seed,
    )


@dataclass
class LayerWeights:
    wq: np.ndarray  # (model_dim, n_query_heads * head_dim)
    wk: np.ndarray  # (model_dim, n_kv_heads * head_dim)
    wv: np.ndarray  # (model_dim, n_kv_heads * head_dim)
    wo: np.ndarray  # (n_query_heads * head_dim, model_dim)
    attn_norm: np.ndarray  # (model_dim,)
    ffn_norm: np.ndarray  # (model_dim,)
    w_gate: np.ndarray  # (model_dim, ffn_dim)
    w_up: np.ndarray  # (model_dim, ffn_dim)
    w_down: np.ndarray  # (ffn_dim, model_dim)


@dataclass
class ModelWeights:
    config: ModelConfig
    embed: np.ndarray  # (vocab_size, model_dim)
    layers: list[LayerWeights]
    final_norm: np.ndarray  # (model_dim,)
    w_out: np.ndarray  # (model_dim, vocab_size)

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        out = [("embed", self.embed)]
        for i, lw in enumerate(self.layers):
            for name in ("wq", "wk", "wv", "wo", "attn_norm", "ffn_norm", "w_gate", "w_up", "w_down"):
                out.append((f"layers.{i}.{name}", getattr(lw, name)))
        out.append(("final_norm", self.final_norm))
        out.append(("w_out", self.w_out))
        return out


def init_model(config: ModelConfig) -> ModelWeights:
    """Seeded Gaussian init scaled by 1/sqrt(model_dim); norm gains start at 1."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    scale = 1.0 / np.sqrt(config.model_dim)
    d = config.model_dim

    def gauss(*shape: int) -> np.ndarray:
        return rng.standard_normal(shape) * scale

    layers = []
    for _ in range(config.n_layers):
        layers.append(
            LayerWeights(
                wq=gauss(d, config.n_query_heads * config.head_dim),
                wk=gauss(d, config.n_kv_heads * config.head_dim),
                wv=gauss(d, config.n_kv_heads * config.head_dim),
                wo=gauss(config.n_query_heads * config.head_dim, d),
                attn_norm=np.ones(d),
                ffn_norm=np.ones(d),
                w_gate=gauss(d, config.ffn_dim),
                w_up=gauss(d, config.ffn_dim),
                w_down=gauss(config.ffn_dim, d),
            )
        )
    return ModelWeights(
        config=config,
        embed=gauss(config.vocab_size, d),
        layers=layers,
        final_norm=np.ones(d),
        w_out=gauss(d, config.vocab_size),
    )


def _rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    return x / np.sqrt(ms + RMS_EPS) * gain


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def _rope_angles(positions: np.ndarray, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    inv_freq = ROPE_BASE ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    ang = np.asarray(positions, dtype=np.float64)[..., None] * inv_freq
    return np.cos(ang), np.sin(ang)


def apply_rope(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Rotate head vectors by their absolute positions.

    x: (..., n_heads, head_dim); positions broadcastable over the leading axes.
    Pairs (2i, 2i+1) are rotated by angle pos / base^(2i/head_dim).
    """
    head_dim = x.shape[-1]
    cos, sin = _rope_angles(positions, head_dim)
    cos = cos[..., None, :]
    sin = sin[..., None, :]
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
    return out


@dataclass
class LayerView:
    """What one layer's attention runs over at a decode step.

    keys/values/positions are per kv-head lists of the PAST entries; the
    current token's fresh key/value pair is appended by the model before
    attention unless include_self is False (in which case the view is
    attended exactly as given).
    """

    keys: list[np.ndarray]  # per kv head: (m_h, head_dim), rotated
    values: list[np.ndarray]  # per kv head: (m_h, head_dim)
    positions: list[np.ndarray]  # per kv head: (m_h,) original absolute positions
    include_self: bool = True
    observe: bool = False
    mode: str = "full"  # trace tag: "full" | "partial"


# provide_view(layer_idx, q_heads, avg_query, k_new, v_new) -> LayerView
ViewProvider = Callable[[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], LayerView]


@dataclass
class StepOutput:
    logits: np.ndarray  # (vocab_size,)
    queries: list[np.ndarray]  # per layer: (n_query_heads, head_dim), post-rotation
    avg_queries: list[np.ndarray]  # per layer: (head_dim,), mean over all query heads
    attn_rows: list[list[np.ndarray] | None] = field(default_factory=list)
    # per layer: per kv head (group_size, m) probability rows over the attended
    # view (row order matches the view; last column is the current token when
    # include_self was set). None when not observed.


def _check_token(config: ModelConfig, token: int) -> None:
    if not 0 <= int(token) < config.vocab_size:
        raise ContractViolation(f"token id {token} outside vocab of size {config.vocab_size}")


def full_forward(weights: ModelWeights, tokens: Sequence[int]) -> np.ndarray:
    """Teacher-forced causal forward over a whole sequence; logits per position."""
    cfg = weights.config
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.ndim != 1 or toks.size == 0:
        raise ContractViolation("token sequence must be non-empty and 1-D")
    if toks.size > cfg.max_position:
        raise ContractViolation(f"sequence length {toks.size} exceeds max_position {cfg.max_position}")
    if toks.min() < 0 or toks.max() >= cfg.vocab_size:
        raise ContractViolation("token id outside vocabulary")

    L = toks.size
    positions = np.arange(L)
    scale = 1.0 / np.sqrt(cfg.head_dim)
    x = weights.embed[toks]  # (L, D)

    for lw in weights.layers:
        xa = _rms_norm(x, lw.attn_norm)
        q = apply_rope((xa @ lw.wq).reshape(L, cfg.n_query_heads, cfg.head_dim), positions)
        k = apply_rope((xa @ lw.wk).reshape(L, cfg.n_kv_heads, cfg.head_dim), positions)
        v = (xa @ lw.wv).reshape(L, cfg.n_kv_heads, cfg.head_dim)

        ctx = np.empty((L, cfg.n_query_heads, cfg.head_dim))
        mask = np.triu(np.full((L, L), -np.inf), k=1)
        for h in range(cfg.n_kv_heads):
            for g in range(cfg.group_size):
                qh = q[:, h * cfg.group_size + g]  # (L, dh)
                logits = qh @ k[:, h].T * scale + mask
                probs = softmax_rows(logits)
                ctx[:, h * cfg.group_size + g] = probs @ v[:, h]
        x = x + ctx.reshape(L, -1) @ lw.wo

        xf = _rms_norm(x, lw.ffn_norm)
        x = x + (_silu(xf @ lw.w_gate) * (xf @ lw.w_up)) @ lw.w_down

    return _rms_norm(x, weights.final_norm) @ weights.w_out


def prefill(
    weights: ModelWeights, tokens: Sequence[int], observe_scores: bool = True
) -> tuple[list[FullCache], StepOutput]:
    """Ingest the prompt with full attention and populate per-layer caches.

    Returns the caches and the last position's StepOutput; the observation
    window is the single last token, so attn_rows carry exactly one row per
    query head.
    """
    cfg = weights.config
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.ndim != 1 or toks.size == 0:
        raise ContractViolation("prefill needs a non-empty token sequence")
    if toks.size > cfg.max_position:
        raise ContractViolation(f"prompt length {toks.size} exceeds max_position {cfg.max_position}")
    if toks.min() < 0 or toks.max() >= cfg.vocab_size:
        raise ContractViolation("token id outside vocabulary")

    L = toks.size
    positions = np.arange(L)
    scale = 1.0 / np.sqrt(cfg.head_dim)
    x = weights.embed[toks]

    caches: list[FullCache] = []
    queries: list[np.ndarray] = []
    avg_queries: list[np.ndarray] = []
    rows_per_layer: list[list[np.ndarray] | None] = []

    for lw in weights.layers:
        xa = _rms_norm(x, lw.attn_norm)
        q = apply_rope((xa @ lw.wq).reshape(L, cfg.n_query_heads, cfg.head_dim), positions)
        k = apply_rope((xa @ lw.wk).reshape(L, cfg.n_kv_heads, cfg.head_dim), positions)
        v = (xa @ lw.wv).reshape(L, cfg.n_kv_heads, cfg.head_dim)

        ctx = np.empty((L, cfg.n_query_heads, cfg.head_dim))
        mask = np.triu(np.full((L, L), -np.inf), k=1)
        layer_rows: list[np.ndarray] = []
        for h in range(cfg.n_kv_heads):
            group_rows = np.empty((cfg.group_size, L))
            for g in range(cfg.group_size):
                qh = q[:, h * cfg.group_size + g]
                logits = qh @ k[:, h].T * scale + mask
                probs = softmax_rows(logits)
                ctx[:, h * cfg.group_size + g] = probs @ v[:, h]
                group_rows[g] = probs[-1]
            layer_rows.append(group_rows)
        x = x + ctx.reshape(L, -1) @ lw.wo

        xf = _rms_norm(x, lw.ffn_norm)
        x = x + (_silu(xf @ lw.w_gate) * (xf @ lw.w_up)) @ lw.w_down

        caches.append(FullCache(positions.copy(), k.copy(), v.copy()))
        queries.append(q[-1].copy())
        avg_queries.append(q[-1].mean(axis=0))
        rows_per_layer.append(layer_rows if observe_scores else None)

    logits = _rms_norm(x[-1], weights.final_norm) @ weights.w_out
    return caches, StepOutput(logits, queries, avg_queries, rows_per_layer)


def decode_core(
    weights: ModelWeights,
    token: int,
    position: int,
    provide_view: ViewProvider,
) -> StepOutput:
    """One decode step; each layer's attended view is supplied by a callback.

    The callback runs mid-forward, after the layer's rotated queries exist,
    so per-layer scheduling can depend on the current query vector. Unless
    the view opts out, the current token's fresh key/value is appended at
    the end of each head's view (standard incremental self-attention).
    """
    cfg = weights.config
    _check_token(cfg, token)
    if not 0 <= position < cfg.max_position:
        raise ContractViolation(f"position {position} outside [0, {cfg.max_position})")

    scale = 1.0 / np.sqrt(cfg.head_dim)
    pos = np.asarray([position])
    x = weights.embed[int(token)].copy()

    queries: list[np.ndarray] = []
    avg_queries: list[np.ndarray] = []
    rows_per_layer: list[list[np.ndarray] | None] = []

    for layer_idx, lw in enumerate(weights.layers):
        xa = _rms_norm(x, lw.attn_norm)
        q = apply_rope((xa @ lw.wq).reshape(1, cfg.n_query_heads, cfg.head_dim), pos)[0]
        k_new = apply_rope((xa @ lw.wk).reshape(1, cfg.n_kv_heads, cfg.head_dim), pos)[0]
        v_new = (xa @ lw.wv).reshape(cfg.n_kv_heads, cfg.head_dim)
        avg_q = q.mean(axis=0)

        view = provide_view(layer_idx, q, avg_q, k_new, v_new)

        ctx = np.empty((cfg.n_query_heads, cfg.head_dim))
        layer_rows: list[np.ndarray] = []
        for h in range(cfg.n_kv_heads):
            keys_h = view.keys[h]
            vals_h = view.values[h]
            if view.include_self:
                keys_h = np.concatenate([keys_h, k_new[h][None, :]], axis=0)
                vals_h = np.concatenate([vals_h, v_new[h][None, :]], axis=0)
            if keys_h.shape[0] == 0:
                raise ContractViolation(f"layer {layer_idx} head {h}: empty attention view")
            q_group = q[h * cfg.group_size : (h + 1) * cfg.group_size]
            probs = softmax_rows(q_group @ keys_h.T * scale)
            ctx[h * cfg.group_size : (h + 1) * cfg.group_size] = probs @ vals_h
            if view.observe:
                layer_rows.append(probs)
        x = x + ctx.reshape(-1) @ lw.wo

        xf = _rms_norm(x, lw.ffn_norm)
        x = x + (_silu(xf @ lw.w_gate) * (xf @ lw.w_up)) @ lw.w_down

        queries.append(q)
        avg_queries.append(avg_q)
        rows_per_layer.append(layer_rows if view.observe else None)

    logits = _rms_norm(x, weights.final_norm) @ weights.w_out
    return StepOutput(logits, queries, avg_queries, rows_per_layer)


def save_weights(weights: ModelWeights, path: str) -> None:
    """Write weights as a JSON header plus flat little-endian float64 data.

    Layout: u64-LE header length, UTF-8 JSON header, raw tensor bytes. The
    header maps tensor names to {shape, offset} with offsets relative to
    the start of the data section. Exists for test fixtures; the primary
    path is seeded init.
    """
    named = weights.named_tensors()
    header: dict = {"config": _config_to_dict(weights.config), "tensors": {}}
    offset = 0
    blobs = []
    for name, arr in named:
        data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        header["tensors"][name] = {"shape": list(arr.shape), "offset": offset}
        offset += len(data)
        blobs.append(data)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for b in blobs:
            f.write(b)


def load_weights(path: str) -> ModelWeights:
    """Read a weight file written by save_weights."""
    with open(path, "rb") as f:
        (hlen,) = struct.unpack("<Q", f.read(8))
        header = json.loads(f.read(hlen).decode("utf-8"))
        data = f.read()
    cfg = ModelConfig(**header["config"])
    out: dict[str, np.ndarray] = {}
    for name, meta in header["tensors"].items():
        shape = tuple(meta["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = meta["offset"]
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=start).reshape(shape)
        out[name] = arr.astype(np.float64)

    layers = []
    for i in range(cfg.n_layers):
        layers.append(
            LayerWeights(**{k: out[f"layers.{i}.{k}"] for k in (
                "wq", "wk", "wv", "wo", "attn_norm", "ffn_norm", "w_gate", "w_up", "w_down")})
        )
    return ModelWeights(cfg, out["embed"], layers, out["final_norm"], out["w_out"])


def _config_to_dict(cfg: ModelConfig) -> dict:
    return {
        "n_layers": cfg.n_layers,
        "n_query_heads": cfg.n_query_heads,
        "n_kv_heads": cfg.n_kv_heads,
        "head_dim": cfg.head_dim,
        "ffn_mult": cfg.ffn_mult,
        "vocab_size": cfg.vocab_size,
        "max_position": cfg.max_position,
        "seed": cfg.seed,
    }
