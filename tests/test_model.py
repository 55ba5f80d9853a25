import importlib.util
import inspect
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from kvrefresh import model
from kvrefresh.engine import DecodeSession
from kvrefresh.errors import ConfigurationError, ContractViolation
from kvrefresh.kv_store import PartialCache
from kvrefresh.model import (
    ATTN_BLOCK,
    PREFILL_CHUNK,
    ModelConfig,
    canonical_config,
    causal_attention,
    decode_core,
    full_forward,
    init_model,
    prefill,
)
from kvrefresh.numerics import softmax_rows
from kvrefresh.policies import POLICY_KINDS, REFRESH_FAMILY, PolicyConfig
from kvrefresh.scheduler import ScheduleConfig

BLOCK_EDGE_LENGTHS = [1, ATTN_BLOCK - 1, ATTN_BLOCK, ATTN_BLOCK + 1, 3 * ATTN_BLOCK + 5]


def rel_close(a, b, rtol=1e-9):
    np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0)


def random_tokens(rng, cfg, n):
    return rng.integers(0, cfg.vocab_size, size=n).tolist()


def assert_normwise_close(a, b, rtol=1e-12):
    """max |a - b| <= rtol * max |b|; entries near zero do not void the bound."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


def key_major(keys):
    """A copy of (n_kv_heads, m, head_dim) keys in the caches' memory order: each head one C-contiguous (head_dim, m) block."""
    return keys.transpose(0, 2, 1).copy().transpose(0, 2, 1)


def dense_attention(q, k, v, group):
    """The dense kernel causal_attention replaced, kept as its oracle.

    One query head at a time against every key under an n x L -inf mask,
    for the queries q of the last n of the L key positions; same signature
    and results as causal_attention.
    """
    n, _, d = q.shape
    L = k.shape[1]
    mask = np.triu(np.full((n, L), -np.inf), k=L - n + 1)
    ctx = np.empty_like(q)
    last_rows = []
    for h in range(k.shape[0]):
        rows = np.empty((group, L))
        for g in range(group):
            probs = np.divide(*softmax_rows(q[:, h * group + g] @ k[h].T * (1.0 / np.sqrt(d)) + mask))
            ctx[:, h * group + g] = probs @ v[h]
            rows[g] = probs[-1]
        last_rows.append(rows)
    return ctx, last_rows


def block_allocating_attention(q, k, v, group):
    """causal_attention as it was before its blocks shared one logits buffer: each block's logits product
    allocates a fresh array. Kept as the bitwise reference of the buffered kernel."""
    (n, n_q, d), (n_kv, L) = q.shape, k.shape[:2]
    first = L - n
    qs = (q * (1.0 / np.sqrt(d))).reshape(n, n_kv, group, d).transpose(1, 0, 2, 3).copy()
    ctx = np.empty((n_kv, n, group, d))
    last_rows = np.empty((n_kv, group, L))
    for start in range(first, L, ATTN_BLOCK):
        end = min(start + ATTN_BLOCK, L)
        rows = end - start
        for h in range(n_kv):
            logits = (qs[h, start - first : end - first].reshape(-1, d) @ k[h, :end].T).reshape(rows, group, end)
            logits[:, :, start:] += model._DIAGONAL_MASK[:rows, :, :rows]
            logits -= logits.max(axis=-1, keepdims=True)
            np.exp(logits, out=logits)
            total = logits.sum(axis=-1, keepdims=True)
            ctx[h, start - first : end - first] = (logits.reshape(-1, end) @ v[h, :end]).reshape(rows, group, d) / total
            if end == L:
                last_rows[h] = logits[-1] / total[-1]
    return ctx.transpose(1, 0, 2, 3).reshape(n, n_q, d), last_rows


def whole_prompt_forward(weights, tokens):
    """The unchunked layer pass `model._forward` replaced, kept as its bitwise reference.

    Every stage runs on all L rows at once: one norm, one `wqkv` product and
    one rotation per layer, one causal_attention call over every query, and
    `wo` and the feed-forward on the (L, model_dim) states. Returns the final
    hidden states of every row and per layer the key-major keys, the values,
    the last position's mean query and causal_attention's last-position rows.
    """
    cfg = weights.config
    L, n_q, n_kv = len(tokens), cfg.n_query_heads, cfg.n_kv_heads
    x = weights.embed[np.asarray(tokens)]
    layers = []
    for lw in weights.layers:
        qkv = (model._rms_norm(x) @ lw.wqkv).reshape(L, n_q + 2 * n_kv, cfg.head_dim)
        qk = model.apply_rope(qkv[:, : n_q + n_kv], slice(L), weights.rope_upto(L))
        k = key_major(qk[:, n_q:].transpose(1, 0, 2))
        v = qkv[:, n_q + n_kv :].transpose(1, 0, 2).copy()
        ctx, last_rows = causal_attention(qk[:, :n_q], k, v, cfg.group_size)
        layers.append((k, v, qk[-1, :n_q], last_rows))
        x = x + ctx.reshape(L, -1) @ lw.wo
        x = x + model._ffn(x, lw)
    return x, layers


def decode_step(weights, token, caches, position, slots=None, row_major_keys=False):
    """Decode one token at `position` over fixed per-layer views of each layer's cache, which it leaves as it is.

    Each layer's view is a PartialCache of its cache's entries at `slots`
    (every entry in slot order by default; (n_kv_heads, m) per head, or (m,)
    that every head shares, any subset in any order), keys key-major like
    every cache's, with the current token's key/value appended, as a
    session's store would. With row_major_keys its key arena is swapped for
    a row-major copy.
    """

    def provider(layer_idx, q, k_new, v_new):
        cache = caches[layer_idx]
        view = PartialCache(cache, np.arange(len(cache)) if slots is None else slots)
        view.append(position, k_new, v_new)
        if row_major_keys:
            view._arrays[0] = np.ascontiguousarray(view._arrays[0])  # the window stays where it was
        return view

    return decode_core(weights, token, position, provider)


class TestInit:
    def test_same_config_bitwise_identical(self, desk_config):
        w1 = init_model(desk_config)
        w2 = init_model(desk_config)
        assert len(w1.layers) == len(w2.layers) == desk_config.n_layers
        for a, b in [(w1, w2), *zip(w1.layers, w2.layers)]:
            for f in fields(a):
                if f.name not in ("config", "layers"):
                    assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name

    def test_seed_sensitivity(self):
        w1 = init_model(canonical_config(seed=1))
        w2 = init_model(canonical_config(seed=2))
        assert not np.array_equal(w1.embed, w2.embed)

    def test_canonical_dimensions(self, desk_config):
        assert (desk_config.n_layers, desk_config.n_query_heads) == (2, 4)
        assert (desk_config.n_kv_heads, desk_config.head_dim) == (2, 16)
        assert desk_config.vocab_size == 256
        assert desk_config.model_dim == 64
        assert desk_config.group_size == 2

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_query_heads=4, n_kv_heads=3),
            dict(n_layers=0),
            dict(head_dim=0),
            dict(ffn_mult=0.0),
            dict(vocab_size=1),
            dict(seed=-1),
            dict(ffn_mult=0.001),  # ffn_dim int(0.001 * 64) = 0
            dict(ffn_mult=1e308),  # finite, but 64 * ffn_mult is not
            dict(head_dim=3),  # RoPE rotates pairs
            dict(head_dim=1),
        ],
    )
    def test_invalid_configs(self, bad):
        cfg = ModelConfig(**bad)
        with pytest.raises(ConfigurationError):
            init_model(cfg)


class TestPrefill:
    def test_single_token_attention_row(self, desk_weights):
        _, out = prefill(desk_weights, [7])
        for layer_rows in out.attn_rows:
            for rows in layer_rows:
                np.testing.assert_allclose(rows, np.ones_like(rows))

    def test_rows_are_normalized(self, desk_weights, rng):
        for n in (2, 17, 128):
            _, out = prefill(desk_weights, random_tokens(rng, desk_weights.config, n))
            for layer_rows in out.attn_rows:
                for rows in layer_rows:
                    assert rows.shape[1] == n
                    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-6)

    def test_incremental_matches_reprefill(self, desk_weights, rng):
        toks = random_tokens(rng, desk_weights.config, 20)
        caches, out = prefill(desk_weights, toks)
        nxt = int(np.argmax(out.logits))
        step_out = decode_step(desk_weights, nxt, caches, position=len(toks))
        _, re_out = prefill(desk_weights, toks + [nxt])
        rel_close(step_out.logits, re_out.logits)

    @pytest.mark.parametrize("length", [1, 2, 3, 31, 32, 33, 34, 63, 64, 65, 101])
    @pytest.mark.parametrize("n_kv", [1, 2])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_is_bitwise_the_all_rows_pass(self, n_layers, n_kv, length, rng):
        # 33 and 65 leave one row in the last block: the all-rows pass multiplies it by wo and the feed-forward in
        # a gemm, and a one-row product would go to gemv, which sums in another order
        weights = init_model(ModelConfig(n_layers=n_layers, n_kv_heads=n_kv, seed=5))
        toks = random_tokens(rng, weights.config, length)
        caches, out = prefill(weights, toks)
        x, layers = model._forward(weights, toks, last_rows_only=False)
        assert x.shape[0] == length  # the pass full_forward runs keeps every row
        assert np.array_equal(out.logits, model._rms_norm(x[-1]) @ weights.w_out)
        assert len(out.attn_rows) == len(out.queries) == len(caches) == len(layers) == n_layers
        for rows, q, cache, (ref, ref_q, ref_rows) in zip(out.attn_rows, out.queries, caches, layers):
            assert np.array_equal(rows, ref_rows) and np.array_equal(q, ref_q)
            assert np.array_equal(cache.keys, ref.keys) and np.array_equal(cache.values, ref.values)
            assert np.array_equal(cache.positions, np.broadcast_to(np.arange(length), (n_kv, length)))

    @pytest.mark.parametrize("length", [1, 2, 255, 256, 257, 258, 296, 513, 1000])
    def test_row_chunks_tile_the_prompt_from_block_boundaries(self, length):
        first = max(length - 2, 0) // ATTN_BLOCK * ATTN_BLOCK
        for split in (0, first):
            chunks = model._row_chunks(length, split)
            assert [s for s, _ in chunks[1:]] == [e for _, e in chunks[:-1]]
            assert chunks[0][0] == 0 and chunks[-1][1] == length and split in {s for s, _ in chunks}
            assert all(s % ATTN_BLOCK == 0 and e - s <= PREFILL_CHUNK + 1 for s, e in chunks)
            assert all(e - s >= 2 for s, e in chunks) or chunks == [(0, 1)]

    @pytest.mark.parametrize(
        "length", [PREFILL_CHUNK - 1, PREFILL_CHUNK, PREFILL_CHUNK + 1, PREFILL_CHUNK + 2, 2 * PREFILL_CHUNK + 1,
                   PREFILL_CHUNK + ATTN_BLOCK + 8]
    )
    @pytest.mark.parametrize("n_kv", [1, 2])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_chunked_pass_is_bitwise_the_whole_prompt_pass(self, n_layers, n_kv, length, rng):
        # PREFILL_CHUNK + 1 and 2 * PREFILL_CHUNK + 1 would leave a one-row tail chunk, which gemv would sum in
        # another order; at PREFILL_CHUNK + ATTN_BLOCK + 8 the last layer's `first` falls inside a chunk
        weights = init_model(ModelConfig(n_layers=n_layers, n_kv_heads=n_kv, seed=5))
        toks = random_tokens(rng, weights.config, length)
        x, layers = whole_prompt_forward(weights, toks)
        assert np.array_equal(full_forward(weights, toks), model._rms_norm(x) @ weights.w_out)
        caches, out = prefill(weights, toks)
        assert np.array_equal(out.logits, model._rms_norm(x[-1]) @ weights.w_out)
        for rows, q, cache, (k, v, ref_q, ref_rows) in zip(out.attn_rows, out.queries, caches, layers):
            assert np.array_equal(rows, ref_rows) and np.array_equal(q, ref_q)
            assert np.array_equal(cache.keys, k) and np.array_equal(cache.values, v)

    @pytest.mark.parametrize("length", [1, 2, 33, 64, 65, 100])
    def test_only_the_last_layer_attends_fewer_rows(self, desk_weights, rng, length, monkeypatch):
        query_rows = []

        def counted(q, k, v, group):
            query_rows.append(len(q))
            return causal_attention(q, k, v, group)

        monkeypatch.setattr(model, "causal_attention", counted)
        toks = random_tokens(rng, desk_weights.config, length)
        n_layers = desk_weights.config.n_layers
        prefill(desk_weights, toks)
        *earlier, last = query_rows
        assert earlier == [length] * (n_layers - 1)
        assert min(2, length) <= last <= 2 * ATTN_BLOCK and (length - last) % ATTN_BLOCK == 0
        query_rows.clear()
        full_forward(desk_weights, toks)
        assert query_rows == [length] * n_layers

    def test_empty_rejected(self, desk_weights):
        with pytest.raises(ContractViolation):
            prefill(desk_weights, [])


class TestCausalAttention:
    @pytest.mark.parametrize("n_kv", [1, 2, 4])
    @pytest.mark.parametrize("length", BLOCK_EDGE_LENGTHS)
    def test_matches_dense_oracle(self, length, n_kv, rng):
        q = rng.standard_normal((length, 4, 16))
        k, v = rng.standard_normal((2, n_kv, length, 16))
        ctx, rows = causal_attention(q, k, v, 4 // n_kv)
        ctx_ref, rows_ref = dense_attention(q, k, v, 4 // n_kv)
        assert_normwise_close(ctx, ctx_ref)
        assert len(rows) == len(rows_ref) == n_kv
        for r, r_ref in zip(rows, rows_ref):
            assert_normwise_close(r, r_ref)

    @pytest.mark.parametrize("n_kv", [1, 2, 4])
    @pytest.mark.parametrize("length", [2, ATTN_BLOCK + 1, 2 * ATTN_BLOCK, 3 * ATTN_BLOCK + 5])
    def test_trailing_blocks_are_the_all_rows_tail_bitwise(self, length, n_kv, rng):
        q = rng.standard_normal((length, 4, 16))
        k, v = rng.standard_normal((2, n_kv, length, 16))
        ctx, rows = causal_attention(q, k, v, 4 // n_kv)
        for first in range(0, length, ATTN_BLOCK):
            tail_ctx, tail_rows = causal_attention(q[first:], k, v, 4 // n_kv)
            assert np.array_equal(tail_ctx, ctx[first:]) and np.array_equal(tail_rows, rows)
            ref_ctx, ref_rows = dense_attention(q[first:], k, v, 4 // n_kv)
            assert_normwise_close(tail_ctx, ref_ctx)
            for r, r_ref in zip(tail_rows, ref_rows):
                assert_normwise_close(r, r_ref)

    @pytest.mark.parametrize("n_kv", [1, 2])
    @pytest.mark.parametrize("length", [1, 2, 31, 32, 33, 257, 300])
    def test_shared_logits_buffer_is_the_block_allocating_kernel_bitwise(self, length, n_kv, rng):
        # every block's logits go into one buffer; the last position's rows are their own array, not a view of it
        q = rng.standard_normal((length, 4, 16))
        k = key_major(rng.standard_normal((n_kv, length, 16)))
        v = rng.standard_normal((n_kv, length, 16))
        for first in range(0, length, ATTN_BLOCK):
            ctx, rows = causal_attention(q[first:], k, v, 4 // n_kv)
            ref_ctx, ref_rows = block_allocating_attention(q[first:], k, v, 4 // n_kv)
            assert np.array_equal(ctx, ref_ctx) and np.array_equal(rows, ref_rows)
            assert rows.base is None

    @pytest.mark.parametrize("length", [1, 2, 31, 32, 33, 257, 300])
    def test_prefill_with_the_shared_buffer_is_the_block_allocating_prefill_bitwise(self, desk_weights, rng, length,
                                                                                     monkeypatch):
        toks = random_tokens(rng, desk_weights.config, length)
        caches, out = prefill(desk_weights, toks)
        monkeypatch.setattr(model, "causal_attention", block_allocating_attention)
        ref_caches, ref_out = prefill(desk_weights, toks)
        assert np.array_equal(out.logits, ref_out.logits)
        for rows, ref_rows, c, ref_c in zip(out.attn_rows, ref_out.attn_rows, caches, ref_caches, strict=True):
            assert np.array_equal(rows, ref_rows)
            assert np.array_equal(c.keys, ref_c.keys) and np.array_equal(c.values, ref_c.values)

    @pytest.mark.parametrize("n_queries", [0, 1, ATTN_BLOCK + 1, 2 * ATTN_BLOCK + 1])
    def test_queries_off_a_block_boundary_are_rejected(self, n_queries, rng):
        q = rng.standard_normal((n_queries, 4, 16))
        k, v = rng.standard_normal((2, 2, 2 * ATTN_BLOCK, 16))
        with pytest.raises(ContractViolation):
            causal_attention(q, k, v, 2)

    @pytest.mark.parametrize("n_kv", [1, 2, 4])
    @pytest.mark.parametrize("length", BLOCK_EDGE_LENGTHS)
    def test_large_logits_keep_the_max_shift(self, length, n_kv, rng):
        # x40 on q and k puts logits in the thousands, where an unshifted exp overflows
        q = 40.0 * rng.standard_normal((length, 4, 16))
        k, v = rng.standard_normal((2, n_kv, length, 16))
        k *= 40.0
        ctx, rows = causal_attention(q, k, v, 4 // n_kv)
        ctx_ref, rows_ref = dense_attention(q, k, v, 4 // n_kv)
        assert np.isfinite(ctx).all() and np.isfinite(rows).all()
        assert_normwise_close(ctx, ctx_ref)
        for r, r_ref in zip(rows, rows_ref):
            assert_normwise_close(r, r_ref)
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_kv", [1, 2, 4])
    @pytest.mark.parametrize("length", BLOCK_EDGE_LENGTHS)
    def test_forward_passes_match_dense_oracle(self, length, n_kv, rng, monkeypatch):
        weights = init_model(ModelConfig(n_kv_heads=n_kv, seed=5))
        toks = random_tokens(rng, weights.config, length)
        logits = full_forward(weights, toks)
        caches, out = prefill(weights, toks)
        monkeypatch.setattr(model, "causal_attention", dense_attention)
        assert_normwise_close(logits, full_forward(weights, toks))
        ref_caches, ref_out = prefill(weights, toks)
        assert_normwise_close(out.logits, ref_out.logits)
        for layer_rows, ref_rows in zip(out.attn_rows, ref_out.attn_rows):
            for r, r_ref in zip(layer_rows, ref_rows):
                assert_normwise_close(r, r_ref)
        for c, c_ref in zip(caches, ref_caches):
            assert_normwise_close(c.keys, c_ref.keys)
            assert_normwise_close(c.values, c_ref.values)

    def test_prefill_peak_memory_is_not_quadratic(self, desk_weights, rng):
        # the dense kernel's tracemalloc peak was 45 MiB at L=1024 and 172 MiB
        # at L=2048; one extra L x L float64 array at L=2048 is 32 MiB
        length = 2048
        toks = random_tokens(rng, desk_weights.config, length)
        tracemalloc.start()
        try:
            prefill(desk_weights, toks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        # per prompt position: 2.7 KiB with row chunks, 5.5 KiB for the whole-prompt pass; whole-prompt
        # (L, ffn_dim) feed-forward temporaries alone take the peak back over this bound
        assert peak / length <= 4 * 2**10


class TestDecodeStep:
    def test_full_view_matches_from_scratch(self, desk_weights, rng):
        toks = random_tokens(rng, desk_weights.config, 24)
        caches, _ = prefill(desk_weights, toks[:-1])
        out = decode_step(desk_weights, toks[-1], caches, position=len(toks) - 1)
        ff = full_forward(desk_weights, toks)
        rel_close(out.logits, ff[-1])

    def test_permutation_invariance(self, desk_weights, rng):
        toks = random_tokens(rng, desk_weights.config, 30)
        caches, _ = prefill(desk_weights, toks)
        base = decode_step(desk_weights, 5, caches, position=len(toks))
        out = decode_step(desk_weights, 5, caches, position=len(toks), slots=rng.permutation(len(toks)))
        rel_close(out.logits, base.logits)

    def test_full_selection_is_bitwise_stable(self, desk_weights, rng):
        # a partial cache of every entry in slot order holds the full cache's arrays in the same order and
        # memory order, in as many slots, so its logits agree bit for bit with the full cache's own
        n = 16
        toks = random_tokens(rng, desk_weights.config, n)
        caches, _ = prefill(desk_weights, toks)
        b = decode_step(desk_weights, 3, caches, position=n)

        def full_view(layer_idx, q, k_new, v_new):
            caches[layer_idx].append(n, k_new, v_new)
            return caches[layer_idx]

        a = decode_core(desk_weights, 3, n, full_view)
        assert np.array_equal(a.logits, b.logits)

    @pytest.mark.parametrize("n", [16, 37])
    def test_row_major_keys_agree_to_rounding(self, desk_weights, rng, n, monkeypatch):
        # the same keys in row-major memory take BLAS's transposed-B path: equal up to summation order
        toks = random_tokens(rng, desk_weights.config, n)
        caches, _ = prefill(desk_weights, toks)
        a = decode_step(desk_weights, 3, caches, position=n)
        seen, rows = [], model.attention_rows
        monkeypatch.setattr(model, "attention_rows", lambda q, keys, g: seen.append(keys) or rows(q, keys, g))
        b = decode_step(desk_weights, 3, caches, position=n, row_major_keys=True)
        assert len(seen) == desk_weights.config.n_layers  # decode attended the row-major keys
        assert not any(keys[0].T.flags.c_contiguous for keys in seen)
        assert_normwise_close(b.logits, a.logits, rtol=1e-12)

    def test_position_bound_checked(self, desk_weights, rng):
        toks = random_tokens(rng, desk_weights.config, 4)
        caches, _ = prefill(desk_weights, toks)
        with pytest.raises(ContractViolation, match="position -1 is negative"):  # it would read the table's last row
            decode_step(desk_weights, 1, caches, position=-1)

    def test_empty_view_rejected(self, desk_weights):
        # a view that leaves out the current token and holds no past entry
        # leaves attention nothing to attend
        caches, _ = prefill(desk_weights, [1, 2])

        def empty(layer_idx, q, k_new, v_new):
            return PartialCache(caches[layer_idx], np.arange(0))

        with pytest.raises(ContractViolation):
            decode_core(desk_weights, 1, 2, empty)

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_every_layer_returns_its_rows_over_its_view(self, desk_weights, rng, kind):
        cfg = desk_weights.config
        schedule = ScheduleConfig(mode="fixed", stride=3) if kind in REFRESH_FAMILY else None
        session = DecodeSession(desk_weights, PolicyConfig(kind=kind, k=8), schedule)
        session.prefill(random_tokens(rng, cfg, 20))
        for token in random_tokens(rng, cfg, 7):
            out, rec = session.step(token)
            assert len(out.attn_rows) == cfg.n_layers
            for rows, m in zip(out.attn_rows, rec.view_lens):
                assert rows.shape == (cfg.n_kv_heads, cfg.group_size, m)
                np.testing.assert_allclose(rows.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_kv, group, m, d", [(2, 2, 1, 16), (2, 2, 37, 16), (1, 4, 129, 8), (4, 1, 5, 32)])
    def test_attention_rows_is_the_inline_expression_bitwise(self, rng, n_kv, group, m, d):
        # the queries are scaled by 1/sqrt(d) before the logit product, as causal_attention scales them
        q = rng.standard_normal((n_kv * group, d))
        keys = rng.standard_normal((n_kv, 2 * m, d))[:, :m]  # an arena's filled prefix
        expected = softmax_rows((q * (1.0 / np.sqrt(d))).reshape(n_kv, group, d) @ keys.transpose(0, 2, 1))
        got = model.attention_rows(q, keys, group)
        assert len(got) == 2 and all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_attention_rows_at_head_dim_16_is_the_post_scaled_expression_bitwise(self, rng):
        # 1/sqrt(16) = 0.25 is a power of two, so scaling before or after the product gives the same floats
        q = rng.standard_normal((4, 16))
        keys = rng.standard_normal((2, 74, 16))[:, :37]
        expected = softmax_rows(q.reshape(2, 2, 16) @ keys.transpose(0, 2, 1) * (1.0 / np.sqrt(16)))
        got = model.attention_rows(q, keys, 2)
        assert len(got) == 2 and all(np.array_equal(a, b) for a, b in zip(got, expected))


def eager_softmax(logits):
    """softmax_rows as it was before it left the divide to its callers: every row normalised at once. A decode
    step's rows were these."""
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def spy_softmax(monkeypatch):
    """Record a copy of the logits of every softmax_rows call through the model's global, in call order."""
    seen = []

    def spy(*args, _softmax=model.softmax_rows):
        seen.append(args[0].copy())
        return _softmax(*args)

    monkeypatch.setattr(model, "softmax_rows", spy)
    return seen


def left_unnormalised(rows):
    """Per layer, whether a decode step's rows still wait for their divide."""
    return [sums is not None for _, sums in rows._parts]


class TestRowsNormalisedOnRead:
    """decode_core normalises each layer's context after the value product and leaves its probability rows to
    be divided on first read: only h2o (every step) and a refreshing layer (at its refresh) read them."""

    SCHEDULE = ScheduleConfig(mode="fixed", stride=3)

    def session(self, weights, rng, kind, recorder=None):
        session = DecodeSession(weights, PolicyConfig(kind=kind, k=8), self.SCHEDULE, recorder)
        session.prefill(random_tokens(rng, weights.config, 20))
        return session

    @pytest.mark.parametrize("kind", [kind for kind in POLICY_KINDS if kind != "refreshkv_no_full"])
    def test_rows_read_are_the_eager_softmax_of_the_step_logits_bitwise(self, desk_weights, rng, monkeypatch, kind):
        # refreshkv_no_full also scores its full cache at a refresh; that call is checked below
        logits = spy_softmax(monkeypatch)
        session = self.session(desk_weights, rng, kind)
        for token in random_tokens(rng, desk_weights.config, 7):
            logits.clear()
            out, _ = session.step(token)
            assert len(logits) == len(out.attn_rows) == desk_weights.config.n_layers
            for layer, x in enumerate(logits):
                assert np.array_equal(out.attn_rows[layer], eager_softmax(x))
                assert np.array_equal(out.attn_rows[layer], np.divide(*softmax_rows(x)))
                assert out.attn_rows[layer] is out.attn_rows[layer]  # divided once, then kept

    @pytest.mark.parametrize(
        "kind, reads",
        [("vanilla", "none"), ("streaming", "none"), ("snapkv", "none"), ("refreshkv_no_refresh", "none"),
         ("refreshkv_no_full", "none"), ("refreshkv", "full steps"), ("h2o", "every step")],
    )
    def test_only_a_policy_that_reads_rows_divides_them(self, desk_weights, rng, monkeypatch, kind, reads):
        read = []

        def spy(rows, layer, _original=model.AttentionRows.__getitem__):
            got = _original(rows, layer)  # iteration ends on the IndexError of the index past the last layer
            read.append(layer)
            return got

        monkeypatch.setattr(model.AttentionRows, "__getitem__", spy)
        session = self.session(desk_weights, rng, kind)
        n_layers, modes = desk_weights.config.n_layers, set()
        for token in random_tokens(rng, desk_weights.config, 7):
            read.clear()
            out, rec = session.step(token)
            modes.update(rec.modes)
            divided = reads == "every step" or (reads == "full steps" and rec.modes == ["full"] * n_layers)
            assert read == (list(range(n_layers)) if divided else [])
            assert left_unnormalised(out.attn_rows) == [not divided] * n_layers
        if kind in REFRESH_FAMILY:
            assert modes == {"full", "partial"}  # plain partial steps and full steps both ran

    @pytest.mark.parametrize("kind", ["h2o", "refreshkv", "refreshkv_no_full"])
    def test_rows_a_policy_reads_are_the_eager_softmax_bitwise(self, desk_weights, rng, monkeypatch, kind):
        logits, events = spy_softmax(monkeypatch), []
        session = self.session(desk_weights, rng, kind, events.append)
        n_layers, checked = desk_weights.config.n_layers, 0
        for token in random_tokens(rng, desk_weights.config, 7):
            logits.clear()
            events.clear()
            _, rec = session.step(token)
            for event in (e for e in events if e["kind"] in ("h2o", "refresh")):
                layer = event["layer"]
                if event["kind"] == "h2o":
                    read, x = event["raw_rows"], logits[layer]
                elif kind == "refreshkv":
                    read, x = event["rows"], logits[layer]
                else:  # each refreshing layer scores its full cache, then attends its partial cache
                    assert len(logits) == 2 * n_layers and rec.modes == ["full"] * n_layers
                    read, x = event["rows"], logits[2 * layer]
                assert np.array_equal(np.stack(read), eager_softmax(x))
                checked += 1
        assert checked >= n_layers

    def test_decode_logits_match_the_teacher_forced_pass(self, desk_weights, rng):
        cfg = desk_weights.config
        toks = random_tokens(rng, cfg, 60)
        ff = full_forward(desk_weights, toks)
        session = DecodeSession(desk_weights, PolicyConfig(kind="vanilla"))
        session.prefill(toks[:20])
        for i in range(20, 60):
            out, _ = session.step(toks[i])
            assert_normwise_close(out.logits, ff[i], rtol=1e-12)

    @pytest.mark.parametrize("n_kv, group, m, d", [(2, 2, 1, 16), (2, 2, 129, 16), (4, 2, 4096, 32), (1, 4, 37, 8)])
    def test_context_normalised_after_the_value_product_matches_the_row_normalised_one(self, rng, n_kv, group, m, d):
        logits = 8.0 * rng.standard_normal((n_kv, group, m))
        values = rng.standard_normal((n_kv, m, d))
        exps, sums = softmax_rows(logits)
        assert_normwise_close((exps @ values) / sums, eager_softmax(logits) @ values, rtol=1e-12)


class TestFastPathsBitwise:
    """The decode fast paths give the bits of the expressions they replaced."""

    @staticmethod
    def gain_rms_norm(x):
        """The RMS norm with a gain of ones that _rms_norm replaced."""
        ms = np.add.reduce(np.square(x), axis=-1, keepdims=True) / x.shape[-1]
        return x / np.sqrt(ms + model.RMS_EPS) * np.ones(x.shape[-1])

    def test_rms_norm_rows_match_the_row_call(self, rng):
        x = rng.standard_normal((7, 64))
        x[1] *= 1e-300  # squares underflow to 0
        x[2] *= 1e-160
        x[3] *= 1e150
        x[4] *= 1e200  # squares overflow to inf
        x[5] = 0.0
        x[6, ::2] = 0.0
        with np.errstate(over="ignore"):
            rows = model._rms_norm(x)
            assert np.array_equal(rows, self.gain_rms_norm(x))
            for i in range(len(x)):
                assert np.array_equal(model._rms_norm(x[i]), rows[i]), i
                assert np.array_equal(model._rms_norm(x[i]), self.gain_rms_norm(x[i])), i
        assert not rows[4].any() and not rows[5].any()  # x / inf and 0 / sqrt(eps)

    def test_softmax_into_its_input_matches_the_copying_call(self, rng):
        x = 30.0 * rng.standard_normal((2, 2, 129))
        before = x.copy()
        expected = softmax_rows(x)
        assert np.array_equal(x, before)  # without out, the input is unchanged
        got = softmax_rows(x, x)
        assert got[0] is x
        assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))

    def test_silu_is_the_division_expression(self, rng):
        x = np.concatenate([rng.standard_normal(200) * 10, [-1000.0, -745.0, -710.5, -709.0, 0.0, 710.0, 1e300]])
        before = x.copy()
        with np.errstate(over="ignore"):  # exp(-x) overflows to inf below -709.78; both give -0.0 there
            expected = x / (1.0 + np.exp(-x))
            got = model._silu(x)
        assert np.array_equal(x, before)
        assert np.array_equal(got, expected)
        assert np.signbit(got[200])  # -0.0, as the expression gives

    @pytest.mark.parametrize("shape", [(64,), (5, 64)])
    def test_ffn_is_the_inline_expression(self, desk_weights, rng, shape):
        lw = desk_weights.layers[0]
        x = rng.standard_normal(shape)
        xf = self.gain_rms_norm(x)
        expected = (model._silu(xf @ lw.w_gate) * (xf @ lw.w_up)) @ lw.w_down
        assert np.array_equal(model._ffn(x, lw), expected)


def rope_angles(positions, head_dim):
    """Each rotary pair's angle pos / base^(2i/head_dim): (..., head_dim/2)."""
    inv_freq = model.ROPE_BASE ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    return np.asarray(positions, dtype=np.float64)[..., None] * inv_freq


def pairwise_rope(x, positions, head_dim):
    """The pairwise rotation (x1 cos - x2 sin, x1 sin + x2 cos) per pair (2i, 2i+1), in separate products and sums."""
    ang = rope_angles(positions, head_dim)
    cos, sin = np.cos(ang)[..., None, :], np.sin(ang)[..., None, :]
    x1, x2 = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
    return out


def complex_of(re, im):
    """The complex array re + i im, each part copied bit for bit."""
    z = np.empty(np.shape(re), dtype=np.complex128)
    z.real, z.imag = re, im
    return z


ROPE_CASES = [
    ((6, 16), 0), ((6, 16), 4095), ((6, 16), 8191),  # a decode step: one position for every head
    ((40, 6, 16), slice(40)),  # the prefill: the table's first L rows
    ((5, 3, 16), np.array([0, 1, 17, 4095, 8191])),
]


def rope_positions(shape, positions):
    return np.arange(shape[0]) if isinstance(positions, slice) else positions


class TestRopeTable:
    def test_grown_table_is_the_angle_expression_bitwise(self, desk_config):
        weights = init_model(desk_config)
        assert len(weights.rope) == 0  # nothing is built before a sequence needs it
        tables = [weights.rope_upto(end) for end in (1, 3, 17, 17, 4095, 4097, 4097, 8191, 5)]
        assert [len(t) for t in tables] == [1, 4, 32, 32, 4096, 8192, 8192, 8192, 8192]  # powers of two >= end
        assert tables[-1] is tables[5] is weights.rope  # no call shrinks or rebuilds a table that covers it
        assert tables[4] is not tables[5]  # growing rebinds a new table and leaves the old one whole (checked below)
        # one complex entry e^{i a_j} per rotary pair: real part cos(a_j), imaginary part sin(a_j)
        table, n = weights.rope, 8192
        assert table.dtype == np.complex128 and table.shape == (n, 1, desk_config.head_dim // 2)
        ang = rope_angles(np.arange(n), desk_config.head_dim)
        assert np.array_equal(table[:, 0].real, np.cos(ang)) and np.array_equal(table[:, 0].imag, np.sin(ang))
        # the table grown through several calls is the one built at once, and each row that of its position alone
        assert np.array_equal(table, model._rope_table(np.arange(n), desk_config.head_dim))
        for t in tables:
            assert np.array_equal(t, table[: len(t)])
        for p in (0, 1, 17, 4095, 4096, n - 1):
            assert np.array_equal(table[p], model._rope_table(np.asarray([p]), desk_config.head_dim)[0])

    @pytest.mark.parametrize("shape, positions", ROPE_CASES)
    def test_apply_rope_is_the_complex_product_bitwise(self, desk_weights, rng, shape, positions):
        # pair (2j, 2j+1) read as x1 + i x2, times cos(a_j) + i sin(a_j), written back as (real, imag)
        x = rng.standard_normal(shape)
        ang = rope_angles(rope_positions(shape, positions), shape[-1])[..., None, :]
        z = complex_of(x[..., 0::2], x[..., 1::2]) * complex_of(np.cos(ang), np.sin(ang))
        expected = np.stack([z.real, z.imag], axis=-1).reshape(shape)
        assert np.array_equal(model.apply_rope(x, positions, desk_weights.rope_upto(8192)), expected)

    @pytest.mark.parametrize("shape, positions", ROPE_CASES)
    def test_apply_rope_is_within_4_eps_of_the_pairwise_formula(self, desk_weights, rng, shape, positions):
        # the complex multiply may fuse a product into its sum, so it can differ from the pairwise floats in the last bits
        x = rng.standard_normal(shape)
        expected = pairwise_rope(x, rope_positions(shape, positions), shape[-1])
        got = model.apply_rope(x, positions, desk_weights.rope_upto(8192))
        assert np.abs(got - expected).max() <= 4 * np.finfo(np.float64).eps * np.abs(x).max()

    def test_a_row_rotated_alone_is_its_row_in_any_chunk_bitwise(self, desk_weights, rng):
        # prefill's chunks rest on this: a decode row and any chunk of rows give each row the same bits
        rope = desk_weights.rope_upto(300)
        for _ in range(50):
            length, n_heads = int(rng.integers(1, 300)), int(rng.integers(1, 7))
            x = rng.standard_normal((length, n_heads + 2, 16))[:, :n_heads]  # a column slice, as prefill rotates
            whole = model.apply_rope(x, slice(length), rope)
            s = int(rng.integers(0, length))
            e = int(rng.integers(s + 1, length + 1))
            assert np.array_equal(model.apply_rope(x[s:e], slice(s, e), rope), whole[s:e])
            for p in {0, s, length - 1}:
                row = np.ascontiguousarray(x[p])  # a decode step's (n_heads, head_dim) queries and key
                assert np.array_equal(model.apply_rope(row, p, rope), whole[p])


def perfbench_tracer():
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return tracer


def perfbench_lookups(span):
    """The `module:name` lookups the benchmark's tracer wraps to time `span`."""
    return next(target.lookups for target in perfbench_tracer().TARGETS if target.span == span)


# The tracer's lookups that resolve; each one that stops resolving turns its span's readouts to 0.
RESOLVED_LOOKUPS = {
    "kvrefresh.engine:model_prefill",
    "kvrefresh.engine:decode_core",
    "kvrefresh.model:apply_rope",
    "kvrefresh.model:softmax_rows",
    "kvrefresh.kv_store:FullCache.append",
    "kvrefresh.kv_store:FullCache.gather",
    "kvrefresh.kv_store:PartialCache.append",
    "kvrefresh.kv_store:PartialCache.evict_overflow",
    "kvrefresh.kv_store:init_partial",
    "kvrefresh.policies:init_partial",
    "kvrefresh.policies:selection_scores",
    "kvrefresh.policies:H2OState.step",
}


def test_tracer_lookups_resolve():
    tracer = perfbench_tracer()
    lookups = {lookup for target in tracer.TARGETS for lookup in target.lookups}
    resolved = {lookup for lookup in lookups if tracer._resolve(lookup)[0] is not None}
    assert RESOLVED_LOOKUPS - resolved == set()
    # the tracer times the view callback through this parameter's name
    owner, attr = tracer._resolve("kvrefresh.engine:decode_core")
    assert tracer.VIEW_PARAM in inspect.signature(getattr(owner, attr)).parameters


class TestTraceSpans:
    """The benchmark times decode_core's rotation and softmax by wrapping these
    module globals; each must run once per layer per decode step, or the
    traced `model.apply_rope` and `numerics.softmax_rows` spans read 0."""

    @pytest.mark.parametrize("kind", ["vanilla", "refreshkv"])
    def test_rope_and_softmax_run_once_per_layer_per_step(self, desk_weights, rng, monkeypatch, kind):
        calls = {}
        for span, name in [("model.apply_rope", "apply_rope"), ("numerics.softmax_rows", "softmax_rows")]:
            assert f"kvrefresh.model:{name}" in perfbench_lookups(span)
            calls[name] = 0

            def counted(*args, _name=name, _original=getattr(model, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(model, name, counted)
        session = DecodeSession(desk_weights, PolicyConfig(kind=kind, k=8), ScheduleConfig(mode="fixed", stride=3))
        session.prefill(random_tokens(rng, desk_weights.config, 20))
        modes = set()
        for token in random_tokens(rng, desk_weights.config, 7):
            before = dict(calls)
            _, rec = session.step(token)
            modes.update(rec.modes)
            assert {n: calls[n] - before[n] for n in calls} == dict.fromkeys(calls, desk_weights.config.n_layers)
        assert modes == ({"full"} if kind == "vanilla" else {"full", "partial"})

    def test_h2o_step_runs_once_per_layer_per_step(self, desk_weights, rng):
        # the benchmark times h2o's bookkeeping by wrapping H2OState.step; a policy that stopped calling it
        # would leave the traced `policies.h2o_step` span at 0
        assert "kvrefresh.policies:H2OState.step" in perfbench_lookups("policies.h2o_step")
        tracer = perfbench_tracer().Tracer()
        session = DecodeSession(desk_weights, PolicyConfig(kind="h2o", k=8))
        session.prefill(random_tokens(rng, desk_weights.config, 20))
        tracer.install()
        try:
            for token in random_tokens(rng, desk_weights.config, 7):
                before = tracer.calls("policies.h2o_step")
                session.step(token)
                assert tracer.calls("policies.h2o_step") - before == desk_weights.config.n_layers
        finally:
            tracer.uninstall()


    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_each_cache_append_is_one_span(self, desk_weights, rng, kind):
        # the benchmark times each cache's own append; a step appends once per layer to the full cache (snapkv
        # keeps only its prompt there) and once per layer that attends its partial cache to that cache: every
        # partial-mode layer, and every refreshkv_no_full layer, whose refresh step attends its partial cache too
        tracer = perfbench_tracer().Tracer()
        schedule = ScheduleConfig(mode="fixed", stride=3) if kind in REFRESH_FAMILY else None
        session = DecodeSession(desk_weights, PolicyConfig(kind=kind, k=8), schedule)
        session.prefill(random_tokens(rng, desk_weights.config, 20))
        spans = ("kv_store.full_append", "kv_store.partial_append")
        tracer.install()
        try:
            for token in random_tokens(rng, desk_weights.config, 7):
                before = [tracer.calls(span) for span in spans]
                _, rec = session.step(token)
                full_appends = 0 if kind == "snapkv" else desk_weights.config.n_layers
                partial_appends = 0 if kind == "vanilla" else rec.modes.count("partial")
                if kind == "refreshkv_no_full":
                    partial_appends = desk_weights.config.n_layers
                assert [tracer.calls(span) - n for span, n in zip(spans, before)] == [full_appends, partial_appends]
        finally:
            tracer.uninstall()


class TestIncrementalConsistency:
    def test_stepwise_equals_teacher_forced(self, desk_weights, rng):
        cfg = desk_weights.config
        toks = random_tokens(rng, cfg, 64)
        ff = full_forward(desk_weights, toks)

        caches, out = prefill(desk_weights, toks[:1])
        rel_close(out.logits, ff[0])
        for i in range(1, len(toks)):
            step = decode_step(desk_weights, toks[i], caches, position=i)
            rel_close(step.logits, ff[i])
            caches, _ = prefill(desk_weights, toks[: i + 1])

    def test_queries_exposed_per_layer(self, desk_weights, rng):
        cfg = desk_weights.config
        toks = random_tokens(rng, cfg, 8)
        caches, out = prefill(desk_weights, toks)
        assert len(out.queries) == cfg.n_layers
        for q in out.queries:
            # a copy, not a view that would keep the prefill chunk's projections alive
            assert q.shape == (cfg.n_query_heads, cfg.head_dim) and q.base is None
        handed = []

        def provider(layer_idx, q, k_new, v_new):
            handed.append(q.copy())
            return caches[layer_idx]

        step = decode_core(desk_weights, 1, len(toks), provider)
        assert len(step.queries) == len(handed) == cfg.n_layers
        assert all(np.array_equal(q, ref) for q, ref in zip(step.queries, handed))


class TestGroupedQueries:
    @pytest.mark.parametrize("n_kv", [1, 2, 4])
    def test_kv_head_count_changes_sharing_not_shapes(self, n_kv, rng):
        cfg = canonical_config(seed=5)
        cfg = ModelConfig(
            n_layers=cfg.n_layers,
            n_query_heads=cfg.n_query_heads,
            n_kv_heads=n_kv,
            head_dim=cfg.head_dim,
            vocab_size=cfg.vocab_size,
            seed=5,
        )
        w = init_model(cfg)
        toks = random_tokens(rng, cfg, 12)
        caches, out = prefill(w, toks)
        assert out.logits.shape == (cfg.vocab_size,)
        for c in caches:
            assert c.keys.shape == (n_kv, 12, cfg.head_dim)
        for layer_rows in out.attn_rows:
            assert len(layer_rows) == n_kv
            for rows in layer_rows:
                assert rows.shape == (cfg.n_query_heads // n_kv, 12)
