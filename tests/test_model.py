import numpy as np
import pytest

from kvrefresh.errors import ConfigurationError, ContractViolation
from kvrefresh.model import (
    LayerView,
    ModelConfig,
    canonical_config,
    decode_core,
    full_forward,
    init_model,
    load_weights,
    prefill,
    save_weights,
)


def rel_close(a, b, rtol=1e-9):
    np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0)


def random_tokens(rng, cfg, n):
    return rng.integers(0, cfg.vocab_size, size=n).tolist()


def cache_views(caches):
    return [(c.keys, c.values, c.positions) for c in caches]


def decode_step(weights, token, views, position, observe_scores=False):
    """Decode one token over fixed per-layer views of past cache entries.

    Each view is (keys, values, positions) with keys/values shaped
    (m, n_kv_heads, head_dim); entries may be any subset of past tokens in
    any order, carrying their original absolute positions (keys already
    rotated). The current token's key/value is appended before attention.
    """
    cfg = weights.config

    def provider(layer_idx, q, avg_q, k_new, v_new):
        keys, values, positions = views[layer_idx]
        per_head_k = [np.ascontiguousarray(keys[:, h]) for h in range(cfg.n_kv_heads)]
        per_head_v = [np.ascontiguousarray(values[:, h]) for h in range(cfg.n_kv_heads)]
        per_head_p = [positions for _ in range(cfg.n_kv_heads)]
        return LayerView(per_head_k, per_head_v, per_head_p, include_self=True, observe=observe_scores)

    return decode_core(weights, token, position, provider)


class TestInit:
    def test_same_config_bitwise_identical(self, desk_config):
        w1 = init_model(desk_config)
        w2 = init_model(desk_config)
        for (n1, t1), (n2, t2) in zip(w1.named_tensors(), w2.named_tensors()):
            assert n1 == n2
            assert np.array_equal(t1, t2)

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
        step_out = decode_step(desk_weights, nxt, cache_views(caches), position=len(toks))
        _, re_out = prefill(desk_weights, toks + [nxt])
        rel_close(step_out.logits, re_out.logits)

    def test_overlength_rejected(self, desk_weights):
        max_pos = desk_weights.config.max_position
        with pytest.raises(ContractViolation):
            prefill(desk_weights, [0] * (max_pos + 1))

    def test_empty_rejected(self, desk_weights):
        with pytest.raises(ContractViolation):
            prefill(desk_weights, [])


class TestDecodeStep:
    def test_full_view_matches_from_scratch(self, desk_weights, rng):
        toks = random_tokens(rng, desk_weights.config, 24)
        caches, _ = prefill(desk_weights, toks[:-1])
        out = decode_step(desk_weights, toks[-1], cache_views(caches), position=len(toks) - 1)
        ff = full_forward(desk_weights, toks)
        rel_close(out.logits, ff[-1])

    def test_permutation_invariance(self, desk_weights, rng):
        toks = random_tokens(rng, desk_weights.config, 30)
        caches, _ = prefill(desk_weights, toks)
        base = decode_step(desk_weights, 5, cache_views(caches), position=len(toks))
        perm = rng.permutation(len(toks))
        shuffled = [(c.keys[perm], c.values[perm], c.positions[perm]) for c in caches]
        out = decode_step(desk_weights, 5, shuffled, position=len(toks))
        rel_close(out.logits, base.logits)

    def test_full_selection_is_bitwise_stable(self, desk_weights, rng):
        # a "partial" view listing every entry in cache order is the same
        # arrays in the same order, so logits agree bit for bit
        toks = random_tokens(rng, desk_weights.config, 16)
        caches, _ = prefill(desk_weights, toks)
        a = decode_step(desk_weights, 3, cache_views(caches), position=len(toks))
        idx = np.arange(len(toks))
        views = [(c.keys[idx], c.values[idx], c.positions[idx]) for c in caches]
        b = decode_step(desk_weights, 3, views, position=len(toks))
        assert np.array_equal(a.logits, b.logits)

    def test_position_bound_checked(self, desk_weights, rng):
        toks = random_tokens(rng, desk_weights.config, 4)
        caches, _ = prefill(desk_weights, toks)
        with pytest.raises(ContractViolation):
            decode_step(
                desk_weights, 1, cache_views(caches), position=desk_weights.config.max_position
            )

    def test_empty_view_rejected(self, desk_weights):
        # a view that leaves out the current token and holds no past entry
        # leaves attention nothing to attend
        caches, _ = prefill(desk_weights, [1, 2])

        def empty(layer_idx, q, avg_q, k_new, v_new):
            c = caches[layer_idx]
            heads = range(desk_weights.config.n_kv_heads)
            return LayerView([c.keys[:0, h] for h in heads], [c.values[:0, h] for h in heads],
                             [c.positions[:0] for _ in heads], include_self=False)

        with pytest.raises(ContractViolation):
            decode_core(desk_weights, 1, 2, empty)


class TestIncrementalConsistency:
    def test_stepwise_equals_teacher_forced(self, desk_weights, rng):
        cfg = desk_weights.config
        toks = random_tokens(rng, cfg, 64)
        ff = full_forward(desk_weights, toks)

        caches, out = prefill(desk_weights, toks[:1])
        rel_close(out.logits, ff[0])
        for i in range(1, len(toks)):
            step = decode_step(desk_weights, toks[i], cache_views(caches), position=i)
            rel_close(step.logits, ff[i])
            caches, _ = prefill(desk_weights, toks[: i + 1])

    def test_queries_exposed_per_layer(self, desk_weights, rng):
        cfg = desk_weights.config
        toks = random_tokens(rng, cfg, 8)
        _, out = prefill(desk_weights, toks)
        assert len(out.queries) == cfg.n_layers
        for q, avg in zip(out.queries, out.avg_queries):
            assert q.shape == (cfg.n_query_heads, cfg.head_dim)
            np.testing.assert_allclose(avg, q.mean(axis=0))


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
            assert c.keys.shape == (12, n_kv, cfg.head_dim)
        for layer_rows in out.attn_rows:
            assert len(layer_rows) == n_kv
            for rows in layer_rows:
                assert rows.shape == (cfg.n_query_heads // n_kv, 12)


class TestWeightFile:
    def test_round_trip_bitwise(self, desk_weights, tmp_path):
        path = tmp_path / "weights.bin"
        save_weights(desk_weights, str(path))
        loaded = load_weights(str(path))
        assert loaded.config == desk_weights.config
        for (n1, t1), (n2, t2) in zip(desk_weights.named_tensors(), loaded.named_tensors()):
            assert n1 == n2
            assert np.array_equal(t1, t2)

    def test_loaded_weights_run(self, desk_weights, tmp_path, rng):
        path = tmp_path / "weights.bin"
        save_weights(desk_weights, str(path))
        loaded = load_weights(str(path))
        toks = random_tokens(rng, desk_weights.config, 6)
        assert np.array_equal(full_forward(loaded, toks), full_forward(desk_weights, toks))
