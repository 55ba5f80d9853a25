import dataclasses

import numpy as np
import pytest

from kvrefresh.engine import DecodeSession, decode
from kvrefresh.errors import ContractViolation
from kvrefresh.metrics import (
    StepRecord,
    layer_attention_cost,
    nll_from_logits,
    nll_to_perplexity,
    per_layer_effective_strides,
    selection_overhead_flops,
    step_cost,
    trace_totals,
)
from kvrefresh.model import ModelConfig, full_forward, init_model
from kvrefresh.numerics import max_pool_1d, top_k_indices
from kvrefresh.policies import POLICY_KINDS, REFRESH_FAMILY, PolicyConfig
from kvrefresh.scheduler import ScheduleConfig


class TestAttentionCost:
    def test_reference_byte_count(self):
        # one layer, one kv head, head_dim 16, attended 10: 10 * 2 * 16 * 1 * 8
        cfg = ModelConfig(n_layers=1, n_query_heads=1, n_kv_heads=1, head_dim=16)
        _, nbytes = step_cost([10] * cfg.n_layers, cfg)
        assert nbytes == 2560

    def test_partial_to_full_ratio_is_exact(self, desk_config):
        k, L = 16, 128
        _, partial = step_cost([k] * desk_config.n_layers, desk_config)
        _, full = step_cost([L] * desk_config.n_layers, desk_config)
        assert partial * L == full * k  # ratio K/L as exact integers

    def test_whole_model_is_layers_times_layer(self, desk_config):
        lf, lb = layer_attention_cost(7, desk_config)
        f, b = step_cost([7] * desk_config.n_layers, desk_config)
        assert (f, b) == (desk_config.n_layers * lf, desk_config.n_layers * lb)

    def test_attended_must_be_positive(self, desk_config):
        with pytest.raises(ContractViolation):
            layer_attention_cost(0, desk_config)

    def test_trace_summation_matches_closed_form(self, desk_weights, rng):
        # 100-step fixed-stride run: total == n_full * full_cost + n_partial * partial_cost
        cfg = desk_weights.config
        prompt = rng.integers(0, cfg.vocab_size, size=64).tolist()
        L, N, S = 64, 100, 10
        _, trace, _ = decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=8), ScheduleConfig(mode="fixed", stride=S)),
            prompt, N,
        )
        totals = trace_totals(trace)
        full_f, full_b = step_cost([L] * cfg.n_layers, cfg)
        part_f, part_b = step_cost([8] * cfg.n_layers, cfg)
        n_full = N // S
        assert totals["kv_bytes_moved"] == n_full * full_b + (N - n_full) * part_b
        assert totals["attention_flops"] == n_full * full_f + (N - n_full) * part_f

    @pytest.mark.parametrize("schedule", [ScheduleConfig(mode="fixed", stride=4),
                                          ScheduleConfig(mode="qc", qc_stride=3, threshold=1.0)], ids=["fixed", "qc"])
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_costs_rederivable_from_records(self, desk_weights, rng, kind, schedule):
        # the session prices a step from costs it computed at the prefill; they must be step_cost's
        prompt = rng.integers(0, 256, size=40).tolist()
        _, trace, _ = decode(DecodeSession(desk_weights, PolicyConfig(kind=kind, k=8), schedule), prompt, 20)
        for rec in trace:
            f, b = step_cost(rec.attended, desk_weights.config)
            assert (f, b) == (rec.attention_flops, rec.kv_bytes_moved)
            assert rec.attended == [40 if mode == "full" and kind != "refreshkv_no_full" else 8 for mode in rec.modes]
        assert {"full", "partial"} <= {mode for rec in trace for mode in rec.modes} or kind not in REFRESH_FAMILY

    def test_pooling_is_charged_at_the_width_that_runs(self, desk_weights, rng):
        # max_pool_1d pools with at most 2*m - 1 over m positions, so a wider kernel does the same work
        cfg, m = desk_weights.config, 41
        scores = rng.uniform(size=(2, m))
        assert np.array_equal(max_pool_1d(scores, 2 * m - 1), max_pool_1d(scores, 10**9 + 1))
        at_width = selection_overhead_flops(m, cfg, 2 * m - 1)
        assert selection_overhead_flops(m, cfg, 2 * m + 1) == selection_overhead_flops(m, cfg, 10**9 + 1) == at_width
        assert selection_overhead_flops(m, cfg, 2 * m - 3) == at_width - 2 * cfg.n_kv_heads * m
        # full steps at m = 42 and 44: a kernel of 2 * 44 - 1 spans both rows, like 10**9 + 1
        prompt = rng.integers(0, cfg.vocab_size, size=40).tolist()
        traces = [decode(DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=8, kernel_size=kernel),
                                       ScheduleConfig(mode="fixed", stride=2)), prompt, 4)[:2]
                  for kernel in (87, 10**9 + 1)]
        assert traces[0] == traces[1]

    def test_full_step_count_is_floor_n_over_s(self, desk_weights, rng):
        prompt = rng.integers(0, 256, size=32).tolist()
        for N, S in [(100, 10), (47, 5), (30, 7)]:
            _, trace, _ = decode(
                DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=6),
                              ScheduleConfig(mode="fixed", stride=S)),
                prompt, N,
            )
            for layer in range(desk_weights.config.n_layers):
                assert sum(1 for r in trace if r.modes[layer] == "full") == N // S


def tail_nlls(weights, policy, schedule, stream, tail):
    """The NLL of each of the stream's last `tail` tokens, predicted under `policy` as each is fed in turn."""
    _, _, logits = decode(DecodeSession(weights, policy, schedule), stream[:-tail], tail - 1, forced=stream[-tail:])
    return [nll_from_logits(z, token) for z, token in zip(logits, stream[-tail:], strict=True)]


class TestPerplexity:
    def test_uniform_logits_model_scores_vocab_size(self, desk_config, rng):
        weights = init_model(desk_config)
        weights.w_out = np.zeros_like(weights.w_out)  # all-zero logits: uniform
        stream = rng.integers(0, desk_config.vocab_size, size=48).tolist()
        ppl = nll_to_perplexity(tail_nlls(weights, PolicyConfig(kind="vanilla"), None, stream, 16))
        assert ppl == pytest.approx(desk_config.vocab_size, rel=1e-12)

    def test_vanilla_matches_from_scratch_tail(self, desk_weights, rng):
        stream = rng.integers(0, 256, size=56).tolist()
        tail = 12
        nlls = tail_nlls(desk_weights, PolicyConfig(kind="vanilla"), None, stream, tail)
        logits = full_forward(desk_weights, stream)
        expected = []
        for i in range(len(stream) - tail, len(stream)):
            row = logits[i - 1]
            z = row - row.max()
            expected.append(float(np.log(np.exp(z).sum()) - z[stream[i]]))
        np.testing.assert_allclose(nlls, expected, rtol=1e-9)

    def test_equivalence_ladder_preserves_perplexity(self, desk_weights, rng):
        stream = rng.integers(0, 256, size=48).tolist()
        base = tail_nlls(desk_weights, PolicyConfig(kind="vanilla"), None, stream, 12)
        same = tail_nlls(desk_weights, PolicyConfig(kind="refreshkv", k=36), ScheduleConfig(mode="fixed", stride=1),
                         stream, 12)
        assert nll_to_perplexity(same) == pytest.approx(nll_to_perplexity(base), rel=1e-9)

    def test_nll_to_perplexity(self):
        assert nll_to_perplexity([0.0, 0.0]) == 1.0
        with pytest.raises(ContractViolation):
            nll_to_perplexity([])


class TestRetainedMass:
    def test_top_k_maximizes_retained_mass(self, rng):
        # property: no size-k set beats the top-k set
        for _ in range(100):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, n + 1))
            row = rng.uniform(size=n)
            row /= row.sum()
            best = row[top_k_indices(row, k)].sum()
            for _ in range(10):
                other = rng.choice(n, size=k, replace=False)
                assert best >= row[other].sum() - 1e-12


class TestStepRecord:
    def test_json_round_trip(self):
        rec = StepRecord(
            step_index=3,
            token_id=77,
            modes=["full", "partial"],
            attended=[64, 8],
            view_lens=[65, 9],
            attention_flops=1234,
            kv_bytes_moved=5678,
            overhead_flops=9,
            similarities=[None, 0.25],
            retained_mass=0.5,
            nll=1.25,
        )
        again = StepRecord.from_json(rec.to_json())
        assert dataclasses.asdict(again) == dataclasses.asdict(rec)

    def test_effective_strides_from_trace(self, desk_weights, rng):
        prompt = rng.integers(0, 256, size=32).tolist()
        _, trace, _ = decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=6), ScheduleConfig(mode="fixed", stride=10)),
            prompt, 100,
        )
        assert per_layer_effective_strides(trace, 2) == [10.0, 10.0]
