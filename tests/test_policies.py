import re
from types import SimpleNamespace

import numpy as np
import pytest

from kvrefresh import engine, model, policies
from kvrefresh.errors import ConfigurationError, ContractViolation
from kvrefresh.engine import DecodeSession, decode
from kvrefresh.kv_store import FullCache, PartialCache, init_partial
from kvrefresh.model import ModelConfig, StepOutput, init_model, prefill
from kvrefresh.numerics import max_pool_1d, top_k_indices
from kvrefresh.policies import (
    FULL_STEP,
    PARTIAL_STEP,
    POLICY_KINDS,
    H2OState,
    PolicyConfig,
    aggregate_group_scores,
    make_policy,
    refresh_layers,
    selection_scores,
)
from kvrefresh.scheduler import ScheduleConfig


def brute_force_top_k(scores, k):
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(ranked[:k])


def retained_mass(full_row, partial_positions):
    """Fraction of a normalised score row covered by the partial cache's positions, which index the row."""
    row = np.asarray(full_row, dtype=np.float64)
    idx = np.asarray(partial_positions, dtype=np.int64)
    if idx.size == 0:
        return 0.0
    if idx.min() < 0 or idx.max() >= row.size:
        raise ContractViolation("partial positions outside the score row")
    return float(row[idx].sum())


class TestRetainedMass:
    """The oracle the refresh report is checked against."""

    def test_everything_retained(self, rng):
        row = rng.uniform(size=10)
        row /= row.sum()
        assert retained_mass(row, np.arange(10)) == pytest.approx(1.0)

    def test_nothing_retained(self, rng):
        assert retained_mass(rng.uniform(size=5), []) == 0.0

    def test_positions_validated(self):
        with pytest.raises(ContractViolation):
            retained_mass(np.ones(3), [3])


def per_head_retained(sel, positions):
    """The per-head formula the refresh report replaced: normalise the whole row, then sum at the positions."""
    out = []
    for h in range(sel.shape[0]):
        norm = sel[h].sum()
        out.append(retained_mass(sel[h] / norm if norm > 0 else sel[h], positions[h]))
    return out


class TestAggregation:
    def test_single_head_identity(self, rng):
        row = rng.uniform(size=(1, 9))
        np.testing.assert_array_equal(aggregate_group_scores(row), row[0])

    def test_elementwise_max(self):
        rows = np.array([[0.2, 0.8], [0.6, 0.4]])
        np.testing.assert_allclose(aggregate_group_scores(rows), [0.6, 0.8])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ContractViolation):
            aggregate_group_scores(np.empty((0, 3)))


class TestSelectionScores:
    def test_degenerate_transforms_return_raw_row(self, rng):
        row = rng.uniform(size=(1, 12))
        np.testing.assert_array_equal(selection_scores([row], PolicyConfig(kernel_size=1))[0], row[0])

    def test_per_head_independence(self, rng):
        rows = [rng.uniform(size=(2, 10)) for _ in range(2)]
        cfg = PolicyConfig(kernel_size=3)
        out = selection_scores(rows, cfg)
        solo0 = selection_scores([rows[0]], cfg)
        np.testing.assert_allclose(out[0], solo0[0])

    def test_defaults_match_prompt_time_selection(self, desk_weights, rng):
        # selection with the default (max, kernel 7) config is exactly the
        # prompt-time top-K path a snapkv session takes
        prompt = rng.integers(0, desk_weights.config.vocab_size, size=40).tolist()
        session = DecodeSession(desk_weights, PolicyConfig(kind="snapkv", k=8))
        session.prefill(prompt)
        caches, out = prefill(desk_weights, prompt)
        for layer, (full, rows) in enumerate(zip(caches, out.attn_rows)):
            direct = PartialCache(full, np.arange(0))
            init_partial([full], selection_scores(rows, PolicyConfig()), 8, [direct])
            for h in range(2):
                np.testing.assert_array_equal(session.partial[layer].positions[h], direct.positions[h])


    @pytest.mark.parametrize("kernel", [1, 3, 7, 9])
    def test_batched_equals_per_head_bitwise(self, rng, kernel):
        cfg = PolicyConfig(kernel_size=kernel)
        for m in range(1, kernel + 4):
            rows = rng.uniform(size=(3, 2, m))
            per_head = np.stack([max_pool_1d(aggregate_group_scores(r), kernel) for r in rows])
            np.testing.assert_array_equal(selection_scores(rows, cfg), per_head)
            np.testing.assert_array_equal(selection_scores(list(rows), cfg), per_head)  # a per-head sequence too


class TestRefresh:
    """A refresh refills the layer's partial-cache arena in place; its report is O(K)."""

    @pytest.mark.parametrize("kind", ["refreshkv", "refreshkv_no_full"])
    def test_retained_mass_matches_per_head_formula_bitwise(self, desk_weights, rng, kind):
        events = []
        prompt = rng.integers(0, desk_weights.config.vocab_size, size=48).tolist()
        policy = PolicyConfig(kind=kind, k=8)
        _, trace, _ = decode(
            DecodeSession(desk_weights, policy, ScheduleConfig(mode="fixed", stride=4), events.append), prompt, 16,
        )
        refreshes = [e for e in events if e["kind"] == "refresh"]
        assert len(refreshes) == 4 * desk_weights.config.n_layers
        for event in refreshes:
            assert event["pre_retained"] == per_head_retained(event["selection"], event["pre_positions"])
            assert event["post_retained"] == per_head_retained(event["selection"], event["post_positions"])
        for rec in trace:
            post = [r for e in refreshes if e["step"] == rec.step_index for r in e["post_retained"]]
            assert rec.retained_mass == (float(np.mean(post)) if post else None)

    def test_refill_shares_memory_with_the_previous_arena(self, desk_weights, rng):
        prompt = rng.integers(0, desk_weights.config.vocab_size, size=40).tolist()
        schedule = ScheduleConfig(mode="fixed", stride=4)
        session = DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=8), schedule)
        session.prefill(prompt)
        before = [(cp.positions, cp.keys, cp.values) for cp in session.partial]
        refreshed = 0
        for token in prompt[:8]:
            _, rec = session.step(token)
            refreshed += rec.retained_mass is not None
            for cp, arrays in zip(session.partial, before):
                assert cp.sizes() == [8] * desk_weights.config.n_kv_heads
                assert all(np.shares_memory(now, then) for now, then in zip(
                    (cp.positions, cp.keys, cp.values), arrays))
        assert refreshed == 2

    def test_grow_only_cache_refreshes_to_k(self, desk_weights, rng):
        events = []
        prompt = rng.integers(0, desk_weights.config.vocab_size, size=40).tolist()
        policy = PolicyConfig(kind="refreshkv", k=8, evict_on_append=False)
        session = DecodeSession(desk_weights, policy, ScheduleConfig(mode="fixed", stride=4), recorder=events.append)
        session.prefill(prompt)
        n_kv = desk_weights.config.n_kv_heads
        for token in prompt[:12]:
            _, rec = session.step(token)
            refreshed = [e for e in events if e["kind"] == "refresh" and e["step"] == rec.step_index]
            for layer, cp in enumerate(session.partial):
                if not refreshed:
                    assert cp.sizes()[0] > 8  # partial steps since the last refresh only grew the cache
                    continue
                assert cp.sizes() == [8] * n_kv
                event = refreshed[layer]
                assert event["pre_positions"].shape[1] > 8
                sel = selection_scores(event["rows"], policy)
                for h in range(n_kv):
                    np.testing.assert_array_equal(np.sort(cp.positions[h]), brute_force_top_k(sel[h].tolist(), 8))
                    np.testing.assert_array_equal(cp.keys[h], session.full[layer].keys[h][cp.positions[h]])
        assert any(e["kind"] == "refresh" for e in events)

    def test_misaligned_full_step_rows_rejected(self, desk_weights, rng, monkeypatch):
        def rows_one_short(*args):
            out = model.decode_core(*args)
            out.attn_rows = [out.attn_rows[0], out.attn_rows[1][..., 1:]]
            return out

        monkeypatch.setattr(engine, "decode_core", rows_one_short)
        session = DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=8), ScheduleConfig(mode="fixed", stride=1))
        session.prefill(rng.integers(0, desk_weights.config.vocab_size, size=20).tolist())
        with pytest.raises(ContractViolation, match="full-step rows over 20 positions, the full cache holds 21"):
            session.step(3)


def per_layer_refresh(policy, layer, rows):
    """The per-layer refresh refresh_layers replaced: selection_scores -> top_k_indices -> stable argsort ->
    FullCache.gather -> a cache holding the gathered entries. Returns the selection, that cache and the
    retained mass per head (the selection at the held positions over its total, summed in cache order)."""
    sel = selection_scores(rows, policy.config)
    heads = np.arange(sel.shape[0])[:, None]
    idx = top_k_indices(sel, policy.k_sel)
    order = np.argsort(sel[heads, idx], axis=1, kind="stable")
    held = PartialCache(policy.full[layer], idx[heads, order])
    norm = sel.sum(axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    return sel, held, (np.take_along_axis(sel, held.positions, axis=1) / norm).sum(axis=1).tolist()


def assert_same_cache(got, want):
    """The same positions in the same order, the same key and value bytes, and the same newest position."""
    for a, b in [(got.positions, want.positions), (got.keys, want.keys), (got.values, want.values)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got._newest == want._newest


def plateau_rows(rng, n_kv, group, m):
    """Probability-like rows of a few levels, so max pooling leaves plateaus and ties sit at the top-K threshold;
    one kv head's rows are all zero, whose selection total is 0."""
    rows = rng.integers(0, 64, size=(n_kv, group, m)) // 6 / 16.0
    rows[rng.integers(n_kv)] = 0.0
    return rows


class TestBatchedRefresh:
    """refresh_layers ranks every layer's kv heads at once and refills each layer's arena straight from its
    full cache; every output equals the per-layer reference bit for bit."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 5, 24])
    def test_equals_the_per_layer_reference(self, rng, n_layers, k):
        weights = init_model(ModelConfig(n_layers=n_layers, seed=7))
        cfg, m = weights.config, 24
        subsets = [list(range(n_layers))] + [[layer] for layer in range(n_layers)] + [[0, n_layers - 1]] * (n_layers > 2)
        surplus = False
        for layers in subsets:
            events = []
            session = DecodeSession(weights, PolicyConfig(kind="refreshkv", k=k), recorder=events.append)
            session.prefill(rng.integers(0, cfg.vocab_size, m).tolist())  # full caches of m: k = 24 keeps them whole
            policy = session.cache_policy
            rows = [plateau_rows(rng, cfg.n_kv_heads, cfg.group_size, m) for _ in layers]
            pre = [session.partial[layer].positions.copy() for layer in layers]
            untouched = {layer: [a.copy() for a in (cp.positions, cp.keys, cp.values)]
                         for layer, cp in enumerate(session.partial) if layer not in layers}
            want = [per_layer_refresh(policy, layer, r) for layer, r in zip(layers, rows)]
            for sel, _, _ in want:  # ties at the threshold: more than k entries reach the k-th largest score
                surplus |= k < m and bool(((sel >= np.sort(sel, axis=1)[:, -k:][:, :1]).sum(axis=1) > k).any())
            masses = refresh_layers(policy, layers, 9, rows)
            assert [(e["kind"], e["layer"]) for e in events] == [("refresh", layer) for layer in layers]
            for layer, r, before, event, mass, (sel, held, retained) in zip(layers, rows, pre, events, masses, want,
                                                                           strict=True):
                assert_same_cache(policy.partial[layer], held)
                assert mass == retained
                assert event["step"] == 9 and event["k"] == k
                assert all(a.tobytes() == b.tobytes() for a, b in zip(event["rows"], r, strict=True))
                assert event["selection"].tobytes() == sel.tobytes()
                np.testing.assert_array_equal(event["pre_positions"], before)
                np.testing.assert_array_equal(event["post_positions"], held.positions)
                assert event["pre_retained"] == per_head_retained(sel, before)
                assert event["post_retained"] == retained == per_head_retained(sel, held.positions)
            for layer, arrays in untouched.items():
                cp = session.partial[layer]
                assert all(a.tobytes() == b.tobytes() for a, b in zip((cp.positions, cp.keys, cp.values), arrays))
        assert surplus or k == m

    def test_qc_refreshes_the_firing_layers_in_one_call_after_the_views(self, rng, monkeypatch):
        weights = init_model(ModelConfig(n_layers=3, seed=7))
        calls = []

        def spy(policy, layers, step, rows, _original=policies.refresh_layers):
            calls.append((step, list(layers)))
            return _original(policy, layers, step, rows)

        monkeypatch.setattr(policies, "refresh_layers", spy)
        events = []
        schedule = ScheduleConfig(mode="qc", qc_stride=2, threshold=0.0)
        session = DecodeSession(weights, PolicyConfig(kind="refreshkv", k=6), schedule, recorder=events.append)
        tokens = rng.integers(0, weights.config.vocab_size, 24 + 40).tolist()
        session.prefill(tokens[:24])
        subsets = 0
        for token in tokens[24:]:
            events.clear()
            _, rec = session.step(token)
            fired = [layer for layer, mode in enumerate(rec.modes) if mode == "full"]
            subsets += 0 < len(fired) < 3
            assert [(e["kind"], e["layer"]) for e in events] == [("view", layer) for layer in range(3)] + [
                ("refresh", layer) for layer in fired]
            assert calls == ([(rec.step_index, fired)] if fired else [])  # a step with no refresh calls nothing
            calls.clear()
            refreshes = [e for e in events if e["kind"] == "refresh"]
            for event in refreshes:
                layer = event["layer"]
                sel, held, retained = per_layer_refresh(session.cache_policy, layer, np.stack(event["rows"]))
                assert_same_cache(session.partial[layer], held)
                assert event["post_retained"] == retained
            post = [r for e in refreshes for r in e["post_retained"]]
            assert rec.retained_mass == (float(np.mean(post)) if post else None)
        assert subsets > 0  # steps where some layers refreshed and others did not


def streaming_arena(weights, rng, prompt_length, budget, n_steps=0):
    """A streaming session (4 sinks) after the prefill and n_steps decode steps, with each step's view lengths."""
    session = DecodeSession(weights, PolicyConfig(kind="streaming", n_sink=4, k=budget))
    tokens = rng.integers(0, weights.config.vocab_size, prompt_length + n_steps).tolist()
    session.prefill(tokens[:prompt_length])
    view_lens = [session.step(tok)[1].view_lens for tok in tokens[prompt_length:]]
    return session, view_lens


def assert_every_head_holds(session, expected):
    for cp in session.partial:
        for positions in cp.positions:
            np.testing.assert_array_equal(positions, expected)


class TestStreamingKeepset:
    def test_prompt_only(self, desk_weights, rng):
        session, _ = streaming_arena(desk_weights, rng, 10, budget=6)
        assert_every_head_holds(session, [0, 1, 2, 3, 8, 9])

    def test_under_capacity_keeps_everything(self, desk_weights, rng):
        session, view_lens = streaming_arena(desk_weights, rng, 5, budget=8, n_steps=3)
        assert_every_head_holds(session, np.arange(8))
        assert view_lens == [[6] * 2, [7] * 2, [8] * 2]

    def test_window_slides_with_generation(self, desk_weights, rng):
        session, _ = streaming_arena(desk_weights, rng, 10, budget=6)
        tokens = rng.integers(0, desk_weights.config.vocab_size, 3).tolist()
        for i, tok in enumerate(tokens, start=1):
            _, rec = session.step(tok)
            assert rec.view_lens == [7, 7]  # the budget plus the current position
            assert_every_head_holds(session, [0, 1, 2, 3, 8 + i, 9 + i])

    def test_budget_equal_to_sinks_drops_the_current_entry_every_step(self, desk_weights, rng):
        session, view_lens = streaming_arena(desk_weights, rng, 10, budget=4, n_steps=20)
        assert view_lens == [[5, 5]] * 20  # the sinks plus the current position, dropped after the step
        assert_every_head_holds(session, [0, 1, 2, 3])
        assert session.step_index == 20

    def test_budget_below_sinks_rejected(self, desk_weights, rng):
        with pytest.raises(ConfigurationError):
            streaming_arena(desk_weights, rng, 10, budget=3)


def h2o_state(last_token_row, budget):
    """The h2o policy of a one-layer session whose two-head full cache holds the prompt's positions.

    The prefill's rows for the layer are the one query row last_token_row,
    which the group aggregation passes through as the prompt's scores.
    """
    n = len(last_token_row)
    full = FullCache(2, n, 4)
    full.keys[:], full.values[:] = 0.0, 0.0
    session = SimpleNamespace(policy=PolicyConfig(kind="h2o", k=budget), cfg=None, recorder=None, full=[full],
                              input_length=n, budget=budget, k_sel=min(budget, n))
    out = StepOutput(np.zeros(1), [], [np.asarray(last_token_row, dtype=float).reshape(1, 1, n)])
    return H2OState(session, out)


def h2o_step(state, row_for):
    """One decode step: append the next position to the arena, then observe row_for(view positions)."""
    state.partial[0].append(int(state.keepset(0)[-1]) + 1, np.zeros((2, 4)), np.zeros((2, 4)))
    view = state.keepset(0).copy()
    state.step(0, row_for(view))
    assert (state.partial[0].positions == state.keepset(0)).all()  # every head holds the same set
    return view


class TestH2O:
    def test_uniform_attention_keeps_earliest_heavy_half(self):
        # equal cumulative scores tie-break toward lower positions
        state = h2o_state(np.full(12, 1 / 12), budget=6)
        np.testing.assert_array_equal(state.keepset(0)[:3], [0, 1, 2])
        for _ in range(5):
            h2o_step(state, lambda view: np.full(view.size, 1.0 / view.size))
            np.testing.assert_array_equal(state.keepset(0)[:3], [0, 1, 2])

    def test_under_budget_evicts_nothing(self):
        state = h2o_state(np.full(4, 0.25), budget=16)
        h2o_step(state, lambda view: np.full(5, 0.2))
        np.testing.assert_array_equal(state.keepset(0), np.arange(5))
        np.testing.assert_array_equal(state.partial[0].scores, [[0.45] * 4 + [0.2]])  # one row for every head

    def test_dominant_position_never_evicted(self):
        state = h2o_state(np.full(10, 0.1), budget=6)
        winner = 1  # inside the surviving heavy half
        assert winner in state.keepset(0)

        def row_for(view):
            row = np.full(view.size, 0.1 / (view.size - 1))
            row[np.where(view == winner)[0][0]] = 0.9
            return row

        for _ in range(20):
            h2o_step(state, row_for)
            assert winner in state.keepset(0)

    def test_budget_split_sizes(self):
        state = h2o_state(np.linspace(1, 0, 20), budget=8)
        keep = state.keepset(0)
        assert keep.size == 8
        # recent half: the 4 newest positions
        np.testing.assert_array_equal(keep[-4:], [16, 17, 18, 19])

    def test_mismatched_view_rejected(self):
        state = h2o_state(np.full(6, 1 / 6), budget=4)
        state.partial[0].append(6, np.zeros((2, 4)), np.zeros((2, 4)))
        with pytest.raises(ContractViolation):
            state.step(0, np.full(3, 0.3))


class TestPolicyObjects:
    def test_each_kind_builds_the_class_the_docstring_table_names(self, desk_weights, rng):
        table = dict(re.findall(r"^  (\w+) +(\w+)  ", policies.__doc__, re.MULTILINE))
        assert sorted(table) == sorted(POLICY_KINDS)
        prompt = rng.integers(0, desk_weights.config.vocab_size, 24).tolist()
        for kind, class_name in table.items():
            session = DecodeSession(desk_weights, PolicyConfig(kind=kind, k=8))
            out = session.prefill(prompt)
            assert type(make_policy(session, out)).__name__ == type(session.cache_policy).__name__ == class_name
        with pytest.raises(ConfigurationError, match="unknown policy kind 'bogus'"):  # before any policy is made
            DecodeSession(desk_weights, PolicyConfig(kind="bogus", k=8))

    @pytest.mark.parametrize(
        "kind, schedule, shared",
        [
            ("vanilla", None, FULL_STEP),
            ("streaming", None, PARTIAL_STEP),
            ("snapkv", None, PARTIAL_STEP),
            *[(kind, schedule, PARTIAL_STEP) for kind in ("refreshkv", "refreshkv_no_refresh", "refreshkv_no_full")
              for schedule in (ScheduleConfig(mode="fixed", stride=4), ScheduleConfig(mode="qc", qc_stride=4))],
        ],
    )
    def test_plain_steps_share_one_layer_step(self, desk_weights, rng, monkeypatch, kind, schedule, shared):
        """Every layer of a step that neither takes a full step nor runs a qc check reports the one shared
        LayerStep; vanilla's every step is such a full step."""
        session = DecodeSession(desk_weights, PolicyConfig(kind=kind, k=8), schedule)
        tokens = rng.integers(0, desk_weights.config.vocab_size, 24 + 5).tolist()
        session.prefill(tokens[:24])
        reported = []

        def spy(step, rows, _update=session.cache_policy.update):
            reported.append(_update(step, rows))
            return reported[-1]

        monkeypatch.setattr(session.cache_policy, "update", spy)
        for token in tokens[24:]:
            session.step(token)
        plain = [steps for step, steps in enumerate(reported, 1) if schedule is None or step % 4]
        assert len(plain) == (5 if schedule is None else 4)
        assert all(s is shared for steps in plain for s in steps)
        if schedule is not None:  # step 4 fires a full step or a qc check on every layer
            assert all(s is not shared for s in reported[3])


class TestPolicyConfig:
    def test_fraction_resolution(self):
        cfg = PolicyConfig(kind="refreshkv")  # default fraction 1/8
        assert cfg.resolve_budget(128) == 16
        assert cfg.resolve_budget(7) == 1  # floor, clamped to >= 1

    def test_absolute_budget_wins(self):
        assert PolicyConfig(kind="refreshkv", k=40).resolve_budget(128) == 40

    def test_evict_defaults_by_kind(self):
        assert PolicyConfig(kind="refreshkv").resolved_evict_on_append() is True
        assert PolicyConfig(kind="snapkv").resolved_evict_on_append() is False
        assert PolicyConfig(kind="snapkv", evict_on_append=True).resolved_evict_on_append() is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="nope"),
            dict(kind="refreshkv", kernel_size=-1),
            dict(kind="refreshkv", kernel_size=4),
            dict(kind="refreshkv", k=0),
            dict(kind="refreshkv", k=None, k_fraction=0.0),
            dict(kind="refreshkv", k=None, k_fraction=None),
            # k wins over k_fraction, which is range-checked all the same
            dict(kind="refreshkv", k=8, k_fraction=-3.0),
            dict(kind="refreshkv", k=8, k_fraction=float("nan")),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            PolicyConfig(**kwargs).validate()
