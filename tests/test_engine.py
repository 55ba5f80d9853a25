"""Session-level behavior: policy equivalences, cache dynamics, oracles."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from kvrefresh import engine
from kvrefresh.engine import DecodeSession, decode
from kvrefresh.errors import ConfigurationError, ContractViolation
from kvrefresh.metrics import score_pass_flops, selection_overhead_flops
from kvrefresh.model import full_forward, init_model, prefill
from kvrefresh.numerics import top_k_indices
from kvrefresh.policies import POLICY_KINDS, REFRESH_FAMILY, PolicyConfig, selection_scores
from kvrefresh.scheduler import ScheduleConfig


def toks(rng, cfg, n):
    return rng.integers(0, cfg.vocab_size, size=n).tolist()


def assert_logits_match(a, b, rtol=1e-9):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_allclose(x, y, rtol=rtol, atol=0.0)


# ------------------------------------------------------------------- oracles


def oracle_group_aggregate(rows):
    return [max(col) for col in zip(*rows)]


def oracle_pool(scores, kernel):
    m = len(scores)
    half = kernel // 2
    return [max(scores[max(0, i - half) : min(m, i + half + 1)]) for i in range(m)]


def oracle_top_k(scores, k):
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(ranked[:k])


def oracle_selection(rows_per_head, kernel, k):
    """Brute-force per-head selection: aggregate, pool, top-k."""
    out = []
    for rows in rows_per_head:
        agg = oracle_group_aggregate(rows.tolist())
        out.append(oracle_top_k(oracle_pool(agg, kernel), k))
    return out


# ------------------------------------------------------- equivalence ladder


class TestEquivalenceLadder:
    L, N = 48, 24

    @pytest.fixture()
    def prompt(self, desk_config, rng):
        return toks(rng, desk_config, self.L)

    @pytest.fixture()
    def vanilla_run(self, desk_weights, prompt):
        return decode(DecodeSession(desk_weights, PolicyConfig(kind="vanilla")), prompt, self.N)

    def test_refreshkv_full_budget_always_full(self, desk_weights, prompt, vanilla_run):
        ids_v, _, logits_v = vanilla_run
        ids, _, logits = decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=self.L),
                          ScheduleConfig(mode="fixed", stride=1)),
            prompt, self.N,
        )
        assert ids == ids_v
        assert_logits_match(logits, logits_v)

    def test_refreshkv_never_full_equals_snapkv(self, desk_weights, prompt):
        ids_s, trace_s, logits_s = decode(
            DecodeSession(desk_weights, PolicyConfig(kind="snapkv", k=12)), prompt, self.N,
        )
        ids_r, trace_r, logits_r = decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=12, evict_on_append=False),
                          ScheduleConfig(mode="never_full")),
            prompt, self.N,
        )
        assert ids_r == ids_s
        assert_logits_match(logits_r, logits_s)
        # same attended sets step by step
        for a, b in zip(trace_s, trace_r):
            assert a.view_lens == b.view_lens

    @pytest.mark.parametrize("kind", ["streaming", "h2o"])
    def test_oversized_recency_policies_equal_vanilla(self, desk_weights, prompt, vanilla_run, kind):
        ids_v, _, logits_v = vanilla_run
        ids, _, logits = decode(
            DecodeSession(desk_weights, PolicyConfig(kind=kind, k=self.L + self.N)), prompt, self.N,
        )
        assert ids == ids_v
        assert_logits_match(logits, logits_v)

    def test_snapkv_full_budget_equals_vanilla(self, desk_weights, prompt, vanilla_run):
        ids_v, _, logits_v = vanilla_run
        ids, _, logits = decode(DecodeSession(desk_weights, PolicyConfig(kind="snapkv", k=self.L)), prompt, self.N)
        # identical until eviction-free caches diverge... they never do: the
        # prompt-time selection keeps all L entries and the cache only grows
        assert ids == ids_v
        assert_logits_match(logits, logits_v)


# ---------------------------------------------------------- refresh dynamics


class TestRefreshDynamics:
    def test_full_step_right_after_prefill_matches_vanilla(self, desk_weights, rng):
        prompt = toks(rng, desk_weights.config, 32)
        events = []
        session = DecodeSession(
            desk_weights,
            PolicyConfig(kind="refreshkv", k=8),
            ScheduleConfig(mode="fixed", stride=1),  # full attention at the first step
            recorder=events.append,
        )
        out0 = session.prefill(prompt)
        tok = int(np.argmax(out0.logits))
        out, rec = session.step(tok)

        ids_v, _, logits_v = decode(DecodeSession(desk_weights, PolicyConfig(kind="vanilla")), prompt, 1)
        np.testing.assert_allclose(out.logits, logits_v[1], rtol=1e-9, atol=0.0)
        assert rec.modes == ["full", "full"]

    def test_partial_steps_grow_pending_and_keep_budget(self, desk_weights, rng):
        prompt = toks(rng, desk_weights.config, 40)
        session = DecodeSession(
            desk_weights, PolicyConfig(kind="refreshkv", k=10), ScheduleConfig(mode="fixed", stride=8)
        )
        out = session.prefill(prompt)
        tok = int(np.argmax(out.logits))
        for i in range(1, 8):
            out, rec = session.step(tok)
            tok = int(np.argmax(out.logits))
            assert rec.modes == ["partial", "partial"]
            # every partial step's key/value goes straight into the full cache
            assert all(len(cf) == 40 + i for cf in session.full)
            assert all(s == 10 for layer in session.partial for s in layer.sizes())
            assert rec.attended == [10, 10]  # cost is proportional to the budget
            assert rec.view_lens == [11, 11]
        out, rec = session.step(tok)
        assert rec.modes == ["full", "full"]
        assert all(len(cf) == 40 + 8 for cf in session.full)
        assert all(s == 10 for layer in session.partial for s in layer.sizes())

    def test_full_cache_holds_everything_after_finish(self, desk_weights, rng):
        prompt = toks(rng, desk_weights.config, 36)
        n = 17  # ends mid-stride, after partial steps since the last full one
        session = DecodeSession(
            desk_weights, PolicyConfig(kind="refreshkv", k=9), ScheduleConfig(mode="fixed", stride=5)
        )
        out = session.prefill(prompt)
        tok = int(np.argmax(out.logits))
        for _ in range(n):
            out, _ = session.step(tok)
            tok = int(np.argmax(out.logits))
        session.finish()
        for layer in range(desk_weights.config.n_layers):
            assert len(session.full[layer]) == 36 + n
            np.testing.assert_array_equal(
                session.full[layer].positions, [np.arange(36 + n)] * desk_weights.config.n_kv_heads
            )

    def test_refreshed_cache_matches_brute_force_oracle(self, desk_weights, rng):
        events = []
        prompt = toks(rng, desk_weights.config, 64)
        policy = PolicyConfig(kind="refreshkv", k=8)
        decode(
            DecodeSession(desk_weights, policy, ScheduleConfig(mode="fixed", stride=4), events.append), prompt, 40,
        )
        refreshes = [e for e in events if e["kind"] == "refresh"]
        assert len(refreshes) == 10 * desk_weights.config.n_layers
        for event in refreshes:
            expected = oracle_selection(event["rows"], policy.kernel_size, event["k"])
            for h, exp in enumerate(expected):
                # the oracle's set, held in eviction order: selection score ascending, ties toward the lower position
                sel = event["selection"][h]
                np.testing.assert_array_equal(event["post_positions"][h], sorted(exp, key=lambda p: (sel[p], p)))

    def test_refresh_never_reduces_selection_row_coverage(self, desk_weights, rng):
        events = []
        prompt = toks(rng, desk_weights.config, 64)
        decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=8), ScheduleConfig(mode="fixed", stride=6),
                          events.append),
            prompt, 36,
        )
        refreshes = [e for e in events if e["kind"] == "refresh"]
        assert refreshes
        for event in refreshes:
            for pre, post in zip(event["pre_retained"], event["post_retained"]):
                assert post >= pre - 1e-12

    def test_attended_positions_subset_of_seen(self, desk_weights, rng):
        prompt = toks(rng, desk_weights.config, 32)
        for kind, schedule in [
            ("vanilla", None),
            ("streaming", None),
            ("h2o", None),
            ("snapkv", None),
            ("refreshkv", ScheduleConfig(mode="fixed", stride=3)),
            ("refreshkv_no_full", ScheduleConfig(mode="fixed", stride=3)),
        ]:
            events = []
            decode(DecodeSession(desk_weights, PolicyConfig(kind=kind, k=8), schedule, events.append), prompt, 12)
            for event in (e for e in events if e["kind"] == "view"):
                seen_until = 32 + event["step"] - 1
                for positions in event["positions"]:
                    assert positions.size == np.unique(positions).size
                    assert positions.max() <= seen_until


# ------------------------------------------------------------------ h2o oracle


class H2OOracle:
    """Independent accumulator: dict-based, pure python."""

    def __init__(self, prefill_rows, budget):
        row = oracle_group_aggregate(np.vstack(prefill_rows).tolist())
        self.budget = budget
        self.sums = {pos: row[pos] for pos in range(len(row))}
        self.keep = sorted(self.sums)
        self._evict()

    def step(self, raw_rows, new_position):
        row = oracle_group_aggregate(np.vstack(raw_rows).tolist())
        view = self.keep + [new_position]
        assert len(row) == len(view)
        for pos, mass in zip(view, row):
            self.sums[pos] = self.sums.get(pos, 0.0) + mass
        self.keep = sorted(view)
        self._evict()
        return list(self.keep)

    def _evict(self):
        if len(self.keep) <= self.budget:
            return
        recent_n = self.budget - self.budget // 2
        heavy_n = self.budget // 2
        recent = self.keep[-recent_n:]
        candidates = self.keep[:-recent_n]
        ranked = sorted(candidates, key=lambda p: (-self.sums[p], p))
        self.keep = sorted(ranked[:heavy_n] + recent)


class TestH2OOracle:
    def test_keepsets_match_oracle_every_step(self, desk_weights, rng):
        prompt = toks(rng, desk_weights.config, 48)
        events = []
        session = DecodeSession(
            desk_weights, PolicyConfig(kind="h2o", k=12), recorder=events.append
        )
        out = session.prefill(prompt)
        oracles = [H2OOracle(out.attn_rows[layer], 12) for layer in range(2)]
        for layer in range(2):
            np.testing.assert_array_equal(session.cache_policy.keepset(layer), oracles[layer].keep)

        tok = int(np.argmax(out.logits))
        for step in range(1, 33):  # a 32-token run, checked at every step
            events.clear()
            out, _ = session.step(tok)
            tok = int(np.argmax(out.logits))
            h2o_events = [e for e in events if e["kind"] == "h2o"]
            assert len(h2o_events) == 2
            for event in h2o_events:
                expected = oracles[event["layer"]].step(
                    event["raw_rows"], int(event["view_positions"][-1])
                )
                np.testing.assert_array_equal(event["keepset"], expected)
                np.testing.assert_array_equal(
                    session.cache_policy.keepset(event["layer"]), expected
                )


# ------------------------------------------------------------------ ablations


class TestAblations:
    def test_no_refresh_leaves_partial_cache_untouched(self, desk_weights, rng):
        prompt = toks(rng, desk_weights.config, 40)
        session = DecodeSession(
            desk_weights,
            PolicyConfig(kind="refreshkv_no_refresh", k=10),
            ScheduleConfig(mode="fixed", stride=4),
        )
        out = session.prefill(prompt)
        tok = int(np.argmax(out.logits))
        for step in range(1, 13):
            before = [
                [p.copy() for p in session.partial[layer].positions] for layer in range(2)
            ]
            out, rec = session.step(tok)
            tok = int(np.argmax(out.logits))
            if rec.modes[0] == "full":
                for layer in range(2):
                    for h in range(2):
                        np.testing.assert_array_equal(
                            session.partial[layer].positions[h], before[layer][h]
                        )

    def test_no_refresh_with_never_full_degenerates_to_snapkv(self, desk_weights, rng):
        prompt = toks(rng, desk_weights.config, 40)
        ids_s, _, logits_s = decode(DecodeSession(desk_weights, PolicyConfig(kind="snapkv", k=10)), prompt, 16)
        ids_a, _, logits_a = decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv_no_refresh", k=10, evict_on_append=False),
                          ScheduleConfig(mode="never_full")),
            prompt, 16,
        )
        assert ids_a == ids_s
        assert_logits_match(logits_a, logits_s)

    def test_no_refresh_diverges_from_refreshkv_only_after_first_full_step(
        self, desk_weights, rng
    ):
        prompt = toks(rng, desk_weights.config, 64)
        events_r, events_a = [], []
        stride = 5
        decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=8),
                          ScheduleConfig(mode="fixed", stride=stride), events_r.append),
            prompt, 20,
        )
        decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv_no_refresh", k=8),
                          ScheduleConfig(mode="fixed", stride=stride), events_a.append),
            prompt, 20,
        )

        def views_by_step(events):
            out = {}
            for e in events:
                if e["kind"] == "view":
                    out.setdefault(e["step"], []).append([p.tolist() for p in e["positions"]])
            return out

        vr, va = views_by_step(events_r), views_by_step(events_a)
        for step in range(1, stride + 1):  # identical until the first full step fires
            assert vr[step] == va[step]
        assert any(vr[s] != va[s] for s in range(stride + 1, 21))

    def test_no_full_keeps_budget_and_selects_like_full_step(self, desk_weights, rng):
        prompt = toks(rng, desk_weights.config, 48)
        events_f, events_n = [], []
        for kind, sink in [("refreshkv", events_f), ("refreshkv_no_full", events_n)]:
            session = DecodeSession(
                desk_weights, PolicyConfig(kind=kind, k=8),
                ScheduleConfig(mode="fixed", stride=3), recorder=sink.append,
            )
            out = session.prefill(prompt)
            tok = int(np.argmax(out.logits))
            for _ in range(3):  # identical partial prefix, first scheduled step at 3
                out, rec = session.step(tok)
                tok = int(np.argmax(out.logits))
            assert all(s == 8 for layer in session.partial for s in layer.sizes())
        # the first layer sees identical inputs in both policies at that step, so the ablation's observation
        # rows are the full step's rows over the positions before the current one (it scores the full cache
        # before the step's write), renormalised, and its refreshed selection is their top-K
        # (deeper layers legitimately diverge: their inputs already differ)
        ef = next(e for e in events_f if e["kind"] == "refresh" and e["layer"] == 0)
        en = next(e for e in events_n if e["kind"] == "refresh" and e["layer"] == 0)
        before = [rows[:, :-1] / rows[:, :-1].sum(axis=1, keepdims=True) for rows in ef["rows"]]
        expected = top_k_indices(selection_scores(before, PolicyConfig(kind="refreshkv_no_full", k=8)), 8)
        for h in range(2):
            np.testing.assert_allclose(en["rows"][h], before[h], rtol=1e-12)
            np.testing.assert_array_equal(np.sort(en["post_positions"][h]), expected[h])

    def test_no_full_refresh_view_is_the_refreshed_top_k(self, desk_weights, rng):
        # at a refresh step refreshkv_no_full refreshes from the full cache as it stood before the step's write,
        # over the positions before the current one, then appends the current entry as every partial step does:
        # the view is the refreshed top-K followed by the current token, K+1 entries on every head
        events = []
        session = DecodeSession(desk_weights, PolicyConfig(kind="refreshkv_no_full", k=4),
                                ScheduleConfig(mode="fixed", stride=2), recorder=events.append)
        session.prefill(toks(rng, desk_weights.config, 48))
        refreshed = 0
        for token in toks(rng, desk_weights.config, 20):
            events.clear()
            _, rec = session.step(token)
            refreshes = {e["layer"]: e for e in events if e["kind"] == "refresh"}
            views = {e["layer"]: e["positions"] for e in events if e["kind"] == "view"}
            position = 48 + rec.step_index - 1  # the step's position, after the 48-token prompt
            assert set(refreshes) == {layer for layer, mode in enumerate(rec.modes) if mode == "full"}
            for layer, event in refreshes.items():
                assert event["selection"].shape[1] == position  # scored positions 0 .. current - 1
                np.testing.assert_array_equal(views[layer][:, :-1], event["post_positions"])
                assert rec.view_lens[layer] == 5
                refreshed += 1
            scored, cfg = position, desk_weights.config  # charged at the length the refresh scored
            cost = score_pass_flops(scored, cfg) + selection_overhead_flops(scored, cfg, 7)
            assert rec.overhead_flops == len(refreshes) * cost
            for layer in views:  # every step appends the current entry
                assert (views[layer][:, -1] == position).all()
        assert refreshed == 10 * desk_weights.config.n_layers

    def test_no_full_approaches_full_step_as_retained_mass_grows(self, desk_weights, rng):
        # limiting case, qualitative: the more of the full row the refreshed
        # partial cache covers, the closer the ablation's output is to the
        # true full-attention step from the same state
        prompt = toks(rng, desk_weights.config, 48)

        def gap_and_mass(k):
            results = {}
            for kind in ("refreshkv", "refreshkv_no_full"):
                events = []
                session = DecodeSession(
                    desk_weights, PolicyConfig(kind=kind, k=k),
                    ScheduleConfig(mode="fixed", stride=3), recorder=events.append,
                )
                out = session.prefill(prompt)
                tok = int(np.argmax(out.logits))
                for _ in range(3):
                    out, _ = session.step(tok)
                    tok = int(np.argmax(out.logits))
                results[kind] = (out.logits, [e for e in events if e["kind"] == "refresh"])
            full_logits = results["refreshkv"][0]
            ablat_logits, refreshes = results["refreshkv_no_full"]
            gap = np.max(np.abs(full_logits - ablat_logits)) / np.max(np.abs(full_logits))
            mass = min(min(e["post_retained"]) for e in refreshes)
            return gap, mass

        gap_hi, mass_hi = gap_and_mass(46)
        gap_mid, mass_mid = gap_and_mass(24)
        gap_lo, mass_lo = gap_and_mass(6)
        assert mass_hi > 0.9 > mass_mid > mass_lo
        assert gap_hi < gap_mid < gap_lo
        assert gap_hi < 0.5

    def test_no_full_differs_from_no_refresh_when_selection_changes(self, desk_weights, rng):
        prompt = toks(rng, desk_weights.config, 64)
        _, _, logits_n = decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv_no_full", k=6),
                          ScheduleConfig(mode="fixed", stride=4)),
            prompt, 16,
        )
        _, _, logits_r = decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv_no_refresh", k=6),
                          ScheduleConfig(mode="fixed", stride=4)),
            prompt, 16,
        )
        assert any(not np.allclose(a, b, rtol=1e-9) for a, b in zip(logits_n, logits_r))


# ----------------------------------------------------------------- qc details


class TestQCScheduling:
    def test_full_steps_only_on_qc_boundaries(self, desk_weights, rng):
        prompt = toks(rng, desk_weights.config, 48)
        _, trace, _ = decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=8),
                          ScheduleConfig(mode="qc", qc_stride=5, threshold=0.999)),
            prompt, 30,
        )
        for rec in trace:
            if rec.step_index % 5 != 0:
                assert rec.modes == ["partial", "partial"]
                assert rec.similarities == [None, None]
            else:
                assert all(s is not None for s in rec.similarities)

    def test_layers_can_disagree_under_qc(self, desk_weights, rng):
        prompt = toks(rng, desk_weights.config, 48)
        # probe the similarities at the first boundary, then split them; no
        # full step precedes step 4, so they do not depend on the threshold
        _, probe, _ = decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=8),
                          ScheduleConfig(mode="qc", qc_stride=4, threshold=0.5)),
            prompt, 4,
        )
        sims = probe[-1].similarities
        assert sims[0] != sims[1]
        split = float(np.mean(sims))
        _, trace, _ = decode(
            DecodeSession(desk_weights, PolicyConfig(kind="refreshkv", k=8),
                          ScheduleConfig(mode="qc", qc_stride=4, threshold=split)),
            prompt, 4,
        )
        modes = trace[-1].modes
        assert sorted(modes) == ["full", "partial"]

    def test_reference_query_changes_exactly_at_full_steps(self, desk_weights, rng):
        # qc, the one schedule that reads the reference: threshold 0.5 mixes full and partial boundaries
        prompt = toks(rng, desk_weights.config, 40)
        session = DecodeSession(
            desk_weights, PolicyConfig(kind="refreshkv", k=8),
            ScheduleConfig(mode="qc", qc_stride=2, threshold=0.5),
        )
        out = session.prefill(prompt)
        refs = [q.copy() for q in session.cache_policy.reference_query]
        tok = int(np.argmax(out.logits))
        seen = set()
        for _ in range(16):
            out, rec = session.step(tok)
            tok = int(np.argmax(out.logits))
            for layer, reference_query in enumerate(session.cache_policy.reference_query):
                changed = not np.array_equal(refs[layer], reference_query)
                assert changed == (rec.modes[layer] == "full")
                seen.add((rec.modes[layer], rec.similarities[layer] is not None))
                refs[layer] = reference_query.copy()
        assert seen == {("full", True), ("partial", True), ("partial", False)}


# ------------------------------------------------------------------- misc


class TestSessionContracts:
    def test_step_before_prefill_rejected(self, desk_weights):
        session = DecodeSession(desk_weights, PolicyConfig(kind="vanilla"))
        with pytest.raises(ContractViolation):
            session.step(0)

    def test_double_prefill_rejected(self, desk_weights, rng):
        session = DecodeSession(desk_weights, PolicyConfig(kind="vanilla"))
        session.prefill(toks(rng, desk_weights.config, 4))
        with pytest.raises(ContractViolation):
            session.prefill([1, 2])

    @pytest.mark.parametrize("policy", [PolicyConfig(kind="streaming", k=3, n_sink=4),
                                        PolicyConfig(kind="streaming", k_fraction=0.125, n_sink=4)],
                             ids=["k", "fraction"])
    def test_streaming_budget_below_n_sink_is_rejected_before_the_model_runs(self, desk_weights, rng, monkeypatch,
                                                                              policy):
        # a budget of 3 (k, or floor(0.125 * 24)) is below n_sink = 4: nothing runs, and the session stays unprefilled
        ran = []
        monkeypatch.setattr(engine, "model_prefill", lambda *args: ran.append(args) or prefill(*args))
        session = DecodeSession(desk_weights, policy)
        for _ in range(2):  # a retry meets the same check, not "session already prefilled"
            with pytest.raises(ConfigurationError, match="streaming budget 3 smaller than n_sink 4"):
                session.prefill(toks(rng, desk_weights.config, 24))
        assert not ran and session.input_length is None and session.cache_policy is None
        with pytest.raises(ContractViolation, match="prefill the session before stepping"):
            session.step(0)
        if policy.k is None:  # a prompt whose budget holds the sinks prefills the same session
            session.prefill(toks(rng, desk_weights.config, 32))
            assert len(ran) == 1 and session.budget == 4
            _, rec = session.step(0)
            assert rec.view_lens == [4 + 1] * desk_weights.config.n_layers  # the budget and the current token

    def test_forced_decode_feeds_the_forced_tokens(self, desk_weights, rng):
        stream = toks(rng, desk_weights.config, 64)
        fed, trace, logits = decode(DecodeSession(desk_weights, PolicyConfig(kind="vanilla")), stream[:48], 15,
                                    forced=stream[48:])
        assert fed == [rec.token_id for rec in trace] == stream[48:63]
        assert [rec.step_index for rec in trace] == list(range(1, 16))
        assert len(logits) == 16 and all(z.shape == (desk_weights.config.vocab_size,) for z in logits)

    @pytest.mark.parametrize("policy, schedule", [(PolicyConfig(kind="vanilla"), None),
                                                  (PolicyConfig(kind="h2o", k=8), None),
                                                  (PolicyConfig(kind="refreshkv", k=8),
                                                   ScheduleConfig(mode="qc", qc_stride=2, threshold=0.5))],
                             ids=["vanilla", "h2o", "refreshkv-qc"])
    def test_forcing_a_greedy_decode_s_tokens_replays_it_bitwise(self, desk_weights, rng, policy, schedule):
        # decode's one branch: feeding the argmax and feeding the same tokens as `forced` are the same run
        prompt = toks(rng, desk_weights.config, 40)
        fed, trace, logits = decode(DecodeSession(desk_weights, policy, schedule), prompt, 20)
        again, trace_again, logits_again = decode(DecodeSession(desk_weights, policy, schedule), prompt, 20, forced=fed)
        assert again == fed and trace_again == trace
        assert all(a.tobytes() == b.tobytes() for a, b in zip(logits_again, logits, strict=True))
        if schedule is not None:  # threshold 0.5 mixes full and partial qc boundaries
            assert {mode for rec in trace for mode in rec.modes} == {"full", "partial"}

    @pytest.mark.parametrize("schedule", [ScheduleConfig(mode="fixed", stride=2),
                                          ScheduleConfig(mode="qc", qc_stride=2, threshold=1.0)], ids=["fixed", "qc"])
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_a_session_after_a_refresh_step_is_freed_without_the_cycle_collector(self, desk_weights, rng, kind,
                                                                               schedule):
        # the session holds its policy and caches, and nothing of theirs may point back into a cycle
        session = DecodeSession(desk_weights, PolicyConfig(kind=kind, k=6), schedule)
        session.prefill(toks(rng, desk_weights.config, 12))
        for token in toks(rng, desk_weights.config, 4):  # the last step is full for the scheduled kinds
            _, rec = session.step(token)
        assert ("full" in rec.modes) == (kind in REFRESH_FAMILY or kind == "vanilla")
        policy = weakref.ref(session.cache_policy)
        cache = weakref.ref(session.partial[0] if session.partial else session.full[0])
        gc.disable()
        try:
            del session
            assert policy() is None and cache() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_the_policy_leaves_the_prefill_output_untouched(self, desk_weights, rng, kind):
        # the policy reads the prefill's rows and queries, from its construction on; one prefill could then
        # seed many sessions. A separate prefill of the same prompt gives the rows and queries as they came out.
        prompt = toks(rng, desk_weights.config, 16)
        _, fresh = prefill(desk_weights, prompt)
        before = fresh.attn_rows + fresh.queries
        session = DecodeSession(desk_weights, PolicyConfig(kind=kind, k=6), ScheduleConfig(mode="fixed", stride=3))
        out = session.prefill(prompt)

        def assert_untouched():
            arrays = out.attn_rows + out.queries
            assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(arrays, before, strict=True))
            assert not any(np.shares_memory(arena, a) for cp in session.partial for arena in cp._arrays for a in arrays)

        assert_untouched()
        for token in toks(rng, desk_weights.config, 7):
            session.step(token)
            assert_untouched()
        assert len(session.partial) == (0 if kind == "vanilla" else desk_weights.config.n_layers)


# -------------------------------------------------------------------- arenas


def capture_views(session):
    """Record (layer, view, window) for each view as the session hands it to attention: the view is a
    cache, and its window (keys, values, positions) is taken then, before the step's evictions move it."""
    seen = []
    provide = session._provide_view

    def wrapped(layer, *args):
        view = provide(layer, *args)
        seen.append((layer, view, (view.keys, view.values, view.positions)))
        return view

    session._provide_view = wrapped
    return seen


class TestArena:
    @pytest.mark.parametrize("kind", ["vanilla", "refreshkv", "snapkv", "streaming", "h2o"])
    def test_views_read_the_arenas_without_a_copy(self, desk_weights, rng, kind):
        schedule = ScheduleConfig(mode="fixed", stride=3) if kind == "refreshkv" else None
        session = DecodeSession(desk_weights, PolicyConfig(kind=kind, k=8), schedule)
        seen = capture_views(session)
        stream = toks(rng, desk_weights.config, 30)
        session.prefill(stream[:20])
        modes = set()
        for tok in stream[20:]:
            seen.clear()
            _, rec = session.step(tok)
            for layer, view, (keys, values, positions) in seen:
                modes.add(rec.modes[layer])
                # at the moment of attention: full views read the full-cache arena, partial views the partial one
                store = session.full[layer] if rec.modes[layer] == "full" else session.partial[layer]
                assert view is store  # the view is the layer's cache itself
                for h in range(desk_weights.config.n_kv_heads):
                    assert np.shares_memory(keys[h], store.keys)
                    assert np.shares_memory(values[h], store.values)
                    assert len(keys[h]) == len(values[h]) == len(positions[h]) == rec.view_lens[layer]
        assert modes == ({"full"} if kind == "vanilla" else {"full", "partial"} if kind == "refreshkv" else {"partial"})

    @pytest.mark.parametrize("kind", ["vanilla", "refreshkv", "snapkv", "streaming", "h2o"])
    def test_key_arenas_are_key_major(self, desk_weights, rng, kind):
        # each head's keys are one C-contiguous (head_dim, slots) block, so attention's q @ keys[h].T is an NN GEMM
        def assert_key_major(keys):
            for h in range(desk_weights.config.n_kv_heads):
                assert keys[h].T.flags.c_contiguous

        schedule = ScheduleConfig(mode="fixed", stride=3) if kind == "refreshkv" else None
        session = DecodeSession(desk_weights, PolicyConfig(kind=kind, k=8), schedule)
        seen = capture_views(session)
        stream = toks(rng, desk_weights.config, 20 + 16)  # 20 -> 40 slots at the first decode step
        session.prefill(stream[:20])
        for cache in session.full:
            assert_key_major(cache.keys)  # the prefill wrote its keys into the whole arena
        for tok in stream[20:]:
            seen.clear()
            session.step(tok)
            for layer, _, (keys, _, _) in seen:
                assert_key_major(session.full[layer]._arrays[0])
                if session.partial:
                    assert_key_major(session.partial[layer]._arrays[0])
                for h in range(desk_weights.config.n_kv_heads):
                    assert keys[h].T.strides[1] == keys.itemsize  # a row-major prefix of the arena
        if kind != "snapkv":  # snapkv keeps only its prompt in the full cache
            assert all(cache._arrays[0].shape[1] == 40 for cache in session.full)  # the arena doubled

    def test_full_cache_growth_past_two_doublings_matches_full_forward(self, desk_weights, rng):
        stream = toks(rng, desk_weights.config, 33 + 40)
        session = DecodeSession(desk_weights, PolicyConfig(kind="vanilla"))
        logits = [session.prefill(stream[:33]).logits]
        logits += [session.step(tok)[0].logits for tok in stream[33:-1]]
        assert session.full[0]._arrays[0].shape[1] == 4 * 33  # 33 -> 66 -> 132 slots
        ref = full_forward(desk_weights, stream[:-1])[32:]
        assert np.max(np.abs(np.array(logits) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_grow_only_partial_cache_outgrowing_its_arena_changes_nothing(self, desk_weights, rng):
        n_steps = 40  # a K=8 cache starts in 16 slots: the 9th append moves it into 32, the 25th into 64
        stream = toks(rng, desk_weights.config, 20 + n_steps)

        def run(roomy):
            session = DecodeSession(desk_weights, PolicyConfig(kind="snapkv", k=8))
            logits = [session.prefill(stream[:20]).logits]
            if roomy:  # room for every step from the start: arenas of 2 * (8 + n_steps) slots
                for cp in session.partial:
                    cp._resize(8 + n_steps, 8)
            logits += [session.step(tok)[0].logits for tok in stream[20:]]
            return session, logits

        grown, logits = run(False)
        for cp in grown.partial:
            assert cp.sizes() == [8 + n_steps] * desk_weights.config.n_kv_heads
            assert cp._arrays[0].shape[1] == 64  # the full window moved into arenas twice its size, twice
            assert (cp.positions[:, 8:] == np.arange(20, 20 + n_steps)).all()
        roomy, roomy_logits = run(True)
        assert all(cp._arrays[0].shape[1] == 2 * (8 + n_steps) for cp in roomy.partial)
        assert np.array_equal(logits, roomy_logits)
        for a, b in zip(grown.partial, roomy.partial):
            assert np.array_equal(a.keys, b.keys) and np.array_equal(a.positions, b.positions)


class TestGrowingRopeTable:
    def test_decoding_across_two_growths_matches_full_forward(self, desk_config, rng):
        weights = init_model(desk_config)
        stream = toks(rng, desk_config, 20 + 50)
        session = DecodeSession(weights, PolicyConfig(kind="vanilla"))
        logits, rows = [session.prefill(stream[:20]).logits], [len(weights.rope)]
        for tok in stream[20:]:
            logits.append(session.step(tok)[0].logits)
            rows.append(len(weights.rope))
        assert sorted(set(rows)) == [32, 64, 128]  # positions 32 and 64 each grew the table
        ref = full_forward(init_model(desk_config), stream)[19:]
        assert np.max(np.abs(np.array(logits) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_sessions_sharing_weights_step_alternately_as_each_alone(self, desk_config, rng):
        stream = toks(rng, desk_config, 160)
        # (policy, schedule, prompt length, steps): the first feeds positions up to 49, the second up to 159
        runs = [(PolicyConfig(kind="refreshkv", k=8), ScheduleConfig(mode="fixed", stride=4), 20, 30),
                (PolicyConfig(kind="streaming", k=16), None, 100, 60)]

        def outputs(weights, policy, schedule, length, n_steps):
            """The prefill's logits, then each step's logits and trace line, one item per call."""
            session = DecodeSession(weights, policy, schedule)
            yield session.prefill(stream[:length]).logits, None
            for tok in stream[length : length + n_steps]:
                out, rec = session.step(tok)
                yield out.logits, rec.to_json()

        alone = [list(outputs(init_model(desk_config), *run)) for run in runs]
        shared = init_model(desk_config)
        together, rows = [[] for _ in runs], []
        for items in itertools.zip_longest(*(outputs(shared, *run) for run in runs)):
            for got, item in zip(together, items):
                if item is not None:
                    got.append(item)
            rows.append(len(shared.rope))
        # the second session's step 29 (position 128) grew the table, between the first one's steps 29 and 30
        assert rows[28:30] == [128, 256] and len(together[0]) == 31
        for got, ref in zip(together, alone, strict=True):
            assert [rec for _, rec in got] == [rec for _, rec in ref]
            assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(got, ref, strict=True))
