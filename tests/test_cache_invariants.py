"""Cache invariants, property-tested across every policy kind and schedule.

After every decode step:
  - the full cache holds positions 0 .. L+i-1 (snapkv: the prompt, 0 .. L-1);
  - top-K policies that evict on append hold exactly k_sel entries per head
    (so the eviction after a full step, which appended nothing, has nothing
    to drop), and streaming and h2o hold at most the budget in their
    partial-cache arena;
  - every position a view attends is a position already seen, and every
    view holds the current position on every head;
  - each row a view attends carries the key/value the full cache holds
    at that position, wherever the full cache holds it (snapkv's
    generated positions live only in its partial cache).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kvrefresh.engine import DecodeSession
from kvrefresh.policies import POLICY_KINDS, TOP_K_KINDS, PolicyConfig
from kvrefresh.scheduler import ScheduleConfig

schedules = st.one_of(
    st.builds(ScheduleConfig, mode=st.just("fixed"), stride=st.integers(1, 6)),
    st.builds(
        ScheduleConfig,
        mode=st.just("qc"),
        qc_stride=st.integers(1, 4),
        threshold=st.sampled_from([-1.0, 0.0, 0.5, 0.9, 1.0]),
    ),
    st.sampled_from([ScheduleConfig(mode="fixed", stride=1), ScheduleConfig(mode="never_full")]),
)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(POLICY_KINDS),
    schedule=schedules,
    prompt_length=st.integers(4, 40),
    budget=st.integers(4, 48),
    n_steps=st.integers(1, 14),
    evict_on_append=st.sampled_from([None, True, False]),
    seed=st.integers(0, 2**16),
)
def test_invariants_hold_after_every_step(
    desk_weights, kind, schedule, prompt_length, budget, n_steps, evict_on_append, seed
):
    policy = PolicyConfig(kind=kind, k=budget, evict_on_append=evict_on_append)
    views = []
    session = DecodeSession(desk_weights, policy, schedule, recorder=views.append)
    attended = []  # (layer, per-head (positions, keys, values)) copied at the moment of attention
    provide = session._provide_view

    def snapshot(layer, *args):
        view = provide(layer, *args)
        attended.append((layer, [(p.copy(), k.copy(), v.copy()) for p, k, v in zip(view.positions, view.keys, view.values)]))
        return view

    session._provide_view = snapshot
    tokens = np.random.default_rng(seed).integers(0, desk_weights.config.vocab_size, prompt_length + n_steps)
    session.prefill(tokens[:prompt_length].tolist())
    L = prompt_length
    evicting = kind in TOP_K_KINDS and policy.resolved_evict_on_append()

    for i in range(1, n_steps + 1):
        views.clear()
        attended.clear()
        session.step(int(tokens[L + i - 1]))
        held = L if kind == "snapkv" else L + i
        for cf in session.full:
            np.testing.assert_array_equal(cf.positions, [np.arange(held)] * len(cf.keys))  # on every head
        if evicting:
            assert all(size == session.k_sel for cp in session.partial for size in cp.sizes())
        if kind in ("streaming", "h2o"):
            assert len(session.partial) == desk_weights.config.n_layers
            assert all(size <= session.budget for cp in session.partial for size in cp.sizes())
        current = L + i - 1
        view_events = [e for e in views if e["kind"] == "view"]
        assert len(view_events) == desk_weights.config.n_layers
        for event in view_events:
            for positions in event["positions"]:
                assert positions.size == np.unique(positions).size
                assert positions.max() <= current
                assert current in positions
        for layer, heads in attended:
            cf = session.full[layer]
            for h, (positions, keys, values) in enumerate(heads):
                held = positions < len(cf)  # the full cache holds positions 0 .. len-1 in slot order
                np.testing.assert_array_equal(keys[held], cf.keys[h, positions[held]])
                np.testing.assert_array_equal(values[held], cf.values[h, positions[held]])
