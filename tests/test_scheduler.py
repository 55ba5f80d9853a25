import numpy as np
import pytest

from kvrefresh.errors import ConfigurationError
from kvrefresh.metrics import per_layer_effective_strides
from kvrefresh.scheduler import (
    LayerScheduleState,
    ScheduleConfig,
    effective_stride,
    should_full,
)


def state_with(ref):
    return LayerScheduleState(reference_query=np.asarray(ref, dtype=float))


def qc_decisions(queries, reference, qc_stride, threshold):
    """should_full at generated steps 1, 2, ... for a fixed reference query."""
    cfg = ScheduleConfig(mode="qc", qc_stride=qc_stride, threshold=threshold)
    st = state_with(reference)
    return [should_full(st, i + 1, q, cfg) for i, q in enumerate(queries)]


class TestShouldFull:
    def test_fixed_fires_on_multiples(self):
        cfg = ScheduleConfig(mode="fixed", stride=10)
        st = state_with([1.0, 0.0])
        fired = [i for i in range(1, 101) if should_full(st, i, np.array([1.0, 0.0]), cfg)]
        assert fired == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]

    def test_always_and_never(self):
        st = state_with([1.0])
        assert all(
            should_full(st, i, np.array([1.0]), ScheduleConfig(mode="always_full"))
            for i in range(1, 20)
        )
        assert not any(
            should_full(st, i, np.array([1.0]), ScheduleConfig(mode="never_full"))
            for i in range(1, 20)
        )

    def test_qc_threshold_above_one_fires_every_boundary(self, rng):
        cfg = ScheduleConfig(mode="qc", qc_stride=5, threshold=1.0 + 1e-9)
        st = state_with(rng.normal(size=8))
        fired = [i for i in range(1, 51) if should_full(st, i, st.reference_query, cfg)]
        assert fired == [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]

    def test_qc_threshold_minus_one_never_fires(self, rng):
        cfg = ScheduleConfig(mode="qc", qc_stride=5, threshold=-1.0)
        st = state_with(rng.normal(size=8))
        q = -st.reference_query  # similarity exactly -1, and the rule is strict "<"
        assert not any(should_full(st, i, q, cfg) for i in range(1, 51))

    def test_qc_only_fires_on_boundaries(self, rng):
        cfg = ScheduleConfig(mode="qc", qc_stride=7, threshold=0.99)
        st = state_with(rng.normal(size=8))
        for i in range(1, 70):
            if i % 7 != 0:
                assert not should_full(st, i, rng.normal(size=8), cfg)

    def test_tie_at_threshold_stays_partial(self):
        cfg = ScheduleConfig(mode="qc", qc_stride=1, threshold=1.0)
        st = state_with([1.0, 0.0])
        assert not should_full(st, 1, np.array([2.0, 0.0]), cfg)  # similarity exactly 1.0

    def test_pure_function_replays_identically(self, rng):
        cfg = ScheduleConfig(mode="qc", qc_stride=3, threshold=0.5)
        st = state_with(rng.normal(size=8))
        queries = [rng.normal(size=8) for _ in range(30)]
        first = [should_full(st, i + 1, q, cfg) for i, q in enumerate(queries)]
        second = [should_full(st, i + 1, q, cfg) for i, q in enumerate(queries)]
        assert first == second


class TestReplayMonotonicity:
    def test_raising_threshold_only_adds_full_steps(self, rng):
        reference = rng.normal(size=8)
        queries = [rng.normal(size=8) for _ in range(120)]
        for lo, hi in [(-0.5, 0.0), (0.0, 0.7), (0.7, 0.99), (-1.0, 1.0)]:
            fired_lo = qc_decisions(queries, reference, 5, lo)
            fired_hi = qc_decisions(queries, reference, 5, hi)
            for a, b in zip(fired_lo, fired_hi):
                assert (not a) or b  # fired at low threshold => fired at high

    def test_replay_respects_boundaries(self):
        queries = [np.array([0.0, 1.0])] * 10  # similarity 0.0 to the reference at every step
        fired = qc_decisions(queries, [1.0, 0.0], 4, 0.9)
        assert [i + 1 for i, f in enumerate(fired) if f] == [4, 8]


class TestEffectiveStride:
    def test_fixed_ten_over_hundred(self):
        assert effective_stride(10, 100) == 10.0

    def test_zero_events_is_none(self):
        assert effective_stride(0, 50) is None

    def test_from_trace_counts_full_modes(self):
        class Rec:
            def __init__(self, modes):
                self.modes = modes

        trace = [Rec(["full", "partial"]) if i % 10 == 9 else Rec(["partial", "partial"]) for i in range(100)]
        assert per_layer_effective_strides(trace, 2) == [10.0, None]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="nope"),
            dict(mode="fixed", stride=0),
            dict(mode="qc", qc_stride=0),
            dict(mode="qc", threshold=1.5),
            dict(mode="qc", threshold=-1.5),
            dict(mode="qc", threshold=float("nan")),
            dict(mode="qc", threshold=float("inf")),
            dict(mode="qc", threshold="nan"),
            dict(mode="qc", threshold=True),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            ScheduleConfig(**kwargs).validate()

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 0.85, 1.0])
    def test_threshold_range_is_closed(self, threshold):
        ScheduleConfig(mode="qc", threshold=threshold).validate()
