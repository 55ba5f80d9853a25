import numpy as np
import pytest

from kvrefresh.errors import ConfigurationError
from kvrefresh.metrics import per_layer_effective_strides
from kvrefresh.numerics import cosine_similarity
from kvrefresh.scheduler import ScheduleConfig, decide, effective_stride, mean_query


def full_at(reference, step, query, cfg):
    """decide's choice for one query vector, as the one query head of a layer (its mean is itself)."""
    return decide(cfg, step, np.asarray(query, dtype=float)[None], np.asarray(reference, dtype=float))[0]


def qc_decisions(queries, reference, qc_stride, threshold):
    """decide's choices at generated steps 1, 2, ... for a fixed reference query."""
    cfg = ScheduleConfig(mode="qc", qc_stride=qc_stride, threshold=threshold)
    return [full_at(reference, i + 1, q, cfg) for i, q in enumerate(queries)]


class TestDecide:
    def test_fixed_fires_on_multiples(self):
        cfg = ScheduleConfig(mode="fixed", stride=10)
        fired = [i for i in range(1, 101) if decide(cfg, i, None, None)[0]]
        assert fired == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]

    def test_always_and_never(self):
        assert all(decide(ScheduleConfig(mode="fixed", stride=1), i, None, None)[0] for i in range(1, 20))
        assert not any(decide(ScheduleConfig(mode="never_full"), i, None, None)[0] for i in range(1, 20))

    @pytest.mark.parametrize("cfg", [ScheduleConfig(mode="fixed", stride=3), ScheduleConfig(mode="never_full")],
                             ids=["fixed", "never_full"])
    def test_fixed_and_never_full_read_no_query_or_reference(self, cfg):
        # None for both: nothing reads them, no similarity is reported and the reference given is the one kept
        reference = object()
        for step in range(1, 13):
            full, similarity, kept = decide(cfg, step, None, reference)
            assert full == (cfg.mode == "fixed" and step % 3 == 0)
            assert similarity is None and kept is reference

    def test_qc_reads_query_and_reference_only_at_its_boundaries(self, rng):
        cfg = ScheduleConfig(mode="qc", qc_stride=4, threshold=0.5)
        for step in range(1, 13):
            if step % 4:  # off a boundary nothing is read: None stands for both
                assert decide(cfg, step, None, None) == (False, None, None)
                continue
            q, reference = rng.normal(size=(3, 8)), rng.normal(size=8)
            full, similarity, kept = decide(cfg, step, q, reference)
            assert similarity == cosine_similarity(mean_query(q), reference)
            assert full == (similarity < 0.5)
            if full:  # the step's mean query becomes the reference
                np.testing.assert_array_equal(kept, mean_query(q))
            else:
                assert kept is reference

    def test_qc_full_step_adopts_the_mean_query(self):
        cfg = ScheduleConfig(mode="qc", qc_stride=1, threshold=0.5)
        q = np.array([[0.0, 1.0], [0.0, 3.0]])  # mean (0, 2), orthogonal to the reference
        assert decide(cfg, 1, q, np.array([1.0, 0.0]))[:2] == (True, 0.0)
        np.testing.assert_array_equal(decide(cfg, 1, q, np.array([1.0, 0.0]))[2], [0.0, 2.0])

    def test_qc_threshold_above_one_fires_every_boundary(self, rng):
        cfg = ScheduleConfig(mode="qc", qc_stride=5, threshold=1.0 + 1e-9)
        ref = rng.normal(size=8)
        fired = [i for i in range(1, 51) if full_at(ref, i, ref, cfg)]
        assert fired == [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]

    def test_qc_threshold_minus_one_never_fires(self, rng):
        cfg = ScheduleConfig(mode="qc", qc_stride=5, threshold=-1.0)
        ref = rng.normal(size=8)
        q = -ref  # similarity exactly -1, and the rule is strict "<"
        assert not any(full_at(ref, i, q, cfg) for i in range(1, 51))

    def test_qc_only_fires_on_boundaries(self, rng):
        cfg = ScheduleConfig(mode="qc", qc_stride=7, threshold=0.99)
        ref = rng.normal(size=8)
        for i in range(1, 70):
            if i % 7 != 0:
                assert not full_at(ref, i, rng.normal(size=8), cfg)

    def test_tie_at_threshold_stays_partial(self):
        cfg = ScheduleConfig(mode="qc", qc_stride=1, threshold=1.0)
        reference = np.array([1.0, 0.0])
        full, similarity, kept = decide(cfg, 1, np.array([[2.0, 0.0]]), reference)  # similarity exactly 1.0
        assert (full, similarity) == (False, 1.0) and kept is reference

    def test_pure_function_replays_identically(self, rng):
        cfg = ScheduleConfig(mode="qc", qc_stride=3, threshold=0.5)
        ref = rng.normal(size=8)
        queries = [rng.normal(size=8) for _ in range(30)]
        first = [full_at(ref, i + 1, q, cfg) for i, q in enumerate(queries)]
        second = [full_at(ref, i + 1, q, cfg) for i, q in enumerate(queries)]
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
            # every field is range-checked whatever the mode
            dict(mode="qc", stride=0),
            dict(mode="fixed", qc_stride=-5),
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
