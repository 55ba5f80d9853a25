import itertools

import numpy as np
import pytest

from kvrefresh.engine import DecodeSession
from kvrefresh.errors import ConfigurationError, ContractViolation
from kvrefresh.kv_store import FullCache, PartialCache, init_partial
from kvrefresh.policies import REFRESH_FAMILY, PolicyConfig, selection_scores
from kvrefresh.scheduler import ScheduleConfig

N_KV = 2
DIM = 4


def brute_force_top_k(scores, k):
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(ranked[:k])


def topk_cache(full, scores, k, into=None):
    """One layer through init_partial: `into`, or a new cache, refilled with each head's top-k under the scores."""
    if into is None:
        into = PartialCache(full, np.arange(0))
    init_partial([full], scores, k, [into])
    return into


def make_full(n, rng):
    """A full cache over the prompt positions 0 .. n-1, its slots, written through its windows as the prefill writes it."""
    full = FullCache(N_KV, n, DIM)
    full.keys[:], full.values[:] = rng.normal(size=(N_KV, n, DIM)), rng.normal(size=(N_KV, n, DIM))
    return full


def append_and_evict(cp, position, k, v, capacity=None):
    """The partial-step update: append, then, given a capacity, evict back to it."""
    cp.append(position, k, v)
    if capacity is not None:
        cp.evict_overflow(capacity)


def entry(rng):
    return rng.normal(size=(N_KV, DIM)), rng.normal(size=(N_KV, DIM))


def assert_key_major(keys):
    """Each head's keys are one C-contiguous (head_dim, slots) block, so keys[h].T is a row-major operand."""
    for h in range(keys.shape[0]):
        assert keys[h].T.flags.c_contiguous


class ReferencePartial:
    """Reference model of a top-K partial cache: one (position, score) list per head in ascending
    position order; append at the end with score +inf, and evict the argmin score (ties toward the
    lower position, so the oldest appended entry once no refilled one is left) by deleting it."""

    def __init__(self, scores, k):
        self.refill(scores, k)

    def refill(self, scores, k):
        self.capacity = k
        self.heads = [[(p, float(row[p])) for p in brute_force_top_k(row, k)] for row in scores]

    def append(self, position):
        for entries in self.heads:
            entries.append((position, np.inf))

    def evict_overflow(self):
        for entries in self.heads:
            while len(entries) > self.capacity:
                scores = [score for _, score in entries]
                del entries[scores.index(min(scores))]


def assert_holds(cp, ref):
    """The reference's positions per head, in its eviction order: (score ascending, position ascending)."""
    assert cp.sizes() == [len(entries) for entries in ref.heads]
    for h, entries in enumerate(ref.heads):
        assert cp.positions[h].tolist() == [p for _, p in sorted((score, p) for p, score in entries)]


def assert_eviction_order(cp, scores):
    """Each head's window ranks (score ascending, position ascending) under the scores of its refill;
    entries appended since, past the scores' last position, come last, oldest first."""
    for h, positions in enumerate(cp.positions.tolist()):
        ranks = [(scores[h][p] if p < scores.shape[1] else np.inf, p) for p in positions]
        assert ranks == sorted(ranks)


def windows(cp):
    """The window of every arena: positions, keys, values, and h2o's scores."""
    return [a[:, cp._start : cp._start + len(cp)] for a in cp._arrays]


def np_delete(cp, slot):
    """PartialCache.drop(slot) by np.delete on copies of every window."""
    return [np.delete(a, slot, axis=1) for a in windows(cp)]


class TestInitPartial:
    def test_full_selection_is_whole_cache(self, rng):
        full = make_full(6, rng)
        scores = np.tile(np.linspace(1, 6, 6), (N_KV, 1))
        cp = topk_cache(full, scores, 6)
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.positions[h], np.arange(6))
            np.testing.assert_array_equal(cp.keys[h], full.keys[h])
            np.testing.assert_array_equal(cp.values[h], full.values[h])

    def test_tie_pattern_selects_lowest_positions(self, rng):
        full = make_full(6, rng)
        scores = np.tile([0.9, 0.9, 0.9, 0.1, 0.1, 0.1], (N_KV, 1))
        cp = topk_cache(full, scores, 2)
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.positions[h], [0, 1])

    def test_eighth_fraction_size(self, rng):
        full = make_full(128, rng)
        scores = np.tile(rng.uniform(size=128), (N_KV, 1))
        cp = topk_cache(full, scores, 128 // 8)
        assert cp.sizes() == [16, 16]

    def test_budget_above_length_rejected(self, rng):
        full = make_full(4, rng)
        with pytest.raises(ConfigurationError):
            topk_cache(full, np.ones((N_KV, 4)), 5)

    def test_score_length_mismatch_rejected(self, rng):
        full = make_full(4, rng)
        with pytest.raises(ContractViolation):
            topk_cache(full, np.ones((N_KV, 3)), 2)

    def test_per_head_independent_selection(self, rng):
        full = make_full(5, rng)
        scores = np.array([[5.0, 4, 3, 2, 1], [1.0, 2, 3, 4, 5]])
        cp = topk_cache(full, scores, 2)
        np.testing.assert_array_equal(cp.positions[0], [1, 0])  # eviction order: the lower score first
        np.testing.assert_array_equal(cp.positions[1], [3, 4])

    def test_entries_are_in_eviction_order(self, rng):
        # small-integer scores force ties, which rank toward the lower position
        for _ in range(30):
            n = int(rng.integers(1, 30))
            full = make_full(n, rng)
            scores = rng.integers(0, 4, size=(N_KV, n)).astype(float)
            cp = topk_cache(full, scores, int(rng.integers(1, n + 1)))
            assert_eviction_order(cp, scores)
            for h in range(N_KV):
                np.testing.assert_array_equal(cp.keys[h], full.keys[h][cp.positions[h]])
                np.testing.assert_array_equal(cp.values[h], full.values[h][cp.positions[h]])

    def test_refill_positions_are_the_selected_slots(self, rng):
        full = make_full(5, rng)
        for pos in range(5, 12):  # past a doubling: 5 -> 10 -> 20 slots
            full.append(pos, *entry(rng))
        cp = topk_cache(full, rng.uniform(size=(N_KV, 12)), 3)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            slots = np.stack([rng.permutation(12)[:n] for _ in range(N_KV)])  # any order, distinct per head
            cp.refill(full, slots)
            np.testing.assert_array_equal(cp.positions, slots)
            for h in range(N_KV):
                np.testing.assert_array_equal(cp.keys[h], full.keys[h][slots[h]])
                np.testing.assert_array_equal(cp.values[h], full.values[h][slots[h]])
            with pytest.raises(ContractViolation, match=f"{slots.max()} <= {slots.max()}"):
                cp.append(int(slots.max()), *entry(rng))


class TestAppendAndEvict:
    def make_cp(self, rng, scores, capacity):
        full = make_full(len(scores), rng)
        return topk_cache(full, np.tile(scores, (N_KV, 1)), capacity)

    def test_under_capacity_is_pure_append(self, rng):
        cp = self.make_cp(rng, np.array([0.5, 0.2, 0.7]), 2)
        k, v = entry(rng)
        append_and_evict(cp, 10, k, v, capacity=5)
        assert cp.sizes() == [3, 3]
        for h in range(N_KV):
            assert cp.positions[h][-1] == 10
            np.testing.assert_array_equal(cp.keys[h][-1], k[h])
            np.testing.assert_array_equal(cp.values[h][-1], v[h])

    def test_evicts_minimum_finite_score(self, rng):
        # scores [0.5, 0.2] rank as [0.2, 0.5]; at capacity 3 the second append evicts the 0.2 entry
        cp = self.make_cp(rng, np.array([0.5, 0.2]), 2)
        k2, v2 = entry(rng)
        append_and_evict(cp, 2, k2, v2, capacity=3)  # fills to capacity, no eviction
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.positions[h], [1, 0, 2])
        keys, values = cp.keys[:, 1:].copy(), cp.values[:, 1:].copy()
        append_and_evict(cp, 3, *entry(rng), capacity=3)
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.positions[h], [0, 2, 3])  # position 1, scored 0.2, is gone
            np.testing.assert_array_equal(cp.keys[h, :2], keys[h])
            np.testing.assert_array_equal(cp.values[h, :2], values[h])

    def test_no_evict_grows_monotonically(self, rng):
        cp = self.make_cp(rng, np.array([0.5, 0.2, 0.9]), 3)
        for i, pos in enumerate([5, 6, 7]):
            k, v = entry(rng)
            append_and_evict(cp, pos, k, v)
            assert cp.sizes() == [4 + i] * N_KV

    def test_all_new_evicts_oldest(self, rng):
        # once every refilled entry is gone, the oldest NEW entry goes next
        cp = self.make_cp(rng, np.array([0.5, 0.2]), 2)
        appended = {pos: entry(rng) for pos in (9, 10, 11)}
        for pos in (9, 10):
            append_and_evict(cp, pos, *appended[pos], capacity=2)
        np.testing.assert_array_equal(cp.positions, [[9, 10]] * N_KV)
        append_and_evict(cp, 11, *appended[11], capacity=2)
        np.testing.assert_array_equal(cp.positions, [[10, 11]] * N_KV)
        for slot, pos in enumerate((10, 11)):
            np.testing.assert_array_equal(cp.keys[:, slot], appended[pos][0])
            np.testing.assert_array_equal(cp.values[:, slot], appended[pos][1])

    def test_non_monotone_position_rejected(self, rng):
        cp = self.make_cp(rng, np.array([0.5, 0.2, 0.9]), 3)
        k, v = entry(rng)
        with pytest.raises(ContractViolation):
            append_and_evict(cp, 1, k, v, capacity=3)

    def test_size_never_exceeds_capacity_with_evict(self, rng):
        scores = rng.uniform(size=8)
        cp = self.make_cp(rng, scores, 8)
        for pos in range(8, 60):  # past the arena's end, six times: the window moves back to slot 0 on the way
            append_and_evict(cp, pos, *entry(rng), capacity=8)
            assert all(s <= 8 for s in cp.sizes())
            assert_eviction_order(cp, np.tile(scores, (N_KV, 1)))
            for h in range(N_KV):
                assert np.unique(cp.positions[h]).size == 8

    @pytest.mark.parametrize("n_drop", [1, 3, "drop"])
    def test_matches_per_head_loop_oracle(self, rng, n_drop):
        # n_drop 1 or 3: the held sets follow ReferencePartial, the per-head argmin-and-shift loop, over appends
        # of n_drop entries then one eviction, with refills between; small-integer scores force ties, and
        # shared scores make every head select alike. "drop": one given slot of a moved window, against np.delete.
        if n_drop == "drop":
            for _ in range(40):
                n = int(rng.integers(1, 12))
                cp = self.make_cp(rng, rng.integers(0, 3, size=n).astype(float), n)
                for pos in range(n, n + int(rng.integers(0, 40))):
                    append_and_evict(cp, pos, *entry(rng), capacity=n)
                slot = int(rng.integers(0, n))
                expected = np_delete(cp, slot)
                cp.drop(slot)
                assert cp.sizes() == [n - 1] * N_KV
                for got, want in zip(windows(cp), expected, strict=True):
                    np.testing.assert_array_equal(got, want)
            return
        for _ in range(20):
            n = int(rng.integers(1, 16))
            k = int(rng.integers(1, n + 1))
            full = make_full(n, rng)

            def scores(m):
                out = rng.integers(0, 3, size=(N_KV, m)).astype(float)
                return np.tile(out[0], (N_KV, 1)) if shared else out

            shared = rng.uniform() < 0.3
            first = scores(n)
            cp, ref = topk_cache(full, first, k), ReferencePartial(first, k)
            for _ in range(60):
                if rng.uniform() < 0.1:
                    new = scores(len(full))
                    topk_cache(full, new, k, into=cp)
                    ref.refill(new, k)
                for _ in range(n_drop):
                    k_new, v_new = entry(rng)
                    full.append(len(full), k_new, v_new)
                    cp.append(len(full) - 1, k_new, v_new)
                    ref.append(len(full) - 1)
                cp.evict_overflow(k)
                ref.evict_overflow()
                assert_holds(cp, ref)
                for h in range(N_KV):
                    np.testing.assert_array_equal(cp.keys[h], full.keys[h][cp.positions[h]])

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_equal_slot_drop_matches_np_delete_per_head(self, rng, where):
        # a drop takes the same slot on every head and moves the entries before it on (streaming, h2o)
        n = 9
        cp = self.make_cp(rng, rng.uniform(size=n), n)
        for pos in range(n, n + 3):  # the window no longer starts at slot 0
            append_and_evict(cp, pos, *entry(rng), capacity=n)
        slot = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        expected = np_delete(cp, slot)
        cp.drop(slot)
        assert cp.sizes() == [n - 1] * N_KV
        for got, want in zip(windows(cp), expected, strict=True):
            np.testing.assert_array_equal(got, want)
        assert_key_major(cp._arrays[0])

    def test_drop_of_every_slot_matches_np_delete(self, rng):
        # every slot, for odd and even lengths, without and with an h2o score row
        for n in (1, 2, 5, 6):
            for slot, scored in itertools.product(range(n), (False, True)):
                scores, full = rng.uniform(size=n), make_full(n, rng)
                cp = topk_cache(full, np.tile(scores, (N_KV, 1)), n)
                if scored:
                    cp = PartialCache(full, cp.positions, rng.uniform(size=(1, n)))
                expected = np_delete(cp, slot)
                cp.drop(slot)
                for got, want in zip(windows(cp), expected, strict=True):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("slot", [5, 7, -1])
    def test_drop_outside_the_window_is_rejected(self, rng, slot):
        cp = self.make_cp(rng, rng.uniform(size=5), 5)
        before = [a.copy() for a in windows(cp)]
        with pytest.raises(ContractViolation, match=f"drop of slot {slot} outside \\[0, 5\\)"):
            cp.drop(slot)
        for got, want in zip(windows(cp), before, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_append_after_refill_rejects_up_to_the_newest_head_position(self, rng):
        full = make_full(10, rng)
        scores = np.zeros((N_KV, 10))
        scores[0, [1, 2, 3]] = 1.0
        scores[1, [2, 5, 8]] = [3.0, 2.0, 1.0]  # head 1 holds the newest position, 8, at the front of its window
        cp = topk_cache(full, scores, 3)
        cp.append(9, *entry(rng))
        topk_cache(full, scores, 3, into=cp)
        np.testing.assert_array_equal(cp.positions, [[1, 2, 3], [8, 5, 2]])
        for position in (3, 7, 8):
            with pytest.raises(ContractViolation, match=f"{position} <= 8"):
                cp.append(position, *entry(rng))
        assert cp.sizes() == [3, 3]
        cp.append(9, *entry(rng))
        assert cp.positions[:, -1].tolist() == [9, 9]


class TestFullCacheAppend:
    def test_append_grows_past_capacity(self, rng):
        full = make_full(4, rng)
        prompt_keys = full.keys.copy()
        entries = {pos: entry(rng) for pos in range(4, 13)}
        for pos, (k, v) in entries.items():
            full.append(pos, k, v)
        assert len(full) == 13
        np.testing.assert_array_equal(full.positions, [np.arange(13)] * N_KV)
        for pos, (k, v) in entries.items():
            np.testing.assert_array_equal(full.keys[:, pos], k)
            np.testing.assert_array_equal(full.values[:, pos], v)
        assert full.keys.shape == (N_KV, 13, DIM)
        np.testing.assert_array_equal(full.keys[:, :4], prompt_keys)

    def test_doubling_makes_the_key_arena_key_major(self, rng):
        full = make_full(4, rng)
        assert full._arrays[0].shape[1] == 4  # the prompt's arenas hold exactly its positions
        assert_key_major(full._arrays[0])
        prompt_keys = full.keys.copy()
        k, v = entry(rng)
        full.append(4, k, v)
        assert full._arrays[0].shape[1] == 8
        assert_key_major(full._arrays[0])
        np.testing.assert_array_equal(full.keys, np.concatenate([prompt_keys, k[:, None]], axis=1))
        arena = full._arrays[0]
        full.append(5, *entry(rng))  # a write inside the arena keeps it, and its order
        assert np.shares_memory(full.keys, arena)
        assert_key_major(full._arrays[0])

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_positions_are_the_slots_on_every_head_across_two_doublings(self, rng, n):
        full = make_full(n, rng)
        slots = full._arrays[0].shape[1]
        for pos in range(n, 4 * n + 1):  # n -> 2n -> 4n -> 8n slots
            full.append(pos, *entry(rng))
            np.testing.assert_array_equal(full.positions, [np.arange(pos + 1)] * N_KV)
            assert full.positions.shape == (N_KV, pos + 1) and not full.positions.flags.writeable
            slots, grown = full._arrays[0].shape[1], slots != full._arrays[0].shape[1]
            assert not grown or slots == 2 * pos  # a doubling when the arena was full
        assert slots == 8 * n
        np.testing.assert_array_equal(full.gather(np.array([[0, 2], [4 * n, 1]]))[0], [[0, 2], [4 * n, 1]])

    @pytest.mark.parametrize("position", [-1, 0, 3, 4, 6, 100])
    def test_append_anywhere_but_its_length_is_rejected(self, rng, position):
        full = make_full(4, rng)
        full.append(4, *entry(rng))  # now 5 positions, in an arena of 8 slots
        before = [full.keys.copy(), full.values.copy()]
        with pytest.raises(ContractViolation, match=f"append at {position}, the cache holds positions 0 .. 4"):
            full.append(position, *entry(rng))
        assert len(full) == 5
        for got, want in zip([full.keys, full.values], before, strict=True):
            np.testing.assert_array_equal(got, want)
        full.append(5, *entry(rng))
        np.testing.assert_array_equal(full.positions, [np.arange(6)] * N_KV)

    @pytest.mark.parametrize("n", [1, 2])
    def test_doubling_a_tiny_arena_is_key_major(self, rng, n):
        # 0 or 1 slots fit either memory order, so the order must not be read back from the old arena
        full = make_full(n, rng)
        for pos in range(n, 4 * n + 1):
            full.append(pos, *entry(rng))
            if len(full) > 1:
                assert_key_major(full._arrays[0])


def test_a_partial_cache_holds_only_entries_its_full_cache_holds(rng):
    full = make_full(4, rng)
    full.append(4, *entry(rng))  # 5 positions in an arena of 8 slots
    slots = np.array([[4, 0], [2, 3]])
    cp = PartialCache(full, slots)
    np.testing.assert_array_equal(cp.positions, slots)
    for h in range(N_KV):
        np.testing.assert_array_equal(cp.keys[h], full.keys[h][slots[h]])
        np.testing.assert_array_equal(cp.values[h], full.values[h][slots[h]])
    with pytest.raises(IndexError):
        PartialCache(full, np.array([5]))  # a slot of the arena that holds no position yet


class TestPendingAndMerge:
    """Decoded keys go straight into the full cache; these are the ordering
    checks that merging a pending buffer into it used to make."""

    def test_overlap_rejected(self, rng):
        full = make_full(4, rng)
        k, v = entry(rng)
        with pytest.raises(ContractViolation):
            full.append(3, k, v)
        assert len(full) == 4

    def test_pending_disorder_rejected(self, rng):
        full = make_full(4, rng)
        k, v = entry(rng)
        full.append(4, k, v)
        with pytest.raises(ContractViolation):
            full.append(4, k, v)
        assert len(full) == 5


class TestRefresh:
    def test_scores_concentrated_on_recent(self, rng):
        full = make_full(10, rng)
        scores = np.zeros((N_KV, 10))
        scores[:, -3:] = 1.0
        cp = topk_cache(full, scores, 3)
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.positions[h], [7, 8, 9])

    def test_idempotent_for_fixed_scores(self, rng):
        full = make_full(12, rng)
        scores = np.tile(rng.uniform(size=12), (N_KV, 1))
        a = topk_cache(full, scores, 5)
        b = topk_cache(full, scores, 5)
        for h in range(N_KV):
            np.testing.assert_array_equal(a.positions[h], b.positions[h])
            np.testing.assert_array_equal(a.keys[h], b.keys[h])

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 40))
            k = int(rng.integers(1, n + 1))
            full = make_full(n, rng)
            scores = rng.uniform(size=(N_KV, n))
            cp = topk_cache(full, scores, k)
            assert_eviction_order(cp, scores)
            for h in range(N_KV):
                np.testing.assert_array_equal(np.sort(cp.positions[h]), brute_force_top_k(scores[h], k))

    def test_discards_new_entries_unless_reselected(self, rng):
        full = make_full(6, rng)
        scores = np.tile(np.linspace(6, 1, 6), (N_KV, 1))
        cp = topk_cache(full, scores, 3)
        k, v = entry(rng)
        append_and_evict(cp, 6, k, v)
        assert cp.sizes() == [4, 4]
        full.append(6, k, v)
        new_scores = np.tile(np.linspace(7, 1, 7), (N_KV, 1))
        cp2 = topk_cache(full, new_scores, 3)
        assert cp2.sizes() == [3, 3]
        for h in range(N_KV):
            assert 6 not in cp2.positions[h]

    def test_refill_into_reuses_the_arena(self, rng):
        full = make_full(20, rng)
        cp = topk_cache(full, rng.uniform(size=(N_KV, 20)), 5)
        keys, positions = cp.keys, cp.positions
        k, v = entry(rng)
        append_and_evict(cp, 20, k, v)
        full.append(20, k, v)
        scores = rng.uniform(size=(N_KV, 21))
        held = init_partial([full], scores, 5, [cp])  # the held entries' scores, in the cache's order
        np.testing.assert_array_equal(held, np.take_along_axis(scores, cp.positions, axis=1))
        assert np.shares_memory(cp.keys, keys) and np.shares_memory(cp.positions, positions)
        assert cp.sizes() == [5] * N_KV
        fresh = topk_cache(full, scores, 5)
        for got, want in zip(windows(cp), windows(fresh), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_key_arena_is_key_major_after_init_refill_and_doubling(self, rng):
        full = make_full(20, rng)
        cp = topk_cache(full, rng.uniform(size=(N_KV, 20)), 5)
        assert_key_major(cp._arrays[0])
        arena = cp._arrays[0]
        topk_cache(full, rng.uniform(size=(N_KV, 20)), 5, into=cp)  # refill in place
        assert cp._arrays[0] is arena
        assert_key_major(cp._arrays[0])
        topk_cache(full, rng.uniform(size=(N_KV, 20)), 12, into=cp)  # refill into a larger arena
        assert_key_major(cp._arrays[0])
        slots = cp._arrays[0].shape[1]
        for pos in range(20, 20 + slots - 12 + 1):  # one past the arena's end: the window moves to twice its size
            append_and_evict(cp, pos, *entry(rng))
        assert cp._arrays[0].shape[1] == 2 * slots
        assert_key_major(cp._arrays[0])
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.keys[h, :12], full.keys[h][cp.positions[h, :12]])

    def test_refill_grows_an_arena_too_small_for_k(self, rng):
        full = make_full(20, rng)
        cp = topk_cache(full, rng.uniform(size=(N_KV, 20)), 3)
        scores = rng.uniform(size=(N_KV, 20))
        topk_cache(full, scores, 12, into=cp)
        assert cp.sizes() == [12] * N_KV
        assert cp._arrays[0].shape[1] == 2 * 12
        assert_eviction_order(cp, scores)
        for h in range(N_KV):
            np.testing.assert_array_equal(np.sort(cp.positions[h]), brute_force_top_k(scores[h], 12))
            np.testing.assert_array_equal(cp.keys[h], full.keys[h][cp.positions[h]])


class TestWindow:
    """The window [start, start + n) an append finds at the arena's end moves into arenas of max(1, 2n) slots."""

    def evicting(self, rng, k, n_steps):
        """A K=k cache refilled from a k-position prompt, then n_steps appends each followed by an
        eviction; returns it, the arena at the refill, and the reference model it must match."""
        full = make_full(k, rng)
        scores = rng.uniform(size=(N_KV, k))
        cp, ref = topk_cache(full, scores, k), ReferencePartial(scores, k)
        arena = cp._arrays[0]
        for pos in range(k, k + n_steps):
            k_new, v_new = entry(rng)
            full.append(pos, k_new, v_new)
            append_and_evict(cp, pos, k_new, v_new, capacity=k)
            ref.append(pos)
            ref.evict_overflow()
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.keys[h], full.keys[h][cp.positions[h]])
            np.testing.assert_array_equal(cp.values[h], full.values[h][cp.positions[h]])
        assert_holds(cp, ref)
        return cp, arena

    @pytest.mark.parametrize("n", [0, 1, 5, 8, 16])
    def test_a_window_of_any_length_at_the_arenas_end_moves_into_twice_its_length(self, rng, n):
        # a K=8 cache starts in 16 slots; 8 appends fill them (grow-only, as snapkv's), and evicting
        # down to n leaves the window's last n entries at the arena's end (n = 16: the whole arena)
        cp = topk_cache(make_full(8, rng), rng.uniform(size=(N_KV, 8)), 8)
        for pos in range(8, 16):
            cp.append(pos, *entry(rng))
        cp.evict_overflow(n)
        assert cp._start + len(cp) == cp._arrays[0].shape[1]
        before = [w.copy() for w in windows(cp)]
        k, v = entry(rng)
        cp.append(100, k, v)
        assert [a.shape[1] for a in cp._arrays] == [max(1, 2 * n)] * 3 and cp._start == 0
        assert_key_major(cp._arrays[0])
        for got, want in zip(windows(cp), before, strict=True):
            np.testing.assert_array_equal(got[:, :n], want)
        np.testing.assert_array_equal(cp.positions[:, n], [100] * N_KV)
        np.testing.assert_array_equal(cp.keys[:, n], k)
        np.testing.assert_array_equal(cp.values[:, n], v)

    @pytest.mark.parametrize("k", [1, 8, 40])
    def test_evicting_windows_follow_the_reference_across_moves(self, rng, k):
        # 200 appends and evictions: the (k+1)-th moves the k entries into 2k new slots, and so does every k-th after
        cp, arena = self.evicting(rng, k, 200)
        assert cp._arrays[0] is not arena and cp._arrays[0].shape[1] == 2 * k
        assert_key_major(cp._arrays[0])

    def test_k_appends_and_evictions_fit_the_arena_a_cache_starts_in(self, rng):
        # a K=8 cache starts in 16 slots: after 8 appends and evictions the window ends at its last slot
        cp, arena = self.evicting(rng, 8, 8)
        assert cp._arrays[0] is arena and cp._start + 8 == arena.shape[1] == 16
        append_and_evict(cp, 16, *entry(rng), capacity=8)
        assert cp._arrays[0].shape[1] == 16 and cp._start == 1  # moved to slot 0 of 16 slots, then evicted from it


# ------------------------------------------- sessions against the reference model

TOPK_SCHEDULES = {
    "fixed10": ScheduleConfig(mode="fixed", stride=10),
    "fixed97": ScheduleConfig(mode="fixed", stride=97),
    "qc": ScheduleConfig(mode="qc", qc_stride=10, threshold=0.0),
}
SESSION_CASES = [(kind, name) for kind in REFRESH_FAMILY for name in TOPK_SCHEDULES] + [("snapkv", "never")]


@pytest.mark.parametrize("kind, schedule", SESSION_CASES, ids=[f"{k}-{s}" for k, s in SESSION_CASES])
def test_session_held_sets_follow_the_reference_every_step(desk_weights, rng, kind, schedule):
    # every K x eviction: each layer's partial cache holds, per head, the positions of
    # ReferencePartial driven by the session's own refreshes, in its eviction order, after every step;
    # refreshkv_no_full refreshes before the step's write, then appends and evicts as at any partial step
    prompt_length, n_steps = 48, 100 if schedule == "fixed97" else 60
    stream = rng.integers(0, desk_weights.config.vocab_size, prompt_length + n_steps).tolist()
    for k, evict in itertools.product((1, 6, 40), (True, False)):
        policy = PolicyConfig(kind=kind, k=k, evict_on_append=evict)
        events = []
        session = DecodeSession(desk_weights, policy, TOPK_SCHEDULES.get(schedule), recorder=events.append)
        out = session.prefill(stream[:prompt_length])
        refs = [ReferencePartial(selection_scores(rows, policy), k) for rows in out.attn_rows]
        for i, token in enumerate(stream[prompt_length:]):
            events.clear()
            _, rec = session.step(token)
            refreshed = {e["layer"]: e for e in events if e["kind"] == "refresh"}
            for layer, ref in enumerate(refs):
                attends_partial = rec.modes[layer] == "partial" or kind == "refreshkv_no_full"
                if layer in refreshed and attends_partial:
                    ref.refill(refreshed[layer]["selection"], k)
                if attends_partial:
                    ref.append(prompt_length + i)
                    if evict:
                        ref.evict_overflow()
                if layer in refreshed and not attends_partial:
                    ref.refill(refreshed[layer]["selection"], k)
                assert_holds(session.partial[layer], ref)
                assert len(session.partial[layer]._arrays) == 3  # positions, keys, values: no score arena


@pytest.mark.parametrize("kind", ["streaming", "h2o"])
def test_streaming_and_h2o_drops_match_np_delete_bitwise(desk_weights, rng, monkeypatch, kind):
    # their arenas stay ascending: every drop leaves exactly np.delete's arrays, and moves the window
    # one slot toward its arena's end, in the same arenas
    drop = PartialCache.drop

    def checked(self, slot):
        expected, arrays, start = np_delete(self, slot), list(self._arrays), self._start
        drop(self, slot)
        assert len(self._arrays) == (4 if kind == "h2o" else 3)  # only h2o keeps a score arena
        assert all(a is b for a, b in zip(self._arrays, arrays, strict=True)) and self._start == start + 1
        for got, want in zip(windows(self), expected, strict=True):
            np.testing.assert_array_equal(got, want)
        assert (np.diff(self.positions, axis=1) > 0).all()

    monkeypatch.setattr(PartialCache, "drop", checked)
    stream = rng.integers(0, desk_weights.config.vocab_size, 48 + 80).tolist()
    # streaming drops slot n_sink: behind the sinks at budget 40, past the middle at budgets 4 and 6; h2o's
    # candidates are the heavy half, left of the middle; at every budget the window moves into new arenas
    for budget in (4, 6, 40):
        session = DecodeSession(desk_weights, PolicyConfig(kind=kind, k=budget, n_sink=4))
        session.prefill(stream[:48])
        for token in stream[48:]:
            session.step(token)
