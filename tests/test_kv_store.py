import numpy as np
import pytest

from kvrefresh.errors import ConfigurationError, ContractViolation
from kvrefresh.kv_store import NEW_SCORE, FullCache, init_partial

N_KV = 2
DIM = 4


def brute_force_top_k(scores, k):
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(ranked[:k])


def make_full(n, rng):
    return FullCache(np.arange(n), rng.normal(size=(N_KV, n, DIM)), rng.normal(size=(N_KV, n, DIM)))


def append_and_evict(cp, position, k, v, evict):
    """The partial-step update: append with the NEW score, then evict if asked."""
    cp.append(position, k, v)
    if evict:
        cp.evict_overflow()


def entry(rng):
    return rng.normal(size=(N_KV, DIM)), rng.normal(size=(N_KV, DIM))


def assert_key_major(keys):
    """Each head's keys are one C-contiguous (head_dim, slots) block, so keys[h].T is a row-major operand."""
    for h in range(keys.shape[0]):
        assert keys[h].T.flags.c_contiguous


def loop_evict_overflow(cp):
    """The per-head loop evict_overflow replaced, on copies: (positions, keys, values, scores)."""
    arrays = [a.copy() for a in (cp.positions, cp.keys, cp.values, cp.scores)]
    n = arrays[0].shape[1]
    while n > cp.capacity:
        s = arrays[3][:, :n]
        victims = np.where(np.isfinite(s), s, np.inf).argmin(axis=1)
        for h, i in enumerate(victims):
            for a in arrays:
                a[h, i : n - 1] = a[h, i + 1 : n]
        n -= 1
    return [a[:, :n] for a in arrays]


def delete_per_head(cp, slots):
    """PartialCache.drop(slots) by np.delete, head by head: (positions, keys, values, scores)."""
    return [np.stack([np.delete(a[h], i, axis=0) for h, i in enumerate(slots)])
            for a in (cp.positions, cp.keys, cp.values, cp.scores)]


class TestInitPartial:
    def test_full_selection_is_whole_cache(self, rng):
        full = make_full(6, rng)
        scores = np.tile(np.linspace(1, 6, 6), (N_KV, 1))
        cp = init_partial(full, scores, 6)
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.positions[h], np.arange(6))
            np.testing.assert_array_equal(cp.keys[h], full.keys[h])
            np.testing.assert_array_equal(cp.scores[h], scores[h])

    def test_tie_pattern_selects_lowest_positions(self, rng):
        full = make_full(6, rng)
        scores = np.tile([0.9, 0.9, 0.9, 0.1, 0.1, 0.1], (N_KV, 1))
        cp = init_partial(full, scores, 2)
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.positions[h], [0, 1])

    def test_eighth_fraction_size(self, rng):
        full = make_full(128, rng)
        scores = np.tile(rng.uniform(size=128), (N_KV, 1))
        cp = init_partial(full, scores, 128 // 8)
        assert cp.sizes() == [16, 16]

    def test_budget_above_length_rejected(self, rng):
        full = make_full(4, rng)
        with pytest.raises(ConfigurationError):
            init_partial(full, np.ones((N_KV, 4)), 5)

    def test_score_length_mismatch_rejected(self, rng):
        full = make_full(4, rng)
        with pytest.raises(ContractViolation):
            init_partial(full, np.ones((N_KV, 3)), 2)

    def test_per_head_independent_selection(self, rng):
        full = make_full(5, rng)
        scores = np.array([[5.0, 4, 3, 2, 1], [1.0, 2, 3, 4, 5]])
        cp = init_partial(full, scores, 2)
        np.testing.assert_array_equal(cp.positions[0], [0, 1])
        np.testing.assert_array_equal(cp.positions[1], [3, 4])


class TestAppendAndEvict:
    def make_cp(self, rng, scores, capacity):
        full = make_full(len(scores), rng)
        return init_partial(full, np.tile(scores, (N_KV, 1)), capacity)

    def test_under_capacity_is_pure_append(self, rng):
        cp = self.make_cp(rng, np.array([0.5, 0.2, 0.7]), 2)
        cp.capacity = 5
        k, v = entry(rng)
        append_and_evict(cp, 10, k, v, evict=True)
        assert cp.sizes() == [3, 3]
        for h in range(N_KV):
            assert cp.positions[h][-1] == 10
            assert cp.scores[h][-1] == NEW_SCORE

    def test_evicts_minimum_finite_score(self, rng):
        # scores [0.5, 0.2, NEW] at capacity 3: appending evicts the 0.2 entry
        cp = self.make_cp(rng, np.array([0.5, 0.2]), 2)
        cp.capacity = 3
        k, v = entry(rng)
        append_and_evict(cp, 2, k, v, evict=True)  # fills to capacity, no eviction
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.scores[h], [0.5, 0.2, NEW_SCORE])
        k2, v2 = entry(rng)
        append_and_evict(cp, 3, k2, v2, evict=True)
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.positions[h], [0, 2, 3])
            assert 0.2 not in cp.scores[h]

    def test_no_evict_grows_monotonically(self, rng):
        cp = self.make_cp(rng, np.array([0.5, 0.2, 0.9]), 3)
        for i, pos in enumerate([5, 6, 7]):
            k, v = entry(rng)
            append_and_evict(cp, pos, k, v, evict=False)
            assert cp.sizes() == [4 + i] * N_KV

    def test_all_new_evicts_oldest(self, rng):
        cp = self.make_cp(rng, np.array([0.5, 0.2]), 2)
        for h in range(N_KV):
            cp.scores[h] = np.array([NEW_SCORE, NEW_SCORE])
        k, v = entry(rng)
        append_and_evict(cp, 9, k, v, evict=True)
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.positions[h], [1, 9])

    def test_non_monotone_position_rejected(self, rng):
        cp = self.make_cp(rng, np.array([0.5, 0.2, 0.9]), 3)
        k, v = entry(rng)
        with pytest.raises(ContractViolation):
            append_and_evict(cp, 1, k, v, evict=True)

    def test_size_never_exceeds_capacity_with_evict(self, rng):
        cp = self.make_cp(rng, rng.uniform(size=8), 8)
        for pos in range(8, 40):
            k, v = entry(rng)
            append_and_evict(cp, pos, k, v, evict=True)
            assert all(s <= 8 for s in cp.sizes())
            for h in range(N_KV):
                assert (np.diff(cp.positions[h]) > 0).all()


    @pytest.mark.parametrize("n_drop", [1, 3, "drop"])
    def test_matches_per_head_loop_oracle(self, rng, n_drop):
        # small-integer scores force ties; NEW entries and all-NEW heads take the oldest-first rule.
        # "drop" removes one given slot per head (first, last or inside) through PartialCache.drop.
        given = n_drop == "drop"
        n_drop = 1 if given else n_drop
        for _ in range(40):
            n = int(rng.integers(n_drop + 1, 12))
            cp = self.make_cp(rng, np.zeros(n), n)
            cp.scores[:] = rng.integers(0, 3, size=(N_KV, n)).astype(float)
            cp.scores[rng.uniform(size=(N_KV, n)) < 0.3] = NEW_SCORE
            if rng.uniform() < 0.2:
                cp.scores[int(rng.integers(N_KV))] = NEW_SCORE
            if given:
                slots = rng.integers(0, n, size=N_KV).tolist()
                expected = delete_per_head(cp, slots)
                cp.drop(slots)
            else:
                cp.capacity = n - n_drop
                expected = loop_evict_overflow(cp)
                cp.evict_overflow()
            assert cp.sizes() == [n - n_drop] * N_KV
            for got, want in zip((cp.positions, cp.keys, cp.values, cp.scores), expected):
                np.testing.assert_array_equal(got, want)


    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_equal_slot_drop_matches_np_delete_per_head(self, rng, where):
        # every head dropping the same slot takes the whole-array shift (streaming, h2o, shared selection)
        n = 9
        cp = self.make_cp(rng, rng.uniform(size=n), n)
        cp.scores[:, -2:] = NEW_SCORE
        slot = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        expected = delete_per_head(cp, [slot] * N_KV)
        cp.drop([slot] * N_KV)
        assert cp.sizes() == [n - 1] * N_KV
        for got, want in zip((cp.positions, cp.keys, cp.values, cp.scores), expected):
            np.testing.assert_array_equal(got, want)
        assert_key_major(cp._arrays[1])

    def test_append_after_refill_rejects_up_to_the_newest_head_position(self, rng):
        full = make_full(10, rng)
        scores = np.zeros((N_KV, 10))
        scores[0, [1, 2, 3]] = 1.0
        scores[1, [2, 5, 8]] = 1.0  # head 1 holds the newest position, 8
        cp = init_partial(full, scores, 3)
        cp.append(9, *entry(rng))  # fills the arena's one spare slot
        init_partial(full, scores, 3, into=cp)
        np.testing.assert_array_equal(cp.positions, [[1, 2, 3], [2, 5, 8]])
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
        np.testing.assert_array_equal(full.positions, np.arange(13))
        for pos, (k, v) in entries.items():
            np.testing.assert_array_equal(full.keys[:, pos], k)
            np.testing.assert_array_equal(full.values[:, pos], v)
        assert full.keys.shape == (N_KV, 13, DIM)
        np.testing.assert_array_equal(full.keys[:, :4], prompt_keys)

    def test_doubling_makes_the_key_arena_key_major(self, rng):
        full = make_full(4, rng)  # row-major prompt keys
        prompt_keys = full.keys.copy()
        k, v = entry(rng)
        full.append(4, k, v)
        assert full._keys.shape[1] == 8
        assert_key_major(full._keys)
        np.testing.assert_array_equal(full.keys, np.concatenate([prompt_keys, k[:, None]], axis=1))
        arena = full._keys
        full.append(5, *entry(rng))  # a write inside the arena keeps it, and its order
        assert np.shares_memory(full.keys, arena)
        assert_key_major(full._keys)

    @pytest.mark.parametrize("n", [1, 2])
    def test_doubling_a_tiny_arena_is_key_major(self, rng, n):
        # 0 or 1 slots fit either memory order, so the order must not be read back from the old arena
        full = make_full(n, rng)
        for pos in range(n, 4 * n + 1):
            full.append(pos, *entry(rng))
            if len(full) > 1:
                assert_key_major(full._keys)


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
        cp = init_partial(full, scores, 3)
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.positions[h], [7, 8, 9])

    def test_idempotent_for_fixed_scores(self, rng):
        full = make_full(12, rng)
        scores = np.tile(rng.uniform(size=12), (N_KV, 1))
        a = init_partial(full, scores, 5)
        b = init_partial(full, scores, 5)
        for h in range(N_KV):
            np.testing.assert_array_equal(a.positions[h], b.positions[h])
            np.testing.assert_array_equal(a.keys[h], b.keys[h])

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 40))
            k = int(rng.integers(1, n + 1))
            full = make_full(n, rng)
            scores = rng.uniform(size=(N_KV, n))
            cp = init_partial(full, scores, k)
            for h in range(N_KV):
                np.testing.assert_array_equal(cp.positions[h], brute_force_top_k(scores[h], k))

    def test_discards_new_entries_unless_reselected(self, rng):
        full = make_full(6, rng)
        scores = np.tile(np.linspace(6, 1, 6), (N_KV, 1))
        cp = init_partial(full, scores, 3)
        k, v = entry(rng)
        append_and_evict(cp, 6, k, v, evict=False)
        assert cp.sizes() == [4, 4]
        full.append(6, k, v)
        new_scores = np.tile(np.linspace(7, 1, 7), (N_KV, 1))
        cp2 = init_partial(full, new_scores, 3)
        assert cp2.sizes() == [3, 3]
        for h in range(N_KV):
            assert 6 not in cp2.positions[h]

    def test_refill_into_reuses_the_arena(self, rng):
        full = make_full(20, rng)
        cp = init_partial(full, rng.uniform(size=(N_KV, 20)), 5)
        keys, positions = cp.keys, cp.positions
        k, v = entry(rng)
        append_and_evict(cp, 20, k, v, evict=False)
        full.append(20, k, v)
        scores = rng.uniform(size=(N_KV, 21))
        assert init_partial(full, scores, 5, into=cp) is cp
        assert np.shares_memory(cp.keys, keys) and np.shares_memory(cp.positions, positions)
        assert cp.sizes() == [5] * N_KV and cp.capacity == 5
        fresh = init_partial(full, scores, 5)
        for got, want in zip((cp.positions, cp.keys, cp.values, cp.scores),
                             (fresh.positions, fresh.keys, fresh.values, fresh.scores)):
            np.testing.assert_array_equal(got, want)

    def test_key_arena_is_key_major_after_init_refill_and_doubling(self, rng):
        full = make_full(20, rng)
        cp = init_partial(full, rng.uniform(size=(N_KV, 20)), 5)
        assert_key_major(cp._arrays[1])
        arena = cp._arrays[1]
        init_partial(full, rng.uniform(size=(N_KV, 20)), 5, into=cp)  # refill in place
        assert cp._arrays[1] is arena
        assert_key_major(cp._arrays[1])
        init_partial(full, rng.uniform(size=(N_KV, 20)), 12, into=cp)  # refill into a larger arena
        assert_key_major(cp._arrays[1])
        slots = cp._arrays[1].shape[1]
        for pos in range(20, 20 + slots - 12 + 1):  # one past the slack: the arena doubles
            append_and_evict(cp, pos, *entry(rng), evict=False)
        assert cp._arrays[1].shape[1] == 2 * slots
        assert_key_major(cp._arrays[1])
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.keys[h, :12], full.keys[h][cp.positions[h, :12]])

    def test_refill_grows_an_arena_too_small_for_k(self, rng):
        full = make_full(20, rng)
        cp = init_partial(full, rng.uniform(size=(N_KV, 20)), 3)
        scores = rng.uniform(size=(N_KV, 20))
        init_partial(full, scores, 12, into=cp)
        assert cp.sizes() == [12] * N_KV
        for h in range(N_KV):
            np.testing.assert_array_equal(cp.positions[h], brute_force_top_k(scores[h], 12))
            np.testing.assert_array_equal(cp.keys[h], full.keys[h][cp.positions[h]])

