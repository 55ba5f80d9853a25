import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvrefresh.errors import ConfigurationError, ContractViolation
from kvrefresh.numerics import cosine_similarity, max_pool_1d, softmax_rows, top_k_indices


def brute_force_top_k(scores, k):
    """Sort by (score desc, index asc), take k, re-sort by index."""
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(ranked[:k])


def shifted_loop_max_pool(x, kernel):
    """The one-row pooling max_pool_1d replaced: one shifted maximum per offset and side."""
    out = x.copy()
    for off in range(1, kernel // 2 + 1):
        out[off:] = np.maximum(out[off:], x[:-off])
        out[:-off] = np.maximum(out[:-off], x[off:])
    return out


def probabilities(x):
    """softmax_rows' exponentials divided by their sums: the softmax."""
    return np.divide(*softmax_rows(x))


def plateau_rows(rng, n_rows, n):
    """Pooled rows full of plateaus: few distinct values, each spread over a kernel-7 window."""
    return max_pool_1d(rng.integers(0, 40, size=(n_rows, n)).astype(float), 7)


class TestSoftmax:
    def test_returns_the_exponentials_and_their_row_sums(self, rng):
        x = 30.0 * rng.standard_normal((3, 2, 17))
        before = x.copy()
        exps, sums = softmax_rows(x)
        assert np.array_equal(x, before)  # without out, the input is unchanged
        assert np.array_equal(exps, np.exp(x - x.max(axis=-1, keepdims=True)))
        assert sums.shape == (3, 2, 1) and np.array_equal(sums, exps.sum(axis=-1, keepdims=True))
        assert (exps.max(axis=-1) == 1.0).all()  # each row's maximum is exp(0)

    def test_symmetry(self):
        np.testing.assert_allclose(probabilities(np.array([0.0, 0.0])), [0.5, 0.5])

    @pytest.mark.parametrize("x", [0.0, -3.5, 1e6, -1e6])
    def test_single_element(self, x):
        np.testing.assert_allclose(probabilities(np.array([x])), [1.0])

    def test_reference_values(self):
        # frozen from a 50-digit arbitrary-precision evaluation of exp(x)/sum
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
        np.testing.assert_allclose(probabilities(np.array([1.0, 2.0, 3.0])), expected, atol=1e-4)

    def test_order_preserving(self, rng):
        x = rng.normal(size=64)
        out = probabilities(x)
        for i in range(64):
            for j in range(64):
                if x[i] > x[j]:
                    assert out[i] > out[j]

    def test_sums_to_one_many_random_vectors(self, rng):
        # 1000 random vectors of assorted lengths and scales
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            scale = 10.0 ** rng.integers(-3, 4)
            x = rng.normal(size=n) * scale
            out = probabilities(x)
            assert abs(out.sum() - 1.0) < 1e-6
            assert (out >= 0).all()

    def test_large_logits_stable(self):
        out = probabilities(np.array([1e300, 1e300]))
        np.testing.assert_allclose(out, [0.5, 0.5])


class TestCosineSimilarity:
    def test_self_similarity(self, rng):
        for _ in range(20):
            v = rng.normal(size=8)
            assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_reference_value(self):
        # 1/sqrt(2), frozen from arbitrary-precision evaluation
        got = cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.7071067811865475, abs=1e-5)

    def test_zero_vector_defined_as_zero(self):
        assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0
        assert cosine_similarity(np.zeros(4), np.zeros(4)) == 0.0

    def test_clamped_to_unit_interval(self, rng):
        for _ in range(200):
            u, v = rng.normal(size=(2, 16)) * 1e8
            assert -1.0 <= cosine_similarity(u, v) <= 1.0

    def test_symmetric_and_scale_invariant(self, rng):
        for _ in range(100):
            u, v = rng.normal(size=(2, 12))
            a, b = rng.uniform(0.1, 50.0, size=2)
            s = cosine_similarity(u, v)
            assert cosine_similarity(v, u) == pytest.approx(s, abs=1e-12)
            assert cosine_similarity(a * u, b * v) == pytest.approx(s, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            cosine_similarity(np.ones(3), np.ones(4))


class TestMaxPool:
    def test_kernel_one_is_identity(self, rng):
        x = rng.uniform(size=17)
        np.testing.assert_array_equal(max_pool_1d(x, 1), x)

    def test_hand_walked_windows(self):
        x = np.array([0.0, 0.9, 0.0, 0.0, 0.1, 0.0])
        np.testing.assert_allclose(max_pool_1d(x, 3), [0.9, 0.9, 0.9, 0.1, 0.1, 0.1])

    def test_boundaries_truncate(self):
        # windows at the edges shrink instead of reading padding
        x = np.array([5.0, 1.0, 1.0, 1.0, 7.0])
        np.testing.assert_allclose(max_pool_1d(x, 5), [5.0, 5.0, 7.0, 7.0, 7.0])

    @pytest.mark.parametrize("kernel", [0, -1, 2, 4])
    def test_invalid_kernel(self, kernel):
        with pytest.raises(ConfigurationError):
            max_pool_1d(np.ones(4), kernel)

    def test_monotone_vs_input(self, rng):
        for kernel in (3, 5, 7):
            x = rng.uniform(size=50)
            pooled = max_pool_1d(x, kernel)
            assert (pooled >= x).all()

    def test_oracle_windows(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            kernel = int(rng.choice([1, 3, 5, 7, 9]))
            x = rng.uniform(size=n)
            expected = [
                max(x[max(0, i - kernel // 2) : min(n, i + kernel // 2 + 1)]) for i in range(n)
            ]
            np.testing.assert_allclose(max_pool_1d(x, kernel), expected)


    def test_kernel_wider_than_the_row_is_clamped(self, rng):
        # from every position, a window of 2m - 1 = 79 already spans the whole row of m = 40
        x = rng.uniform(size=(2, 40))
        expected = max_pool_1d(x, 79)
        np.testing.assert_array_equal(expected, np.repeat(x.max(axis=1, keepdims=True), 40, axis=1))
        for kernel in (81, 2_000_001):
            np.testing.assert_array_equal(max_pool_1d(x, kernel), expected)
        tracemalloc.start()
        try:
            max_pool_1d(x, 2_000_001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10  # padding to the kernel's width peaked at 76 MiB

    @pytest.mark.parametrize("kernel", [1, 3, 7, 9])
    def test_rows_match_the_shifted_loop_bitwise(self, rng, kernel):
        for m in range(1, kernel + 4):
            x = rng.uniform(size=(3, m))
            pooled = max_pool_1d(x, kernel)
            assert pooled.shape == x.shape
            for row, got in zip(x, pooled):
                np.testing.assert_array_equal(got, shifted_loop_max_pool(row, kernel))
                np.testing.assert_array_equal(max_pool_1d(row, kernel), got)  # 1-D input is one row


class TestTopK:
    def test_full_selection(self, rng):
        x = rng.uniform(size=9)
        np.testing.assert_array_equal(top_k_indices(x, 9), np.arange(9))

    def test_tie_breaks_toward_lower_index(self):
        x = np.array([0.9, 0.9, 0.9, 0.1, 0.1, 0.1])
        np.testing.assert_array_equal(top_k_indices(x, 2), [0, 1])

    def test_two_largest(self):
        np.testing.assert_array_equal(top_k_indices(np.array([0.1, 0.5, 0.05, 0.3]), 2), [1, 3])

    def test_k_out_of_range(self):
        with pytest.raises(ContractViolation):
            top_k_indices(np.ones(3), 4)
        with pytest.raises(ContractViolation):
            top_k_indices(np.ones(3), 0)

    def test_result_sorted_ascending(self, rng):
        x = rng.uniform(size=30)
        idx = top_k_indices(x, 11)
        assert (np.diff(idx) > 0).all()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=24), st.data())
    def test_matches_brute_force_oracle_with_ties(self, n_rows, n, data):
        # rows of small integer scores force plenty of ties, +inf among them,
        # and whole rows can be all-equal or all-inf
        value = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, np.inf])
        row = st.one_of(
            st.lists(value, min_size=n, max_size=n),
            value.map(lambda v: [v] * n),
        )
        scores = np.array(data.draw(st.lists(row, min_size=n_rows, max_size=n_rows)))
        k = data.draw(st.one_of(st.just(1), st.just(n), st.integers(min_value=1, max_value=n)))
        got = top_k_indices(scores, k)
        assert got.shape == (n_rows, k)
        for row_scores, row_got in zip(scores, got):
            np.testing.assert_array_equal(row_got, brute_force_top_k(row_scores, k))
        np.testing.assert_array_equal(top_k_indices(scores[0], k), got[0])  # 1-D input is one row

    def test_matches_brute_force_on_long_plateau_rows(self, rng):
        # pooled selection rows: the k-th largest score sits on a plateau of equal entries
        scores = plateau_rows(rng, 2, 4096)
        got = top_k_indices(scores, 128)
        for row, row_got in zip(scores, got):
            assert np.count_nonzero(row >= np.sort(row)[-128]) > 128  # the boundary has surplus ties
            np.testing.assert_array_equal(row_got, brute_force_top_k(row.tolist(), 128))

    def test_matches_brute_force_on_random_floats(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, n + 1))
            x = rng.uniform(size=n)
            np.testing.assert_array_equal(top_k_indices(x, k), brute_force_top_k(x, k))
