"""The chain-of-key generator and scorer, and the lm token streams."""

import numpy as np
import pytest

from kvrefresh.errors import ConfigurationError
from kvrefresh.tasks import evaluate_chain, generate_chain_instance, number_in_words, synthetic_lm_stream

T = 5


@pytest.fixture(scope="module")
def instance():
    return generate_chain_instance(n_keys=12, words_per_key=3, chain_length=T, seed=7)


def gold(instance, length: int = T) -> list[str]:
    """The first `length` keys of the cycle, walked from the first context key."""
    chain = [instance.keys[0]]
    while len(chain) < length:
        chain.append(instance.successor_map[chain[-1]])
    return chain


def score(instance, keys: list[str]) -> float:
    return evaluate_chain(instance, ", ".join(keys)).score


class TestEvaluateChain:
    def test_gold_chain_scores_one(self, instance):
        result = evaluate_chain(instance, ", ".join(gold(instance)))
        assert (result.valid_prefix_length, result.score) == (T, 1.0)

    @pytest.mark.parametrize("j", range(1, T))
    def test_chain_broken_at_key_j_scores_j_over_t(self, instance, j):
        chain = gold(instance)
        # a context key that does not chain onto key j - 1: the one two steps on
        chain[j] = instance.successor_map[chain[j]]
        assert score(instance, chain) == j / T

    def test_key_not_in_context_stops_the_score(self, instance):
        chain = gold(instance)
        last_word = chain[1].split("-")[-1]
        chain[2] = f"{last_word}-absent-{chain[2].split('-')[-1]}"
        assert chain[2] not in instance.keys
        assert score(instance, chain) == 2 / T
        assert score(instance, ["waggish-fishery", *chain]) == 0.0

    def test_text_after_t_keys_is_ignored(self, instance):
        chain = gold(instance)
        assert score(instance, chain + ["not a key", chain[0]]) == 1.0
        assert score(instance, gold(instance, 2 * T)) == 1.0

    def test_keys_are_trimmed_and_case_sensitive(self, instance):
        chain = gold(instance)
        assert evaluate_chain(instance, " ,\n".join(chain)).score == 1.0
        assert score(instance, [chain[0].upper(), *chain[1:]]) == 0.0


class TestGenerateChainInstance:
    def test_each_key_ends_where_its_successor_starts(self, instance):
        assert sorted(instance.successor_map) == sorted(instance.keys)
        for key, successor in instance.successor_map.items():
            assert key.split("-")[-1] == successor.split("-")[0]
            assert len(key.split("-")) == 3

    def test_keys_and_words_are_distinct(self, instance):
        assert len(set(instance.keys)) == len(instance.keys) == 12
        # each boundary word is shared by exactly two keys, each interior word by one
        words = [w for key in instance.keys for w in key.split("-")]
        assert len(set(words)) == 12 * 2

    def test_successors_form_one_cycle(self, instance):
        assert len(set(gold(instance, 12))) == 12
        assert instance.successor_map[gold(instance, 12)[-1]] == instance.keys[0]

    def test_every_key_is_in_the_prompt(self, instance):
        for key in instance.keys:
            assert f"Name of key: {key}" in instance.prompt
        assert instance.prompt.endswith(f"Chain of {number_in_words(T)} keys:")

    def test_same_seed_same_instance(self, instance):
        assert generate_chain_instance(n_keys=12, words_per_key=3, chain_length=T, seed=7) == instance
        assert generate_chain_instance(n_keys=12, words_per_key=3, chain_length=T, seed=8).keys != instance.keys

    @pytest.mark.parametrize(
        "n_keys, words_per_key, chain_length",
        [(1, 2, 1), (4, 1, 2), (4, 2, 0), (4, 2, 5), (10_000, 2, 1)],
        ids=["one-key", "one-word", "empty-chain", "chain-longer-than-keys", "more-words-than-the-list"],
    )
    def test_impossible_instance_is_a_configuration_error(self, n_keys, words_per_key, chain_length):
        with pytest.raises(ConfigurationError):
            generate_chain_instance(n_keys, words_per_key, chain_length)


@pytest.mark.parametrize(
    "n, words",
    [(0, "zero"), (7, "seven"), (19, "nineteen"), (20, "twenty"), (42, "forty two"), (100, "one hundred"),
     (315, "three hundred fifteen"), (999, "nine hundred ninety nine")],
)
def test_number_in_words(n, words):
    assert number_in_words(n) == words


@pytest.mark.parametrize("n", [-1, 1000])
def test_number_in_words_out_of_range(n):
    with pytest.raises(ConfigurationError):
        number_in_words(n)


class TestSyntheticLmStream:
    @pytest.mark.parametrize("period", [1, 7, 64])
    def test_repeated_motif_has_period_motif_period(self, period):
        stream = synthetic_lm_stream(300, 256, seed=3, structure="repeated_motif", motif_period=period)
        assert stream.shape == (300,)
        assert np.array_equal(stream[period:], stream[:-period])

    def test_uniform_stream_is_seeded_and_in_vocab(self):
        a = synthetic_lm_stream(500, 50, seed=1)
        assert np.array_equal(a, synthetic_lm_stream(500, 50, seed=1))
        assert not np.array_equal(a, synthetic_lm_stream(500, 50, seed=2))
        assert 0 <= a.min() and a.max() < 50

    def test_uniform_stream_never_reads_motif_period(self):
        # why RunConfig.validate refuses motif_period off its default under structure uniform
        a = synthetic_lm_stream(200, 256, seed=0, structure="uniform")
        assert np.array_equal(a, synthetic_lm_stream(200, 256, seed=0, structure="uniform", motif_period=7))
