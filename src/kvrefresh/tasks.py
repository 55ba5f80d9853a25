"""Synthetic evaluation tasks and deterministic token streams.

The chain-of-key task hands the model a shuffled list of multi-word keys
and asks for a chain of them in which each key's first word equals the
previous key's last word. Keys are built over one cyclic word sequence,
so every key has exactly one successor and one predecessor (an open chain
would leave the last key successorless). Scoring is the length of the
valid output prefix divided by the requested chain length: a key must
appear in the context, and from the second key onward it must chain onto
the previous one.

Also here: a seeded token-stream generator for language-model runs (the
repeated-motif variant embeds exact long-range repeats so cache quality
measurably affects loss) and a byte-level tokenizer pairing prompts with
the 256-entry vocabulary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import ConfigurationError

PROMPT_EXAMPLE = (
    "waggish-fishery, fishery-mosquito, mosquito-perfume, perfume-panda, "
    "panda-juice, juice-willow, willow-bronco, bronco-creditor, "
    "creditor-bathhouse, bathhouse-woman"
)
# words of the instruction example never enter generated instances
RESERVED_WORDS = frozenset(
    "waggish fishery mosquito perfume panda juice willow bronco creditor bathhouse woman".split()
)

_ONES = (
    "zero one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
_TENS = "twenty thirty forty fifty sixty seventy eighty ninety".split()


@lru_cache(maxsize=1)
def word_list() -> tuple[str, ...]:
    """The bundled, repo-fixed word pool (>= 2000 lowercase words)."""
    text = resources.files("kvrefresh.data").joinpath("words.txt").read_text("utf-8")
    words = tuple(w for w in text.split() if w not in RESERVED_WORDS)
    return words


def number_in_words(n: int) -> str:
    """Small-number spelling for the prompt trailer, e.g. 10 -> 'ten'."""
    if n < 0:
        raise ConfigurationError("chain length must be non-negative")
    if n < 20:
        return _ONES[n]
    if n < 100:
        tens, ones = divmod(n, 10)
        return _TENS[tens - 2] + ("" if ones == 0 else f" {_ONES[ones]}")
    if n < 1000:
        hundreds, rest = divmod(n, 100)
        return _ONES[hundreds] + " hundred" + ("" if rest == 0 else f" {number_in_words(rest)}")
    raise ConfigurationError(f"no spelling for {n}")


@dataclass
class ChainKeyInstance:
    keys: list[str]  # context order (seeded shuffle of the cycle)
    successor_map: dict[str, str]
    prompt: str
    chain_length: int


@dataclass
class ChainScore:
    valid_prefix_length: int
    score: float  # valid_prefix_length / chain_length


def _instruction(chain_length: int) -> str:
    return (
        f"You are given many keys composed of a few words. Your task is to "
        f"generate a chain of {chain_length} keys such that the first word of "
        f"the current key is the last word of the previous key. Separate the "
        f"keys with comma."
    )


def build_prompt(keys: list[str], chain_length: int) -> str:
    header = (
        _instruction(chain_length)
        + f" Example: {PROMPT_EXAMPLE}. You must generate keys that are in the "
        + "context. DO NOT REPEAT THE EXAMPLE.\n\nContext:"
    )
    body = "\n\n".join(f"Name of key: {key}" for key in keys)
    footer = (
        "\n\n"
        + _instruction(chain_length)
        + " You must generate keys that are in the context. "
        + f"Chain of {number_in_words(chain_length)} keys:"
    )
    return header + body + footer


def generate_chain_instance(
    n_keys: int, words_per_key: int = 2, chain_length: int = 10, seed: int = 0
) -> ChainKeyInstance:
    """Build one task instance over a single cyclic word sequence.

    key_i runs from cycle word i to cycle word i+1 (wrapping), with
    words_per_key - 2 unique interior words; all words in the instance are
    distinct, so every key has exactly one successor and one predecessor.
    """
    if words_per_key < 2:
        raise ConfigurationError(f"keys need at least 2 words, got {words_per_key}")
    if n_keys < 2:
        raise ConfigurationError(f"need at least 2 keys for a cycle, got {n_keys}")
    if chain_length < 1 or n_keys < chain_length:
        raise ConfigurationError(
            f"need 1 <= chain_length <= n_keys, got chain_length={chain_length} n_keys={n_keys}"
        )
    needed = n_keys * (words_per_key - 1)
    pool = word_list()
    if needed > len(pool):
        raise ConfigurationError(f"word list has {len(pool)} words, instance needs {needed}")

    rng = random.Random(seed)
    sample = rng.sample(pool, needed)
    boundary = sample[:n_keys]
    interior = iter(sample[n_keys:])
    keys = []
    for i in range(n_keys):
        middle = [next(interior) for _ in range(words_per_key - 2)]
        keys.append("-".join([boundary[i], *middle, boundary[(i + 1) % n_keys]]))
    successor_map = {keys[i]: keys[(i + 1) % n_keys] for i in range(n_keys)}

    shuffled = list(keys)
    rng.shuffle(shuffled)
    prompt = build_prompt(shuffled, chain_length)
    return ChainKeyInstance(shuffled, successor_map, prompt, chain_length)


def evaluate_chain(instance: ChainKeyInstance, output_text: str) -> ChainScore:
    """Score an output: longest valid prefix of keys divided by chain length.

    Keys are parsed by splitting on commas and trimming whitespace,
    case-sensitive. The first key only needs to exist in the context; each
    later key must also start with the previous key's last word. Repeats
    are allowed; anything after the first invalid key is ignored.
    """
    t = instance.chain_length
    keyset = set(instance.keys)
    candidates = [part.strip() for part in output_text.split(",")]
    valid = 0
    prev: str | None = None
    for cand in candidates[:t]:
        if cand not in keyset:
            break
        if prev is not None and cand.split("-")[0] != prev.split("-")[-1]:
            break
        valid += 1
        prev = cand
    return ChainScore(valid, valid / t)


def check_stream_structure(structure: str, motif_period: int) -> None:
    """Reject a stream structure synthetic_lm_stream cannot build."""
    if structure not in ("uniform", "repeated_motif"):
        raise ConfigurationError(f"unknown stream structure {structure!r}")
    if structure == "repeated_motif" and motif_period < 1:
        raise ConfigurationError(f"motif_period must be positive, got {motif_period}")


def synthetic_lm_stream(
    length: int,
    vocab_size: int,
    seed: int = 0,
    structure: str = "uniform",
    motif_period: int = 64,
) -> np.ndarray:
    """Deterministic token stream for language-model runs.

    uniform: i.i.d. tokens. repeated_motif: one random motif tiled across
    the stream, so token[i] == token[i - motif_period] exactly; predicting
    the tail well requires remembering positions a full period back.
    """
    if length < 2:
        raise ConfigurationError(f"stream length must be >= 2, got {length}")
    if vocab_size < 2:
        raise ConfigurationError(f"vocab_size must be >= 2, got {vocab_size}")
    check_stream_structure(structure, motif_period)
    rng = np.random.default_rng(seed)
    if structure == "uniform":
        return rng.integers(0, vocab_size, size=length, dtype=np.int64)
    motif = rng.integers(0, vocab_size, size=motif_period, dtype=np.int64)
    reps = length // motif_period + 1
    return np.tile(motif, reps)[:length]


def encode_text(text: str) -> list[int]:
    """Byte-level tokenization: one token per UTF-8 byte (vocab 256)."""
    return list(text.encode("utf-8"))


def decode_tokens(tokens: list[int]) -> str:
    return bytes(int(t) & 0xFF for t in tokens).decode("utf-8", errors="replace")
