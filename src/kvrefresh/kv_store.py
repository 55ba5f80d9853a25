"""Per-layer key/value stores for the decoding engine.

Two stores per layer: the full cache (every token seen so far, never
evicted) and, for every budgeted policy, the partial cache (a
fixed-budget subset with one score per entry, held per kv-head). Both are
head-major arenas: keys and values live in (n_kv_heads, slots, head_dim)
arrays whose slot axis doubles when full, so attention reads one head's
first m entries as a prefix view, without a copy. The session writes each
fresh key/value into its store before the layer attends, so a view is
always the filled prefix of an arena that already holds the current token.

Key arenas are key-major: the array keeps its (n_kv_heads, slots,
head_dim) shape, but each head's keys are stored as one C-contiguous
(head_dim, slots) block, so `keys[h].T` is a row-major matrix and
attention's q @ keys.transpose(0, 2, 1) is a plain (NN) GEMM with
leading dimension `slots`. Row-major keys send it through BLAS's
transposed-B (NT) path instead: the (2, 2, 16) x (16, m) logit product
took 59-67 us at m=2,500 and 83 us at m=4,096 that way, against 17-23 us
and 30 us key-major (OpenBLAS, one thread). The partial cache's arena is
key-major too, so both caches hand attention one layout (at K=128 neither
layout measured faster); the two layouts agree up to the last bits. Value
arenas stay row-major, which is what the probability @ values product
reads as NN.

`scores` holds, for top-K, each entry's selection score, with the NEW
sentinel (+inf) on entries appended since the last refresh, which protects
them from eviction until the next refresh re-scores everything; for h2o,
each entry's cumulative attention (equal on every head); for streaming,
nothing it reads (zero or NEW), since it drops by slot.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .numerics import top_k_indices

NEW_SCORE = np.inf  # sentinel for entries appended since the last scored step
PARTIAL_SLACK = 1  # spare partial-cache slots: one append past the budget before eviction


def _resized(a: np.ndarray, n: int, slots: int, axis: int = 1, key_major: bool = False) -> np.ndarray:
    """A copy of a's first n slots along `axis` in an array with `slots` of them.

    With key_major, a is an (n_kv_heads, slots, head_dim) key arena and the
    copy stores each head as one C-contiguous (head_dim, slots) block. The
    flag is explicit because memory order cannot be read back from an
    arena with 0 or 1 slots, whose strides fit either layout.
    """
    shape = a.shape[:axis] + (slots,) + a.shape[axis + 1 :]
    if key_major:  # memory (n_kv_heads, head_dim, slots), seen as (n_kv_heads, slots, head_dim)
        out = np.empty((shape[0], shape[2], shape[1]), a.dtype).transpose(0, 2, 1)
    else:
        out = np.empty(shape, a.dtype)
    filled = (slice(None),) * axis + (slice(0, n),)
    out[filled] = a[filled]
    return out


class FullCache:
    """Append-only store of every position's key/value, all kv-heads.

    `positions` ((n,) int64, strictly increasing), `keys` and `values`
    ((n_kv_heads, n, head_dim), keys rotated) are views of the filled
    prefix of arrays that double when full, so an append writes one slot
    per head and copies the store only when it doubles. The key arena is
    key-major (see the module docstring): `_forward` hands the prefill's
    keys over in that order and every doubling keeps it. `head_positions`
    is `positions` broadcast over the heads, (n_kv_heads, n), as an
    attention view holds it.
    """

    def __init__(self, positions: np.ndarray, keys: np.ndarray, values: np.ndarray):
        self._positions = np.asarray(positions, dtype=np.int64)
        self._keys, self._values = keys, values
        self._n = int(self._positions.size)
        self._heads = np.arange(keys.shape[0])[:, None]
        self._broadcast_positions()

    positions = property(lambda self: self._positions[: self._n])
    head_positions = property(lambda self: self._head_positions[:, : self._n])
    keys = property(lambda self: self._keys[:, : self._n])
    values = property(lambda self: self._values[:, : self._n])

    def __len__(self) -> int:
        return self._n

    def append(self, position: int, k: np.ndarray, v: np.ndarray) -> None:
        """Write one position's (n_kv_heads, head_dim) key and value in place."""
        n = self._n
        if n and position <= self._positions[n - 1]:
            raise ContractViolation(f"full-cache append out of order: {position} <= {self._positions[n - 1]}")
        if n == self._positions.size:
            slots = max(1, 2 * n)
            self._positions = _resized(self._positions, n, slots, axis=0)
            self._keys = _resized(self._keys, n, slots, key_major=True)
            self._values = _resized(self._values, n, slots)
            self._broadcast_positions()
        self._positions[n], self._keys[:, n], self._values[:, n] = position, k, v
        self._n = n + 1

    def _broadcast_positions(self) -> None:
        # once per arena size: np.broadcast_to costs several us a call, a slice of its result well under one
        self._head_positions = np.broadcast_to(self._positions, self._keys.shape[:2])

    def gather(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions (n_kv_heads, m), keys and values (n_kv_heads, m, head_dim) at the
        given slots: (n_kv_heads, m) per head, or (m,) that every head shares."""
        heads = self._heads
        return self.head_positions[heads, indices], self.keys[heads, indices], self.values[heads, indices]


class PartialCache:
    """Fixed-budget per-kv-head subset of the cache with one score per entry.

    Every head holds the same number m of entries, in ascending position
    order. `positions` and `scores` ((n_kv_heads, m)), `keys` and `values`
    ((n_kv_heads, m, head_dim)) are views of the filled prefix of arrays
    with m + PARTIAL_SLACK slots at the last refill, which double if the
    cache outgrows them. A refresh refills the same arrays in place. The
    key arena is key-major (see the module docstring).
    """

    def __init__(self, capacity: int, positions: np.ndarray, keys: np.ndarray, values: np.ndarray,
                 scores: np.ndarray):
        self._arrays = [_resized(a, 0, 0) for a in (positions, keys, values, scores)]
        self.refill(capacity, positions, keys, values, scores)

    positions = property(lambda self: self._arrays[0][:, : self._n])
    keys = property(lambda self: self._arrays[1][:, : self._n])
    values = property(lambda self: self._arrays[2][:, : self._n])
    scores = property(lambda self: self._arrays[3][:, : self._n])

    def sizes(self) -> list[int]:
        return [self._n] * self._arrays[0].shape[0]

    def refill(self, capacity: int, positions: np.ndarray, keys: np.ndarray, values: np.ndarray,
               scores: np.ndarray) -> None:
        """Replace every entry with the given (n_kv_heads, m, ...) arrays, in the existing arena when it fits."""
        self.capacity, self._n = capacity, positions.shape[1]
        self._newest = int(positions[:, -1].max()) if self._n else -1
        if (slots := self._n + PARTIAL_SLACK) > self._arrays[0].shape[1]:
            self._resize(0, slots)
        for a, new in zip(self._arrays, (positions, keys, values, scores)):
            a[:, : self._n] = new

    def append(self, position: int, k: np.ndarray, v: np.ndarray) -> None:
        """Write one entry (all heads) in place with the NEW sentinel score. The position must
        exceed the newest one the last `refill` or `append` wrote, a Python int kept for the check."""
        n = self._n
        if position <= self._newest:
            raise ContractViolation(f"partial-cache append out of order: {position} <= {self._newest}")
        if n == self._arrays[0].shape[1]:
            self._resize(n, max(1, 2 * n))
        positions, keys, values, scores = self._arrays
        positions[:, n], keys[:, n], values[:, n], scores[:, n] = position, k, v, NEW_SCORE
        self._n, self._newest = n + 1, position

    def _resize(self, n: int, slots: int) -> None:
        """Move the first n entries into arrays of `slots` slots; keys (array 1) go key-major."""
        self._arrays = [_resized(a, n, slots, key_major=i == 1) for i, a in enumerate(self._arrays)]

    def drop(self, slots: list[int]) -> None:
        """Remove head h's entry at slots[h]. Later entries shift down one slot in place, so
        positions stay ascending. When every head drops the same slot (streaming, h2o, top-K
        with shared selection) that is one slice copy per array over all heads; otherwise one
        per head and array, at a few heads still cheaper than gathers."""
        n, first = self._n, slots[0]
        if slots.count(first) == len(slots):
            for a in self._arrays:
                a[:, first : n - 1] = a[:, first + 1 : n]
        else:
            for h, i in enumerate(slots):
                for a in self._arrays:
                    a[h, i : n - 1] = a[h, i + 1 : n]
        self._n = n - 1

    def evict_overflow(self) -> None:
        """Drop lowest-scored entries until each head is back at capacity.

        NEW entries count as +inf (never evicted while any scored entry
        remains); if a head is entirely NEW, the oldest entry goes. Score
        ties resolve toward the lower position.
        """
        while self._n > self.capacity:
            # argmin keeps the first (lowest position) on ties, and slot 0 when all are NEW (+inf)
            self.drop(self.scores.argmin(axis=1).tolist())


def init_partial(full: FullCache, scores_per_head: np.ndarray, k: int, into: PartialCache | None = None
                 ) -> PartialCache:
    """Fill a partial cache with the top-k scored positions of each kv-head.

    scores_per_head: (n_kv_heads, len(full)) selection scores (already
    group-aggregated and pooled). Entries keep their score and ascending
    position order. A refresh passes the layer's cache as `into` and it is
    refilled in place (its arena grows only if k exceeds it): previous
    contents, NEW entries included, survive only if the new scores
    re-select them. Without `into` a new cache is built.
    """
    scores_per_head = np.asarray(scores_per_head, dtype=np.float64)
    n = len(full)
    if scores_per_head.shape[1] != n:
        raise ContractViolation(f"score length {scores_per_head.shape[1]} != full-cache length {n}")
    if k < 1 or k > n:
        raise ConfigurationError(f"partial-cache budget must satisfy 1 <= k <= {n}, got {k}")

    idx = top_k_indices(scores_per_head, k)  # (n_kv_heads, k)
    entries = (*full.gather(idx), scores_per_head[np.arange(idx.shape[0])[:, None], idx])
    if into is None:
        return PartialCache(k, *entries)
    into.refill(k, *entries)
    return into
