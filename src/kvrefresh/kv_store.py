"""Per-layer key/value stores for the decoding engine.

Two stores per layer, both allocated only here: the full cache (every token
seen so far, never evicted, made from its shape), in the session's `full`
list, and, for every budgeted policy, the partial cache (a subset of the
full cache's entries, taken with `full.gather`, held per kv-head; it keeps
no budget: its policy holds it to one), in the session's one policy
object's `partial` list. Both are a window of one layout of head-major
arenas (`_Arena`): keys and values (n_kv_heads, slots, head_dim), and the
partial cache's positions (n_kv_heads, slots). The full cache's positions
are its slots, so it keeps none. Attention reads one head's m entries as a
slice of the slot axis, without a copy. A layer's view at a decode step is
one of its two caches itself, as the policy's `view(layer, ...)` returns
it. The view writes each fresh key/value into the caches before the layer
attends, so every view holds the current token.

The prompt's full cache is made with exactly L slots, which the prefill
writes, and doubles at its first append. Every other arena made for n
entries has max(1, 2n) slots: a partial cache's when it is built or
refilled beyond its arena, and either window's when an append finds it at
its arena's end. Giving the prompt's cache max(1, 2L) slots at the prefill
read chainkey-4k decode_tok_per_s -3.0% and peak_rss_mb +6.4% end to end
(better in 0 of 8 pairs), though one process read its mean step -8.8%. A
removal only moves a partial cache's window toward that end (see below).

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

Entry order inside a partial cache is part of its contract, and a view
is a window of its arena:

- top-K arenas (snapkv and the refresh family) are in eviction order.
  `init_partial` ranks the selected entries of every layer it is given
  (all at the prefill, the refreshing ones at a step) by (score
  ascending, position ascending); appends go to the end. Slot 0
  is therefore always the entry an eviction takes: the lowest score, ties
  toward the lower position, or, once no refilled entry is left, the
  oldest appended one. Evicting is dropping slot 0.
- streaming and h2o arenas are in ascending position order.
- A partial cache's view is the window [start, start + n) of its arena:
  a drop moves the entries before the dropped one one slot on and `start`
  with them, so dropping slot 0 copies nothing.

Attention sums over a view in the order it holds, so top-K results differ
from those over an ascending view only by rounding.

Only h2o's partial cache holds a score per entry: the cumulative
attention each position received, one (1, slots) arena that every head
shares. A top-K cache keeps no score: its order already says which entry
goes next, and every refresh ranks the whole cache afresh.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .numerics import top_k_indices


def _empty(shape: tuple, dtype=np.float64, key_major: bool = False) -> np.ndarray:
    """An uninitialised arena of `shape`; key_major stores each head of an (n_kv_heads, slots, head_dim) shape as one
    C-contiguous (head_dim, slots) block (explicit: an arena of 0 or 1 slots has strides that fit either layout)."""
    if key_major:  # memory (n_kv_heads, head_dim, slots), seen as (n_kv_heads, slots, head_dim)
        return np.empty((shape[0], shape[2], shape[1]), dtype).transpose(0, 2, 1)
    return np.empty(shape, dtype)


class _Arena:
    """The window both caches keep: n entries of every kv head in the slots [start, start + n) of
    head-major arenas, `_arrays`: key-major keys and values (n_kv_heads, slots, head_dim), then any
    further arena that moves with the window (the partial cache's positions and h2o's scores).
    """

    _start = 0
    keys = property(lambda self: self._arrays[0][:, self._start : self._start + self._n])
    values = property(lambda self: self._arrays[1][:, self._start : self._start + self._n])

    def __len__(self) -> int:
        return self._n

    def _resize(self, n: int, keep: int) -> None:
        """Move the window's first `keep` entries to slot 0 of new arenas of max(1, 2n) slots, keys key-major."""
        start, slots, arrays = self._start, max(1, 2 * n), []
        for i, a in enumerate(self._arrays):
            arrays.append(out := _empty((a.shape[0], slots) + a.shape[2:], a.dtype, key_major=i == 0))
            out[:, :keep] = a[:, start : start + keep]
        self._arrays, self._start = arrays, 0


class FullCache(_Arena):
    """Append-only store of every position's key/value, all kv-heads.

    Slot i holds position i on every head, so `positions` is a read-only
    (n_kv_heads, n) broadcast of arange(n) and an append must be at position
    len(cache). `keys` and `values` ((n_kv_heads, n, head_dim), keys rotated)
    are the window at slot 0 of its two arenas: an append writes one slot per
    head and copies only when they double. Built for n positions, it holds
    them in exactly n slots, which its builder writes through the windows.
    """

    positions = property(lambda self: np.broadcast_to(np.arange(self._n), (len(self._heads), self._n)))

    def __init__(self, n_kv_heads: int, n: int, head_dim: int):
        self._arrays = [_empty((n_kv_heads, n, head_dim), key_major=True), _empty((n_kv_heads, n, head_dim))]
        self._n, self._heads = n, np.arange(n_kv_heads)[:, None]

    def append(self, position: int, k: np.ndarray, v: np.ndarray) -> None:
        """Write position len(cache)'s (n_kv_heads, head_dim) key and value in place."""
        if position != (n := self._n):
            raise ContractViolation(f"full-cache append at {position}, the cache holds positions 0 .. {n - 1}")
        if n == self._arrays[0].shape[1]:
            self._resize(n, n)
        keys, values = self._arrays
        keys[:, n], values[:, n] = k, v
        self._n = n + 1

    def gather(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions (n_kv_heads, m), keys and values (n_kv_heads, m, head_dim) at the
        given slots: (n_kv_heads, m) per head, or (m,) that every head shares."""
        heads = self._heads
        return self.positions[heads, indices], self.keys[heads, indices], self.values[heads, indices]


class PartialCache(_Arena):
    """Per-kv-head subset of the cache; it keeps no budget (evict_overflow takes its caller's).

    Every head holds the same number n of entries, in the order the module
    docstring gives for the cache's policy, in the window of its arenas:
    keys, values and positions, built as `full.gather(slots)` (empty for a
    cache `init_partial` fills). Built or refilled beyond its arena, or
    appended to at the arena's end, it moves to slot 0 of new arenas of
    max(1, 2n) slots; a refill that fits writes from slot 0 of the same
    arenas. An append must exceed `_newest` (a Python int). Removals move the
    window toward the arena's end. Built with a (1, n) score row too, the cache keeps
    it as a fourth arena, `scores` (h2o's cumulative attention, which every
    head shares); an append leaves the new entry's score for its owner to write.
    """

    positions = property(lambda self: self._arrays[2][:, self._start : self._start + self._n])
    scores = property(lambda self: self._arrays[3][:, self._start : self._start + self._n])

    def __init__(self, full: FullCache, slots: np.ndarray, *score):
        positions, keys, values = full.gather(slots)
        self._arrays, n = [keys, values, positions, *score], positions.shape[1]
        self._resize(n, n)
        self._n, self._newest = n, int(positions.max()) if n else -1

    def sizes(self) -> list[int]:
        return [self._n] * self._arrays[0].shape[0]

    def refill(self, full: FullCache, slots: np.ndarray) -> None:
        """Replace every entry with the full cache's entries at `slots` ((n_kv_heads, n), in the order
        to hold them), from slot 0 of the arena: per head, np.take reads the full cache's key-major
        (head_dim, slots) block and row-major values straight into this cache's, with no copy between;
        the slots are the positions."""
        n = slots.shape[1]
        if n > self._arrays[0].shape[1]:
            self._resize(n, 0)
        self._start, self._n = 0, n
        (keys, values, positions), (full_keys, full_values) = self._arrays, full._arrays
        for h, s in enumerate(slots):  # all in range: "clip" only skips the check and buffered write of "raise"
            np.take(full_keys[h].T, s, axis=1, out=keys[h, :n].T, mode="clip")
            np.take(full_values[h], s, axis=0, out=values[h, :n], mode="clip")
        positions[:, :n] = slots
        self._newest = int(slots.max()) if n else -1  # top-K order puts the newest anywhere

    def append(self, position: int, k: np.ndarray, v: np.ndarray) -> None:
        """Write one entry (all heads) at the window's end."""
        n = self._n
        if position <= self._newest:
            raise ContractViolation(f"partial-cache append out of order: {position} <= {self._newest}")
        if self._start + n == self._arrays[0].shape[1]:
            self._resize(n, n)
        end = self._start + n
        keys, values, positions = self._arrays[:3]
        keys[:, end], values[:, end], positions[:, end] = k, v, position
        self._n, self._newest = n + 1, position

    def drop(self, slot: int) -> None:
        """Remove the entry at `slot` of the window on every head, keeping the others' order: the entries
        before it move one slot on and the window starts one slot later, so dropping slot 0 copies nothing."""
        n, start = self._n, self._start
        if not 0 <= slot < n:
            raise ContractViolation(f"partial-cache drop of slot {slot} outside [0, {n})")
        if slot:
            for a in self._arrays:
                a[:, start + 1 : start + slot + 1] = a[:, start : start + slot]
        self._start, self._n = start + 1, n - 1

    def evict_overflow(self, capacity: int) -> None:
        """Evict until the cache holds at most `capacity` entries, in a top-K arena's eviction order: each
        eviction drops slot 0 (the lowest score, ties toward the lower position, or the oldest
        appended entry once no refilled one is left), so the window's start moves on and nothing is copied."""
        if (excess := self._n - capacity) > 0:
            self._start += excess
            self._n = capacity


def init_partial(fulls: list[FullCache], scores: np.ndarray, k: int, into: list[PartialCache]) -> np.ndarray:
    """Refill each layer's partial cache, into[i], with the top-k scored positions of each kv-head of fulls[i].

    scores: (layers * n_kv_heads, m) selection scores (group-aggregated and
    pooled), layer by layer. Every row is ranked at once, in eviction order;
    each cache is refilled in place (its arena grows only if k no longer
    fits): previous contents, appended entries included, survive only if the
    new scores re-select them. Returns the held entries' scores, (layers *
    n_kv_heads, k), in the order the caches hold them.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[1]
    if any(len(full) != n for full in fulls):
        raise ContractViolation(f"score length {n} != full-cache lengths {[len(full) for full in fulls]}")
    if k < 1 or k > n:
        raise ConfigurationError(f"partial-cache budget must satisfy 1 <= k <= {n}, got {k}")

    idx = top_k_indices(scores, k)  # positions ascending, so a stable sort ranks ties toward the lower one
    held = np.take(scores, idx + np.arange(0, scores.size, n)[:, None])
    order = np.argsort(held, axis=1, kind="stable") + np.arange(0, idx.size, k)[:, None]  # flat, as below
    slots, held, n_kv = np.take(idx, order), np.take(held, order), scores.shape[0] // len(fulls)
    for i, (full, cp) in enumerate(zip(fulls, into)):
        cp.refill(full, slots[i * n_kv : (i + 1) * n_kv])
    return held
