"""Per-layer key/value stores for the decoding engine.

Two stores per layer: the full cache (every token seen so far, never
evicted) and the partial cache (a fixed-budget subset carrying per-entry
selection scores, selected independently per kv-head). The session writes
each fresh key/value into the full cache before the layer attends, so a
full-attention step or a refresh finds every position in place.

Entries appended to the partial cache since the last full-attention step
have no selection score yet; they carry the NEW sentinel (+inf), which
protects them from eviction until the next refresh re-scores everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .numerics import top_k_indices

NEW_SCORE = np.inf  # sentinel for entries appended since the last scored step


class FullCache:
    """Append-only store of every position's key/value, all kv-heads.

    Entries live in arrays that double in length when full, so an append
    writes one row and copies the store only when it doubles. `positions`
    ((n,) int64, strictly increasing), `keys` and `values` ((n, n_kv_heads,
    head_dim), keys rotated) are views of the filled prefix.
    """

    def __init__(self, positions: np.ndarray, keys: np.ndarray, values: np.ndarray):
        self._arrays = [np.asarray(positions, dtype=np.int64), keys, values]
        self._n = int(self._arrays[0].size)

    positions = property(lambda self: self._arrays[0][: self._n])
    keys = property(lambda self: self._arrays[1][: self._n])
    values = property(lambda self: self._arrays[2][: self._n])

    def __len__(self) -> int:
        return self._n

    def append(self, position: int, k: np.ndarray, v: np.ndarray) -> None:
        n = self._n
        if n and position <= self._arrays[0][n - 1]:
            raise ContractViolation(f"full-cache append out of order: {position} <= {self._arrays[0][n - 1]}")
        if n == len(self._arrays[0]):
            self._arrays = [_grown(a, n) for a in self._arrays]
        positions, keys, values = self._arrays
        positions[n], keys[n], values[n] = position, k, v
        self._n = n + 1

    def gather(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.positions[indices], self.keys[indices], self.values[indices]


def _grown(a: np.ndarray, n: int) -> np.ndarray:
    """A copy of a's first n rows in an array twice as long (at least one row)."""
    out = np.empty((max(1, 2 * n),) + a.shape[1:], dtype=a.dtype)
    out[:n] = a[:n]
    return out


@dataclass
class PartialCache:
    """Fixed-budget per-kv-head subset of the cache with selection scores."""

    capacity: int
    positions: list[np.ndarray]  # per head: (m,) int64, strictly increasing
    keys: list[np.ndarray]  # per head: (m, head_dim)
    values: list[np.ndarray]  # per head: (m, head_dim)
    scores: list[np.ndarray]  # per head: (m,), NEW_SCORE for unscored entries

    def sizes(self) -> list[int]:
        return [int(p.size) for p in self.positions]

    def append(self, position: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append one entry (all heads) with the NEW sentinel score."""
        for h in range(len(self.positions)):
            if self.positions[h].size and position <= int(self.positions[h][-1]):
                raise ContractViolation(
                    f"partial-cache append out of order: {position} <= {int(self.positions[h][-1])}"
                )
            self.positions[h] = np.append(self.positions[h], np.int64(position))
            self.keys[h] = np.concatenate([self.keys[h], k[h][None]], axis=0)
            self.values[h] = np.concatenate([self.values[h], v[h][None]], axis=0)
            self.scores[h] = np.append(self.scores[h], NEW_SCORE)

    def evict_overflow(self) -> None:
        """Drop lowest-scored entries until each head is back at capacity.

        NEW entries count as +inf (never evicted while any scored entry
        remains); if a head is entirely NEW, the oldest entry goes. Score
        ties resolve toward the lower position.
        """
        for h in range(len(self.positions)):
            while self.positions[h].size > self.capacity:
                s = self.scores[h]
                finite = np.isfinite(s)
                if finite.any():
                    cand = np.flatnonzero(finite)
                    idx = int(cand[np.argmin(s[cand])])  # argmin keeps first (lowest pos) on ties
                else:
                    idx = 0  # all NEW: evict the oldest
                self.positions[h] = np.delete(self.positions[h], idx)
                self.keys[h] = np.delete(self.keys[h], idx, axis=0)
                self.values[h] = np.delete(self.values[h], idx, axis=0)
                self.scores[h] = np.delete(self.scores[h], idx)


def init_partial(full: FullCache, scores_per_head: np.ndarray, k: int) -> PartialCache:
    """Build a partial cache from the top-k scored positions of each kv-head.

    scores_per_head: (n_kv_heads, len(full)) selection scores (already
    group-aggregated and pooled). Entries keep their score and ascending
    position order. A refresh is a fresh call: previous contents, NEW
    entries included, survive only if the new scores re-select them.
    """
    scores_per_head = np.asarray(scores_per_head, dtype=np.float64)
    n_heads = scores_per_head.shape[0]
    n = len(full)
    if scores_per_head.shape[1] != n:
        raise ContractViolation(
            f"score length {scores_per_head.shape[1]} != full-cache length {n}"
        )
    if k < 1 or k > n:
        raise ConfigurationError(f"partial-cache budget must satisfy 1 <= k <= {n}, got {k}")

    positions, keys, values, scores = [], [], [], []
    for h in range(n_heads):
        idx = top_k_indices(scores_per_head[h], k)
        positions.append(full.positions[idx].copy())
        keys.append(full.keys[idx, h].copy())
        values.append(full.values[idx, h].copy())
        scores.append(scores_per_head[h][idx].copy())
    return PartialCache(k, positions, keys, values, scores)
