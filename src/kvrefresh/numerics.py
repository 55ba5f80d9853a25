"""Scalar/vector primitives used by every other module.

All functions are pure, operate on float64 numpy arrays, and are safe to
call concurrently. Score arrays hold non-negative reals whose last axis
runs over the scored cache positions.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ContractViolation


def softmax_rows(logits: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stable softmax along the last axis, left unnormalised: the exponentials of the logits less their row
    maximum, written into `out` when given (which may be `logits` itself), and their row sums, keepdims. The
    probabilities are exps / sums; a caller divides only what it reads. Without `out` the input is unchanged."""
    x = np.asarray(logits, dtype=np.float64)
    z = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True), out=out)
    np.exp(z, out=z)
    return z, np.add.reduce(z, axis=-1, keepdims=True)


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1].

    An all-zero vector has no direction; similarity is defined as 0.0 so
    downstream threshold checks take the conservative branch.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ContractViolation(f"cosine_similarity shape mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    sim = float(np.dot(u, v) / (nu * nv))
    return min(1.0, max(-1.0, sim))


def max_pool_1d(scores: np.ndarray, kernel: int) -> np.ndarray:
    """Sliding-window maximum along the last axis with odd kernel, windows truncated at the edges.

    scores: (..., m). out[..., i] = max(scores[..., i - kernel//2 : i + kernel//2 + 1])
    intersected with valid indices. Every row is pooled at once: the rows are
    padded with -inf, and each shifted np.maximum doubles the window covered
    (widths 1, 2, 4, ..., kernel), so kernel 7 takes three calls.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigurationError(f"pooling kernel must be odd and positive, got {kernel}")
    x = np.asarray(scores, dtype=np.float64)
    kernel = min(kernel, max(2 * x.shape[-1] - 1, 1))  # from every i, a wider window spans the whole row
    pad = np.full(x.shape[:-1] + (kernel // 2,), -np.inf)
    out = np.concatenate([pad, x, pad], axis=-1)
    width = 1  # out[..., i] is the maximum of `width` padded entries starting at i
    while width < kernel:
        shift = min(width, kernel - width)
        out = np.maximum(out[..., :-shift], out[..., shift:])
        width += shift
    return out


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores along the last axis, ties broken toward the lower index.

    scores: (..., n); returns (..., k), each row sorted ascending by
    position. One partition finds each row's k-th largest score t, and one
    pass flags the entries >= t. A row with more than k of them has surplus
    entries equal to t; its highest-index ties are dropped, working on the
    flagged entries only.
    """
    x = np.asarray(scores, dtype=np.float64)
    n = x.shape[-1]
    if k < 1 or k > n:
        raise ContractViolation(f"top-k needs 1 <= k <= {n}, got {k}")
    threshold = np.partition(x, n - k, axis=-1)[..., n - k : n - k + 1]
    flat = np.flatnonzero(x >= threshold)  # row by row, ascending within each row
    if flat.size > x.size // n * k:
        rows = flat // n
        tie = np.flatnonzero(np.take(x, flat) == np.take(threshold, rows))
        tie_rows = rows[tie]
        # count each tie back from its row's last tie; the row's surplus is dropped from the end
        from_end = np.searchsorted(tie_rows, tie_rows, side="right") - np.arange(1, tie.size + 1)
        keep = np.ones(flat.size, dtype=bool)
        keep[tie[from_end < (np.bincount(rows) - k)[tie_rows]]] = False
        flat = flat[keep]
    return (flat % n).reshape(x.shape[:-1] + (k,))
