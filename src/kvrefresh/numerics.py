"""Scalar/vector primitives used by every other module.

All functions are pure, operate on float64 numpy arrays, and are safe to
call concurrently. Score arrays hold non-negative reals whose last axis
runs over the scored cache positions.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ContractViolation


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis; the input is left unchanged."""
    x = np.asarray(logits, dtype=np.float64)
    z = x - x.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


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
    """Sliding-window maximum with odd kernel, windows truncated at the edges.

    out[i] = max(scores[i - kernel//2 : i + kernel//2 + 1]) intersected with
    valid indices; output length equals input length.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigurationError(f"pooling kernel must be odd and positive, got {kernel}")
    x = np.asarray(scores, dtype=np.float64)
    if kernel == 1 or x.size <= 1:
        return x.copy()
    half = kernel // 2
    n = x.size
    out = x.copy()
    for off in range(1, half + 1):
        out[off:] = np.maximum(out[off:], x[:-off])
        out[:-off] = np.maximum(out[:-off], x[off:])
    assert out.shape == x.shape
    return out


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores along the last axis, ties broken toward the lower index.

    scores: (..., n); returns (..., k), each row sorted ascending by
    position. One partition finds each row's k-th largest score; every
    index strictly above it is kept, and the remaining slots go to the
    lowest-index entries equal to it.
    """
    x = np.asarray(scores, dtype=np.float64)
    n = x.shape[-1]
    if k < 1 or k > n:
        raise ContractViolation(f"top-k needs 1 <= k <= {n}, got {k}")
    neg = -x  # ascending order of -x is descending order of x
    threshold = np.partition(neg, k - 1, axis=-1)[..., k - 1 : k]
    above = neg < threshold
    ties = neg == threshold
    # ufunc reductions direct: the array methods' dispatch dominates at h2o's per-step sizes
    need = k - np.add.reduce(above, axis=-1, keepdims=True, dtype=np.intp)
    keep = above | (ties & (np.add.accumulate(ties, axis=-1, dtype=np.intp) <= need))
    return np.nonzero(keep)[-1].reshape(x.shape[:-1] + (k,))
