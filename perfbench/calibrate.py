"""Reference kernels that measure how fast the host runs right now.

On a shared host the same work can take 30% longer for tens of seconds at
a time, and the slowdown hits every process alike. The benchmark therefore
interleaves two fixed kernels with the work it times and reports each
time scaled to the speed at which the kernels take their nominal time:

    reported = measured * nominal_kernel_time / kernel_time_measured

The kernels use numpy only and never call kvrefresh, so a change to the
package moves the measured time and not the reference. Each sample runs
its kernel twice and times the second run, so what the timed work left in
the caches does not leak into the reference.

- `small` resembles a decode step (Python dispatch over small arrays). It
  runs every few steps; each step is scaled by the rolling median of the
  samples nearest it.
- `big` resembles prefill (memory-bound passes over a 1024x1024 array). It
  runs, warm, just before and just after every prefill; each prefill is
  scaled by the mean of those two samples.

The nominal times are constants of the benchmark: changing them rescales
every reported time.
"""

from __future__ import annotations

import time

import numpy as np

SMALL_NOMINAL_NS = 220_000
BIG_NOMINAL_NS = 9_000_000
WINDOW = 9  # samples in the rolling median that scales each step

_now = time.perf_counter_ns


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.keys = rng.standard_normal((1024, 16))
        self.w_in = rng.standard_normal((64, 64)) / 8
        self.w_up = rng.standard_normal((64, 256)) / 8
        self.w_down = rng.standard_normal((256, 64)) / 16
        self.queries = rng.standard_normal((2, 16))
        self.square = rng.standard_normal((1024, 1024))

    def small(self) -> int:
        """Duration in ns of the decode-step-like kernel, run warm."""
        self._small()
        start = _now()
        self._small()
        return _now() - start

    def big(self) -> int:
        """Duration in ns of the prefill-like kernel, run warm."""
        self._big()
        start = _now()
        self._big()
        return _now() - start

    def _small(self) -> None:
        x = self.w_in[0]
        for _ in range(2):
            h = x / np.sqrt(np.mean(x * x) + 1e-6) @ self.w_in
            keys = np.concatenate([self.keys, h[None, :16]], axis=0)
            for q in self.queries:
                s = keys @ (q * h[16:32])
                p = np.exp(s - s.max())
                h[:16] += (p / p.sum()) @ keys
            u = h @ self.w_up
            x = x + (u / (1.0 + np.exp(-u)) * u) @ self.w_down

    def _big(self) -> None:
        p = self.square - self.square.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        _ = p @ self.keys


def step_factors(n_steps: int, sample_steps: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Per-step scale factors from small-kernel samples taken after `sample_steps`.

    Each step is scaled by the rolling median of the WINDOW samples nearest it.
    """
    if samples.size == 0:
        return np.ones(n_steps)
    half = WINDOW // 2
    padded = np.pad(samples.astype(np.float64), half, mode="edge")
    rolling = np.median(np.lib.stride_tricks.sliding_window_view(padded, WINDOW), axis=1)
    nearest = np.clip(np.searchsorted(sample_steps, np.arange(n_steps)), 0, samples.size - 1)
    return SMALL_NOMINAL_NS / rolling[nearest]
