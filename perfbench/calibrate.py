"""A fixed reference computation that tracks the machine's current speed.

On a shared host the speed available to one process drifts by a quarter
or more over seconds to minutes: the host switches between busier and
quieter states, and every kind of work slows together.  The benchmark
times this computation right before and right after every timed
operation and every set-up, takes the mean of the two as the machine's
speed during it, and reports each duration divided by that mean, times
``REFERENCE_S``: seconds at a fixed reference speed.  The raw wall-clock
durations are kept beside them.

The computation uses no poselift code, so a change to poselift cannot
move it.  It mixes, in about equal parts, what poselift's operations
spend their time on: interpreted Python that builds small objects, many
small numpy calls, float32 matrix products and elementwise kernels on
arrays of a few megabytes, and freshly allocated and streamed memory.
"""

from __future__ import annotations

import time

import numpy as np

# About the median duration of one `measure()` on the reference machine
# (2 vCPUs of a shared x86-64 host, one BLAS thread).  Only a unit: it
# scales every normalised time alike.
REFERENCE_S = 0.15


class Calibration:
    """The reference computation and its inputs, built once per run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal((8, 27, 17, 16)).astype(np.float32)
        self.weight = (rng.standard_normal((16, 16)) * 0.25).astype(np.float32)
        self.large = rng.standard_normal((2048, 384)).astype(np.float32)
        self.square = (rng.standard_normal((384, 384)) * 0.05).astype(np.float32)
        self.stream = rng.standard_normal(4_000_000).astype(np.float32)
        self.measure()

    def _python(self) -> int:
        nodes: list = []
        for i in range(80000):
            nodes.append((i, [i % 7], {"grad": None}))
            if len(nodes) > 64:
                nodes.clear()
        total = 0
        for i in range(240000):
            total = (total + i * 7) % 1000003
        return total

    def _small_arrays(self) -> float:
        x = self.small
        for _ in range(180):
            h = x @ self.weight
            h = h - h.mean(axis=-1, keepdims=True)
            x = np.tanh(h) * 0.5 + x * 0.5
        return float(x[0, 0, 0, 0])

    def _large_arrays(self) -> float:
        x = self.large
        for _ in range(4):
            h = x @ self.square
            e = np.exp(h - h.max(axis=-1, keepdims=True))
            x = e / e.sum(axis=-1, keepdims=True) + x * 0.5
        return float(x[0, 0])

    def _memory(self) -> float:
        total = 0.0
        for _ in range(14):
            fresh = np.empty(1_500_000, np.float64)
            fresh.fill(1.0)
            total += float(fresh[-1])
        for _ in range(6):
            total += float((self.stream * 1.5)[-1])
        return total

    def measure(self) -> float:
        """Run the reference computation once; its wall-clock seconds."""
        start = time.perf_counter()
        self._python()
        self._small_arrays()
        self._large_arrays()
        self._memory()
        return time.perf_counter() - start
