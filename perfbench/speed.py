"""Machine-speed calibration for end-to-end times.

On a shared 2-core box the same job runs up to 1.8x slower for minutes at a
time while neighbours are busy; the slowdown shows in CPU time as much as in
wall time, so no choice of clock removes it, and a 30 s run cannot average it
out.  A run therefore times a fixed calibration kernel between its jobs and
reports each interval scaled by NOMINAL_S / (kernel time measured around it):
seconds on a machine running the kernel in NOMINAL_S.  The kernel is
benchmark code that no library change touches.  It mixes the kinds of work
the workloads do: interpreted Python, numpy loops over tiny and mid-size
arrays, and small LAPACK calls.  Raw wall-clock values are kept beside the result.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on the 2-core box the benchmark was defined on, busy neighbours.
NOMINAL_S = 0.003
_WINDOW = 2  # samples on each side of an interval that set its speed

_X = np.linspace(-1.0, 1.0, 1024)
_M = np.random.default_rng(0).normal(size=(32, 32))


def _kernel() -> None:
    s = 0.0
    for i in range(3000):
        s += (i * 0.5) % 3.0
    for x in (_X[:16], _X):
        a, b = np.ones_like(x), x.copy()
        for n in range(1, 60):
            a, b = b, ((2 * n + 1) * x * b - n * a) / (n + 1)
    for _ in range(6):
        np.linalg.svd(_M)


class SpeedLog:
    """Kernel timings taken between measured intervals, in order."""

    def __init__(self):
        self.samples: list[float] = []

    def mark(self) -> int:
        """Time the kernel once; returns the sample's index."""
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def scale(self, before: int, after: int) -> float:
        """Factor for an interval between samples `before` and `after`."""
        window = self.samples[max(0, before - _WINDOW) : after + _WINDOW + 1]
        return NOMINAL_S / statistics.median(window)
