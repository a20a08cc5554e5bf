"""Host-speed calibration.

On a shared machine the speed of a core drifts by 10-20% over a minute as
neighbours come and go, and every op slows together with it.  A fixed
kernel timed between ops drifts the same way: over 14-op windows of
run_dse, raw medians ranged 763-900 ms while their ratio to the kernel's
median stayed within 31.9-32.6.  So the benchmark reports every time at
the reference speed:

    normalized time = wall time * REF_MS / (median kernel time in the run)

and rates the other way round.  The kernel builds no containers, so the
garbage collector never runs inside it, and its numpy buffers are
preallocated: the program's state (heap, gc settings, caches it builds)
does not change the kernel's speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_MS = 2.0  # kernel median on the 2-core Xeon host the bounds were set on
INTERVAL_S = 0.2  # at most one sampling point per interval inside a closed loop
PER_POINT = 3  # kernel runs per sampling point

_A = np.arange(8192, dtype=np.float64)
_B = np.empty_like(_A)


def kernel_ms() -> float:
    """One timed run of the fixed kernel: an interpreter loop plus numpy."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    for _ in range(60):
        np.multiply(_A, 1.0000001, out=_B)
        np.add(_B, _A, out=_B)
    return (time.perf_counter() - t0) * 1e3


class Calibration:
    """Kernel samples taken between ops; median gives the run's speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.next_at = 0.0

    def batch(self, n: int) -> None:
        self.samples.extend(kernel_ms() for _ in range(n))

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if now >= self.next_at:
            self.batch(PER_POINT)
            self.next_at = now + INTERVAL_S

    def factor(self) -> float:
        """Multiply wall times by this to get times at the reference speed."""
        return REF_MS / statistics.median(self.samples)
