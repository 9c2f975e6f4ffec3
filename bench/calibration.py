"""A fixed numpy kernel that measures how fast the machine runs right now.

On a shared host the speed of one core drifts by tens of percent over
minutes, and it drifts for every program on it.  The kernel below does not
depend on fibreqm.  Timed between the benchmark's passes, it drifts with
them, so dividing a pass time by the kernel time cancels most of the drift.
Its two halves follow the two kinds of work in a pass: many numpy calls on
tiny matrices, and batched 32 x 32 complex matrix products.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

# A typical duration of one kernel run on the machine the benchmark was
# defined on (2 KVM vCPUs of a Xeon host, Python 3.11, numpy 2.4.6, one BLAS
# thread): single runs took 0.31 to 0.53 s, and the medians of 45 s runs
# about 0.37 s.  Rescaled times read as seconds at a kernel time of 0.45 s.
REFERENCE_S = 0.45


class Calibration:
    """Collects kernel durations over a run; `scale()` turns times into reference seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
                       for k in (2, 3, 4)]
        self._stack = (rng.normal(size=(400, 32, 32))
                       + 1j * rng.normal(size=(400, 32, 32))) / 32
        self.samples: List[float] = []

    def _kernel(self) -> None:
        for _ in range(3000):
            for m in self._small:
                x = m @ m
                float(np.max(np.abs(x - m)))
                np.linalg.solve(m, x)
                np.linalg.svd(m, compute_uv=False)
        y = self._stack
        for _ in range(60):
            y = y @ self._stack

    def sample_for(self, seconds: float) -> None:
        """Run the kernel at least once, and until `seconds` have been spent on it."""
        spent = 0.0
        while spent == 0.0 or spent < seconds:
            started = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - started)
            spent += self.samples[-1]

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
