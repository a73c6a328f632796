"""Machine-speed probe: a fixed kernel timed between benchmark problems.

On a shared host the speed of a core drifts by up to twice, within
seconds as well as over minutes, and CPU time drifts with wall time, so
it cannot be factored out by measuring CPU time.  The benchmark therefore
samples the speed with this kernel before every problem and every
certificate, and after the last, and scales the wall time of each by
``REFERENCE_S`` over the mean of the two samples around it: reported
times are seconds at the speed where one probe takes ``REFERENCE_S``.
A sample is the median of a few probes, so that one probe the scheduler
interrupted cannot skew it.  The kernel, dense pivots on a small
tableau driven from Python, has the same mix of interpreter and small
numpy work as polyrad's LPs, and imports nothing from polyrad, so no
change to the package moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time, rounded, on a 2-vCPU Intel Xeon (Haswell-class) host
# with numpy 2.4 and OpenBLAS pinned to one thread.
REFERENCE_S = 0.003

_TABLEAU = np.random.default_rng(0).random((20, 61))


def probe() -> float:
    """Seconds one run of the fixed kernel takes now."""
    start = time.perf_counter()
    T = _TABLEAU.copy()
    for k in range(200):
        r, c = k % 20, (7 * k) % 60
        if abs(T[r, c]) > 1e-3:
            T[r] /= T[r, c]
        column = T[:, c].copy()
        column[r] = 0.0
        T -= np.outer(column, T[r])
        np.clip(T, -1e3, 1e3, out=T)
    return time.perf_counter() - start


def sample(count: int = 3) -> float:
    """Median seconds of ``count`` probes: one reading of the speed now."""
    return statistics.median(probe() for _ in range(count))
