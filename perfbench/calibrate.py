"""Host-speed calibration for the host metrics.

On a shared host the machine's speed drifts by tens of percent over
minutes, and it moves every host timing of a run together. The kernel
below is a fixed mix of the work the simulator does — numpy sorts,
searches and prefix sums, and interpreter loops over a heap and a dict.
Timing it right before and right after each repetition measures the
host's speed around it; host times are then reported as seconds on a
reference host where one kernel call takes :data:`REFERENCE_KERNEL_S`.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter
from typing import List, Sequence

import numpy as np

#: Kernel wall time on the reference host (a 2-CPU x86-64 VM, Python
#: 3.11, numpy 2.4) that host times are scaled to.
REFERENCE_KERNEL_S = 0.03

#: Kernel calls per calibration; the median is used.
CALLS = 5


def kernel() -> int:
    """One fixed unit of numpy and interpreter work."""
    values = np.random.default_rng(0).random(100_000)
    ordered = np.sort(values)
    np.searchsorted(ordered, values)
    np.cumsum(values)
    heap: list = []
    table = {}
    for i, x in enumerate(values[:30_000].tolist()):
        heapq.heappush(heap, x)
        table[i] = x * 2.0
    return len(heap) + len(table)


def kernel_times(calls: int = CALLS) -> List[float]:
    """Wall times of ``calls`` kernel calls, after one warm-up call."""
    kernel()
    times = []
    for _ in range(calls):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times


def host_scale(times: Sequence[float]) -> float:
    """Reference seconds per host second, from kernel wall times."""
    return REFERENCE_KERNEL_S / statistics.median(times)
