"""Exact FIFO queueing loops for the batched driver.

The scalar driver computes, per query, ``start = max(arrival, free)``,
``completion = start + service``, ``free = completion``. This module
runs that recurrence over whole blocks as one plain loop with Python
float arithmetic. It reads the input columns through zero-copy
``memoryview`` objects and appends results to ``array("d")`` buffers
that numpy then wraps without copying, so a block costs 8 bytes per
value, not a Python float object per value. The comparison is written
``free if free > arrival else arrival`` — exactly what Python's
``max(arrival, free)`` returns, ties and NaN included — so every
timestamp is bit-identical to the scalar loop at any block boundary.

:func:`fifo_single_server` threads one server's free time through
consecutive calls; :func:`fifo_k_servers` runs the same loop for
``servers > 1`` over a min-heap of per-server free times, which it
updates in place. The driver makes exactly one call per block.

Both loops are oblivious to ticks and faults: the batched driver
slices each segment's batch at every interrupt boundary (tick
checkpoints and :mod:`repro.faults` point faults), so a single call
never spans an online retrain or an outage, and window-fault service
perturbation happens *before* queueing (arrival-keyed, via
:meth:`repro.faults.FaultClock.perturb_batch`).
"""

from __future__ import annotations

import heapq
from array import array
from typing import List, Tuple

import numpy as np

from repro.errors import DriverError


def _columns(arrivals, services) -> Tuple[memoryview, memoryview]:
    """Both columns as float64 views, refusing mismatched lengths."""
    arrivals = np.ascontiguousarray(arrivals, dtype=np.float64)
    services = np.ascontiguousarray(services, dtype=np.float64)
    if arrivals.size != services.size:
        raise DriverError(
            f"FIFO queueing needs one service time per arrival: "
            f"{arrivals.size} arrivals, {services.size} services"
        )
    return memoryview(arrivals), memoryview(services)


def fifo_single_server(
    arrivals: np.ndarray, services: np.ndarray, free: float = 0.0
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Exact single-server FIFO start/completion times.

    Args:
        arrivals: Ascending arrival timestamps.
        services: Per-query service times (already clamped > 0).
        free: Server free time entering the batch.

    Returns:
        ``(starts, completions, new_free)`` — identical, element for
        element, to the scalar ``max``/``+`` loop at the same inputs.

    Raises:
        DriverError: ``arrivals`` and ``services`` differ in length.
    """
    starts = array("d")
    completions = array("d")
    for a, s in zip(*_columns(arrivals, services)):
        start = free if free > a else a
        free = start + s
        starts.append(start)
        completions.append(free)
    return (
        np.frombuffer(starts, dtype=np.float64),
        np.frombuffer(completions, dtype=np.float64),
        free,
    )


def fifo_k_servers(
    arrivals: np.ndarray, services: np.ndarray, server_free: List[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact FIFO start/completion times over ``k`` parallel servers.

    Each query takes the earliest-free server: the heap's minimum is
    replaced by the query's completion (``heapq.heapreplace``).

    Args:
        arrivals: Ascending arrival timestamps.
        services: Per-query service times (already clamped > 0).
        server_free: Min-heap of per-server free times; updated in place.

    Returns:
        ``(starts, completions)`` — identical, element for element, to
        the scalar ``heappop``/``max``/``+``/``heappush`` loop, which
        also leaves the same multiset of free times in the heap.

    Raises:
        DriverError: ``arrivals`` and ``services`` differ in length, or
            ``server_free`` is empty.
    """
    if not server_free:
        raise DriverError("FIFO queueing needs at least one server")
    starts = array("d")
    completions = array("d")
    for a, s in zip(*_columns(arrivals, services)):
        free = server_free[0]
        start = free if free > a else a
        completion = start + s
        heapq.heapreplace(server_free, completion)
        starts.append(start)
        completions.append(completion)
    return (
        np.frombuffer(starts, dtype=np.float64),
        np.frombuffer(completions, dtype=np.float64),
    )
