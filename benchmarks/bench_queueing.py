"""Q — FIFO queueing loops: cost per query across utilisation and servers.

Times :func:`~repro.core.queueing.fifo_single_server` (1 server) and
:func:`~repro.core.queueing.fifo_k_servers` (4 servers) on 500k-query
synthetic streams — Poisson arrivals at rate 1, exponential service
times with mean ``servers × ρ`` — at per-server utilisations
ρ ∈ {0.3, 0.9, 0.99, 1.5}. Every cell asserts that the loop's start and
completion columns equal the scalar reference (the driver's
``heappop``/``max``/``+``/``heappush`` loop, kept below) bit for bit.

There is deliberately no timing gate: the loop's cost is meant to be
flat across utilisation, and the table written to
``benchmarks/results/BENCH_queueing.json`` (µs/query per cell, with the
reference loop's cost alongside) is the record.
"""

from __future__ import annotations

import heapq
import json
import os
import time

import numpy as np

from bench_common import bench_once
from repro.core.queueing import fifo_k_servers, fifo_single_server

N_QUERIES = 500_000
UTILISATIONS = (0.3, 0.9, 0.99, 1.5)
SERVERS = (1, 4)
LOOP_REPEATS = 3

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def reference_fifo(arrivals, services, servers):
    """The scalar driver's per-query heap loop."""
    server_free = [0.0] * servers
    starts = np.empty(arrivals.size, dtype=np.float64)
    completions = np.empty(arrivals.size, dtype=np.float64)
    for i in range(arrivals.size):
        free = heapq.heappop(server_free)
        start = max(float(arrivals[i]), free)
        completion = start + float(services[i])
        heapq.heappush(server_free, completion)
        starts[i] = start
        completions[i] = completion
    return starts, completions


def stream(utilisation: float, servers: int, seed: int = 42):
    """Poisson arrivals at rate 1, mean service ``servers × ρ``."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0, N_QUERIES))
    services = rng.exponential(utilisation * servers, N_QUERIES)
    return arrivals, services


def run_loop(arrivals, services, servers):
    """One queueing call, as the driver makes it per block."""
    if servers == 1:
        starts, completions, _ = fifo_single_server(arrivals, services, 0.0)
        return starts, completions
    return fifo_k_servers(arrivals, services, [0.0] * servers)


def measure_cell(utilisation: float, servers: int) -> dict:
    """Time the loop and the reference on one stream; demand equal columns.

    The loop's time is the best of ``LOOP_REPEATS`` calls, which damps
    host noise at a fraction of the reference loop's single run.
    """
    arrivals, services = stream(utilisation, servers)
    loop_s = float("inf")
    for _ in range(LOOP_REPEATS):
        t0 = time.perf_counter()
        starts, completions = run_loop(arrivals, services, servers)
        loop_s = min(loop_s, time.perf_counter() - t0)
    t0 = time.perf_counter()
    ref_starts, ref_completions = reference_fifo(arrivals, services, servers)
    ref_s = time.perf_counter() - t0
    assert np.array_equal(starts, ref_starts), (utilisation, servers)
    assert np.array_equal(completions, ref_completions), (utilisation, servers)
    return {
        "utilisation": utilisation,
        "servers": servers,
        "waited_frac": round(float(np.mean(starts > arrivals)), 4),
        "loop_s": round(loop_s, 4),
        "loop_us_per_query": round(loop_s / N_QUERIES * 1e6, 3),
        "reference_us_per_query": round(ref_s / N_QUERIES * 1e6, 3),
    }


def test_queueing_cost_table(benchmark, figure_sink):
    state = {}

    def table():
        state["cells"] = [
            measure_cell(rho, k) for k in SERVERS for rho in UTILISATIONS
        ]

    bench_once(benchmark, table)
    cells = state["cells"]

    record = {
        "bench": "queueing",
        "n_queries": N_QUERIES,
        "stream": "Poisson arrivals (rate 1), exponential services",
        "identical_columns": True,
        "cells": cells,
    }
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(os.path.join(_RESULTS_DIR, "BENCH_queueing.json"), "w") as handle:
        json.dump(record, handle, indent=2)

    lines = [
        f"FIFO queueing loops on {N_QUERIES:,}-query streams "
        f"(columns identical to the scalar heap loop)",
        "  servers  util   waited  loop us/q  reference us/q",
    ]
    for cell in cells:
        lines.append(
            f"  {cell['servers']:>7}  {cell['utilisation']:>4}  "
            f"{cell['waited_frac']:>7.3f}  {cell['loop_us_per_query']:>9.3f}  "
            f"{cell['reference_us_per_query']:>14.3f}"
        )
    figure_sink("queueing", "\n".join(lines))
