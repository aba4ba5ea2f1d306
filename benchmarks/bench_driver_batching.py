"""DB — driver batching: the vectorized query pipeline vs the scalar loop.

Runs the same 500k-query scenario (B+ tree store, steady read-only
uniform workload) through both driver paths: the retained scalar/heap
reference (``use_batching=False``) and the batched pipeline
(``use_batching=True`` — vectorized generation, ``execute_batch`` with
bulk index lookups, the FIFO queueing loop, and block appends into
the columnar recorder).

Both paths consume the same :class:`QueryBatch` per segment, so the
asserts demand *bit-identical* result columns — any divergence in the
queueing kernel, the op-code interning order, or the bulk index
counters fails the equality checks before the ≥ 5x speedup bar is even
consulted.

A third timed run repeats the batched path with a live
:class:`~repro.observability.Tracer` attached, pinning the tracing
overhead: the NullTracer default must cost nothing measurable (the
default batched run IS the NullTracer run), and even full tracing must
keep the pipeline >= 5x faster than the scalar loop — per-segment spans,
never per-query, is what makes that hold.

Writes a ``BENCH_driver.json`` perf record into ``benchmarks/results/``
(per-path seconds, per-query microseconds, speedup, tracing overhead)
alongside the usual figure text.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from bench_common import bench_once
from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.scenario import Scenario, Segment
from repro.observability import Tracer
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec

#: 2500 q/s × 200 s = 500k queries.
RATE = 2500.0
DURATION = 200.0
N_KEYS = 50_000
KEY_DOMAIN = 100_000.0

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def build_scenario() -> Scenario:
    """Steady read-only scenario sized for 500k queries."""
    spec = simple_spec(
        "steady", UniformDistribution(0, KEY_DOMAIN), rate=RATE
    )
    return Scenario(
        name="driver-batching-500k",
        segments=[Segment(spec=spec, duration=DURATION)],
        seed=42,
        initial_keys=np.linspace(0.0, KEY_DOMAIN, N_KEYS),
    )


def _run(use_batching: bool, tracer=None):
    driver = VirtualClockDriver(
        DriverConfig(use_batching=use_batching), tracer=tracer
    )
    sut = TraditionalKVStore()
    t0 = time.perf_counter()
    result = driver.run(sut, build_scenario())
    return result, time.perf_counter() - t0


def test_driver_batching_speedup(benchmark, figure_sink):
    ref_result, ref_s = _run(use_batching=False)

    state = {}

    def batched_run():
        state["result"], state["seconds"] = _run(use_batching=True)

    bench_once(benchmark, batched_run)
    vec_result, vec_s = state["result"], state["seconds"]

    # Bit-identical columns, not merely statistically equivalent ones.
    ref_cols, vec_cols = ref_result.columns, vec_result.columns
    n = ref_cols.arrivals.size
    assert n == int(RATE * DURATION)
    for name in ("arrivals", "starts", "completions", "op_codes", "segment_codes"):
        assert np.array_equal(getattr(ref_cols, name), getattr(vec_cols, name)), (
            f"column {name!r} diverged between scalar and batched paths"
        )
    assert ref_cols.op_vocab == vec_cols.op_vocab
    assert ref_cols.segment_vocab == vec_cols.segment_vocab
    # The SUT did the same genuine work either way (index counters match).
    assert ref_result.sut_description == vec_result.sut_description

    speedup = ref_s / max(vec_s, 1e-9)
    assert speedup >= 5.0, (
        f"batched driver only {speedup:.1f}x faster "
        f"(scalar {ref_s:.2f}s, batched {vec_s:.2f}s)"
    )

    # Same batched pipeline with a live tracer: results stay identical
    # and the per-segment instrumentation must not erase the speedup.
    tracer = Tracer()
    traced_result, traced_s = _run(use_batching=True, tracer=tracer)
    trace = tracer.finish()
    for name in ("arrivals", "starts", "completions", "op_codes", "segment_codes"):
        assert np.array_equal(
            getattr(traced_result.columns, name), getattr(vec_cols, name)
        ), f"column {name!r} diverged when tracing was enabled"
    assert trace.counter("driver.queries") == n
    traced_speedup = ref_s / max(traced_s, 1e-9)
    assert traced_speedup >= 5.0, (
        f"full tracing drags the batched driver to {traced_speedup:.1f}x "
        f"vs scalar (traced {traced_s:.2f}s, scalar {ref_s:.2f}s)"
    )
    overhead_pct = (traced_s - vec_s) / max(vec_s, 1e-9) * 100.0

    record = {
        "bench": "driver_batching",
        "n_queries": int(n),
        "scenario": "steady read-only uniform, B+ tree store",
        "scalar_s": round(ref_s, 4),
        "batched_s": round(vec_s, 4),
        "traced_s": round(traced_s, 4),
        "scalar_us_per_query": round(ref_s / n * 1e6, 3),
        "batched_us_per_query": round(vec_s / n * 1e6, 3),
        "speedup": round(speedup, 2),
        "traced_speedup": round(traced_speedup, 2),
        "tracing_overhead_pct": round(overhead_pct, 2),
        "identical_columns": True,
    }
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(os.path.join(_RESULTS_DIR, "BENCH_driver.json"), "w") as handle:
        json.dump(record, handle, indent=2)

    figure_sink(
        "driver_batching",
        "\n".join(
            [
                f"batched driver pipeline on {n:,} queries (identical columns)",
                f"  scalar : {ref_s:6.2f}s ({ref_s / n * 1e6:6.2f} us/query)",
                f"  batched: {vec_s:6.2f}s ({vec_s / n * 1e6:6.2f} us/query)",
                f"  traced : {traced_s:6.2f}s "
                f"({overhead_pct:+5.1f}% vs NullTracer)",
                f"  speedup: {speedup:5.1f}x (bar: >= 5x; "
                f"traced {traced_speedup:5.1f}x)",
            ]
        ),
    )
