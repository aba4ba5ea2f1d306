"""Traced runs: spans around each layer's entry points, from outside.

:class:`Instrumentation` replaces the public entry points of each layer
of the ``repro`` package with wrappers that record a span (name, start,
end, parent) in a :class:`SpanLog`, and puts the originals back on
exit. Nothing inside ``src/`` changes. Spans stay in memory; a forked
worker process writes its own spans to one file per process when its
shard task ends, and :func:`layer_metrics` merges those lanes with the
parent's.

A layer's self time is its spans' durations minus the time their child
spans cover. Span names map to the per-layer rows reported by the
traced run (``queueing.fifo`` -> ``queueing.fifo_s``); the driver's own
spans and the run phase's root all feed ``driver.self_s``.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: Span names whose self time is reported as ``driver.self_s``.
DRIVER_SPANS = ("phase.run", "driver.run", "driver.block", "driver.tick")

#: Offline metric functions the report phase calls, one row each.
METRIC_FUNCTIONS = (
    "latency_bands",
    "adjustment_speed",
    "adaptability_report",
    "resilience_report",
    "box_stats",
)

#: Per-layer rows of the traced run, with units, in report order.
ROWS = (
    ("queueing.fifo_s", "s"),
    ("queueing.fifo_calls", "count"),
    ("queueing.waited_frac", "ratio"),
    ("queueing.busy_chains", "count"),
    ("driver.self_s", "s"),
    ("driver.blocks", "count"),
    ("driver.ticks", "count"),
    ("suts.execute_batch_s", "s"),
    ("suts.queries_per_call", "count"),
    ("suts.scalar_execute_s", "s"),
    ("suts.scalar_fallback_frac", "ratio"),
    ("suts.setup_s", "s"),
    ("indexes.bulk_lookup_s", "s"),
    ("indexes.bulk_lookup_calls", "count"),
    ("indexes.bulk_lookup_us_per_key", "us"),
    ("learned.offline_train_s", "s"),
    ("learned.on_tick_s", "s"),
    ("learned.on_crash_s", "s"),
    ("learned.online_retrains", "count"),
    ("learned.crash_retrains", "count"),
    ("faults.perturb_batch_s", "s"),
    ("faults.fired", "count"),
    ("workloads.next_batch_s", "s"),
    ("workloads.arrivals_s", "s"),
    ("results.append_block_s", "s"),
    ("results.build_s", "s"),
    ("results.reallocations", "count"),
    ("streaming.fold_s", "s"),
    ("streaming.spill_write_s", "s"),
    ("streaming.spill_bytes", "bytes"),
    ("streaming.spill_mb_per_s", "MB/s"),
    ("streaming.finalize_s", "s"),
    ("streaming.load_spilled_s", "s"),
    ("sharded.merge_s", "s"),
    ("sharded.shard_setup_s", "s"),
    ("sharded.payload_bytes", "bytes"),
    ("sharded.shard_imbalance", "ratio"),
    ("workers.tasks", "count"),
    ("workers.attempts", "count"),
    ("workers.transport_s", "s"),
    ("workers.idle_frac", "ratio"),
    ("tenancy.admitted", "count"),
    ("tenancy.rejected", "count"),
    ("tenancy.serve_s", "s"),
    ("tenancy.sla_accounting_s", "s"),
    *((f"metrics.{fn}_s", "s") for fn in METRIC_FUNCTIONS),
    ("data.build_dataset_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
)


class SpanLog:
    """In-memory spans and counts of one process.

    Attributes:
        spans: ``[name, start, end, parent index]`` per span, in open order.
        counts: Named counts recorded at the same boundaries.
        attempt_start: Parent-side start time of each task's last attempt.
        task_wall: Parent-seen wall time of each task's resolving attempt.
    """

    def __init__(self, lane_dir: Path) -> None:
        """Start an empty log; worker lanes are written to ``lane_dir``."""
        self.lane_dir = Path(lane_dir)
        self.owner = os.getpid()
        self.lane_pid: Optional[int] = None
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.attempt_start: Dict[int, float] = {}
        self.task_wall: Dict[int, float] = {}

    def span(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Call ``fn`` inside a span called ``name``."""
        spans = self.spans
        index = len(spans)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        spans.append(record)
        self.stack.append(index)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self.stack.pop()

    def in_worker(self) -> bool:
        """True in a forked worker; there, drop the parent's inherited spans."""
        pid = os.getpid()
        if pid == self.owner:
            return False
        if self.lane_pid != pid:
            self.lane_pid = pid
            self.spans, self.stack = [], []
            self.counts = defaultdict(float)
        return True

    def write_lane(self) -> None:
        """Write a worker's spans and counts for the parent to merge."""
        self.lane_dir.mkdir(parents=True, exist_ok=True)
        lane = {"spans": self.spans, "counts": self.counts}
        path = self.lane_dir / f"lane-{os.getpid()}.json"
        with open(path, "w") as handle:
            json.dump(lane, handle)

    def read_lanes(self) -> List[dict]:
        """Every worker lane written so far."""
        lanes = []
        for path in sorted(self.lane_dir.glob("lane-*.json")):
            with open(path) as handle:
                lanes.append(json.load(handle))
        return lanes


def _spanned(log: SpanLog, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a span; ``after(log, args, result)`` records counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = log.span(name, fn, *args, **kwargs)
        if after is not None:
            after(log, args, result)
        return result

    return wrapper


def _counted(log: SpanLog, key: str, fn: Callable) -> Callable:
    """Wrap ``fn`` to count calls only (no span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        log.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _family(base: type, attr: str) -> List[type]:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _add(key: str, measure: Callable) -> Callable:
    """An ``after`` hook adding ``measure(args, result)`` to a count."""

    def after(log: SpanLog, args: tuple, result: Any) -> None:
        log.counts[key] += measure(args, result)

    return after


def _spill_bytes(args: tuple, manifest: dict) -> int:
    directory = Path(manifest["directory"])
    return sum((directory / name).stat().st_size for name in manifest["shards"])


def _serve_counts(log: SpanLog, args: tuple, report: Any) -> None:
    log.counts["tenancy.admitted"] += report.admitted
    log.counts["tenancy.rejected"] += report.rejected


class Instrumentation:
    """Context manager installing the layer wrappers around a traced run.

    The wrappers patch each entry point where callers look it up: a
    method on its class, or a function in the module that imported it
    by name (``fifo_single_server`` in :mod:`repro.core.driver`,
    ``merge_shard_payloads`` in :mod:`repro.core.tenancy`).
    """

    def __init__(self, log: SpanLog) -> None:
        """Bind the wrappers to ``log``."""
        self.log = log
        self._saved: List[tuple] = []

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, owner: Any, attr: str, name: str, after=None) -> None:
        self._patch(
            owner, attr, _spanned(self.log, name, getattr(owner, attr), after)
        )

    def __enter__(self) -> "Instrumentation":
        """Install every wrapper; on failure, remove those installed."""
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        import repro.core.driver as driver
        import repro.core.results as results
        import repro.core.sharded as sharded
        import repro.core.streaming as streaming
        import repro.core.tenancy as tenancy
        import repro.data.datasets as datasets
        import repro.metrics as metrics
        from repro.core.workers import WorkerPool
        from repro.faults.clock import FaultClock
        from repro.indexes.base import OrderedIndex
        from repro.suts.kv_base import KVStoreBase
        from repro.suts.kv_learned import LearnedKVStore
        from repro.workloads.generators import KVWorkload
        from repro.workloads.patterns import ArrivalProcess

        log = self.log
        span = self._span
        vcd = driver.VirtualClockDriver
        span(driver, "fifo_single_server", "queueing.fifo")
        for attr in ("run", "run_streaming", "run_streaming_shard"):
            span(vcd, attr, "driver.run")
        span(vcd, "_process_block", "driver.block")
        span(vcd, "_tick", "driver.tick")
        self._patch(vcd, "_fire_fault",
                    _counted(log, "faults.fired", vcd._fire_fault))
        span(KVStoreBase, "execute_batch", "suts.execute_batch",
             _add("suts.batch_queries", lambda a, r: len(a[1])))
        span(KVStoreBase, "execute", "suts.scalar_execute")
        span(KVStoreBase, "setup", "suts.setup")
        for cls in _family(OrderedIndex, "bulk_lookup"):
            span(cls, "bulk_lookup", "indexes.bulk_lookup",
                 _add("indexes.keys", lambda a, r: len(a[1])))
        span(LearnedKVStore, "offline_train", "learned.offline_train")
        span(LearnedKVStore, "on_tick", "learned.on_tick",
             _add("learned.online_retrains", lambda a, r: 1 if r else 0))
        span(LearnedKVStore, "on_crash", "learned.on_crash",
             _add("learned.crash_retrains", lambda a, r: 1 if r else 0))
        span(FaultClock, "perturb_batch", "faults.perturb_batch")
        for cls in _family(KVWorkload, "next_batch"):
            span(cls, "next_batch", "workloads.next_batch")
        for cls in _family(ArrivalProcess, "arrivals"):
            span(cls, "arrivals", "workloads.arrivals")
        span(results.ColumnarRecorder, "append_block", "results.append_block")
        span(results.ColumnarRecorder, "build", "results.build",
             _add("results.reallocations", lambda a, r: a[0].reallocations))
        for attr in ("append_block", "flush"):
            span(streaming.StreamingRecorder, attr, "streaming.fold")
        span(streaming.ColumnSpiller, "write", "streaming.spill_write")
        span(streaming.ColumnSpiller, "finish", "streaming.spill_write",
             _add("streaming.spill_bytes", _spill_bytes))
        for cls in metrics.STREAMING_ACCUMULATOR_TYPES.values():
            span(cls, "finalize", "streaming.finalize")
        span(streaming, "load_spilled_columns", "streaming.load_spilled")
        payload_bytes = _add(
            "sharded.payload_bytes",
            lambda a, r: sum(len(pickle.dumps(p)) for p in a[2]),
        )
        for owner in (sharded, tenancy):
            span(owner, "merge_shard_payloads", "sharded.merge", payload_bytes)
            self._patch(owner, "_run_shard",
                        self._shard_wrapper(getattr(owner, "_run_shard")))
        self._patch(WorkerPool, "run", self._pool_wrapper(WorkerPool.run))
        span(tenancy.BenchmarkServer, "serve", "tenancy.serve", _serve_counts)
        span(tenancy, "sla_accounting", "tenancy.sla_accounting")
        for fn in METRIC_FUNCTIONS:
            span(metrics, fn, f"metrics.{fn}")
        span(datasets, "build_dataset", "data.build_dataset")

    def __exit__(self, *exc: Any) -> None:
        """Put every original back, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _shard_wrapper(self, fn: Callable) -> Callable:
        """A shard task's root span; a forked worker writes its lane."""
        log = self.log

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            forked = log.in_worker()
            try:
                return log.span("sharded.shard_setup", fn, *args, **kwargs)
            finally:
                if forked:
                    log.write_lane()

        return wrapper

    def _pool_wrapper(self, fn: Callable) -> Callable:
        """Span the pool; time each task from launch to resolution."""
        log = self.log

        @functools.wraps(fn)
        def wrapper(pool, tasks, on_attempt=None, on_outcome=None):
            def attempt_hook(index: int, attempt: int) -> None:
                if on_attempt is not None:
                    on_attempt(index, attempt)
                log.attempt_start[index] = perf_counter()

            def outcome_hook(outcome: Any) -> None:
                log.task_wall[outcome.index] = (
                    perf_counter() - log.attempt_start[outcome.index]
                )
                log.counts["workers.attempts"] += outcome.attempts
                if on_outcome is not None:
                    on_outcome(outcome)

            log.counts["workers.tasks"] += len(tasks)
            log.counts["workers.slots"] = pool.workers
            return log.span("workers.pool", fn, pool, tasks,
                            on_attempt=attempt_hook, on_outcome=outcome_hook)

        return wrapper


def _self_times(spans: List[list], totals: Dict[str, float],
                under: Optional[str] = None) -> float:
    """Add each span's self time to ``totals`` by name.

    Returns the summed self time of spans below a root span called
    ``under`` (all spans when ``under`` is None) that are not driver
    spans: the part of the run the named layers cover.
    """
    covered = [0.0] * len(spans)
    roots = [0] * len(spans)
    for i, (_name, start, end, parent) in enumerate(spans):
        roots[i] = i if parent < 0 else roots[parent]
        if parent >= 0:
            covered[parent] += end - start
    named = 0.0
    for i, (name, start, end, _parent) in enumerate(spans):
        own = (end - start) - covered[i]
        totals[name] += own
        root = spans[roots[i]][0]
        if (under is None or root == under) and name not in DRIVER_SPANS:
            named += own
    return named


def layer_metrics(log: SpanLog, columns: List[Any]) -> Dict[str, float]:
    """Per-layer rows of one traced repetition.

    ``columns`` are the run's simulated columns, from which the waiting
    share and the busy-chain count are taken. When the run forks
    workers the split is over task-seconds: the parent's wall time
    outside the worker pool, plus each task's wall time as the parent
    saw it, which divides into the worker's own spans and transport
    (fork, pickling, pipe, scheduling).
    """
    lanes = log.read_lanes()
    all_spans = [log.spans] + [lane["spans"] for lane in lanes]
    times: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float, log.counts)
    calls: Dict[str, int] = defaultdict(int)
    for spans in all_spans:
        for name, *_ in spans:
            calls[name] += 1
    named = _self_times(log.spans, times, under="phase.run")
    for lane in lanes:
        named += _self_times(lane["spans"], times)
        for name, value in lane["counts"].items():
            counts[name] += value

    def walls(span_name: str, groups: List[List[list]]) -> List[float]:
        return [e - s for spans in groups for n, s, e, _ in spans
                if n == span_name]

    run_seconds = sum(walls("phase.run", [log.spans]))
    pool_wall = sum(walls("workers.pool", [log.spans]))
    shard_walls = walls("sharded.shard_setup", all_spans)
    task_seconds = sum(log.task_wall.values())
    transport = max(0.0, task_seconds - sum(shard_walls))
    if lanes:
        # The parent only waits inside the pool; count the tasks instead.
        pool_self = times["workers.pool"]
        lane_seconds = sum(walls("sharded.shard_setup", all_spans[1:]))
        run_seconds += lane_seconds + transport - pool_self
        named += transport - pool_self
    slots = counts["workers.slots"]
    queries = sum(int(c.arrivals.size) for c in columns)
    waited = sum(int(np.count_nonzero(c.starts > c.arrivals)) for c in columns)
    batch_queries = counts["suts.batch_queries"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {
        "queueing.fifo_calls": calls["queueing.fifo"],
        "queueing.waited_frac": ratio(waited, queries),
        "queueing.busy_chains": queries - waited,
        "driver.self_s": sum(times[name] for name in DRIVER_SPANS),
        "driver.blocks": calls["driver.block"],
        "driver.ticks": calls["driver.tick"],
        "suts.queries_per_call": ratio(
            batch_queries, calls["suts.execute_batch"]
        ),
        "suts.scalar_fallback_frac": ratio(
            calls["suts.scalar_execute"], batch_queries
        ),
        "indexes.bulk_lookup_calls": calls["indexes.bulk_lookup"],
        "indexes.bulk_lookup_us_per_key": ratio(
            times["indexes.bulk_lookup"] * 1e6, counts["indexes.keys"]
        ),
        "streaming.spill_mb_per_s": ratio(
            counts["streaming.spill_bytes"] / 1e6,
            times["streaming.spill_write"],
        ),
        "sharded.shard_imbalance": ratio(
            max(shard_walls, default=0.0) * len(shard_walls), sum(shard_walls)
        ),
        "workers.transport_s": transport,
        "workers.idle_frac": (
            1.0 - ratio(task_seconds, slots * pool_wall) if pool_wall else 0.0
        ),
        "trace.coverage_frac": ratio(named, run_seconds),
    }
    for row, _unit in ROWS:
        if row not in out:
            out[row] = times[row[:-2]] if row.endswith("_s") else counts[row]
    return out
