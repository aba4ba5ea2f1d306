"""Shared machinery for key-value systems under test.

Workload generators sample keys from continuous distributions, so a
requested key almost never exactly equals a stored key. Following YCSB's
convention that operations target existing records, the base SUT *snaps*
each requested key to the nearest stored key (driver-side bookkeeping, no
virtual time charged) and then executes the real operation on the real
index; the index's stats delta is what gets priced into service time.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

import numpy as np

from repro.core.sut import SystemUnderTest
from repro.indexes.base import OrderedIndex
from repro.suts.cost_models import KVCostModel
from repro.workloads.generators import KV_OP_CODES, KVOperation, KVQuery, QueryBatch

_READ_CODE = KV_OP_CODES[KVOperation.READ]


class KVStoreBase(SystemUnderTest):
    """A key-value SUT wrapping one :class:`OrderedIndex`.

    Args:
        name: SUT name.
        index: The underlying index structure.
        cost_model: Operation-to-seconds conversion.
        tuning_level: DBA tuning level applied to service times
            (traditional systems; learned systems leave it at 0).
    """

    def __init__(
        self,
        name: str,
        index: OrderedIndex,
        cost_model: Optional[KVCostModel] = None,
        tuning_level: int = 0,
    ) -> None:
        super().__init__(name)
        self.index = index
        self.cost_model = cost_model or KVCostModel()
        self.tuning_level = tuning_level
        self._mirror: List[float] = []
        self._mirror_arr: Optional[np.ndarray] = None

    # -- lifecycle --------------------------------------------------------------

    def setup(self, pairs: List[Tuple[float, object]]) -> None:
        self.index.bulk_load(pairs)
        self._mirror = sorted({k for k, _ in pairs})
        self._mirror_arr = None

    def inject(self, pairs: List[Tuple[float, object]]) -> None:
        """Bulk data injection: loads the index, skips the clock."""
        self._mirror_arr = None
        for key, value in pairs:
            self.index.insert(key, value)
            self._mirror_add(key)

    def teardown(self) -> None:
        # Flush the index's cumulative work counters into the run's
        # telemetry before releasing state (monotonic totals, so one
        # end-of-run delta is exact).
        stats = self.index.stats
        self.tracer.counter("index.model_evaluations", stats.model_evaluations)
        self.tracer.counter("index.retrains", stats.retrains)
        self.tracer.counter("index.node_accesses", stats.node_accesses)
        self.tracer.counter("index.bulk_cache_builds", stats.bulk_cache_builds)
        self._mirror = []
        self._mirror_arr = None

    # -- key snapping --------------------------------------------------------------

    def _mirror_add(self, key: float) -> None:
        """Add ``key`` to the sorted mirror (and its array twin) if absent.

        Writing a stored key only overwrites its value in the index, so
        the mirror must not grow a duplicate.
        """
        pos = bisect.bisect_left(self._mirror, key)
        if pos < len(self._mirror) and self._mirror[pos] == key:
            return
        self._mirror.insert(pos, key)
        if self._mirror_arr is not None:
            self._mirror_arr = np.insert(self._mirror_arr, pos, key)

    def _snap(self, key: float) -> Optional[float]:
        """Nearest stored key to ``key`` (None when the store is empty)."""
        if not self._mirror:
            return None
        pos = bisect.bisect_left(self._mirror, key)
        if pos >= len(self._mirror):
            return self._mirror[-1]
        if pos == 0:
            return self._mirror[0]
        before, after = self._mirror[pos - 1], self._mirror[pos]
        return before if key - before <= after - key else after

    def _snap_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_snap` (caller guarantees a non-empty store)."""
        if self._mirror_arr is None:
            self._mirror_arr = np.asarray(self._mirror, dtype=np.float64)
        arr = self._mirror_arr
        n = arr.size
        pos = np.searchsorted(arr, keys, side="left")
        before = arr[np.clip(pos - 1, 0, n - 1)]
        after = arr[np.clip(pos, 0, n - 1)]
        snapped = np.where(keys - before <= after - keys, before, after)
        snapped = np.where(pos >= n, arr[-1], snapped)
        return np.where(pos == 0, arr[0], snapped)

    def _scan_bounds(self, key: float, length: int) -> Tuple[float, float]:
        """Start/end stored keys covering ``length`` items from ``key``."""
        pos = bisect.bisect_left(self._mirror, key)
        pos = min(pos, len(self._mirror) - 1)
        end = min(pos + max(1, length) - 1, len(self._mirror) - 1)
        return self._mirror[pos], self._mirror[end]

    # -- execution --------------------------------------------------------------

    def execute(self, query: KVQuery, now: float) -> float:
        """Run the real operation; return its virtual service time."""
        before = self.index.stats.snapshot()
        writes = 0
        scanned = 0
        if query.op == KVOperation.READ:
            target = self._snap(query.key)
            if target is not None:
                self.index.get(target)
        elif query.op == KVOperation.UPDATE:
            target = self._snap(query.key)
            if target is not None:
                self.index.insert(target, now)
                writes = 1
        elif query.op == KVOperation.INSERT:
            self.index.insert(query.key, now)
            self._mirror_add(query.key)
            writes = 1
        elif query.op == KVOperation.SCAN:
            if self._mirror:
                low, high = self._scan_bounds(query.key, query.scan_length)
                scanned = len(self.index.range(low, high))
        elif query.op == KVOperation.READ_MODIFY_WRITE:
            target = self._snap(query.key)
            if target is not None:
                value = self.index.get(target)
                self.index.insert(target, value)
                writes = 1
        delta = self.index.stats.snapshot().diff(before)
        self._after_execute(query, now)
        return self.cost_model.service_time(
            delta,
            writes=writes,
            scanned_items=scanned,
            tuning_level=self.tuning_level,
        )

    def _after_execute(self, query: KVQuery, now: float) -> None:
        """Hook for subclasses (drift observation etc.). Default: none."""

    def execute_batch(self, batch: QueryBatch, now: float) -> np.ndarray:
        """Vectorized execution: bulk read runs, scalar write barriers.

        Consecutive READ queries form runs served by the index's
        ``bulk_lookup`` kernel; every other operation (and any run the
        index declines to serve in bulk) goes through the scalar
        :meth:`execute` path, so results match the per-query loop exactly.
        """
        n = len(batch)
        services = np.empty(n, dtype=np.float64)
        barriers = np.flatnonzero(batch.ops != _READ_CODE)
        pos = 0
        bi = 0
        while pos < n:
            next_barrier = int(barriers[bi]) if bi < barriers.size else n
            if next_barrier > pos:
                self._execute_read_run(batch, pos, next_barrier, services)
                pos = next_barrier
            if pos < n:
                services[pos] = self.execute(
                    batch.query(pos), float(batch.arrivals[pos])
                )
                pos += 1
                bi += 1
        return services

    def _execute_read_run(
        self, batch: QueryBatch, a: int, b: int, services: np.ndarray
    ) -> None:
        """Serve READ queries ``[a, b)`` in bulk (scalar fallback on miss)."""
        self.tracer.counter("kv.read_runs")
        if not self._mirror:
            # Empty store: every read is a snap-miss costing base overhead.
            services[a:b] = self.cost_model.service_time_arrays(
                0, 0, 0, tuning_level=self.tuning_level
            )
            self._after_execute_slice(batch, a, b)
            return
        snapped = self._snap_batch(batch.keys[a:b])
        res = self.index.bulk_lookup(snapped)
        if res is None:
            # Fast-path miss: the run falls back to scalar ``get`` calls.
            self.tracer.counter("kv.bulk_fallback_runs")
            self.tracer.counter("kv.bulk_fallback_queries", b - a)
            for i in range(a, b):
                services[i] = self.execute(batch.query(i), float(batch.arrivals[i]))
            return
        self.tracer.counter("kv.bulk_hit_runs")
        self.tracer.counter("kv.bulk_hit_queries", b - a)
        comps, na, me = res
        services[a:b] = self.cost_model.service_time_arrays(
            comps, na, me, tuning_level=self.tuning_level
        )
        self._after_execute_slice(batch, a, b)

    def _after_execute_slice(self, batch: QueryBatch, a: int, b: int) -> None:
        """Fire :meth:`_after_execute` for queries ``[a, b)``, in order.

        Deferring the hook to the end of a read run is exact because the
        hooks cannot change intra-run lookup costs and the driver never
        lets a run cross an ``on_tick`` boundary. Subclasses with a
        vectorized observer override this.
        """
        if type(self)._after_execute is KVStoreBase._after_execute:
            return
        for i in range(a, b):
            self._after_execute(batch.query(i), float(batch.arrivals[i]))

    # -- introspection --------------------------------------------------------------

    @property
    def stored_keys(self) -> int:
        """Number of keys currently stored."""
        return len(self._mirror)

    def describe(self) -> dict:
        out = super().describe()
        out.update(index=self.index.name, tuning_level=self.tuning_level)
        return out
