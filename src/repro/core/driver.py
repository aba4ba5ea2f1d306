"""The discrete-event benchmark driver.

Replaces the paper's separate-machine load generator with a virtual-clock
simulation (substitution documented in DESIGN.md §2): queries arrive
open-loop from the workload's arrival process and are served by a
FIFO queue over ``servers`` parallel slots, with per-query service times
taken from the SUT's (genuinely executed) operations. This yields the
timestamp sequences the Fig 1 metrics need — queueing delay builds when
the SUT is slower than the offered load and drains as it specializes,
which is what produces the characteristic "slow start, catches up"
cumulative curve of Fig 1b.

Training placement:

* The scenario's ``initial_training`` runs *before* query time 0; its
  event is recorded with a negative start so the execution timeline
  stays aligned across SUTs with different training budgets.
* A segment's ``training_before`` phase blocks the server at the
  segment boundary (the paper's "two separate execution phases with
  possible retraining of the models in-between").
* ``on_tick`` retrains requested by the SUT block the server inline —
  the "CPU overheads of retraining a model" that §V-D2 says should
  visibly dent throughput.

Fault injection:

When the scenario carries a :class:`~repro.faults.FaultPlan`, the driver
wraps it in a :class:`~repro.faults.FaultClock`. Window faults perturb
service times keyed on arrival time (identical elementwise kernel in
both paths); point faults (stalls, crashes) are merged with the tick
stream into one per-segment interrupt sequence, so they interleave with
arrivals using the exact same fire-before-arrival semantics as ticks —
which is what keeps the scalar and batched paths bit-identical under
faults. A crash blocks every server for the recovery period, then calls
``sut.on_crash``; a returned cold-retrain budget extends the outage and
is recorded as a training event like any online retrain. With no plan
set the fault machinery reduces to the original tick loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.hardware import CPU, HardwareProfile
from repro.core.phases import (
    TrainingEvent,
    TrainingPhase,
    event_to_telemetry,
    make_event,
)
from repro.core.queueing import fifo_k_servers, fifo_single_server
from repro.core.results import ColumnarRecorder, RunResult
from repro.core.scenario import Scenario
from repro.core.sut import SystemUnderTest
from repro.errors import DriverError
from repro.faults import FaultClock, StallFault
from repro.faults.plan import PointFault
from repro.observability import NULL_TRACER
from repro.workloads.generators import KV_OPERATIONS, QueryBatch


@dataclass
class DriverConfig:
    """Driver knobs.

    Attributes:
        online_hardware: Profile charged for SUT-initiated online
            retraining (§V-B: "the fraction of system resources to
            dedicate for online training" — here, which resources).
        max_queries: Safety valve on total queries per run.
        jitter_arrivals: Randomize arrival offsets within each second.
        min_service_time: Lower clamp on reported service times.
        servers: Number of parallel service slots. 1 models a single
            worker; higher values model a concurrency level, letting
            scenarios exercise the "fluctuations in query load and
            concurrency" the paper lists. Online retraining blocks
            *every* server (a stop-the-world rebuild).
        use_batching: Serve each segment through the vectorized batch
            pipeline (``execute_batch`` + FIFO kernel + block appends).
            ``False`` runs the retained scalar/heap reference loop;
            both produce bit-identical results at a fixed seed.
        truncate_max_queries: When True, a run that would exceed
            ``max_queries`` is truncated mid-segment instead of raising.
        block_size: Cap on queries per batched execution block. ``None``
            (the default) keeps whole tick-bounded slices; setting it
            chops each slice into fixed-size sub-blocks before
            ``execute_batch``, bounding per-call working-set size for
            the streaming pipeline. Results are bit-identical at any
            block size (the FIFO kernel carries queue state across
            calls and fault perturbation is keyed on arrival times);
            only tracer batch counters differ.
    """

    online_hardware: HardwareProfile = CPU
    max_queries: int = 2_000_000
    jitter_arrivals: bool = True
    min_service_time: float = 1e-9
    servers: int = 1
    use_batching: bool = True
    truncate_max_queries: bool = False
    block_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise DriverError(f"servers must be >= 1, got {self.servers}")
        if self.block_size is not None and self.block_size < 1:
            raise DriverError(
                f"block_size must be >= 1, got {self.block_size}"
            )

    def describe(self) -> dict:
        """JSON-friendly description (part of the runner's cache key).

        ``block_size`` appears only when set, so cache keys and golden
        manifests from default-config runs are unchanged by the
        streaming subsystem (mirroring the scenario's conditional
        ``faults`` key).
        """
        out = {
            "online_hardware": self.online_hardware.name,
            "max_queries": self.max_queries,
            "jitter_arrivals": self.jitter_arrivals,
            "min_service_time": self.min_service_time,
            "servers": self.servers,
            "use_batching": self.use_batching,
            "truncate_max_queries": self.truncate_max_queries,
        }
        if self.block_size is not None:
            out["block_size"] = self.block_size
        return out


class _InterruptStream:
    """Merged tick + point-fault sequence for one segment.

    Tick times are produced by the same repeated float addition the
    original tick loops used (``t += tick_interval`` starting from the
    segment start), so a fault-free stream is bit-identical to the
    pre-faults driver. Point faults (already restricted to the segment's
    ``[start, end)`` window, sorted by time) are interleaved by time;
    when a fault coincides exactly with a tick, the tick fires first —
    the tie-break is fixed so both driver paths agree.
    """

    __slots__ = ("_next_tick", "_interval", "_faults", "_idx")

    def __init__(
        self, seg_start: float, tick_interval: float, faults: List[PointFault]
    ) -> None:
        self._next_tick = seg_start
        self._interval = tick_interval
        self._faults = faults
        self._idx = 0

    def peek(self) -> float:
        """Time of the next interrupt (ticks never run out)."""
        if self._idx < len(self._faults):
            at = self._faults[self._idx].at
            if at < self._next_tick:
                return at
        return self._next_tick

    def pop(self) -> Tuple[float, Optional[PointFault]]:
        """Consume the next interrupt: ``(time, fault-or-None-for-tick)``."""
        if self._idx < len(self._faults):
            fault = self._faults[self._idx]
            if fault.at < self._next_tick:
                self._idx += 1
                return fault.at, fault
        t = self._next_tick
        self._next_tick += self._interval
        return t, None


class VirtualClockDriver:
    """Runs a scenario against a SUT on a virtual clock.

    Args:
        config: Driver knobs.
        tracer: Observability sink (:class:`~repro.observability.Tracer`)
            receiving per-segment/per-batch serve spans, train/adapt
            spans carrying the run's training events, and driver
            counters. Defaults to the no-op
            :data:`~repro.observability.NULL_TRACER`, which keeps the
            batched hot path allocation-free; tracing never changes the
            produced :class:`RunResult`.
    """

    def __init__(
        self, config: Optional[DriverConfig] = None, tracer=None
    ) -> None:
        """Bind the driver to ``config`` and an optional tracer."""
        self.config = config or DriverConfig()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._fault_clock: Optional[FaultClock] = None

    def run(self, sut: SystemUnderTest, scenario: Scenario) -> RunResult:
        """Execute ``scenario`` against ``sut`` and return the record."""
        recorder = ColumnarRecorder()
        training_events, _ = self._execute(sut, scenario, recorder)
        with self.tracer.span("collect-result", phase="report"):
            return RunResult(
                sut_name=sut.name,
                scenario_name=scenario.name,
                columns=recorder.build(),
                segments=scenario.segment_boundaries(),
                training_events=training_events,
                scenario_description=scenario.describe(),
                sut_description=sut.describe(),
            )

    def run_streaming(
        self,
        sut: SystemUnderTest,
        scenario: Scenario,
        accumulators=None,
        sla: Optional[float] = None,
        spill_dir=None,
        spill_format: str = "npz",
    ):
        """Execute ``scenario`` in bounded memory; return the summary.

        Same execution as :meth:`run` — same kernels, same RNG streams,
        same fault and training semantics — but completed blocks fold
        into online metric accumulators instead of accumulating in a
        result buffer, so resident memory is bounded by the largest
        segment's arrival arrays plus O(block) scratch, not the run
        length. Set ``config.block_size`` to bound the execution blocks
        themselves.

        Args:
            accumulators: Metric accumulators to fold (objects with
                ``name`` / ``fold(block)`` / ``finalize(horizon)``);
                default: :func:`repro.metrics.streaming_accumulators`
                for the scenario (with ``sla``, and the scenario's
                fault plan when set).
            sla: SLA threshold handed to the default accumulator set.
            spill_dir: When set, spill raw query columns to sharded
                files in this directory (see
                :class:`~repro.core.streaming.ColumnSpiller`).
            spill_format: ``"npz"`` (default) or ``"parquet"``
                (requires pyarrow).

        Returns:
            :class:`~repro.core.streaming.StreamingRunSummary` with
            every accumulator's finalized payload under ``metrics``.
        """
        from repro.core.streaming import (
            ColumnSpiller,
            StreamingRecorder,
            StreamingRunSummary,
        )

        if accumulators is None:
            from repro.metrics import streaming_accumulators

            accumulators = streaming_accumulators(
                scenario, sla=sla, plan=scenario.fault_plan
            )
        spiller = (
            ColumnSpiller(spill_dir, fmt=spill_format)
            if spill_dir is not None
            else None
        )
        recorder = StreamingRecorder(accumulators=accumulators, spiller=spiller)
        training_events, _ = self._execute(sut, scenario, recorder)
        recorder.flush()
        with self.tracer.span("collect-result", phase="report"):
            boundaries = scenario.segment_boundaries()
            duration = boundaries[-1][2] if boundaries else 0.0
            horizon = max(duration, recorder.max_completion)
            metrics = {
                acc.name: acc.finalize(horizon) for acc in recorder.accumulators
            }
            spill = (
                spiller.finish(recorder.op_vocab, recorder.segment_vocab)
                if spiller is not None
                else None
            )
            return StreamingRunSummary(
                sut_name=sut.name,
                scenario_name=scenario.name,
                segments=boundaries,
                training_events=training_events,
                scenario_description=scenario.describe(),
                sut_description=sut.describe(),
                num_queries=recorder.count,
                max_completion=recorder.max_completion,
                op_counts=recorder.op_counts(),
                segment_counts=recorder.segment_counts(),
                metrics=metrics,
                spill=spill,
            )

    def run_streaming_shard(
        self,
        sut: SystemUnderTest,
        scenario: Scenario,
        shard,
        accumulators,
        spiller=None,
    ) -> dict:
        """Execute one shard of ``scenario``; return its mergeable payload.

        The worker half of sharded streaming (see
        :class:`~repro.core.sharded.ShardedStreamingExecutor`): runs the
        shard's slice through the normal streaming machinery, but
        instead of finalizing, snapshots every accumulator's
        ``state_dict()`` so the parent can merge shard states and
        finalize once.

        Args:
            shard: The :class:`~repro.core.streaming.ShardSpec` naming
                this worker's segment (and optional arrival) range.
            accumulators: Accumulators built from the *full* scenario —
                grids, change points, and segment boundaries must anchor
                identically across shards for states to merge.
            spiller: Optional shard-local
                :class:`~repro.core.streaming.ColumnSpiller`.

        Returns:
            A picklable dict with the shard's counts, vocab-ordered
            ``op_counts`` / ``segment_counts``, training events,
            ``(name, state_dict)`` pairs per accumulator, the shard's
            spill manifest, plus ``first_arrival`` / ``final_busy``
            timestamps for the executor's drain check.
        """
        from repro.core.streaming import StreamingRecorder

        recorder = StreamingRecorder(
            accumulators=list(accumulators), spiller=spiller
        )
        training_events, server_free = self._execute(
            sut, scenario, recorder, shard=shard
        )
        recorder.flush()
        manifest = (
            spiller.finish(recorder.op_vocab, recorder.segment_vocab)
            if spiller is not None
            else None
        )
        return {
            "index": shard.index,
            "sut_name": sut.name,
            "sut_description": sut.describe(),
            "num_queries": recorder.count,
            "max_completion": recorder.max_completion,
            "first_arrival": recorder.first_arrival,
            "final_busy": max(server_free) if server_free else 0.0,
            "op_counts": recorder.op_counts(),
            "segment_counts": recorder.segment_counts(),
            "training_events": training_events,
            "states": [
                (acc.name, acc.state_dict()) for acc in recorder.accumulators
            ],
            "spill": manifest,
        }

    def _replay_segment_state(
        self, sut: SystemUnderTest, segment, seg_start: float
    ) -> None:
        """Apply a pre-shard segment's SUT state changes, queries skipped.

        Shards replay the segments before their range so the SUT enters
        the shard with the same trained model and injected data as the
        unsharded run; the training event is discarded (the owning shard
        records it) and no queries execute. Tick-driven adaptation inside
        skipped segments is *not* replayed — exact for SUTs whose service
        times ignore tick state, a documented approximation otherwise
        (DESIGN.md §10).
        """
        if segment.training_before is not None:
            self._run_training_phase(
                sut, segment.training_before, start_at=seg_start
            )
        if segment.data_injection is not None and segment.data_injection.size:
            sut.inject([(float(k), None) for k in segment.data_injection])

    def _execute(
        self, sut: SystemUnderTest, scenario: Scenario, recorder, shard=None
    ) -> Tuple[List[TrainingEvent], List[float]]:
        """Drive ``scenario`` against ``sut``, appending into ``recorder``.

        The recorder-agnostic core shared by :meth:`run` (columnar,
        retain-everything) and :meth:`run_streaming` (bounded-memory
        folds): any object with the :class:`ColumnarRecorder` append
        interface works. With a :class:`~repro.core.streaming.ShardSpec`
        in ``shard``, only that slice of the scenario executes: earlier
        segments are replayed for SUT state, later ones skipped, and an
        arrival range slices the single executed segment's batch without
        touching the workload RNG stream. Returns the run's training
        events plus the final per-server busy times (sharded runs use
        the latter to verify queue drain at shard boundaries).
        """
        training_events: List[TrainingEvent] = []
        tracer = self.tracer
        sut.attach_tracer(tracer)
        # Per-run fault state; None keeps every fault branch untaken.
        self._fault_clock = (
            FaultClock(scenario.fault_plan) if scenario.fault_plan else None
        )

        # Initial load + offline training happen before query time zero.
        with tracer.span("setup", phase="serve", sut=sut.name,
                         scenario=scenario.name):
            if scenario.initial_keys is not None and scenario.initial_keys.size:
                pairs = [(float(k), i) for i, k in enumerate(scenario.initial_keys)]
                sut.setup(pairs)
            else:
                sut.setup([])
        if scenario.initial_training is not None:
            event = self._run_training_phase(
                sut, scenario.initial_training, start_at=None
            )
            # Every shard trains (SUT state), only shard 0 records the
            # event — the merged timeline must list it exactly once.
            if event is not None and (shard is None or shard.index == 0):
                training_events.append(event)

        # Min-heap of per-server next-free times (k parallel workers).
        server_free: List[float] = [0.0] * self.config.servers
        heapq.heapify(server_free)
        seg_start = 0.0
        total_queries = 0
        # Lazily interned op codes: op_map[batch code] -> recorder code,
        # filled in first-occurrence order so both driver paths build the
        # same operations vocabulary.
        op_map = np.full(len(KV_OPERATIONS), -1, dtype=np.int32)
        for seg_index, segment in enumerate(scenario.segments):
            seg_end = seg_start + segment.duration
            if shard is not None:
                if seg_index >= shard.segment_hi:
                    break
                if seg_index < shard.segment_lo:
                    with tracer.span(
                        f"segment-replay:{segment.label}",
                        phase="serve",
                        index=seg_index,
                    ):
                        self._replay_segment_state(sut, segment, seg_start)
                    seg_start = seg_end
                    continue
            with tracer.span(
                f"segment:{segment.label}", phase="serve", index=seg_index
            ):
                # Between-segment retraining blocks every server.
                if segment.training_before is not None:
                    event = self._run_training_phase(
                        sut,
                        segment.training_before,
                        start_at=max(seg_start, max(server_free)),
                    )
                    if event is not None:
                        training_events.append(event)
                        server_free = [max(f, event.end) for f in server_free]
                        heapq.heapify(server_free)
                if segment.data_injection is not None and segment.data_injection.size:
                    sut.inject([(float(k), None) for k in segment.data_injection])

                workload = segment.spec.build_workload(
                    seed=scenario.seed * 1_000_003 + seg_index
                )
                # Check the projected count *before* materializing arrival
                # arrays: an oversized segment must not allocate first.
                projected = workload.spec.arrivals.projected_count(
                    0.0, segment.duration
                )
                if (
                    total_queries + projected > self.config.max_queries
                    and not self.config.truncate_max_queries
                ):
                    raise DriverError(
                        f"scenario generates > {self.config.max_queries} queries "
                        f"(segment {segment.label!r} alone projects {projected}); "
                        "reduce rates or durations"
                    )
                local = workload.spec.arrivals.arrivals(
                    np.random.default_rng(scenario.seed * 7 + seg_index),
                    0.0,
                    segment.duration,
                    jitter=self.config.jitter_arrivals,
                )
                arrivals = local + seg_start
                if shard is not None and shard.arrival_lo is not None:
                    # Generate the full segment batch so the workload RNG
                    # stream matches the unsharded run bitwise, then
                    # execute only this shard's arrival-index slice (a
                    # zero-copy view).
                    batch = workload.next_batch(arrivals).slice(
                        shard.arrival_lo, shard.arrival_hi
                    )
                    arrivals = batch.arrivals
                else:
                    if (
                        self.config.truncate_max_queries
                        and total_queries + arrivals.size > self.config.max_queries
                    ):
                        arrivals = arrivals[
                            : max(0, self.config.max_queries - total_queries)
                        ]
                    batch = workload.next_batch(arrivals)
                total_queries += arrivals.size
                recorder.reserve(arrivals.size)
                segment_code = recorder.intern_segment(segment.label)
                tracer.counter("driver.segments")
                tracer.counter("driver.queries", arrivals.size)

                if self.config.use_batching:
                    server_free = self._run_segment_batched(
                        sut,
                        scenario,
                        batch,
                        seg_start,
                        seg_end,
                        segment_code,
                        server_free,
                        recorder,
                        op_map,
                        training_events,
                    )
                else:
                    server_free = self._run_segment_scalar(
                        sut,
                        scenario,
                        batch,
                        seg_start,
                        seg_end,
                        segment_code,
                        server_free,
                        recorder,
                        training_events,
                    )
            seg_start = seg_end

        sut.teardown()
        return training_events, server_free

    # -- segment execution -------------------------------------------------------------

    def _run_segment_scalar(
        self,
        sut: SystemUnderTest,
        scenario: Scenario,
        batch: QueryBatch,
        seg_start: float,
        seg_end: float,
        segment_code: int,
        server_free: List[float],
        recorder: ColumnarRecorder,
        training_events: List[TrainingEvent],
    ) -> List[float]:
        """Reference path: one query at a time through the server heap."""
        stream = self._interrupts(seg_start, seg_end, scenario)
        fault_clock = self._fault_clock
        for i in range(len(batch)):
            arrival = float(batch.arrivals[i])
            # Fire any due interrupts (ticks + point faults) before this
            # arrival.
            while stream.peek() <= arrival:
                server_free = self._fire_interrupt(
                    sut, stream, server_free, training_events
                )
            query = batch.query(i)
            free = heapq.heappop(server_free)
            start = max(arrival, free)
            service = max(
                self.config.min_service_time, float(sut.execute(query, arrival))
            )
            if fault_clock is not None:
                service = max(
                    self.config.min_service_time,
                    fault_clock.perturb(service, arrival),
                )
            completion = start + service
            heapq.heappush(server_free, completion)
            recorder.append(
                arrival,
                start,
                completion,
                recorder.intern_op(query.op.value),
                segment_code,
            )
        # Remaining interrupts to the end of the segment.
        while stream.peek() < seg_end:
            server_free = self._fire_interrupt(
                sut, stream, server_free, training_events
            )
        return server_free

    def _run_segment_batched(
        self,
        sut: SystemUnderTest,
        scenario: Scenario,
        batch: QueryBatch,
        seg_start: float,
        seg_end: float,
        segment_code: int,
        server_free: List[float],
        recorder: ColumnarRecorder,
        op_map: np.ndarray,
        training_events: List[TrainingEvent],
    ) -> List[float]:
        """Batched path: tick-bounded slices through ``execute_batch``.

        The scalar loop fires every interrupt (tick or point fault) with
        ``time <= arrival`` before each arrival; slicing the arrival
        array at each interrupt with ``searchsorted(..., side="left")``
        reproduces that interleaving exactly — queries strictly before
        the interrupt run first, then it fires, and trailing interrupts
        fill out to the segment end.
        """
        arrivals = batch.arrivals
        n = len(batch)
        stream = self._interrupts(seg_start, seg_end, scenario)
        idx = 0
        while stream.peek() < seg_end:
            end = idx + int(
                np.searchsorted(arrivals[idx:], stream.peek(), side="left")
            )
            if end > idx:
                server_free = self._process_batch_slice(
                    sut, batch, idx, end, segment_code, server_free,
                    recorder, op_map,
                )
                idx = end
            server_free = self._fire_interrupt(
                sut, stream, server_free, training_events
            )
        if idx < n:
            server_free = self._process_batch_slice(
                sut, batch, idx, n, segment_code, server_free, recorder, op_map
            )
        return server_free

    def _process_batch_slice(
        self,
        sut: SystemUnderTest,
        batch: QueryBatch,
        a: int,
        b: int,
        segment_code: int,
        server_free: List[float],
        recorder: ColumnarRecorder,
        op_map: np.ndarray,
    ) -> List[float]:
        """Execute one tick-free slice in ``block_size``-bounded blocks.

        Sub-slicing is exact: the FIFO kernel threads its free-time
        state through consecutive calls and every per-query computation
        (service execution, fault perturbation, op interning) depends
        only on that query's own inputs, so any block boundary yields
        the same timestamps.
        """
        block = self.config.block_size
        if block is None or b - a <= block:
            return self._process_block(
                sut, batch, a, b, segment_code, server_free, recorder, op_map
            )
        for lo in range(a, b, block):
            server_free = self._process_block(
                sut,
                batch,
                lo,
                min(lo + block, b),
                segment_code,
                server_free,
                recorder,
                op_map,
            )
        return server_free

    def _process_block(
        self,
        sut: SystemUnderTest,
        batch: QueryBatch,
        a: int,
        b: int,
        segment_code: int,
        server_free: List[float],
        recorder: ColumnarRecorder,
        op_map: np.ndarray,
    ) -> List[float]:
        """Execute one contiguous block and append it to the recorder."""
        self.tracer.counter("driver.batches")
        self.tracer.counter("driver.batched_queries", b - a)
        sub = batch.slice(a, b)
        with self.tracer.span("batch", phase="serve", queries=b - a):
            services = np.maximum(
                self.config.min_service_time,
                np.asarray(
                    sut.execute_batch(sub, float(sub.arrivals[0])), dtype=np.float64
                ),
            )
        if self._fault_clock is not None and self._fault_clock.has_window_faults:
            services = np.maximum(
                self.config.min_service_time,
                self._fault_clock.perturb_batch(services, sub.arrivals),
            )
        if self.config.servers == 1:
            starts, completions, server_free[0] = fifo_single_server(
                sub.arrivals, services, server_free[0]
            )
        else:
            starts, completions = fifo_k_servers(
                sub.arrivals, services, server_free
            )
        # Intern any new ops in first-occurrence order (matches the
        # scalar path's lazy first-sight vocabulary).
        uniq, first = np.unique(sub.ops, return_index=True)
        for u in uniq[np.argsort(first)]:
            if op_map[u] < 0:
                op_map[u] = recorder.intern_op(KV_OPERATIONS[int(u)].value)
        recorder.append_block(
            sub.arrivals, starts, completions, op_map[sub.ops], segment_code
        )
        return server_free

    # -- helpers ---------------------------------------------------------------------

    def _interrupts(
        self, seg_start: float, seg_end: float, scenario: Scenario
    ) -> _InterruptStream:
        """Build the segment's merged tick + point-fault stream."""
        faults: List[PointFault] = []
        if self._fault_clock is not None:
            faults = self._fault_clock.point_faults_in(seg_start, seg_end)
        return _InterruptStream(seg_start, scenario.tick_interval, faults)

    def _fire_interrupt(
        self,
        sut: SystemUnderTest,
        stream: _InterruptStream,
        server_free: List[float],
        training_events: List[TrainingEvent],
    ) -> List[float]:
        """Consume and apply the stream's next interrupt."""
        now, fault = stream.pop()
        if fault is None:
            server_free, event = self._tick(sut, now, server_free)
            if event is not None:
                training_events.append(event)
            return server_free
        return self._fire_fault(sut, fault, server_free, training_events)

    def _fire_fault(
        self,
        sut: SystemUnderTest,
        fault: PointFault,
        server_free: List[float],
        training_events: List[TrainingEvent],
    ) -> List[float]:
        """Apply one point fault to the server pool.

        Both stalls and crashes block *new* service on every server
        until the outage ends; queries already in flight complete as
        scheduled (the pause stops work from starting, not finishing).
        A crash additionally fires ``sut.on_crash``; if the SUT reports
        a cold retrain, it runs once the process is back up and the
        busiest server has drained, extending the outage and landing in
        ``training_events`` so the cost metrics price it.
        """
        self.tracer.counter("driver.faults")
        if isinstance(fault, StallFault):
            self.tracer.counter("driver.fault_stalls")
            span = self.tracer.start_span(
                "fault:stall", phase="fault", at=fault.at, duration=fault.duration
            )
            self.tracer.end_span()
            resume = fault.at + fault.duration
            blocked = [max(f, resume) for f in server_free]
            heapq.heapify(blocked)
            return blocked
        self.tracer.counter("driver.fault_crashes")
        span = self.tracer.start_span(
            "fault:crash",
            phase="fault",
            at=fault.at,
            recovery_seconds=fault.recovery_seconds,
        )
        try:
            nominal = sut.on_crash(fault.at)
        finally:
            self.tracer.end_span()
        resume = fault.at + fault.recovery_seconds
        blocked = [max(f, resume) for f in server_free]
        if nominal and nominal > 0:
            event = make_event(
                start=max(blocked),
                nominal_seconds=float(nominal),
                hardware=self.config.online_hardware,
                online=True,
                label="crash-retrain",
            )
            training_events.append(event)
            if span is not None:
                span.attrs["training_event"] = event_to_telemetry(event)
            blocked = [max(f, event.end) for f in blocked]
        heapq.heapify(blocked)
        return blocked

    def _run_training_phase(
        self,
        sut: SystemUnderTest,
        phase: TrainingPhase,
        start_at: Optional[float],
    ) -> Optional[TrainingEvent]:
        """Run a blocking offline phase; returns its event (or None).

        The phase runs inside a train-phase span so its *wall* time is
        measured; when training actually happened, the resulting
        :class:`TrainingEvent` (virtual-time accounting) is attached to
        that span as a ``training_event`` attribute, which is what
        :func:`repro.metrics.cost.phases_from_trace` reads back.
        """
        span = self.tracer.start_span("offline-train", phase="train")
        try:
            used = float(sut.offline_train(phase.budget_seconds))
        finally:
            self.tracer.end_span()
        if used <= 0:
            return None
        if used > phase.budget_seconds + 1e-9:
            raise DriverError(
                f"SUT {sut.name!r} used {used}s of a {phase.budget_seconds}s budget"
            )
        wall = phase.hardware.wall_time(used)
        start = -wall if start_at is None else start_at
        event = make_event(
            start=start,
            nominal_seconds=used,
            hardware=phase.hardware,
            online=False,
            label="offline",
        )
        self.tracer.counter("driver.offline_trainings")
        if span is not None:
            span.attrs["training_event"] = event_to_telemetry(event)
        return event

    def _tick(
        self, sut: SystemUnderTest, now: float, server_free: List[float]
    ) -> Tuple[List[float], Optional[TrainingEvent]]:
        """Fire one tick; apply any requested online retraining.

        An online retrain is stop-the-world: it starts once the busiest
        server drains and blocks every server until it finishes.
        """
        self.tracer.counter("driver.ticks")
        nominal = sut.on_tick(now)
        if not nominal or nominal <= 0:
            return server_free, None
        start = max(now, max(server_free))
        event = make_event(
            start=start,
            nominal_seconds=float(nominal),
            hardware=self.config.online_hardware,
            online=True,
            label="online-retrain",
        )
        # Marker span carrying the measured event; the SUT's own adapt
        # span (inside on_tick) holds the wall time of the rebuild.
        span = self.tracer.start_span("online-retrain", phase="adapt")
        self.tracer.end_span()
        if span is not None:
            span.attrs["training_event"] = event_to_telemetry(event)
        self.tracer.counter("driver.online_retrains")
        blocked = [max(f, event.end) for f in server_free]
        heapq.heapify(blocked)
        return blocked, event
