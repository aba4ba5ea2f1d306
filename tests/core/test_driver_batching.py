"""The batched driver path is pinned, bit for bit, to the scalar one.

``DriverConfig(use_batching=True)`` must reproduce the retained
scalar/heap reference exactly: same result columns, same vocabularies,
same training events, same SUT-side counters. Both paths consume the
same vectorized :class:`QueryBatch` per segment, so every remaining
difference — the FIFO kernel, tick/batch slicing, bulk index lookups,
deferred observation hooks, block appends — is under test here.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

import numpy as np
import pytest

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.queueing import fifo_k_servers, fifo_single_server
from repro.core.scenario import Scenario, Segment
from repro.core.sut import SystemUnderTest
from repro.errors import DriverError
from repro.observability import NullTracer, Tracer
from repro.suts.kv_learned import LearnedKVStore
from repro.suts.kv_traditional import TraditionalKVStore
from repro.suts.kv_variants import AlexKVStore, PGMKVStore
from repro.workloads.distributions import UniformDistribution, ZipfDistribution
from repro.workloads.drift import AbruptDrift, NoDrift
from repro.workloads.generators import (
    KVOperation,
    OperationMix,
    WorkloadSpec,
    simple_spec,
)
from repro.workloads.patterns import ConstantArrivals

COLUMNS = ("arrivals", "starts", "completions", "op_codes", "segment_codes")


def _mixed_scenario(seed: int = 11, extra_segments: Optional[List[Segment]] = None):
    """Two segments: steady reads, then a drifting mixed-op workload."""
    mix = OperationMix(
        {
            KVOperation.READ: 0.7,
            KVOperation.INSERT: 0.15,
            KVOperation.SCAN: 0.1,
            KVOperation.UPDATE: 0.05,
        }
    )
    spec_reads = simple_spec("s0", UniformDistribution(0, 1000), rate=300.0)
    spec_mixed = WorkloadSpec(
        name="s1",
        mix=mix,
        key_drift=AbruptDrift(
            [UniformDistribution(0, 1000), ZipfDistribution(0, 1000, theta=1.2)],
            [1.0],
        ),
        arrivals=ConstantArrivals(300.0),
        scan_length_mean=16,
    )
    segments = [
        Segment(spec=spec_reads, duration=2.0),
        Segment(spec=spec_mixed, duration=2.0),
    ]
    if extra_segments:
        segments.extend(extra_segments)
    return Scenario(
        name="mixed",
        segments=segments,
        seed=seed,
        initial_keys=np.linspace(0, 1000, 2000),
    )


def _ycsb_a_scenario(seed: int = 5):
    """YCSB-A shape: reads beside updates of stored keys and new inserts,
    so nearly every read run follows a write."""
    spec = WorkloadSpec(
        name="ycsb-a",
        mix=OperationMix(
            {
                KVOperation.READ: 0.5,
                KVOperation.UPDATE: 0.45,
                KVOperation.INSERT: 0.05,
            }
        ),
        key_drift=NoDrift(UniformDistribution(0, 1000)),
        arrivals=ConstantArrivals(3000.0),
    )
    return Scenario(
        name="ycsb-a",
        segments=[Segment(spec=spec, duration=1.5)],
        seed=seed,
        initial_keys=np.linspace(0, 1000, 2000),
        tick_interval=0.1,
    )


def _run_both(sut_factory, scenario_factory, tracer_factory=None, **config_kwargs):
    out = {}
    for batching in (True, False):
        config = DriverConfig(use_batching=batching, **config_kwargs)
        tracer = tracer_factory() if tracer_factory is not None else None
        out[batching] = VirtualClockDriver(config, tracer=tracer).run(
            sut_factory(), scenario_factory()
        )
    return out[True], out[False]


def _assert_identical(batched, scalar):
    for name in COLUMNS:
        assert np.array_equal(
            getattr(batched.columns, name), getattr(scalar.columns, name)
        ), f"column {name!r} diverged"
    assert batched.columns.op_vocab == scalar.columns.op_vocab
    assert batched.columns.segment_vocab == scalar.columns.segment_vocab
    assert [
        (e.start, e.end, e.nominal_seconds, e.online)
        for e in batched.training_events
    ] == [
        (e.start, e.end, e.nominal_seconds, e.online)
        for e in scalar.training_events
    ]
    # The SUT's genuine work (index counters, drift checks, retrains)
    # must match too — batching may not change what the system measured.
    assert batched.sut_description == scalar.sut_description


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("servers", [1, 4])
    def test_traditional_store(self, servers):
        batched, scalar = _run_both(
            TraditionalKVStore, _mixed_scenario, servers=servers
        )
        _assert_identical(batched, scalar)
        assert batched.columns.arrivals.size > 1000

    @pytest.mark.parametrize("servers", [1, 4])
    def test_learned_store_with_retrains(self, servers):
        """Adaptive SUT: drift detection and online retrains fire in both
        paths at the same ticks with the same nominal costs."""
        batched, scalar = _run_both(
            LearnedKVStore, _mixed_scenario, servers=servers
        )
        _assert_identical(batched, scalar)

    @pytest.mark.parametrize("servers", [1, 4])
    @pytest.mark.parametrize(
        "sut_factory",
        [TraditionalKVStore, LearnedKVStore, PGMKVStore, AlexKVStore],
        ids=["btree-kv", "learned-kv", "pgm-kv", "alex-kv"],
    )
    def test_write_heavy_mix(self, sut_factory, servers):
        """Read caches kept in step with writes (B+ tree flattening,
        learned delta buffers, the snap mirror) serve every read run
        exactly as the scalar path does."""
        batched, scalar = _run_both(sut_factory, _ycsb_a_scenario, servers=servers)
        _assert_identical(batched, scalar)
        assert batched.columns.arrivals.size == 4500

    def test_write_heavy_mix_counts_few_btree_cache_builds(self):
        """Telemetry counts full B+ tree cache builds: with writes kept in
        step, far fewer than the read runs that follow writes."""
        tracer = Tracer()
        VirtualClockDriver(DriverConfig(), tracer=tracer).run(
            TraditionalKVStore(), _ycsb_a_scenario()
        )
        counters = tracer.counters
        builds = counters["index.bulk_cache_builds"]
        assert 1 <= builds < counters["kv.bulk_hit_runs"] / 10

    def test_k_server_heap_threads_across_blocks(self):
        """Four servers near saturation, cut into small blocks: most
        queries wait on completions from earlier blocks, so the heap of
        free times must carry from one queueing call to the next."""

        def busy_scenario():
            spec = simple_spec(
                "busy", UniformDistribution(0, 1000), rate=11_000.0
            )
            return Scenario(
                name="busy",
                segments=[Segment(spec=spec, duration=0.5)],
                seed=3,
                initial_keys=np.linspace(0, 1000, 2000),
            )

        batched, scalar = _run_both(
            TraditionalKVStore, busy_scenario, servers=4, block_size=50
        )
        _assert_identical(batched, scalar)
        cols = batched.columns
        assert np.mean(cols.starts > cols.arrivals) > 0.5

    def test_zero_arrival_segment(self):
        """A rate-0 segment contributes no queries but still ticks."""
        quiet = Segment(
            spec=simple_spec("quiet", UniformDistribution(0, 1000), rate=0.0),
            duration=3.0,
        )
        batched, scalar = _run_both(
            TraditionalKVStore,
            lambda: _mixed_scenario(extra_segments=[quiet]),
        )
        _assert_identical(batched, scalar)
        assert "quiet" in batched.columns.segment_vocab

    def test_tiny_duration_segment(self):
        """A near-zero-duration segment (usually empty) stays aligned."""
        blip = Segment(
            spec=simple_spec("blip", UniformDistribution(0, 1000), rate=500.0),
            duration=1e-6,
        )
        batched, scalar = _run_both(
            TraditionalKVStore,
            lambda: _mixed_scenario(extra_segments=[blip]),
        )
        _assert_identical(batched, scalar)

    def test_truncate_max_queries_mid_batch(self):
        """Truncation cuts the same arrivals on both paths."""
        batched, scalar = _run_both(
            TraditionalKVStore,
            _mixed_scenario,
            max_queries=700,
            truncate_max_queries=True,
        )
        _assert_identical(batched, scalar)
        assert batched.columns.arrivals.size == 700

    def test_truncation_off_still_raises(self):
        from repro.errors import DriverError

        with pytest.raises(DriverError):
            VirtualClockDriver(DriverConfig(max_queries=700)).run(
                TraditionalKVStore(), _mixed_scenario()
            )


class TestTracingInvariance:
    """Tracing is observational: it may never change a run's results."""

    @pytest.mark.parametrize("sut_factory", [TraditionalKVStore, LearnedKVStore])
    def test_batched_equals_scalar_with_tracing_enabled(self, sut_factory):
        """The bit-identity invariant holds with a live tracer attached."""
        batched, scalar = _run_both(
            sut_factory, _mixed_scenario, tracer_factory=Tracer
        )
        _assert_identical(batched, scalar)

    @pytest.mark.parametrize("tracer_factory", [None, NullTracer, Tracer])
    def test_result_payload_identical_across_tracers(self, tracer_factory):
        """No tracer, NullTracer, and full Tracer: byte-identical results."""
        import json

        config = DriverConfig()
        tracer = tracer_factory() if tracer_factory is not None else None
        result = VirtualClockDriver(config, tracer=tracer).run(
            LearnedKVStore(), _mixed_scenario()
        )
        payload = json.dumps(result.to_dict(), sort_keys=True)
        baseline = VirtualClockDriver(DriverConfig()).run(
            LearnedKVStore(), _mixed_scenario()
        )
        assert payload == json.dumps(baseline.to_dict(), sort_keys=True)

    def test_trace_counts_agree_with_result(self):
        """The trace's driver counters match the run record exactly."""
        tracer = Tracer()
        result = VirtualClockDriver(DriverConfig(), tracer=tracer).run(
            LearnedKVStore(), _mixed_scenario()
        )
        trace = tracer.finish()
        assert trace.counter("driver.queries") == result.num_queries
        assert trace.counter("driver.segments") == len(result.segments)
        online = sum(1 for e in result.training_events if e.online)
        assert trace.counter("driver.online_retrains") == online
        # Per-batch spans cover every query served through the fast path.
        assert trace.counter("driver.batched_queries") == result.num_queries
        batch_spans = [s for s in trace.walk() if s.name == "batch"]
        assert len(batch_spans) == trace.counter("driver.batches")
        assert sum(s.attrs["queries"] for s in batch_spans) == result.num_queries

    def test_no_open_spans_after_run(self):
        tracer = Tracer()
        VirtualClockDriver(DriverConfig(), tracer=tracer).run(
            TraditionalKVStore(), _mixed_scenario()
        )
        assert tracer.open_spans == 0


class TestExecuteOnlyFallback:
    """Third-party SUTs that only implement ``execute`` keep working."""

    class MinimalSUT(SystemUnderTest):
        def __init__(self):
            super().__init__("minimal")
            self.calls: List[float] = []

        def setup(self, pairs):
            pass

        def execute(self, query, now):
            self.calls.append(now)
            return 1e-4 + (query.key % 7) * 1e-6

    def test_default_execute_batch_loops(self):
        batched, scalar = _run_both(self.MinimalSUT, _mixed_scenario)
        _assert_identical(batched, scalar)

    def test_now_is_arrival_time(self):
        sut = self.MinimalSUT()
        result = VirtualClockDriver().run(sut, _mixed_scenario())
        assert np.array_equal(
            np.asarray(sut.calls), result.columns.arrivals
        )


UTILISATIONS = [0.001, 0.3, 0.9, 0.99, 1.5]


def _exponential_stream(seed: int, n: int, utilisation: float, servers: int = 1):
    """Poisson arrivals at rate 1 with mean service ``servers × ρ``."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0, n))
    services = rng.exponential(utilisation * servers, n)
    return arrivals, services


def _same_bits(x, y) -> bool:
    """Bitwise float equality: distinguishes ±0.0, matches NaN to NaN."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestFifoKernel:
    @staticmethod
    def _scalar_fifo(arrivals, services, free):
        starts, completions = [], []
        for a, s in zip(arrivals, services):
            start = max(float(a), free)
            completion = start + float(s)
            free = completion
            starts.append(start)
            completions.append(completion)
        return np.asarray(starts), np.asarray(completions), free

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_loop_exactly(self, seed):
        """Random overload/idle mixtures: exact float equality."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5000))
        arrivals = np.sort(rng.uniform(0.0, 10.0, n))
        # Alternate regimes so both kernel branches get exercised.
        services = rng.uniform(0.0, 2.5 / max(n, 1), n)
        services[rng.uniform(size=n) < 0.3] *= 50.0
        free = float(rng.uniform(0.0, 0.5))
        ref = self._scalar_fifo(arrivals, services, free)
        got = fifo_single_server(arrivals, services, free)
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])
        assert ref[2] == got[2]

    def test_empty_batch(self):
        starts, completions, free = fifo_single_server(
            np.empty(0), np.empty(0), 3.5
        )
        assert starts.size == 0 and completions.size == 0
        assert free == 3.5

    def test_tie_arrival_equals_completion(self):
        """An arrival exactly at the previous completion starts there."""
        arrivals = np.asarray([0.0, 1.0, 2.0])
        services = np.asarray([1.0, 1.0, 1.0])
        starts, completions, free = fifo_single_server(arrivals, services)
        assert starts.tolist() == [0.0, 1.0, 2.0]
        assert completions.tolist() == [1.0, 2.0, 3.0]
        assert free == 3.0

    @pytest.mark.parametrize("utilisation", UTILISATIONS)
    def test_matches_scalar_loop_at_utilisation(self, utilisation):
        """Idle-dominated through overloaded exponential streams."""
        arrivals, services = _exponential_stream(5, 20_000, utilisation)
        ref = self._scalar_fifo(arrivals, services, 0.0)
        got = fifo_single_server(arrivals, services, 0.0)
        assert _same_bits(ref[0], got[0])
        assert _same_bits(ref[1], got[1])
        assert _same_bits(ref[2], got[2])
        waited = np.count_nonzero(got[0] > arrivals)
        if utilisation >= 0.9:
            assert waited > arrivals.size // 2
        if utilisation <= 0.001:
            assert waited < arrivals.size // 100

    @pytest.mark.parametrize("utilisation", UTILISATIONS)
    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_block_chained_equals_single_shot(self, utilisation, block):
        """Threading ``free`` through blocks changes no timestamp."""
        arrivals, services = _exponential_stream(6, 5_000, utilisation)
        whole = fifo_single_server(arrivals, services, 0.25)
        starts, completions, free = [], [], 0.25
        for lo in range(0, arrivals.size, block):
            s, c, free = fifo_single_server(
                arrivals[lo : lo + block], services[lo : lo + block], free
            )
            starts.append(s)
            completions.append(c)
        assert _same_bits(whole[0], np.concatenate(starts))
        assert _same_bits(whole[1], np.concatenate(completions))
        assert _same_bits(whole[2], free)

    @pytest.mark.parametrize(
        "arrivals, services, free",
        [
            ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 1.0),
            ([0.0, -0.0, 0.0], [0.0, -0.0, 0.0], -0.0),
            ([-0.0, 0.0], [-0.0, -0.0], 0.0),
            ([0.0, float("nan"), 2.0], [1.0, 1.0, 1.0], 0.0),
            ([0.0, 1.0, 2.0], [1.0, float("nan"), 1.0], 0.0),
            ([0.0, 1.0], [1.0, 1.0], float("nan")),
            ([0.0, 1.0], [float("inf"), 1.0], 0.0),
        ],
        ids=["ties", "signed-zero-free", "signed-zero-arrival",
             "nan-arrival", "nan-service", "nan-free", "inf-service"],
    )
    def test_tie_and_nan_semantics_match_scalar(self, arrivals, services, free):
        """Same bits as Python's ``max``/``+`` on ties, ±0.0 and NaN."""
        ref = self._scalar_fifo(arrivals, services, free)
        got = fifo_single_server(
            np.asarray(arrivals), np.asarray(services), free
        )
        assert _same_bits(ref[0], got[0])
        assert _same_bits(ref[1], got[1])
        assert _same_bits(ref[2], got[2])

    @pytest.mark.parametrize("n_arrivals, n_services", [(3, 5), (5, 3), (0, 1)])
    def test_length_mismatch_raises(self, n_arrivals, n_services):
        with pytest.raises(DriverError, match="arrivals"):
            fifo_single_server(np.arange(n_arrivals), np.ones(n_services))


class TestFifoKServers:
    """``fifo_k_servers`` against the scalar driver's heap loop."""

    @staticmethod
    def _heap_fifo(arrivals, services, server_free):
        starts, completions = [], []
        for a, s in zip(arrivals, services):
            free = heapq.heappop(server_free)
            start = max(float(a), free)
            completion = start + float(s)
            heapq.heappush(server_free, completion)
            starts.append(start)
            completions.append(completion)
        return np.asarray(starts), np.asarray(completions)

    def _assert_matches_reference(self, arrivals, services, heap):
        ref_heap = list(heap)
        ref = self._heap_fifo(arrivals, services, ref_heap)
        got = fifo_k_servers(arrivals, services, heap)
        assert _same_bits(ref[0], got[0])
        assert _same_bits(ref[1], got[1])
        assert sorted(heap) == sorted(ref_heap)
        return got

    @pytest.mark.parametrize("k", [2, 4, 7])
    @pytest.mark.parametrize("utilisation", UTILISATIONS)
    def test_matches_heap_loop(self, k, utilisation):
        arrivals, services = _exponential_stream(7, 10_000, utilisation, k)
        heap = [0.0] * k
        starts, _ = self._assert_matches_reference(arrivals, services, heap)
        assert len(heap) == k
        if utilisation >= 0.99:
            assert np.count_nonzero(starts > arrivals) > 0

    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_duplicate_free_times_in_heap(self, k):
        """Tied servers (e.g. after a crash blocks all of them)."""
        rng = np.random.default_rng(k)
        heap = [3.0] * (k - 1) + [1.5]
        heapq.heapify(heap)
        arrivals = np.sort(rng.uniform(0.0, 6.0, 400))
        arrivals[10:20] = arrivals[10]
        services = rng.choice([0.5, 1.0, 1.5], size=400)
        self._assert_matches_reference(arrivals, services, heap)

    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_block_chained_equals_single_shot(self, k):
        arrivals, services = _exponential_stream(8, 5_000, 0.9, k)
        whole_heap = [0.0] * k
        whole = fifo_k_servers(arrivals, services, whole_heap)
        heap = [0.0] * k
        parts = [
            fifo_k_servers(arrivals[lo : lo + 333], services[lo : lo + 333], heap)
            for lo in range(0, arrivals.size, 333)
        ]
        assert _same_bits(whole[0], np.concatenate([p[0] for p in parts]))
        assert _same_bits(whole[1], np.concatenate([p[1] for p in parts]))
        assert sorted(heap) == sorted(whole_heap)

    def test_single_server_heap_equals_single_server_kernel(self):
        arrivals, services = _exponential_stream(9, 5_000, 0.99)
        heap = [0.5]
        starts, completions = fifo_k_servers(arrivals, services, heap)
        ref = fifo_single_server(arrivals, services, 0.5)
        assert _same_bits(starts, ref[0])
        assert _same_bits(completions, ref[1])
        assert heap == [ref[2]]

    def test_empty_batch_leaves_heap(self):
        heap = [1.0, 2.0]
        starts, completions = fifo_k_servers(np.empty(0), np.empty(0), heap)
        assert starts.size == 0 and completions.size == 0
        assert heap == [1.0, 2.0]

    def test_empty_heap_raises(self):
        with pytest.raises(DriverError, match="server"):
            fifo_k_servers(np.arange(3.0), np.ones(3), [])

    @pytest.mark.parametrize("n_arrivals, n_services", [(3, 5), (5, 3)])
    def test_length_mismatch_raises(self, n_arrivals, n_services):
        heap = [0.0, 0.0]
        with pytest.raises(DriverError, match="arrivals"):
            fifo_k_servers(np.arange(n_arrivals), np.ones(n_services), heap)
        assert heap == [0.0, 0.0]
