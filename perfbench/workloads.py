"""The benchmark's workloads.

Each workload turns a seed into inputs (``setup``), makes the timed run
call (``run``), turns the run into the numbers a user reads
(``report``), and checks its outputs (``check``). In virtual time every
workload is an open loop at a fixed offered rate (``ConstantArrivals``);
on the host every workload is a batch job of a stated size.

The datasets are fixed, like a published dataset: the seed drives the
query streams, arrival jitter and tenant seeds, never the stored keys.

Library calls that the traced run wraps go through their module
(``metrics.latency_bands``, ``datasets.build_dataset``, ...), so the
wrappers installed by :mod:`perfbench.layers` see them.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np

from perfbench import checks
from repro import metrics
from repro.core import streaming
from repro.core.benchmark import Benchmark, BenchmarkConfig
from repro.core.phases import TrainingPhase
from repro.core.scenario import Scenario, Segment
from repro.core.tenancy import AdmissionPolicy, TenantSpec
from repro.data import datasets
from repro.faults import CrashFault, FaultPlan, LatencyFault, StallFault
from repro.scenarios import abrupt_shift, expected_access_sample, hotspot
from repro.suts.kv_learned import LearnedKVStore
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import UniformDistribution
from repro.workloads.drift import NoDrift
from repro.workloads.generators import (
    KVOperation,
    OperationMix,
    WorkloadSpec,
    simple_spec,
)
from repro.workloads.patterns import ConstantArrivals

#: Queries after a change over which ``adjustment_speed`` sums SLA excess.
ADJUSTMENT_QUERIES = 10_000


@dataclass
class Inputs:
    """What ``setup`` builds: the scenario(s), SUTs and tenant specs."""

    scenario: Scenario
    suts: List[Any] = field(default_factory=list)
    tenants: List[TenantSpec] = field(default_factory=list)


@dataclass
class Report:
    """The report phase's output for one repetition.

    Attributes:
        columns: Simulated query columns, one entry per SUT run or tenant.
        latency: The benchmark's own latency summary over all queries.
        keep: Small values the once-per-invocation checks need.
    """

    columns: List[Any]
    latency: Dict[str, float]
    keep: Dict[str, Any] = field(default_factory=dict)


def projected_queries(scenario: Scenario) -> int:
    """Queries the scenario's arrival processes generate in total."""
    return sum(
        seg.spec.arrivals.projected_count(0.0, seg.duration)
        for seg in scenario.segments
    )


def latency_summary(columns: Sequence[Any], sla_s: float) -> Dict[str, float]:
    """p50/p99 latency and SLA-miss share over all queries of a run."""
    lat = np.concatenate([c.completions - c.arrivals for c in columns])
    p50, p99 = np.percentile(lat, [50.0, 99.0])
    return {
        "sim_p50_ms": float(p50) * 1e3,
        "sim_p99_ms": float(p99) * 1e3,
        "sim_sla_miss_frac": float(np.count_nonzero(lat > sla_s)) / lat.size,
    }


def offline_report(result: Any, sla_s: float, plan: FaultPlan) -> None:
    """The offline Fig 1 metric set a user reads after an in-memory run.

    ``plan`` is the scenario's fault plan; an empty one for a fault-free
    scenario gives a resilience report with no impacts.
    """
    boundaries = result.segments
    change = boundaries[1][1] if len(boundaries) > 1 else 0.0
    metrics.latency_bands(result, sla_s)
    metrics.adjustment_speed(result, change, ADJUSTMENT_QUERIES, sla_s)
    metrics.adaptability_report(result)
    metrics.resilience_report(result, plan=plan, sla=sla_s)
    cols = result.columns
    latencies = cols.latencies
    for code in range(len(cols.segment_vocab)):
        metrics.box_stats(latencies[cols.segment_codes == code])


class Workload:
    """Interface every workload implements (see the module docstring).

    Attributes:
        name: Workload name, as in ``BENCHMARK.json``.
        why: One line on why the workload is in the benchmark.
        sla_s: The workload's fixed virtual SLA, in seconds.
    """

    name = ""
    why = ""
    sla_s = 0.0

    def setup(self, seed: int) -> Inputs:
        """Build the inputs for ``seed``."""
        raise NotImplementedError

    def run(self, inputs: Inputs, workdir: Path) -> Any:
        """The timed run call; returns what ``report`` consumes."""
        raise NotImplementedError

    def report(self, inputs: Inputs, raw: Any, workdir: Path) -> Report:
        """Turn the run into the numbers a user reads."""
        raise NotImplementedError

    def check(self, inputs: Inputs, raw: Any, report: Report) -> List[str]:
        """Output checks for one repetition (not timed)."""
        raise NotImplementedError

    def check_once(self, seed: int, keep: Dict[str, Any]) -> List[str]:
        """Checks made once per invocation, outside the timed runs.

        ``keep`` is the first repetition's :attr:`Report.keep`.
        """
        return []

    def units(self, inputs: Inputs, raw: Any) -> tuple:
        """``(attempted, failed)`` units of one repetition."""
        raise NotImplementedError

    def queries(self, report: Report) -> int:
        """Simulated queries the repetition completed."""
        return sum(int(c.arrivals.size) for c in report.columns)


@dataclass
class InMemoryWorkload(Workload):
    """SUTs run one after another through ``Benchmark.run``.

    Attributes:
        servers: Parallel service slots in the simulated system.
        required_events: Training-event labels every run must show.
    """

    servers: int = 1
    required_events: Sequence[str] = ()

    def run(self, inputs: Inputs, workdir: Path) -> List[Any]:
        """Run every SUT through the scenario, in memory."""
        bench = Benchmark(BenchmarkConfig(servers=self.servers))
        return [bench.run(sut, inputs.scenario) for sut in inputs.suts]

    def report(self, inputs: Inputs, raw: List[Any], workdir: Path) -> Report:
        """Offline Fig 1 metrics per run plus the latency summary."""
        plan = inputs.scenario.fault_plan or FaultPlan([])
        for result in raw:
            offline_report(result, self.sla_s, plan)
        columns = [result.columns for result in raw]
        return Report(columns, latency_summary(columns, self.sla_s))

    def check(self, inputs: Inputs, raw: List[Any], report: Report) -> List[str]:
        """Counts, FIFO invariants and required training events."""
        expected = projected_queries(inputs.scenario)
        errors: List[str] = []
        for result, cols in zip(raw, report.columns):
            errors.extend(checks.fifo_errors(cols, expected, result.sut_name))
            errors.extend(
                checks.training_errors(
                    result.training_events, self.required_events, result.sut_name
                )
            )
        return errors

    def units(self, inputs: Inputs, raw: List[Any]) -> tuple:
        """Every query is a unit; an in-memory run has no partial failure."""
        return sum(result.num_queries for result in raw), 0


@dataclass
class DriftLearned(InMemoryWorkload):
    """Learned-kv on ``osm`` through an abrupt hotspot shift with faults."""

    name: str = "drift-learned"
    why: str = (
        "learned-kv under an abrupt shift with a latency window, a stall and"
        " a crash: online and crash retrains, single-server FIFO queueing"
    )
    sla_s: float = 0.010
    keys: int = 50_000
    rate: float = 2400.0
    segment_s: float = 150.0
    servers: int = 1
    required_events: Sequence[str] = ("online-retrain", "crash-retrain")

    def setup(self, seed: int) -> Inputs:
        """Dataset, scenario with its fault plan, and the learned store."""
        dataset = datasets.build_dataset("osm", n=self.keys, seed=7)
        span = 2 * self.segment_s
        plan = FaultPlan([
            LatencyFault(start=0.1 * span, end=0.125 * span, multiplier=2.0),
            StallFault(at=0.3 * span, duration=1.0),
            CrashFault(at=0.75 * span, recovery_seconds=0.5),
        ])
        scenario = replace(
            abrupt_shift(
                dataset, rate=self.rate, segment_duration=self.segment_s,
                seed=seed,
            ),
            fault_plan=plan,
        )
        sut = LearnedKVStore(
            max_fanout=160,
            retrain_cooldown=2.0,
            expected_access_sample=expected_access_sample(scenario),
        )
        return Inputs(scenario=scenario, suts=[sut])

    def tiny(self) -> "DriftLearned":
        """A seconds-long copy for the self-tests."""
        return replace(self, keys=5_000, rate=400.0, segment_s=20.0)


@dataclass
class WriteMix(InMemoryWorkload):
    """A YCSB-A-shaped read/update/insert mix on B+ tree, then learned-kv."""

    name: str = "write-mix"
    why: str = (
        "YCSB-A-shaped writes beside reads on btree-kv then learned-kv:"
        " scalar write barriers and bulk-lookup cache rebuilds, 4 servers"
    )
    sla_s: float = 0.001
    keys: int = 10_000
    rate: float = 10_000.0
    duration_s: float = 2.0
    servers: int = 4

    def setup(self, seed: int) -> Inputs:
        """Dataset, the write-mix scenario and both stores."""
        dataset = datasets.build_dataset("uniform", n=self.keys, seed=7)
        spec = WorkloadSpec(
            name="ycsb-a",
            mix=OperationMix({
                KVOperation.READ: 0.50,
                KVOperation.UPDATE: 0.45,
                KVOperation.INSERT: 0.05,
            }),
            key_drift=NoDrift(UniformDistribution(dataset.low, dataset.high)),
            arrivals=ConstantArrivals(self.rate),
        )
        scenario = Scenario(
            name="write-mix",
            segments=[Segment(spec=spec, duration=self.duration_s)],
            initial_training=TrainingPhase(budget_seconds=10.0),
            initial_keys=dataset.keys,
            tick_interval=0.1,
            seed=seed,
        )
        suts = [
            TraditionalKVStore(),
            LearnedKVStore(
                max_fanout=160,
                retrain_cooldown=2.0,
                expected_access_sample=expected_access_sample(scenario),
            ),
        ]
        return Inputs(scenario=scenario, suts=suts)

    def tiny(self) -> "WriteMix":
        """A seconds-long copy for the self-tests."""
        return replace(self, keys=2_000, rate=2_000.0, duration_s=0.5)


@dataclass
class ServeStream(Workload):
    """Multi-tenant ``Benchmark.serve`` with sharded, spilled streaming."""

    name: str = "serve-stream"
    why: str = (
        "Benchmark.serve: 5 tenants offered, 4 admitted, 2 shards each on 2"
        " workers, streaming folds, npz spill, shard merge, 4 servers"
    )
    sla_s: float = 0.001
    keys: int = 50_000
    rate: float = 8500.0
    segment_s: float = 30.0
    offered: int = 5
    burst: int = 4
    shards: int = 2
    workers: int = 2
    block_size: int = 65_536

    def config(self) -> BenchmarkConfig:
        """The simulated system every tenant session runs on."""
        return BenchmarkConfig(servers=4, block_size=self.block_size)

    def setup(self, seed: int) -> Inputs:
        """Dataset, the read-only two-segment scenario and tenant specs.

        A one-second segment with no arrivals lets the queue drain
        between the two loaded segments. Shard boundaries then fall on
        an empty queue, where the repository claims sharded summaries
        equal unsharded ones; under this load a boundary inside a busy
        period would make the comparison inexact by design.
        """
        dataset = datasets.build_dataset("osm", n=self.keys, seed=7)

        def segment(label: str, position: float, rate: float,
                    duration: float) -> Segment:
            spec = simple_spec(label, hotspot(dataset, position), rate=rate)
            return Segment(spec=spec, duration=duration)

        scenario = Scenario(
            name="serve-stream",
            segments=[
                segment("dist-A", 0.1, self.rate, self.segment_s),
                segment("drain", 0.1, 0.0, 1.0),
                segment("dist-B", 0.7, self.rate, self.segment_s),
            ],
            initial_keys=dataset.keys,
            seed=seed,
        )
        tenants = [
            TenantSpec(
                name=f"tenant-{i}",
                sut_factory=TraditionalKVStore,
                scenario=scenario,
                seed=seed * 10 + i,
                shards=self.shards,
                arrival_time=float(i),
            )
            for i in range(self.offered)
        ]
        return Inputs(scenario=scenario, tenants=tenants)

    def run(self, inputs: Inputs, workdir: Path) -> Any:
        """One serving window; tenants spill their columns under workdir."""
        spill = workdir / "spill"
        shutil.rmtree(spill, ignore_errors=True)
        return Benchmark(self.config()).serve(
            inputs.tenants,
            workers=min(self.workers, os.cpu_count() or 1),
            admission=AdmissionPolicy(burst=self.burst, refill_rate=0.0),
            sla=self.sla_s,
            spill_dir=spill,
        )

    def report(self, inputs: Inputs, raw: Any, workdir: Path) -> Report:
        """Reload every completed tenant's spill; summarize latency."""
        columns = [
            streaming.load_spilled_columns(workdir / "spill" / tenant.tenant)
            for tenant in raw.tenants
            if tenant.ok
        ]
        first = next(tenant for tenant in raw.tenants if tenant.ok)
        keep = {"tenant": first.tenant, "seed": first.seed,
                "summary": first.summary}
        return Report(columns, latency_summary(columns, self.sla_s), keep)

    def check(self, inputs: Inputs, raw: Any, report: Report) -> List[str]:
        """Ledger, spill reload counts and FIFO invariants per tenant."""
        errors = checks.ledger_errors(
            raw, min(self.burst, self.offered), max(0, self.offered - self.burst)
        )
        expected = projected_queries(inputs.scenario)
        completed = [tenant for tenant in raw.tenants if tenant.ok]
        for tenant, cols in zip(completed, report.columns):
            if cols.arrivals.size != tenant.summary.num_queries:
                errors.append(
                    f"{tenant.tenant}: spill reloads {cols.arrivals.size} rows,"
                    f" summary counts {tenant.summary.num_queries}"
                )
            errors.extend(checks.fifo_errors(cols, expected, tenant.tenant))
        return errors

    def check_once(self, seed: int, keep: Dict[str, Any]) -> List[str]:
        """One tenant's sharded summary equals an unsharded streaming run."""
        scenario = replace(self.setup(seed).scenario, seed=keep["seed"])
        reference = Benchmark(self.config()).run_streaming(
            TraditionalKVStore(), scenario, sla=self.sla_s
        )
        return checks.summary_errors(keep["summary"], reference, keep["tenant"])

    def units(self, inputs: Inputs, raw: Any) -> tuple:
        """Tenant shard tasks; a retried, failed or dropped one failed."""
        attempted = failed = 0
        for tenant in raw.tenants:
            if tenant.status == "rejected":
                continue
            attempted += tenant.shards
            if tenant.ok:
                failed += sum(1 for a in tenant.attempts if a > 1)
            else:
                failed += tenant.shards
        dropped = raw.dropped * self.shards
        return attempted + dropped, failed + dropped

    def tiny(self) -> "ServeStream":
        """A seconds-long copy for the self-tests."""
        return replace(self, keys=5_000, rate=1_000.0, segment_s=5.0)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (DriftLearned(), WriteMix(), ServeStream())
}

