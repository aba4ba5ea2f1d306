"""The parallel benchmark matrix runner.

Every figure in the paper is a *matrix* of runs — (SUT × scenario × seed)
— yet :class:`~repro.core.driver.VirtualClockDriver` executes one pair at
a time. This module is the orchestration layer on top of it:

* :class:`MatrixRunner` fans a list of :class:`MatrixJob` s across a
  ``multiprocessing`` pool. Runs are deterministic functions of their
  inputs (the driver seeds every RNG from ``scenario.seed``), so parallel
  results are byte-identical to serial ones and arrive in job order.
* :class:`ResultCache` is a content-addressed on-disk store: the cache
  key is a SHA-256 over the SUT description, the scenario fingerprint,
  the :class:`~repro.core.driver.DriverConfig` fields, the seed, and a
  hash of the result-determining source modules. Re-running a figure
  script therefore only executes jobs whose inputs actually changed.
* :class:`RunManifest` records per-job wall time, cache hit/miss, worker
  pid, attempt count, and failure details, so every matrix invocation
  leaves an observable trace (and a crash in one job cannot sink the
  matrix — the job is marked ``failed`` and the rest completes).

Hardening (chaos-benchmark matrices run for hours, so the runner itself
must survive misbehaving jobs and interrupted invocations):

* **Per-job wall-clock timeouts** (``job_timeout``): each job runs in
  its own process; a job that exceeds the deadline is killed and
  consumes one attempt.
* **Exponential-backoff retry budget** (``max_attempts`` ×
  ``retry_backoff``): crashed, timed-out, *and* raising jobs are retried
  with ``retry_backoff * 2**(attempt-1)`` seconds between attempts; the
  final failure surfaces the worker's traceback tail and the attempt
  count lands on the :class:`JobRecord`.
* **Checkpoint/resume** (``checkpoint`` + ``resume``): the manifest is
  atomically rewritten after every finished job; a resumed run reuses
  the checkpoint's completed records verbatim (results served from the
  result cache), so the final manifest is canonically identical to an
  uninterrupted run's.

The process transport, deadlines, retry budget, and crash isolation all
live in the shared :class:`~repro.core.workers.WorkerPool` layer — the
same pool :class:`~repro.core.sharded.ShardedStreamingExecutor` and the
multi-tenant service run on; this module only keeps the matrix-specific
bookkeeping (cache keys, manifests, checkpoints). See DESIGN.md §2/§11.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.results import RunResult
from repro.core.scenario import Scenario
from repro.core.sut import SystemUnderTest
from repro.core.workers import (  # noqa: F401 — re-exported for compat
    WorkerOutcome,
    WorkerPool,
    WorkerTask,
    kill_process,
    mp_context,
)
from repro.errors import RunnerError
from repro.observability import Trace

#: Manifest/cache schema version (bump to invalidate old cache entries).
CACHE_FORMAT = 2


@lru_cache(maxsize=1)
def code_version() -> str:
    """Hash of the source modules that determine a run's output.

    Part of every cache key: editing the driver, the workload generator,
    or the result record invalidates previously cached results, while
    editing metrics/reporting (pure post-processing) does not.
    """
    import repro
    from repro.core import driver, phases, queueing, results, scenario
    from repro.faults import clock as fault_clock
    from repro.faults import plan as fault_plan
    from repro.workloads import distributions, drift, generators, patterns

    digest = hashlib.sha256()
    digest.update(repro.__version__.encode())
    digest.update(str(CACHE_FORMAT).encode())
    for module in (
        driver, phases, queueing, results, scenario,
        fault_plan, fault_clock,
        distributions, drift, generators, patterns,
    ):
        digest.update(inspect.getsource(module).encode())
    return digest.hexdigest()


@dataclass
class MatrixJob:
    """One cell of the benchmark matrix.

    Attributes:
        sut_factory: Zero-argument callable building a fresh SUT. Must be
            picklable for multi-process execution — a module-level
            function, a class, or a :func:`functools.partial` of either
            (not a lambda or closure).
        scenario: The scenario to run.
        seed: Optional seed override; ``None`` keeps ``scenario.seed``.
        label: Display/grouping label (defaults to ``<sut>×<scenario>``
            plus the seed when overridden).
    """

    sut_factory: Callable[[], SystemUnderTest]
    scenario: Scenario
    seed: Optional[int] = None
    label: str = ""

    def resolved_scenario(self) -> Scenario:
        """The scenario with the job's seed override applied."""
        if self.seed is None or self.seed == self.scenario.seed:
            return self.scenario
        return replace(self.scenario, seed=self.seed)


def matrix_jobs(
    sut_factories: Dict[str, Callable[[], SystemUnderTest]],
    scenarios: Sequence[Scenario],
    seeds: Sequence[int] = (),
) -> List[MatrixJob]:
    """Cartesian product (SUT × scenario × seed) as a job list.

    An empty ``seeds`` keeps each scenario's own seed (one run per pair).
    """
    jobs: List[MatrixJob] = []
    for scenario in scenarios:
        for sut_key, factory in sut_factories.items():
            if seeds:
                for seed in seeds:
                    jobs.append(MatrixJob(
                        sut_factory=factory,
                        scenario=scenario,
                        seed=seed,
                        label=f"{sut_key}×{scenario.name}#s{seed}",
                    ))
            else:
                jobs.append(MatrixJob(
                    sut_factory=factory,
                    scenario=scenario,
                    label=f"{sut_key}×{scenario.name}",
                ))
    return jobs


@dataclass
class JobRecord:
    """One manifest row: what happened to one job.

    ``status`` is ``"ok"`` (executed), ``"cached"`` (served from the
    result cache), or ``"failed"`` (the worker raised or crashed).

    ``trace`` is the worker's serialized :class:`~repro.observability.Trace`
    (``Trace.to_dict`` payload) for executed jobs; cached and failed jobs
    carry ``None``.

    ``attempts`` counts executions of the job (1 for a clean first run;
    higher when crash/timeout/exception retries were consumed). The
    field defaults to 1 so manifests written before it existed still
    load.

    ``phi`` is the computed drift distance of the job's scenario (the
    :func:`repro.metrics.similarity.scenario_phi` payload), stamped by
    drift-axis sweeps; ``None`` for jobs that don't measure it. Defaults
    to ``None`` so manifests written before it existed still load.
    """

    label: str
    sut_name: str
    scenario_name: str
    seed: int
    cache_key: str
    status: str
    wall_seconds: float = 0.0
    worker: int = 0
    attempts: int = 1
    error: Optional[str] = None
    trace: Optional[Dict[str, Any]] = None
    phi: Optional[Dict[str, Any]] = None

    @property
    def cache_hit(self) -> bool:
        """Whether this job was served from the result cache."""
        return self.status == "cached"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload (inverse of :meth:`from_dict`)."""
        return {
            "label": self.label,
            "sut_name": self.sut_name,
            "scenario_name": self.scenario_name,
            "seed": self.seed,
            "cache_key": self.cache_key,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "worker": self.worker,
            "attempts": self.attempts,
            "error": self.error,
            "trace": self.trace,
            "phi": self.phi,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(**data)


@dataclass
class RunManifest:
    """Observability record of one matrix invocation."""

    jobs: List[JobRecord] = field(default_factory=list)
    workers: int = 1
    cache_dir: Optional[str] = None
    wall_seconds: float = 0.0

    @property
    def hits(self) -> int:
        """Number of jobs served from cache."""
        return sum(1 for j in self.jobs if j.status == "cached")

    @property
    def executed(self) -> int:
        """Number of jobs actually run to completion."""
        return sum(1 for j in self.jobs if j.status == "ok")

    @property
    def failures(self) -> List[JobRecord]:
        """Jobs that exhausted their attempts without a result."""
        return [j for j in self.jobs if j.status == "failed"]

    def telemetry(self) -> Dict[str, Any]:
        """Matrix-wide telemetry rollup: merged worker traces.

        Folds every job's trace together (phase self-time totals plus
        summed counters) and reports how many jobs contributed — cached
        and failed jobs carry no trace and are excluded.
        """
        merged = Trace()
        traced_jobs = 0
        for job in self.jobs:
            if job.trace:
                merged = merged.merge(Trace.from_dict(job.trace))
                traced_jobs += 1
        return {
            "traced_jobs": traced_jobs,
            "phase_seconds": merged.phase_seconds(),
            "counters": dict(merged.counters),
        }

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON payload, including volatile timing/telemetry."""
        return {
            "format": CACHE_FORMAT,
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "wall_seconds": self.wall_seconds,
            "telemetry": self.telemetry(),
            "jobs": [j.to_dict() for j in self.jobs],
        }

    def canonical_dict(self) -> Dict[str, Any]:
        """Execution-invariant view of the manifest.

        Drops everything that legitimately varies between two equivalent
        invocations — wall times, worker pids, traces, pool size, cache
        location — and keeps what the matrix *computed*: per-job
        identity, cache keys, statuses, attempt counts, and errors. A
        checkpoint/resume run is correct iff its canonical dict equals
        the uninterrupted run's.
        """
        volatile = {"wall_seconds", "worker", "trace"}
        return {
            "format": CACHE_FORMAT,
            "jobs": [
                {k: v for k, v in j.to_dict().items() if k not in volatile}
                for j in self.jobs
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output."""
        return cls(
            jobs=[JobRecord.from_dict(j) for j in data.get("jobs", [])],
            workers=data.get("workers", 1),
            cache_dir=data.get("cache_dir"),
            wall_seconds=data.get("wall_seconds", 0.0),
        )

    def save(self, path: str) -> None:
        """Write the manifest as JSON."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        """Read a manifest previously written by :meth:`save`."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def summary(self) -> str:
        """One-line human summary (used by the CLI and bench logs)."""
        return (
            f"{len(self.jobs)} jobs: {self.executed} executed, "
            f"{self.hits} cached, {len(self.failures)} failed "
            f"in {self.wall_seconds:.2f}s on {self.workers} worker(s)"
        )


class ResultCache:
    """Content-addressed on-disk store of :class:`RunResult` payloads."""

    def __init__(self, root: str) -> None:
        """Open (creating if needed) the cache directory ``root``."""
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, key: str) -> str:
        """On-disk location for cache entry ``key``."""
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or ``None`` on miss/corruption."""
        try:
            with open(self.path(key)) as handle:
                payload = json.load(handle)
            if payload.get("format") != CACHE_FORMAT:
                # An entry written by a different schema version is a
                # miss: its payload may not deserialize correctly.
                return None
            return RunResult.from_dict(payload["result"])
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError):
            # A torn/stale entry is a miss, never an error.
            return None

    def store(self, key: str, result: RunResult, meta: Dict[str, Any]) -> None:
        """Atomically persist ``result`` under ``key``."""
        payload = {"format": CACHE_FORMAT, "meta": meta, "result": result.to_dict()}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, self.path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def job_cache_key(
    job: MatrixJob, config: DriverConfig, sut_description: Dict[str, Any]
) -> str:
    """SHA-256 cache key of everything that determines the job's result."""
    scenario = job.resolved_scenario()
    payload = json.dumps(
        {
            "sut": sut_description,
            "scenario": scenario.fingerprint(),
            "driver": config.describe(),
            "seed": scenario.seed,
            "code": code_version(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _matrix_job_body(
    factory: Callable[[], SystemUnderTest],
    scenario: Scenario,
    config: DriverConfig,
    tracer,
) -> Dict[str, Any]:
    """The pool task body: run one matrix job, return its result dict.

    Results travel as :meth:`RunResult.to_dict` payloads so transport is
    identical to the cache format (and cheap to pickle). The pool
    threads the per-attempt ``tracer`` in (``WorkerTask.traced``); its
    finished trace lands on the job's manifest record.
    """
    sut = factory()
    result = VirtualClockDriver(config, tracer=tracer).run(sut, scenario)
    with tracer.span("serialize-result", phase="report"):
        return result.to_dict()


@dataclass
class MatrixOutcome:
    """What :meth:`MatrixRunner.run` returns.

    ``results`` is aligned with the submitted job list; a failed job's
    slot is ``None`` (details in ``manifest``).
    """

    results: List[Optional[RunResult]]
    manifest: RunManifest

    def named(self) -> Dict[str, RunResult]:
        """Successful results keyed by job label."""
        return {
            record.label: result
            for record, result in zip(self.manifest.jobs, self.results)
            if result is not None
        }

    def raise_on_failure(self) -> "MatrixOutcome":
        """Raise :class:`RunnerError` if any job failed; else ``self``."""
        failed = self.manifest.failures
        if failed:
            detail = "; ".join(f"{j.label}: {j.error}" for j in failed)
            raise RunnerError(f"{len(failed)} matrix job(s) failed — {detail}")
        return self


class MatrixRunner:
    """Runs a benchmark matrix across a process pool with result caching.

    Args:
        driver_config: Driver knobs shared by every job.
        workers: Process-pool size; ``1`` (or a single-job matrix) runs
            in-process. ``None`` picks ``min(cpu_count, len(jobs))``.
        cache_dir: Result-cache directory; ``None`` disables caching.
        use_cache: Master switch (lets callers keep ``cache_dir``
            configured while forcing re-execution).
        max_attempts: Executions per job before it is marked failed.
            Hard worker crashes, timeouts, and in-worker exceptions all
            consume attempts; the final failure records the last
            attempt's error (a raising job's error includes the worker's
            traceback tail).
        job_timeout: Per-job wall-clock budget in seconds; a job still
            running at its deadline is killed and the attempt counts as
            failed. ``None`` disables timeouts. Enforcing a timeout
            requires process isolation, so a single-job matrix with a
            timeout still runs through the process scheduler.
        retry_backoff: Base of the exponential backoff between attempts
            (``retry_backoff * 2**(attempt-1)`` seconds).
        checkpoint: Path where the manifest is atomically rewritten
            after every finished job, so a killed invocation leaves a
            loadable partial manifest.
        resume: Reuse the checkpoint's completed records: a job whose
            cache key matches a checkpointed ``ok``/``cached`` record
            (and whose result the cache can still serve) is not
            re-executed, and its record — wall time, worker, trace,
            attempts — is preserved verbatim. Requires ``cache_dir``;
            without a cache there is nothing to serve results from and
            every job re-executes.
    """

    def __init__(
        self,
        driver_config: Optional[DriverConfig] = None,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        max_attempts: int = 2,
        job_timeout: Optional[float] = None,
        retry_backoff: float = 0.25,
        checkpoint: Optional[str] = None,
        resume: bool = False,
    ) -> None:
        """Validate and store the runner knobs (see class docstring)."""
        if workers is not None and workers < 1:
            raise RunnerError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise RunnerError(f"max_attempts must be >= 1, got {max_attempts}")
        if job_timeout is not None and job_timeout <= 0:
            raise RunnerError(f"job_timeout must be > 0, got {job_timeout}")
        if retry_backoff < 0:
            raise RunnerError(f"retry_backoff must be >= 0, got {retry_backoff}")
        if resume and checkpoint is None:
            raise RunnerError("resume=True requires a checkpoint path")
        self.driver_config = driver_config or DriverConfig()
        self.workers = workers
        self.use_cache = use_cache and cache_dir is not None
        self.cache = ResultCache(cache_dir) if self.use_cache else None
        self.max_attempts = max_attempts
        self.job_timeout = job_timeout
        self.retry_backoff = retry_backoff
        self.checkpoint = checkpoint
        self.resume = resume
        self._checkpoint_workers = 1

    # -- public API ------------------------------------------------------------------

    def run(self, jobs: Sequence[MatrixJob]) -> MatrixOutcome:
        """Execute the matrix; cache hits skip execution entirely."""
        jobs = list(jobs)
        if not jobs:
            return MatrixOutcome(results=[], manifest=RunManifest(workers=0))
        t0 = time.perf_counter()

        records: List[Optional[JobRecord]] = [None] * len(jobs)
        results: List[Optional[RunResult]] = [None] * len(jobs)
        pending: List[int] = []
        prior = self._load_checkpoint_records()

        for index, job in enumerate(jobs):
            try:
                sut = job.sut_factory()  # construction is cheap; setup is not
            except Exception as exc:
                records[index] = JobRecord(
                    label=job.label or f"?×{job.scenario.name}",
                    sut_name="?",
                    scenario_name=job.scenario.name,
                    seed=job.resolved_scenario().seed,
                    cache_key="",
                    status="failed",
                    error=f"factory raised {type(exc).__name__}: {exc}",
                )
                continue
            key = job_cache_key(job, self.driver_config, sut.describe())
            if key in prior and self.use_cache:
                # Resume: reuse the checkpointed record verbatim (wall
                # time, worker, trace, attempts) when the cache can
                # still serve the result — the manifest ends up
                # canonically identical to an uninterrupted run's.
                reusable = self.cache.load(key)
                if reusable is not None:
                    records[index] = replace(prior[key])
                    results[index] = reusable
                    continue
            record = JobRecord(
                label=job.label or f"{sut.name}×{job.scenario.name}",
                sut_name=sut.name,
                scenario_name=job.scenario.name,
                seed=job.resolved_scenario().seed,
                cache_key=key,
                status="pending",
            )
            records[index] = record
            cached = self.cache.load(key) if self.use_cache else None
            if cached is not None:
                record.status = "cached"
                results[index] = cached
            else:
                pending.append(index)

        workers = self._worker_count(len(pending))
        self._checkpoint_workers = workers
        self._write_checkpoint(records)
        if pending:
            self._execute_pending(jobs, pending, records, results, workers)

        manifest = RunManifest(
            jobs=[r for r in records if r is not None],
            workers=workers,
            cache_dir=self.cache.root if self.cache else None,
            wall_seconds=time.perf_counter() - t0,
        )
        return MatrixOutcome(results=results, manifest=manifest)

    # -- execution strategies --------------------------------------------------------

    def _worker_count(self, n_pending: int) -> int:
        if n_pending <= 1:
            return 1
        if self.workers is not None:
            return min(self.workers, n_pending)
        return min(os.cpu_count() or 1, n_pending)

    def _execute_pending(
        self,
        jobs: Sequence[MatrixJob],
        pending: List[int],
        records: List[Optional[JobRecord]],
        results: List[Optional[RunResult]],
        workers: int,
    ) -> None:
        """Run the pending jobs on the shared :class:`WorkerPool`.

        The pool owns transport, deadlines, the retry budget, and crash
        isolation (see :mod:`repro.core.workers`); this method only maps
        pool events onto the matrix bookkeeping — attempt counts land on
        the :class:`JobRecord` as they happen, and every finished job
        is absorbed (result + cache + checkpoint) in completion order.
        One poisonous job can never sink the matrix: its record is
        marked ``failed`` and the rest completes.
        """
        pool = WorkerPool(
            workers=workers,
            max_attempts=self.max_attempts,
            timeout=self.job_timeout,
            retry_backoff=self.retry_backoff,
        )
        tasks = []
        for index in pending:
            record = records[index]
            assert record is not None
            tasks.append(WorkerTask(
                fn=_matrix_job_body,
                args=(
                    jobs[index].sut_factory,
                    jobs[index].resolved_scenario(),
                    self.driver_config,
                ),
                label=record.label,
                traced=True,
            ))

        def on_attempt(task_index: int, attempt: int) -> None:
            record = records[pending[task_index]]
            assert record is not None
            record.attempts = attempt

        def on_outcome(outcome: WorkerOutcome) -> None:
            self._absorb(pending[outcome.index], outcome, records, results)
            self._write_checkpoint(records)

        pool.run(tasks, on_attempt=on_attempt, on_outcome=on_outcome)

    # -- checkpointing ---------------------------------------------------------------

    def _load_checkpoint_records(self) -> Dict[str, JobRecord]:
        """Completed records from the resume checkpoint, by cache key."""
        if not self.resume or self.checkpoint is None:
            return {}
        try:
            manifest = RunManifest.load(self.checkpoint)
        except (FileNotFoundError, json.JSONDecodeError, KeyError, TypeError):
            # A missing or torn checkpoint just means a cold start.
            return {}
        return {
            rec.cache_key: rec
            for rec in manifest.jobs
            if rec.status in ("ok", "cached") and rec.cache_key
        }

    def _write_checkpoint(
        self, records: Sequence[Optional[JobRecord]]
    ) -> None:
        """Atomically rewrite the checkpoint manifest (if configured)."""
        if self.checkpoint is None:
            return
        manifest = RunManifest(
            jobs=[r for r in records if r is not None],
            workers=self._checkpoint_workers,
            cache_dir=self.cache.root if self.cache else None,
        )
        directory = os.path.dirname(os.path.abspath(self.checkpoint))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(manifest.to_dict(), handle, indent=2)
            os.replace(tmp, self.checkpoint)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _absorb(
        self,
        index: int,
        outcome: WorkerOutcome,
        records: List[Optional[JobRecord]],
        results: List[Optional[RunResult]],
    ) -> None:
        """Land a finished pool outcome on job ``index``'s record."""
        record = records[index]
        assert record is not None
        record.wall_seconds = outcome.wall_seconds
        record.worker = outcome.worker
        record.trace = outcome.trace
        if outcome.error is not None:
            record.status = "failed"
            record.error = outcome.error
            return
        result = RunResult.from_dict(outcome.payload)
        record.status = "ok"
        results[index] = result
        if self.cache is not None:
            self.cache.store(
                record.cache_key,
                result,
                meta={
                    "label": record.label,
                    "sut": record.sut_name,
                    "scenario": record.scenario_name,
                    "seed": record.seed,
                    "wall_seconds": outcome.wall_seconds,
                },
            )


def run_matrix(
    jobs: Iterable[MatrixJob],
    driver_config: Optional[DriverConfig] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    max_attempts: int = 2,
    job_timeout: Optional[float] = None,
    retry_backoff: float = 0.25,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> MatrixOutcome:
    """One-call convenience wrapper around :class:`MatrixRunner`."""
    runner = MatrixRunner(
        driver_config=driver_config,
        workers=workers,
        cache_dir=cache_dir,
        use_cache=use_cache,
        max_attempts=max_attempts,
        job_timeout=job_timeout,
        retry_backoff=retry_backoff,
        checkpoint=checkpoint,
        resume=resume,
    )
    return runner.run(list(jobs))
