"""Run one benchmark workload, check its outputs, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload drift-learned --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` makes timed repetitions (set-up, run call, report phase),
each in a fresh interpreter, until ``--seconds`` have passed and at
least three times, and prints the end-to-end metrics: medians over the
repetitions of the host timings (scaled to a reference host, see
:mod:`perfbench.calibrate`) and of each process's peak RSS, and the
simulated latency figures, which repeat exactly at a fixed seed.
``--trace 1`` alternates an untraced and a traced repetition in this
process for ``--seconds`` and prints the per-layer split (see
:mod:`perfbench.layers`). Either way, the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it carries the host metadata.
``--append FILE`` also appends both, with the raw samples, as one JSON
line to FILE, to build a trajectory.

The exit code is 0 when every output check passed, 1 when one failed
and 2 when the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Repetitions every timed run makes however short ``--seconds`` is; the
#: digest check needs at least two, a median wants three.
MIN_REPS = 3
#: Extra set-up samples each repetition's process takes before it.
SETUP_SAMPLES = 5
#: Report-phase samples per repetition, while they fit in the budget.
REPORT_SAMPLES = 15
REPORT_BUDGET_S = 0.25
#: A repetition still running after this many seconds is killed.
REPETITION_TIMEOUT_S = 150.0

#: End-to-end metrics with their units, as in ``BENCHMARK.json``.
END_TO_END = (
    ("setup_s", "s"),
    ("host_qps", "queries/s"),
    ("report_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim_sla_miss_frac", "ratio"),
)


@dataclass
class Repetition:
    """One set-up, run call and report phase, with its checks."""

    setup_s: float = 0.0
    run_s: float = 0.0
    report_s: float = 0.0
    queries: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    report: Any = None
    errors: List[str] = field(default_factory=list)


def repetition(workload: Any, seed: int, workdir: Path, log=None) -> Repetition:
    """Set up, run and report once; ``log`` puts each phase in a span."""
    from perfbench import checks

    def phase(name: str, fn, *args):
        return fn(*args) if log is None else log.span(name, fn, *args)

    rep = Repetition()
    gc.collect()  # start every repetition from the same collector state
    try:
        t0 = perf_counter()
        inputs = phase("phase.setup", workload.setup, seed)
        t1 = perf_counter()
        raw = phase("phase.run", workload.run, inputs, workdir)
        t2 = perf_counter()
        rep.setup_s, rep.run_s = t1 - t0, t2 - t1
        report_s: List[float] = []
        # A short report phase is timed a few times (it only reads the
        # run); a traced one once, so its spans count one report.
        while not report_s or (
            log is None
            and len(report_s) < REPORT_SAMPLES
            and sum(report_s) < REPORT_BUDGET_S
        ):
            t2 = perf_counter()
            report = phase("phase.report", workload.report, inputs, raw,
                           workdir)
            report_s.append(perf_counter() - t2)
        rep.report_s = statistics.median(report_s)
        rep.errors = workload.check(inputs, raw, report)
        rep.attempted, rep.failed = workload.units(inputs, raw)
        rep.queries = workload.queries(report)
        rep.digest = checks.columns_digest(report.columns)
        rep.report = report
    except Exception as exc:  # a raising run is a failed run, not a crash
        traceback.print_exc(file=sys.stderr)
        rep.errors = [f"run raised {type(exc).__name__}: {exc}"]
    if rep.errors:
        rep.attempted = max(rep.attempted, 1)
        rep.failed = rep.attempted
    return rep


def peak_rss_mb() -> float:
    """High-water RSS of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def fresh_repetition(workload: Any, seed: int, workdir: Path) -> dict:
    """Calibrate, sample set-up, repeat once; the body of a fresh process.

    Returns the repetition (its report reduced to the latency summary
    and the values kept for the once-per-invocation checks), the set-up
    samples, the host scale and this process's peak RSS.
    """
    from perfbench import calibrate

    before = calibrate.kernel_times()
    setup_s = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        workload.setup(seed)
        setup_s.append(perf_counter() - t0)
    rep = repetition(workload, seed, workdir)
    scale = calibrate.host_scale(before + calibrate.kernel_times())
    report, rep.report = rep.report, None
    return {
        "rep": rep,
        "latency": report.latency if report else None,
        "keep": report.keep if report else None,
        "setup_s": setup_s + [rep.setup_s],
        "scale": scale,
        "rss_mb": peak_rss_mb(),
    }


def child_main(job: str, result: str) -> None:
    """Entry point of a repetition process: job pickle in, result out."""
    with open(job, "rb") as handle:
        workload, seed, workdir = pickle.load(handle)
    out = fresh_repetition(workload, seed, Path(workdir))
    with open(result, "wb") as handle:
        pickle.dump(out, handle)


def in_fresh_process(workload: Any, seed: int, workdir: Path) -> dict:
    """Run :func:`fresh_repetition` in a new interpreter and wait for it.

    The child's standard output goes to this process's standard error,
    so the result line stays the last line of standard output.
    """
    job, result = workdir / "job.pickle", workdir / "result.pickle"
    result.unlink(missing_ok=True)
    with open(job, "wb") as handle:
        pickle.dump((workload, seed, workdir), handle)
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "from perfbench.run import child_main; child_main(*sys.argv[3:])")
    proc = subprocess.Popen(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT),
         str(job), str(result)],
        stdout=sys.stderr,
    )
    try:
        proc.wait(REPETITION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode == 0 and result.exists():
        with open(result, "rb") as handle:
            return pickle.load(handle)
    error = f"repetition process failed (exit code {proc.returncode})"
    return {"rep": Repetition(attempted=1, failed=1, errors=[error]),
            "latency": None, "keep": None, "setup_s": [], "scale": 1.0,
            "rss_mb": 0.0}


def timed_run(workload: Any, seed: int, seconds: float,
              workdir: Path) -> Dict[str, Any]:
    """Timed repetitions for ``seconds``; returns metrics and samples.

    Each repetition runs in a fresh interpreter: on a shared host a
    process's speed depends on where it lands, so the median over
    several processes is steadier than over one. Host times are scaled
    to the reference host by a calibration made in the same process
    right before and after its repetition (see :mod:`perfbench.calibrate`).
    """
    runs: List[dict] = []
    start = perf_counter()
    while len(runs) < MIN_REPS or perf_counter() - start < seconds:
        runs.append(in_fresh_process(workload, seed, workdir))
        if runs[-1]["rep"].errors:
            break
    reps = [run["rep"] for run in runs]
    scales = [run["scale"] for run in runs]
    errors = [error for rep in reps for error in rep.errors]
    errors.extend(
        f"repetition {i}: simulated columns differ from repetition 0"
        for i, rep in enumerate(reps)
        if not rep.errors and rep.digest != reps[0].digest
    )
    if not errors:
        errors.extend(workload.check_once(seed, runs[0]["keep"]))
    samples = {
        "host_scale": scales,
        "setup_s": [run["setup_s"] for run in runs],
        "run_s": [rep.run_s for rep in reps],
        "report_s": [rep.report_s for rep in reps],
        "queries": [rep.queries for rep in reps],
        "rss_mb": [run["rss_mb"] for run in runs],
    }
    metrics = {}
    if not errors:
        metrics = {
            "setup_s": statistics.median(
                t * run["scale"] for run in runs for t in run["setup_s"]
            ),
            "host_qps": statistics.median(
                rep.queries / (rep.run_s * k) for rep, k in zip(reps, scales)
            ),
            "report_s": statistics.median(
                rep.report_s * k for rep, k in zip(reps, scales)
            ),
            "peak_rss_mb": statistics.median(samples["rss_mb"]),
            **runs[0]["latency"],
        }
    return {
        "errors": errors,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": metrics,
        "units": dict(END_TO_END),
        "samples": samples,
        "digest": reps[0].digest,
    }


def traced_run(workload: Any, seed: int, seconds: float,
               workdir: Path) -> Dict[str, Any]:
    """Untraced/traced repetition pairs for ``seconds``; the layer split."""
    from perfbench import layers

    rows: List[Dict[str, float]] = []
    errors: List[str] = []
    attempted = failed = 0
    digest = ""
    start = perf_counter()
    while not rows or perf_counter() - start < seconds:
        plain = repetition(workload, seed, workdir)
        log = layers.SpanLog(workdir / f"lanes-{len(rows)}")
        with layers.Instrumentation(log):
            traced = repetition(workload, seed, workdir, log)
        attempted += plain.attempted + traced.attempted
        failed += plain.failed + traced.failed
        errors.extend(plain.errors + traced.errors)
        digest = digest or plain.digest
        if not errors and not plain.digest == traced.digest == digest:
            errors.append("traced run's simulated columns differ from untraced")
        if errors:
            break
        row = layers.layer_metrics(log, traced.report.columns)
        row["trace.overhead_frac"] = traced.run_s / plain.run_s - 1.0
        rows.append(row)
        if len(rows) == 1:
            errors.extend(workload.check_once(seed, plain.report.keep))
            if errors:
                break
    metrics = {}
    if not errors:
        metrics = {
            name: statistics.median(row[name] for row in rows)
            for name, _unit in layers.ROWS
        }
    return {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": dict(layers.ROWS),
        "samples": {"rows": rows},
        "digest": digest,
    }


def host_metadata() -> Dict[str, Any]:
    """CPU count, interpreter and numpy versions, and the commit."""
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit,
    }


def execute(workload: Any, seed: int, seconds: float, trace: bool,
            workdir: Path) -> Dict[str, Any]:
    """One invocation: measure, check, and shape the result object."""
    measure = traced_run if trace else timed_run
    out = measure(workload, seed, seconds, workdir)
    correct = not out["errors"]
    failed = out["failed"] if correct else out["attempted"]
    out["result"] = {
        "correct": correct,
        "attempted": int(max(out["attempted"], 1)),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": out["units"][name]}
            for name, value in out["metrics"].items()
        },
    }
    return out


def print_report(workload: Any, out: Dict[str, Any], host: dict) -> None:
    """The human-readable table, then the host line and the result line."""
    result = out["result"]
    print(f"perfbench {workload.name}: "
          f"{'all output checks passed' if result['correct'] else 'FAILED'}")
    for error in out["errors"]:
        print(f"  check failed: {error}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<34} {entry['value']:>16.6f} {entry['unit']}")
    if "host_qps" in result["metrics"]:
        frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':<34} {frac:>16.6f} ratio")
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run the workload, print; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", type=Path, default=None,
                        help="also append the record as a JSON line here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; run it from"
              " the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from"
              f" {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        out = execute(workload, args.seed, args.seconds, bool(args.trace),
                      workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host = host_metadata()
    if args.append is not None:
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host,
            "digest": out["digest"],
            "samples": out["samples"],
            "result": out["result"],
        }
        with open(args.append, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print_report(workload, out, host)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
