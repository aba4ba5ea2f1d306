"""Output checks shared by every workload.

Each check returns a list of error strings; an empty list means the
output passed. Keeping them as plain functions over columns, summaries
and ledgers lets the self-tests feed them deliberately corrupted data.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, List, Sequence

import numpy as np


def columns_digest(columns: Sequence[Any]) -> str:
    """SHA-256 over every simulated column, in order.

    Covers arrivals, starts, completions, op and segment codes and both
    vocabularies, so any change to the simulated output changes it.
    """
    h = hashlib.sha256()
    for cols in columns:
        for arr in (
            cols.arrivals,
            cols.starts,
            cols.completions,
            cols.op_codes,
            cols.segment_codes,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        vocab = [list(cols.op_vocab), list(cols.segment_vocab)]
        h.update(json.dumps(vocab).encode())
    return h.hexdigest()


def fifo_errors(cols: Any, expected: int, label: str) -> List[str]:
    """Query count and FIFO invariants for one run's columns.

    Every query starts no earlier than it arrived and completes strictly
    after it started, and the run completed exactly the number of
    queries the scenario projects.
    """
    errors = []
    n = int(cols.arrivals.size)
    if n != expected:
        errors.append(f"{label}: {n} queries, scenario projects {expected}")
    early = int(np.count_nonzero(cols.starts < cols.arrivals))
    if early:
        errors.append(f"{label}: {early} queries start before they arrive")
    instant = int(np.count_nonzero(cols.completions <= cols.starts))
    if instant:
        errors.append(f"{label}: {instant} queries complete at or before start")
    return errors


def training_errors(events: Sequence[Any], required: Sequence[str],
                    label: str) -> List[str]:
    """Each label in ``required`` appears among the run's training events."""
    seen = {event.label for event in events}
    return [
        f"{label}: no {name!r} training event (saw {sorted(seen)})"
        for name in required
        if name not in seen
    ]


def ledger_errors(report: Any, admitted: int, rejected: int) -> List[str]:
    """The serve ledger reconciles and matches the admission policy."""
    errors = []
    if report.offered != report.admitted + report.rejected:
        errors.append(
            f"ledger: offered {report.offered} != admitted {report.admitted}"
            f" + rejected {report.rejected}"
        )
    if report.dropped != 0:
        errors.append(f"ledger: {report.dropped} admitted tenants dropped")
    if report.failed or report.violations:
        errors.append(
            f"ledger: {report.failed} failed, {report.violations} violations"
        )
    if (report.admitted, report.rejected) != (admitted, rejected):
        errors.append(
            f"ledger: admitted/rejected {report.admitted}/{report.rejected},"
            f" admission policy gives {admitted}/{rejected}"
        )
    if report.completed != report.admitted:
        errors.append(
            f"ledger: {report.completed} completed of {report.admitted} admitted"
        )
    return errors


def payload_errors(got: Any, want: Any, path: str = "") -> List[str]:
    """Recursive comparison: integers and strings exact, floats to 1e-9.

    This is the repository's sharded-merge contract: integer counts are
    identical under any shard plan, float sums may differ in the last
    bits because they combine in another order.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        errors: List[str] = []
        for key in want:
            errors.extend(payload_errors(got[key], want[key], f"{path}.{key}"))
        return errors
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [f"{path}: lengths differ"]
        errors = []
        for i, (a, b) in enumerate(zip(got, want)):
            errors.extend(payload_errors(a, b, f"{path}[{i}]"))
        return errors
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) and math.isnan(got):
            return []
        if math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def summary_errors(merged: Any, reference: Any, label: str) -> List[str]:
    """A sharded streaming summary agrees with its unsharded twin."""
    errors = []
    for name in ("num_queries", "op_counts", "segment_counts"):
        if getattr(merged, name) != getattr(reference, name):
            errors.append(f"{label}: {name} differs from the unsharded run")
    errors.extend(
        f"{label}: {error}"
        for error in payload_errors(merged.metrics, reference.metrics, "metrics")
    )
    return errors
