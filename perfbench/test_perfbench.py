"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q

Every workload runs clean in both modes on two seeds, every printed
metric matches ``BENCHMARK.json``, and the output checks catch a
corrupted completion column, a corrupted ledger and a diverging
sharded summary.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, layers, run
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _section(name: str) -> dict:
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[name]}


def _tiny_rep(name: str, tmp_path: Path):
    workload = WORKLOADS[name].tiny()
    inputs = workload.setup(1)
    raw = workload.run(inputs, tmp_path)
    report = workload.report(inputs, raw, tmp_path)
    return workload, inputs, raw, report


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert _section("end_to_end") == dict(run.END_TO_END)
    assert _section("per_layer") == dict(layers.ROWS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_runs_clean(name, trace, tmp_path):
    out = run.execute(WORKLOADS[name].tiny(), 1, 0.0, trace, tmp_path)
    result = out["result"]
    assert out["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _section("per_layer" if trace else "end_to_end")
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_second_seed_runs_clean(name, tmp_path):
    out = run.execute(WORKLOADS[name].tiny(), 2, 0.0, False, tmp_path)
    assert out["errors"] == [] and out["result"]["correct"]


def test_corrupted_completion_column_fails(tmp_path):
    workload, inputs, raw, report = _tiny_rep("drift-learned", tmp_path)
    assert workload.check(inputs, raw, report) == []
    cols = report.columns[0]
    cols.completions[7] = cols.starts[7]
    errors = workload.check(inputs, raw, report)
    assert any("complete at or before start" in e for e in errors)


def test_corrupted_ledger_fails(tmp_path):
    workload, inputs, raw, report = _tiny_rep("serve-stream", tmp_path)
    assert workload.check(inputs, raw, report) == []
    raw.dropped = 1
    assert any("dropped" in e for e in workload.check(inputs, raw, report))
    raw.dropped, raw.rejected = 0, raw.rejected + 1
    assert any("offered" in e for e in workload.check(inputs, raw, report))


def test_diverging_sharded_summary_fails(tmp_path):
    workload, _inputs, _raw, report = _tiny_rep("serve-stream", tmp_path)
    assert workload.check_once(1, report.keep) == []
    bands = report.keep["summary"].metrics["sla"]["bands"]
    bands[0][1] += 1
    assert workload.check_once(1, report.keep) != []


def test_payload_errors_tolerate_only_float_rounding():
    assert checks.payload_errors({"a": [1, 2.0]}, {"a": [1, 2.0 + 1e-12]}) == []
    assert checks.payload_errors({"a": [1, 2.0]}, {"a": [2, 2.0]}) != []
    assert checks.payload_errors({"a": 1.0}, {"a": 1.001}) != []


def test_checkout_without_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drift-learned",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
