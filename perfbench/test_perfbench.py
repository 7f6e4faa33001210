"""Smoke tests of the benchmark at tiny sizes: metric names, units and the
result schema, and work counters that repeat exactly across two runs of one
seed.  No test looks at a time."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import pytest

import bench_workloads
import run

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload, trace, seed=3):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
        )
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


def _check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_spec_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)


@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(workload):
    _check_result(_run(workload, 0), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
def test_traced_counters_repeat_for_one_seed(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    _check_result(first, SPEC["per_layer"])
    _check_result(second, SPEC["per_layer"])
    counters = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    assert counters
    assert {k: first["metrics"][k]["value"] for k in counters} == {k: second["metrics"][k]["value"] for k in counters}
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first["metrics"]["trace.spans"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
