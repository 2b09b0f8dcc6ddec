"""Workload smoke runs, reference checks and the benchmark's command."""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import run
import worker
from tracer import COUNT_NAMES, RATIO_NAMES, SPAN_NAMES
from workloads import WORKLOADS, compare

ROOT = run.ROOT


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(name):
    w = WORKLOADS[name]
    first = w.run(3, **w.tiny)
    assert first.units >= 1
    assert first.failed == 0, first.problems
    assert w.run(3, **w.tiny).text == first.text


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_matches_its_workload(name):
    with open(worker.reference_path(name)) as fh:
        reference = json.load(fh)
    assert reference["seed"] == worker.REFERENCE_SEED
    assert reference["size"] == json.loads(json.dumps(WORKLOADS[name].size))


def test_compare_reports_every_kind_of_mismatch():
    w = WORKLOADS["echo-ensemble"]
    out = w.run(4, **w.tiny)
    reference = {"values": json.loads(json.dumps(out.values))}
    assert compare(out, reference) == []
    changed = json.loads(json.dumps(reference))
    changed["values"]["rtol"][2] *= 1 + 1e-6
    assert compare(out, changed)
    changed = json.loads(json.dumps(reference))
    changed["values"]["curves"][5][0] += 1e-11
    assert compare(out, changed)
    changed["values"]["curves"][5][0] -= 1e-11 - 1e-13
    assert compare(out, changed) == []
    assert compare(out, {"values": {"atol": [0.0]}})
    w = WORKLOADS["mle-library"]
    out = w.run(4, **w.tiny)
    changed = {"values": json.loads(json.dumps(out.values))}
    changed["values"]["exact"]["library_sha256"] = "0" * 64
    assert compare(out, changed)


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == run.per_layer_units()
    assert len(per_layer) == 3 * len(SPAN_NAMES) + len(COUNT_NAMES) + \
        len(RATIO_NAMES) + 1


def test_command_fails_without_a_source_tree(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mle-library",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_command_prints_every_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mle-library",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    *_, summary, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in run.END_TO_END_UNITS.items():
        assert f" {unit}" in summary.split(f"{name}=")[1].split("  ")[0]
    assert "error_frac=0 fraction" in summary
    # wall_s: the mean pass, each scaled by the calibrations around it
    path = os.path.join(run.OUT_DIR, "result-mle-library-seed2-trace0.json")
    with open(path) as fh:
        w = json.load(fh)["worker"]
    cal = w["calibrations"]
    assert len(cal) == len(w["walls"]) + 1
    expected = [wall * worker.CALIBRATION_REFERENCE_S / ((a + b) / 2)
                for wall, a, b in zip(w["walls"], cal, cal[1:])]
    assert w["scaled_walls"] == pytest.approx(expected, rel=1e-12)
    assert result["metrics"]["wall_s"]["value"] == \
        statistics.fmean(w["scaled_walls"])


def test_traced_command_writes_spans():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "yield-slices",
         "--seed", "2", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(run.per_layer_units())
    assert result["metrics"]["yields.yield_sweep.calls"]["value"] == 1
    path = os.path.join(run.OUT_DIR, "spans-yield-slices-seed2-trace1.jsonl")
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    assert {s["name"] for s in spans} >= {"yields.yield_sweep",
                                          "bath.slice_bath"}
    assert all(s["start"] <= s["end"] for s in spans)
