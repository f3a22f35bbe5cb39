"""Tests of the benchmark itself (``python3 -m pytest bench -q``).

The tiny runs use ``--size tiny``: the same code paths as a measuring
run, on a few blocks, in a few seconds each.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from records import iter_records, write_records  # noqa: E402
from spans import self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_run(workload: str, trace: int, seed: int = 5):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    digest = [line.split()[-1] for line in lines
              if line.startswith("inputs sha256")]
    return json.loads(lines[-1]), digest[0]


_RUNS = {}


def cached_run(workload: str, trace: int):
    if (workload, trace) not in _RUNS:
        _RUNS[workload, trace] = bench_run(workload, trace)
    return _RUNS[workload, trace]


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    result, _ = cached_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], float)
        assert metric["value"] == metric["value"]  # not NaN


def test_same_seed_same_inputs_and_exact_figures():
    first, first_digest = cached_run("oracle-eval", 0)
    again, again_digest = bench_run("oracle-eval", 0)
    assert first_digest == again_digest
    assert first["metrics"]["mape_pct"] == again["metrics"]["mape_pct"]

    first, first_digest = cached_run("cold-signatures", 1)
    again, again_digest = bench_run("cold-signatures", 1)
    assert first_digest == again_digest
    for name in ("sim.cycles", "engine.columnar.misses"):
        assert first["metrics"][name] == again["metrics"][name], name

    _, other_digest = bench_run("cold-signatures", 1, seed=6)
    assert other_digest != first_digest


def test_refuses_to_run_without_the_program():
    lone = os.path.join(BENCH, "out", "lone")
    shutil.rmtree(lone, ignore_errors=True)
    os.makedirs(os.path.join(lone, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(BENCH, name),
                        os.path.join(lone, "bench"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=lone, capture_output=True, text=True, timeout=60)
    shutil.rmtree(lone)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children():
    spans = [
        {"name": "op", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "decode", "parent": 0, "start": 1.0, "end": 3.0},
        {"name": "compute", "parent": 0, "start": 3.0, "end": 8.0},
        {"name": "measure", "parent": 2, "start": 4.0, "end": 5.0},
    ]
    assert self_times(spans) == [3.0, 2.0, 4.0, 1.0]


def test_timings_average_the_whole_run():
    report = run.Report(run.END_TO_END)
    run.set_timings(report, [0.5, 0.9, 0.6], [
        run.Timed(2.0, [0.1] * 10, [1] * 10),
        run.Timed(3.0, [0.3] * 5, [1, 1, 0, 1, 1]),  # one failed operation
    ])
    values = {name: value for name, (value, _) in report.values.items()}
    assert values["setup_s"] == 0.6
    assert values["blocks_per_s"] == 14 / 5.0
    assert values["latency_p50_ms"] == pytest.approx(100.0)
    assert report.notes["tails"]["latency_p99_ms"] == pytest.approx(300.0)
    assert report.values["blocks_per_s"][1] == 15


def test_records_survive_chunk_boundaries():
    path = os.path.join(BENCH, "out", "records-test.rec")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    items = [(bytes(range(n % 40 + 1)), n % 2) for n in range(300)]
    write_records(path, items)
    try:
        assert list(iter_records(path, chunk=7)) == items
    finally:
        os.remove(path)
