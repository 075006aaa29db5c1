"""Smoke test of the benchmark itself: one pass of each workload.

    python3 -m pytest perfbench/test_perfbench.py

Each run must print every metric that BENCHMARK.json declares, by name and
with its unit, and end with the result line. The corpus workloads must have
no failed job.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / SPEC["command"][1])]
    command += ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def printed_metrics(stdout):
    metrics = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            metrics[name] = (float(value), unit)
    return metrics


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_end_to_end_metric(workload):
    done = run_benchmark(workload, trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 7
    printed = printed_metrics(done.stdout)
    for metric in SPEC["end_to_end"]:
        value, unit = printed[metric["name"]]
        assert unit == metric["unit"] and value > 0
        assert result["metrics"][metric["name"]] == {"value": value, "unit": unit}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    if workload.startswith("corpus-"):
        assert result["failed"] == 0
        assert "failed_ratio 0 " in done.stdout


def test_traced_run_prints_every_per_layer_metric():
    done = run_benchmark("corpus-sparse", trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    printed = printed_metrics(done.stdout)
    for metric in SPEC["per_layer"]:
        assert printed[metric["name"]][1] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert printed["conditions.DerivedFields.calls"][0] > 0
    assert printed["sampling.attempts"][0] > printed["sampling.accepted"][0] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark("corpus-sparse", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
