"""Every workload through run.py at tiny scale, timed and traced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    values = [entry["value"] for entry in result["metrics"].values()]
    assert all(isinstance(value, (int, float)) for value in values)
    if not trace:
        assert all(value > 0 for value in values)


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["workloads"]] == list(run.WORKLOADS)
    assert [(entry["name"], entry["unit"]) for entry in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(entry["name"], entry["unit"]) for entry in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "assess-plain", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
