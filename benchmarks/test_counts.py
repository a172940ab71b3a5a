"""Checks of the benchmark itself, not of the package.

    python3 -m pytest benchmarks/test_counts.py

Two traced runs of one seed must report the same exact counts on every
workload, and the self times of the sequential traced invocation, where
every span lies on the blocking path, must add up to its wall time within
the reported tracing overhead. Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 11
COUNTS = ("shotnoise.cos_evals", "shotnoise.terms", "special.inverse_points", "basis.sin_evals",
          "cli.bytes_written", "cli.files_written")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def traced_metrics(workload: str) -> dict:
    out = run_bench(ROOT, workload, 1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_pair(request):
    return traced_metrics(request.param), traced_metrics(request.param)


def test_exact_counts_repeat(traced_pair):
    first, second = traced_pair
    for name in sorted(set(COUNTS) | set(tracing.EXACT_COUNTS)):
        assert first[name] == second[name], name
    for name in COUNTS:
        assert first[name] > 0, name


def test_blocking_path_self_times_sum_to_wall(traced_pair):
    for m in traced_pair:
        # 1 ms of slack covers an overhead that reads negative from noise.
        slack = max(m["trace.overhead_s"], 0.0) + 1e-3
        assert abs(m["trace.self_sum_s"] - m["trace.wall_s"]) <= slack


def test_self_times_count_parallel_children_once():
    spans = [
        (1, 0, "r", "cli.main", 0.0, 10.0, 0.0, 0),
        (2, 1, "r", "shotnoise.sample_coeffs_batch", 1.0, 5.0, 0.0, 0),
        (3, 1, "r", "shotnoise.sample_coeffs_batch", 3.0, 8.0, 0.0, 0),
        (4, 2, "r", "shotnoise.shot_sum", 2.0, 4.0, 0.0, 0),
    ]
    assert tracing.self_times(spans) == {1: 3.0, 2: 2.0, 3: 5.0, 4: 2.0}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "paths_io", 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
