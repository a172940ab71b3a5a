"""Workloads of the levykle benchmark: generated inputs and output checks.

Each workload is one CLI command with fixed sizes. The workload seed is the
only thing that varies between runs; it becomes the experiment config
document handed to ``levykle.cli.main`` through ``--config``, and nothing
else reaches the program. Outputs are checked in three ways:

- invariants that hold for every seed (grid, finiteness, the
  ``MEAN_Z_MAX`` standard error bound of the Monte Carlo mean, a
  well-formed validation report);
- byte identity between invocations with ``--workers 1`` and ``--workers 2``
  and between repeated invocations;
- agreement of an invocation at ``DEFAULT_SEED``, made in every run whatever
  its seed, with reference outputs recorded in ``reference/`` at a tolerance
  far below the Monte Carlo standard error, so a last-digit rewrite of a
  floating-point kernel passes and a wrong one fails.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 7
T = 1.0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Reference agreement: the Monte Carlo mean and its standard error must match
# within 1e-6 standard errors; path values and validation statistics within a
# relative 1e-9 and 1e-6. Kernel rewrites at the 1e-13 level move these
# numbers by about 1e-12.
MEAN_TOL_SE = 1e-6
PATH_RTOL = 1e-9
STAT_RTOL = 1e-6
PATH_SAMPLE_STRIDE = 50

# Seed-independent bound on |mc_mean - expected| in standard errors, over
# all 64 grid points of every d. A sample of S(t) is strongly skewed
# (skewness 1.3 to 3.6 across the grid for VG), so the largest |z| of a run
# has a heavier tail than a normal one. Resampling 2048-sample runs from
# 300000 draws of the program gave a run past 4 SE 0.2% of the time, past
# 4.5 SE 0.025% and none past 4.93 in 20000; the tail falls about eightfold
# per half SE, so about 5e-7 of runs pass 6 SE. At 4 SE about one run in
# 500 would fail with nothing wrong (seed 356450206 reads 4.24).
MEAN_Z_MAX = 6.0


@dataclass(frozen=True)
class Workload:
    """One CLI command at fixed sizes; ``workers`` is the timed worker count."""

    name: str
    command: str
    model: dict
    d_list: tuple
    n_paths: int
    grid_n: int
    workers: int

    def config(self, seed: int, workers: int, output_dir: Path) -> dict:
        """The experiment config document generated for one invocation."""
        return {
            "model": dict(self.model),
            "T": T,
            "d_list": list(self.d_list),
            "n_paths": self.n_paths,
            "grid_n": self.grid_n,
            "seed": int(seed),
            "workers": int(workers),
            "output_dir": str(output_dir),
            "prefix": "bench",
        }

    def argv(self, config_path: Path, output_dir: Path) -> list[str]:
        argv = [self.command, "--config", str(config_path)]
        if self.command == "validate":
            argv += ["--report", str(output_dir / "report.json")]
        return argv

    def sizes(self) -> dict:
        """Everything but the seed and worker count that shapes the outputs."""
        return {"command": self.command, "model": self.model, "d_list": list(self.d_list),
                "n_paths": self.n_paths, "grid_n": self.grid_n}


_VG = {"model": "variance_gamma"}

WORKLOADS = {w.name: w for w in (
    # Why each workload exists: BENCHMARK.json and README.md.
    Workload("mc_mean_highd", "mc-mean", _VG, (25, 3000), 2048, 64, 2),
    Workload("mc_mean_lowd", "mc-mean", _VG, (5, 25), 16384, 64, 2),
    Workload("paths_io", "simulate-paths", _VG, (25, 3000), 24, 2000, 2),
    Workload("validate_dense", "validate", {"model": "gamma", "c": 10.0, "rho": 1.0}, (25,), 4096, 2, 1),
)}


def expected_exit_codes(w: Workload) -> tuple[int, ...]:
    # validate exits 1 when one of its statistical checks rejects, which is
    # a result, not a failure of the program.
    return (0, 1) if w.command == "validate" else (0,)


def _csv(data: bytes, columns: int) -> np.ndarray:
    rows = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != columns:
        raise ValueError(f"expected {columns} columns, found {rows.shape[1]}")
    return rows


def expected_files(w: Workload) -> list[str]:
    if w.command == "mc-mean":
        return sorted(f"bench_mcmean_d{d}.csv" for d in w.d_list)
    if w.command == "simulate-paths":
        return sorted(f"bench_path_d{d}_p{i}.csv" for d in w.d_list for i in range(w.n_paths))
    return ["report.json"]


def check_outputs(w: Workload, rc: int, files: dict[str, bytes]) -> tuple[list[str], int]:
    """Seed-independent checks of one invocation's outputs.

    Returns the list of problems found and the number of validation checks
    the report itself marks as failed (0 for the other commands).
    """
    if rc not in expected_exit_codes(w):
        return [f"exit code {rc}"], 0
    names = sorted(files)
    if names != expected_files(w):
        return [f"output files {names[:4]}... do not match the expected set"], 0
    problems: list[str] = []
    grid = np.linspace(0.0, T, w.grid_n)
    if w.command == "validate":
        report = json.loads(files["report.json"])
        checks = report.get("checks") or []
        if not checks:
            problems.append("validation report has no checks")
        if any(not math.isfinite(c["statistic"]) for c in checks):
            problems.append("validation report has a non-finite statistic")
        n_failed = sum(1 for c in checks if not c["passed"])
        if (rc == 0) != bool(report.get("passed")) or bool(report.get("passed")) != (n_failed == 0):
            problems.append(f"exit code {rc} disagrees with the report verdict")
        return problems, n_failed
    for name in names:
        rows = _csv(files[name], 5 if w.command == "mc-mean" else 2)
        if rows.shape[0] != w.grid_n or not np.array_equal(rows[:, 0], grid):
            problems.append(f"{name}: time column is not the requested grid")
        if not np.all(np.isfinite(rows)):
            problems.append(f"{name}: non-finite values")
        if w.command == "mc-mean":
            mc_mean, expected, stderr = rows[:, 1], rows[:, 2], rows[:, 4]
            excess = np.abs(mc_mean - expected) > MEAN_Z_MAX * stderr
            if excess.any():
                i = int(np.argmax(excess))
                problems.append(f"{name}: |mc_mean - expected| > {MEAN_Z_MAX} stderr "
                                f"at t={float(rows[i, 0])!r}")
    return problems, 0


def summarize(w: Workload, files: dict[str, bytes]) -> dict:
    """The part of the outputs that is compared with the reference run."""
    if w.command == "validate":
        report = json.loads(files["report.json"])
        return {"checks": [[c["name"], c["statistic"]] for c in report["checks"]]}
    out = {}
    for name in sorted(files):
        if w.command == "mc-mean":
            rows = _csv(files[name], 5)
            out[name] = {"mc_mean": rows[:, 1].tolist(), "stderr": rows[:, 4].tolist()}
        else:
            values = _csv(files[name], 2)[:, 1]
            out[name] = {"sampled": values[::PATH_SAMPLE_STRIDE].tolist(),
                         "sum": float(values.sum()), "abs_sum": float(np.abs(values).sum())}
    return out


def compare_reference(w: Workload, summary: dict, reference: dict) -> list[str]:
    """Differences between a default-seed run and the recorded reference."""
    if reference.get("sizes") != w.sizes():
        return ["reference outputs were recorded for other workload sizes"]
    ref = reference["summary"]
    if w.command == "validate":
        got, want = summary["checks"], ref["checks"]
        if [c[0] for c in got] != [c[0] for c in want]:
            return ["validation checks differ from the reference run"]
        return [f"{g[0]}: statistic {g[1]!r} vs reference {r[1]!r}"
                for g, r in zip(got, want)
                if abs(g[1] - r[1]) > STAT_RTOL * (1.0 + abs(r[1]))]
    if sorted(summary) != sorted(ref):
        return ["output files differ from the reference run"]
    problems = []
    for name, want in ref.items():
        got = summary[name]
        if w.command == "mc-mean":
            se = np.asarray(want["stderr"])
            tol = MEAN_TOL_SE * se + 1e-12
            if np.any(np.abs(np.asarray(got["mc_mean"]) - want["mc_mean"]) > tol):
                problems.append(f"{name}: mc_mean differs from the reference")
            if np.any(np.abs(np.asarray(got["stderr"]) - se) > tol):
                problems.append(f"{name}: stderr differs from the reference")
        else:
            sampled = np.asarray(want["sampled"])
            if np.any(np.abs(np.asarray(got["sampled"]) - sampled) > PATH_RTOL * (1.0 + np.abs(sampled))):
                problems.append(f"{name}: path values differ from the reference")
            tol = PATH_RTOL * (w.grid_n + want["abs_sum"])
            if abs(got["sum"] - want["sum"]) > tol or abs(got["abs_sum"] - want["abs_sum"]) > tol:
                problems.append(f"{name}: path sums differ from the reference")
    return problems


def reference_path(w: Workload) -> Path:
    return REFERENCE_DIR / f"{w.name}.json"


def load_reference(w: Workload) -> dict | None:
    path = reference_path(w)
    return json.loads(path.read_text()) if path.is_file() else None
