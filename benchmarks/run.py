"""Levykle benchmark: one workload, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the package is imported
from the checkout's ``src``. ``--trace 0`` measures set-up in several fresh
processes, then runs the workload for ``--seconds`` seconds in one more and
reports the end-to-end metrics. ``--trace 1`` runs a fixed, separately
traced sequence and reports the per-layer metrics (see ``worker.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, named and with units
as in ``BENCHMARK.json`` at the checkout root; the line before it
records the environment. Both also go to ``.bench_out/`` in the checkout,
with the span log of a traced run. Workloads, metrics and findings are
described in ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0
# Child processes run BLAS single-threaded, so the CLI's own --workers
# threads are the only parallelism and do not oversubscribe the cores.
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class ChildError(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> tuple[float, str]:
    """Start the worker; return seconds until it printed ``ready`` and its last line."""
    env = dict(os.environ, **BLAS_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or rc != 0:
        raise ChildError(f"worker {' '.join(args[:2])} exited with {rc} (ready line {ready.strip()!r})")
    return ready_s, rest[-1] if rest else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one levykle benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "levykle" / "__init__.py").is_file():
        print(f"error: no levykle source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("error: --seconds must lie in (0, 60]", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--work-dir", str(OUT)]
    try:
        setup_s = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                setup_s.append(run_child(base + ["--setup-only"], deadline)[0])
        ready_s, line = run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                                  deadline)
        setup_s.append(ready_s)
        child = json.loads(line)
    except (ChildError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = child["metrics"]
    else:
        wall = statistics.median(child["walls"])
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "samples_per_s": child["samples"] / wall,
            "peak_rss_mb": child["peak_rss_mb"],
            "ok_frac": (child["attempted"] - child["failed"]) / child["attempted"],
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": child["env"], "setup_runs_s": setup_s, "walls_s": child.get("walls"), **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(child["env"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
