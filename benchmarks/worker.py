"""Child process of the benchmark: set up, then run one workload's commands.

``run.py`` starts this script in a fresh interpreter with the BLAS thread
count pinned to 1. It imports numpy, scipy and levykle from the checkout's
``src``, builds the workload's model (which builds the E1 inverse table) and
its widest basis, and prints ``ready``; that is the end of set-up. With
``--setup-only`` it stops there. Otherwise it runs the workload as a closed
loop, one ``levykle.cli.main`` invocation at a time, and prints one JSON
line with what it measured.

Both kinds of run begin with an untimed invocation at the default seed,
compared with the recorded reference outputs (see ``check_reference``).

Untimed run (``--trace 0``): one ``--workers 1`` invocation that is checked
in full and serves as warm-up, then invocations at the workload's worker
count for ``--seconds`` seconds, each compared byte for byte with the first.

Traced run (``--trace 1``): a fixed sequence, so counts repeat exactly:
untraced warm-up, untraced workers 1, untraced workers N, traced workers N
(per-layer metrics, overhead against the untraced workers N) and traced
workers 1 (self times along the blocking path, which is every span when
one thread does all the work).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import levykle  # noqa: E402
from levykle import KleBasis, cli, default_e1_inverse, model_from_config  # noqa: E402

from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, T, Workload, check_outputs, compare_reference, load_reference, summarize,
)


def set_up(w: Workload) -> None:
    if Path(levykle.__file__).resolve().parent != SRC / "levykle":
        raise SystemExit(f"levykle imported from {levykle.__file__}, not from {SRC}")
    model = model_from_config(dict(w.model))
    default_e1_inverse()
    KleBasis(T=T, d=max(w.d_list), alpha=model.alpha)


@dataclass
class Invocation:
    """One command invocation: exit code, wall time, output bytes, crash message."""

    rc: object
    wall: float
    files: dict
    error: str


def invoke(w: Workload, seed: int, workers: int, op_dir: Path, main=None) -> Invocation:
    main = main or cli.main
    out_dir = op_dir / "out"
    out_dir.mkdir(parents=True)
    config_path = op_dir / "config.json"
    config_path.write_text(json.dumps(w.config(seed, workers, out_dir)))
    captured = io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = main(w.argv(config_path, out_dir))
    except SystemExit as exc:  # argparse rejects arguments by exiting
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    shutil.rmtree(op_dir)
    return Invocation(rc, wall, files, error)


class Checker:
    """Checks each invocation; the first one in full, later ones against it."""

    def __init__(self, w: Workload, seed: int):
        self.w, self.seed = w, seed
        self.base: Invocation | None = None
        self.attempted = self.failed = 0
        self.checks_failed = 0

    def __call__(self, op: Invocation, label: str) -> bool:
        self.attempted += 1
        if op.error:
            problems = [op.error]
        elif self.base is None:
            try:
                problems, self.checks_failed = check_outputs(self.w, op.rc, op.files)
                if not problems and self.seed == DEFAULT_SEED:
                    reference = load_reference(self.w)
                    problems = (["no reference outputs recorded"] if reference is None else
                                compare_reference(self.w, summarize(self.w, op.files), reference))
            except (ValueError, KeyError, TypeError) as exc:  # malformed output files
                problems = [f"unreadable outputs: {exc}"]
            if not problems:
                self.base = op
        elif op.rc != self.base.rc or op.files != self.base.files:
            problems = ["output bytes differ from the first (--workers 1) invocation"]
        else:
            problems = []
        for p in problems:
            print(f"check failed [{self.w.name} seed {self.seed} {label}]: {p}", file=sys.stderr)
        self.failed += bool(problems)
        return not problems


def check_reference(w: Workload, check: Checker, work: Path) -> None:
    """Invoke the workload at ``DEFAULT_SEED`` and compare it with ``reference/``.

    Other seeds can only be checked for seed-independent invariants, so every
    run makes this one untimed invocation too and counts it in ``check``.
    """
    if check.seed == DEFAULT_SEED:
        return  # the run's own first invocation is compared with the reference
    ref = Checker(w, DEFAULT_SEED)
    ref(invoke(w, DEFAULT_SEED, w.workers, work / "reference"), "reference")
    check.attempted += ref.attempted
    check.failed += ref.failed


def environment(seed: int, workers: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
    except OSError:
        lines = []
    # A checkout that is not a git repository (or sits inside another one)
    # has no SHA of its own; the source digest identifies the code either way.
    sha = lines[1] if len(lines) == 2 and Path(lines[0]).resolve() == ROOT else None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "workers": workers,
    }


def run_timed(w: Workload, seed: int, seconds: float, work: Path) -> dict:
    check = Checker(w, seed)
    check_reference(w, check, work)
    check(invoke(w, seed, 1, work / "op0"), "workers 1")
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        op = invoke(w, seed, w.workers, work / f"op{len(walls) + 1}")
        check(op, f"workers {w.workers}")
        walls.append(op.wall)
        if time.perf_counter() >= deadline:
            break
    return {
        "attempted": check.attempted,
        "failed": check.failed,
        "walls": walls,
        "samples": w.n_paths,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(w: Workload, seed: int, work: Path) -> dict:
    import tracing

    check = Checker(w, seed)
    check_reference(w, check, work)
    for label, workers in (("warm-up", 1), ("untraced workers 1", 1)):
        op = invoke(w, seed, workers, work / label.replace(" ", "-"))
        check(op, label)
    wall_1 = op.wall
    op = invoke(w, seed, w.workers, work / "untraced-n")
    check(op, f"untraced workers {w.workers}")
    wall_n = op.wall

    tracer = tracing.Tracer()
    traced_main = tracer.wrap(tracing.ROOT_NAME, cli.main)
    ops, passed = {}, {}
    tracer.install()
    try:
        for run_id, workers in (("traced-n", w.workers), ("traced-1", 1)):
            tracer.run_id = run_id
            ops[run_id] = invoke(w, seed, workers, work / run_id, main=traced_main)
            passed[run_id] = check(ops[run_id], run_id)
    finally:
        tracer.uninstall()
    tracer.write(work.parent / f"spans-{w.name}-seed{seed}.csv")

    spans_n = [s for s in tracer.spans if s[2] == "traced-n"]
    spans_1 = [s for s in tracer.spans if s[2] == "traced-1"]
    metrics = tracing.layer_metrics(spans_n)
    metrics_1 = tracing.layer_metrics(spans_1)
    differing = [name for name in tracing.EXACT_COUNTS if metrics[name] != metrics_1[name]]
    if differing:
        print(f"check failed [{w.name}]: {differing} differ between worker counts", file=sys.stderr)
        check.failed += passed["traced-1"]
    base_files = check.base.files if check.base is not None else {}
    metrics.update({
        "cli.bytes_written": sum(len(b) for b in base_files.values()),
        "cli.files_written": len(base_files),
        "cli.thread_speedup": wall_1 / wall_n,
        "validation.checks_failed": check.checks_failed,
        "trace.wall_s": ops["traced-1"].wall,
        "trace.self_sum_s": sum(tracing.self_times(spans_1).values()),
        "trace.overhead_s": ops["traced-n"].wall - wall_n,
    })
    return {"attempted": check.attempted, "failed": check.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    set_up(w)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    work = args.work_dir / f"{w.name}-{os.getpid()}"
    try:
        if args.trace:
            result = run_traced(w, args.seed, work)
        else:
            result = run_timed(w, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["env"] = environment(args.seed, w.workers)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
