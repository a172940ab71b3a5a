"""Command-line front end for path simulation, mean studies and validation.

Subcommands: ``simulate-paths``, ``mc-mean``, ``validate``,
``variance-capture``, ``e1-table``. The first three read an experiment
from a JSON config document and from flags, which override its fields;
``_FIELDS`` states each field's type, rule and flag once. All outputs are
deterministic for a fixed config and seed, byte-identical regardless of the
worker count and the BLAS thread count: samples are generated on per-index
derived streams, paths are reconstructed by products of a fixed shape
(``basis.reconstruct``) and aggregated in fixed chunk order with compensated
summation.

Exit codes: 0 on success, 1 when a validation suite fails, 2 on a
configuration error (a bad command line, a negative seed or a dimension
above the basis bound among them), 3 on a resource limit: a series that
needs more terms than ``max_terms`` allows (``TruncationCapError``; raised
before any draw when the truncation level, the expected term count,
already exceeds the cap), or a run whose estimated peak memory exceeds the
machine's physical memory (checked before sampling, see ``_check_memory``).
Every error is one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .basis import _BLOCK, _MAX_DIMENSION, KleBasis, reconstruct, variance_capture
from .models import _CONFIG_KINDS, SplitModel, model_from_config
# ``sample_coeffs`` stays importable from here: the benchmark's tracer wraps
# ``cli.sample_coeffs``, although the commands go through
# ``sample_coeffs_batch``.
from .shotnoise import ShotConfig, TruncationCapError, sample_coeffs, sample_coeffs_batch  # noqa: F401
from .special import build_e1_inverse, default_e1_inverse, exp_integral_e1
from .validation import run_validation

__all__ = ["ConfigError", "ExperimentConfig", "main"]

_CHUNK = 512
# d x d arrays of doubles that ``validation.moment_suite`` holds at its peak
# (measured: 5.2 at d = 1500 with 100 samples, under tracemalloc).
_MOMENT_SQUARES = 6


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


class _MemoryLimit(RuntimeError):
    """A run estimated to need more than the physical memory (maps to exit code 3)."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ``ConfigError``: one error line, exit code 2."""

    def error(self, message):
        raise ConfigError(message)


def _number(value) -> float | None:
    """``value`` as a float if it is a finite int or float, else None; nothing is parsed."""
    finite = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return float(value) if finite else None


def _integer(value) -> int | None:
    """``value`` as an int if it is an integer or an integral float, else None; nothing is parsed or truncated."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    return int(value) if integral and not isinstance(value, bool) else None


def _integers(value) -> tuple | None:
    """``value`` as a tuple of ints if it is a list of ``_integer`` values, else None."""
    ints = tuple(map(_integer, value)) if isinstance(value, (list, tuple)) else (None,)
    return None if None in ints else ints


def _comma_separated(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


# kind -> (its flag's argparse keywords, the load of a JSON or flag value:
# the value in this type, or None if it has another)
_KINDS = {
    "number": ({"type": float}, _number),
    "integer": ({"type": int}, _integer),
    "integers": ({"type": _comma_separated}, _integers),
    "string": ({}, lambda v: v if isinstance(v, str) else None),
    "mapping": ({"choices": tuple(_CONFIG_KINDS)}, lambda v: v if isinstance(v, dict) else None),
}


def _dimension(d: int) -> bool:
    """The rule for one basis dimension, in ``d_list`` and in ``variance-capture``."""
    return 1 <= d <= _MAX_DIMENSION


class _Field(NamedTuple):
    """One config field: its ``_KINDS`` type, its flag, the requirement that
    an error line states, and the rule a value of the type must pass."""

    kind: str
    flag: str
    help: str
    requirement: str
    rule: Callable[[object], bool] = lambda v: True


# The experiment config, one entry per ``ExperimentConfig`` field. The JSON
# document's ``model`` is a mapping; on the command line ``--model`` names
# its kind and ``--model-param`` sets its parameters.
_FIELDS = {
    "model": _Field("mapping", "--model", "model kind", "a mapping with a 'model' kind"),
    "T": _Field("number", "-T", "time horizon", "a positive finite number", lambda v: v > 0.0),
    "d_list": _Field("integers", "--d-list", "comma-separated ascending dimensions, e.g. 5,25,3000",
                     f"a nonempty, strictly ascending list of integers within 1..{_MAX_DIMENSION}",
                     lambda v: bool(v) and all(map(_dimension, v)) and list(v) == sorted(set(v))),
    "n_paths": _Field("integer", "--n-paths", "number of sampled paths", "integral and at least 1", lambda v: v >= 1),
    "grid_n": _Field("integer", "--grid-n", "number of time grid points", "integral and at least 2", lambda v: v >= 2),
    "seed": _Field("integer", "--seed", "root seed", "non-negative and integral", lambda v: v >= 0),
    "mode": _Field("string", "--mode", "summation", "'partial' or 'cesaro'", lambda v: v in ("partial", "cesaro")),
    "gamma_cutoff": _Field("number", "--gamma-cutoff", "series truncation level", "a positive finite number",
                           lambda v: v > 0.0),
    "output_dir": _Field("string", "--output-dir", "directory for the output files", "a string"),
    "prefix": _Field("string", "--prefix", "file name prefix of the outputs", "a string"),
    "workers": _Field("integer", "--workers", "threads; the output does not depend on them", "integral and at least 1",
                      lambda v: v >= 1),
}


def _checked(name: str, value):
    """``value`` in the type of field ``name``; ``ConfigError`` if it has another or breaks the rule."""
    entry = _FIELDS.get(name)
    if entry is None:
        raise ConfigError(f"unknown config field {name!r}")
    typed = _KINDS[entry.kind][1](value)
    if typed is None or not entry.rule(typed):
        raise ConfigError(f"{name} must be {entry.requirement}, got {value!r}")
    return typed


@dataclass
class ExperimentConfig:
    """One experiment manifest. Its JSON document holds any of these fields
    by name; ``_FIELDS`` gives each one's type, rule and flag."""

    model: dict = field(default_factory=lambda: {"model": "variance_gamma"})
    T: float = 1.0
    d_list: tuple = (5,)
    n_paths: int = 1
    grid_n: int = 200
    seed: int = 0
    mode: str = "partial"
    gamma_cutoff: float = 45.47
    output_dir: str = "."
    prefix: str = "levykle"
    workers: int = 1

    def validate(self) -> None:
        """Raise ``ConfigError`` for the first field whose value breaks its ``_FIELDS`` entry."""
        for name in _FIELDS:
            _checked(name, getattr(self, name))

    def build_model(self) -> SplitModel:
        try:
            return model_from_config(self.model)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    def shot_config(self) -> ShotConfig:
        return ShotConfig(seed=self.seed, gamma_cutoff=self.gamma_cutoff)


def _config_from_sources(args: argparse.Namespace) -> ExperimentConfig:
    """The JSON document's config with the flags' values over its fields, each value checked."""
    values = {}
    if args.config is not None:
        try:
            values = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError("config document must be a JSON object")
    values.update((name, getattr(args, name)) for name in _FIELDS if getattr(args, name) is not None)
    if args.model is not None:
        values["model"] = {"model": args.model}
    if args.model_param and args.model is None:
        raise ConfigError(f"model parameters {args.model_param} need --model")
    for item in args.model_param or []:
        try:
            key, raw = item.split("=", 1)
            values["model"][key] = float(raw)
        except ValueError:
            raise ConfigError(f"model parameter {item!r} is not key=number") from None
    return ExperimentConfig(**{name: _checked(name, value) for name, value in values.items()})


def _csv_column(values: np.ndarray) -> list[str]:
    """``repr`` (the shortest round-trip decimal) of every element of a float64 array, in one pass."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _write_csv(path: Path, header: str, columns: list[list[str]]) -> None:
    """One row per element of the ``_csv_column`` formatted columns, in one write."""
    rows = map(",".join, zip(*columns))
    with open(path, "w") as fh:
        fh.write(header + "\n" + "".join(row + "\n" for row in rows))


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _check_memory(d: int, doubles: int, what: str) -> None:
    """Raise ``_MemoryLimit`` when a run's estimated peak exceeds physical memory.

    ``doubles`` estimates the peak in doubles from the allocations that grow
    with d, which ``what`` names; everything else is far smaller at any d
    where these fit.
    """
    need, have = 8 * doubles, _physical_memory()
    if have is not None and need > have:
        raise _MemoryLimit(f"d = {d} needs about {need / 2**30:.3g} GiB for {what}, "
                           f"more than the {have / 2**30:.3g} GiB of physical memory")


def _parallel_in_order(fn, tasks, workers: int):
    """Map ``fn`` over tasks, yielding results in task order regardless of
    scheduling, so downstream aggregation is worker-count independent.

    At most ``workers`` tasks run ahead of the result being consumed, so
    results waiting for a slow consumer (CSV writing) stay bounded.
    """
    if workers <= 1:
        for t in tasks:
            yield fn(t)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        for t in tasks:
            ahead.append(pool.submit(fn, t))
            if len(ahead) > workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _sampled_paths(cfg: ExperimentConfig, model: SplitModel, grid: np.ndarray, mean_rate: float, reduce):
    """``reduce(lo, {d: paths})`` per chunk of paths lo, lo + 1, ..., in chunk order.

    ``paths`` holds one path per row, with the ramp mean_rate * t. A chunk is
    sampled once at the largest d; smaller d reuse the leading coefficients,
    which the samplers guarantee to be bitwise those of a fresh run at that d.
    One eigenfunction matrix, built at the largest d, serves every d and
    chunk. The worker threads sample, reconstruct and reduce; at most
    ``workers + 1`` reduced chunks are held at once.
    """
    # The eigenfunction matrix, grid x 64 ceil(d / 64), and workers + 1
    # chunks of coefficient rows are held at once; the check comes before any.
    d = max(cfg.d_list)
    _check_memory(d, len(grid) * _BLOCK * -(-d // _BLOCK) + (cfg.workers + 1) * min(_CHUNK, cfg.n_paths) * d,
                  "the eigenfunction matrix and the samples held at once")
    shot = cfg.shot_config()
    bases = {d: KleBasis(T=cfg.T, d=d, alpha=model.alpha) for d in cfg.d_list}
    basis_max = bases[max(cfg.d_list)]
    emat = basis_max.eigenfunction_matrix(grid)

    def chunk(lo):
        Z = sample_coeffs_batch(model, basis_max, shot, min(_CHUNK, cfg.n_paths - lo), start_index=lo)[0]
        return reduce(lo, {d: reconstruct(bases[d], Z[:, :d], grid, cfg.mode, mean_rate, emat)
                           for d in cfg.d_list})

    return _parallel_in_order(chunk, range(0, cfg.n_paths, _CHUNK), cfg.workers)


def cmd_simulate_paths(cfg: ExperimentConfig) -> int:
    """Write one ``t,value`` CSV per (dimension, path index), a chunk at a time."""
    model = cfg.build_model()
    grid = np.linspace(0.0, cfg.T, cfg.grid_n)
    grid_text = _csv_column(grid)
    chunks = _sampled_paths(cfg, model, grid, model.mean_rate, lambda lo, paths: (lo, paths))
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for lo, paths in chunks:
        for d, values in paths.items():
            for i, row in enumerate(values, start=lo):
                _write_csv(out / f"{cfg.prefix}_path_d{d}_p{i}.csv", "t,value", [grid_text, _csv_column(row)])
    print(f"wrote {len(cfg.d_list) * cfg.n_paths} path files under {out}")
    return 0


class _KahanAccumulator:
    """Compensated vector sum merged in a fixed order."""

    def __init__(self, size):
        self.total = np.zeros(size)
        self._comp = np.zeros(size)

    def add(self, values: np.ndarray) -> None:
        y = values - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t


def cmd_mc_mean(cfg: ExperimentConfig) -> int:
    """Monte Carlo mean of the reconstructed process on a time grid.

    Writes one ``t,mc_mean,expected,abs_err,stderr`` CSV per dimension with
    expected = mean_rate * t. All dimensions share the same coefficient
    draws (nested in d), so curves for different d differ only by the extra
    terms, not by sampling noise.
    """
    if cfg.n_paths < 2:
        raise ConfigError(f"mc-mean needs at least 2 paths for a standard error, got {cfg.n_paths}")
    model = cfg.build_model()
    grid = np.linspace(0.0, cfg.T, cfg.grid_n)
    n = cfg.n_paths

    # Per d, the sums over paths of S and of S^2, one row each.
    sums = {d: _KahanAccumulator((2, cfg.grid_n)) for d in cfg.d_list}

    def chunk_stats(lo, paths):
        return {d: np.stack((S.sum(axis=0), (S * S).sum(axis=0))) for d, S in paths.items()}

    for stats in _sampled_paths(cfg, model, grid, 0.0, chunk_stats):
        for d, chunk_sums in stats.items():
            sums[d].add(chunk_sums)

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    expected = model.mean_rate * grid
    for d in cfg.d_list:
        # The stochastic part averages to zero; the deterministic ramp is
        # added back after aggregation so expected = mean_rate * t holds for
        # every d.
        total, sq_total = sums[d].total
        mean_part = total / n
        mc_mean = mean_part + expected
        var = np.maximum(sq_total / n - mean_part**2, 0.0)
        stderr = np.sqrt(var / n)
        path = out_dir / f"{cfg.prefix}_mcmean_d{d}.csv"
        _write_csv(path, "t,mc_mean,expected,abs_err,stderr",
                   [_csv_column(c) for c in (grid, mc_mean, expected, np.abs(mc_mean - expected), stderr)])
        print(f"wrote {path}")
    return 0


def cmd_validate(cfg: ExperimentConfig, out_path: str | None) -> int:
    """Run the validation suites and emit the JSON report."""
    if cfg.n_paths < 100:
        raise ConfigError(f"validate needs at least 100 paths, got {cfg.n_paths}")
    model = cfg.build_model()
    # The suites take every sample at once; the moment suite's correlations,
    # second moments and their SE are d x d.
    d = max(cfg.d_list)
    _check_memory(d, cfg.n_paths * d + _MOMENT_SQUARES * d * d,
                  "the samples and the moment suite's d x d matrices")
    report = run_validation(model, T=cfg.T, d=max(cfg.d_list), n_samples=cfg.n_paths,
                            cfg=cfg.shot_config())
    text = json.dumps(report, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: statistic={check['statistic']:.6g} "
              f"tolerance={check['tolerance']:.6g}", file=sys.stderr)
    return 0 if report["passed"] else 1


def cmd_variance_capture(d_list) -> int:
    """Print the captured variance fraction for each dimension."""
    print("d,captured_fraction")
    for d in d_list:
        print(f"{d},{variance_capture(int(d))!r}")
    return 0


def cmd_e1_table(args: argparse.Namespace) -> int:
    """Dump the E1 inverse table to CSV or npz, or load and verify one.

    A domain E1 cannot reach, an unwritable destination and an unreadable or
    malformed table file are configuration errors.
    """
    if args.action == "dump":
        dest = Path(args.path)
        try:
            custom = {key: value for key, value in (
                ("domain_lo", args.lo), ("domain_hi", args.hi), ("n_points", args.points),
                ("spacing_bound", args.spacing_bound)) if value is not None}
            table = build_e1_inverse(**custom) if custom else default_e1_inverse()
            if dest.suffix == ".npz":
                np.savez(dest, x=table.values, e1=table.breakpoints)
            else:
                _write_csv(dest, "x,E1(x)", [_csv_column(table.values), _csv_column(table.breakpoints)])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot dump table to {dest}: {exc}") from exc
        print(f"wrote {len(table.values)} rows to {dest}")
        return 0
    src = Path(args.path)
    try:
        if src.suffix == ".npz":
            with np.load(src) as data:
                xs, ys = np.asarray(data["x"], dtype=float), np.asarray(data["e1"], dtype=float)
        else:
            with warnings.catch_warnings():
                # An empty table is reported below as the one error line.
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(src, delimiter=",", skiprows=1, ndmin=2)
            if rows.shape[0] == 0:
                raise ValueError("the table has no data rows")
            if rows.shape[1] != 2:
                raise ValueError(f"expected the 2 columns x,E1(x), got {rows.shape[1]}")
            xs, ys = rows[:, 0], rows[:, 1]
        step = max(1, len(xs) // 64)
        resid = max(abs(exp_integral_e1(x) - y) / max(y, 1e-300)
                    for x, y in zip(xs[::step], ys[::step]))
        y_min, y_max = ys.min(), ys.max()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load table {src}: {exc}") from exc
    print(f"loaded {len(xs)} rows from {src}; y-range [{y_min:.6g}, {y_max:.6g}]; "
          f"max sampled E1 residual {resid:.3g}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON experiment config; flags override its fields")
    for name, entry in _FIELDS.items():
        p.add_argument(entry.flag, dest=name, help=entry.help, **_KINDS[entry.kind][0])
    p.add_argument("--model-param", action="append", metavar="KEY=VALUE",
                   help="model parameter override, repeatable")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="levykle", description="Simulate truncated Karhunen-Loeve expansions of Levy processes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-paths", help="write t,value CSVs for sampled paths")
    _add_config_flags(p)

    p = sub.add_parser("mc-mean", help="Monte Carlo mean study on a time grid")
    _add_config_flags(p)

    p = sub.add_parser("validate", help="run statistical validation suites")
    _add_config_flags(p)
    p.add_argument("--report", help="write the JSON report here instead of stdout")

    p = sub.add_parser("variance-capture", help="print captured variance per dimension")
    p.add_argument("d_values", nargs="+", type=int, metavar="D")

    p = sub.add_parser("e1-table", help="dump or load the exponential-integral inverse table")
    p.add_argument("action", choices=["dump", "load"])
    p.add_argument("path", help="CSV (x,E1(x)) or .npz file")
    p.add_argument("--points", type=int, help="table size for a custom build (default 200000)")
    p.add_argument("--lo", type=float, help="lower y-domain for a custom build (default 6.226e-22)")
    p.add_argument("--hi", type=float, help="upper y-domain for a custom build (default 45.47)")
    p.add_argument("--spacing-bound", type=float, dest="spacing_bound",
                   help="maximum allowed gap between tabulated E1 values (default 0.00231)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "variance-capture":
            if not all(map(_dimension, args.d_values)):
                raise ConfigError(f"dimensions must be within 1..{_MAX_DIMENSION}, got {args.d_values}")
            return cmd_variance_capture(args.d_values)
        if args.command == "e1-table":
            return cmd_e1_table(args)
        cfg = _config_from_sources(args)
        if args.command == "simulate-paths":
            return cmd_simulate_paths(cfg)
        if args.command == "mc-mean":
            return cmd_mc_mean(cfg)
        return cmd_validate(cfg, args.report)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TruncationCapError, _MemoryLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
