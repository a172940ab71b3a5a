"""Command-line front end for path simulation, mean studies and validation.

Subcommands: ``simulate-paths``, ``mc-mean``, ``validate``,
``variance-capture``, ``e1-table``. Experiments are described by a JSON
config document; individual flags override fields. All outputs are
deterministic for a fixed config and seed, byte-identical regardless of the
worker count: samples are generated on per-index derived streams and
aggregated in fixed chunk order with compensated summation.

Exit codes: 0 on success, 1 when a validation suite fails, 2 on a
configuration error (a negative seed among them), 3 when a series needs
more terms than ``max_terms`` allows (``TruncationCapError``; raised before
any draw when the truncation level, the expected term count, already
exceeds the cap).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# ``reconstruct`` and ``sample_coeffs`` stay importable from here: the
# benchmark's tracer wraps ``cli.reconstruct`` and ``cli.sample_coeffs``,
# although the commands now go through ``_reconstruct`` and
# ``sample_coeffs_batch``.
from .basis import KleBasis, _reconstruct, reconstruct, variance_capture  # noqa: F401
from .models import SplitModel, model_from_config
from .shotnoise import ShotConfig, TruncationCapError, sample_coeffs, sample_coeffs_batch  # noqa: F401
from .special import build_e1_inverse, default_e1_inverse, exp_integral_e1
from .validation import run_validation

__all__ = ["ConfigError", "ExperimentConfig", "main"]

_CHUNK = 512


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@dataclass
class ExperimentConfig:
    """One experiment manifest; see ``from_sources`` for the JSON layout."""

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
        if not isinstance(self.model, dict):
            raise ConfigError(f"model must be a mapping with a 'model' kind, got {self.model!r}")
        if self.T <= 0.0 or not math.isfinite(self.T):
            raise ConfigError(f"T must be a positive real, got {self.T!r}")
        if not self.d_list:
            raise ConfigError("d_list must be nonempty")
        if any(int(d) != d or d < 1 for d in self.d_list):
            raise ConfigError(f"d_list must contain positive integers, got {self.d_list!r}")
        if list(self.d_list) != sorted(set(self.d_list)):
            raise ConfigError(f"d_list must be strictly ascending, got {self.d_list!r}")
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be at least 1, got {self.n_paths!r}")
        if self.grid_n < 2:
            raise ConfigError(f"grid_n must be at least 2, got {self.grid_n!r}")
        if self.mode not in ("partial", "cesaro"):
            raise ConfigError(f"mode must be 'partial' or 'cesaro', got {self.mode!r}")
        if self.gamma_cutoff <= 0.0:
            raise ConfigError(f"gamma_cutoff must be positive, got {self.gamma_cutoff!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers!r}")

    def build_model(self) -> SplitModel:
        try:
            return model_from_config(self.model)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    def shot_config(self) -> ShotConfig:
        return ShotConfig(seed=self.seed, gamma_cutoff=self.gamma_cutoff)


def _config_from_sources(args: argparse.Namespace) -> ExperimentConfig:
    """Build the config from the JSON document, then apply flag overrides."""
    cfg = ExperimentConfig()
    if args.config is not None:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        known = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "d_list" in doc:
            doc["d_list"] = tuple(doc["d_list"])
        cfg = replace(cfg, **doc)
    overrides = {}
    for name in ("T", "n_paths", "grid_n", "seed", "mode", "gamma_cutoff",
                 "output_dir", "prefix", "workers"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "d_list", None) is not None:
        try:
            overrides["d_list"] = tuple(int(part) for part in args.d_list.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad d_list {args.d_list!r}: {exc}") from exc
    params = getattr(args, "model_param", None) or []
    if params and getattr(args, "model", None) is None:
        raise ConfigError(f"model parameters {params} need --model")
    if getattr(args, "model", None) is not None:
        chosen = {"model": args.model}
        for item in params:
            key, _, raw = item.partition("=")
            if not _:
                raise ConfigError(f"model parameter {item!r} is not key=value")
            try:
                chosen[key] = float(raw)
            except ValueError as exc:
                raise ConfigError(f"bad model parameter {item!r}: {exc}") from exc
        overrides["model"] = chosen
    if overrides:
        cfg = replace(cfg, **overrides)
    try:
        cfg = replace(
            cfg,
            T=float(cfg.T), n_paths=int(cfg.n_paths), grid_n=int(cfg.grid_n),
            seed=int(cfg.seed), workers=int(cfg.workers),
            gamma_cutoff=float(cfg.gamma_cutoff), mode=str(cfg.mode),
            output_dir=str(cfg.output_dir), prefix=str(cfg.prefix),
            d_list=tuple(int(d) for d in cfg.d_list),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    cfg.validate()
    return cfg


def _float_csv(value: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(value))


def _csv_column(values: np.ndarray) -> list[str]:
    """``_float_csv`` of every element of a float64 array, formatted in one pass."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _write_csv(path: Path, header: str, columns: list[list[str]]) -> None:
    """One row per element of the ``_csv_column`` formatted columns."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def _chunk_ranges(n: int, chunk: int = _CHUNK):
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


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


def cmd_simulate_paths(cfg: ExperimentConfig) -> int:
    """Write one ``t,value`` CSV per (dimension, path index).

    Each path is sampled once at the largest requested dimension; smaller
    dimensions reuse the leading coefficients, which the samplers guarantee
    to be bitwise identical to a fresh lower-dimensional run with the same
    seed. The eigenfunction matrix is built once per dimension and shared by
    all paths. Paths are sampled a chunk at a time with
    ``sample_coeffs_batch`` on the worker threads, and the main thread
    writes a chunk's files once the chunk is sampled, so at most
    ``workers + 1`` chunks of coefficients are held at once.
    """
    model = cfg.build_model()
    shot = cfg.shot_config()
    d_max = max(cfg.d_list)
    basis_max = KleBasis(T=cfg.T, d=d_max, alpha=model.alpha)
    bases = {d: KleBasis(T=cfg.T, d=d, alpha=model.alpha) for d in cfg.d_list}
    grid = np.linspace(0.0, cfg.T, cfg.grid_n)
    grid_text = _csv_column(grid)
    emats = {d: bases[d].eigenfunction_matrix(grid) for d in cfg.d_list}
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    def chunk_coeffs(bounds):
        lo, hi = bounds
        return lo, sample_coeffs_batch(model, basis_max, shot, hi - lo, start_index=lo)[0]

    written = []
    for lo, Z in _parallel_in_order(chunk_coeffs, _chunk_ranges(cfg.n_paths), cfg.workers):
        for i, z in enumerate(Z, start=lo):
            for d in cfg.d_list:
                approx = _reconstruct(bases[d], z[:d], grid, cfg.mode, model.mean_rate, emats[d])
                path = out / f"{cfg.prefix}_path_d{d}_p{i}.csv"
                _write_csv(path, "t,value", [grid_text, _csv_column(approx.values)])
                written.append(path)
    print(f"wrote {len(written)} path files under {out}")
    return 0


class _KahanAccumulator:
    """Compensated vector sum merged in a fixed order."""

    def __init__(self, size: int):
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
    shot = cfg.shot_config()
    d_max = max(cfg.d_list)
    basis_max = KleBasis(T=cfg.T, d=d_max, alpha=model.alpha)
    grid = np.linspace(0.0, cfg.T, cfg.grid_n)
    emat = basis_max.eigenfunction_matrix(grid)
    n = cfg.n_paths

    sums = {d: _KahanAccumulator(cfg.grid_n) for d in cfg.d_list}
    sqsums = {d: _KahanAccumulator(cfg.grid_n) for d in cfg.d_list}

    def chunk_stats(bounds):
        lo, hi = bounds
        Z, _, _ = sample_coeffs_batch(model, basis_max, shot, hi - lo, start_index=lo)
        out = {}
        for d in cfg.d_list:
            if cfg.mode == "cesaro":
                weights = 1.0 - np.arange(d) / d
                S = (Z[:, :d] * weights) @ emat[:, :d].T
            else:
                S = Z[:, :d] @ emat[:, :d].T
            out[d] = (S.sum(axis=0), (S * S).sum(axis=0))
        return out

    for stats in _parallel_in_order(chunk_stats, _chunk_ranges(n), cfg.workers):
        for d, (s, s2) in stats.items():
            sums[d].add(s)
            sqsums[d].add(s2)

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    expected = model.mean_rate * grid
    for d in cfg.d_list:
        # The stochastic part averages to zero; the deterministic ramp is
        # added back after aggregation so expected = mean_rate * t holds for
        # every d.
        mean_part = sums[d].total / n
        mc_mean = mean_part + expected
        var = np.maximum(sqsums[d].total / n - mean_part**2, 0.0)
        stderr = np.sqrt(var / n)
        path = out_dir / f"{cfg.prefix}_mcmean_d{d}.csv"
        _write_csv(path, "t,mc_mean,expected,abs_err,stderr",
                   [_csv_column(c) for c in (grid, mc_mean, expected, np.abs(mc_mean - expected), stderr)])
        print(f"wrote {path}")
    return 0


def cmd_validate(cfg: ExperimentConfig, out_path: str | None) -> int:
    """Run the validation suites and emit the JSON report."""
    model = cfg.build_model()
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
        print(f"{d},{_float_csv(variance_capture(int(d)))}")
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
                with open(dest, "w") as fh:
                    fh.write("x,E1(x)\n")
                    for x, y in zip(table.values, table.breakpoints):
                        fh.write(f"{_float_csv(x)},{_float_csv(y)}\n")
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
    p.add_argument("--model", choices=["brownian", "gamma", "cp_exponential", "variance_gamma"])
    p.add_argument("--model-param", action="append", metavar="KEY=VALUE",
                   help="model parameter override, repeatable")
    p.add_argument("-T", type=float, dest="T", help="time horizon")
    p.add_argument("--d-list", help="comma-separated ascending dimensions, e.g. 5,25,3000")
    p.add_argument("--n-paths", type=int, dest="n_paths")
    p.add_argument("--grid-n", type=int, dest="grid_n")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["partial", "cesaro"])
    p.add_argument("--gamma-cutoff", type=float, dest="gamma_cutoff")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--prefix")
    p.add_argument("--workers", type=int,
                   help="thread count (default 1); output is identical for any value")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levykle",
        description="Simulate truncated Karhunen-Loeve expansions of Levy processes",
    )
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
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "variance-capture":
            if any(d < 1 for d in args.d_values):
                raise ConfigError("dimensions must be positive")
            return cmd_variance_capture(args.d_values)
        if args.command == "e1-table":
            return cmd_e1_table(args)
        cfg = _config_from_sources(args)
        if args.command == "simulate-paths":
            return cmd_simulate_paths(cfg)
        if args.command == "mc-mean":
            return cmd_mc_mean(cfg)
        if args.command == "validate":
            return cmd_validate(cfg, args.report)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TruncationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
