"""Span tracing for the benchmark's traced run, from outside the program.

``Tracer.install`` replaces the module attributes that callers look up (for
example ``levykle.cli.sample_coeffs_batch`` or ``levykle.shotnoise.shot_sum``)
and two methods (``MonotoneInverseTable.__call__`` and
``KleBasis.eigenfunction_matrix``) with timing wrappers; ``uninstall`` puts
the originals back. No file of the package changes.

A span records its id, parent id, run id, name, start, end, the thread CPU
time it used and a work count. Spans stay in memory and are reduced to the
per-layer metrics by ``layer_metrics``. Parents follow a per-thread stack;
a span opened in a worker thread with an empty stack gets the root span of
the current invocation (the ``cli.main`` span) as parent.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import threading
import time
from pathlib import Path

import numpy as np

from levykle import basis, cli, shotnoise, special, validation

ROOT_NAME = "cli.main"
BATCH_NAMES = ("shotnoise.sample_coeffs_batch", "shotnoise.sample_coeffs")
TAIL_MIN_BEYOND = 10


def _expected_terms(model, basis_, cfg) -> float:
    """Expected series terms per sample: the stop level of each jump part.

    Arrivals are unit-rate Poisson, so the mean count below the stop level is
    the level itself; for a gamma part it is the paper's 45.47 T c.
    """
    parts = [p for p in (model.pos, model.neg) if p is not None]
    return sum(shotnoise.gamma_stop_level(shotnoise.center(p).tail_pos, basis_.T, cfg) for p in parts)


def _batch_work(args, kwargs, out):
    Z, n_pos, n_neg = out
    n = Z.shape[0]
    return (n, int(n_pos.sum() + n_neg.sum()), n * _expected_terms(args[0], args[1], args[2]))


def _single_work(args, kwargs, out):
    return (1, out.n_terms_pos + out.n_terms_neg, _expected_terms(args[0], args[1], args[2]))


# (owner, attribute, span name, work count from (args, kwargs, result) or None)
PATCHES = [
    (cli, "model_from_config", "models.model_from_config", None),
    (cli, "sample_coeffs_batch", "shotnoise.sample_coeffs_batch", _batch_work),
    (cli, "sample_coeffs", "shotnoise.sample_coeffs", _single_work),
    (cli, "reconstruct", "basis.reconstruct", None),
    (cli, "run_validation", "validation.run_validation", None),
    (validation, "sample_coeffs_batch", "shotnoise.sample_coeffs_batch", _batch_work),
    (validation, "arrival_stream", "shotnoise.arrival_stream", lambda a, k, o: len(o.gammas)),
    (validation, "moment_suite", "validation.moment_suite", None),
    (validation, "cf_suite", "validation.cf_suite", None),
    (validation, "ks_suite", "validation.ks_suite", None),
    (validation, "dependence_suite", "validation.dependence_suite", None),
    (validation, "roundtrip_suite", "validation.roundtrip_suite", None),
    (validation, "coeff_char_exponent", "oracles.coeff_char_exponent", None),
    (validation, "ks_two_sample", "oracles.ks_two_sample", None),
    (validation, "mixed_fourth_cumulant", "oracles.mixed_fourth_cumulant", None),
    (shotnoise, "shot_sum", "shotnoise.shot_sum", lambda a, k, o: len(a[1]) * a[0].d),
    (special.MonotoneInverseTable, "__call__", "special.inverse", lambda a, k, o: int(np.size(a[1]))),
    (basis.KleBasis, "eigenfunction_matrix", "basis.eigenfunction_matrix",
     lambda a, k, o: int(np.size(a[1])) * a[0].d),
]


class Tracer:
    """Collects spans from wrapped entry points; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = ""
        self._root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def wrap(self, name, fn, work=None):
        tracer = self
        is_root = name == ROOT_NAME

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            if is_root:
                tracer._root = sid
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0
                stack.pop()
                if is_root:
                    tracer._root = 0
                count = work(args, kwargs, out) if work is not None and out is not None else 0
                tracer.spans.append((sid, parent, tracer.run_id, name, t0, t1, cpu, count))

        return traced

    def install(self) -> None:
        for owner, attr, name, work in PATCHES:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, work))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "run", "name", "start", "end", "cpu", "work"])
            for sid, parent, run, name, t0, t1, cpu, count in self.spans:
                out.writerow([sid, parent, run, name, repr(t0), repr(t1), repr(cpu),
                              "/".join(map(repr, count)) if isinstance(count, tuple) else count])


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, _, t0, t1, *_ in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, _, _, t0, t1, *_ in spans:
        covered, edge = 0.0, t0
        for c0, c1 in sorted(children.get(sid, [])):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out[sid] = (t1 - t0) - covered
    return out


def tail_percentile(n: int) -> float:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it.

    Falls back to the median when there are fewer than 20 samples.
    """
    return float(max(50, math.floor(100.0 * (n - TAIL_MIN_BEYOND) / n))) if n else 50.0


def layer_metrics(spans) -> dict[str, float]:
    """Reduce the spans of one invocation to the per-layer metrics."""
    selfs = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def dur(group):
        return sum((s[5] - s[4] for s in group), 0.0)

    def self_of(group):
        return sum((selfs[s[0]] for s in group), 0.0)

    def layer(prefix):
        return [s for s in spans if s[3].startswith(prefix + ".")]

    batches = named(*BATCH_NAMES)
    batch_ms = [1e3 * (s[5] - s[4]) for s in batches]
    pct = tail_percentile(len(batch_ms))
    samples = sum(s[7][0] for s in batches)
    terms = sum(s[7][1] for s in batches)
    expected = sum(s[7][2] for s in batches)
    shot = named("shotnoise.shot_sum")
    inverse = named("special.inverse")
    emat = named("basis.eigenfunction_matrix")
    models = named("models.model_from_config")
    return {
        "shotnoise.shot_sum_s": dur(shot),
        "shotnoise.shot_sum_calls": len(shot),
        "shotnoise.cos_evals": sum(s[7] for s in shot),
        "shotnoise.self_s": self_of(batches),
        "shotnoise.batch_s": dur(batches),
        "shotnoise.batch_calls": len(batches),
        "shotnoise.batch_ms_p50": float(np.percentile(batch_ms, 50.0)) if batch_ms else 0.0,
        "shotnoise.batch_ms_ptail": float(np.percentile(batch_ms, pct)) if batch_ms else 0.0,
        "shotnoise.batch_ptail_pct": pct,
        "shotnoise.batch_wait_s": sum((s[5] - s[4]) - s[6] for s in batches),
        "shotnoise.samples": samples,
        "shotnoise.terms": terms,
        "shotnoise.terms_ratio": terms / expected if expected else 0.0,
        "shotnoise.arrival_stream_s": dur(named("shotnoise.arrival_stream")),
        "special.inverse_s": dur(inverse),
        "special.inverse_calls": len(inverse),
        "special.inverse_points": sum(s[7] for s in inverse),
        "models.build_s": dur(models),
        "models.build_calls": len(models),
        "basis.emat_s": dur(emat),
        "basis.emat_calls": len(emat),
        "basis.sin_evals": sum(s[7] for s in emat),
        "basis.reconstruct_s": dur(named("basis.reconstruct")),
        "cli.self_s": self_of(named(ROOT_NAME)),
        "validation.self_s": self_of(layer("validation")),
        "validation.ks_s": dur(named("validation.ks_suite")),
        "oracles.s": self_of(layer("oracles")),
    }


# Counts that depend only on the workload and seed; they must repeat exactly.
EXACT_COUNTS = (
    "shotnoise.cos_evals",
    "shotnoise.shot_sum_calls",
    "shotnoise.batch_calls",
    "shotnoise.samples",
    "shotnoise.terms",
    "special.inverse_calls",
    "special.inverse_points",
    "models.build_calls",
    "basis.emat_calls",
    "basis.sin_evals",
)
