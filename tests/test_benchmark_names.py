"""The names the benchmark reads from the package still resolve.

The benchmark's tracer (``benchmarks/tracing.py``) replaces package
attributes by name, some of which no package code calls, and its worker
(``benchmarks/worker.py``) sets each workload up through
``model_from_config``, ``default_e1_inverse`` and ``KleBasis``. A renamed or
deleted name would otherwise show only when the benchmark runs. The
benchmark files are read and imported as they are, never changed.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import levykle
from levykle import KleBasis, default_e1_inverse, model_from_config
from levykle.shotnoise import ShotConfig

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name: str):
    """Import ``benchmarks/<name>.py`` under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while they are built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_tracer_patch_targets_resolve(tracing):
    for owner, attr, _, _ in tracing.PATCHES:
        target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(target), f"{owner.__name__}.{attr}"


def test_tracer_expected_terms(tracing):
    # Reads SplitModel.pos/.neg, shotnoise.center and shotnoise.gamma_stop_level:
    # 45.47 T c per gamma part.
    model = model_from_config({"model": "variance_gamma"})
    basis = KleBasis(T=1.0, d=5, alpha=model.alpha)
    assert tracing._expected_terms(model, basis, ShotConfig(seed=0)) == pytest.approx(2 * 45.47, rel=1e-15)


def test_worker_imports_resolve():
    tree = ast.parse((BENCH / "worker.py").read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "levykle" for alias in node.names]
    assert {"KleBasis", "default_e1_inverse", "model_from_config"} <= set(names)
    for name in names:
        assert hasattr(levykle, name), name


def test_worker_set_up_accepts_every_workload():
    workloads = _load("workloads")
    for w in workloads.WORKLOADS.values():
        # As the worker's set_up calls them.
        model = model_from_config(dict(w.model))
        default_e1_inverse()
        assert KleBasis(T=workloads.T, d=max(w.d_list), alpha=model.alpha).d == max(w.d_list)
