"""End-to-end statistical validation reports across the model zoo."""

import json
import math

import numpy as np
import pytest

from levykle.models import (
    as_split,
    from_density,
    make_brownian,
    make_cp_exponential,
    make_gamma,
    make_variance_gamma,
)
from levykle.shotnoise import ShotConfig
from levykle.validation import _direct_terminal_samples, run_validation


def _failures(report):
    return [c["name"] for c in report["checks"] if not c["passed"]]


class TestRunValidation:
    def test_variance_gamma_report_passes(self):
        report = run_validation(make_variance_gamma(), T=1.0, d=5,
                                n_samples=4000, cfg=ShotConfig(seed=11))
        assert report["passed"], _failures(report)
        names = [c["name"] for c in report["checks"]]
        assert any(n.startswith("moments.") for n in names)
        assert any(n.startswith("cf.") for n in names)
        assert any(n.startswith("ks.") for n in names)
        assert any(n.startswith("dependence.") for n in names)
        assert any(n.startswith("roundtrip.") for n in names)

    def test_brownian_reference_case(self):
        report = run_validation(as_split(make_brownian(1.0)), T=1.0, d=5,
                                n_samples=4000, cfg=ShotConfig(seed=12))
        assert report["passed"], _failures(report)
        null = [c for c in report["checks"] if c["name"] == "dependence.null"]
        assert null and null[0]["detail"].startswith("independent")

    def test_gamma_subordinator_report_passes(self):
        report = run_validation(as_split(make_gamma(1.0, 1.0)), T=1.0, d=8,
                                n_samples=3000, cfg=ShotConfig(seed=13))
        assert report["passed"], _failures(report)

    def test_compound_poisson_atom_handled(self):
        # The terminal law has positive mass on the zero-jump event; the
        # suite must compare that mass separately instead of letting the
        # continuous-law statistic see two nearby point masses.
        report = run_validation(as_split(make_cp_exponential(2.0, 1.0)),
                                T=1.0, d=300, n_samples=2000, cfg=ShotConfig(seed=14))
        assert report["passed"], _failures(report)
        names = [c["name"] for c in report["checks"]]
        assert "ks.atom_mass" in names

    def test_infinite_activity_density_validates(self):
        # from_density has no cutoff scale; the sampler's jump_floor sets
        # the truncation, and the KS direct series must use the same one.
        model = as_split(from_density("s15", lambda x: math.exp(-x) * x**-1.5))
        report = run_validation(model, T=1.0, d=4, n_samples=400,
                                cfg=ShotConfig(seed=1, jump_floor=1e-4))
        assert report["passed"], _failures(report)

    def test_report_is_json_serializable(self):
        report = run_validation(make_variance_gamma(), T=1.0, d=3,
                                n_samples=500, cfg=ShotConfig(seed=15))
        text = json.dumps(report)
        assert json.loads(text)["model"] == report["model"]

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            run_validation(make_variance_gamma(), T=1.0, d=3,
                           n_samples=99, cfg=ShotConfig(seed=0))


class TestDirectTerminalSamples:
    def test_deterministic_and_distinct_parts(self):
        tail = make_gamma(1.0, 1.0).tail_pos
        cfg = ShotConfig(seed=7)
        a = _direct_terminal_samples(tail, 1.0, 100, 7, cfg)
        b = _direct_terminal_samples(tail, 1.0, 100, 7, cfg)
        c = _direct_terminal_samples(tail, 1.0, 100, 8, cfg)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(a >= 0.0)

    def test_mean_tracks_model_rate(self):
        cp = make_cp_exponential(3.0, 1.5)
        vals = _direct_terminal_samples(cp.tail_pos, 2.0, 20000, 7, ShotConfig(seed=9))
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 2.0 * cp.mean_rate) < 4.0 * se
