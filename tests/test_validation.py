"""End-to-end statistical validation reports across the model zoo."""

import json
import math

import numpy as np
import pytest

from levykle.basis import KleBasis
from levykle.models import (
    as_split,
    from_density,
    make_brownian,
    make_cp_exponential,
    make_gamma,
    make_variance_gamma,
)
from levykle.oracles import direct_series_subordinator
from levykle.shotnoise import ShotConfig, sample_coeffs_batch
from levykle.special import E1_SERIES_FROM
from levykle.validation import _roundtrip_tail, dependence_suite, moment_suite, run_validation


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
        a = direct_series_subordinator(tail, 1.0, 1.0, 100, 7, cfg)
        b = direct_series_subordinator(tail, 1.0, 1.0, 100, 7, cfg)
        c = direct_series_subordinator(tail, 1.0, 1.0, 100, 8, cfg)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(a >= 0.0)

    def test_mean_tracks_model_rate(self):
        cp = make_cp_exponential(3.0, 1.5)
        vals = direct_series_subordinator(cp.tail_pos, 2.0, 2.0, 20000, 7, ShotConfig(seed=9))
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 2.0 * cp.mean_rate) < 4.0 * se


class TestMomentSuite:
    """Each moment check gates the largest of its m statistics at the z with
    m P(|N(0, 1)| > z) = 1e-3, at least 4 SE."""

    @staticmethod
    def _brownian(d, n, seed):
        model = as_split(make_brownian(1.0))
        basis = KleBasis(T=1.0, d=d, alpha=model.alpha)
        return model, basis, sample_coeffs_batch(model, basis, ShotConfig(seed=seed), n)[0]

    def test_brownian_d300_passes_for_20_seeds(self):
        # Exactly independent coefficients: at a fixed 4 SE the largest of
        # the 44850 correlations failed seeds 1, 2 and 3 (4.29, 4.25, 4.27).
        for seed in range(1, 21):
            model, basis, Z = self._brownian(300, 2000, seed)
            checks = moment_suite(model, basis, Z)
            assert all(c["passed"] for c in checks), (seed, [(c["name"], c["statistic"]) for c in checks])
        tolerances = {c["name"]: c["tolerance"] for c in checks}
        assert tolerances["moments.mean_zero"] == tolerances["moments.variance_eigenvalue"] == pytest.approx(4.649, abs=1e-3)
        assert tolerances["moments.uncorrelated"] == pytest.approx(5.593, abs=1e-3)
        assert "m=44850" in checks[2]["detail"] and "alpha=0.001" in checks[2]["detail"]

    def test_small_families_keep_the_4_se_floor(self):
        model, basis, Z = self._brownian(3, 500, 1)
        assert [c["tolerance"] for c in moment_suite(model, basis, Z)] == [4.0, 4.0, 4.0]

    def test_rejects_one_eigenvalue_scaled_by_5_percent(self):
        # 40000 samples put a 5% variance error at about 7 SE.
        model, basis, Z = self._brownian(5, 40000, 2)
        assert all(c["passed"] for c in moment_suite(model, basis, Z))
        Z[:, 2] *= math.sqrt(1.05)
        checks = {c["name"]: c for c in moment_suite(model, basis, Z)}
        assert not checks["moments.variance_eigenvalue"]["passed"]

    def test_rejects_an_injected_correlation(self):
        # A correlation of 0.2 between Z_1 and Z_2 sits at about 9 SE at
        # N = 2000, above the 5.59 of d = 300.
        model, basis, Z = self._brownian(300, 2000, 3)
        lam = basis.eigenvalues()
        Z[:, 1] = 0.98 * Z[:, 1] + 0.2 * Z[:, 0] * math.sqrt(lam[1] / lam[0])
        checks = {c["name"]: c for c in moment_suite(model, basis, Z)}
        assert not checks["moments.uncorrelated"]["passed"]


class TestDependenceSuite:
    def test_positivity_underpowered_near_the_gate(self):
        # gamma(c=20, rho=1), N = 5000, seed 7: the oracle 2.19 sits at 5.7
        # SE, where a correct sampler misses the 4 SE gate about 4.5% of the
        # time; this seed reads cov / SE = 2.73 while the covariance agrees
        # with the oracle within 1.2 SE. The gate applies from 6.33 SE on.
        model = as_split(make_gamma(20.0, 1.0))
        basis = KleBasis(T=1.0, d=2, alpha=model.alpha)
        Z, _, _ = sample_coeffs_batch(model, basis, ShotConfig(seed=7), 5000)
        checks = {c["name"]: c for c in dependence_suite(model, basis, Z)}
        assert checks["dependence.squared_covariance"]["passed"]
        positive = checks["dependence.positive"]
        assert positive["statistic"] == pytest.approx(2.734, abs=1e-3)
        assert positive["passed"] and positive["detail"].startswith("underpowered")

    def test_positivity_gate_rejects_independent_coefficients(self):
        # Independent Gaussian coefficients with VG's variances: the oracle
        # is far above 6.33 SE, so positivity is gated, and it fails.
        vg = make_variance_gamma()
        basis = KleBasis(T=1.0, d=2, alpha=vg.alpha)
        Z = np.random.default_rng(0).normal(size=(20000, 2)) * np.sqrt(basis.eigenvalues())
        checks = {c["name"]: c for c in dependence_suite(vg, basis, Z)}
        assert not checks["dependence.squared_covariance"]["passed"]
        assert not checks["dependence.positive"]["passed"]


def _roundtrip_one_at_a_time(tail):
    """The roundtrip statistic with one scalar call per probe: the reference
    for the three array calls of ``_roundtrip_tail``."""
    worst, n_valid = 0.0, 0
    for x in np.logspace(-15.0, 3.0, 181):
        y = float(tail.g(x))
        if not (0.0 < y < tail.g0 * (1.0 - 1e-12) if math.isfinite(tail.g0) else 0.0 < y):
            continue
        xr = float(tail.g_inv(y))
        if xr <= 0.0:
            continue
        if abs(float(tail.g(xr)) - y) > 1e-6 * y:
            continue
        n_valid += 1
        worst = max(worst, abs(xr - x) / max(1.0, x))
    return worst, n_valid


class TestRoundtripSuite:
    @pytest.mark.parametrize("make", [
        lambda: make_gamma(1.0, 1.0),
        lambda: make_gamma(10.0, 2.0),
        lambda: make_cp_exponential(3.0, 1.5),
        lambda: from_density("s15", lambda x: math.exp(-x) * x**-1.5),
        lambda: from_density("exp2", lambda x: 2.0 * math.exp(-x)),
    ])
    def test_array_calls_match_one_at_a_time(self, make):
        tail = make().tail_pos
        check = _roundtrip_tail("pos", tail)
        worst, n_valid = _roundtrip_one_at_a_time(tail)
        assert check["statistic"] == worst
        assert check["detail"] == f"{n_valid} probe points inside the invertible range"
        assert check["passed"]

    def test_gamma_probes_reach_both_e1_branches(self):
        # g(x) = E1(x) for gamma(1, 1): probes x <= 1.16e-9 invert by the
        # closed form (y >= 20), the rest by the table; 167 of the 181 count,
        # those above x = 45 falling below the table's domain.
        tail = make_gamma(1.0, 1.0).tail_pos
        xs = np.logspace(-15.0, 3.0, 181)
        ys = tail.g(xs)
        series = ys >= E1_SERIES_FROM
        assert np.array_equal(series, xs <= 1.16e-9)
        assert 0 < np.count_nonzero(series) < np.count_nonzero(ys > 0.0)
        assert _roundtrip_tail("pos", tail)["detail"].startswith("167 ")
