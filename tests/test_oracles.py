"""Independent reference computations used to validate the samplers.

Each oracle is checked against closed forms or frozen constants before it
is trusted to judge anything else.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from levykle import cli
from levykle.basis import KleBasis
from levykle.models import (
    as_split,
    center,
    from_density,
    make_brownian,
    make_cp_exponential,
    make_gamma,
    make_variance_gamma,
)
from levykle.oracles import (
    brute_force_coeffs,
    coeff_char_exponent,
    direct_series_subordinator,
    ks_two_sample,
    mixed_fourth_cumulant,
)
from levykle.shotnoise import (
    _CHUNK,
    PART_POS,
    ShotConfig,
    TruncationCapError,
    arrival_stream,
    arrival_streams,
    gamma_stop_level,
    sample_coeffs,
)
from levykle.special import default_e1_inverse, quad

# lambda_1 / 2 for unit-variance Brownian coefficients on [0, 1]
BM_EXPONENT_E1 = 0.20264236728467554
# variance gamma (1,1,1,2) exponent of Z at z = 0.5 * ones(5), T = 1
VG_EXPONENT_HALF = 0.065415325591087652 + 0.015955668304500445j
# integral of (x f_1)^2 (x f_2)^2 against the two-sided VG density
VG_MIXED_K12 = 0.11634779888642247


class TestCoeffCharExponent:
    def test_zero_argument_is_zero(self, vg):
        basis = KleBasis(T=1.0, d=3, alpha=vg.alpha)
        assert coeff_char_exponent(vg, basis, np.zeros(3)) == 0.0

    def test_brownian_unit_vector_closed_form(self):
        bm = make_brownian(1.0)
        basis = KleBasis(T=1.0, d=4, alpha=1.0)
        z = np.array([1.0, 0.0, 0.0, 0.0])
        val = coeff_char_exponent(as_split(bm), basis, z)
        assert val.imag == pytest.approx(0.0, abs=1e-14)
        assert val.real == pytest.approx(BM_EXPONENT_E1, rel=1e-10)

    def test_conjugate_symmetry(self, vg):
        basis = KleBasis(T=1.0, d=3, alpha=vg.alpha)
        z = np.array([0.4, -0.2, 0.7])
        a = coeff_char_exponent(vg, basis, z)
        b = coeff_char_exponent(vg, basis, -z)
        assert a == pytest.approx(np.conj(b), rel=1e-12)

    def test_variance_gamma_frozen_value(self, vg):
        basis = KleBasis(T=1.0, d=5, alpha=vg.alpha)
        val = coeff_char_exponent(vg, basis, 0.5 * np.ones(5))
        assert val == pytest.approx(VG_EXPONENT_HALF, rel=1e-9)

    def test_dimension_mismatch_rejected(self, vg):
        basis = KleBasis(T=1.0, d=3, alpha=vg.alpha)
        for bad in (np.zeros(4), np.zeros((2, 4)), np.zeros((2, 2, 3)), 0.0):
            with pytest.raises(ValueError):
                coeff_char_exponent(vg, basis, bad)

    @pytest.mark.parametrize("name", ["vg", "gamma", "cp", "brownian", "density"])
    def test_stacked_points_match_one_at_a_time(self, vg, name):
        # One vector quadrature stops on the 2-norm of all the exponents, so
        # each row agrees with its own quadrature to the tolerance's scale.
        model = {
            "vg": vg,
            "gamma": as_split(make_gamma(10.0, 1.0)),
            "cp": as_split(make_cp_exponential(rate=3.0, rho=1.5)),
            "brownian": as_split(make_brownian(1.0)),
            "density": as_split(from_density("stable-like", lambda x: math.exp(-x) * x**-1.5)),
        }[name]
        basis = KleBasis(T=1.0, d=3, alpha=model.alpha)
        grid = np.array([[0.5, -0.5, 0.0], [0.0, 0.0, 0.0], [-0.5, 0.0, 0.5], [0.5, 0.5, 0.5]])
        stacked = coeff_char_exponent(model, basis, grid)
        rows = np.array([coeff_char_exponent(model, basis, z) for z in grid])
        assert stacked.shape == (4,) and stacked.dtype == complex
        assert stacked[1] == 0.0
        assert np.max(np.abs(stacked - rows)) <= 1e-12 * np.max(np.abs(rows))


class TestEmpiricalCf:
    def test_matches_exponent_for_gaussian_coeffs(self):
        # The empirical characteristic function as criterion 3 and cf_suite
        # compute it, on exact Gaussian coefficient draws.
        bm = make_brownian(1.0)
        basis = KleBasis(T=1.0, d=3, alpha=1.0)
        rng = np.random.default_rng(4)
        Z = rng.normal(size=(200000, 3)) * np.sqrt(basis.eigenvalues())
        z = np.array([0.8, -0.5, 0.3])
        target = np.exp(-coeff_char_exponent(as_split(bm), basis, z))
        assert abs(np.exp(1j * (Z @ z)).mean() - target) < 4.0 / math.sqrt(200000)


class TestDirectSeries:
    def test_zero_time_is_zero(self):
        g = make_gamma(1.0, 1.0)
        vals = direct_series_subordinator(g.tail_pos, 1.0, 0.0, 50, 7, ShotConfig(seed=3))
        assert vals.shape == (50,)
        assert np.array_equal(vals, np.zeros(50))

    def test_nondecreasing_in_time(self):
        # Each value is the sum of its own draw's sizes, masked to the jumps
        # before t, and rounding is monotone, so a draw is nondecreasing in
        # t exactly, in a batch as alone.
        tail = make_gamma(1.0, 1.0).tail_pos
        cfg = ShotConfig(seed=3)
        ts = np.linspace(0.0, 1.0, 21)
        one = direct_series_subordinator(tail, 1.0, ts, 1, 7, cfg)
        vals = direct_series_subordinator(tail, 1.0, ts, 50, 7, cfg)
        assert vals.shape == (50, 21)
        assert np.array_equal(vals[0], one[0])
        assert np.all(np.diff(vals, axis=1) >= 0.0)
        assert np.array_equal(vals[:, -1], direct_series_subordinator(tail, 1.0, 1.0, 50, 7, cfg))

    def test_terminal_mean_matches_model(self):
        # Finite activity: every jump is retained, so E[X_t] = t * mean_rate
        # exactly, at each time of the grid.
        cp = make_cp_exponential(rate=3.0, rho=1.5)
        T = 2.0
        ts = np.array([0.3, 1.0, 1.7, T])
        vals = direct_series_subordinator(cp.tail_pos, T, ts, 20000, 7, ShotConfig(seed=9))
        se = vals.std(axis=0, ddof=1) / math.sqrt(len(vals))
        assert np.all(np.abs(vals.mean(axis=0) - ts * cp.mean_rate) < 4.0 * se)

    def test_short_stream_raises(self):
        # Gamma(1,1) keeps about 45 terms per stream, far above a cap of 8.
        g = make_gamma(1.0, 1.0)
        with pytest.raises(TruncationCapError):
            direct_series_subordinator(g.tail_pos, 1.0, 1.0, 4, 7, ShotConfig(seed=3, max_terms=8))

    def test_terminal_value_is_sum_of_retained_jumps(self):
        # At t = T every jump counts, at t < T the jumps before it: per draw,
        # the sum of the inverted arrival levels between its stream offsets,
        # over its own jumps alone. The second chunk of 700 draws equals the
        # sums drawn from its streams alone, bitwise, so no draw depends on
        # the draws before it.
        tail = make_gamma(1.0, 1.0).tail_pos
        cfg = ShotConfig(seed=7)
        ts = np.array([0.4, 1.0])
        gammas, uniforms, offsets = arrival_streams(cfg.seed, range(_CHUNK, 700), (8,),
                                                    gamma_stop_level(tail, 1.0, cfg), cfg.max_terms)
        assert np.all(np.diff(offsets) > 0)
        sizes = tail.g_inv(gammas / 1.0)
        want = np.stack([np.add.reduceat(np.where(uniforms < t, sizes, 0.0), offsets[:-1]) for t in ts], axis=1)
        assert np.array_equal(direct_series_subordinator(tail, 1.0, ts, 700, 8, cfg)[_CHUNK:], want)

    def test_draws_without_jumps_are_zero(self):
        # rate 0.05 over T = 1 leaves about 95% of the streams empty, the
        # last one included; np.add.reduceat would give an empty draw the
        # first jump of the next one, or fail past the end.
        cp = make_cp_exponential(rate=0.05, rho=1.5)
        cfg = ShotConfig(seed=9)
        ts = np.array([0.5, 1.0])
        vals = direct_series_subordinator(cp.tail_pos, 1.0, ts, 700, 7, cfg)
        offsets = arrival_streams(cfg.seed, range(700), (7,), gamma_stop_level(cp.tail_pos, 1.0, cfg))[2]
        empty = np.diff(offsets) == 0
        assert empty[-1] and empty[_CHUNK - 1] and 0 < np.count_nonzero(~empty) < 100
        assert np.array_equal(vals[empty], np.zeros((np.count_nonzero(empty), 2)))
        assert np.all(vals[~empty, -1] > 0.0)

    def test_holds_one_chunk_of_streams(self):
        # 2000 draws of gamma(20), stop level 909.4: the streams are drawn
        # and inverted a chunk at a time, so the peak stays within the CLI's
        # estimate for one chunk's streams (154.5 MiB when all 2000 were
        # drawn at once, 10.9 times this bound).
        tail = make_gamma(20.0, 1.0).tail_pos
        cfg = ShotConfig(seed=7)
        default_e1_inverse()
        tracemalloc.start()
        try:
            direct_series_subordinator(tail, 1.0, 1.0, 2000, 7, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli._STREAM_ARRAYS * 8 * _CHUNK * gamma_stop_level(tail, 1.0, cfg)

    def test_distinct_part_labels_are_distinct_draws(self):
        tail = make_gamma(1.0, 1.0).tail_pos
        cfg = ShotConfig(seed=7)
        a = direct_series_subordinator(tail, 1.0, 0.5, 100, 7, cfg)
        assert np.array_equal(a, direct_series_subordinator(tail, 1.0, 0.5, 100, 7, cfg))
        assert not np.any(a == direct_series_subordinator(tail, 1.0, 0.5, 100, 8, cfg))


class TestBruteForce:
    def setup_method(self):
        self.cp = center(make_cp_exponential(rate=3.0, rho=1.5))
        self.basis = KleBasis(T=1.0, d=6, alpha=self.cp.alpha)

    def test_rejects_infinite_activity(self):
        g = center(make_gamma(1.0, 1.0))
        with pytest.raises(ValueError):
            brute_force_coeffs(g, self.basis, arrival_stream(0, 64))

    def test_jump_free_path_is_pure_ramp(self):
        # A stream whose first arrival already exceeds T g0 produces zero
        # jumps, so only the -m t ramp integrates against the basis.
        stream = arrival_stream(0, 64.0)
        shift = 1.1 * self.basis.T * self.cp.tail_pos.g0
        shifted = replace(stream, gammas=stream.gammas + shift, level=stream.level + shift)
        m = self.cp.jump_mean
        got = brute_force_coeffs(self.cp, self.basis, shifted)
        assert np.allclose(got, self.basis.drift_vector(-m), atol=1e-14)

    def test_single_jump_closed_form(self):
        T, g0 = self.basis.T, self.cp.tail_pos.g0
        stream = arrival_stream(7, 64)
        gam = np.concatenate(([0.4 * T * g0], stream.gammas + 2.0 * T * g0))
        uni = np.concatenate(([0.3], stream.uniforms))
        one = replace(stream, gammas=gam[:64], uniforms=uni[:64])
        x = float(self.cp.tail_pos.g_inv(0.4 * g0))
        m = self.cp.jump_mean
        want = x * self.basis.u_vector(0.3 * T) + self.basis.drift_vector(-m)
        got = brute_force_coeffs(self.cp, self.basis, one)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_agrees_with_sampler_on_shared_streams(self):
        # A stream to a higher level on the sampler's own substream extends
        # the arrivals the sampler drew, element for element.
        cfg = ShotConfig(seed=0)
        for i in range(20):
            stream = arrival_stream(np.random.SeedSequence(cfg.seed, spawn_key=(i, PART_POS)), 512)
            ours = sample_coeffs(as_split(self.cp), self.basis, cfg, sample_index=i).z
            ref = brute_force_coeffs(self.cp, self.basis, stream)
            assert np.max(np.abs(ours - ref)) < 1e-12
        # So does the stream a sample keeps, which ends at the stop level.
        s = sample_coeffs(as_split(self.cp), self.basis, cfg, sample_index=3)
        assert np.max(np.abs(brute_force_coeffs(self.cp, self.basis, s.pos) - s.z)) < 1e-12

    def test_grid_route_converges_to_exact(self):
        # Reference: the centered path sampled on a fine grid and integrated
        # against the basis by the trapezoid rule.
        stream = arrival_stream(9, 512)
        exact = brute_force_coeffs(self.cp, self.basis, stream)
        T, tail = self.basis.T, self.cp.tail_pos
        n = int(np.searchsorted(stream.gammas, T * tail.g0))
        sizes = tail.g_inv(stream.gammas[:n] / T)
        times = T * stream.uniforms[:n]
        tg = np.linspace(0.0, T, 20001)
        path = (sizes[None, :] * (times[None, :] <= tg[:, None])).sum(axis=1) - self.cp.jump_mean * tg
        coarse = np.trapezoid(path[:, None] * self.basis.eigenfunction_matrix(tg), tg, axis=0)
        assert np.max(np.abs(exact - coarse)) < 5e-4


class TestStreamChecks:
    """The brute-force oracle validates the streams handed to it."""

    @staticmethod
    def _oracles():
        cp = center(make_cp_exponential(rate=3.0, rho=1.5))
        basis = KleBasis(T=1.0, d=3, alpha=cp.alpha)
        return (lambda s: brute_force_coeffs(cp, basis, s),)

    def test_accepts_a_drawn_stream(self):
        for oracle in self._oracles():
            assert np.all(np.isfinite(oracle(arrival_stream(5, 16.0))))

    def test_rejects_non_increasing_arrivals(self):
        stream = arrival_stream(5, 16.0)
        gam = stream.gammas.copy()
        gam[3] = gam[2]
        for oracle in self._oracles():
            with pytest.raises(ValueError, match="increasing"):
                oracle(replace(stream, gammas=gam))

    def test_rejects_uniforms_outside_unit_interval(self):
        stream = arrival_stream(5, 16.0)
        for bad in (-0.1, 1.5):
            uni = stream.uniforms.copy()
            uni[1] = bad
            for oracle in self._oracles():
                with pytest.raises(ValueError, match=r"\[0, 1\]"):
                    oracle(replace(stream, uniforms=uni))

    def test_rejects_mismatched_lengths(self):
        stream = arrival_stream(5, 16.0)
        for oracle in self._oracles():
            with pytest.raises(ValueError, match="equal length"):
                oracle(replace(stream, uniforms=stream.uniforms[:-1]))

    def test_rejects_level_below_stop(self):
        # The stop level is T g0 = 3; a stream to level 2.9 cannot cover it,
        # even though all its arrivals are valid.
        for oracle in self._oracles():
            with pytest.raises(TruncationCapError) as err:
                oracle(arrival_stream(5, 2.9))
            assert (err.value.gamma_reached, err.value.gamma_stop) == (2.9, 3.0)


class TestKsTwoSample:
    def test_identical_samples(self):
        x = np.linspace(0.0, 1.0, 500)
        res = ks_two_sample(x, x)
        assert res.statistic == 0.0
        assert res.pvalue == pytest.approx(1.0)

    def test_disjoint_samples(self):
        res = ks_two_sample(np.zeros(300), np.ones(300))
        assert res.statistic == 1.0
        assert res.pvalue < 1e-6

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.zeros(99), np.ones(500))

    def test_null_rejection_rate_calibrated(self):
        # 200 same-law pairs at the 1% level: Binomial(200, 0.01) stays
        # below 8 rejections except with probability ~2e-5.
        rng = np.random.default_rng(2024)
        rejections = 0
        for _ in range(200):
            a = rng.normal(size=1000)
            b = rng.normal(size=1000)
            if ks_two_sample(a, b).pvalue < 0.01:
                rejections += 1
        assert rejections <= 8


class TestMixedFourthCumulant:
    def test_gaussian_has_no_jump_cumulant(self):
        bm = make_brownian(1.0)
        basis = KleBasis(T=1.0, d=3, alpha=1.0)
        assert mixed_fourth_cumulant(as_split(bm), basis, 1, 2) == 0.0

    def test_equal_indices_rejected(self, vg):
        basis = KleBasis(T=1.0, d=3, alpha=vg.alpha)
        with pytest.raises(ValueError):
            mixed_fourth_cumulant(vg, basis, 2, 2)

    def test_symmetric_in_indices(self, vg):
        basis = KleBasis(T=1.0, d=4, alpha=vg.alpha)
        a = mixed_fourth_cumulant(vg, basis, 1, 3)
        b = mixed_fourth_cumulant(vg, basis, 3, 1)
        assert a == pytest.approx(b, rel=1e-7)

    def test_closed_form_matches_nested_quadrature(self, vg):
        # Reference: the cumulant's defining double integral
        # int_0^T int (x u_j(t))^2 (x u_k(t))^2 nu(dx) dt by nested quadrature.
        def nested(model, basis, j, k):
            def inner(t):
                uj, uk = basis.u_vector(t)[[j - 1, k - 1]]
                return sum(quad(lambda x, dens=part.tail_pos.density: (x * uj) ** 2 * (x * uk) ** 2 * dens(x),
                                0.0, math.inf, rtol=1e-9) for _, _, part in model.parts)
            return quad(inner, 0.0, basis.T, rtol=1e-8)

        models = [vg, as_split(make_gamma(10.0, 1.0)), as_split(make_gamma(20.0, 1.0)),
                  as_split(make_cp_exponential(2.0, 1.0)),
                  as_split(from_density("stable_like", lambda x: math.exp(-x) * x**-1.5))]
        for model in models:
            for T in (1.0, 3.7):
                basis = KleBasis(T=T, d=5, alpha=model.alpha)
                for j, k in ((1, 2), (2, 5), (3, 1)):
                    want = nested(model, basis, j, k)
                    assert mixed_fourth_cumulant(model, basis, j, k) == pytest.approx(want, rel=1e-12), \
                        (model.name, T, j, k)

    def test_variance_gamma_frozen_value(self, vg):
        basis = KleBasis(T=1.0, d=2, alpha=vg.alpha)
        got = mixed_fourth_cumulant(vg, basis, 1, 2)
        assert got == pytest.approx(VG_MIXED_K12, rel=1e-9)


class TestCrossValidation:
    def test_first_coefficient_law_matches_brute_force(self):
        # The shot-noise sampler and the piecewise-exact integrator use the
        # same streams here, so split the seed range to keep the two sides
        # independent before comparing laws.
        cp = center(make_cp_exponential(rate=3.0, rho=1.5))
        basis = KleBasis(T=1.0, d=1, alpha=cp.alpha)
        cfg = ShotConfig(seed=60)
        ours = np.array([
            sample_coeffs(as_split(cp), basis, cfg, sample_index=i).z[0]
            for i in range(400)
        ])
        ref = np.array([
            brute_force_coeffs(cp, basis, arrival_stream(9000 + i, 128))[0]
            for i in range(400)
        ])
        assert ks_two_sample(ours, ref).pvalue > 1e-3
