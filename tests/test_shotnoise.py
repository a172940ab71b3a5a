"""Series samplers: streams, truncation, centering, determinism, growth."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levykle.basis import KleBasis
from levykle.models import SplitModel, as_split, center, make_cp_exponential, make_gamma
from levykle.shotnoise import (
    ShotConfig,
    TruncationCapError,
    arrival_stream,
    centering_vector,
    derive_rng,
    gamma_stop_level,
    sample_coeffs,
    sample_coeffs_batch,
    shot_sum,
    extend_dimension,
    write_coefficients_csv,
)


@pytest.fixture
def cp_centered():
    return center(make_cp_exponential(rate=3.0, rho=1.5))


class TestStreams:
    def test_derive_rng_is_deterministic(self):
        a = derive_rng(7, 3, 0).standard_normal(4)
        b = derive_rng(7, 3, 0).standard_normal(4)
        assert np.array_equal(a, b)

    def test_derive_rng_labels_are_independent_streams(self):
        a = derive_rng(7, 3, 0).standard_normal(4)
        b = derive_rng(7, 3, 1).standard_normal(4)
        c = derive_rng(7, 4, 0).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_arrival_stream_shape_and_monotonicity(self):
        s = arrival_stream(11, 256.0)
        assert s.level == 256.0
        assert len(s.gammas) == len(s.uniforms) > 200
        assert np.all(np.diff(s.gammas) > 0) and s.gammas[0] > 0 and s.gammas[-1] < 256.0
        assert np.all((s.uniforms >= 0) & (s.uniforms < 1))

    def test_arrival_stream_prefix_stability(self):
        # Raising the level must extend the stream, never reshuffle it, and
        # keep every arrival below it.
        small = arrival_stream(11, 64.0)
        big = arrival_stream(11, 256.0)
        n = len(small.gammas)
        assert np.array_equal(small.gammas, big.gammas[:n])
        assert np.array_equal(small.uniforms, big.uniforms[:n])
        assert big.gammas[n] >= 64.0

    def test_arrival_stream_rejects_empty(self):
        for level in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                arrival_stream(11, level)


class TestTruncation:
    def test_stop_level_finite_activity(self):
        cp = make_cp_exponential(3.0, 1.5)
        cfg = ShotConfig(seed=0)
        assert gamma_stop_level(cp.tail_pos, 2.0, cfg) == 2.0 * 3.0

    def test_stop_level_gamma_scales_with_cutoff_and_mass(self):
        g = make_gamma(2.0, 1.0)
        cfg = ShotConfig(seed=0, gamma_cutoff=45.47)
        assert gamma_stop_level(g.tail_pos, 3.0, cfg) == pytest.approx(45.47 * 3.0 * 2.0)

    def test_stop_level_generic_uses_jump_floor(self):
        g = make_gamma(1.0, 1.0)
        bare = replace(g.tail_pos, cutoff_scale=None)
        cfg = ShotConfig(seed=0, jump_floor=1e-6)
        assert gamma_stop_level(bare, 2.0, cfg) == pytest.approx(2.0 * float(bare.g(1e-6)))
        with pytest.raises(ValueError):
            gamma_stop_level(bare, 2.0, ShotConfig(seed=0))

    def test_cap_error_carries_context(self):
        # A stop level is the expected term count: one above max_terms fails
        # before anything is drawn.
        g = make_gamma(1.0, 1.0)
        basis = KleBasis(T=1.0, d=2, alpha=g.alpha)
        cfg = ShotConfig(seed=3, max_terms=8)
        with pytest.raises(TruncationCapError) as err:
            sample_coeffs(as_split(g), basis, cfg)
        assert err.value.gamma_stop == pytest.approx(45.47)
        assert (err.value.n_drawn, err.value.max_terms) == (0, 8)
        assert "45.47" in str(err.value) and "max_terms=8" in str(err.value)

    def test_cap_error_at_draw_time(self):
        # Stop 99.5 is below the cap of 100, but seed 3 draws 106 arrivals
        # below it; seed 2 draws exactly 100 and passes.
        cp = as_split(make_cp_exponential(rate=99.5, rho=1.0))
        basis = KleBasis(T=1.0, d=2, alpha=cp.alpha)
        with pytest.raises(TruncationCapError) as err:
            sample_coeffs(cp, basis, ShotConfig(seed=3, max_terms=100))
        assert (err.value.n_drawn, err.value.gamma_stop, err.value.max_terms) == (106, 99.5, 100)
        assert sample_coeffs(cp, basis, ShotConfig(seed=2, max_terms=100)).n_terms_pos == 100

    def test_raising_cutoff_leaves_coefficients_unchanged(self):
        # Extra arrivals beyond the default cutoff invert to jumps below the
        # table floor and are clamped to zero size.
        g = as_split(make_gamma(1.0, 1.0))
        basis = KleBasis(T=1.0, d=6, alpha=1.0)
        for idx in range(3):
            z_a = sample_coeffs(g, basis, ShotConfig(seed=5, gamma_cutoff=45.47), sample_index=idx).z
            z_b = sample_coeffs(g, basis, ShotConfig(seed=5, gamma_cutoff=60.0), sample_index=idx).z
            assert np.max(np.abs(z_a - z_b)) < 1e-12


class TestShotSum:
    def test_empty_is_zero(self):
        basis = KleBasis(T=1.0, d=4, alpha=1.0)
        assert np.array_equal(shot_sum(basis, np.array([]), np.array([])), np.zeros(4))

    def test_single_jump_matches_f_map(self):
        basis = KleBasis(T=2.0, d=5, alpha=1.0)
        val = shot_sum(basis, np.array([1.7]), np.array([0.35]))
        assert np.allclose(val, basis.f_map(1.7, 2.0 * 0.35), rtol=1e-13)

    def test_linear_in_sizes(self):
        basis = KleBasis(T=1.0, d=3, alpha=1.0)
        u = np.array([0.2, 0.8])
        x = np.array([1.0, 0.5])
        assert np.allclose(shot_sum(basis, 3.0 * x, u), 3.0 * shot_sum(basis, x, u), rtol=1e-13)

    def test_leading_components_independent_of_d(self):
        # Required for bitwise dimension growth.
        b5 = KleBasis(T=1.0, d=5, alpha=1.0)
        b40 = KleBasis(T=1.0, d=40, alpha=1.0)
        rng = np.random.default_rng(0)
        x, u = rng.exponential(size=30), rng.random(30)
        assert np.array_equal(shot_sum(b5, x, u), shot_sum(b40, x, u)[:5])


class TestCentering:
    def test_zero_level_gives_zero_vector(self):
        g = make_gamma(1.0, 1.0)
        basis = KleBasis(T=1.0, d=3, alpha=1.0)
        assert np.array_equal(centering_vector(g.tail_pos, basis, 0.0), np.zeros(3))

    def test_closed_form_matches_quadrature_fallback(self):
        g = make_gamma(1.0, 1.0)
        basis = KleBasis(T=1.5, d=4, alpha=1.0)
        bare = replace(g.tail_pos, inverse_integral=None)
        for level in (0.5, 3.0, 20.0):
            a = centering_vector(g.tail_pos, basis, level)
            b = centering_vector(bare, basis, level)
            assert np.allclose(a, b, rtol=1e-8)

    def test_saturates_to_drift_of_mean(self, cp_centered):
        # Once every jump is retained the series centering is exactly the
        # mean-rate ramp.
        cp = make_cp_exponential(3.0, 1.5)
        basis = KleBasis(T=2.0, d=5, alpha=cp.alpha)
        stop = 2.0 * cp.tail_pos.g0
        c = centering_vector(cp.tail_pos, basis, stop)
        assert np.allclose(c, basis.drift_vector(cp.jump_mean), rtol=1e-12)


class TestSamplers:
    def test_same_seed_same_sample(self, vg):
        basis = KleBasis(T=1.0, d=5, alpha=vg.alpha)
        cfg = ShotConfig(seed=42)
        a = sample_coeffs(vg, basis, cfg, sample_index=3)
        b = sample_coeffs(vg, basis, cfg, sample_index=3)
        assert np.array_equal(a.z, b.z)
        assert a.n_terms_pos == b.n_terms_pos

    def test_distinct_indices_are_distinct(self, vg):
        basis = KleBasis(T=1.0, d=5, alpha=vg.alpha)
        cfg = ShotConfig(seed=42)
        a = sample_coeffs(vg, basis, cfg, sample_index=0)
        b = sample_coeffs(vg, basis, cfg, sample_index=1)
        assert not np.array_equal(a.z, b.z)

    def test_finite_variation_route_preconditions(self):
        # Every sampler rejects an h1-convention part: it would otherwise be
        # centered to a = 0 and its jumps added uncompensated.
        basis = KleBasis(T=1.0, d=3, alpha=1.0)
        cp = make_cp_exponential(3.0, 1.5)
        h1 = replace(cp, triple=replace(cp.triple, cutoff="h1"))
        for model in (as_split(h1), SplitModel("mixed", pos=cp, neg=h1)):
            with pytest.raises(ValueError, match="h0"):
                sample_coeffs(model, basis, ShotConfig(seed=1))
            with pytest.raises(ValueError, match="h0"):
                sample_coeffs_batch(model, basis, ShotConfig(seed=1), 4)

    def test_centered_route_requires_centered_model(self):
        # The samplers center each part themselves: an uncentered model
        # samples exactly as its centered version, with drift a = -m.
        cp = make_cp_exponential(3.0, 1.5)
        basis = KleBasis(T=1.0, d=3, alpha=cp.alpha)
        cfg = ShotConfig(seed=1)
        raw = sample_coeffs(as_split(cp), basis, cfg, keep_record=True)
        done = sample_coeffs(as_split(center(cp)), basis, cfg)
        assert raw.shot_record.pos.drift_a == -cp.jump_mean
        assert np.array_equal(raw.z, done.z)
        Z_raw, _, _ = sample_coeffs_batch(as_split(cp), basis, cfg, 5)
        Z_done, _, _ = sample_coeffs_batch(as_split(center(cp)), basis, cfg, 5)
        assert np.array_equal(Z_raw, Z_done)

    @staticmethod
    def _h1_route(model, basis, cfg, idx):
        # Jump sum of the kept record compensated by the series centering at
        # the truncation level instead of the drift vector.
        s = sample_coeffs(as_split(model), basis, cfg, sample_index=idx, keep_record=True)
        rec = s.shot_record.pos
        tail = center(model).tail_pos
        stop = gamma_stop_level(tail, basis.T, cfg)
        return s.z, shot_sum(basis, rec.jump_sizes, rec.uniforms) - centering_vector(tail, basis, stop)

    def test_drift_and_centering_routes_agree_finite_activity(self, cp_centered):
        # Same stream, h identically 0 vs series centering at the truncation
        # level: identical laws and nearly identical numbers.
        basis = KleBasis(T=2.0, d=8, alpha=cp_centered.alpha)
        cfg = ShotConfig(seed=9)
        for idx in range(6):
            a, b = self._h1_route(cp_centered, basis, cfg, idx)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_composite_route_equals_centering_route_for_gamma(self):
        # At the default cutoff the residual tail mass is ~1e-20, so the
        # drift form and the centering form coincide to the last bit.
        g = make_gamma(1.0, 1.0)
        basis = KleBasis(T=1.0, d=5, alpha=g.alpha)
        cfg = ShotConfig(seed=13)
        for idx in range(4):
            a, b = self._h1_route(g, basis, cfg, idx)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_term_counts_near_expected_level(self, vg):
        basis = KleBasis(T=1.0, d=2, alpha=vg.alpha)
        cfg = ShotConfig(seed=21)
        counts = [sample_coeffs(vg, basis, cfg, sample_index=i).n_terms_pos for i in range(200)]
        assert 40.0 < float(np.mean(counts)) < 51.0


class TestBatchSampler:
    def test_batch_rows_match_individual_samples(self, vg):
        basis = KleBasis(T=1.0, d=4, alpha=vg.alpha)
        cfg = ShotConfig(seed=77)
        Z, n_pos, n_neg = sample_coeffs_batch(vg, basis, cfg, 30, start_index=5)
        for j in range(30):
            s = sample_coeffs(vg, basis, cfg, sample_index=5 + j)
            assert np.array_equal(Z[j], s.z)
            assert n_pos[j] == s.n_terms_pos
            assert n_neg[j] == s.n_terms_neg

    def test_batch_chunking_is_invisible(self, vg):
        basis = KleBasis(T=1.0, d=3, alpha=vg.alpha)
        cfg = ShotConfig(seed=8)
        a, _, _ = sample_coeffs_batch(vg, basis, cfg, 25, chunk=4)
        b, _, _ = sample_coeffs_batch(vg, basis, cfg, 25, chunk=512)
        assert np.array_equal(a, b)

    def test_gaussian_part_variances(self):
        from levykle.models import make_brownian
        bm = as_split(make_brownian(1.0))
        basis = KleBasis(T=1.0, d=4, alpha=1.0)
        Z, n_pos, _ = sample_coeffs_batch(bm, basis, ShotConfig(seed=3), 4000)
        assert np.all(n_pos == 0)
        ratio = Z.var(axis=0, ddof=1) / basis.eigenvalues()
        assert np.max(np.abs(ratio - 1.0)) < 0.15


class TestExtendDimension:
    def test_extension_matches_fresh_run_bitwise(self, vg):
        cfg = ShotConfig(seed=31)
        b25 = KleBasis(T=1.0, d=25, alpha=vg.alpha)
        for idx in (2, 3):
            fresh = sample_coeffs(vg, b25, cfg, sample_index=idx)
            for d in (1, 5):
                small = sample_coeffs(vg, KleBasis(T=1.0, d=d, alpha=vg.alpha), cfg,
                                      sample_index=idx, keep_record=True)
                grown = extend_dimension(small, 25)
                assert np.array_equal(grown.z, fresh.z)
                assert np.array_equal(grown.z[:d], small.z)

    def test_same_dimension_is_identity(self, vg):
        cfg = ShotConfig(seed=31)
        b5 = KleBasis(T=1.0, d=5, alpha=vg.alpha)
        small = sample_coeffs(vg, b5, cfg, keep_record=True)
        again = extend_dimension(small, 5)
        assert np.array_equal(again.z, small.z)

    def test_shrinking_rejected(self, vg):
        cfg = ShotConfig(seed=31)
        b5 = KleBasis(T=1.0, d=5, alpha=vg.alpha)
        small = sample_coeffs(vg, b5, cfg, keep_record=True)
        with pytest.raises(ValueError):
            extend_dimension(small, 3)

    def test_missing_record_rejected(self, vg):
        cfg = ShotConfig(seed=31)
        b5 = KleBasis(T=1.0, d=5, alpha=vg.alpha)
        small = sample_coeffs(vg, b5, cfg)
        assert small.shot_record is None
        with pytest.raises(ValueError):
            extend_dimension(small, 25)


class TestOneKernel:
    """Batch rows, single samples and grown samples come from one kernel."""

    @pytest.fixture(scope="class")
    def vg_gauss(self, vg):
        # The only model in the suite that combines jumps with a Gaussian part.
        return SplitModel("vg+gauss", vg.pos, vg.neg, gaussian_sigma2=0.5)

    @given(seed=st.integers(0, 2**32 - 1), start=st.integers(0, 10**6),
           chunk=st.integers(1, 4), d=st.integers(1, 12), extra=st.integers(1, 20))
    @settings(max_examples=15, deadline=None)
    def test_batch_single_and_extension_agree(self, vg_gauss, seed, start, chunk, d, extra):
        cfg = ShotConfig(seed=seed)
        basis = KleBasis(T=1.0, d=d, alpha=vg_gauss.alpha)
        wide = KleBasis(T=1.0, d=d + extra, alpha=vg_gauss.alpha)
        Z, n_pos, n_neg = sample_coeffs_batch(vg_gauss, basis, cfg, 3, start_index=start, chunk=chunk)
        for j in range(3):
            s = sample_coeffs(vg_gauss, basis, cfg, sample_index=start + j, keep_record=True)
            assert np.array_equal(Z[j], s.z)
            assert (n_pos[j], n_neg[j]) == (s.n_terms_pos, s.n_terms_neg)
            fresh = sample_coeffs(vg_gauss, wide, cfg, sample_index=start + j)
            assert np.array_equal(extend_dimension(s, d + extra).z, fresh.z)


class TestCsvOutput:
    def test_round_trip_full_precision(self, vg):
        basis = KleBasis(T=1.0, d=3, alpha=vg.alpha)
        cfg = ShotConfig(seed=12)
        samples = [sample_coeffs(vg, basis, cfg, sample_index=i) for i in range(2)]
        buf = io.StringIO()
        write_coefficients_csv(samples, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "sample_id,k,z_k,n_terms_pos,n_terms_neg,seed"
        assert len(lines) == 1 + 2 * 3
        row = lines[1].split(",")
        assert int(row[0]) == 0 and int(row[1]) == 1
        assert float(row[2]) == samples[0].z[0]
        assert int(row[5]) == 12
