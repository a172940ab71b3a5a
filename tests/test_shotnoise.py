"""Series samplers: streams, truncation, centering, determinism, growth."""

import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levykle import shotnoise
from levykle.basis import KleBasis
from levykle.models import SplitModel, as_split, center, make_brownian, make_cp_exponential, make_gamma
from levykle.oracles import centering_vector
from levykle.shotnoise import (
    PART_GAUSS,
    PART_NEG,
    PART_POS,
    ShotConfig,
    TruncationCapError,
    arrival_stream,
    arrival_streams,
    derive_rng,
    gamma_stop_level,
    sample_coeffs,
    sample_coeffs_batch,
    shot_sum,
    extend_dimension,
)
from levykle.special import default_e1_inverse, quad
from levykle.validation import moment_suite


@pytest.fixture
def cp_centered():
    return center(make_cp_exponential(rate=3.0, rho=1.5))


def _split_batch(model, basis, cfg, n, start, size):
    """``sample_coeffs_batch`` over indices start .. start + n - 1 as calls
    of ``size`` samples each, so each call is its own chunk; stacked."""
    calls = [sample_coeffs_batch(model, basis, cfg, min(size, n - lo), start_index=start + lo)
             for lo in range(0, n, size)]
    return tuple(np.concatenate(arrays) for arrays in zip(*calls))


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


def _numpy_stream(seed, key, level, max_terms=None):
    """Reference stream from numpy's own constructors, drawn one stream at a
    time: exponentials in doubling blocks from 128 until one passes
    ``level``, then one call for the uniforms. With ``max_terms`` it raises
    ``TruncationCapError`` where that loop did: at a block that reaches the
    cap before the level, or when more than the cap lie below the level."""
    def rng(sub):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(*key, sub))))

    exp_rng, uni_rng = rng(0), rng(1)
    blocks, block = [], 128
    while True:
        blocks.append(exp_rng.standard_exponential(block))
        gammas = np.cumsum(np.concatenate(blocks))
        if gammas[-1] > level:
            break
        if max_terms is not None and len(gammas) >= max_terms:
            raise TruncationCapError(len(gammas), float(gammas[-1]), level, max_terms)
        block *= 2
    n = int(np.searchsorted(gammas, level))
    if max_terms is not None and n > max_terms:
        raise TruncationCapError(n, float(gammas[n - 1]), level, max_terms)
    return gammas[:n], uni_rng.random(n)


def _assert_streams_match(seed, indices, label, level):
    gammas, uniforms, offsets = arrival_streams(seed, indices, (label,), level)
    assert len(offsets) == len(indices) + 1 and offsets[-1] == len(gammas) == len(uniforms)
    for j, i in enumerate(indices):
        ref_g, ref_u = _numpy_stream(seed, (i, label), level)
        assert np.array_equal(gammas[offsets[j]:offsets[j + 1]], ref_g), i
        assert np.array_equal(uniforms[offsets[j]:offsets[j + 1]], ref_u), i


def _cap_fields(call):
    with pytest.raises(TruncationCapError) as err:
        call()
    return err.value.n_drawn, err.value.gamma_reached, err.value.gamma_stop, err.value.max_terms


class TestGroupedStreams:
    """``arrival_streams`` fills one buffer row per stream, one call each,
    and sums, counts and gathers a group of rows at once; every stream must
    equal the one-stream-at-a-time loop bitwise, and a cap error must carry
    that loop's fields."""

    def test_empty_range(self):
        gammas, uniforms, offsets = arrival_streams(7, range(3, 3), (PART_POS,), 45.0)
        assert gammas.shape == uniforms.shape == (0,)
        assert offsets.tolist() == [0]

    def test_overrun_rows_are_drawn_again(self, monkeypatch):
        # A first fill of 128 leaves every stream at level 454.7 short of
        # it, so each is drawn again from a fresh generator in doubling
        # blocks, in groups of 3 rows.
        monkeypatch.setattr(shotnoise, "_first_fill", lambda level, max_terms: 128)
        monkeypatch.setattr(shotnoise, "_FILL_DOUBLES", 3 * 128)
        _assert_streams_match(11, range(2**32 - 4, 2**32 + 4), PART_POS, 454.7)
        stream = arrival_stream(11, 454.7)
        ref_g, ref_u = _numpy_stream(11, (), 454.7)
        assert np.array_equal(stream.gammas, ref_g) and np.array_equal(stream.uniforms, ref_u)
        # Drawn again to 384, none of them past the level, a stream stops
        # there with a cap of 300.
        assert _cap_fields(lambda: arrival_streams(11, range(4), (PART_POS,), 454.7, 300)) == \
            _cap_fields(lambda: _numpy_stream(11, (0, PART_POS), 454.7, 300))

    def test_cap_errors_carry_the_loops_fields(self):
        # 384 draws (the first fill) reach the cap of 300 before level 454.7.
        assert _cap_fields(lambda: arrival_streams(7, range(5), (PART_POS,), 454.7, 300)) == \
            _cap_fields(lambda: _numpy_stream(7, (0, PART_POS), 454.7, 300))
        # 128 draws pass level 45.47, with more than the cap below it; the
        # first stream to break the cap is the one reported.
        counts = np.diff(arrival_streams(7, range(20), (PART_POS,), 45.47)[2])
        cap = int(counts[0])
        first = int(np.argmax(counts > cap))
        assert first > 0
        assert _cap_fields(lambda: arrival_streams(7, range(20), (PART_POS,), 45.47, cap)) == \
            _cap_fields(lambda: _numpy_stream(7, (first, PART_POS), 45.47, cap))

    def test_group_buffer_stays_within_its_constant(self):
        # At level 2e4 a stream's first fill is 32640 exponentials, so 256
        # streams in one buffer would take 67 MB; groups of 32 rows take
        # 8.4 MB. While it fills, the call holds the arrivals so far, one
        # group buffer and its mask; after the last group, the buffer is
        # gone and it holds at most its outputs' size (the groups' arrivals
        # and their concatenation, or the arrivals and the uniforms).
        tracemalloc.start()
        try:
            gammas, uniforms, _ = arrival_streams(5, range(256), (PART_POS,), 2e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gammas.nbytes + uniforms.nbytes + 1.25 * 8 * shotnoise._FILL_DOUBLES


class TestStreamDerivation:
    """Stream states are derived in one pass without numpy's SeedSequence;
    every stream must equal the one numpy's constructors give, bitwise, so a
    numpy release that changed SeedSequence or PCG64 seeding fails here."""

    SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**140))
    STARTS = st.one_of(st.integers(0, 10**6), st.integers(2**32 - 6, 2**32 + 6),
                       st.integers(2**32, 2**64 - 8), st.integers(2**64 - 4, 2**64 + 4))

    @given(seed=SEEDS, start=STARTS, n=st.integers(1, 6), label=st.sampled_from([PART_POS, PART_NEG]),
           level=st.sampled_from([0.5, 3.0, 45.47, 60.0, 454.7, 700.0]))
    @example(seed=0, start=0, n=3, label=PART_POS, level=60.0)
    @example(seed=7, start=2**32 - 3, n=6, label=PART_NEG, level=60.0)
    @example(seed=7, start=2**32 - 3, n=6, label=PART_NEG, level=3.0)
    @example(seed=7, start=2**32 - 3, n=6, label=PART_NEG, level=45.47)
    @example(seed=7, start=2**32 - 3, n=6, label=PART_NEG, level=454.7)
    @settings(max_examples=40, deadline=None)
    def test_chunk_streams_match_numpy(self, seed, start, n, label, level):
        _assert_streams_match(seed, range(start, start + n), label, level)

    @given(entropy=st.one_of(SEEDS, st.lists(SEEDS, min_size=1, max_size=3).map(tuple)),
           key=st.lists(st.one_of(st.integers(0, 9), SEEDS), max_size=4).map(tuple))
    @example(entropy=(20161, 3), key=())
    @settings(max_examples=40, deadline=None)
    def test_single_stream_of_any_seed_sequence(self, entropy, key):
        ss = np.random.SeedSequence(entropy, spawn_key=key)
        got = arrival_stream(ss, 60.0)
        ref_g, ref_u = _numpy_stream(entropy, key, 60.0)
        assert np.array_equal(got.gammas, ref_g) and np.array_equal(got.uniforms, ref_u)
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(*key, 5))))
        assert np.array_equal(derive_rng(ss, 5).random(8), want.random(8))

    @given(seed=SEEDS, start=STARTS, n=st.integers(1, 4))
    @example(seed=0, start=2**32 - 2, n=4)
    @settings(max_examples=15, deadline=None)
    def test_gaussian_rows_match_numpy(self, seed, start, n):
        bm = as_split(make_brownian(1.0))
        basis = KleBasis(T=1.0, d=5, alpha=1.0)
        Z, _, _ = sample_coeffs_batch(bm, basis, ShotConfig(seed=seed), n, start_index=start)
        scale = np.sqrt(basis.gaussian_coefficient_variances(1.0))
        for j in range(n):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(start + j, PART_GAUSS))))
            assert np.array_equal(Z[j], np.zeros(5) + scale * rng.standard_normal(5))

    def test_negative_seeds_and_indices_raise(self, vg):
        basis = KleBasis(T=1.0, d=3, alpha=vg.alpha)
        with pytest.raises(ValueError):
            ShotConfig(seed=-1)
        for cutoff in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="gamma_cutoff"):
                ShotConfig(seed=1, gamma_cutoff=cutoff)
        with pytest.raises(ValueError):
            sample_coeffs(vg, basis, ShotConfig(seed=1), sample_index=-1)
        with pytest.raises(ValueError):
            sample_coeffs_batch(vg, basis, ShotConfig(seed=1), 4, start_index=-2)
        for seed in (-1, -2**40):
            with pytest.raises(ValueError):
                arrival_stream(seed, 10.0)
        with pytest.raises(ValueError):
            arrival_streams(3, range(-1, 2), (PART_POS,), 10.0)


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

    @pytest.mark.parametrize("args", [(0, 0.0, 5e6, 10**6), (106, 99.25, 99.5, 100), (12, 3.5, 7.0, None)])
    def test_cap_error_survives_pickling(self, args):
        # A cap error raised in a process-pool worker reaches the caller
        # through pickle, and must arrive as itself.
        err = TruncationCapError(*args)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is TruncationCapError
        assert str(back) == str(err)
        assert (back.n_drawn, back.gamma_reached, back.gamma_stop, back.max_terms) == args

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
        assert np.allclose(val, 1.7 * basis.u_vector(2.0 * 0.35), rtol=1e-13)

    def test_linear_in_sizes(self):
        basis = KleBasis(T=1.0, d=3, alpha=1.0)
        u = np.array([0.2, 0.8])
        x = np.array([1.0, 0.5])
        assert np.allclose(shot_sum(basis, 3.0 * x, u), 3.0 * shot_sum(basis, x, u), rtol=1e-13)

    def test_leading_components_independent_of_d(self):
        # Required for bitwise dimension growth, also across the anchored
        # blocks of 64 columns.
        rng = np.random.default_rng(0)
        x, u = rng.exponential(size=30), rng.random(30)
        wide = shot_sum(KleBasis(T=1.0, d=300, alpha=1.0), x, u)
        for d in (1, 5, 40, 64, 65, 128, 129, 200):
            assert np.array_equal(shot_sum(KleBasis(T=1.0, d=d, alpha=1.0), x, u), wide[:d])

    def test_tiles_independent_of_d_and_chunk(self):
        # Columns past k = 64 come from GEMM tiles of one shape (512 columns,
        # zero-padded past d) per piece, whose inner dimension is the piece's
        # own row count, so every d and every chunking of the samples
        # reproduces d = 3000 bitwise: across tile edges (512/513), with
        # samples of no rows, samples of every row count mod 16, and samples
        # cut past the 512-row budget into two or three pieces (511 to 1100
        # rows). The head is summed by the d <= 64 route over contiguous
        # rows and by the d > 64 route per run of pieces of one row count;
        # both give the same bits, also for samples cut into several pieces.
        rng = np.random.default_rng(13)
        n = np.array([0, 45, 1, 0, 16, 17, 700, 512, 0, 3, 90, 513, 0, 48, 2, 1100, 31, 21, 37,
                      20, 22, 23, 24, 25, 27, 30, 511, 1025, 45, 45, 21])
        assert set(n[n > 0] % 16) == set(range(16))
        offsets = np.concatenate(([0], np.cumsum(n)))
        x = rng.exponential(size=offsets[-1]) * rng.choice([-1.0, 1.0], size=offsets[-1])
        u = rng.random(offsets[-1])
        basis = KleBasis(T=1.0, d=3000, alpha=1.0)
        wide = shot_sum(basis, x, u, offsets)
        for d in (1, 25, 64, 65, 512, 513, 3000):
            assert np.array_equal(shot_sum(KleBasis(T=1.0, d=d, alpha=1.0), x, u, offsets), wide[:, :d])
        for chunk in (1, 7, 512):
            parts = [shot_sum(basis, x, u, offsets[lo:lo + chunk + 1]) for lo in range(0, len(n), chunk)]
            assert np.array_equal(np.concatenate(parts), wide)

    def test_coarse_anchors_reanchored_exactly(self):
        # The coarse anchors 512 t pi u run in ladders of 8 rungs from the
        # exact angles 4096 q pi u, so the tiles past t = 8 (k > 4160) keep
        # the prefix bits and the accuracy of the first ones.
        rng = np.random.default_rng(21)
        n = np.array([1, 45, 700])
        offsets = np.concatenate(([0], np.cumsum(n)))
        x = rng.exponential(size=offsets[-1]) * rng.choice([-1.0, 1.0], size=offsets[-1])
        u = rng.random(offsets[-1])
        wide = shot_sum(KleBasis(T=1.0, d=9000, alpha=1.0), x, u, offsets)
        for d in (4160, 4161, 4700):
            assert np.array_equal(shot_sum(KleBasis(T=1.0, d=d, alpha=1.0), x, u, offsets), wide[:, :d])
        basis = KleBasis(T=1.0, d=9000, alpha=1.0)
        for j in range(len(n)):
            rows = slice(offsets[j], offsets[j + 1])
            assert self._relative_error(basis, x[rows], u[rows], wide[j]) <= 1e-13

    @staticmethod
    def _relative_error(basis, x, u, value):
        # Largest column error against a plain np.cos sum, relative to
        # sum |x_i|. The reference angles pi (k - 1/2) u are reduced mod 2 pi
        # in integer arithmetic (u = N 2^-53, so (2k - 1) N mod 2^55 is exact
        # in wrapping uint64), because the float64 product pi (k - 1/2) u
        # alone is off by up to 2e-12 at k = 3000.
        if len(x) == 0:
            return float(np.max(np.abs(value)))
        n_u = (u * 2.0**53).astype(np.uint64)
        assert np.array_equal(n_u * 2.0**-53, u)
        odd = (2 * np.arange(1, basis.d + 1) - 1).astype(np.uint64)
        angles = np.pi * ((np.outer(n_u, odd) & np.uint64(2**55 - 1)) * 2.0**-54)
        unit = math.sqrt(2.0 * basis.T) / math.pi / basis.k_half
        direct = (np.cos(angles) * x[:, None]).sum(axis=0) * unit
        return float(np.max(np.abs(value - direct) / unit) / np.sum(np.abs(x)))

    @pytest.mark.parametrize("d", [1, 63, 64, 65, 129, 3000])
    def test_matches_direct_cos_sum(self, d):
        # Oracle: a plain np.cos sum. The rotation ladders stay within 1e-13
        # of sum |x_i| in every column (about 2e-15 measured), also where
        # u sits at the ends of [0, 1], alone and together.
        basis = KleBasis(T=1.5, d=d, alpha=1.0)
        rng = np.random.default_rng(d)
        for n in (0, 1, 450):
            x = rng.exponential(size=n) * rng.choice([-1.0, 1.0], size=n)
            u = rng.random(n)
            assert self._relative_error(basis, x, u, shot_sum(basis, x, u)) <= 1e-13
        ends = np.array([0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0])
        x = np.array([1.5, -0.25, 2.0, -3.0])
        for xi, ui in zip(x[:, None], ends[:, None]):
            assert self._relative_error(basis, xi, ui, shot_sum(basis, xi, ui)) <= 1e-13
        assert self._relative_error(basis, x, ends, shot_sum(basis, x, ends)) <= 1e-13

    @pytest.mark.parametrize("d", [25, 64, 65, 3000])
    def test_row_bits_independent_of_position_in_chunk(self, d):
        # numpy's loops may treat an array's SIMD body, its tail and a short
        # array by different code; a sample's bits must not depend on which
        # of them its rows land in. Its rows start at each offset 0-15 of
        # the flattened chunk, between samples of random other rows, and are
        # compared with the sample summed alone, short arrays included.
        basis = KleBasis(T=1.0, d=d, alpha=1.0)
        rng = np.random.default_rng(d + 1)
        for n in (1, 3, 45, 700):
            x, u = rng.exponential(size=n) * rng.choice([-1.0, 1.0], size=n), rng.random(n)
            alone = shot_sum(basis, x, u)
            for lead in range(16):
                counts = np.array([lead, n, int(rng.integers(1, 40)), int(rng.integers(0, 600))])
                offsets = np.concatenate(([0], np.cumsum(counts)))
                xs, us = rng.exponential(size=offsets[-1]), rng.random(offsets[-1])
                xs[lead:lead + n], us[lead:lead + n] = x, u
                assert np.array_equal(shot_sum(basis, xs, us, offsets)[1], alone)

    def test_chunk_rows_match_single_samples(self):
        # One call per chunk over flattened rows: samples with no rows give
        # exactly 0, a sample past the row budget is cut where its own rows
        # say, and every row equals the sample summed alone.
        basis = KleBasis(T=1.0, d=200, alpha=1.0)
        rng = np.random.default_rng(5)
        n = np.array([0, 3, 0, 0, 450, 2500, 1, 0])
        offsets = np.concatenate(([0], np.cumsum(n)))
        x, u = rng.exponential(size=offsets[-1]), rng.random(offsets[-1])
        rows = shot_sum(basis, x, u, offsets)
        assert rows.shape == (len(n), basis.d)
        for j in range(len(n)):
            xj, uj = x[offsets[j]:offsets[j + 1]], u[offsets[j]:offsets[j + 1]]
            assert np.array_equal(rows[j], shot_sum(basis, xj, uj))
            assert self._relative_error(basis, xj, uj, rows[j]) <= 1e-13
        assert not np.any(rows[n == 0])
        assert np.array_equal(shot_sum(basis, x[:0], u[:0], np.zeros(4, dtype=int)), np.zeros((3, basis.d)))

    def test_complex_products_round_alike_anywhere(self):
        # The anchors past k = 64 are out-of-place complex products
        # (``_span_ladders``), so a row's bits rely on numpy rounding such a
        # product alike at any position of any array: contiguous, strided
        # or broadcast (an in-place product of a one-element array need
        # not, see ``basis._rotations``).
        rng = np.random.default_rng(17)
        a, b = rng.standard_normal((2, 40, 2)).view(complex)[..., 0]
        alone = np.array([np.multiply(a[i:i + 1], b[i:i + 1])[0] for i in range(40)])
        for n in (1, 2, 3, 5, 8, 9, 17, 33, 40):
            assert np.array_equal(np.multiply(a[:n], b[:n]), alone[:n])
            strided = np.zeros((n, 3), dtype=complex)
            np.multiply(a[:n], b[:n], out=strided[:, 1])
            assert np.array_equal(strided[:, 1], alone[:n])
        outer = np.multiply(a[:, None], b[None, :7])
        assert np.array_equal(outer[:, 3], np.array([np.multiply(a[i:i + 1], b[3:4])[0] for i in range(40)]))

    def test_adds_into_out(self):
        basis = KleBasis(T=1.0, d=70, alpha=1.0)
        x, u = np.array([0.3, -1.2]), np.array([0.6, 0.1])
        out = np.ones(70)
        assert shot_sum(basis, x, u, out=out) is out
        assert np.array_equal(out, 1.0 + shot_sum(basis, x, u))


class TestBlasThreads:
    # The rotated columns of shot_sum are BLAS products. One product whose
    # shape grows with d, (8 x 3000) @ (3000 x 64), can change bits between
    # one and two OpenBLAS threads (OpenBLAS 0.3.31 does); the fixed tile
    # shapes must not. The gamma samples hold about 909 terms, so each is
    # cut into two pieces.
    SCRIPT = """
import hashlib
from levykle.basis import KleBasis
from levykle.models import as_split, make_gamma, make_variance_gamma
from levykle.shotnoise import ShotConfig, sample_coeffs_batch
for model, n in ((make_variance_gamma(), 40), (as_split(make_gamma(20.0, 1.0)), 6)):
    for d in (65, 513, 3000):
        Z = sample_coeffs_batch(model, KleBasis(T=1.0, d=d, alpha=model.alpha), ShotConfig(seed=5), n)[0]
        print(hashlib.sha256(Z.tobytes()).hexdigest())
"""

    def test_z_independent_of_blas_threads(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
            run = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env, capture_output=True,
                                 text=True, timeout=600, check=True)
            digests.append(run.stdout.split())
        assert len(digests[0]) == 6
        assert digests[0] == digests[1]


class TestCentering:
    def test_zero_level_gives_zero_vector(self):
        g = make_gamma(1.0, 1.0)
        basis = KleBasis(T=1.0, d=3, alpha=1.0)
        assert np.array_equal(centering_vector(g.tail_pos, basis, 0.0), np.zeros(3))

    def test_closed_form_matches_quadrature_fallback(self):
        # The gamma tail's closed-form primitive against quadrature of its
        # g_inv, which runs through the E1 inverse table.
        tail = make_gamma(1.0, 1.0).tail_pos
        basis = KleBasis(T=1.5, d=4, alpha=1.0)
        for level in (0.5, 3.0, 20.0):
            y_top = level / basis.T
            radial = quad(lambda s: float(tail.g_inv(s)), 0.0, y_top, rtol=1e-10)
            assert tail.inverse_integral(y_top) == pytest.approx(radial, rel=1e-8)
            expected = (math.sqrt(2.0 * basis.T) * basis.signs
                        / (math.pi**2 * basis.k_half**2) * basis.T * radial)
            assert np.allclose(centering_vector(tail, basis, level), expected, rtol=1e-8)

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

    def test_centered_route_requires_centered_model(self):
        # The samplers center each part themselves: an uncentered model
        # samples exactly as its centered version, with drift a = -m.
        cp = make_cp_exponential(3.0, 1.5)
        basis = KleBasis(T=1.0, d=3, alpha=cp.alpha)
        cfg = ShotConfig(seed=1)
        raw = sample_coeffs(as_split(cp), basis, cfg)
        done = sample_coeffs(as_split(center(cp)), basis, cfg)
        jumps = shot_sum(basis, cp.tail_pos.g_inv(raw.pos.gammas / basis.T), raw.pos.uniforms)
        assert np.allclose(raw.z - jumps, basis.drift_vector(-cp.jump_mean), rtol=0.0, atol=1e-12)
        assert np.array_equal(raw.z, done.z)
        Z_raw, _, _ = sample_coeffs_batch(as_split(cp), basis, cfg, 5)
        Z_done, _, _ = sample_coeffs_batch(as_split(center(cp)), basis, cfg, 5)
        assert np.array_equal(Z_raw, Z_done)

    @staticmethod
    def _centering_route(model, basis, cfg, idx):
        # Jump sum of the kept stream compensated by the series centering at
        # the truncation level instead of the drift vector. Inversion is
        # elementwise, so the sizes are bitwise the sampler's.
        s = sample_coeffs(as_split(model), basis, cfg, sample_index=idx)
        rec = s.pos
        tail = center(model).tail_pos
        sizes = tail.g_inv(rec.gammas / basis.T)
        return s.z, shot_sum(basis, sizes, rec.uniforms) - centering_vector(tail, basis, rec.level)

    def test_drift_and_centering_routes_agree_finite_activity(self, cp_centered):
        # Same stream, h identically 0 vs series centering at the truncation
        # level: identical laws and nearly identical numbers.
        basis = KleBasis(T=2.0, d=8, alpha=cp_centered.alpha)
        cfg = ShotConfig(seed=9)
        for idx in range(6):
            a, b = self._centering_route(cp_centered, basis, cfg, idx)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_composite_route_equals_centering_route_for_gamma(self):
        # At the default cutoff the residual tail mass is ~1e-20, so the
        # drift form and the centering form coincide to the last bit.
        g = make_gamma(1.0, 1.0)
        basis = KleBasis(T=1.0, d=5, alpha=g.alpha)
        cfg = ShotConfig(seed=13)
        for idx in range(4):
            a, b = self._centering_route(g, basis, cfg, idx)
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
        a, _, _ = _split_batch(vg, basis, cfg, 25, 0, 4)
        b, _, _ = sample_coeffs_batch(vg, basis, cfg, 25)
        assert np.array_equal(a, b)

    def test_chunk_holds_four_doubles_per_arrival(self):
        # A 512-sample gamma(20) chunk draws about 465600 arrivals. Its
        # arrivals, uniforms and jump sizes, with the draw's group buffer or
        # one block of the inversion, peak at 3.7 doubles per arrival (11.1
        # when the sizes were inverted in one call); the CLI's memory
        # estimate counts 4 (``cli._STREAM_ARRAYS``).
        model = as_split(make_gamma(20.0, 1.0))
        basis = KleBasis(T=1.0, d=5, alpha=model.alpha)
        default_e1_inverse()
        tracemalloc.start()
        try:
            _, n_pos, _ = sample_coeffs_batch(model, basis, ShotConfig(seed=7), shotnoise._CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * n_pos.sum()

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_jump_sizes_blocks_equal_one_inversion(self, extra):
        # The inversion is elementwise, so the block edges move no bit: the
        # arguments span the E1 inverse's table and its closed form.
        n = shotnoise._INVERT_BLOCK + extra
        gammas = np.cumsum(np.random.default_rng(n).standard_exponential(n)) * (100.0 / n)
        for tail in (make_gamma(2.0, 1.0).tail_pos, make_cp_exponential(rate=30.0, rho=1.5).tail_pos):
            assert np.array_equal(shotnoise._jump_sizes(tail, gammas, 2.0), tail.g_inv(gammas / 2.0))

    def test_gaussian_part_variances(self):
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
                                      sample_index=idx)
                grown = extend_dimension(small, 25)
                assert np.array_equal(grown.z, fresh.z)
                assert np.array_equal(grown.z[:d], small.z)

    def test_extension_across_anchor_blocks(self, vg):
        # Columns 65 on come from anchored blocks of 64; growing across a
        # block edge must reproduce a fresh run bitwise.
        cfg = ShotConfig(seed=17)
        fresh = sample_coeffs(vg, KleBasis(T=1.0, d=200, alpha=vg.alpha), cfg, sample_index=4)
        for d in (63, 64, 65, 128, 129):
            small = sample_coeffs(vg, KleBasis(T=1.0, d=d, alpha=vg.alpha), cfg,
                                  sample_index=4)
            assert np.array_equal(extend_dimension(small, 200).z, fresh.z)

    def test_same_dimension_is_identity(self, vg):
        cfg = ShotConfig(seed=31)
        b5 = KleBasis(T=1.0, d=5, alpha=vg.alpha)
        small = sample_coeffs(vg, b5, cfg)
        again = extend_dimension(small, 5)
        assert np.array_equal(again.z, small.z)

    def test_shrinking_rejected(self, vg):
        cfg = ShotConfig(seed=31)
        b5 = KleBasis(T=1.0, d=5, alpha=vg.alpha)
        small = sample_coeffs(vg, b5, cfg)
        with pytest.raises(ValueError):
            extend_dimension(small, 3)

    def test_inconsistent_sample_rejected(self, vg):
        # A sample's key must give back its own z before it grows: another
        # z, or another index, seed or horizon with the same z, is rejected.
        cfg = ShotConfig(seed=31)
        small = sample_coeffs(vg, KleBasis(T=1.0, d=5, alpha=vg.alpha), cfg)
        other = sample_coeffs(vg, KleBasis(T=1.0, d=5, alpha=vg.alpha), cfg, sample_index=1)
        for bad in (replace(small, z=other.z), replace(small, z=np.nextafter(small.z, np.inf)),
                    replace(small, sample_index=1), replace(small, cfg=ShotConfig(seed=32)),
                    replace(small, basis=KleBasis(T=2.0, d=5, alpha=vg.alpha))):
            with pytest.raises(ValueError, match="inconsistent"):
                extend_dimension(bad, 25)

    def test_sample_carries_its_record(self, vg):
        # A sample holds its key and each jump part's stream up to its stop level.
        cfg = ShotConfig(seed=31)
        basis = KleBasis(T=2.0, d=5, alpha=vg.alpha)
        s = sample_coeffs(vg, basis, cfg, sample_index=6)
        assert s.d == 5 and s.model is vg and s.basis is basis and s.cfg is cfg and s.sample_index == 6
        assert (s.n_terms_pos, s.n_terms_neg) == (len(s.pos.gammas), len(s.neg.gammas))
        for label, _, part in vg.parts:
            rec = s.pos if label == PART_POS else s.neg
            assert rec.level == gamma_stop_level(center(part).tail_pos, basis.T, cfg)
            assert len(rec.uniforms) == len(rec.gammas) > 0 and rec.gammas[-1] < rec.level
        grown = extend_dimension(s, 9)
        assert grown.d == 9 and (grown.basis.T, grown.basis.d) == (2.0, 9)
        for a, b in ((grown.pos, s.pos), (grown.neg, s.neg)):
            assert np.array_equal(a.gammas, b.gammas) and np.array_equal(a.uniforms, b.uniforms)


class TestOneKernel:
    """Batch rows, single samples and grown samples come from one kernel."""

    @pytest.fixture(scope="class")
    def vg_gauss(self, vg):
        # The only model in the suite that combines jumps with a Gaussian part.
        return SplitModel("vg+gauss", vg.pos, vg.neg, gaussian_sigma2=0.5)

    @given(seed=st.integers(0, 2**32 - 1), start=st.integers(0, 10**6),
           chunk=st.integers(1, 4), d=st.integers(1, 140), extra=st.integers(1, 140))
    @settings(max_examples=15, deadline=None)
    def test_batch_single_and_extension_agree(self, vg_gauss, seed, start, chunk, d, extra):
        cfg = ShotConfig(seed=seed)
        basis = KleBasis(T=1.0, d=d, alpha=vg_gauss.alpha)
        wide = KleBasis(T=1.0, d=d + extra, alpha=vg_gauss.alpha)
        Z, n_pos, n_neg = _split_batch(vg_gauss, basis, cfg, 3, start, chunk)
        for j in range(3):
            s = sample_coeffs(vg_gauss, basis, cfg, sample_index=start + j)
            assert np.array_equal(Z[j], s.z)
            assert (n_pos[j], n_neg[j]) == (s.n_terms_pos, s.n_terms_neg)
            fresh = sample_coeffs(vg_gauss, wide, cfg, sample_index=start + j)
            assert np.array_equal(extend_dimension(s, d + extra).z, fresh.z)


    def test_batch_straddling_two_word_indices(self, vg_gauss):
        # Indices from 2^32 on take two uint32 words in the stream key, so a
        # chunk across 2^32 derives its streams in two groups; here the
        # first of three chunks (calls) of 5 does.
        cfg = ShotConfig(seed=2**40 + 5)
        basis = KleBasis(T=1.0, d=7, alpha=vg_gauss.alpha)
        start = 2**32 - 3
        Z, n_pos, n_neg = _split_batch(vg_gauss, basis, cfg, 12, start, 5)
        for j in range(12):
            s = sample_coeffs(vg_gauss, basis, cfg, sample_index=start + j)
            assert np.array_equal(Z[j], s.z)
            assert (n_pos[j], n_neg[j]) == (s.n_terms_pos, s.n_terms_neg)

    def test_samples_without_jumps(self):
        # A low-rate compound Poisson draws no jump in most samples: those
        # rows are the drift vector alone, and batch rows, chunking and
        # single samples still agree bitwise.
        cp = as_split(make_cp_exponential(rate=0.3, rho=1.0))
        basis = KleBasis(T=1.0, d=130, alpha=cp.alpha)
        cfg = ShotConfig(seed=23)
        Z, n_pos, _ = _split_batch(cp, basis, cfg, 40, 9, 7)
        assert 0 < np.count_nonzero(n_pos) < 40
        drift_only = basis.drift_vector(center(cp.pos).triple.a)
        assert np.array_equal(Z[n_pos == 0], np.broadcast_to(drift_only, Z[n_pos == 0].shape))
        assert np.array_equal(Z, sample_coeffs_batch(cp, basis, cfg, 40, start_index=9)[0])
        for j in (0, 1, 2, 39):
            assert np.array_equal(Z[j], sample_coeffs(cp, basis, cfg, sample_index=9 + j).z)


class TestExtremeHorizon:
    """Moments and prefix stability at T = 1e-6 and T = 1e6.

    The compound Poisson rate 20 / T keeps about 20 jumps per sample at
    either horizon. Gamma(1, 1) at T = 1e-6 keeps about 4.5e-5 jumps per
    sample, so its moments cannot be checked at a feasible N; only its
    prefix stability is.
    """

    @staticmethod
    def _models(T):
        return {"brownian": as_split(make_brownian(1.0)),
                "cp": as_split(make_cp_exponential(rate=20.0 / T, rho=1.0))}

    @pytest.mark.parametrize("T", [1e-6, 1e6])
    def test_moments_match_eigenvalues(self, T):
        for name, model in self._models(T).items():
            basis = KleBasis(T=T, d=5, alpha=model.alpha)
            Z, _, _ = sample_coeffs_batch(model, basis, ShotConfig(seed=31), 4000)
            checks = {c["name"]: c for c in moment_suite(model, basis, Z)}
            for check in ("moments.mean_zero", "moments.variance_eigenvalue"):
                assert checks[check]["passed"], (name, T, checks[check])

    @pytest.mark.parametrize("T", [1e-6, 1e6])
    def test_prefix_stable(self, T):
        models = self._models(T)
        if T < 1.0:
            models["gamma"] = as_split(make_gamma(1.0, 1.0))
        cfg = ShotConfig(seed=32)
        for name, model in models.items():
            narrow, _, _ = sample_coeffs_batch(model, KleBasis(T=T, d=5, alpha=model.alpha), cfg, 200)
            wide, _, _ = sample_coeffs_batch(model, KleBasis(T=T, d=50, alpha=model.alpha), cfg, 200)
            assert np.all(np.isfinite(wide)), name
            assert np.array_equal(wide[:, :5], narrow), name

    def test_gamma_long_horizon_exceeds_term_cap_before_drawing(self):
        # The stop level 45.47 * T * c = 4.5e7 is the expected term count,
        # far above the default cap of 1e6 terms.
        model = as_split(make_gamma(1.0, 1.0))
        basis = KleBasis(T=1e6, d=5, alpha=model.alpha)
        with pytest.raises(TruncationCapError) as err:
            sample_coeffs_batch(model, basis, ShotConfig(seed=33), 2)
        assert err.value.n_drawn == 0
