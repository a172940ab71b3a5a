"""Sine eigenbasis, integrated basis, drift shapes and path reconstruction."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levykle.basis import _MAX_DIMENSION, KleBasis, reconstruct, variance_capture
from levykle.shotnoise import shot_sum
from levykle.special import quad

# mpmath references at 50 digits.
LAMBDA_1_UNIT = 0.40528473456935109      # 4 / pi^2
DRIFT_1_UNIT = 0.57315916825075626       # 4 sqrt(2) / pi^2
F_MAP_UNIT = (0.90031631615710607, 0.30010543871903536)
CAPTURE = {
    1: 0.81056946913870217,
    2: 0.90063274348744686,
    4: 0.94959775631705009,
    5: 0.95960478680024394,
    20: 0.98986999065039661,
    21: 0.99035218545654694,
    25: 0.991895385463444,
    100: 0.99797359321342619,
}


def _e(basis, k, t):
    """e_k(t) read off the eigenfunction matrix."""
    return float(basis.eigenfunction_matrix(t)[0, k - 1])


@pytest.fixture
def unit_basis():
    return KleBasis(T=1.0, d=6, alpha=1.0)


class TestEigenpairs:
    def test_first_eigenvalue(self, unit_basis):
        assert unit_basis.eigenvalues()[0] == pytest.approx(LAMBDA_1_UNIT, rel=1e-14)

    def test_eigenvalues_scale_with_alpha_and_horizon(self):
        b = KleBasis(T=3.0, d=4, alpha=2.0)
        ref = KleBasis(T=1.0, d=4, alpha=1.0)
        assert np.allclose(b.eigenvalues(), 2.0 * 9.0 * ref.eigenvalues(), rtol=1e-14)

    def test_eigenvalue_valid_beyond_d(self, unit_basis):
        # The closed form holds for every k >= 1: a wider basis extends the
        # eigenvalues of a narrower one.
        wide = KleBasis(T=1.0, d=50, alpha=1.0)
        assert wide.eigenvalues()[49] == pytest.approx(1.0 / (math.pi * 49.5 / 1.0) ** 2 * 1.0, rel=1e-12)
        assert np.array_equal(wide.eigenvalues()[:6], unit_basis.eigenvalues())

    def test_eigenfunctions_vanish_at_origin(self, unit_basis):
        assert np.allclose(unit_basis.eigenfunction_matrix(np.array([0.0])), 0.0)

    def test_eigenfunctions_alternate_at_horizon(self, unit_basis):
        e_T = unit_basis.eigenfunction_matrix(np.array([1.0]))[0]
        expected = math.sqrt(2.0) * np.array([1, -1, 1, -1, 1, -1])
        assert np.allclose(e_T, expected, rtol=1e-12)

    def test_orthonormality_by_quadrature(self):
        b = KleBasis(T=2.0, d=4, alpha=1.0)
        for j in range(1, 5):
            for k in range(j, 5):
                val = quad(lambda t: _e(b, j, t) * _e(b, k, t), 0.0, 2.0)
                assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)

    def test_matrix_matches_exactly_reduced_angles(self):
        # Oracle: np.sin of angles pi (k - 1/2) u reduced mod 2 pi in integer
        # arithmetic (u = N 2^-53, so (2k - 1) N mod 2^55 is exact in
        # wrapping uint64); the float64 product alone is off by up to 2e-12
        # at k = 3000. The angle sums stay within 1e-13 (about 2.5e-14
        # measured), also at the ends of [0, T].
        T, d = 2.0, 3000
        u = np.concatenate(([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0],
                            np.random.default_rng(3).random(1995)))
        n_u = (u * 2.0**53).astype(np.uint64)
        odd = (2 * np.arange(1, d + 1) - 1).astype(np.uint64)
        angles = np.pi * ((np.outer(n_u, odd) & np.uint64(2**55 - 1)) * 2.0**-54)
        emat = KleBasis(T=T, d=d, alpha=1.0).eigenfunction_matrix(T * u)
        assert emat.shape == (2000, d)
        assert np.max(np.abs(emat / math.sqrt(2.0 / T) - np.sin(angles))) <= 1e-13

    @pytest.mark.parametrize("d", [1, 63, 64, 65, 513])
    def test_matrix_is_prefix_of_wider_matrix(self, d):
        # Column k depends on k and t alone, not on how many columns are built.
        grid = np.linspace(0.0, 1.5, 301)
        wide = KleBasis(T=1.5, d=3000, alpha=1.0).eigenfunction_matrix(grid)
        assert np.array_equal(KleBasis(T=1.5, d=d, alpha=1.0).eigenfunction_matrix(grid), wide[:, :d])

    def test_matrix_holds_d_columns(self):
        # The matrix is the transpose of one C-ordered (d, len(grid)) array,
        # built from a ladder of min(d, 64) rungs: at d = 5 the build
        # allocates a few arrays of d columns, not of 64 (4.2 MB when the
        # last block was padded to 64 columns; about 0.45 MB now).
        grid = np.linspace(0.0, 1.0, 2000)
        basis = KleBasis(T=1.0, d=5, alpha=1.0)
        tracemalloc.start()
        try:
            emat = basis.eigenfunction_matrix(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emat.shape == (2000, 5) and emat.T.flags.c_contiguous
        assert peak < 8 * (5 * 2000 * 8)

    def test_time_bounds_enforced(self, unit_basis):
        for t in (1.5, -0.1):
            with pytest.raises(ValueError):
                unit_basis.eigenfunction_matrix(np.array([t]))
            with pytest.raises(ValueError):
                unit_basis.u_vector(t)


class TestIntegratedBasis:
    def test_u_is_tail_integral_of_eigenfunction(self):
        b = KleBasis(T=1.5, d=3, alpha=1.0)
        for k in (1, 2, 3):
            for t in (0.0, 0.4, 1.1):
                direct = quad(lambda s: _e(b, k, s), t, 1.5)
                assert b.u_vector(t)[k - 1] == pytest.approx(direct, abs=1e-12)

    def test_u_rows_for_an_array_of_times(self):
        b = KleBasis(T=1.5, d=70, alpha=1.0)
        ts = np.array([0.0, 0.4, 1.1, 1.5])
        rows = b.u_vector(ts)
        assert rows.shape == (4, 70)
        for t, row in zip(ts, rows):
            assert np.array_equal(row, b.u_vector(float(t)))
        assert b.u_vector(ts.reshape(2, 2)).shape == (2, 2, 70)
        with pytest.raises(ValueError):
            b.u_vector(np.array([0.5, 1.6]))

    def test_u_vanishes_at_horizon(self, unit_basis):
        assert np.max(np.abs(unit_basis.u_vector(1.0))) < 1e-15

    def test_f_map_reference_point(self):
        # The jump-to-coefficient map f(x, t) = x u(t), as the sampler applies
        # it: one jump of size 1 at time 0.
        b = KleBasis(T=1.0, d=2, alpha=1.0)
        assert shot_sum(b, np.array([1.0]), np.array([0.0])) == pytest.approx(F_MAP_UNIT, rel=1e-14)

    @given(x=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
           scale=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_f_map_linear_in_jump_size(self, x, scale):
        b = KleBasis(T=1.0, d=3, alpha=1.0)
        base = shot_sum(b, np.array([x]), np.array([0.3]))
        scaled = shot_sum(b, np.array([scale * x]), np.array([0.3]))
        assert np.allclose(scaled, scale * base, rtol=1e-12, atol=1e-12)

    def test_drift_vector_reference_and_decay(self):
        b = KleBasis(T=1.0, d=4, alpha=1.0)
        drift = b.drift_vector(1.0)
        assert drift[0] == pytest.approx(DRIFT_1_UNIT, rel=1e-14)
        assert np.all(np.sign(drift) == np.array([1, -1, 1, -1]))
        ratios = np.abs(drift[0] / drift)
        assert np.allclose(ratios, ((np.arange(4) + 0.5) / 0.5) ** 2, rtol=1e-12)

    def test_drift_vector_is_ramp_coefficients(self):
        # Componentwise int_0^T a t e_k(t) dt.
        b = KleBasis(T=2.0, d=3, alpha=1.0)
        drift = b.drift_vector(0.7)
        for k in (1, 2, 3):
            direct = quad(lambda t: 0.7 * t * _e(b, k, t), 0.0, 2.0)
            assert drift[k - 1] == pytest.approx(direct, rel=1e-10)

    def test_gaussian_variances_match_eigenvalues_when_alpha_is_sigma2(self):
        b = KleBasis(T=1.3, d=5, alpha=0.8)
        assert np.allclose(b.gaussian_coefficient_variances(0.8), b.eigenvalues(), rtol=1e-14)


class TestVarianceCapture:
    @pytest.mark.parametrize("d,expected", sorted(CAPTURE.items()))
    def test_reference_values(self, d, expected):
        assert variance_capture(d) == pytest.approx(expected, rel=1e-12)

    def test_monotone_increasing_to_one(self):
        vals = [variance_capture(d) for d in (1, 2, 5, 20, 100, 1000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert variance_capture(100000) > 0.999997


class TestReconstruct:
    def test_partial_sum_is_linear_combination(self):
        b = KleBasis(T=1.0, d=3, alpha=1.0)
        z = np.array([0.5, -0.2, 0.1])
        grid = np.linspace(0.0, 1.0, 7)
        values = reconstruct(b, z, grid)
        manual = b.eigenfunction_matrix(grid) @ z
        assert values.shape == grid.shape
        assert np.allclose(values, manual, rtol=1e-14)

    def test_cesaro_reweights_coefficients(self):
        b = KleBasis(T=1.0, d=4, alpha=1.0)
        z = np.array([1.0, 1.0, 1.0, 1.0])
        grid = np.linspace(0.0, 1.0, 5)
        ces = reconstruct(b, z, grid, mode="cesaro")
        # Average of the partial sums S_1..S_d equals weights 1-(k-1)/d.
        partials = np.cumsum(b.eigenfunction_matrix(grid), axis=1)
        assert np.allclose(ces, partials.mean(axis=1), rtol=1e-12)

    def test_mean_rate_adds_deterministic_ramp(self):
        b = KleBasis(T=2.0, d=3, alpha=1.0)
        z = np.zeros(3)
        grid = np.linspace(0.0, 2.0, 9)
        values = reconstruct(b, z, grid, mean_rate=0.5)
        assert np.allclose(values, 0.5 * grid, rtol=1e-14)

    def test_batch_rows_bitwise_equal_across_batches(self):
        # One product per block of at most 64 columns, added in block order,
        # so a row of a batch of two or more does not depend on the other
        # rows, nor on a prebuilt matrix being wider than d or C-ordered
        # (its blocks are copied to C-ordered operands). A batch of one
        # takes BLAS's matrix-vector route: close, not bitwise.
        rng = np.random.default_rng(11)
        grid = np.linspace(0.0, 1.0, 300)
        wide = KleBasis(T=1.0, d=3000, alpha=1.0)
        emat = wide.eigenfunction_matrix(grid)
        Z = rng.standard_normal((24, 3000)) / np.arange(1, 3001)
        for d in (5, 25, 64, 65, 3000):
            b = KleBasis(T=1.0, d=d, alpha=1.0)
            batch = reconstruct(b, Z[:, :d], grid)
            assert batch.shape == (24, len(grid))
            assert np.array_equal(reconstruct(b, Z[:, :d], grid, emat=emat), batch)
            assert np.array_equal(reconstruct(b, Z[:, :d], grid, emat=np.ascontiguousarray(emat)), batch)
            for lo in (0, 5, 22):
                assert np.array_equal(reconstruct(b, Z[lo:lo + 2, :d], grid), batch[lo:lo + 2])
            for i in (0, 7):
                single = reconstruct(b, Z[i, :d], grid)
                assert single.shape == grid.shape
                assert np.max(np.abs(single - batch[i])) <= 1e-14 * np.sum(np.abs(Z[i, :d]))

    def test_batch_cesaro_and_mean_rate(self):
        b = KleBasis(T=2.0, d=130, alpha=1.0)
        Z = np.random.default_rng(12).standard_normal((5, 130))
        grid = np.linspace(0.0, 2.0, 41)
        emat = b.eigenfunction_matrix(grid)
        weights = 1.0 - np.arange(130) / 130
        for mode, w in (("partial", 1.0), ("cesaro", weights)):
            values = reconstruct(b, Z, grid, mode=mode, mean_rate=0.5)
            assert values.shape == (5, len(grid))
            assert np.allclose(values, (Z * w) @ emat.T + 0.5 * grid, rtol=0.0, atol=1e-13)

    def test_bad_coefficient_or_matrix_shape_rejected(self):
        b = KleBasis(T=1.0, d=3, alpha=1.0)
        grid = np.linspace(0.0, 1.0, 4)
        for coeffs in (np.zeros(2), np.zeros((2, 4)), np.zeros((1, 2, 3))):
            with pytest.raises(ValueError):
                reconstruct(b, coeffs, grid)
        for emat in (np.zeros((4, 2)), np.zeros((5, 3))):
            with pytest.raises(ValueError):
                reconstruct(b, np.zeros(3), grid, emat=emat)

    def test_grid_outside_horizon_rejected(self):
        b = KleBasis(T=1.0, d=2, alpha=1.0)
        with pytest.raises(ValueError):
            reconstruct(b, np.zeros(2), np.array([0.0, 1.2]))

    def test_nonfinite_values_rejected(self):
        b = KleBasis(T=1.0, d=2, alpha=1.0)
        with pytest.raises(ValueError):
            reconstruct(b, np.array([math.nan, 0.0]), np.linspace(0, 1, 4))

    def test_invalid_mode_rejected(self):
        b = KleBasis(T=1.0, d=2, alpha=1.0)
        with pytest.raises(ValueError):
            reconstruct(b, np.zeros(2), np.linspace(0, 1, 4), mode="abel")


class TestBasisValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(T=0.0, d=3, alpha=1.0),
        dict(T=-1.0, d=3, alpha=1.0),
        dict(T=1.0, d=0, alpha=1.0),
        dict(T=1.0, d=3, alpha=-0.5),
        dict(T=math.inf, d=3, alpha=1.0),
        # The first eigenvalue 4 alpha T^2 / pi^2 overflows; T^2 alone does
        # in the second.
        dict(T=1e10, d=3, alpha=1e308),
        dict(T=1e200, d=3, alpha=1e-300),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            KleBasis(**kwargs)

    def test_dimension_bounded_by_exact_anchors(self):
        # Anchor angles are exact below k = 2^26 and shot_sum's last tile
        # reaches 512 columns past d; past the bound the coefficients would
        # come out silently wrong. The check runs before anything is built.
        assert _MAX_DIMENSION + 1024 == 2**26
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="d must be"):
                KleBasis(T=1.0, d=2**26, alpha=1.0)
            with pytest.raises(ValueError, match="d must be"):
                KleBasis(T=1.0, d=_MAX_DIMENSION + 1, alpha=1.0)
            assert KleBasis(T=1.0, d=_MAX_DIMENSION, alpha=1.0).d == _MAX_DIMENSION
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
