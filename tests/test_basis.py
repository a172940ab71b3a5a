"""Sine eigenbasis, integrated basis, drift shapes and path reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levykle.basis import KleBasis, reconstruct, variance_capture
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
        approx = reconstruct(b, z, grid)
        manual = b.eigenfunction_matrix(grid) @ z
        assert np.allclose(approx.values, manual, rtol=1e-14)
        assert approx.mode == "partial"
        assert approx.d == 3

    def test_cesaro_reweights_coefficients(self):
        b = KleBasis(T=1.0, d=4, alpha=1.0)
        z = np.array([1.0, 1.0, 1.0, 1.0])
        grid = np.linspace(0.0, 1.0, 5)
        ces = reconstruct(b, z, grid, mode="cesaro")
        # Average of the partial sums S_1..S_d equals weights 1-(k-1)/d.
        partials = np.cumsum(b.eigenfunction_matrix(grid), axis=1)
        assert np.allclose(ces.values, partials.mean(axis=1), rtol=1e-12)

    def test_mean_rate_adds_deterministic_ramp(self):
        b = KleBasis(T=2.0, d=3, alpha=1.0)
        z = np.zeros(3)
        grid = np.linspace(0.0, 2.0, 9)
        approx = reconstruct(b, z, grid, mean_rate=0.5)
        assert np.allclose(approx.values, 0.5 * grid, rtol=1e-14)

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
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            KleBasis(**kwargs)
