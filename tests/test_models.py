"""Generating triples, tail integrals, centering and the stock processes."""

import cmath
import math

import numpy as np
import pytest

from levykle.basis import KleBasis
from levykle.models import (
    ModelConditionError,
    as_split,
    center,
    from_density,
    make_brownian,
    make_cp_exponential,
    make_gamma,
    make_variance_gamma,
    model_from_config,
)
from levykle.shotnoise import ShotConfig, sample_coeffs_batch
from levykle.special import quad
from levykle.validation import roundtrip_suite

# Integral of the tabulated E1 inverse from 0 to 3, computed two independent
# ways (closed form and nested quadrature) with mpmath.
GAMMA11_INVERSE_INTEGRAL_AT_3 = 0.971646508561076


class TestBrownian:
    def test_triple(self):
        bm = make_brownian(2.5)
        assert bm.triple.sigma2 == 2.5
        assert bm.triple.a == 0.0
        assert bm.tail_pos is None
        assert bm.alpha == 2.5
        assert bm.mean_rate == 0.0
        assert bm.is_centered

    def test_psi(self):
        bm = make_brownian(2.0)
        assert bm.psi(0.3) == pytest.approx(0.5 * 2.0 * 0.09, rel=1e-14)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            make_brownian(0.0)


class TestGamma:
    def test_moment_structure(self):
        g = make_gamma(2.0, 3.0)
        assert g.alpha == pytest.approx(2.0 / 9.0, rel=1e-14)
        assert g.mean_rate == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert not math.isfinite(g.tail_pos.g0)

    def test_tail_is_scaled_e1(self):
        g = make_gamma(1.5, 2.0)
        for x in (0.01, 0.3, 1.0, 4.0):
            direct = quad(lambda s: 1.5 * math.exp(-2.0 * s) / s, x, math.inf)
            assert g.tail_pos.g(x) == pytest.approx(direct, rel=1e-10)

    def test_tail_inverse_roundtrip(self):
        g = make_gamma(1.0, 1.0)
        xs = np.logspace(-10, 1.5, 60)
        ys = g.tail_pos.g(xs)
        back = g.tail_pos.g_inv(ys)
        assert np.max(np.abs(back - xs) / np.maximum(1.0, xs)) <= 1e-8

    def test_inverse_integral_closed_form(self):
        g = make_gamma(1.0, 1.0)
        assert g.tail_pos.inverse_integral(3.0) == pytest.approx(
            GAMMA11_INVERSE_INTEGRAL_AT_3, rel=1e-9)
        # Against straight quadrature of the inverse.
        for Y in (0.5, 3.0, 20.0):
            direct = quad(lambda s: float(g.tail_pos.g_inv(s)), 0.0, Y, rtol=1e-10)
            assert g.tail_pos.inverse_integral(Y) == pytest.approx(direct, rel=1e-7)

    def test_inverse_integral_saturates_at_mean_rate(self):
        g = make_gamma(2.0, 3.0)
        big = g.tail_pos.g(1e-25)
        assert g.tail_pos.inverse_integral(big) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_psi_closed_form(self):
        g = make_gamma(2.0, 3.0)
        z = 0.7
        assert g.psi(z) == pytest.approx(2.0 * cmath.log(1 - 1j * z / 3.0), rel=1e-14)

    def test_cutoff_scale_carries_density_mass(self):
        assert make_gamma(2.5, 1.0).tail_pos.cutoff_scale == 2.5


class TestCpExponential:
    def test_finite_activity(self):
        cp = make_cp_exponential(3.0, 1.5)
        assert cp.tail_pos.g0 == 3.0
        assert cp.alpha == pytest.approx(2.0 * 3.0 / 1.5**2, rel=1e-14)
        assert cp.mean_rate == pytest.approx(2.0, rel=1e-14)

    def test_tail_and_inverse(self):
        cp = make_cp_exponential(3.0, 1.5)
        xs = np.linspace(0.01, 8.0, 40)
        ys = cp.tail_pos.g(xs)
        assert np.allclose(ys, 3.0 * np.exp(-1.5 * xs), rtol=1e-14)
        assert np.max(np.abs(cp.tail_pos.g_inv(ys) - xs)) <= 1e-10

    def test_inverse_above_total_mass_clamps_to_zero(self):
        cp = make_cp_exponential(3.0, 1.5)
        assert cp.tail_pos.g_inv(3.0) == 0.0
        assert cp.tail_pos.g_inv(5.0) == 0.0

    def test_inverse_integral_matches_quadrature(self):
        cp = make_cp_exponential(3.0, 1.5)
        for Y in (0.25, 1.0, 2.9):
            direct = quad(lambda s: float(cp.tail_pos.g_inv(s)), 0.0, Y, rtol=1e-11)
            assert cp.tail_pos.inverse_integral(Y) == pytest.approx(direct, rel=1e-9)
        assert cp.tail_pos.inverse_integral(3.0) == pytest.approx(2.0, rel=1e-12)

    def test_psi_closed_form(self):
        cp = make_cp_exponential(2.0, 1.0)
        z = 0.4
        # Compound Poisson with Exp(rho) jumps.
        expected = -2.0 * (1.0 / (1.0 - 1j * z / 1.0) - 1.0)
        assert cp.psi(z) == pytest.approx(expected, rel=1e-12)


class TestCentering:
    @pytest.mark.parametrize("factory", [
        lambda: make_gamma(1.0, 1.0),
        lambda: make_gamma(2.0, 3.0),
        lambda: make_cp_exponential(3.0, 1.5),
    ])
    def test_center_zeroes_the_mean(self, factory):
        model = factory()
        c = center(model)
        assert c.is_centered
        assert c.mean_rate == pytest.approx(0.0, abs=1e-14)
        assert c.triple.a == pytest.approx(model.triple.a - model.jump_mean, rel=1e-14)
        # Centering shifts the exponent by i z mu.
        z = 0.3
        assert c.psi(z) == pytest.approx(model.psi(z) + 1j * z * model.jump_mean, rel=1e-12)

    def test_center_is_idempotent_on_values(self):
        c = center(make_gamma(1.0, 1.0))
        cc = center(c)
        assert cc.mean_rate == pytest.approx(0.0, abs=1e-14)
        assert cc.triple.a == pytest.approx(c.triple.a, rel=1e-14)


class TestPsiCurvature:
    @pytest.mark.parametrize("model,alpha", [
        (make_brownian(1.7), 1.7),
        (make_gamma(1.0, 1.0), 1.0),
        (make_cp_exponential(2.0, 1.0), 4.0),
        (make_variance_gamma(), 1.25),
    ])
    def test_second_derivative_recovers_variance_rate(self, model, alpha):
        # psi''(0) by central differences (psi(0) = 0) with one Richardson step.
        def second(h):
            return float((model.psi(h) + model.psi(-h)).real) / (h * h)

        assert (4.0 * second(5e-5) - second(1e-4)) / 3.0 == pytest.approx(alpha, rel=1e-6)


class TestVarianceGamma:
    def test_reference_parameters(self, vg):
        assert vg.alpha == pytest.approx(1.25, rel=1e-14)
        assert vg.mean_rate == pytest.approx(0.5, rel=1e-14)
        assert vg.gaussian_sigma2 == 0.0

    def test_uncentered_exponent(self, vg):
        for z in (0.25, 1.0, -0.7):
            expected = cmath.log(1 - 1j * z) + cmath.log(1 + 1j * z / 2.0)
            assert vg.psi_uncentered(z) == pytest.approx(expected, rel=1e-13)

    def test_centered_exponent_has_zero_slope(self, vg):
        h = 1e-6
        slope = (vg.psi(h) - vg.psi(-h)) / (2 * h)
        assert abs(slope.imag) < 1e-8
        assert vg.psi(0.0) == 0

    def test_centered_parts_have_zero_mean(self, vg):
        assert center(vg.pos).is_centered and center(vg.neg).is_centered


class TestFromDensity:
    def test_rebuilds_gamma_tail(self):
        model = from_density("custom", lambda x: math.exp(-x) / x)
        ref = make_gamma(1.0, 1.0)
        assert model.alpha == pytest.approx(1.0, rel=1e-7)
        assert model.jump_mean == pytest.approx(1.0, rel=1e-8)
        for x in (0.05, 0.4, 2.0):
            assert model.tail_pos.g(x) == pytest.approx(ref.tail_pos.g(x), rel=1e-7)
            y = model.tail_pos.g(x)
            assert model.tail_pos.g_inv(y) == pytest.approx(x, rel=1e-7)

    def test_quadrature_psi_fallback(self):
        model = from_density("custom", lambda x: 2.0 * math.exp(-x))
        ref = make_cp_exponential(2.0, 1.0)
        for z in (0.2, 0.9):
            assert model.psi(z) == pytest.approx(ref.psi(z), rel=1e-7)

    def test_infinite_activity_density_samples(self):
        # The case from_density exists for: an infinite-activity density with
        # a singularity at zero, truncated by an absolute jump floor.
        model = as_split(from_density("s15", lambda x: math.exp(-x) * x**-1.5))
        assert math.isinf(model.pos.tail_pos.g0)
        assert all(c["passed"] for c in roundtrip_suite(model))
        basis = KleBasis(T=1.0, d=4, alpha=model.alpha)
        cfg = ShotConfig(seed=1, jump_floor=1e-4)
        Z, n_pos, _ = sample_coeffs_batch(model, basis, cfg, 20)
        stop = float(model.pos.tail_pos.g(1e-4))
        assert np.all(np.isfinite(Z))
        assert abs(n_pos.mean() - stop) < 4.0 * math.sqrt(stop / len(n_pos))

    def test_square_integrability_enforced(self):
        # x^-3 tail mass makes x^2 pi(x) non-integrable at infinity.
        with pytest.raises(ModelConditionError):
            from_density("heavy", lambda x: x**-3)

    def test_small_jump_variation_enforced(self):
        # x^-2.5 near zero violates integrability of x pi(x).
        with pytest.raises(ModelConditionError):
            from_density("wild", lambda x: x**-2.5 * math.exp(-x))


class TestModelFromConfig:
    def test_dispatch(self):
        m = model_from_config({"model": "gamma", "c": 2.0, "rho": 3.0})
        assert m.pos is not None and m.neg is None
        assert m.alpha == pytest.approx(2.0 / 9.0, rel=1e-14)
        m = model_from_config({"model": "variance_gamma"})
        assert m.alpha == pytest.approx(1.25, rel=1e-14)
        m = model_from_config({"model": "brownian", "sigma2": 2.0})
        assert m.gaussian_sigma2 == 2.0
        m = model_from_config({"model": "cp_exponential", "rate": 2.0, "rho": 1.0})
        assert m.pos.tail_pos.g0 == 2.0

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            model_from_config({"model": "cauchy"})


class TestFactoryParameters:
    @pytest.mark.parametrize("factory,n_params", [
        (make_brownian, 1), (make_gamma, 2), (make_cp_exponential, 2), (make_variance_gamma, 4)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_nonfinite_or_nonpositive_rejected(self, factory, n_params, bad):
        # Each parameter in turn; the message says what is required, and a
        # bad value is refused before anything evaluates it (no warning).
        for i in range(n_params):
            params = [1.0] * n_params
            params[i] = bad
            with pytest.raises(ValueError, match="positive and finite"):
                factory(*params)
