"""Release gate: every stated numeric contract, one recorded line each.

Seeds are pinned so the statistical criteria are reproducible; each test
records a summary line (printed in the terminal section) before asserting,
so failures still report their measured statistic.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import record_acceptance
from levykle.basis import KleBasis, reconstruct, variance_capture
from levykle.models import (
    as_split,
    center,
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
    ShotConfig,
    arrival_stream,
    extend_dimension,
    sample_coeffs,
    sample_coeffs_batch,
)
from levykle.special import default_e1_inverse, exp_integral_e1

N_MOMENT = 100_000
SEED_MOMENT = 103
SEED_KS_FULL = 41
SEED_KS_SMOKE = 42
SEED_BRUTE_A = 51
SEED_BRUTE_B = 52
SEED_TAIL_STUDY = 71
SEED_GIBBS = 218


def _pf(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


@pytest.fixture(scope="module")
def vg_run():
    """Shared VG coefficient matrix: T=1, d=5, N=1e5."""
    model = make_variance_gamma()
    basis = KleBasis(T=1.0, d=5, alpha=model.alpha)
    Z, _, _ = sample_coeffs_batch(model, basis, ShotConfig(seed=SEED_MOMENT), N_MOMENT)
    return model, basis, Z


@pytest.fixture(scope="module")
def gamma_run():
    """Gamma(1,1) terminal values both ways plus retained term counts."""
    model = make_gamma(1.0, 1.0)
    basis = KleBasis(T=1.0, d=3000, alpha=model.alpha)
    cfg = ShotConfig(seed=SEED_KS_FULL)
    Z, n_pos, _ = sample_coeffs_batch(as_split(model), basis, cfg, 10_000)
    e_T = basis.eigenfunction_matrix(np.array([1.0]))[0]
    s_T = Z @ e_T
    del Z
    direct = direct_series_subordinator(model.tail_pos, 1.0, 1.0, 10_000, 7, cfg)
    direct = direct - model.mean_rate * 1.0
    return s_T, n_pos, direct


class TestCriterion1:
    def test_variance_capture_thresholds(self):
        v = {d: variance_capture(d) for d in (1, 2, 4, 5, 20, 21)}
        ok = (v[2] >= 0.90 and v[5] >= 0.95 and v[21] >= 0.99
              and v[1] < 0.90 and v[4] < 0.95 and v[20] < 0.99)
        record_acceptance(
            "criterion 1 variance capture: "
            f"d=2 {v[2]:.5f}>=0.90, d=5 {v[5]:.5f}>=0.95, d=21 {v[21]:.5f}>=0.99, "
            f"tight below at d=1,4,20: {_pf(ok)}")
        assert ok, v


class TestCriterion2:
    def test_moment_contract(self, vg_run):
        _, basis, Z = vg_run
        n, d = Z.shape
        lam = basis.eigenvalues()
        mean = Z.mean(axis=0)
        se_mean = Z.std(axis=0, ddof=1) / math.sqrt(n)
        var = Z.var(axis=0, ddof=1)
        m4 = ((Z - mean) ** 4).mean(axis=0)
        se_var = np.sqrt((m4 - var**2) / n)
        corr = np.corrcoef(Z, rowvar=False)
        max_corr = float(np.abs(corr[np.triu_indices(d, 1)]).max())
        r_mean = float((np.abs(mean) / se_mean).max())
        r_var = float((np.abs(var - lam) / se_var).max())
        bound = 4.0 / math.sqrt(n)
        ok = r_mean <= 4.0 and r_var <= 4.0 and max_corr <= bound
        record_acceptance(
            "criterion 2 moments (VG, d=5, N=1e5): "
            f"max|mean|/SE {r_mean:.2f}<=4, max|var-lambda|/SE {r_var:.2f}<=4, "
            f"max|corr| {max_corr:.5f}<={bound:.5f}: {_pf(ok)}")
        assert ok


class TestCriterion3:
    def test_characteristic_function_grid(self, vg_run):
        model, _, Z = vg_run
        basis3 = KleBasis(T=1.0, d=3, alpha=model.alpha)
        Z3 = Z[:, :3]
        tol = 4.0 / math.sqrt(len(Z3))
        worst = 0.0
        for pt in itertools.product((-0.5, 0.0, 0.5), repeat=3):
            z = np.array(pt)
            target = np.exp(-coeff_char_exponent(model, basis3, z))
            worst = max(worst, abs(complex(np.exp(1j * (Z3 @ z)).mean()) - target))
        ok = worst <= tol
        record_acceptance(
            "criterion 3 characteristic function (VG, d=3, 27 grid points, N=1e5): "
            f"max error {worst:.5f}<={tol:.5f}: {_pf(ok)}")
        assert ok


class TestCriterion4:
    def test_squared_coefficient_dependence(self, vg_run):
        model, basis, Z = vg_run
        n = len(Z)
        kappa = mixed_fourth_cumulant(model, basis, 1, 2)
        a, b = Z[:, 0] ** 2, Z[:, 1] ** 2
        prods = (a - a.mean()) * (b - b.mean())
        cov = float(prods.mean()) * n / (n - 1)
        se = float(prods.std(ddof=1)) / math.sqrt(n)
        dev = abs(cov - kappa) / se
        zpos = cov / se

        bm = as_split(make_brownian(1.0))
        basis2 = KleBasis(T=1.0, d=2, alpha=1.0)
        Zb, _, _ = sample_coeffs_batch(bm, basis2, ShotConfig(seed=SEED_MOMENT), N_MOMENT)
        ab, bb = Zb[:, 0] ** 2, Zb[:, 1] ** 2
        pb = (ab - ab.mean()) * (bb - bb.mean())
        zb = abs(float(pb.mean()) * n / (n - 1)) / (float(pb.std(ddof=1)) / math.sqrt(n))

        ok = dev <= 5.0 and zpos > 4.0 and zb <= 5.0
        record_acceptance(
            "criterion 4 dependence of squares: VG |cov-oracle| "
            f"{dev:.2f}SE<=5, positivity z {zpos:.1f}>4; Brownian null {zb:.2f}SE<=5: {_pf(ok)}")
        assert ok, (dev, zpos, zb)


class TestCriterion5:
    def test_terminal_law_full_scale(self, gamma_run):
        s_T, _, direct = gamma_run
        res = ks_two_sample(s_T, direct)
        ok = res.pvalue >= 0.01
        record_acceptance(
            "criterion 5 terminal law, gamma(1,1) direct series vs d=3000 expansion "
            f"(N=1e4 each): KS D={res.statistic:.4f} p={res.pvalue:.4f}>=0.01: {_pf(ok)}")
        assert ok

    def test_terminal_law_smoke_variant(self):
        model = make_gamma(1.0, 1.0)
        basis = KleBasis(T=1.0, d=300, alpha=model.alpha)
        cfg = ShotConfig(seed=SEED_KS_SMOKE)
        Z, _, _ = sample_coeffs_batch(as_split(model), basis, cfg, 2000)
        s_T = Z @ basis.eigenfunction_matrix(np.array([1.0]))[0]
        direct = direct_series_subordinator(model.tail_pos, 1.0, 1.0, 2000, 7, cfg)
        res = ks_two_sample(s_T, direct - model.mean_rate)
        ok = res.pvalue >= 0.01
        record_acceptance(
            "criterion 5 terminal law smoke variant (d=300, N=2000): "
            f"KS D={res.statistic:.4f} p={res.pvalue:.4f}>=0.01: {_pf(ok)}")
        assert ok


class TestCriterion6:
    def test_brute_force_moment_equivalence(self):
        model = make_cp_exponential(2.0, 1.0)
        basis = KleBasis(T=1.0, d=5, alpha=model.alpha)
        n = 10_000
        Zs, _, _ = sample_coeffs_batch(as_split(model), basis, ShotConfig(seed=SEED_BRUTE_A), n)
        centered = center(model)
        ref = np.array([
            brute_force_coeffs(centered, basis, arrival_stream(np.random.SeedSequence((SEED_BRUTE_B, i)), 64))
            for i in range(n)
        ])

        def max_ratio(A, B):
            se = np.sqrt(A.var(axis=0, ddof=1) / n + B.var(axis=0, ddof=1) / n)
            return float((np.abs(A.mean(axis=0) - B.mean(axis=0)) / se).max())

        r1 = max_ratio(Zs, ref)
        r2 = max_ratio(Zs**2, ref**2)
        ok = r1 <= 5.0 and r2 <= 5.0
        record_acceptance(
            "criterion 6 brute-force equivalence, cp_exponential(2,1), N=1e4: "
            f"first moments {r1:.2f}SE<=5, second moments {r2:.2f}SE<=5: {_pf(ok)}")
        assert ok, (r1, r2)


class TestCriterion7:
    def test_mc_mean_study(self, vg_run):
        model, basis, Z = vg_run
        n = len(Z)
        grid = np.linspace(0.0, 1.0, 101)[1:]
        S = Z @ basis.eigenfunction_matrix(grid).T
        dev = np.abs(S.mean(axis=0))
        stderr = S.std(axis=0, ddof=1) / math.sqrt(n)
        r = float((dev / stderr).max())
        ok = r <= 4.0
        record_acceptance(
            "criterion 7a MC mean (VG, d=5, N=1e5): "
            f"max_t |mean - t/2| = {r:.2f} stderr <= 4: {_pf(ok)}")
        assert ok

    def test_tail_dimensions_gain_little(self):
        model = make_variance_gamma()
        n = 20_000
        b3000 = KleBasis(T=1.0, d=3000, alpha=model.alpha)
        Z, _, _ = sample_coeffs_batch(model, b3000, ShotConfig(seed=SEED_TAIL_STUDY), n)
        grid = np.linspace(0.0, 1.0, 101)[1:]
        emat = b3000.eigenfunction_matrix(grid)
        S25 = Z[:, :25] @ emat[:, :25].T
        S3000 = Z @ emat.T
        del Z
        diff = np.abs(S25.mean(axis=0) - S3000.mean(axis=0))
        pooled = np.sqrt(S25.var(axis=0, ddof=1) / n + S3000.var(axis=0, ddof=1) / n)
        r = float((diff / pooled).max())
        ok = r < 2.0
        record_acceptance(
            "criterion 7b error curves d=25 vs d=3000 (VG, N=2e4, common samples): "
            f"max pointwise gap {r:.2f} pooled SE < 2: {_pf(ok)}")
        assert ok

    @pytest.mark.slow
    def test_mc_mean_publication_scale(self):
        # N=1e6 long mode; chunked so the d=3000 matrix never materializes.
        model = make_variance_gamma()
        n, chunk = 1_000_000, 10_000
        b3000 = KleBasis(T=1.0, d=3000, alpha=model.alpha)
        grid = np.linspace(0.0, 1.0, 101)[1:]
        emat = b3000.eigenfunction_matrix(grid)
        cfg = ShotConfig(seed=SEED_TAIL_STUDY)
        sums = {25: np.zeros(len(grid)), 3000: np.zeros(len(grid))}
        sq = {25: np.zeros(len(grid)), 3000: np.zeros(len(grid))}
        for start in range(0, n, chunk):
            Z, _, _ = sample_coeffs_batch(model, b3000, cfg, chunk, start_index=start)
            for d in (25, 3000):
                S = Z[:, :d] @ emat[:, :d].T
                sums[d] += S.sum(axis=0)
                sq[d] += (S * S).sum(axis=0)
        means = {d: sums[d] / n for d in sums}
        var = {d: (sq[d] - n * means[d] ** 2) / (n - 1) for d in sums}
        diff = np.abs(means[25] - means[3000])
        pooled = np.sqrt(var[25] / n + var[3000] / n)
        r = float((diff / pooled).max())
        ok = r < 2.0
        record_acceptance(
            "criterion 7 long mode (VG, N=1e6): "
            f"max pointwise gap {r:.2f} pooled SE < 2: {_pf(ok)}")
        assert ok


class TestCriterion8:
    def test_expected_series_length(self, gamma_run):
        # The truncation level is 45.47 T c; the quoted 45 T c rounds it to
        # two figures. The count is checked tightly against the level that
        # actually parameterizes the sampler and loosely against the round
        # number.
        _, n_pos, _ = gamma_run
        mean = float(n_pos.mean())
        se = float(n_pos.std(ddof=1)) / math.sqrt(len(n_pos))
        dev_exact = abs(mean - 45.47) / se
        dev_round = abs(mean - 45.0)
        ok = dev_exact <= 5.0 and dev_round <= 0.5
        record_acceptance(
            "criterion 8 series length, gamma(1,1), 1e4 runs: "
            f"mean {mean:.3f} within {dev_exact:.2f}SE<=5 of 45.47Tc and "
            f"|mean-45Tc|={dev_round:.3f}<=0.5: {_pf(ok)}")
        assert ok, (mean, se)

    def test_cutoff_insensitivity_on_fixed_streams(self):
        g = as_split(make_gamma(1.0, 1.0))
        basis = KleBasis(T=1.0, d=6, alpha=1.0)
        worst = 0.0
        for idx in range(3):
            a = sample_coeffs(g, basis, ShotConfig(seed=5, gamma_cutoff=45.47), sample_index=idx).z
            b = sample_coeffs(g, basis, ShotConfig(seed=5, gamma_cutoff=60.0), sample_index=idx).z
            worst = max(worst, float(np.max(np.abs(a - b))))
        ok = worst < 1e-12
        record_acceptance(
            f"criterion 8 cutoff insensitivity: raising 45.47 -> 60 changes "
            f"coefficients by {worst:.2e} < 1e-12: {_pf(ok)}")
        assert ok


class TestCriterion9:
    def test_inverse_table_roundtrip_and_spacing(self, e1_table):
        table = e1_table
        n_points = len(table.values)
        spacing = float(np.max(np.diff(table.breakpoints)))
        xs = np.logspace(math.log10(table.values.min() * 1.01),
                         math.log10(table.values.max() * 0.99), 500)
        back = table(exp_integral_e1(xs))
        err = float(np.max(np.abs(back - xs) / np.maximum(1.0, xs)))
        ok = err <= 1e-8 and spacing <= 0.00231 and n_points == 200_000
        record_acceptance(
            "criterion 9 inverse E1 table: "
            f"roundtrip {err:.2e}<=1e-8, spacing {spacing:.2e}<=0.00231, "
            f"{n_points} points: {_pf(ok)}")
        assert ok, (err, spacing, n_points)


class TestCriterion10:
    def test_cesaro_suppresses_overshoot(self):
        model = center(make_cp_exponential(2.0, 1.0))
        basis = KleBasis(T=1.0, d=500, alpha=model.alpha)
        s = sample_coeffs(as_split(model), basis, ShotConfig(seed=SEED_GIBBS))
        rec = s.pos
        times = basis.T * rec.uniforms
        sizes = model.tail_pos.g_inv(rec.gammas / basis.T)
        big = int(np.argmax(sizes))
        jump, t0 = float(sizes[big]), float(times[big])
        assert jump >= 1.0 and t0 + 0.04 < basis.T
        grid = t0 + np.linspace(1e-4, 0.04, 800)
        m = model.jump_mean
        truth = (sizes[None, :] * (times[None, :] <= grid[:, None])).sum(axis=1) - m * grid
        partial = reconstruct(basis, s.z, grid, mode="partial")
        cesaro = reconstruct(basis, s.z, grid, mode="cesaro")
        over_p = float(np.max(partial - truth))
        over_c = float(np.max(cesaro - truth))
        ok = over_p > over_c
        record_acceptance(
            f"criterion 10 Gibbs mitigation: jump {jump:.3f} at t={t0:.3f}, d=500 "
            f"partial-sum overshoot {over_p:.4f} > Cesaro {over_c:.4f}: {_pf(ok)}")
        assert ok


class TestCriterion11:
    def test_incremental_dimension_bit_exact(self, vg):
        cfg = ShotConfig(seed=31)
        b5 = KleBasis(T=1.0, d=5, alpha=vg.alpha)
        b25 = KleBasis(T=1.0, d=25, alpha=vg.alpha)
        ok = True
        for idx in range(3):
            small = sample_coeffs(vg, b5, cfg, sample_index=idx)
            grown = extend_dimension(small, 25)
            fresh = sample_coeffs(vg, b25, cfg, sample_index=idx)
            ok = ok and np.array_equal(grown.z, fresh.z) and np.array_equal(grown.z[:5], small.z)
        record_acceptance(
            f"criterion 11 incremental dimension 5 -> 25 bit-exact vs fresh run: {_pf(ok)}")
        assert ok
