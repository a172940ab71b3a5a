"""Statistical validation suites comparing sampler output to the oracles.

Each suite returns a list of JSON-ready check records with the fields
``name``, ``statistic``, ``tolerance``, ``passed`` and ``detail``, and
``run_validation`` bundles them into a single report. The gates: for the
largest of m standardized means, variances or pairwise correlations, the z
with m P(|N(0, 1)| > z) = 1e-3 (Sidak 1967), at least 4 standard errors
(SE); 4 SE for the zero-jump atom mass and ``dependence.positive``;
4/sqrt(N) for the characteristic function;
5 SE for Cov(Z_1^2, Z_2^2) against its oracle and for ``dependence.null``;
level 0.01 for the KS test; relative 1e-8 for the tail roundtrips.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import ndtri

from .basis import KleBasis
from .models import SplitModel, TailIntegral, center
from .oracles import coeff_char_exponent, direct_series_subordinator, ks_two_sample, mixed_fourth_cumulant
# ``arrival_stream`` stays importable from here: the benchmark's tracer wraps
# ``validation.arrival_stream``, although the direct series draws its streams
# through ``shotnoise.arrival_streams``.
from .shotnoise import ShotConfig, arrival_stream, derive_rng, sample_coeffs_batch  # noqa: F401

__all__ = [
    "moment_suite",
    "cf_suite",
    "ks_suite",
    "dependence_suite",
    "roundtrip_suite",
    "run_validation",
]

# Sub-stream labels for oracle draws: the direct series of jump part
# ``label`` uses _DIRECT_PART + label (7 and 8); the samplers use parts 0..2,
# so these never collide with coefficient streams under the same seed.
_DIRECT_PART = 7
_REFERENCE_PART = 9
# Check-name suffixes of the jump parts, indexed by their labels.
_PART_NAMES = ("pos", "neg")
# Per-run false-alarm rate of each moment check, which gates the largest of
# its m standardized statistics (``_family_tolerance``).
_MOMENT_ALPHA = 1e-3
# Grid scale of the characteristic function check.
_CF_SCALE = 0.5
# KS significance level, and the number of samples the KS suite compares
# with the direct series.
_KS_LEVEL = 0.01
_KS_DIRECT = 2000
# Largest relative error allowed in a tail's inversion roundtrip.
_ROUNDTRIP_RTOL = 1e-8
# dependence.positive gates only where the oracle sits this many SE above 0:
# cov / SE is then about N(oracle / SE, 1), so it clears the 4 SE gate with
# probability at least 99% (one-sided z = 2.33) when the model is right.
_POSITIVE_MIN_ORACLE_SE = 4.0 + 2.33


def _check(name: str, statistic: float, tolerance: float, passed: bool, detail: str = "") -> dict:
    return {
        "name": name,
        "statistic": float(statistic),
        "tolerance": float(tolerance),
        "passed": bool(passed),
        "detail": detail,
    }


def _family_tolerance(m: int) -> float:
    """The gate on the largest |z| of m statistics: m P(|N(0, 1)| > z) = ``_MOMENT_ALPHA``, at least 4.

    Each statistic is about N(0, 1) when the model is right, so the family
    raises a false alarm with probability at most alpha whatever m is: 4.11
    at m = 25, 4.65 at m = 300 and 5.59 at m = 44850, where a fixed 4 failed
    correct samplers (Brownian coefficients at d = 300, m = 44850 pairs).
    """
    return max(4.0, float(ndtri(1.0 - _MOMENT_ALPHA / (2.0 * m))))


def moment_suite(model: SplitModel, basis: KleBasis, Z: np.ndarray) -> list[dict]:
    """Mean, variance and cross-correlation of the coefficient matrix.

    Checks the largest |mean(Z_k)| / SE and |var(Z_k) - lambda_k| / SE over
    the d coordinates (the SE of a sample variance uses the empirical fourth
    moment), and the largest pairwise |corr| / SE over the d (d - 1) / 2
    pairs, each against the tolerance of its number of statistics
    (``_family_tolerance``).
    """
    n, d = Z.shape
    lam = basis.eigenvalues()
    mean = Z.mean(axis=0)
    centered = Z - mean
    var = centered.var(axis=0, ddof=1)
    se_mean = np.sqrt(var / n)
    m4 = (centered**4).mean(axis=0)
    se_var = np.sqrt(np.maximum(m4 - var**2, 0.0) / n)
    mean_ratio = float(np.max(np.abs(mean) / se_mean))
    var_ratio = float(np.max(np.abs(var - lam) / se_var))
    tol = _family_tolerance(d)
    gate = f"m={d} statistics, alpha={_MOMENT_ALPHA:g}"
    checks = [
        _check("moments.mean_zero", mean_ratio, tol, mean_ratio <= tol,
               f"max_k |mean(Z_k)| / SE over {gate}"),
        _check("moments.variance_eigenvalue", var_ratio, tol, var_ratio <= tol,
               f"max_k |var(Z_k) - lambda_k| / SE over {gate}"),
    ]
    if d >= 2:
        corr = np.corrcoef(Z, rowvar=False)
        # For dependent coefficients the null variance of a sample correlation
        # is E[Z_j^2 Z_k^2] / (n var_j var_k), not 1/n; normalize pairwise.
        second = (Z * Z).T @ (Z * Z) / n
        se = np.sqrt(second / np.outer(var, var) / n)
        off_mask = ~np.eye(d, dtype=bool)
        ratio = float(np.max(np.abs(corr[off_mask]) / se[off_mask]))
        pairs = d * (d - 1) // 2
        tol = _family_tolerance(pairs)
        checks.append(_check("moments.uncorrelated", ratio, tol, ratio <= tol,
                             f"max off-diagonal |corr| / SE over m={pairs} statistics, alpha={_MOMENT_ALPHA:g}"))
    return checks


def cf_suite(model: SplitModel, basis: KleBasis, Z: np.ndarray) -> list[dict]:
    """Empirical characteristic function against the quadrature exponent.

    Evaluates both on the grid 0.5 * {-1, 0, 1}^m over the first
    m = min(d, 3) coordinates and compares the worst absolute deviation to
    4/sqrt(N).
    """
    n, d = Z.shape
    m = min(d, 3)
    pts = []
    for combo in itertools.product((-1.0, 0.0, 1.0), repeat=m):
        z = np.zeros(d)
        z[:m] = _CF_SCALE * np.array(combo)
        pts.append(z)
    grid = np.stack(pts)
    emp = np.exp(1j * (Z @ grid.T)).mean(axis=0)
    exact = np.exp(-coeff_char_exponent(model, basis, grid))
    worst = float(np.max(np.abs(emp - exact)))
    tol = 4.0 / math.sqrt(n)
    return [_check("cf.grid_agreement", worst, tol, worst <= tol,
                   f"max |empirical - exp(-Psi)| over {len(grid)} grid points")]


def ks_suite(model: SplitModel, basis: KleBasis, Z: np.ndarray, cfg: ShotConfig) -> list[dict]:
    """Two-sample KS between the expansion at t = T and an independent route.

    The expansion side is the partial sum S_T = <Z, e(T)> over the first
    2000 samples (all, if fewer), against as many reference draws. The
    reference is the centered direct series for jump parts (plus an exact
    Gaussian part), or, for a jump-free model, Gaussian draws with the
    truncated variance sum_k lambda_k e_k(T)^2. A purely finite-activity
    model has an atom at the zero-jump event whose location, not mass,
    depends on the truncation; the KS sup-distance between two atoms equals
    the atom mass however close they sit, so in that case the atom masses
    are compared as proportions and the KS test runs on the non-atom
    subsamples. Passes when the KS test is not rejected at level 0.01.
    """
    m = min(Z.shape[0], _KS_DIRECT)
    T = basis.T
    e_T = basis.eigenfunction_matrix(np.array([T]))[0]
    s_T = Z[:m] @ e_T

    ref = np.zeros(m)
    labels = []
    finite_activity = model.gaussian_sigma2 == 0.0
    atom_s = 0.0
    for label, sign, part in model.parts:
        ref += sign * direct_series_subordinator(part.tail_pos, T, T, m, _DIRECT_PART + label, cfg)
        labels.append(("+" if sign > 0.0 else "-") + _PART_NAMES[label])
        c = center(part)
        finite_activity &= math.isfinite(c.tail_pos.g0)
        atom_s += sign * float(basis.drift_vector(c.triple.a) @ e_T)
    if labels:
        ref -= model.mean_rate * T
    if model.gaussian_sigma2 > 0.0:
        rng = derive_rng(cfg.seed, 0, _REFERENCE_PART)
        if labels:
            sd = math.sqrt(model.gaussian_sigma2 * T)
        else:
            sd = math.sqrt(float(np.sum(basis.eigenvalues() * e_T**2)))
        ref += sd * rng.standard_normal(m)
        labels.append("gauss")

    checks = []
    if labels and finite_activity:
        atom_ref = -model.mean_rate * T
        tol = 1e-9 * (1.0 + abs(atom_s) + abs(atom_ref))
        on_atom_s = np.abs(s_T - atom_s) <= tol
        on_atom_ref = np.abs(ref - atom_ref) <= tol
        p1, p2 = on_atom_s.mean(), on_atom_ref.mean()
        pooled = (on_atom_s.sum() + on_atom_ref.sum()) / (2.0 * m)
        se = math.sqrt(max(2.0 * pooled * (1.0 - pooled) / m, 1e-300))
        zstat = abs(p1 - p2) / se
        checks.append(_check("ks.atom_mass", zstat, 4.0, zstat <= 4.0,
                             f"zero-jump atom fraction {p1:.4f} vs {p2:.4f}"))
        s_T = s_T[~on_atom_s]
        ref = ref[~on_atom_ref]
        if min(len(s_T), len(ref)) < 100:
            checks.append(_check("ks.terminal_marginal", 0.0, _KS_LEVEL, True,
                                 "skipped: fewer than 100 non-atom samples"))
            return checks
    res = ks_two_sample(s_T, ref)
    checks.append(_check("ks.terminal_marginal", res.statistic, _KS_LEVEL, res.pvalue >= _KS_LEVEL,
                         f"p-value {res.pvalue:.4g} vs level {_KS_LEVEL:g}; "
                         f"reference route {'/'.join(labels)}; N={len(ref)}"))
    return checks


def dependence_suite(model: SplitModel, basis: KleBasis, Z: np.ndarray) -> list[dict]:
    """Cov(Z_1^2, Z_2^2) against the mixed fourth cumulant oracle.

    For a pure-jump model the oracle value is strictly positive, certifying
    dependence of the uncorrelated coefficients, and positivity is gated once
    the oracle is at least 6.33 SE (below that the check reports itself
    underpowered); for a jump-free model it is zero and the empirical
    covariance must be statistically consistent with independence.
    """
    n, d = Z.shape
    if d < 2:
        return [_check("dependence.squared_covariance", 0.0, 0.0, True, "skipped: d < 2")]
    kappa = mixed_fourth_cumulant(model, basis, 1, 2)
    a = Z[:, 0] ** 2
    b = Z[:, 1] ** 2
    prods = (a - a.mean()) * (b - b.mean())
    cov = float(prods.mean()) * n / (n - 1)
    se = float(prods.std(ddof=1) / math.sqrt(n))
    dev = abs(cov - kappa)
    checks = [
        _check("dependence.squared_covariance", dev, 5.0 * se, dev <= 5.0 * se,
               f"empirical {cov:.6g} vs oracle {kappa:.6g} (SE {se:.3g})")
    ]
    if kappa > 0.0:
        if kappa < _POSITIVE_MIN_ORACLE_SE * se:
            # The oracle value sits too close to the noise band: at this
            # sample size a correct sampler would fail the gate too often.
            checks.append(_check("dependence.positive", cov / se if se else 0.0, 4.0, True,
                                 f"underpowered: oracle {kappa:.4g} < {_POSITIVE_MIN_ORACLE_SE:g} SE "
                                 f"({se:.3g}); covariance agreement checked above"))
        else:
            passed = cov > 4.0 * se
            detail = "dependent: positive covariance confirmed" if passed else \
                f"dependent model but covariance {cov:.4g} not positive at 4 SE"
            checks.append(_check("dependence.positive", cov / se if se else 0.0, 4.0, passed, detail))
    else:
        passed = abs(cov) <= 5.0 * se
        detail = "independent: consistent" if passed else \
            f"jump-free model but covariance {cov:.4g} exceeds 5 SE"
        checks.append(_check("dependence.null", abs(cov) / se if se else 0.0, 5.0, passed, detail))
    return checks


def _roundtrip_tail(name: str, tail: TailIntegral) -> dict:
    """Max relative error of g_inv(g(x)) = x over the invertible range.

    Probes log-spaced x; points whose forward value falls in a clamp region
    (detected by g(g_inv(y)) failing to reproduce y) are excluded, since the
    inverse is constant there by contract. Three array calls: g on the
    probes, g_inv on the forward values inside (0, g(0)), and g on the
    positive inverses.
    """
    xs = np.logspace(-15.0, 3.0, 181)
    ys = np.asarray(tail.g(xs), dtype=float)
    inside = ys > 0.0
    if math.isfinite(tail.g0):
        inside &= ys < tail.g0 * (1.0 - 1e-12)
    xs, ys = xs[inside], ys[inside]
    xr = np.asarray(tail.g_inv(ys), dtype=float)
    positive = xr > 0.0
    xs, ys, xr = xs[positive], ys[positive], xr[positive]
    # A NaN forward value is not excluded.
    kept = ~(np.abs(np.asarray(tail.g(xr), dtype=float) - ys) > 1e-6 * ys)
    n_valid = int(np.count_nonzero(kept))
    worst = float(np.max(np.abs(xr[kept] - xs[kept]) / np.maximum(1.0, xs[kept]), initial=0.0))
    passed = n_valid >= 30 and worst <= _ROUNDTRIP_RTOL
    return _check(f"roundtrip.{name}", worst, _ROUNDTRIP_RTOL, passed,
                  f"{n_valid} probe points inside the invertible range")


def roundtrip_suite(model: SplitModel) -> list[dict]:
    """Tail inversion identity for every jump part of the model."""
    checks = [_roundtrip_tail(_PART_NAMES[label], part.tail_pos) for label, _, part in model.parts]
    return checks or [_check("roundtrip.none", 0.0, 0.0, True, "no jump part")]


def run_validation(model: SplitModel, T: float, d: int, n_samples: int, cfg: ShotConfig) -> dict:
    """Run all suites on freshly sampled coefficients and bundle a report.

    ``cfg`` is the sampler configuration (seed, truncation, ``jump_floor``);
    the KS suite's direct series truncates by the same rule.
    """
    if n_samples < 100:
        raise ValueError("validation needs at least 100 samples")
    basis = KleBasis(T=T, d=d, alpha=model.alpha)
    Z, _, _ = sample_coeffs_batch(model, basis, cfg, n_samples)
    checks = []
    checks += moment_suite(model, basis, Z)
    checks += cf_suite(model, basis, Z)
    checks += ks_suite(model, basis, Z, cfg)
    checks += dependence_suite(model, basis, Z)
    checks += roundtrip_suite(model)
    return {
        "model": model.name,
        "T": T,
        "d": d,
        "n_samples": n_samples,
        "seed": cfg.seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
