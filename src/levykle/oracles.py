"""Independent oracles used to validate the samplers.

Every check here deliberately avoids the shot-noise code path where possible
so that failures localize: characteristic exponents of coefficient vectors
are obtained by adaptive quadrature of the model's closed-form exponent (one
vector quadrature for a whole grid of points),
subordinator marginals come from the direct series representation, the
series centering of a part comes from the radial integral of its jump sizes,
finite-activity coefficients are integrated piecewise-exactly from the
jump times of a simulated path using antiderivatives written out locally,
and the mixed fourth cumulant is closed form: the Levy measure of Z is the
image of nu(dx) dt under (x, t) -> x u(t), so the cumulant is int x^4 nu(dx)
times int_0^T u_j^2 u_k^2 dt, which is exactly c_j^2 c_k^2 T / 4.
The only ingredients shared with the samplers are the tail inverse g^{-1},
which is pinned separately by roundtrip tests, and the arrival streams.

The direct series draws its own streams through ``arrival_streams``.
``brute_force_coeffs`` takes a stream built anywhere, so it validates it:
strictly increasing arrivals, matched uniforms in [0, 1], and a level that
reaches the oracle's own truncation level (else ``TruncationCapError``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.stats

from .basis import KleBasis
from .models import LevyModel, SplitModel, TailIntegral
from .shotnoise import ArrivalStream, ShotConfig, TruncationCapError, arrival_streams, gamma_stop_level
from .special import quad, quad_vector

__all__ = [
    "KsResult",
    "coeff_char_exponent",
    "direct_series_subordinator",
    "centering_vector",
    "brute_force_coeffs",
    "ks_two_sample",
    "mixed_fourth_cumulant",
]


def coeff_char_exponent(model: SplitModel, basis: KleBasis, z):
    """Characteristic exponent of the coefficient vector at a point z, or at
    each row of a stack of points.

    Quadrature of psi(<z, u(t)>) over [0, T], where u(t) is the integrated
    basis vector and psi the centered exponent of the model. The coefficient
    vector's distribution satisfies E[exp(i<z, Z>)] = exp(-value). ``z`` of
    shape (d,) gives a complex; ``z`` of shape (n, d) gives an (n,) complex
    array from one adaptive quadrature of the whole vector of integrands, to
    a relative 1e-10 of the vector's 2-norm.
    """
    zz = np.asarray(z, dtype=float)
    if zz.ndim not in (1, 2) or zz.shape[-1] != basis.d:
        raise ValueError(f"z must have shape ({basis.d},) or (n, {basis.d}), got {zz.shape}")
    rows = zz.reshape(-1, basis.d)
    psi = model.psi

    def integrand(t):
        return psi(rows @ basis.u_vector(t))

    values = quad_vector(integrand, 0.0, basis.T, rtol=1e-10)
    return complex(values[0]) if zz.ndim == 1 else values


def _arrivals_below(stream: ArrivalStream, stop: float) -> tuple[np.ndarray, np.ndarray]:
    """The stream's arrivals below ``stop`` and their uniforms, once the stream is checked."""
    gammas = np.asarray(stream.gammas, dtype=float)
    uniforms = np.asarray(stream.uniforms, dtype=float)
    if gammas.ndim != 1 or gammas.shape != uniforms.shape:
        raise ValueError("stream arrivals and uniforms must be 1-d arrays of equal length")
    if gammas.size and not np.all(np.diff(gammas) > 0.0):
        raise ValueError("arrival levels must be strictly increasing")
    if uniforms.size and (uniforms.min() < 0.0 or uniforms.max() > 1.0):
        raise ValueError("uniforms must lie in [0, 1]")
    if not stream.level >= stop:
        raise TruncationCapError(len(gammas), float(stream.level), stop)
    n = int(np.searchsorted(gammas, stop, side="left"))
    return gammas[:n], uniforms[:n]


def direct_series_subordinator(tail: TailIntegral, T: float, t, n: int, part_label: int,
                               cfg: ShotConfig) -> np.ndarray:
    """n independent draws of the uncentered subordinator X_t by the direct series.

    Evaluates sum_i g_inv(Gamma_i / T) 1(T U_i < t) on the streams keyed
    ``(i, part_label)`` for i < n under ``cfg.seed``, truncated at the level
    the coefficient samplers use, which makes it a distributional oracle for
    the expansion at matching parameters. ``t`` is a time or a 1-d array of
    times; the result has shape (n,) or (n, len(t)). At t = T every retained
    jump counts. Raises ``TruncationCapError`` when a stream needs more than
    ``cfg.max_terms`` terms.
    """
    stop = gamma_stop_level(tail, T, cfg)
    gammas, uniforms, offsets = arrival_streams(cfg.seed, range(n), (part_label,), stop, cfg.max_terms)
    tt = np.asarray(t, dtype=float)
    out = np.zeros((n, tt.size))
    if offsets[-1]:
        sizes = np.atleast_1d(np.asarray(tail.g_inv(gammas / T), dtype=float))
        times = T * uniforms
        for j, ti in enumerate(tt.ravel()):
            cs = np.concatenate(([0.0], np.cumsum(np.where(times < ti, sizes, 0.0))))
            out[:, j] = cs[offsets[1:]] - cs[offsets[:-1]]
    return out[:, 0] if tt.ndim == 0 else out


def centering_vector(tail: TailIntegral, basis: KleBasis, level: float) -> np.ndarray:
    """Deterministic series centering C at arrival level ``level``.

    Componentwise sqrt(2T) (-1)^{k+1} / (pi^2 (k-1/2)^2) times the radial
    integral of the jump sizes up to the level, int_0^level g_inv(r/T) dr
    restricted to r < T g(0): the mean of the truncated jump sum, so the jump
    sum minus C centers a part independently of the samplers' drift vector.
    The radial integral is the tail's ``inverse_integral``.
    """
    if level <= 0.0:
        return np.zeros(basis.d)
    radial = basis.T * tail.inverse_integral(min(level / basis.T, tail.g0))
    return (
        math.sqrt(2.0 * basis.T)
        * basis.signs
        / (math.pi**2 * basis.k_half**2)
        * radial
    )


def brute_force_coeffs(model: LevyModel, basis: KleBasis, stream: ArrivalStream) -> np.ndarray:
    """Coefficients of a centered finite-activity path by direct integration.

    Builds the jump times and sizes of one path of the subordinator from the
    stream, centers the path by its mean rate m t, and integrates it against
    each basis function exactly per piece: the path is constant between
    jumps, so antiderivatives of sin suffice. The stream's level must reach
    T g(0).
    """
    tail = model.tail_pos
    if tail is None or not math.isfinite(tail.g0):
        raise ValueError("brute-force integration requires a finite-activity positive-jump model")
    T = basis.T
    gammas, uniforms = _arrivals_below(stream, T * tail.g0)
    sizes = np.atleast_1d(np.asarray(tail.g_inv(gammas / T), dtype=float))
    times = T * uniforms
    m = model.jump_mean
    omega = math.pi * (np.arange(1, basis.d + 1) - 0.5) / T
    root = math.sqrt(2.0 / T)
    # One jump of size x at time s contributes x * int_s^T e_k dt; the
    # centering -m t contributes -m int_0^T t e_k(t) dt. Both integrals come
    # from the antiderivatives of sin and t sin.
    cos_T = np.cos(omega * T)
    sin_T = np.sin(omega * T)
    jump_term = np.zeros(basis.d)
    if len(sizes):
        jump_term = root / omega * ((np.cos(np.outer(times, omega)) - cos_T[None, :]) * sizes[:, None]).sum(axis=0)
    ramp = root * (sin_T / omega**2 - T * cos_T / omega)
    return jump_term - m * ramp


class KsResult(NamedTuple):
    statistic: float
    pvalue: float


def ks_two_sample(a, b) -> KsResult:
    """Two-sample Kolmogorov-Smirnov statistic with asymptotic p-value."""
    aa = np.asarray(a, dtype=float).ravel()
    bb = np.asarray(b, dtype=float).ravel()
    if len(aa) < 100 or len(bb) < 100:
        raise ValueError("ks_two_sample needs at least 100 points per sample")
    res = scipy.stats.ks_2samp(aa, bb, method="asymp")
    return KsResult(statistic=float(res.statistic), pvalue=float(res.pvalue))


def mixed_fourth_cumulant(model: SplitModel, basis: KleBasis, j: int, k: int) -> float:
    """Mixed fourth cumulant mu_4 c_j^2 c_k^2 T / 4 of Z_j and Z_k, j != k.

    The Levy measure of Z is the image of nu(dx) dt under (x, t) -> x u(t),
    so the cumulant is mu_4 int_0^T u_j^2 u_k^2 dt, with mu_4 = int x^4 nu(dx)
    summed over the jump parts (an even power: a sign-reflected part adds)
    from one quadrature each. u_k = c_k cos(w_k t), c_k = sqrt(2T) / (pi (k - 1/2)),
    w_k = pi (k - 1/2) / T, and cos^2(w_j t) cos^2(w_k t) is 1/4 plus cosines
    whose frequencies times T are nonzero multiples of pi, so the time
    integral is exactly c_j^2 c_k^2 T / 4. Equals Cov(Z_j^2, Z_k^2): with
    jumps it is strictly positive, which certifies dependence of the
    uncorrelated coefficients. Returns 0 for a jump-free model.
    """
    if j == k:
        raise ValueError("mixed cumulant requires two distinct indices")
    if not model.parts:
        return 0.0
    mu4 = sum(quad(lambda x, dens=part.tail_pos.density: x**4 * dens(x), 0.0, math.inf)
              for _, _, part in model.parts)
    T = basis.T
    cj = math.sqrt(2.0 * T) / (math.pi * (j - 0.5))
    ck = math.sqrt(2.0 * T) / (math.pi * (k - 0.5))
    return mu4 * (cj * ck) ** 2 * T / 4.0
