"""Registry of square-integrable Levy process models.

A model packages everything the samplers and oracles need: the drift and
Gaussian variance rate of its generating triple, the tail integral
g(x) = int_x^inf pi(s) ds of its Levy density pi with the inverse, the
characteristic exponent Psi under the convention E[exp(izX_t)] = exp(-t Psi(z)),
the variance rate alpha = Psi''(0), and the jump mean m = int x nu(dx).

Drifts follow the h0 convention: small jumps are not compensated, so the
per-unit-time mean is a + m. Centering a model rewrites the drift so the
mean rate vanishes, which for these finite-variation models is a = -m.

Processes with two-sided jumps are represented by ``SplitModel``: the
difference of two independent positive-jump parts plus an optional Brownian
component, with the removed mean rate stored for deterministic re-centering.

Integrability of the jump measure (square integrability of large jumps and
finite variation of small jumps) is checked numerically when a model is
built; a model failing the check is rejected.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .special import (
    MonotoneInverseTable,
    QuadratureError,
    default_e1_inverse,
    e1_inverse,
    exp_integral_e1,
    quad,
)

__all__ = [
    "PART_POS",
    "PART_NEG",
    "ModelConditionError",
    "GeneratingTriple",
    "TailIntegral",
    "LevyModel",
    "SplitModel",
    "make_brownian",
    "make_gamma",
    "make_cp_exponential",
    "make_variance_gamma",
    "from_density",
    "center",
    "as_split",
    "model_from_config",
]

# Labels of a composite's jump parts, in ``SplitModel.parts`` order; they
# also key the parts' arrival streams.
PART_POS = 0
PART_NEG = 1

# Numeric windows for the registration-time integrability checks.
_SMALL_JUMP_WINDOW = (1e-10, 1.0)
_LARGE_JUMP_WINDOW = (1.0, 1e6)
_CONDITION_RTOL = 1e-8
_CONDITION_BOUND = 1e12

# x-range and point count of the log grid behind from_density's inverse
# table; the log-log interpolant round-trips exp(-x)/x, 2 exp(-x) and
# exp(-x) x^-1.5 to about 1e-9.
_DENSITY_TABLE_X = (1e-12, 500.0)
_DENSITY_TABLE_POINTS = 4000


class ModelConditionError(ValueError):
    """A candidate model failed a numeric integrability check at registration."""


def _check_conditions(density: Callable, side: str) -> None:
    # Condition A: large jumps square integrable (membership in the
    # square-integrable classes). Condition B: small jumps of finite
    # variation.
    for what, integrand, window in (("large-jump second moment", lambda x: x * x * density(x), _LARGE_JUMP_WINDOW),
                                    ("small-jump first moment", lambda x: x * density(x), _SMALL_JUMP_WINDOW)):
        try:
            value = quad(integrand, *window, rtol=_CONDITION_RTOL)
        except QuadratureError as exc:
            raise ModelConditionError(f"{side}: {what} did not converge") from exc
        if not math.isfinite(value) or value > _CONDITION_BOUND:
            raise ModelConditionError(f"{side}: {what} too large ({value!r})")


def _moments(params: str, scale: float, rho: float, factor: float) -> tuple[float, float]:
    """The variance rate factor scale / rho^2 and jump mean scale / rho of a
    part with exponential decay rate rho.

    ``ValueError``, naming the parameters as ``params``, unless both are
    positive finite floats, which they are not if a parameter is not, nor
    where rho^2 leaves float range.
    """
    try:
        alpha, jump_mean = factor * scale / rho**2, scale / rho
    except ArithmeticError:
        alpha = jump_mean = math.nan
    if not (0.0 < alpha < math.inf and 0.0 < jump_mean < math.inf):
        raise ValueError(f"{params} must be positive and finite, with a finite variance rate and jump mean")
    return alpha, jump_mean


@dataclass(frozen=True)
class GeneratingTriple:
    """Drift (h0 convention) and Gaussian variance rate of a model.

    The jump part of the triple is the model's ``tail_pos`` (None without
    jumps), whose ``density`` is the Levy density on its support (one side
    at a time here; two-sided processes are built from two one-sided parts).
    """

    a: float
    sigma2: float

    def __post_init__(self):
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")


@dataclass(frozen=True, eq=False)
class TailIntegral:
    """Tail integral g of a one-sided Levy density, with inverse g^{-1}.

    ``inverse_integral`` maps Y to int_0^{min(Y, g0)} g^{-1}(s) ds, the radial
    primitive used by series centering; it tends to the jump mean as Y grows.
    ``cutoff_scale`` is the scale c in the truncation rule "stop once the
    arrival level exceeds cutoff * T * c", set for gamma-type tails whose
    g^{-1} decays like the documented reference table.
    """

    density: Callable
    g: Callable
    g_inv: Callable
    g0: float
    inverse_integral: Callable[[float], float]
    cutoff_scale: float | None = None


@dataclass(frozen=True, eq=False)
class LevyModel:
    """A named Levy process: triple, jump tail, exponent, and moment data.

    Jumps, if any, are positive; ``SplitModel`` pairs two parts for two-sided
    jumps. ``psi`` follows E[exp(izX_t)] = exp(-t psi(z)), so psi(0) = 0,
    psi(-z) = conj(psi(z)) for real z, and alpha = psi''(0) is the variance
    rate Var(X_t) = alpha * t once the model is centered.
    """

    name: str
    triple: GeneratingTriple
    alpha: float
    jump_mean: float
    psi: Callable
    tail_pos: TailIntegral | None = None

    @property
    def mean_rate(self) -> float:
        """E[X_1]: drift plus jump mean."""
        return self.triple.a + self.jump_mean


def center(model: LevyModel) -> LevyModel:
    """Remove the mean rate so the returned model satisfies psi'(0) = 0.

    For these finite-variation models the new drift is a = -m. Models that
    are already centered are returned unchanged.
    """
    mu = model.mean_rate
    if not math.isfinite(mu):
        raise ValueError(f"model {model.name!r} has non-finite mean rate")
    if mu == 0.0:
        return model
    old_psi = model.psi

    def centered_psi(z, _psi=old_psi, _mu=mu):
        return _psi(z) + 1j * np.asarray(z) * _mu

    return replace(
        model,
        name=f"centered({model.name})",
        triple=replace(model.triple, a=model.triple.a - mu),
        psi=centered_psi,
    )


def make_brownian(sigma2: float) -> LevyModel:
    """Brownian motion with variance rate sigma2: no jumps, psi(z) = sigma2 z^2 / 2."""
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2!r}")

    def psi(z, _s=float(sigma2)):
        return 0.5 * _s * np.asarray(z) ** 2

    triple = GeneratingTriple(a=0.0, sigma2=float(sigma2))
    return LevyModel(
        name=f"brownian(sigma2={sigma2:g})",
        triple=triple,
        alpha=float(sigma2),
        jump_mean=0.0,
        psi=psi,
    )


def make_gamma(c: float, rho: float) -> LevyModel:
    """Gamma subordinator with Levy density pi(x) = c exp(-rho x) / x on (0, inf).

    The tail integral is g(x) = c E1(rho x) with inverse
    g^{-1}(y) = ``e1_inverse(y / c) / rho``; g(0) = inf, the jump mean is
    m = c / rho, the uncentered exponent is psi(z) = c log(1 - iz/rho), and
    alpha = c / rho^2.
    """
    alpha, jump_mean = _moments(f"gamma parameters c={c!r}, rho={rho!r}", c, rho, 1.0)
    c, rho = float(c), float(rho)

    def density(x, _c=c, _r=rho):
        return _c * np.exp(-_r * np.asarray(x)) / np.asarray(x)

    def g(x, _c=c, _r=rho):
        return _c * exp_integral_e1(_r * np.asarray(x))

    def g_inv(y, _c=c, _r=rho):
        return e1_inverse(np.asarray(y) / _c) / _r

    lo_cut = c * default_e1_inverse().domain_lo

    def inverse_integral(Y, _c=c, _r=rho, _gi=g_inv, _lo=lo_cut):
        if Y <= _lo:
            return 0.0
        return (_c / _r) * math.exp(-_r * float(_gi(Y)))

    _check_conditions(density, "gamma")

    def psi(z, _c=c, _r=rho):
        return _c * np.log(1.0 - 1j * np.asarray(z) / _r)

    triple = GeneratingTriple(a=0.0, sigma2=0.0)
    tail = TailIntegral(
        density=density,
        g=g,
        g_inv=g_inv,
        g0=math.inf,
        inverse_integral=inverse_integral,
        cutoff_scale=c,
    )
    return LevyModel(
        name=f"gamma(c={c:g},rho={rho:g})",
        triple=triple,
        alpha=alpha,
        jump_mean=jump_mean,
        psi=psi,
        tail_pos=tail,
    )


def make_cp_exponential(rate: float, rho: float) -> LevyModel:
    """Compound Poisson subordinator: intensity ``rate``, Exp(rho) jump sizes.

    pi(x) = rate * rho * exp(-rho x), so g(x) = rate * exp(-rho x) is finite
    at zero (finite activity) and inverts in closed form. The jump mean is
    rate / rho and alpha = 2 * rate / rho^2.
    """
    alpha, jump_mean = _moments(f"cp_exponential parameters rate={rate!r}, rho={rho!r}", rate, rho, 2.0)
    rate, rho = float(rate), float(rho)

    def density(x, _r=rate, _p=rho):
        return _r * _p * np.exp(-_p * np.asarray(x))

    def g(x, _r=rate, _p=rho):
        return _r * np.exp(-_p * np.asarray(x))

    def g_inv(y, _r=rate, _p=rho):
        y = np.asarray(y, dtype=float)
        out = np.log(_r / np.minimum(np.maximum(y, 1e-300), _r)) / _p
        return out if out.ndim else float(out)

    def inverse_integral(Y, _r=rate, _p=rho):
        Yc = min(float(Y), _r)
        if Yc <= 0.0:
            return 0.0
        return (Yc / _p) * (1.0 + math.log(_r / Yc))

    _check_conditions(density, "cp_exponential")

    def psi(z, _r=rate, _p=rho):
        z = np.asarray(z)
        return -1j * _r * z / (_p - 1j * z)

    triple = GeneratingTriple(a=0.0, sigma2=0.0)
    tail = TailIntegral(
        density=density,
        g=g,
        g_inv=g_inv,
        g0=rate,
        inverse_integral=inverse_integral,
    )
    return LevyModel(
        name=f"cp_exponential(rate={rate:g},rho={rho:g})",
        triple=triple,
        alpha=alpha,
        jump_mean=jump_mean,
        psi=psi,
        tail_pos=tail,
    )


def from_density(name: str, density: Callable) -> LevyModel:
    """Register a positive-jump model from its Levy density alone.

    The tail integral g is computed by quadrature. Its inverse is a
    ``MonotoneInverseTable`` built once in log-log coordinates (log g against
    log x) on a log grid of x over ``_DENSITY_TABLE_X``, where g comes from
    per-interval quadratures summed from the right, so no single integral
    spans a singularity at zero; grid points where g vanishes are dropped.
    Arguments at or above g(0) invert to 0, and arguments beyond the grid to
    its end abscissae, so densities positive only on a sub-interval are
    tolerated. Closed-form factories should be preferred when available.
    """
    _check_conditions(density, name)
    jump_mean = quad(lambda x: x * density(x), 0.0, math.inf, rtol=1e-10)
    alpha = quad(lambda x: x * x * density(x), 0.0, math.inf, rtol=1e-10)

    tail_above_one = quad(density, 1.0, math.inf, rtol=1e-10)

    def _g_scalar(v, _d=density, _t=tail_above_one):
        # Decade by decade up to 1, then the tail above 1, so no single
        # quadrature spans a singularity at zero; relative tolerance only,
        # so small tails keep their digits.
        if v >= 1.0:
            return quad(_d, v, math.inf, rtol=1e-9, atol=0.0)
        edges = np.geomspace(v, 1.0, math.ceil(-math.log10(v)) + 1)
        return math.fsum(quad(_d, lo, hi, rtol=1e-9, atol=0.0)
                         for lo, hi in zip(edges[:-1], edges[1:])) + _t

    def g(x, _f=_g_scalar):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.array([_f(float(v)) for v in xs])
        return out if np.asarray(x).ndim else float(out[0])

    try:
        g0_val = quad(density, 0.0, math.inf, rtol=1e-8)
    except QuadratureError:
        g0_val = math.inf
    if g0_val > _CONDITION_BOUND:
        g0_val = math.inf

    xs = np.logspace(*np.log10(_DENSITY_TABLE_X), _DENSITY_TABLE_POINTS)
    pieces = [quad(density, lo, hi, rtol=1e-10, atol=0.0) for lo, hi in zip(xs[:-1], xs[1:])]
    pieces.append(quad(density, xs[-1], math.inf, rtol=1e-10, atol=0.0))
    g_grid = np.cumsum(pieces[::-1])[::-1]
    keep = g_grid > 0.0
    keep[:-1] &= g_grid[:-1] > g_grid[1:]
    log_g, log_x = np.log(g_grid[keep])[::-1], np.log(xs[keep])[::-1]
    table = MonotoneInverseTable(breakpoints=log_g, values=log_x)

    def g_inv(y, _t=table, _g0=g0_val):
        ys = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            log_y = np.clip(np.log(ys), _t.domain_lo, _t.domain_hi)
        out = np.where(ys >= _g0, 0.0, np.exp(_t(log_y)))
        return out if out.ndim else float(out)

    def inverse_integral(Y, _gi=g_inv, _g0=g0_val):
        Yc = min(float(Y), _g0)
        if Yc <= 0.0:
            return 0.0
        return quad(lambda s: float(_gi(s)), 0.0, Yc, rtol=1e-8)

    def _psi_scalar(z, _d=density):
        zc = complex(z)
        return -quad(lambda x: (np.exp(1j * zc * x) - 1.0) * _d(x), 0.0, math.inf, rtol=1e-9)

    def psi(z, _f=_psi_scalar):
        zs = np.asarray(z)
        if zs.ndim == 0:
            return _f(complex(zs))
        return np.array([_f(complex(v)) for v in zs.ravel()]).reshape(zs.shape)

    triple = GeneratingTriple(a=0.0, sigma2=0.0)
    tail = TailIntegral(
        density=density,
        g=g,
        g_inv=g_inv,
        g0=g0_val,
        inverse_integral=inverse_integral,
    )
    return LevyModel(
        name=name,
        triple=triple,
        alpha=float(alpha),
        jump_mean=float(jump_mean),
        psi=psi,
        tail_pos=tail,
    )


@dataclass(frozen=True, eq=False)
class SplitModel:
    """Difference of two independent positive-jump parts plus a Gaussian part.

    ``pos`` and ``neg`` are uncentered subordinator-type models; the sampler
    centers each part on the fly. ``parts`` lists the parts present with
    their labels and signs, for every caller that walks them. ``mean_rate``
    is the deterministic i psi'(0) of the composite, re-added per unit time
    when paths are reconstructed. ``psi`` is the exponent of the centered
    composite; ``psi_uncentered`` keeps the raw combination for reference.
    """

    name: str
    pos: LevyModel | None
    neg: LevyModel | None
    gaussian_sigma2: float = 0.0

    @cached_property
    def parts(self) -> tuple[tuple[int, float, LevyModel], ...]:
        """``(label, sign, part)`` per jump part present, in the order
        ``(PART_POS, 1.0, pos)``, ``(PART_NEG, -1.0, neg)``.

        Cached: ``psi`` walks it inside quadratures, thousands of times.
        """
        return tuple((label, sign, part) for label, sign, part in
                     ((PART_POS, 1.0, self.pos), (PART_NEG, -1.0, self.neg)) if part is not None)

    @property
    def mean_rate(self) -> float:
        mu = 0.0
        for _, sign, part in self.parts:
            mu += sign * part.mean_rate
        return mu

    @property
    def alpha(self) -> float:
        a = self.gaussian_sigma2
        for _, _, part in self.parts:
            a += part.alpha
        return a

    def psi_uncentered(self, z):
        z = np.asarray(z)
        val = 0.5 * self.gaussian_sigma2 * z**2 + 0j
        for _, sign, part in self.parts:
            val = val + part.psi(sign * z)
        return val

    def psi(self, z):
        """Characteristic exponent of the centered composite (psi'(0) = 0)."""
        return self.psi_uncentered(z) + 1j * np.asarray(z) * self.mean_rate


def make_variance_gamma(
    c_pos: float = 1.0,
    rho_pos: float = 1.0,
    c_neg: float = 1.0,
    rho_neg: float = 2.0,
) -> SplitModel:
    """Variance gamma process as the difference of two gamma subordinators.

    With the reference parameters (1, 1, 1, 2) the uncentered exponent is
    psi(z) = log(1 - iz) + log(1 + iz/2), the mean rate is 1/2, and
    alpha = 1.25.
    """
    if not all(0.0 < v < math.inf for v in (c_pos, rho_pos, c_neg, rho_neg)):
        raise ValueError("all variance gamma parameters must be positive and finite, got "
                         f"{(c_pos, rho_pos, c_neg, rho_neg)!r}")
    # The parts first: they refuse a parameter beyond float range, which
    # the name's format would not.
    return SplitModel(
        pos=make_gamma(c_pos, rho_pos),
        neg=make_gamma(c_neg, rho_neg),
        name=f"variance_gamma({c_pos:g},{rho_pos:g},{c_neg:g},{rho_neg:g})",
        gaussian_sigma2=0.0,
    )


def as_split(model: LevyModel) -> SplitModel:
    """View a one-sided (or jump-free) model as a composite for the samplers."""
    has_jumps = model.tail_pos is not None
    return SplitModel(
        name=model.name,
        pos=model if has_jumps else None,
        neg=None,
        gaussian_sigma2=model.triple.sigma2,
    )


# Parameters of each configurable model kind, with defaults, in factory order.
_CONFIG_KINDS = {
    "brownian": (lambda sigma2: as_split(make_brownian(sigma2)), {"sigma2": 1.0}),
    "gamma": (lambda c, rho: as_split(make_gamma(c, rho)), {"c": 1.0, "rho": 1.0}),
    "cp_exponential": (lambda rate, rho: as_split(make_cp_exponential(rate, rho)),
                       {"rate": 1.0, "rho": 1.0}),
    "variance_gamma": (make_variance_gamma,
                       {"c_pos": 1.0, "rho_pos": 1.0, "c_neg": 1.0, "rho_neg": 2.0}),
}


def model_from_config(cfg: dict) -> SplitModel:
    """Build the composite model described by a configuration mapping.

    Recognized values of ``cfg["model"]``: ``brownian`` (``sigma2``),
    ``gamma`` (``c``, ``rho``), ``cp_exponential`` (``rate``, ``rho``) and
    ``variance_gamma`` (``c_pos``, ``rho_pos``, ``c_neg``, ``rho_neg``).
    Omitted parameters take their defaults; any other key is an error, and so
    is a parameter that is not a finite number (a boolean, a string, nan, an
    infinity or an int beyond float range).
    """
    kind = cfg.get("model")
    if not isinstance(kind, str) or kind not in _CONFIG_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    build, defaults = _CONFIG_KINDS[kind]
    unknown = sorted(set(cfg) - {"model"} - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameters {unknown} for model {kind!r}; "
                         f"known: {sorted(defaults)}")
    params = {name: cfg.get(name, default) for name, default in defaults.items()}
    for name, value in params.items():
        # The comparison is exact for an int of any size, and false for nan.
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"model parameter {name} must be a finite number, got {value!r}")
    return build(**{name: float(value) for name, value in params.items()})
