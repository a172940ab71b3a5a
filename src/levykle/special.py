"""Special functions and numeric utilities.

This module provides the numerical kernel shared by the rest of the package:

* ``exp_integral_e1`` -- the exponential integral
  ``E1(x) = int_x^inf s^{-1} e^{-s} ds`` for ``x > 0``: scipy's ``exp1``
  behind an argument check.
* ``MonotoneInverseTable`` -- a tabulated inverse of a strictly decreasing
  function with local cubic interpolation and an optional Newton polish.
  The interval of an argument comes from a guide table whose cells are
  uniform in an index coordinate (``y`` above 1, ``1 + log y`` below it for
  positive breakpoints), followed by a fixed number of bisection passes; the
  cubic is evaluated by Horner's rule on per-interval coefficients. Both are
  derived from the table at construction: the default E1 table gets 487705
  cells and one pass, and holds 6.8 MB beside its 3.2 MB of points.
* ``default_e1_inverse`` -- the one table for the inverse of ``E1``, on the
  fixed domain ``[6.226e-22, 45.47]`` that the gamma samplers' truncation
  level sets; its end abscissae are constants, so building it finds no
  roots.
* ``e1_inverse`` -- the inverse of ``E1``, the workhorse behind jump-size
  generation for gamma-type tail integrals: the closed form
  ``x0 (1 + x0)``, ``x0 = exp(-gamma_E - y)``, for ``y >= 20`` (about 56% of
  a gamma sampler's arguments, which are uniform on ``(0, 45.47]``), and the
  table below that.
* ``quad`` -- adaptive quadrature with componentwise complex support, used by
  the oracles and ``models.from_density``, and ``quad_vector``, one adaptive
  quadrature of a whole vector of integrands, used by the
  characteristic-exponent oracle. Both import ``scipy.integrate`` when first
  called, so sampling a closed-form model never loads it.

All objects here are pure after construction; tables are immutable and may be
shared freely across threads or processes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.special

__all__ = [
    "QuadratureError",
    "MonotoneInverseTable",
    "exp_integral_e1",
    "default_e1_inverse",
    "e1_inverse",
    "quad",
    "quad_vector",
]

# The E1 inverse table: its y-domain, which the gamma samplers' truncation
# level 45.47 T c sets (E1(45) ~ 6.226e-22, E1(1e-20) ~ 45.47), and its
# point count.
E1_TABLE_DOMAIN = (6.226e-22, 45.47)
E1_TABLE_POINTS = 200_000
# The table's largest abscissa, the x with E1(x) = 6.226e-22 to 1.5e-13
# relative (a root found once by Brent's method in log x).
E1_TABLE_X_HI = float.fromhex("0x1.67ffe6845e132p+5")

# From this argument on, ``e1_inverse`` is the closed form x0 (1 + x0) with
# x0 = exp(-gamma_E - y). E1(x) = -gamma_E - ln x + x - x^2/4 + ..., so the
# exact inverse is x0 (1 + x0 + 1.25 x0^2 + ...): at y >= 20, x0 <= 1.16e-9
# and the neglected relative term 1.25 x0^2 stays below 2e-18, far under
# the rounding of y itself (dx / x = -dy).
E1_SERIES_FROM = 20.0

# Inverse tables interpolate by the cubic through 4 neighbouring points.
_STENCIL = 4
# Intervals per block when building the Horner coefficients: bounds the
# build's temporaries to about 2 MB.
_COEFF_BLOCK = 1 << 14
# Subinterval limit of the adaptive quadrature.
_QUAD_LIMIT = 200


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge.

    Carries the best estimate and the achieved error bound so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def exp_integral_e1(x):
    """Exponential integral ``E1(x) = int_x^inf s^{-1} e^{-s} ds``.

    Parameters
    ----------
    x : float or array_like
        Strictly positive argument(s).

    Returns
    -------
    float or ndarray
        ``E1(x)`` from ``scipy.special.exp1``; against 40-digit mpmath values
        at 600 log-spaced x in ``[1e-20, 600]`` its largest relative error is
        6.9e-16.

    Raises
    ------
    ValueError
        If any element of ``x`` is not a strictly positive finite number.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise ValueError("exp_integral_e1 requires strictly positive finite x")
    out = scipy.special.exp1(arr)
    return float(out) if arr.ndim == 0 else out


def _index_coordinate(y: np.ndarray, log_below_one: bool) -> np.ndarray:
    """The coordinate in which an inverse table's guide cells are uniform.

    ``y`` above 1 and ``1 + log y`` below it when ``log_below_one`` (tables
    whose breakpoints are all positive and may span many decades), ``y``
    itself otherwise. Continuous and increasing in ``y``; arguments must be
    positive when ``log_below_one``.
    """
    if not log_below_one:
        return y
    u = np.log(y)
    u += 1.0
    np.copyto(u, y, where=y >= 1.0)
    return u


def _newton_cubic(out, x0, x1, z2, z3, f0, f1, f2, f3) -> None:
    """Write into ``out`` (3 rows) the power coefficients ``c1, c2, c3`` in
    ``t = (y - x0) / (x1 - x0)`` of the cubic through ``(x0, f0), (x1, f1),
    (z2, f2), (z3, f3)``, elementwise.

    Newton divided differences in t, over the nodes in the order
    ``t = 0, 1, t2, t3``; the constant coefficient is ``f0``.
    """
    h = x1 - x0
    t2 = (z2 - x0) / h
    t3 = (z3 - x0) / h
    d01 = f1 - f0
    d12 = (f2 - f1) / (t2 - 1.0)
    d012 = (d12 - d01) / t2
    d123 = ((f3 - f2) / (t3 - t2) - d12) / (t3 - 1.0)
    d0123 = (d123 - d012) / t3
    out[0] = d01 - d012 + d0123 * t2
    out[1] = d012 - d0123 * (1.0 + t2)
    out[2] = d0123


def _cubic_coefficients(bp: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Horner coefficients of every interval's 4-point interpolating cubic.

    Interval ``i`` (``bp[i] <= y < bp[i+1]``) interpolates through the
    stencil ``i-1 .. i+2``, shifted inside the table at its two ends, in the
    local coordinate ``t = (y - bp[i]) / (bp[i+1] - bp[i])``; the cubic is
    ``vals[i] + t (c1 + t (c2 + t c3))``. Interior intervals are worked in
    blocks of slices so the build's temporaries stay small.

    Returns a ``(3, len(bp) - 1)`` array of ``c1, c2, c3``.
    """
    n = bp.size
    coef = np.empty((3, n - 1))
    for lo in range(1, n - 2, _COEFF_BLOCK):
        hi = min(lo + _COEFF_BLOCK, n - 2)
        _newton_cubic(
            coef[:, lo:hi], bp[lo:hi], bp[lo + 1:hi + 1], bp[lo - 1:hi - 1], bp[lo + 2:hi + 2],
            vals[lo:hi], vals[lo + 1:hi + 1], vals[lo - 1:hi - 1], vals[lo + 2:hi + 2],
        )
    # The first and last intervals share their stencils with their
    # neighbours: 0..3 and n-4..n-1.
    ends, z2, z3 = np.array([0, n - 2]), np.array([3, n - 3]), np.array([2, n - 4])
    end_coef = np.empty((3, 2))
    _newton_cubic(end_coef, bp[ends], bp[ends + 1], bp[z2], bp[z3],
                  vals[ends], vals[ends + 1], vals[z2], vals[z3])
    coef[:, ends] = end_coef
    return coef


@dataclass(frozen=True, eq=False)
class MonotoneInverseTable:
    """Tabulated inverse of a strictly decreasing function.

    ``breakpoints`` holds the inverse's argument grid (values of the forward
    function, strictly increasing) and ``values`` the corresponding abscissae
    of the forward function (strictly decreasing). Evaluation locates the
    interval ``bp[i] <= y < bp[i+1]`` (clipped to the first and last
    interval), evaluates the cubic through the 4 neighbouring points
    ``i-1 .. i+2`` (shifted inside the table at its ends) by Horner's rule
    on precomputed coefficients, and applies one Newton polish step through
    the forward function when one is attached.

    The interval comes from a guide table (indexed search, Chen & Asau 1974)
    instead of a binary search over all breakpoints. Guide cells are uniform
    in an index coordinate u(y): ``u = y`` above 1 and ``1 + log y`` below
    it when every breakpoint is positive, ``u = y`` otherwise. The cell
    count is ``min(ceil(u-range / smallest u-gap), 4 n)``; each cell stores
    the first interval its bracket can hold, and a fixed number of
    bisection passes, ``ceil(log2(widest bracket + 1))``, finishes the
    search by comparing ``y`` with breakpoints, so the located interval is
    the one ``searchsorted`` would give. The default E1 table gets 487705
    cells holding at most one breakpoint each, hence one pass; a
    ``from_density`` table (n = 4000, u = log g) hits the 4n cap, 16000
    cells, and takes 4 to 12 passes, never more than a binary search over
    it. Everything is built once in ``__post_init__`` and never changes, so
    a table may be shared across threads: three float64 arrays of n - 1
    coefficients and the int32 guide of cells + 1 entries, 6.8 MB for the
    default table (its breakpoints and values take 3.2 MB), built in about
    20 ms with 1.5 MB of temporaries.

    The domain is the breakpoints' range, ``domain_lo = bp[0]`` to
    ``domain_hi = bp[-1]``. Out-of-domain arguments clamp: ``y > domain_hi``
    returns the abscissa at the ``domain_hi`` boundary, while
    ``y < domain_lo`` returns 0, the "below truncation threshold" convention
    used by the jump samplers.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    forward: Callable | None = None
    forward_derivative: Callable | None = None
    # Built in __post_init__: the index coordinate's kind, origin and cells
    # per unit, the guide (interval brackets of the cells), the number of
    # bisection passes, and the per-interval Horner coefficients.
    _log_below_one: bool = field(init=False, repr=False)
    _u0: float = field(init=False, repr=False)
    _cells_per_u: float = field(init=False, repr=False)
    _guide: np.ndarray = field(init=False, repr=False)
    _passes: int = field(init=False, repr=False)
    _coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if bp.ndim != 1 or bp.shape != vals.shape:
            raise ValueError("breakpoints and values must be 1-d arrays of equal length")
        if bp.size < _STENCIL:
            raise ValueError(f"table needs at least {_STENCIL} points")
        if not np.all(np.diff(bp) > 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.diff(vals) < 0.0):
            raise ValueError("values must be strictly decreasing")
        self._build_guide(bp)
        object.__setattr__(self, "_coefficients", _cubic_coefficients(bp, vals))

    def _build_guide(self, bp: np.ndarray) -> None:
        n = bp.size
        log_below_one = bool(bp[0] > 0.0)
        u = _index_coordinate(bp, log_below_one)
        u0 = float(u[0])
        u_range = float(u[-1]) - u0
        min_gap = float(np.min(np.diff(u)))
        n_cells = 4 * n if min_gap <= 0.0 else min(math.ceil(u_range / min_gap), 4 * n)
        cells_per_u = n_cells / u_range
        scaled = u - u0
        scaled *= cells_per_u
        cell = np.minimum(scaled, n_cells - 1, out=scaled).astype(np.intp)
        del u, scaled  # before the guide is allocated: a lower build peak
        # guide[k] is the last interval whose left breakpoint lies in a cell
        # before k (0 if none): breakpoint j is that for the cells
        # cell[j-1] + 1 .. cell[j], so the guide is a run-length expansion.
        # Cell k's bracket is guide[k] .. guide[k+1].
        runs = np.diff(cell, prepend=-1, append=n_cells)
        guide = np.repeat(np.clip(np.arange(-1, n, dtype=np.int32), 0, n - 2), runs)
        widest = int(np.max(np.diff(guide)))
        object.__setattr__(self, "_log_below_one", log_below_one)
        object.__setattr__(self, "_u0", u0)
        object.__setattr__(self, "_cells_per_u", cells_per_u)
        object.__setattr__(self, "_guide", guide)
        object.__setattr__(self, "_passes", math.ceil(math.log2(widest + 1)))

    @property
    def domain_lo(self) -> float:
        """The first breakpoint: smaller arguments invert to 0."""
        return float(self.breakpoints[0])

    @property
    def domain_hi(self) -> float:
        """The last breakpoint: larger arguments invert to the last value."""
        return float(self.breakpoints[-1])

    def _locate(self, y: np.ndarray) -> np.ndarray:
        """Interval index ``clip(searchsorted(bp, y, "right") - 1, 0, n - 2)``."""
        bp, guide = self.breakpoints, self._guide
        # Arguments below the first breakpoint share its cell (interval 0).
        # The cell comes from the same operations as the breakpoints' cells
        # in _build_guide, so an argument equal to a breakpoint gets its cell.
        u = _index_coordinate(np.maximum(y, bp[0]), self._log_below_one)
        cell = np.minimum((u - self._u0) * self._cells_per_u, guide.size - 2).astype(np.intp)
        i = guide.take(cell).astype(np.intp)
        hi = guide[1:].take(cell)
        for p in range(self._passes - 1, -1, -1):
            j = np.minimum(i + (1 << p), hi)
            i = np.where(bp.take(j) <= y, j, i)
        return i

    def _interpolate(self, y: np.ndarray) -> np.ndarray:
        i = self._locate(y)
        c1, c2, c3 = self._coefficients
        bp = self.breakpoints
        x0 = bp.take(i)
        t = (y - x0) / (bp.take(i + 1) - x0)
        return self.values.take(i) + t * (c1.take(i) + t * (c2.take(i) + t * c3.take(i)))

    def __call__(self, y):
        arr = np.asarray(y, dtype=float)
        flat = np.atleast_1d(arr).astype(float)
        if np.isnan(flat).any():
            raise ValueError("inverse table argument must not be NaN")
        out = np.empty_like(flat)
        below = flat < self.domain_lo
        above = flat > self.domain_hi
        inside = ~(below | above)
        out[below] = 0.0
        out[above] = self.values[-1]
        if inside.any():
            yi = flat[inside]
            xi = self._interpolate(yi)
            if self.forward is not None and self.forward_derivative is not None:
                resid = self.forward(xi) - yi
                step = resid / self.forward_derivative(xi)
                polished = xi - step
                ok = polished > 0.0
                xi = np.where(ok, polished, xi)
            out[inside] = xi
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)


def _e1_inverse_far(y):
    """``x0 (1 + x0)``, ``x0 = exp(-gamma_E - y)``: the inverse of ``E1`` at
    ``y >= E1_SERIES_FROM``, for an array or a float."""
    x0 = np.exp(-np.euler_gamma - y)
    return x0 * (1.0 + x0)


@functools.lru_cache(maxsize=1)
def default_e1_inverse() -> MonotoneInverseTable:
    """The table for the inverse of ``E1`` on ``E1_TABLE_DOMAIN``, built once per process.

    ``E1_TABLE_POINTS`` abscissae, log-spaced in ``x`` (hence unevenly spaced
    in ``y``, with gaps below 0.00231) from ``E1_TABLE_X_HI`` down to the
    closed-form inverse of ``domain_hi``; each evaluation interpolates
    locally (cubic) and applies one Newton polish through the forward
    ``E1``. The end ordinates are set to the domain itself, so the closed
    interval can be queried without falling into the clamps.

    Raises
    ------
    RuntimeError
        If a 62-point roundtrip spot check misses at the 1e-9 level.
    """
    domain_lo, domain_hi = E1_TABLE_DOMAIN
    x_hi, x_lo = E1_TABLE_X_HI, float(_e1_inverse_far(domain_hi))
    xs = np.logspace(math.log10(x_hi), math.log10(x_lo), E1_TABLE_POINTS)
    xs[0], xs[-1] = x_hi, x_lo
    ys = exp_integral_e1(xs)
    ys[0], ys[-1] = domain_lo, domain_hi
    table = MonotoneInverseTable(
        breakpoints=ys,
        values=xs,
        forward=exp_integral_e1,
        forward_derivative=lambda x: -np.exp(-x) / x,
    )
    probe_x = np.logspace(math.log10(x_lo), math.log10(x_hi), 64)[1:-1]
    err = np.abs(table(exp_integral_e1(probe_x)) - probe_x)
    if np.any(err > 1e-9 * np.maximum(1.0, probe_x)):
        raise RuntimeError("the E1 inverse table fails its roundtrip spot check")
    return table


def e1_inverse(y):
    """The ``x`` with ``E1(x) = y``, for a float or an array of them.

    Arguments from ``E1_SERIES_FROM`` (20) to the default table's
    ``domain_hi`` (45.47) take the closed form ``x0 (1 + x0)``,
    ``x0 = exp(-gamma_E - y)``; the rest go to ``default_e1_inverse()``, so
    the table's contract holds: NaN raises ``ValueError``, ``y > domain_hi``
    gives the table's last value and ``y < domain_lo`` gives 0. A float in
    gives a float out. Each element's value depends on that element alone,
    not on the others in the array. Against the table on ``[20, 45.47]`` the
    largest relative difference is 8.9e-15, and ``|E1(x) - y|`` stays below
    1.02 y eps (the table's Newton polish reaches 1.01 y eps).
    """
    table = default_e1_inverse()
    arr = np.asarray(y, dtype=float)
    flat = np.atleast_1d(arr)
    series = (flat >= E1_SERIES_FROM) & (flat <= table.domain_hi)
    # Integer gathers and scatters: the branches interleave at random in a
    # sampler's arguments, where boolean indexing takes several times longer.
    far, near = np.flatnonzero(series), np.flatnonzero(~series)
    out = np.empty(flat.shape)
    out.put(near, table(flat.take(near)))
    out.put(far, _e1_inverse_far(flat.take(far)))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _quad_real(f, a, b, rtol, atol):
    # Imported here: sampling never integrates, so it need not load scipy.integrate.
    import scipy.integrate

    val, err, info, *rest = scipy.integrate.quad(
        f, a, b, epsabs=atol, epsrel=rtol, limit=_QUAD_LIMIT, full_output=1
    )
    if rest:
        raise QuadratureError(str(rest[0]), estimate=val, error_bound=err)
    return val, err


def quad(
    f: Callable,
    a: float,
    b: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
):
    """Adaptive quadrature of ``f`` on ``[a, b]`` to relative tolerance ``rtol``.

    ``atol`` acts as an absolute floor so that integrals which are exactly
    zero (orthogonality relations) still converge. Complex-valued integrands
    are integrated componentwise; infinite endpoints are supported. On
    failure a :class:`QuadratureError` is raised carrying the best estimate
    and the achieved error bound.
    """
    probe = f(0.5 * (a + b) if np.isfinite(a) and np.isfinite(b) else (a + 1.0 if np.isfinite(a) else 0.0))
    if np.iscomplexobj(np.asarray(probe)):
        re, _ = _quad_real(lambda t: f(t).real, a, b, rtol, atol)
        im, _ = _quad_real(lambda t: f(t).imag, a, b, rtol, atol)
        return complex(re, im)
    val, _ = _quad_real(f, a, b, rtol, atol)
    return val


def quad_vector(f: Callable, a: float, b: float, rtol: float):
    """Adaptive quadrature of a vector-valued ``f`` on the finite ``[a, b]``.

    One ``scipy.integrate.quad_vec`` (Gauss-Kronrod 21) over every component
    at once, with the subinterval limit and the default absolute floor
    (1e-12) of ``quad``: it stops once the error estimate is below an eighth
    of ``max(1e-12, rtol |I|)``, with ``|I|`` the 2-norm of the integral
    vector. Real or complex arrays are integrated as they come. On failure a
    :class:`QuadratureError` is raised carrying the best estimate and the
    error bound.
    """
    import scipy.integrate

    val, err, info = scipy.integrate.quad_vec(
        f, a, b, epsabs=1e-12, epsrel=rtol, limit=_QUAD_LIMIT, full_output=True
    )
    if not info.success:
        raise QuadratureError(info.message, estimate=val, error_bound=err)
    return val
