"""Deterministic expansion machinery on the interval [0, T].

The covariance kernel alpha * min(s, t) of a centered square-integrable Levy
process has the closed-form eigenpairs

    lambda_k = alpha T^2 / (pi^2 (k - 1/2)^2),
    e_k(t)   = sqrt(2/T) sin(pi (k - 1/2) t / T),

so the expansion basis never requires a numerical eigensolve. This module
evaluates the eigenvalues, the eigenfunctions on a time grid, the integrated
basis u_k(t) = int_t^T e_k(s) ds (a jump of size x at time t adds x u(t) to
the coefficients), the drift vector, variance-capture fractions, and partial
or Cesaro path reconstruction from a coefficient vector or a batch of them.
Everything here is pure and immutable.

Both directions of the expansion are sums of harmonics of one angle. A path
is the sum over k of Z_k sin(pi (k - 1/2) t / T), the transpose of the jump
sum of ``shotnoise.shot_sum``, which adds x cos(pi (k - 1/2) u) over jumps.
Both split the columns into blocks of ``_BLOCK`` and write the angle of
column c + m of a block as theta + phi_m: an anchor theta, reduced mod 2 pi
without rounding (``_anchor_angles``), plus a phase phi_m = pi m u from one
rotation ladder shared by all blocks (``_rotations``), both defined here. A
column then depends on k and u alone, never on how many columns are
computed. Anchors are exact for k < 2^26, so the dimension is bounded by
``_MAX_DIMENSION``.

The eigenfunction matrix is built from angle sums: per block of up to 64
columns, two trig calls per grid point for the exactly reduced anchor, plus
two for one rotation ladder of phases shared by all blocks (96 calls per
point at d = 3000, where one ``sin`` per column took 3000), and every
element is within 2.5e-14 sqrt(2/T) of the exact value. It stores exactly d
columns. A reconstruction adds, in block order, one product per block at
the block's own width, so its values do not depend on d beyond the columns
used nor on the number of BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "KleBasis",
    "variance_capture",
    "reconstruct",
]

# Columns per anchored block; fixed, so that no column depends on d.
_BLOCK = 64
# Largest dimension: ``_anchor_angles`` is exact for k < 2^26, and the
# zero-padded last tile of ``shotnoise.shot_sum`` reaches anchors up to 512
# columns past d.
_MAX_DIMENSION = 2**26 - 1024


def _anchor_angles(u: np.ndarray, k: np.ndarray) -> np.ndarray:
    """pi k u mod 2 pi, for multiples k of 1/2 below 2^26 and u in [0, 1].

    The result has shape (len(k), *u.shape). u splits into hi (26 fractional
    bits) plus lo, so that t = k hi is exact and so is t - 2 floor(t / 2);
    the angles are good to about 1e-15, where the plain product pi k u is
    off by up to 2e-12 at k = 3000.
    """
    hi = np.floor(u * 2.0**26) * 2.0**-26
    t = np.multiply.outer(k, hi)
    return np.pi * ((t - 2.0 * np.floor(0.5 * t)) + np.multiply.outer(k, u - hi))


def _rotations(start: np.ndarray | None, step: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of start + m step for m < n, each an (n, *step.shape) array.

    A rotation ladder: four trig calls per element (two when ``start`` is
    None, meaning 0), then rotations in real arithmetic, c' = c cos(w) -
    s sin(w), s' = c sin(w) + s cos(w). The rungs are built by doubling:
    rungs b .. 2b - 1 are rungs 0 .. b - 1 rotated by w = b step, whose
    cos and sin come from squaring those of the previous w. So a ladder of n
    rungs takes log2(n) doublings of about 11 numpy calls each on whole
    blocks of rungs, not 4 calls per rung, which matters when two threads
    share the interpreter lock: each call is a point where it changes hands
    (a rung-by-rung ladder ran ``mc_mean_highd`` 17% slower). Rung m
    depends on m and not on n, which keeps columns prefix stable. Every
    operation is a correctly rounded elementwise product or sum, so an
    element's bits do not depend on where it sits in the array or on the
    array's length (numpy's in-place complex multiply rounds a one-element
    array differently). The error grows about linearly along the ladder, a
    few eps per rung.
    """
    c, s = np.empty((n, *np.shape(step))), np.empty((n, *np.shape(step)))
    if start is None:
        c[0], s[0] = 1.0, 0.0
    else:
        c[0], s[0] = np.cos(start), np.sin(start)
    _ladder(c, s, _doubled_steps(np.cos(step), np.sin(step), n))
    return c, s


def _doubled_steps(wc: np.ndarray, ws: np.ndarray, n: int) -> list:
    """The steps of a ladder of n rungs: cos and sin of w = b step for b = 1, 2, 4, ... < n.

    Each w comes from squaring the previous one: cos(2w) = cos(w)^2 -
    sin(w)^2, sin(2w) = 2 cos(w) sin(w).
    """
    steps = [(wc, ws)]
    while 2 ** len(steps) < n:
        wc, ws = wc * wc - ws * ws, 2.0 * (wc * ws)
        steps.append((wc, ws))
    return steps


def _ladder(c: np.ndarray, s: np.ndarray, steps, filled: int = 1) -> None:
    """Fill rungs ``filled`` .. n - 1 of the ladder ``c``, ``s`` (n, ...) in place, as ``_rotations`` does.

    Rungs below ``filled`` (a power of 2) must be set; ``steps`` are the
    ladder's ``_doubled_steps`` from b = ``filled`` on, each broadcasting
    against one rung. The arrays may be views into a larger one; every
    operation is elementwise, so the rungs' bits do not depend on it.
    """
    n = len(c)
    b = filled
    for wc, ws in steps:
        if b >= n:
            break
        k = min(b, n - b)
        np.multiply(c[:k], wc, out=c[b:b + k])
        c[b:b + k] -= s[:k] * ws
        np.multiply(c[:k], ws, out=s[b:b + k])
        s[b:b + k] += s[:k] * wc
        b *= 2


@dataclass(frozen=True, eq=False)
class KleBasis:
    """Expansion basis on [0, T] truncated at dimension d.

    ``alpha`` is the variance rate of the target process (Var(X_t) = alpha t),
    entering only through the eigenvalues; the eigenfunctions are universal.
    """

    T: float
    d: int
    alpha: float

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError("T must be positive and finite")
        if not 1 <= self.d <= _MAX_DIMENSION:
            raise ValueError(f"d must be a positive integer up to {_MAX_DIMENSION}, got {self.d!r}")
        # The first eigenvalue bounds the others and the coefficient
        # variances; T * T is T**2, but overflows to inf instead of raising.
        if not (self.alpha > 0.0 and self.alpha * (self.T * self.T) / (math.pi**2 * 0.25) < math.inf):
            raise ValueError(f"alpha must be positive, and the first eigenvalue 4 alpha T^2 / pi^2 finite, "
                             f"got alpha={self.alpha!r} at T={self.T!r}")

    @cached_property
    def k_half(self) -> np.ndarray:
        """The shifted indices k - 1/2 for k = 1..d."""
        return np.arange(1, self.d + 1) - 0.5

    @cached_property
    def signs(self) -> np.ndarray:
        """(-1)^{k+1} for k = 1..d."""
        return np.where(np.arange(1, self.d + 1) % 2 == 1, 1.0, -1.0)

    def _check_time(self, t) -> np.ndarray:
        tt = np.asarray(t, dtype=float)
        if np.any(tt < 0.0) or np.any(tt > self.T):
            raise ValueError(f"time must lie in [0, {self.T}]")
        return tt

    def eigenvalues(self) -> np.ndarray:
        """lambda_k = alpha T^2 / (pi^2 (k - 1/2)^2) for k = 1..d, decreasing."""
        return self.alpha * self.T**2 / (math.pi**2 * self.k_half**2)

    def eigenfunction_matrix(self, grid) -> np.ndarray:
        """Matrix E with E[i, k-1] = e_k(grid[i]), shape (len(grid), d).

        e_k(t) = sqrt(2/T) sin(pi (k - 1/2) t / T); times outside [0, T] raise.
        Column k = _BLOCK b + m + 1 is built from the angle sum
        sqrt(2/T) (sin(theta_b) cos(phi_m) + cos(theta_b) sin(phi_m)), with
        the anchor theta_b = pi (_BLOCK b + 1/2) t / T reduced mod 2 pi
        without rounding (``_anchor_angles``) and phi_m = pi m t / T, m <
        _BLOCK, one rotation ladder from 0 shared by all blocks
        (``_rotations``). That is 2 trig calls per grid point and block plus
        2 for the ladder, 96 per point at d = 3000 where one ``sin`` call per
        column took 3000. Column k depends on k and t alone, so a matrix is
        bitwise the leading columns of any wider one. Against np.sin of
        exactly reduced angles every element is within 2.5e-14 sqrt(2/T) at
        d = 3000 and 2.2e-14 sqrt(2/T) at d = 65 (2000 random points and the
        ends of [0, T]); np.sin of the float64 product pi (k - 1/2) t / T is
        off by 1.9e-12 and 2.9e-14 there.

        E is the transpose of one C-ordered (d, len(grid)) array, so it
        holds exactly d columns, and the columns of a block are the rows of
        one contiguous operand for ``reconstruct``.
        """
        u = np.atleast_1d(self._check_time(grid)) / self.T
        anchors = _anchor_angles(u, np.arange(0, self.d, _BLOCK) + 0.5)
        scale = math.sqrt(2.0 / self.T)
        sin_a, cos_a = scale * np.sin(anchors), scale * np.cos(anchors)
        cos_p, sin_p = _rotations(None, np.pi * u, min(self.d, _BLOCK))
        rows = np.empty((self.d, len(u)))
        term = np.empty_like(cos_p)
        for b, lo in enumerate(range(0, self.d, _BLOCK)):
            block = rows[lo:lo + _BLOCK]
            np.multiply(cos_p[:len(block)], sin_a[b], out=block)
            block += np.multiply(sin_p[:len(block)], cos_a[b], out=term[:len(block)])
        return rows.T

    def u_vector(self, t) -> np.ndarray:
        """The vector (u_1(t), ..., u_d(t)) at a time t in [0, T], shape (d,),
        or one such row per time of an array t, shape (*t.shape, d).

        u_k(t) = int_t^T e_k(s) ds = sqrt(2T) cos(pi (k - 1/2) t / T) / (pi (k - 1/2)).
        """
        tt = self._check_time(t)
        return (
            math.sqrt(2.0 * self.T)
            * np.cos(math.pi * self.k_half * tt[..., None] / self.T)
            / (math.pi * self.k_half)
        )

    def drift_vector(self, a: float) -> np.ndarray:
        """Coefficient vector of the drift a * t: entries a (-1)^{k+1} sqrt(2) T^{3/2} / (pi^2 (k-1/2)^2)."""
        return (
            float(a)
            * self.signs
            * math.sqrt(2.0)
            * self.T**1.5
            / (math.pi**2 * self.k_half**2)
        )

    def gaussian_coefficient_variances(self, sigma2: float) -> np.ndarray:
        """Per-coordinate variance of the Brownian contribution to Z_k.

        Fixed to sigma2 T^2 / (pi^2 (k - 1/2)^2) so that a jump-free model
        reproduces E[Z_k^2] = lambda_k exactly.
        """
        if sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")
        return float(sigma2) * self.T**2 / (math.pi**2 * self.k_half**2)


def variance_capture(d: int) -> float:
    """Fraction of total expansion variance captured by the first d terms.

    Equals (2/pi^2) sum_{k<=d} (k - 1/2)^{-2}, independent of alpha and T;
    increases strictly to 1.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    k_half = np.arange(1, d + 1) - 0.5
    return float(2.0 / math.pi**2 * np.sum(k_half**-2.0))


def reconstruct(basis: KleBasis, coeffs, grid, mode: str = "partial", mean_rate: float = 0.0,
                emat: np.ndarray | None = None) -> np.ndarray:
    """The values of a path, or of a batch of paths, on a time grid.

    ``partial`` mode evaluates sum_{k<=d} Z_k e_k(t) + mean_rate * t. ``cesaro``
    mode evaluates the running average of the partial sums, computed in O(d)
    per grid point through the equivalent reweighting (1 - (k-1)/d) of Z_k.
    ``coeffs`` is a vector of length ``basis.d`` or an (n, basis.d) batch, one
    path per row; the values have shape (len(grid),) or (n, len(grid)), and
    non-finite values raise ``ValueError``. ``emat`` is
    ``eigenfunction_matrix(grid)`` of a basis on the same T with at least d
    columns, so that many paths and dimensions on one grid share one matrix;
    it is built when not given.

    The sum runs over blocks of ``_BLOCK`` columns, added in block order:
    S = sum_b W_b @ E_b^T, with W_b the block's weighted coefficients, each
    product at the block's own width (the last block may be narrower).
    Every product's inner dimension is at most ``_BLOCK`` whatever d is, so
    the values do not depend on the number of BLAS threads (tested), where
    one product with inner dimension d does at d = 513 and 3000. A row of a
    batch of two or more paths does not depend on the other rows, bit for
    bit; a batch of one takes BLAS's matrix-vector route and may differ from
    such a row in the last bits (5e-16 of sum |z_k| measured).
    """
    z = np.asarray(coeffs, dtype=float)
    d = basis.d
    if z.ndim not in (1, 2) or z.shape[-1] != d:
        raise ValueError(f"coefficients have shape {z.shape}, expected ({d},) or (n, {d})")
    if mode not in ("partial", "cesaro"):
        raise ValueError(f"mode must be 'partial' or 'cesaro', got {mode!r}")
    tt = np.atleast_1d(np.asarray(grid, dtype=float))
    if emat is None:
        emat = basis.eigenfunction_matrix(tt)
    elif emat.shape[0] != len(tt) or emat.shape[1] < d:
        raise ValueError(f"eigenfunction matrix has shape {emat.shape}, expected ({len(tt)}, >= {d})")
    rows = z.reshape(-1, d)
    if mode == "cesaro":
        rows = rows * (1.0 - np.arange(d) / d)
    product = np.empty((len(rows), len(tt)))
    values = np.zeros((len(rows), len(tt)))
    for lo in range(0, d, _BLOCK):
        hi = min(lo + _BLOCK, d)
        # Every product takes its matrix operand as one C-ordered
        # (width, len(grid)) array: BLAS may round another layout of the
        # same numbers differently.
        values += np.matmul(rows[:, lo:hi], np.ascontiguousarray(emat[:, lo:hi].T), out=product)
    values += float(mean_rate) * tt
    if not np.all(np.isfinite(values)):
        raise ValueError("path values must be finite")
    return values.reshape(*z.shape[:-1], len(tt))
