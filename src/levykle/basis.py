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

A path is the sum over k of Z_k e_k(t), the transpose of the jump sum of
``shotnoise.shot_sum``, and both use the anchored blocks of ``harmonics``.
The eigenfunction matrix is built from angle sums: per block of 64 columns,
two trig calls per grid point for the exactly reduced anchor, plus two for
one rotation ladder of phases shared by all blocks (96 calls per point at
d = 3000, where one ``sin`` per column took 3000), and every element is
within 2.5e-14 sqrt(2/T) of the exact value. A reconstruction adds, in
block order, products of a fixed inner dimension of 64, so its values do
not depend on d beyond the columns used nor on the number of BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .harmonics import _BLOCK, _anchor_angles, _rotations

__all__ = [
    "KleBasis",
    "variance_capture",
    "reconstruct",
]


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
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")

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

        The blocks are stored one after another, each as a contiguous
        (_BLOCK, len(grid)) array: E is a Fortran-ordered view whose storage
        runs on to the end of the last block, and the columns of a block are
        the rows of one contiguous operand for ``reconstruct``.
        """
        u = np.atleast_1d(self._check_time(grid)) / self.T
        n_blocks = -(-self.d // _BLOCK)
        anchors = _anchor_angles(u, _BLOCK * np.arange(n_blocks) + 0.5)
        scale = math.sqrt(2.0 / self.T)
        sin_a, cos_a = scale * np.sin(anchors), scale * np.cos(anchors)
        cos_p, sin_p = _rotations(None, np.pi * u, _BLOCK)
        blocks = np.empty((n_blocks, _BLOCK, len(u)))
        term = np.empty((_BLOCK, len(u)))
        for b in range(n_blocks):
            np.multiply(cos_p, sin_a[b], out=blocks[b])
            blocks[b] += np.multiply(sin_p, cos_a[b], out=term)
        return blocks.reshape(n_blocks * _BLOCK, len(u)).T[:, :self.d]

    def u_vector(self, t) -> np.ndarray:
        """The vector (u_1(t), ..., u_d(t)) at one time t in [0, T].

        u_k(t) = int_t^T e_k(s) ds = sqrt(2T) cos(pi (k - 1/2) t / T) / (pi (k - 1/2)).
        """
        tt = self._check_time(t)
        return (
            math.sqrt(2.0 * self.T)
            * np.cos(math.pi * self.k_half * tt / self.T)
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
    S = sum_b W_b @ E_b^T, with W_b the block's weighted coefficients and
    the last block zero-padded to ``_BLOCK`` columns (in W and, where the
    matrix ends there, in E). Every product has the inner dimension
    ``_BLOCK`` whatever d is, so the values do not depend on the number of
    BLAS threads (tested), where one product with inner dimension d does at
    d = 513 and 3000. A row of a batch of two or more paths does not depend
    on the other rows, bit for bit; a batch of one takes BLAS's
    matrix-vector route and may differ from such a row in the last bits
    (5e-16 of sum |z_k| measured).
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
    w_block = np.empty((len(rows), _BLOCK))
    product = np.empty((len(rows), len(tt)))
    values = np.zeros((len(rows), len(tt)))
    for lo in range(0, d, _BLOCK):
        hi = min(lo + _BLOCK, d)
        w_block[:, :hi - lo] = rows[:, lo:hi]
        w_block[:, hi - lo:] = 0.0
        # Every product takes its matrix operand as one C-ordered
        # (_BLOCK, len(grid)) array: BLAS may round another layout of the
        # same numbers differently.
        e_rows = emat[:, lo:lo + _BLOCK].T
        if len(e_rows) < _BLOCK or not e_rows.flags.c_contiguous:
            e_rows = np.concatenate((e_rows, np.zeros((_BLOCK - len(e_rows), len(tt)))))
        values += np.matmul(w_block, e_rows, out=product)
    values += float(mean_rate) * tt
    if not np.all(np.isfinite(values)):
        raise ValueError("path values must be finite")
    return values.reshape(*z.shape[:-1], len(tt))
