"""Deterministic expansion machinery on the interval [0, T].

The covariance kernel alpha * min(s, t) of a centered square-integrable Levy
process has the closed-form eigenpairs

    lambda_k = alpha T^2 / (pi^2 (k - 1/2)^2),
    e_k(t)   = sqrt(2/T) sin(pi (k - 1/2) t / T),

so the expansion basis never requires a numerical eigensolve. This module
evaluates the eigenvalues, the eigenfunctions on a time grid, the integrated
basis u_k(t) = int_t^T e_k(s) ds (a jump of size x at time t adds x u(t) to
the coefficients), the drift vector, variance-capture fractions, and partial
or Cesaro path reconstruction from a coefficient vector. Everything here is
pure and immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "KleBasis",
    "PathApproximation",
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
        """
        tt = np.atleast_1d(self._check_time(grid))
        return math.sqrt(2.0 / self.T) * np.sin(
            math.pi * np.outer(tt, self.k_half) / self.T
        )

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


@dataclass(frozen=True, eq=False)
class PathApproximation:
    """A reconstructed path on a time grid.

    ``mode`` records whether ``values`` is the plain partial sum or its
    Cesaro average; ``mean_correction`` holds the deterministic mean-rate
    term that was added back per grid point.
    """

    grid: np.ndarray
    values: np.ndarray
    mode: str
    d: int
    mean_correction: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("path values must be finite")


def reconstruct(basis: KleBasis, coeffs, grid, mode: str = "partial", mean_rate: float = 0.0) -> PathApproximation:
    """Rebuild a path from a coefficient vector on a time grid.

    ``partial`` mode evaluates sum_{k<=d} Z_k e_k(t) + mean_rate * t. ``cesaro``
    mode evaluates the running average of the partial sums, computed in O(d)
    per grid point through the equivalent reweighting (1 - (k-1)/d) of Z_k.
    ``coeffs`` may be a coefficient-sample object (its ``z`` is used) or a
    plain vector of length ``basis.d``.
    """
    return _reconstruct(basis, coeffs, grid, mode, mean_rate)


def _reconstruct(basis: KleBasis, coeffs, grid, mode: str, mean_rate: float,
                 emat: np.ndarray | None = None) -> PathApproximation:
    # ``reconstruct`` on a prebuilt ``emat = basis.eigenfunction_matrix(grid)``
    # when given, so that many paths on one grid share a single matrix.
    z = np.asarray(getattr(coeffs, "z", coeffs), dtype=float)
    if z.shape != (basis.d,):
        raise ValueError(f"coefficient vector has shape {z.shape}, expected ({basis.d},)")
    if mode not in ("partial", "cesaro"):
        raise ValueError(f"mode must be 'partial' or 'cesaro', got {mode!r}")
    tt = np.atleast_1d(np.asarray(grid, dtype=float))
    weights = z
    if mode == "cesaro":
        weights = z * (1.0 - np.arange(basis.d) / basis.d)
    if emat is None:
        emat = basis.eigenfunction_matrix(tt)
    correction = float(mean_rate) * tt
    values = emat @ weights + correction
    return PathApproximation(grid=tt, values=values, mode=mode, d=basis.d, mean_correction=correction)
