"""Harmonics of one angle: exactly reduced anchors and rotation ladders.

Both directions of the expansion are sums of harmonics of one angle. The
jump sum ``shotnoise.shot_sum`` adds x cos(pi (k - 1/2) u) over jumps, and
path reconstruction ``basis.reconstruct`` adds Z_k sin(pi (k - 1/2) t / T)
over k. Each splits the columns into blocks of ``_BLOCK`` and writes the
angle of column c + m of a block as theta + phi_m: an anchor theta, reduced
mod 2 pi without rounding (``_anchor_angles``), plus a phase phi_m = pi m u
from one rotation ladder shared by all blocks (``_rotations``). A column
then depends on k and u alone, never on how many columns are computed.
"""

from __future__ import annotations

import numpy as np

# Columns per anchored block; fixed, so that no column depends on d.
_BLOCK = 64


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
    wc, ws = np.cos(step), np.sin(step)
    b = 1
    while b < n:
        k = min(b, n - b)
        np.multiply(c[:k], wc, out=c[b:b + k])
        c[b:b + k] -= s[:k] * ws
        np.multiply(c[:k], ws, out=s[b:b + k])
        s[b:b + k] += s[:k] * wc
        b *= 2
        if b < n:
            wc, ws = wc * wc - ws * ws, 2.0 * (wc * ws)
    return c, s
