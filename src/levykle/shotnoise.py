"""Shot-noise sampling of the expansion coefficient vector.

Each jump part of a composite model follows the h0 convention and is
centered (drift a = -m) before sampling. Its coefficients are the series

    Z = a_vec + sum_i f(g_inv(Gamma_i / T), T U_i)

over a unit-rate Poisson arrival stream Gamma_1 < Gamma_2 < ... with
independent uniforms U_i, summed while Gamma_i stays below the truncation
level. For finite-activity models the natural level is T g(0) and the series
is exact; for gamma-type tails the level is gamma_cutoff * T * c (the
documented default 45.47 keeps discarded jump sizes near 1e-20); otherwise a
configurable absolute jump floor determines the level through g. The
negative part is sampled on its own substream and subtracted, and a Brownian
component adds an independent Gaussian vector.

One construction serves every caller. A plan, built once per (model, basis,
config), holds each part's substream label, sign, centered tail, stop level
and drift vector, plus the Gaussian scale; one batched kernel consumes it.
``sample_coeffs`` is the batch of one plus its shot record, and
``extend_dimension`` adds parts to a row through the kernel's own helper, so
batch rows, single samples and grown samples agree bitwise by construction.
``centering_vector`` gives the h1 centering C at a truncation level; on
finite-activity models the jump sum minus C equals the h0 result.

Reproducibility: one routine, ``arrival_stream``, draws every arrival
stream, the samplers' and the validation suites' alike: the arrivals
strictly below a level, with matched uniforms. Every (sample_index, part)
pair receives its own stream, derived from
SeedSequence(seed, spawn_key=(sample_index, part)) with the exponential and
uniform generators split one level further. Exponentials are drawn in
doubling blocks, so a stream up to a higher level extends a stream up to a
lower one element for element, which makes coefficient vectors bitwise
reproducible under dimension growth, under a raised cutoff and under any
partitioning of samples across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .basis import KleBasis
from .models import CUTOFF_H0, SplitModel, TailIntegral, center
from .special import quad

__all__ = [
    "PART_POS",
    "PART_NEG",
    "PART_GAUSS",
    "TruncationCapError",
    "ShotConfig",
    "ArrivalStream",
    "PartRecord",
    "ShotRecord",
    "CoefficientSample",
    "derive_rng",
    "arrival_stream",
    "shot_sum",
    "gamma_stop_level",
    "centering_vector",
    "sample_coeffs",
    "sample_coeffs_batch",
    "extend_dimension",
    "write_coefficients_csv",
]

PART_POS = 0
PART_NEG = 1
PART_GAUSS = 2

_FIRST_BLOCK = 128
_MAX_TERMS = 1_000_000
_CENTERING_RTOL = 1e-10


class TruncationCapError(RuntimeError):
    """An arrival stream cannot cover the truncation level ``gamma_stop``.

    Either more than ``max_terms`` arrivals lie below it (``n_drawn`` is 0
    when the level, the expected term count, exceeds the cap before any
    draw), or an oracle got a stream ending at ``gamma_reached`` below it
    (``max_terms`` None).
    """

    def __init__(self, n_drawn: int, gamma_reached: float, gamma_stop: float,
                 max_terms: int | None = None):
        if max_terms is None:
            message = (f"arrival stream of {n_drawn} terms ends at level {gamma_reached:g}, "
                       f"below the truncation level {gamma_stop:g}")
        else:
            message = (f"truncation level {gamma_stop:g} needs more than max_terms={max_terms} terms "
                       f"({gamma_stop:g} expected, {n_drawn} drawn)")
        super().__init__(message)
        self.n_drawn = n_drawn
        self.gamma_reached = gamma_reached
        self.gamma_stop = gamma_stop
        self.max_terms = max_terms


@dataclass(frozen=True)
class ShotConfig:
    """Sampling configuration.

    ``gamma_cutoff`` scales the truncation level for gamma-type tails
    (stop once Gamma_i / (T c) exceeds it); ``jump_floor`` is the generic
    alternative, an absolute jump size below which the series is cut.
    ``max_terms`` caps the number of terms of each part's series.
    """

    seed: int
    gamma_cutoff: float = 45.47
    max_terms: int = _MAX_TERMS
    jump_floor: float | None = None

    def __post_init__(self):
        if not self.gamma_cutoff > 0.0:
            raise ValueError("gamma_cutoff must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


@dataclass(frozen=True, eq=False)
class ArrivalStream:
    """Poisson arrivals ``gammas`` strictly below ``level`` with matched uniforms.

    Built by ``arrival_stream`` without checks; the oracles, which also take
    streams built elsewhere, validate the record they are given.
    """

    gammas: np.ndarray
    uniforms: np.ndarray
    level: float


def derive_rng(seed, *labels) -> np.random.Generator:
    """Independent generator for the given seed and integer label path."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    if labels:
        ss = np.random.SeedSequence(ss.entropy, spawn_key=tuple(ss.spawn_key) + tuple(labels))
    return np.random.Generator(np.random.PCG64(ss))


def arrival_stream(seed, level: float, max_terms: int = _MAX_TERMS) -> ArrivalStream:
    """The arrivals Gamma_1 < Gamma_2 < ... strictly below ``level``, with uniforms.

    ``seed`` may be an integer or a ``numpy.random.SeedSequence`` (the
    samplers use per-(sample, part) sequences); same seed, same stream,
    bitwise. Exponentials are drawn in doubling blocks, so the stream up to a
    higher level extends the stream up to a lower one element for element;
    uniforms are drawn in one call once the count is known. Raises
    ``TruncationCapError`` when more than ``max_terms`` arrivals lie below
    ``level``.
    """
    if not level > 0.0:
        raise ValueError("level must be positive")
    exp_rng, uni_rng = derive_rng(seed, 0), derive_rng(seed, 1)
    blocks: list[np.ndarray] = []
    block = _FIRST_BLOCK
    n_drawn = 0
    while True:
        blocks.append(exp_rng.standard_exponential(block))
        n_drawn += block
        gammas = np.cumsum(np.concatenate(blocks) if len(blocks) > 1 else blocks[0])
        if gammas[-1] > level:
            break
        if n_drawn >= max_terms:
            raise TruncationCapError(n_drawn, float(gammas[-1]), level, max_terms)
        block *= 2
    n = int(np.searchsorted(gammas, level, side="left"))
    if n > max_terms:
        raise TruncationCapError(n, float(gammas[n - 1]), level, max_terms)
    return ArrivalStream(gammas[:n], uni_rng.random(n), level)


def shot_sum(basis: KleBasis, jump_sizes: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """sum_i f(x_i, T u_i) for jump sizes x_i placed at times T u_i.

    Componentwise (sqrt(2T)/pi) sum_i x_i cos(pi (k-1/2) u_i) / (k-1/2);
    linear in the jump sizes. Every column adds its terms in row order, so
    the first columns do not depend on how many columns are requested.
    """
    if len(jump_sizes) == 0:
        return np.zeros(basis.d)
    x = np.asarray(jump_sizes, dtype=float)
    u = np.asarray(uniforms, dtype=float)
    terms = np.cos(np.pi * np.outer(u, basis.k_half)) * x[:, None]
    # numpy sums a lone contiguous column pairwise; a running sum keeps d = 1
    # in the row order that sum(axis=0) uses for d >= 2.
    comp = terms.sum(axis=0) if basis.d > 1 else np.cumsum(terms[:, 0])[-1:]
    return math.sqrt(2.0 * basis.T) / math.pi * comp / basis.k_half


def gamma_stop_level(tail: TailIntegral, T: float, cfg: ShotConfig) -> float:
    """Arrival level at which the series for one jump part is truncated."""
    if math.isfinite(tail.g0):
        return T * tail.g0
    if tail.cutoff_scale is not None:
        return cfg.gamma_cutoff * T * tail.cutoff_scale
    if cfg.jump_floor is not None and cfg.jump_floor > 0.0:
        return T * float(tail.g(cfg.jump_floor))
    raise ValueError(
        "infinite-activity tail without cutoff scale: configure jump_floor"
    )


def centering_vector(tail: TailIntegral, basis: KleBasis, level: float) -> np.ndarray:
    """Deterministic series centering C at arrival level ``level``.

    Componentwise sqrt(2T) (-1)^{k+1} / (pi^2 (k-1/2)^2) times the radial
    integral of the jump sizes up to the level, int_0^level g_inv(r/T) dr
    restricted to r < T g(0). Uses the tail's closed-form primitive when
    present, quadrature otherwise.
    """
    if level <= 0.0:
        return np.zeros(basis.d)
    y_top = min(level / basis.T, tail.g0)
    if tail.inverse_integral is not None:
        radial = basis.T * tail.inverse_integral(y_top)
    else:
        radial = basis.T * quad(
            lambda s: float(tail.g_inv(s)), 0.0, y_top, rtol=_CENTERING_RTOL
        )
    return (
        math.sqrt(2.0 * basis.T)
        * basis.signs
        / (math.pi**2 * basis.k_half**2)
        * radial
    )


@dataclass(frozen=True, eq=False)
class PartRecord:
    """Retained stream of one jump part: arrivals, uniforms, jump sizes, drift."""

    gammas: np.ndarray
    uniforms: np.ndarray
    jump_sizes: np.ndarray
    drift_a: float


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """Everything needed to recompute a coefficient vector at any dimension."""

    T: float
    alpha: float
    seed: int
    sample_index: int
    sigma2: float
    pos: PartRecord | None
    neg: PartRecord | None


@dataclass(frozen=True, eq=False)
class CoefficientSample:
    """One realization of the coefficient vector Z with its provenance."""

    z: np.ndarray
    d: int
    n_terms_pos: int
    n_terms_neg: int
    seed: int
    sample_index: int = 0
    shot_record: ShotRecord | None = None

    def __post_init__(self):
        if len(self.z) != self.d:
            raise ValueError("coefficient vector length must equal d")
        if not np.all(np.isfinite(self.z)):
            raise ValueError("coefficients must be finite")


def _gaussian_scale(basis: KleBasis, sigma2: float) -> np.ndarray | None:
    return np.sqrt(basis.gaussian_coefficient_variances(sigma2)) if sigma2 > 0.0 else None


def _plan(model: SplitModel, basis: KleBasis, cfg: ShotConfig):
    """What sampling needs beyond the sample index, built once per call.

    One ``(label, sign, centered tail, stop level, drift a, drift vector)``
    tuple per jump part, and the Gaussian scale (None without a Gaussian
    part). Jump parts must follow the h0 convention. A stop level is the
    part's expected term count, so one above ``cfg.max_terms`` raises
    ``TruncationCapError`` here, before anything is drawn.
    """
    parts = []
    for label, sign, part in ((PART_POS, 1.0, model.pos), (PART_NEG, -1.0, model.neg)):
        if part is None:
            continue
        if part.triple.cutoff != CUTOFF_H0:
            raise ValueError(f"jump part {part.name!r} uses the {part.triple.cutoff} convention; "
                             "the samplers expect h0")
        c = center(part)
        stop = gamma_stop_level(c.tail_pos, basis.T, cfg)
        if stop > cfg.max_terms:
            raise TruncationCapError(0, 0.0, stop, cfg.max_terms)
        parts.append((label, sign, c.tail_pos, stop, c.triple.a, basis.drift_vector(c.triple.a)))
    return parts, _gaussian_scale(basis, float(model.gaussian_sigma2))


def _add_part(row: np.ndarray, basis: KleBasis, sign: float, drift: np.ndarray,
              jump_sizes: np.ndarray, uniforms: np.ndarray) -> None:
    # The one place a jump part enters a coefficient row; fresh sampling and
    # dimension extension both go through it, so they agree bitwise.
    row += sign * (drift + shot_sum(basis, jump_sizes, uniforms))


def _add_gaussian(row: np.ndarray, scale: np.ndarray | None, seed: int, sample_index: int) -> None:
    if scale is not None:
        row += scale * derive_rng(seed, sample_index, PART_GAUSS).standard_normal(len(row))


def _run(model: SplitModel, basis: KleBasis, cfg: ShotConfig, n_samples: int,
         start_index: int, chunk: int, keep: bool = False):
    """The sampling kernel: ``(Z, n_pos, n_neg, kept)`` for consecutive indices.

    Jump-size inversion is vectorized across ``chunk`` samples at a time,
    which is elementwise identical to inverting each sample alone. With
    ``keep``, ``kept[i]`` maps each part label to the row's ``PartRecord``.
    """
    parts, gauss_scale = _plan(model, basis, cfg)
    Z = np.zeros((n_samples, basis.d))
    counts = np.zeros((2, n_samples), dtype=np.int64)
    kept = [{} for _ in range(n_samples)] if keep else None
    for lo in range(0, n_samples, chunk):
        idx = range(start_index + lo, start_index + min(lo + chunk, n_samples))
        for label, sign, tail, stop, drift_a, drift in parts:
            draws = [
                arrival_stream(np.random.SeedSequence(int(cfg.seed), spawn_key=(int(i), label)), stop, cfg.max_terms)
                for i in idx
            ]
            n = np.array([len(s.gammas) for s in draws])
            sizes_flat = (
                np.atleast_1d(np.asarray(tail.g_inv(np.concatenate([s.gammas for s in draws]) / basis.T), dtype=float))
                if n.sum() else np.empty(0)
            )
            offsets = np.concatenate(([0], np.cumsum(n)))
            for j, s in enumerate(draws):
                x = sizes_flat[offsets[j]:offsets[j + 1]]
                _add_part(Z[lo + j], basis, sign, drift, x, s.uniforms)
                if keep:
                    kept[lo + j][label] = PartRecord(s.gammas, s.uniforms, x, drift_a)
            counts[label, lo:lo + len(idx)] = n
        for j, i in enumerate(idx):
            _add_gaussian(Z[lo + j], gauss_scale, cfg.seed, i)
    return Z, counts[PART_POS], counts[PART_NEG], kept


def sample_coeffs(
    model: SplitModel,
    basis: KleBasis,
    cfg: ShotConfig,
    sample_index: int = 0,
    keep_record: bool = False,
) -> CoefficientSample:
    """Sample Z for a composite model: Z_pos - Z_neg + Gaussian part.

    The batch of one: equal bitwise to row ``sample_index`` of
    ``sample_coeffs_batch``. Parts must follow the h0 convention and are
    centered internally; each is sampled on its own substream derived from
    ``(cfg.seed, sample_index, part)``, and the Gaussian vector uses the
    variances that make a jump-free model reproduce E[Z_k^2] = lambda_k.
    """
    Z, n_pos, n_neg, kept = _run(model, basis, cfg, 1, sample_index, 1, keep=keep_record)
    record = ShotRecord(
        T=basis.T, alpha=basis.alpha, seed=cfg.seed, sample_index=sample_index,
        sigma2=float(model.gaussian_sigma2), pos=kept[0].get(PART_POS), neg=kept[0].get(PART_NEG),
    ) if keep_record else None
    return CoefficientSample(
        z=Z[0], d=basis.d, n_terms_pos=int(n_pos[0]), n_terms_neg=int(n_neg[0]),
        seed=cfg.seed, sample_index=sample_index, shot_record=record,
    )


def sample_coeffs_batch(
    model: SplitModel,
    basis: KleBasis,
    cfg: ShotConfig,
    n_samples: int,
    start_index: int = 0,
    chunk: int = 512,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample ``n_samples`` coefficient vectors with consecutive sample indices.

    Returns ``(Z, n_pos, n_neg)`` where Z has shape (n_samples, d) and row i
    is the sample with index ``start_index + i``; ``chunk`` sets how many
    samples share one vectorized jump-size inversion and never changes the
    result.
    """
    Z, n_pos, n_neg, _ = _run(model, basis, cfg, n_samples, start_index, chunk)
    return Z, n_pos, n_neg


def extend_dimension(coeffs: CoefficientSample, new_d: int, shot_record: ShotRecord | None = None) -> CoefficientSample:
    """Recompute the sample at a larger dimension from its retained streams.

    The first ``coeffs.d`` coordinates are reproduced bitwise (verified); the
    new coordinates use the same jump realizations and the same Gaussian
    stream, so the result equals a fresh run at ``new_d`` with the same seed.
    """
    record = shot_record if shot_record is not None else coeffs.shot_record
    if record is None:
        raise ValueError("extend_dimension requires the sample's shot_record")
    if new_d < coeffs.d:
        raise ValueError("new_d must be at least the current dimension")
    if new_d == coeffs.d:
        return coeffs
    wide = KleBasis(T=record.T, d=new_d, alpha=record.alpha)
    z = np.zeros(new_d)
    for sign, part in ((1.0, record.pos), (-1.0, record.neg)):
        if part is not None:
            _add_part(z, wide, sign, wide.drift_vector(part.drift_a), part.jump_sizes, part.uniforms)
    _add_gaussian(z, _gaussian_scale(wide, record.sigma2), record.seed, record.sample_index)
    if not np.array_equal(z[: coeffs.d], coeffs.z):
        raise ValueError("shot_record is inconsistent with the sample it claims to extend")
    return CoefficientSample(
        z=z,
        d=new_d,
        n_terms_pos=coeffs.n_terms_pos,
        n_terms_neg=coeffs.n_terms_neg,
        seed=coeffs.seed,
        sample_index=coeffs.sample_index,
        shot_record=record,
    )


def write_coefficients_csv(samples: Iterable[CoefficientSample], fh: IO[str]) -> None:
    """Dump samples as CSV rows ``sample_id,k,z_k,n_terms_pos,n_terms_neg,seed``.

    Floats use the shortest round-trip representation so files are
    bit-reproducible and parse back exactly.
    """
    fh.write("sample_id,k,z_k,n_terms_pos,n_terms_neg,seed\n")
    for s in samples:
        for k in range(s.d):
            fh.write(
                f"{s.sample_index},{k + 1},{float(s.z[k])!r},{s.n_terms_pos},{s.n_terms_neg},{s.seed}\n"
            )
