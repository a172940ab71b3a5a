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
``sample_coeffs`` is the batch of one plus the streams it drew, and
``extend_dimension`` adds parts to a row through the kernel's own helper, so
batch rows, single samples and grown samples agree bitwise by construction.

The jump sum ``shot_sum`` runs once per chunk and part over the chunk's
flattened jumps with per-sample row offsets; a sample's rows are cut into
pieces of at most 512. The cosines are harmonics of one angle pi u per row,
so they come from rotation ladders (``harmonics._rotations``: a few trig
calls per row, then products and sums) rather than one ``cos`` call per row
and column.
Columns k <= 64 are x cos((k - 1/2) pi u), a ladder from pi u / 2 in steps
of pi u, reduced per piece with ``np.add.reduceat``. Each later block of 64
columns rotates from an anchor angle through one table of pi m u, m < 64,
and BLAS sums it: in tiles of 8 blocks (512 columns, zero-padded past d),
one matrix product of a fixed shape per piece and tile, with the piece
zero-padded to a row bucket that its own row count sets (the next multiple
of 16). All sizes are module constants, so a column's value depends on k and
the sample's jumps alone, never on d, the chunk or the number of BLAS
threads (see ``shot_sum`` for why, and for the measured error).

Reproducibility: one routine, ``arrival_streams``, draws every arrival
stream, the samplers' and the validation suites' alike, a chunk of sample
indices at a time: the arrivals strictly below a level, with matched
uniforms; ``arrival_stream`` is its batch of one. Every (sample_index, part)
pair receives its own stream, the one numpy's
Generator(PCG64(SeedSequence(seed, spawn_key=(sample_index, part, sub))))
gives, with sub 0 for the exponentials and 1 for the uniforms; the Gaussian
part uses the key (sample_index, PART_GAUSS). The seed words of a whole
chunk's generators come from one vectorized pass (``_seed_words``, numpy's
seed_seq hashing and mixing in integer arithmetic, equal to numpy's by
test), and each PCG64 seeds itself from its words, so no SeedSequence is
built per stream. Exponentials are drawn in doubling blocks, so a stream up
to a higher level extends a stream up to a lower one element for element,
which makes coefficient vectors bitwise reproducible under dimension growth,
under a raised cutoff and under any partitioning of samples across workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .basis import KleBasis
from .harmonics import _BLOCK, _anchor_angles, _rotations
from .models import SplitModel, TailIntegral, center

__all__ = [
    "PART_POS",
    "PART_NEG",
    "PART_GAUSS",
    "TruncationCapError",
    "ShotConfig",
    "ArrivalStream",
    "PartRecord",
    "CoefficientSample",
    "derive_rng",
    "arrival_streams",
    "arrival_stream",
    "shot_sum",
    "gamma_stop_level",
    "sample_coeffs",
    "sample_coeffs_batch",
    "extend_dimension",
]

PART_POS = 0
PART_NEG = 1
PART_GAUSS = 2

_FIRST_BLOCK = 128
_MAX_TERMS = 1_000_000
# shot_sum: rows per piece, anchored blocks of ``_BLOCK`` columns per GEMM
# tile, the row quantum of a piece's padded size, padded rows per stacked
# product and rows per group of whole pieces in the head; fixed, so that no
# column depends on d or the chunk.
_ROW_BUDGET = 512
_TILE = 8
_ROW_QUANTUM = 16
_BATCH_ROWS = 1024
_HEAD_ROWS = 4096
# numpy.random.SeedSequence (O'Neill's seed_seq) constants; see ``_seed_words``.
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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

    def __reduce__(self):
        # Rebuilt from its fields, so that it crosses a pickle (a process
        # pool's result queue) as itself rather than as a TypeError.
        return type(self), (self.n_drawn, self.gamma_reached, self.gamma_stop, self.max_terms)


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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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


def _words(value) -> list[int]:
    """numpy's uint32 coercion of ``SeedSequence`` entropy and spawn keys.

    An integer becomes its little-endian 32-bit words (0 is one word), a
    sequence the concatenation of its items' words. Negative integers raise
    ``ValueError``, as in numpy.
    """
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError(f"expected non-negative integer, got {value}")
        words = [value & _MASK32]
        while value := value >> 32:
            words.append(value & _MASK32)
        return words
    return [w for item in value for w in _words(item)]


def _hash(value, h: int, mult: int):
    """One hashmix step on a uint32 word: ``(hashed value, next hash constant)``."""
    value = value ^ h
    h = (h * mult) & _MASK32
    value = (value * h) & _MASK32
    return value ^ (value >> 16), h


def _mix(x, y):
    """seed_seq's mix of two uint32 words."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


@functools.lru_cache(maxsize=64)
def _entropy_pool(head: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The seed_seq pool seeded from its first words, and the hash constant reached.

    ``head`` holds one word per pool entry: the entropy's first words,
    zero-padded. Each is hashed into its entry, then every entry is mixed
    into every other. This part is shared by all streams of a seed, so it is
    computed once per seed.
    """
    h = _INIT_A
    pool = []
    for w in head:
        v, h = _hash(w, h, _MULT_A)
        pool.append(v)
    for src in range(len(pool)):
        for dst in range(len(pool)):
            if dst != src:
                v, h = _hash(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], v)
    return tuple(pool), h


def _seed_words(entropy: list[int], key: list, pool_size: int, n: int) -> np.ndarray:
    """``SeedSequence(entropy, spawn_key=key).generate_state(4, np.uint64)`` for n streams.

    numpy's derivation, reproduced word for word (the tests check it
    against numpy bitwise): O'Neill's seed_seq hashmix and mix of the words
    into a pool of ``pool_size`` uint32 words (``_entropy_pool``, then each
    word past the pool's first, the rest of the entropy and then the key,
    mixed into every entry), then 8 hashed pool words paired into 4 uint64
    words. A word of ``key`` is an int, shared by every stream, or a uint64
    array with one word per stream, so one pass derives a whole chunk; the
    arithmetic is uint32 held in Python ints or uint64, masked after each
    product. Returns an (n, 4) uint64 array.
    """
    head = entropy[:pool_size] + [0] * (pool_size - len(entropy))
    shared, h = _entropy_pool(tuple(head))
    pool = list(shared)
    for w in entropy[pool_size:] + key:
        for dst in range(pool_size):
            v, h = _hash(w, h, _MULT_A)
            pool[dst] = _mix(pool[dst], v)
    h = _INIT_B
    out = np.empty((n, 4), dtype=np.uint64)
    for j in range(4):
        lo, h = _hash(pool[2 * j % pool_size], h, _MULT_B)
        hi, h = _hash(pool[(2 * j + 1) % pool_size], h, _MULT_B)
        out[:, j] = (hi << 32) | lo
    return out


class _DerivedSeed(ISeedSequence):
    """A seed sequence whose ``generate_state(4, np.uint64)`` is already known.

    ``PCG64`` asks its seed sequence for exactly that and applies PCG's
    setseq seeding itself, so ``PCG64(_DerivedSeed(words))`` equals
    ``PCG64(SeedSequence(...))`` for the words ``_seed_words`` derived.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a derived seed holds the 4 uint64 words that PCG64 asks for")
        return self.words


def _index_words(indices: range):
    """Split ``indices`` (step 1) where the uint32 word count of an index changes.

    Yields ``(n, words)``: the next n indices as a list of word columns,
    lowest word first; a single index gives its words as ints. Mixing runs
    word by word, so each group is derived on its own.
    """
    lo, hi = indices.start, indices.stop
    if lo < 0:
        raise ValueError(f"sample indices must be non-negative, got {lo}")
    bits = 32
    while lo < hi:
        top = min(hi, 1 << bits)
        if top - lo == 1:
            yield 1, _words(lo)
        elif lo < top:
            i = np.arange(top - lo, dtype=np.uint64) + lo if top <= 1 << 64 else np.array(range(lo, top), dtype=object)
            yield top - lo, [((i >> s) & _MASK32).astype(np.uint64) for s in range(0, bits, 32)]
        lo = max(lo, top)
        bits += 32


def _stream_rngs(seed, indices: range | None, labels: tuple):
    """Generators equal to ``Generator(PCG64(SeedSequence(...)))`` for a set of streams.

    ``seed`` is an integer or a ``SeedSequence``; the streams' spawn keys are
    the seed's own key followed by ``(i, *labels)`` for each i of
    ``indices``, one generator per index, or by ``labels`` alone when
    ``indices`` is None. The seed words of a whole group come from one
    ``_seed_words`` pass, so no ``SeedSequence`` is built per stream.
    """
    if isinstance(seed, np.random.SeedSequence):
        entropy, prefix, pool_size = _words(seed.entropy), _words(seed.spawn_key), seed.pool_size
    else:
        entropy, prefix, pool_size = _words(seed), [], _POOL_SIZE
    suffix = _words(labels)
    for n, columns in [(1, [])] if indices is None else _index_words(indices):
        for words in _seed_words(entropy, prefix + columns + suffix, pool_size, n):
            yield np.random.Generator(np.random.PCG64(_DerivedSeed(words)))


def derive_rng(seed, *labels) -> np.random.Generator:
    """The generator of ``SeedSequence(seed, spawn_key=labels)``, seeded through PCG64.

    A ``SeedSequence`` seed keeps its entropy and its spawn key, which
    ``labels`` extend. The generator draws what numpy's would; its seed
    sequence holds only the derived words, so it cannot spawn children.
    """
    return next(_stream_rngs(seed, None, labels))


def arrival_streams(seed, indices: range | None, labels: tuple, level: float,
                    max_terms: int = _MAX_TERMS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrival streams keyed ``(i, *labels)`` for i in ``indices``, flattened.

    Returns ``(gammas, uniforms, offsets)``: stream j is
    ``gammas[offsets[j]:offsets[j + 1]]``, the arrivals strictly below
    ``level``, with its uniforms. With ``indices`` None there is one stream,
    keyed by ``labels`` alone. A stream's exponentials and uniforms come from
    the generators of the keys ``key + (0,)`` and ``key + (1,)``
    (``_stream_rngs``). Exponentials are drawn in doubling blocks, so the
    stream up to a higher level extends the stream up to a lower one element
    for element; uniforms are drawn in one call once the count is known.
    Raises ``TruncationCapError`` when more than ``max_terms`` arrivals of a
    stream lie below ``level``.
    """
    gammas, uniforms = [], []
    for exp_rng, uni_rng in zip(_stream_rngs(seed, indices, (*labels, 0)),
                                _stream_rngs(seed, indices, (*labels, 1))):
        blocks: list[np.ndarray] = []
        block = _FIRST_BLOCK
        n_drawn = 0
        while True:
            blocks.append(exp_rng.standard_exponential(block))
            n_drawn += block
            g = (np.concatenate(blocks) if len(blocks) > 1 else blocks[0]).cumsum()
            if g[-1] > level:
                break
            if n_drawn >= max_terms:
                raise TruncationCapError(n_drawn, float(g[-1]), level, max_terms)
            block *= 2
        n = int(g.searchsorted(level))
        if n > max_terms:
            raise TruncationCapError(n, float(g[n - 1]), level, max_terms)
        gammas.append(g[:n])
        uniforms.append(uni_rng.random(n))
    offsets = np.concatenate(([0], np.cumsum([len(g) for g in gammas])))
    return np.concatenate(gammas), np.concatenate(uniforms), offsets


def arrival_stream(seed, level: float, max_terms: int = _MAX_TERMS) -> ArrivalStream:
    """The arrivals Gamma_1 < Gamma_2 < ... strictly below ``level``, with uniforms.

    The batch of one of ``arrival_streams``: ``seed`` is an integer or any
    ``numpy.random.SeedSequence`` (the samplers' stream for sample i and
    part p is that of ``SeedSequence(seed, spawn_key=(i, p))``); same seed,
    same stream, bitwise.
    """
    if not level > 0.0:
        raise ValueError("level must be positive")
    gammas, uniforms, _ = arrival_streams(seed, None, (), level, max_terms)
    return ArrivalStream(gammas, uniforms, level)


def _pieces(offsets: np.ndarray):
    """Cut each sample's rows into pieces of at most ``_ROW_BUDGET`` rows.

    Returns ``(sample, start, end)`` per piece, in row order. A sample with
    no rows has no piece; where a sample is cut depends on its own rows only.
    """
    n = np.diff(offsets)
    per_sample = -(-n // _ROW_BUDGET)
    sample = np.repeat(np.arange(len(n)), per_sample)
    first = np.cumsum(per_sample) - per_sample
    start = offsets[:-1][sample] + _ROW_BUDGET * (np.arange(len(sample)) - first[sample])
    return sample, start, np.minimum(start + _ROW_BUDGET, offsets[1:][sample])


def _padded_rows(x, u, start, end, kb: int):
    """The rows of pieces ``start:end`` as (pieces, kb) arrays, zero past each piece's end."""
    n = end - start
    piece = np.repeat(np.arange(len(n)), n)
    within = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    xp, up = np.zeros((len(n), kb)), np.zeros((len(n), kb))
    xp[piece, within] = x[start[piece] + within]
    up[piece, within] = u[start[piece] + within]
    return xp, up


def _halves(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """(m, pieces, kb) arrays side by side per piece: (m, pieces, 2 kb)."""
    return np.concatenate((first, second), axis=-1)


def _add_tiles(acc: np.ndarray, scale: np.ndarray, x: np.ndarray, u: np.ndarray,
               sample: np.ndarray, start: np.ndarray, end: np.ndarray) -> None:
    """Add the rotated columns of every piece into ``acc`` (its columns past the head).

    Block b of ``_BLOCK`` columns is anchored at theta_b = pi (_BLOCK (b + 1)
    + 1/2) u; the anchors of tile t (blocks b = _TILE t + e) rotate the
    ``_TILE`` fine angles of e by the coarse angle pi _TILE _BLOCK t u; both
    are reduced exactly (``_anchor_angles``). The phases phi_m = pi m u are
    a rotation ladder (``_rotations``) from 0 in steps of pi u. A piece of K
    rows is zero-padded to kb rows, K rounded up to a multiple of
    ``_ROW_QUANTUM``, and each tile is then one product of a fixed shape:
    [x cos(theta) | -x sin(theta)] (_TILE x 2 kb) times [cos(phi); sin(phi)]
    (2 kb x _BLOCK), phi_m = pi m u. Pieces of one kb and one rank in their
    sample (0 for a sample's first piece) are stacked, at most
    ``_BATCH_ROWS`` padded rows per ``np.matmul``; ranks go in order, so the
    pieces of a sample are added into it in row order, one per batch. The
    operands are laid out (rows of the matrix, pieces, 2 kb), so that the
    elementwise work runs along whole batches; a product's leading dimension
    then varies with the batch, which leaves its bits alone (batch rows
    equal single samples, by test).
    """
    n_tiles = -(-acc.shape[1] // (_TILE * _BLOCK))
    fine = _BLOCK * (1.0 + np.arange(_TILE)) + 0.5
    coarse = _TILE * _BLOCK * np.arange(n_tiles, dtype=float)
    kbs = -(-(end - start) // _ROW_QUANTUM) * _ROW_QUANTUM
    rank = np.arange(len(sample)) - np.searchsorted(sample, sample)
    key = rank * (_ROW_BUDGET + 1) + kbs
    order = np.argsort(key, kind="stable")
    key = key[order]
    i = 0
    while i < len(order):
        kb = int(kbs[order[i]])
        j = min(i + _BATCH_ROWS // kb, int(np.searchsorted(key, key[i], side="right")))
        sel = order[i:j]
        xp, up = _padded_rows(x, u, start[sel], end[sel], kb)
        # [cos(phi); sin(phi)]: two trig calls per row.
        table = _halves(*_rotations(None, np.pi * up, _BLOCK))
        # [x cos(theta) | -x sin(theta)] for every anchor of every tile, with
        # theta = coarse + fine and x folded into the fine factors.
        tc, tf = _anchor_angles(up, coarse), _anchor_angles(up, fine)
        cc, sc, xcf, xsf = np.cos(tc), np.sin(tc), xp * np.cos(tf), xp * np.sin(tf)
        lhs = (_halves(cc, -sc)[:, None] * _halves(xcf, xcf)[None]
               + _halves(-sc, -cc)[:, None] * _halves(xsf, xsf)[None])
        prod = np.matmul(lhs.transpose(2, 0, 1, 3), table.transpose(1, 2, 0)[:, None])
        acc[sample[sel]] += prod.reshape(j - i, -1)[:, :acc.shape[1]] * scale
        i = j


def shot_sum(basis: KleBasis, jump_sizes: np.ndarray, uniforms: np.ndarray,
             offsets: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """sum_i f(x_i, T u_i) for jump sizes x_i placed at times T u_i, per sample.

    Componentwise (sqrt(2T)/pi) sum_i x_i cos(pi (k-1/2) u_i) / (k-1/2);
    linear in the jump sizes. ``offsets`` (length n_samples + 1) splits the
    rows into consecutive samples; without it the rows are one sample and
    the result is a d-vector. The sums are added into ``out`` (shape
    (n_samples, d), or (d,) for one sample; zeros when not given), which is
    returned. A sample with no rows adds nothing.

    A sample's rows are cut into pieces of at most ``_ROW_BUDGET`` rows, only
    past that budget and where its own rows say. Columns k <= ``_BLOCK`` are
    x cos((k - 1/2) pi u), a rotation ladder (``_rotations``, four trig calls
    per row) from pi u / 2 in steps of pi u, in groups of whole pieces of at
    most ``_HEAD_ROWS`` rows; each piece is reduced with ``np.add.reduceat``
    along its rows (numpy adds the first row to a pairwise sum of the rest)
    and ``np.add.at`` adds the pieces of a sample in row order. Each later
    block of ``_BLOCK`` columns, starting at index k_half = c + 1/2,
    rotates from its anchor angle theta = pi (c + 1/2) u:
    x cos(theta + phi_m) = x cos(theta) cos(phi_m) - x sin(theta) sin(phi_m),
    with phi_m = pi m u for m < ``_BLOCK``. BLAS sums these columns in tiles
    of ``_TILE`` blocks (``_add_tiles``): one product of a fixed shape per
    piece and tile, the piece zero-padded to a row bucket (its row count
    rounded up to a multiple of ``_ROW_QUANTUM``) and the last tile
    zero-padded past d. So an output element comes from a product whose
    shape and operands do not depend on d, on the other samples of the chunk
    or on the chunking, and the pieces of a sample are added into it in row
    order: every column is a function of k and the sample's rows only. A
    BLAS product of one shape gives the same bits on every call; for these
    shapes OpenBLAS also gives them under one and two threads (tested),
    where one (8 x 3000) @ (3000 x 64) product does not.

    Anchor angles are reduced mod 2 pi without rounding (``_anchor_angles``);
    a ladder adds a few eps per rung. Against np.cos of exact angles every
    column is within 2.2e-14 of sum |x_i| for one jump, 5.0e-15 for 45 and
    1.4e-15 for 450 (largest of 300, 60 and 12 random draws at d = 3000;
    3.5e-14, 5.3e-15 and 1.7e-15 for the same draws with one ``cos`` call
    per head column and phase); np.cos of the float64 product
    pi (k - 1/2) u is off by up to 1.9e-12 there.
    """
    x = np.asarray(jump_sizes, dtype=float)
    u = np.asarray(uniforms, dtype=float)
    d, k_half = basis.d, basis.k_half
    bounds = np.array([0, len(x)]) if offsets is None else np.asarray(offsets)
    if out is None:
        out = np.zeros(d if offsets is None else (len(bounds) - 1, d))
    acc = out[None] if out.ndim == 1 else out
    scale = math.sqrt(2.0 * basis.T) / math.pi / k_half
    head = min(d, _BLOCK)
    sample, start, end = _pieces(bounds)
    i = 0
    while i < len(start):
        j = int(np.searchsorted(end, start[i] + _HEAD_ROWS, side="right"))
        r0, r1 = start[i], end[j - 1]
        # Column k is x cos((k - 1/2) pi u), a rotation ladder from pi u / 2
        # in steps of pi u; its term matrix holds one column k per row, so
        # that reduceat runs along contiguous rows. A group may hold several
        # pieces of one sample, which add.at adds in row order.
        step = np.pi * u[r0:r1]
        terms = _rotations(0.5 * step, step, head)[0] * x[r0:r1]
        np.add.at(acc[:, :head], sample[i:j], np.add.reduceat(terms, start[i:j] - r0, axis=1).T * scale[:head])
        i = j
    if d > _BLOCK:
        _add_tiles(acc[:, _BLOCK:], scale[_BLOCK:], x, u, sample, start, end)
    return out


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


@dataclass(frozen=True, eq=False)
class PartRecord:
    """Retained stream of one jump part: arrivals, uniforms, jump sizes, drift."""

    gammas: np.ndarray
    uniforms: np.ndarray
    jump_sizes: np.ndarray
    drift_a: float


@dataclass(frozen=True, eq=False)
class CoefficientSample:
    """One realization of the coefficient vector Z and everything that made it.

    ``pos`` and ``neg`` keep each jump part's stream (None for an absent part).
    """

    z: np.ndarray
    seed: int
    sample_index: int
    T: float
    alpha: float
    sigma2: float
    pos: PartRecord | None
    neg: PartRecord | None

    def __post_init__(self):
        if not np.all(np.isfinite(self.z)):
            raise ValueError("coefficients must be finite")

    @property
    def d(self) -> int:
        return len(self.z)

    @property
    def n_terms_pos(self) -> int:
        return 0 if self.pos is None else len(self.pos.gammas)

    @property
    def n_terms_neg(self) -> int:
        return 0 if self.neg is None else len(self.neg.gammas)


def _gaussian_scale(basis: KleBasis, sigma2: float) -> np.ndarray | None:
    return np.sqrt(basis.gaussian_coefficient_variances(sigma2)) if sigma2 > 0.0 else None


def _plan(model: SplitModel, basis: KleBasis, cfg: ShotConfig):
    """What sampling needs beyond the sample index, built once per call.

    One ``(label, sign, centered tail, stop level, drift a, drift vector)``
    tuple per jump part, and the Gaussian scale (None without a Gaussian
    part). A stop level is the part's expected term count, so one above
    ``cfg.max_terms`` raises ``TruncationCapError`` here, before anything is
    drawn.
    """
    parts = []
    for label, sign, part in ((PART_POS, 1.0, model.pos), (PART_NEG, -1.0, model.neg)):
        if part is None:
            continue
        c = center(part)
        stop = gamma_stop_level(c.tail_pos, basis.T, cfg)
        if stop > cfg.max_terms:
            raise TruncationCapError(0, 0.0, stop, cfg.max_terms)
        parts.append((label, sign, c.tail_pos, stop, c.triple.a, basis.drift_vector(c.triple.a)))
    return parts, _gaussian_scale(basis, float(model.gaussian_sigma2))


def _add_part(rows: np.ndarray, basis: KleBasis, sign: float, drift: np.ndarray,
              jump_sizes: np.ndarray, uniforms: np.ndarray, offsets: np.ndarray | None = None) -> None:
    # The one place a jump part enters coefficient rows (one row, or one per
    # sample of ``offsets``); fresh sampling and dimension extension both go
    # through it, so they agree bitwise. Negating the sizes negates the sum
    # exactly.
    rows += sign * drift
    shot_sum(basis, sign * np.asarray(jump_sizes, dtype=float), uniforms, offsets, out=rows)


def _add_gaussian(rows: np.ndarray, scale: np.ndarray | None, seed: int, indices: range) -> None:
    # Row j gets the Gaussian vector of sample indices[j], drawn from the
    # stream keyed (index, PART_GAUSS).
    if scale is not None:
        for row, rng in zip(rows, _stream_rngs(seed, indices, (PART_GAUSS,))):
            row += scale * rng.standard_normal(len(row))


def _run(model: SplitModel, basis: KleBasis, cfg: ShotConfig, n_samples: int,
         start_index: int, chunk: int, keep: bool = False):
    """The sampling kernel: ``(Z, n_pos, n_neg, kept)`` for consecutive indices.

    Jump-size inversion and ``shot_sum`` run once per ``chunk`` samples and
    part, on the chunk's flattened jumps, which is elementwise identical to
    each sample alone. With ``keep``, ``kept[i]`` maps each part label to
    the row's ``PartRecord``.
    """
    if start_index < 0:
        raise ValueError(f"sample indices must be non-negative, got {start_index}")
    parts, gauss_scale = _plan(model, basis, cfg)
    Z = np.zeros((n_samples, basis.d))
    counts = np.zeros((2, n_samples), dtype=np.int64)
    kept = [{} for _ in range(n_samples)] if keep else None
    for lo in range(0, n_samples, chunk):
        hi = min(lo + chunk, n_samples)
        idx = range(start_index + lo, start_index + hi)
        for label, sign, tail, stop, drift_a, drift in parts:
            gammas, uniforms, offsets = arrival_streams(cfg.seed, idx, (label,), stop, cfg.max_terms)
            sizes = (
                np.atleast_1d(np.asarray(tail.g_inv(gammas / basis.T), dtype=float))
                if offsets[-1] else np.empty(0)
            )
            _add_part(Z[lo:hi], basis, sign, drift, sizes, uniforms, offsets)
            if keep:
                for j, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
                    kept[lo + j][label] = PartRecord(gammas[a:b], uniforms[a:b], sizes[a:b], drift_a)
            counts[label, lo:hi] = np.diff(offsets)
        _add_gaussian(Z[lo:hi], gauss_scale, cfg.seed, idx)
    return Z, counts[PART_POS], counts[PART_NEG], kept


def sample_coeffs(
    model: SplitModel,
    basis: KleBasis,
    cfg: ShotConfig,
    sample_index: int = 0,
) -> CoefficientSample:
    """Sample Z for a composite model: Z_pos - Z_neg + Gaussian part.

    The batch of one: equal bitwise to row ``sample_index`` of
    ``sample_coeffs_batch``. Parts are centered internally; each is sampled
    on its own substream derived from ``(cfg.seed, sample_index, part)``, and
    the Gaussian vector uses the variances that make a jump-free model
    reproduce E[Z_k^2] = lambda_k. The sample keeps its streams for
    ``extend_dimension``.
    """
    Z, _, _, kept = _run(model, basis, cfg, 1, sample_index, 1, keep=True)
    return CoefficientSample(
        z=Z[0], seed=cfg.seed, sample_index=sample_index, T=basis.T, alpha=basis.alpha,
        sigma2=float(model.gaussian_sigma2), pos=kept[0].get(PART_POS), neg=kept[0].get(PART_NEG),
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
    samples share one jump-size inversion and one ``shot_sum`` call, and
    never changes the result.
    """
    Z, n_pos, n_neg, _ = _run(model, basis, cfg, n_samples, start_index, chunk)
    return Z, n_pos, n_neg


def extend_dimension(coeffs: CoefficientSample, new_d: int) -> CoefficientSample:
    """Recompute the sample at a larger dimension from its own streams.

    The first ``coeffs.d`` coordinates are reproduced bitwise (verified: a
    sample whose streams do not give its ``z`` raises ``ValueError``); the
    new coordinates use the same jump realizations and the same Gaussian
    stream, so the result equals a fresh run at ``new_d`` with the same seed.
    """
    if new_d < coeffs.d:
        raise ValueError("new_d must be at least the current dimension")
    if new_d == coeffs.d:
        return coeffs
    wide = KleBasis(T=coeffs.T, d=new_d, alpha=coeffs.alpha)
    z = np.zeros(new_d)
    for sign, part in ((1.0, coeffs.pos), (-1.0, coeffs.neg)):
        if part is not None:
            _add_part(z, wide, sign, wide.drift_vector(part.drift_a), part.jump_sizes, part.uniforms)
    _add_gaussian(z[None], _gaussian_scale(wide, coeffs.sigma2), coeffs.seed,
                  range(coeffs.sample_index, coeffs.sample_index + 1))
    if not np.array_equal(z[: coeffs.d], coeffs.z):
        raise ValueError("the sample's streams are inconsistent with its coefficients")
    return replace(coeffs, z=z)
