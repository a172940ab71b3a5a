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
config) from ``SplitModel.parts``, holds each part's substream label, sign,
centered tail, stop level and drift vector, plus the Gaussian scale; one
batched kernel consumes it. The cosine blocks use the exactly reduced anchor
angles and rotation ladders of ``basis``, which path reconstruction shares.
``sample_coeffs`` is the batch of one, returned with its key (model, basis,
config, sample index) and the streams it drew, and ``extend_dimension`` runs
the key again at the larger d, so batch rows, single samples and grown
samples agree bitwise by construction.

The jump sum ``shot_sum`` runs once per chunk and part over the chunk's
flattened jumps with per-sample row offsets; a sample's rows are cut into
pieces of at most 512. The cosines are harmonics of one angle pi u per row,
so they come from rotation ladders (``basis._rotations``: a few trig
calls per row, then products and sums) rather than one ``cos`` call per row
and column.
Columns k <= 64 are x cos((k - 1/2) pi u), a ladder from pi u / 2 in steps
of pi u, summed per piece with ``np.add.reduceat``. Past d = 64 that one
ladder per row is also the phase table of every later column: column
64 b + m + 1 is x cos(64 b pi u + (m + 1/2) pi u), ladder rung m rotated by
the anchor 64 b pi u, and BLAS sums the rotated columns: in tiles of 8
blocks (512 columns, zero-padded past d), one matrix product of a fixed
shape per piece and tile, with the piece zero-padded to a row bucket that
its own row count sets (the next multiple of 16). The anchors come from
two short ladders in exactly reduced steps of 64 pi u and 512 pi u, so a
row takes 8 trig calls up to d = 4160. All sizes are module constants, so a
column's value depends on k and the sample's jumps alone, never on d, the
chunk or the number of BLAS threads (see ``shot_sum`` for why, and for the
measured error).

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
built per stream. A stream makes two numpy calls: one fill of its
exponentials into a row of a group buffer, as many as the doubling schedule
128, 384, 896, ... needs to pass the level with six standard deviations to
spare, and one fill of its uniforms; the partial sums, the counts below the
level and the gather run once per group of rows, and a row that falls short
is drawn again block by block. The draws are those of doubling blocks and
each row's cumulative sum is sequential, so a stream up to a higher level
extends a stream up to a lower one element for element, which makes
coefficient vectors bitwise reproducible under dimension growth, under a
raised cutoff and under any partitioning of samples across workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .basis import _BLOCK, _ROW_QUANTUM, KleBasis, _anchor_angles, _doubled_steps, _ladder, _rotations
from .models import PART_NEG, PART_POS, SplitModel, TailIntegral, center

__all__ = [
    "PART_POS",
    "PART_NEG",
    "PART_GAUSS",
    "TruncationCapError",
    "ShotConfig",
    "ArrivalStream",
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

# The jump parts' stream labels PART_POS and PART_NEG (0, 1) come from
# ``models``; the Gaussian part's follows them.
PART_GAUSS = 2

_FIRST_BLOCK = 128
# Doubles in the buffer that a group of arrival streams fills at once.
_FILL_DOUBLES = 1 << 20
_MAX_TERMS = 1_000_000
# Samples per chunk: per part, one jump-size array and one ``shot_sum``
# call; the CLI samples and reconstructs a chunk at a time.
_CHUNK = 512
# Arrivals per block of the jump-size inversion (``_jump_sizes``), which
# bounds its temporaries by a block rather than by a chunk's arrivals.
_INVERT_BLOCK = 1 << 15
# shot_sum: rows per piece, anchored blocks of ``_BLOCK`` columns per GEMM
# tile, padded rows per batch and per span of laid-out rows past d = 64, and
# rows per group of whole pieces at d <= 64; fixed, so that no column depends
# on d or the chunk (a piece's padded size is a multiple of ``_ROW_QUANTUM``,
# as a reconstruction's rows are). The batch and span sizes were chosen with
# two worker threads (see ``_add_batches``).
_ROW_BUDGET = 512
_TILE = 8
_BATCH_ROWS = 1024
_SPAN_ROWS = 8192
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
        if not 0.0 < self.gamma_cutoff < math.inf:
            raise ValueError("gamma_cutoff must be positive and finite")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


@dataclass(frozen=True, eq=False)
class ArrivalStream:
    """Poisson arrivals ``gammas`` strictly below ``level`` with matched uniforms.

    Built by ``arrival_stream`` and kept by ``sample_coeffs`` without
    checks; the oracles, which also take streams built elsewhere, validate
    the record they are given.
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
        # PCG64 passes the type itself, so the identity test decides.
        if n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            return self.words
        raise ValueError("a derived seed holds the 4 uint64 words that PCG64 asks for")


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


def _first_fill(level: float, max_terms: int) -> int:
    """Exponentials drawn per stream at once: the first size of the doubling
    schedule 128, 384, 896, ... that reaches level + 6 sqrt(level), six
    standard deviations above the Poisson count's mean, or ``max_terms``."""
    target = min(level + 6.0 * math.sqrt(max(level, 0.0)), max_terms)
    drawn = _FIRST_BLOCK
    while drawn < target:
        drawn = 2 * drawn + _FIRST_BLOCK
    return drawn


def _walked(rng: np.random.Generator, level: float, max_terms: int) -> np.ndarray:
    """One stream's arrivals below ``level`` from its fresh exponential
    generator, drawn in doubling blocks 128, 256, ... until one passes the
    level. Raises ``TruncationCapError`` at a block that reaches
    ``max_terms`` first, or when more than ``max_terms`` arrivals lie below
    the level."""
    blocks: list[np.ndarray] = []
    block = _FIRST_BLOCK
    n_drawn = 0
    while True:
        blocks.append(rng.standard_exponential(block))
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
    return g[:n]


def arrival_streams(seed, indices: range | None, labels: tuple, level: float,
                    max_terms: int = _MAX_TERMS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrival streams keyed ``(i, *labels)`` for i in ``indices``, flattened.

    Returns ``(gammas, uniforms, offsets)``: stream j is
    ``gammas[offsets[j]:offsets[j + 1]]``, the arrivals strictly below
    ``level``, with its uniforms; an empty range gives no arrivals and
    offsets ``[0]``. With ``indices`` None there is one stream, keyed by
    ``labels`` alone. A stream's exponentials and uniforms come from the
    generators of the keys ``key + (0,)`` and ``key + (1,)``
    (``_stream_rngs``), two numpy calls per stream: one fill of
    ``_first_fill`` exponentials into its row of a group buffer of at most
    ``_FILL_DOUBLES`` (or one row), and one of its uniforms into the flat
    output. The partial sums, the counts below the level and the gather run
    once per group. The fill is a size of the doubling schedule (128, 384,
    896, ...), so one call draws the exponentials of the schedule's first
    blocks, and a row's cumulative sum is sequential, so a stream up to a
    higher level extends the stream up to a lower one element for element.
    A row still at or below the level (probability about 1e-9), or one that
    breaks the cap, is drawn again from a fresh generator of its key, block
    by block (``_walked``), which gives the same arrivals or the same
    ``TruncationCapError``.
    Raises ``TruncationCapError`` when more than ``max_terms`` arrivals of a
    stream lie below ``level``.
    """
    n = 1 if indices is None else len(indices)
    offsets = np.zeros(n + 1, dtype=np.int64)
    if n == 0:
        return np.empty(0), np.empty(0), offsets
    width = _first_fill(level, max_terms)
    buf = np.empty((min(n, max(1, _FILL_DOUBLES // width)), width))
    exp_rngs = _stream_rngs(seed, indices, (*labels, 0))
    # Each stream's count goes into offsets[j + 1], summed in place below.
    counts, parts = offsets[1:], []
    for lo in range(0, n, len(buf)):
        g = buf[:min(len(buf), n - lo)]
        for row, rng in zip(g, exp_rngs):
            rng.standard_exponential(out=row)
        np.cumsum(g, axis=1, out=g)
        below = g < level
        count = counts[lo:lo + len(g)]
        count[:] = np.count_nonzero(below, axis=1)
        ok = (g[:, -1] > level) & (count <= max_terms)
        if ok.all():
            parts.append(g[below])
            continue
        rows = [row[:c] for row, c in zip(g, count)]
        for j in np.flatnonzero(~ok):
            key = None if indices is None else indices[lo + j:lo + j + 1]
            rows[j] = _walked(next(_stream_rngs(seed, key, (*labels, 0))), level, max_terms)
            count[j] = len(rows[j])
        parts.append(np.concatenate(rows))
        del rows
    del buf, g, row, below  # the group buffer and its views go before the arrivals are joined
    gammas = parts[0] if len(parts) == 1 else np.concatenate(parts)
    del parts  # the groups' copies go before the uniforms come
    np.cumsum(counts, out=counts)
    uniforms = np.empty(offsets[-1])
    bounds = offsets.tolist()
    for rng, a, b in zip(_stream_rngs(seed, indices, (*labels, 1)), bounds, bounds[1:]):
        rng.random(out=uniforms[a:b])
    return gammas, uniforms, offsets


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


def _jump_sizes(tail: TailIntegral, gammas: np.ndarray, T: float) -> np.ndarray:
    """The jump sizes ``tail.g_inv(gammas / T)``, in one new array.

    The inversion runs on blocks of ``_INVERT_BLOCK`` arrivals, each written
    into place, so its temporaries stay a block long whatever the number of
    arrivals; it is elementwise, so the sizes equal one call on all of them.
    """
    sizes = np.empty(len(gammas))
    for lo in range(0, len(gammas), _INVERT_BLOCK):
        hi = lo + _INVERT_BLOCK
        sizes[lo:hi] = tail.g_inv(gammas[lo:hi] / T)
    return sizes


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


def _padded_rows(x, u, start, end, first, total: int):
    """The rows of pieces ``start:end`` in flat arrays of ``total`` rows.

    Piece p begins at row ``first[p]``; the rows between pieces are zero.
    """
    n = end - start
    piece = np.repeat(np.arange(len(n)), n)
    src = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - start, n)
    dst = src + (first - start)[piece]
    xp, up = np.zeros(total), np.zeros(total)
    xp[dst], up[dst] = x[src], u[src]
    return xp, up


def _piece_sums(terms: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The sums of ``terms[:, lo_p:hi_p]`` along the rows, one row per piece p: (pieces, len(terms)).

    ``terms`` holds one column of the head per row and one jump per
    column, so that ``np.add.reduceat`` runs along contiguous memory; numpy
    adds a piece's first jump to a pairwise sum of the rest. The bounds go
    to reduceat as the pairs (lo_p, hi_p) and every second sum is kept; a
    last hi_p equal to the column count is left off, as reduceat takes no
    index past the end and its last sum runs to the end anyway.
    """
    bounds = np.stack((lo, hi), axis=1).ravel()
    if bounds[-1] == terms.shape[1]:
        bounds = bounds[:-1]
    return np.add.reduceat(terms, bounds, axis=1)[:, ::2].T


def _span_ladders(x: np.ndarray, u: np.ndarray, n_groups: int):
    """Starts and doubled steps of the rotation ladders of a span of padded rows.

    Each row runs 2 + n_groups ladders side by side, (2 + n_groups, rows):
    0, the phases (m + 1/2) pi u (start pi u / 2, step pi u); 1, the fine
    anchors x cos and x sin of 64 (e + 1) pi u (start x e^(i alpha) and step
    alpha = 64 pi u); 2 + q, the coarse anchors cos and -sin of 512 t pi u,
    t = _TILE q + r (start 4096 q pi u, 0 for q = 0, step beta = 512 pi u,
    conjugated). alpha, beta and 4096 q pi u are reduced exactly
    (``_anchor_angles``), so the anchors' error stays a few eps per rung at
    any d and every angle's bits depend on its index and u alone; that is 8
    trig calls per row while d <= 4160 (n_groups = 1). Returns the starts'
    cos and sin, the ``_doubled_steps`` of all ladders for their first
    ``_TILE`` rungs and those of the phases for the rest of their
    ``_BLOCK`` rungs. The phases' rungs are bitwise those of
    ``_rotations(pi u / 2, pi u, _BLOCK)``.
    """
    step = np.pi * u
    k = np.concatenate(([_BLOCK, _TILE * _BLOCK], _TILE * _TILE * _BLOCK * np.arange(1.0, n_groups)))
    angles = np.concatenate(((0.5 * step)[None], step[None], _anchor_angles(u, k)))
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    del angles, step
    # Rows of cos_a: pi u / 2, pi u, alpha, beta, then 4096 q pi u for q >= 1;
    # the start of the coarse ladder from 0 takes the place of beta.
    rows = [0, 2, 3] + list(range(4, 3 + n_groups))
    start_c, start_s = cos_a[rows], sin_a[rows]
    start_c[1] *= x
    start_s[1] *= x
    start_c[2], start_s[2] = 1.0, 0.0
    np.negative(start_s[2:], out=start_s[2:])
    rows = [1, 2] + [3] * n_groups
    step_c, step_s = cos_a[rows], sin_a[rows]
    np.negative(step_s[2:], out=step_s[2:])
    early = _doubled_steps(step_c, step_s, _TILE)
    later = _doubled_steps(early[-1][0][0], early[-1][1][0], 2 * _BLOCK // _TILE)[1:]
    return start_c, start_s, early, later


def _tiles(out: np.ndarray, xcf: np.ndarray, xsf: np.ndarray, cc: np.ndarray, nsc: np.ndarray,
           table: np.ndarray) -> None:
    """Write the columns past the head of a batch of padded pieces into ``out`` (pieces, tiles x 512).

    ``xcf`` and ``xsf`` are x cos and x sin of the fine angles, (_TILE,
    rows); ``cc`` and ``nsc`` cos and -sin of the coarse ones, (tiles,
    rows); ``table`` the batch's phase ladder, (``_BLOCK``, pieces, kb, 2),
    holding cos and sin of phi_m = (m + 1/2) pi u side by side per row.
    Block b >= 1 of ``_BLOCK`` columns is anchored at theta_b = 64 b pi u,
    so its column m is
    x cos(theta_b + phi_m) = x cos(theta_b) cos(phi_m) - x sin(theta_b) sin(phi_m),
    and tile t holds blocks b = 1 + _TILE t + e, whose anchors rotate the
    fine angle 64 (e + 1) pi u by the coarse angle 512 t pi u. Each tile is
    one product of a fixed shape per piece, (x cos(theta), -x sin(theta))
    per row (_TILE x 2 kb) times (cos(phi), sin(phi)) per row (2 kb x
    _BLOCK). The left operands are written in place, in the layout
    (tiles, _TILE, rows, 2) that ``np.matmul`` takes as strided matrices,
    so that the elementwise work runs along all rows of the batch.
    """
    n_pieces, kb = table.shape[1:3]
    n_tiles, n_rows = cc.shape
    cc, nsc, xcf, xsf = cc[:, None], nsc[:, None], xcf[None], xsf[None]
    lhs = np.empty((n_tiles, _TILE, n_rows, 2))
    tmp = np.empty((n_tiles, _TILE, n_rows))
    xc, xs = lhs[..., 0], lhs[..., 1]
    np.multiply(cc, xcf, out=xc)
    xc += np.multiply(nsc, xsf, out=tmp)
    np.multiply(nsc, xcf, out=xs)
    xs -= np.multiply(cc, xsf, out=tmp)
    del tmp
    np.matmul(lhs.reshape(n_tiles, _TILE, n_pieces, 2 * kb).transpose(2, 0, 1, 3),
              table.reshape(_BLOCK, n_pieces, 2 * kb).transpose(1, 2, 0)[:, None],
              out=out.reshape(n_pieces, n_tiles, _TILE, _BLOCK))


def _batch_columns(x: np.ndarray, ladders, lo: np.ndarray, hi: np.ndarray,
                   n_pieces: int, n_tiles: int) -> np.ndarray:
    """The unscaled columns of a batch of padded pieces, (pieces, _BLOCK + tiles x 512).

    ``x`` holds the batch's padded rows, piece p in ``lo[p]:hi[p]`` and zeros
    up to the next; ``ladders`` are the starts and steps of their ladders,
    sliced to the batch (``_span_ladders``). The ladders run their first
    ``_TILE`` rungs together; the phases then go on to ``_BLOCK`` rungs in
    the tiles' table, whose cosines times x are the head columns, summed
    over each piece's own rows (``_piece_sums``), and which is the phase
    table of every tile (``_tiles``).
    """
    start_c, start_s, early, later = ladders
    shape = (_TILE, *start_c.shape)
    c, s = np.empty(shape), np.empty(shape)
    c[0], s[0] = start_c, start_s
    _ladder(c, s, early)
    table = np.empty((_BLOCK, n_pieces, len(x) // n_pieces, 2))
    cos_p, sin_p = (table[..., h].reshape(_BLOCK, -1) for h in (0, 1))
    cos_p[:_TILE], sin_p[:_TILE] = c[:, 0], s[:, 0]
    _ladder(cos_p, sin_p, later, filled=_TILE)
    cols = np.empty((n_pieces, _BLOCK + n_tiles * _TILE * _BLOCK))
    cols[:, :_BLOCK] = _piece_sums(cos_p * x, lo, hi)
    coarse_c, coarse_s = (a[:, 2:].swapaxes(0, 1).reshape(-1, len(x))[:n_tiles] for a in (c, s))
    _tiles(cols[:, _BLOCK:], c[:, 1], s[:, 1], coarse_c, coarse_s, table)
    return cols


def _add_batches(acc: np.ndarray, scale: np.ndarray, x: np.ndarray, u: np.ndarray,
                 sample: np.ndarray, start: np.ndarray, end: np.ndarray) -> None:
    """Add every column of every piece into ``acc`` (d > ``_BLOCK``).

    A piece of K rows is zero-padded to kb rows, K rounded up to a multiple
    of ``_ROW_QUANTUM``. Pieces of one kb and one rank in their sample (0
    for a sample's first piece) are stacked, at most ``_BATCH_ROWS`` padded
    rows per batch (``_batch_columns``); ranks go in order, so the pieces of
    a sample are added into it in row order, one per batch. The padded rows
    are laid out in spans of at most ``_SPAN_ROWS``, batch after batch, with
    the starts and steps of their ladders (``_span_ladders``), so that a
    batch makes few numpy calls: each call hands the interpreter lock to
    the other worker thread and back (ladder starts per batch instead made
    two 512-sample chunks on two threads 11-15% slower at d = 3000, and the
    span bounds their memory at any row count). A batch's
    head and tiles come in one buffer, which is scaled in place and added
    into its samples' rows.
    """
    d = acc.shape[1]
    kbs = -(-(end - start) // _ROW_QUANTUM) * _ROW_QUANTUM
    rank = np.arange(len(sample)) - np.searchsorted(sample, sample)
    key = rank * (_ROW_BUDGET + 1) + kbs
    order = np.argsort(key, kind="stable")
    key, kbs, sample, start, end = key[order], kbs[order], sample[order], start[order], end[order]
    first = np.cumsum(kbs) - kbs
    n_tiles = -(-(d - _BLOCK) // (_TILE * _BLOCK))
    spans = np.unique(np.append(np.searchsorted(first, np.arange(0, kbs.sum(), _SPAN_ROWS)), len(key)))
    for p0, p1 in zip(spans[:-1], spans[1:]):
        r0 = first[p0]
        xp, up = _padded_rows(x, u, start[p0:p1], end[p0:p1], first[p0:p1] - r0, int(kbs[p0:p1].sum()))
        start_c, start_s, early, later = _span_ladders(xp, up, -(-n_tiles // _TILE))
        i = p0
        while i < p1:
            kb = int(kbs[i])
            j = min(i + _BATCH_ROWS // kb, int(np.searchsorted(key, key[i], side="right")), p1)
            rows = slice(first[i] - r0, first[j - 1] + kb - r0)
            ladders = (start_c[:, rows], start_s[:, rows], [(wc[:, rows], ws[:, rows]) for wc, ws in early],
                       [(wc[rows], ws[rows]) for wc, ws in later])
            lo = first[i:j] - first[i]
            cols = _batch_columns(xp[rows], ladders, lo, lo + end[i:j] - start[i:j], j - i, n_tiles)[:, :d]
            cols *= scale
            acc[sample[i:j]] += cols
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
    x cos((k - 1/2) pi u), a rotation ladder (``_rotations``, four trig
    calls per row) from pi u / 2 in steps of pi u; each piece is summed
    along its rows (``_piece_sums``) and the pieces of a sample are added
    into it in row order. At d <= ``_BLOCK`` the ladder runs over groups of
    whole pieces of at most ``_HEAD_ROWS`` rows. Past that the pieces are
    zero-padded and batched (``_add_batches``), and one ladder per padded
    row serves the head and every later column: column 64 b + m + 1, b >= 1,
    is x cos(theta_b + phi_m), ladder rung m, phi_m = (m + 1/2) pi u,
    rotated by the anchor theta_b = 64 b pi u. BLAS sums these columns in
    tiles of ``_TILE`` blocks (``_tiles``): one product of a fixed shape per
    piece and tile, the piece zero-padded to a row bucket (its row count
    rounded up to a multiple of ``_ROW_QUANTUM``) and the last tile
    zero-padded past d. The anchors come from two ladders of ``_TILE``
    rungs in exactly reduced steps of 64 pi u and 512 pi u
    (``_span_ladders``), so a padded row takes 8 trig calls up to d = 4160
    and 2 more per 4096 columns beyond, where one exact anchor per tile and
    a phase table of its own took 34 at d = 3000. The head sums the same
    elements in the same order on both routes, and an output element comes
    from operations whose shapes and operands do not depend on d, on the
    other samples of the chunk or on the chunking: every column is a
    function of k and the sample's rows only. A BLAS product of one shape
    gives the same bits on every call; for these shapes OpenBLAS also gives
    them under one and two threads (tested), where one
    (8 x 3000) @ (3000 x 64) product does not.

    Anchor angles are reduced mod 2 pi without rounding (``_anchor_angles``);
    a ladder adds a few eps per rung. Against np.cos of exact angles every
    column is within 2.5e-14 of sum |x_i| for one jump, 5.0e-15 for 45 and
    1.3e-15 for 450 (largest of 300, 60 and 12 random draws at d = 3000;
    2.5e-14, 6.6e-15 and 1.5e-15 at d = 9000, past the first exact restart
    of the coarse ladder); np.cos of the float64 product pi (k - 1/2) u is
    off by up to 1.9e-12 at d = 3000.
    """
    x = np.asarray(jump_sizes, dtype=float)
    u = np.asarray(uniforms, dtype=float)
    d, k_half = basis.d, basis.k_half
    bounds = np.array([0, len(x)]) if offsets is None else np.asarray(offsets)
    if out is None:
        out = np.zeros(d if offsets is None else (len(bounds) - 1, d))
    acc = out[None] if out.ndim == 1 else out
    scale = math.sqrt(2.0 * basis.T) / math.pi / k_half
    sample, start, end = _pieces(bounds)
    if d > _BLOCK:
        _add_batches(acc, scale, x, u, sample, start, end)
        return out
    i = 0
    while i < len(start):
        j = int(np.searchsorted(end, start[i] + _HEAD_ROWS, side="right"))
        r0, r1 = start[i], end[j - 1]
        step = np.pi * u[r0:r1]
        terms = _rotations(0.5 * step, step, d)[0] * x[r0:r1]
        np.add.at(acc, sample[i:j], _piece_sums(terms, start[i:j] - r0, end[i:j] - r0) * scale)
        i = j
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
class CoefficientSample:
    """One realization of the coefficient vector Z, with its key and its streams.

    A sample is fixed by its key (``model``, ``basis``, ``cfg``,
    ``sample_index``): ``sample_coeffs`` of the key gives ``z`` bitwise.
    ``pos`` and ``neg`` are the jump parts' arrival streams up to their stop
    levels (None for an absent part).
    """

    z: np.ndarray
    model: SplitModel
    basis: KleBasis
    cfg: ShotConfig
    sample_index: int
    pos: ArrivalStream | None
    neg: ArrivalStream | None

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


def _stop_levels(model: SplitModel, T: float, cfg: ShotConfig):
    """One ``(label, sign, centered part, stop level)`` tuple per jump part.

    A stop level is the part's expected term count, so one above
    ``cfg.max_terms`` raises ``TruncationCapError`` here, before anything is
    drawn.
    """
    parts = []
    for label, sign, part in model.parts:
        c = center(part)
        stop = gamma_stop_level(c.tail_pos, T, cfg)
        if stop > cfg.max_terms:
            raise TruncationCapError(0, 0.0, stop, cfg.max_terms)
        parts.append((label, sign, c, stop))
    return parts


def _plan(model: SplitModel, basis: KleBasis, cfg: ShotConfig):
    """What sampling needs beyond the sample index, built once per call.

    One ``(label, sign, centered tail, stop level, drift vector)`` tuple per
    jump part (``_stop_levels``), and the Gaussian part's coefficient scales
    (None without a Gaussian part).
    """
    parts = [(label, sign, c.tail_pos, stop, basis.drift_vector(c.triple.a))
             for label, sign, c, stop in _stop_levels(model, basis.T, cfg)]
    sigma2 = float(model.gaussian_sigma2)
    return parts, np.sqrt(basis.gaussian_coefficient_variances(sigma2)) if sigma2 > 0.0 else None


def _run(model: SplitModel, basis: KleBasis, cfg: ShotConfig, n_samples: int,
         start_index: int, keep: bool = False):
    """The sampling kernel: ``(Z, n_pos, n_neg, kept)`` for consecutive indices.

    ``shot_sum`` runs once per ``_CHUNK`` samples and part, on the chunk's
    flattened jumps, which is elementwise identical to each sample alone; the
    jump sizes are inverted into one array of the chunk's arrivals, a block
    at a time (``_jump_sizes``), so the chunk's arrays peak at about four
    doubles per arrival. Row j of a chunk gets the Gaussian vector drawn from
    the stream keyed (index, PART_GAUSS). With ``keep``, ``kept[i]`` maps
    each part label to the row's ``ArrivalStream``.
    """
    if start_index < 0:
        raise ValueError(f"sample indices must be non-negative, got {start_index}")
    parts, gauss_scale = _plan(model, basis, cfg)
    Z = np.zeros((n_samples, basis.d))
    counts = np.zeros((2, n_samples), dtype=np.int64)
    kept = [{} for _ in range(n_samples)] if keep else None
    for lo in range(0, n_samples, _CHUNK):
        hi = min(lo + _CHUNK, n_samples)
        idx = range(start_index + lo, start_index + hi)
        rows = Z[lo:hi]
        for label, sign, tail, stop, drift in parts:
            gammas, uniforms, offsets = arrival_streams(cfg.seed, idx, (label,), stop, cfg.max_terms)
            sizes = _jump_sizes(tail, gammas, basis.T)
            # Negating the sizes negates the sum exactly.
            sizes *= sign
            rows += sign * drift
            shot_sum(basis, sizes, uniforms, offsets, out=rows)
            if keep:
                for j, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
                    kept[lo + j][label] = ArrivalStream(gammas[a:b], uniforms[a:b], stop)
            counts[label, lo:hi] = np.diff(offsets)
            del gammas, uniforms, sizes  # a part's arrays go before the next part's are drawn
        if gauss_scale is not None:
            for row, rng in zip(rows, _stream_rngs(cfg.seed, idx, (PART_GAUSS,))):
                row += gauss_scale * rng.standard_normal(basis.d)
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
    reproduce E[Z_k^2] = lambda_k. The sample holds its key and the jump
    parts' streams.
    """
    Z, _, _, kept = _run(model, basis, cfg, 1, sample_index, keep=True)
    return CoefficientSample(Z[0], model, basis, cfg, sample_index,
                             kept[0].get(PART_POS), kept[0].get(PART_NEG))


def sample_coeffs_batch(
    model: SplitModel,
    basis: KleBasis,
    cfg: ShotConfig,
    n_samples: int,
    start_index: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample ``n_samples`` coefficient vectors with consecutive sample indices.

    Returns ``(Z, n_pos, n_neg)`` where Z has shape (n_samples, d) and row i
    is the sample with index ``start_index + i``, whatever the batch: how
    the indices are split into calls never changes a row.
    """
    Z, n_pos, n_neg, _ = _run(model, basis, cfg, n_samples, start_index)
    return Z, n_pos, n_neg


def extend_dimension(coeffs: CoefficientSample, new_d: int) -> CoefficientSample:
    """The sample at a larger dimension: a fresh run of its key at ``new_d``.

    The series is nested in d, so the first ``coeffs.d`` coordinates of the
    fresh run equal ``coeffs.z`` bitwise; a sample whose key does not give
    back its ``z`` raises ``ValueError``.
    """
    if new_d < coeffs.d:
        raise ValueError("new_d must be at least the current dimension")
    if new_d == coeffs.d:
        return coeffs
    grown = sample_coeffs(coeffs.model, replace(coeffs.basis, d=new_d), coeffs.cfg, coeffs.sample_index)
    if not np.array_equal(grown.z[: coeffs.d], coeffs.z):
        raise ValueError("the sample's key is inconsistent with its coefficients")
    return grown
