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
of pi u, each piece summed as ``np.add.reduceat`` sums it. Past d = 64 that
one ladder per row is also the phase table of every later column: column
64 b + m + 1 is x cos(64 b pi u + (m + 1/2) pi u), ladder rung m rotated by
the anchor 64 b pi u, and BLAS sums the rotated columns: in tiles of 8
blocks (512 columns, zero-padded past d), one matrix product per piece and
tile whose shape its own row count sets. The pieces are sorted by row count
and laid end to end without padding, so a run of pieces of one row count is
one stacked product, and the rows are taken in batches of about 1024, a few
long numpy calls each. The anchors are complex products of two short
ladders in exactly reduced steps of 64 pi u and 512 pi u, so a row takes 8
trig calls up to d = 4160. A column's value depends on k and the sample's
jumps alone, never on d, the chunk or the number of BLAS threads (see
``shot_sum`` for why, and for the measured error).

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

import bisect
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .basis import _BLOCK, KleBasis, _anchor_angles, _doubled_steps, _ladder
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
# shot_sum: rows per piece and anchored blocks of ``_BLOCK`` columns per GEMM
# tile, fixed, so that no column depends on d or the chunk (a piece's
# products take its exact row count); rows per batch and per span of the
# pieces laid end to end past d = 64, and rows per group of whole pieces at
# d <= 64, which set only memory and speed. The batch and span sizes were
# chosen with one and two worker threads (see ``_add_batches``).
_ROW_BUDGET = 512
_TILE = 8
_BATCH_ROWS = 1024
_SPAN_ROWS = 4096
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


def _piece_sums(terms: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The sums of ``terms`` along the rows, one row per piece: (pieces, len(terms)).

    ``terms`` holds one column of the head per row and one jump per column,
    so that ``np.add.reduceat`` runs along contiguous memory; piece p is the
    columns from ``lo[p]`` to the next piece's start (the last one to the
    end). numpy adds a piece's first jump to a pairwise sum of the rest.
    Both routes of ``shot_sum`` sum the head here, so its bits do not depend
    on d.
    """
    return np.add.reduceat(terms, lo, axis=1).T


def _head_cosines(u: np.ndarray, n: int) -> np.ndarray:
    """cos((m + 1/2) pi u) for m < n, (n, len(u)): ``_rotations(pi u / 2, pi u, n)[0]`` bitwise.

    The ladder's last doubling writes sin rungs that only a longer ladder
    would read, so it writes the cos rungs alone.
    """
    step = np.pi * u
    c = np.empty((n, len(u)))
    c[0] = np.cos(0.5 * step)
    if n > 1:
        half = 1 << (n - 1).bit_length() - 1
        s = np.empty((half, len(u)))
        s[0] = np.sin(0.5 * step)
        steps = _doubled_steps(np.cos(step), np.sin(step), n)
        _ladder(c[:half], s, steps[:-1])
        wc, ws = steps[-1]
        np.multiply(c[:n - half], wc, out=c[half:])
        c[half:] -= s[:n - half] * ws
    return c


def _span_ladders(x: np.ndarray, u: np.ndarray, n_groups: int):
    """The first phase rungs and the anchors of a span of rows.

    The phases (m + 1/2) pi u run a rotation ladder in real arithmetic from
    pi u / 2 in steps of pi u, bitwise that of ``_rotations``: its first
    2 x ``_TILE`` rungs, (16, 2, rows) cos and sin, and the
    ``_doubled_steps`` of its later rungs up to ``_BLOCK``.

    The anchors are complex and conjugated, (``_TILE``, 1 + n_groups,
    rows): 0, the fine anchors x e^(-i 64 (e + 1) pi u), a ladder from
    x e^(-i alpha) in steps of e^(-i alpha), alpha = 64 pi u; 1 + q, the
    coarse anchors e^(-i 512 t pi u), t = _TILE q + r, a ladder from
    e^(-i 4096 q pi u) (1 for q = 0) in steps of e^(-i beta), beta = 512 pi
    u. A rung is one out-of-place complex product, which numpy rounds the
    same wherever the element sits (an in-place product of a one-element
    array does not; see ``_rotations``). alpha, beta and 4096 q pi u are
    reduced exactly (``_anchor_angles``), so the anchors' error stays a few
    eps per rung at any d and every angle's bits depend on its index and u
    alone; that is 8 trig calls per row while d <= 4160 (n_groups = 1).
    """
    step = np.pi * u
    k = np.concatenate(([_BLOCK, _TILE * _BLOCK], _TILE * _TILE * _BLOCK * np.arange(1.0, n_groups)))
    angles = np.concatenate(((0.5 * step)[None], step[None], _anchor_angles(u, k)))
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    del angles, step
    phases = np.empty((2 * _TILE, 2, len(u)))
    phases[0] = cos_a[0], sin_a[0]
    steps = _doubled_steps(cos_a[1], sin_a[1], len(phases))
    _ladder(phases[:, 0], phases[:, 1], steps)
    later = _doubled_steps(*steps[-1], 2 * _BLOCK // len(phases))[1:]
    # Rows of cos_a past the phases': alpha, beta, then 4096 q pi u for q >= 1.
    turns = np.empty(cos_a[2:].shape, dtype=complex)
    turns.real, turns.imag = cos_a[2:], -sin_a[2:]
    anchors = np.empty((_TILE, 1 + n_groups, len(u)), dtype=complex)
    anchors[0, 0] = x * turns[0]
    anchors[0, 1] = 1.0
    anchors[0, 2:] = turns[2:]
    w = turns[[0] + [1] * n_groups]
    b = 1
    while b < _TILE:
        np.multiply(anchors[:b], w, out=anchors[b:2 * b])
        w = w * w
        b *= 2
    return phases, anchors, later


def _left_operands(anchors: np.ndarray, n_tiles: int) -> np.ndarray:
    """The tiles' anchors x e^(-i theta_b) of a batch's rows, as reals: (tiles, _TILE, rows, 2).

    Tile t, row e holds block b = 1 + _TILE t + e, theta_b = 64 b pi u: the
    complex product of fine anchor e and coarse anchor t (``_span_ladders``),
    x cos(theta_b) and -x sin(theta_b) side by side per row.
    """
    coarse = anchors[:, 1:].swapaxes(0, 1).reshape(-1, 1, anchors.shape[-1])[:n_tiles]
    return np.multiply(coarse, anchors[:, 0]).view(float).reshape(n_tiles, _TILE, -1, 2)


def _batch_columns(x: np.ndarray, phases: np.ndarray, anchors: np.ndarray, later, runs,
                   n_tiles: int) -> np.ndarray:
    """The unscaled columns of a batch of pieces laid end to end, (pieces, _BLOCK + tiles x 512).

    ``phases``, ``anchors`` and ``later`` are the batch's rows of
    ``_span_ladders``. ``runs`` are ``(a, b, K, r)`` per run of pieces a to
    b - 1 of K rows each, whose rows start at row r. The phases go on to
    ``_BLOCK`` rungs in the phase table (``_BLOCK``, rows, 2), cos and sin
    side by side per row. Its cosines times x are the head columns, summed
    over each piece's rows (``_piece_sums``) as at d <= ``_BLOCK``.

    Block b >= 1 of ``_BLOCK`` columns is anchored at theta_b = 64 b pi u,
    so its column m is x cos(theta_b + phi_m) = x cos(theta_b) cos(phi_m) -
    x sin(theta_b) sin(phi_m). Tile t holds blocks b = 1 + _TILE t + e, whose
    anchors x e^(-i theta_b), (x cos(theta_b), -x sin(theta_b)) side by
    side, are the products of the fine and the coarse anchors. A tile is
    one product of a fixed shape per piece, the anchors (_TILE x 2 K) times
    the table (2 K x _BLOCK), and a run is one ``np.matmul`` stack of them
    over strided views of the batch's arrays.
    """
    table = np.empty((_BLOCK, len(x), 2))
    planes = table.transpose(0, 2, 1)
    planes[:len(phases)] = phases
    _ladder(planes[:, 0], planes[:, 1], later, len(phases))
    cols = np.empty((runs[-1][1], _BLOCK + n_tiles * _TILE * _BLOCK))
    lo = [r + kb * p for a, b, kb, r in runs for p in range(b - a)]
    cols[:, :_BLOCK] = _piece_sums(table[..., 0] * x, lo)
    lhs = _left_operands(anchors, n_tiles)
    for a, b, kb, r in runs:
        rows = slice(r, r + (b - a) * kb)
        np.matmul(lhs[:, :, rows].reshape(n_tiles, _TILE, b - a, 2 * kb).transpose(2, 0, 1, 3),
                  table[:, rows].reshape(_BLOCK, b - a, 2 * kb).transpose(1, 2, 0)[:, None],
                  out=cols[a:b, _BLOCK:].reshape(b - a, n_tiles, _TILE, _BLOCK))
    return cols


def _add_batches(acc: np.ndarray, scale: np.ndarray, x: np.ndarray, u: np.ndarray,
                 sample: np.ndarray, start: np.ndarray, end: np.ndarray) -> None:
    """Add every column of every piece into ``acc`` (d > ``_BLOCK``).

    The pieces are sorted by their rank in their sample (0 for a sample's
    first piece) and then by their row count, and laid end to end without
    padding; ranks go in order, so the pieces of a sample are added into it
    in row order. The layout is cut into batches of whole pieces of about
    ``_BATCH_ROWS`` rows (``_batch_columns``), and the batches into spans of
    ``_SPAN_ROWS // _BATCH_ROWS`` (``_span_ladders``): a span makes the
    short-ladder and trig calls of its rows at once, and a batch the rest,
    a few long numpy calls over rows that stay in cache. Each call hands
    the interpreter lock to the other worker thread and back, and the span
    and the batch bound the memory at any row count. A batch's columns are
    scaled in place and added into its samples' rows, one rank at a time.
    """
    d = acc.shape[1]
    n_tiles = -(-(d - _BLOCK) // (_TILE * _BLOCK))
    rows = end - start
    rank = np.arange(len(sample)) - np.searchsorted(sample, sample)
    order = np.lexsort((rows, rank))
    sample, start, rows = sample[order], start[order], rows[order]
    first = np.cumsum(rows) - rows
    # Piece indices where a batch, a rank or a run of one row count starts,
    # each list ending with the number of pieces.
    batches = np.unique(np.append(np.searchsorted(first, np.arange(0, first[-1] + 1, _BATCH_ROWS)),
                                  len(rows))).tolist()
    ranks = np.append(np.flatnonzero(np.diff(rank[order])) + 1, len(rows)).tolist()
    runs = np.unique(np.append(np.flatnonzero(np.diff(rows)) + 1, batches)).tolist()
    rows_l, first_l = rows.tolist(), first.tolist() + [int(first[-1] + rows[-1])]
    per_span = _SPAN_ROWS // _BATCH_ROWS
    for i in range(0, len(batches) - 1, per_span):
        span = batches[i:i + per_span + 1]
        p0, p1 = span[0], span[-1]
        src = np.repeat(start[p0:p1] - (first[p0:p1] - first_l[p0]), rows[p0:p1])
        src += np.arange(first_l[p1] - first_l[p0])
        xs = x[src]
        phases, anchors, later = _span_ladders(xs, u[src], -(-n_tiles // _TILE))
        for q0, q1 in zip(span[:-1], span[1:]):
            r0, r1 = first_l[q0] - first_l[p0], first_l[q1] - first_l[p0]
            edges = runs[bisect.bisect_left(runs, q0):bisect.bisect_left(runs, q1) + 1]
            batch_runs = [(a - q0, b - q0, rows_l[a], first_l[a] - first_l[q0]) for a, b in zip(edges[:-1], edges[1:])]
            cols = _batch_columns(xs[r0:r1], phases[..., r0:r1], anchors[..., r0:r1],
                                  [(wc[r0:r1], ws[r0:r1]) for wc, ws in later], batch_runs, n_tiles)
            cols = cols[:, :d]
            cols *= scale
            groups = [q0] + ranks[bisect.bisect_right(ranks, q0):bisect.bisect_left(ranks, q1)] + [q1]
            for a, b in zip(groups[:-1], groups[1:]):
                acc[sample[a:b]] += cols[a - q0:b - q0]


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
    x cos((k - 1/2) pi u), a rotation ladder (bitwise ``_rotations``, four
    trig calls per row) from pi u / 2 in steps of pi u; each piece is summed
    along its rows, its first term plus a pairwise sum of the rest, and the
    pieces of a sample are added into it in row order. At d <= ``_BLOCK``
    the ladder runs over groups of whole pieces of at most ``_HEAD_ROWS``
    rows (``_head_cosines``, ``_piece_sums``). Past that the pieces are
    sorted by row count and laid end to end, without padding
    (``_add_batches``), and one ladder per row, the phase table, serves the
    head and every later column: column 64 b + m + 1, b >= 1, is
    x cos(theta_b + phi_m), ladder rung m, phi_m = (m + 1/2) pi u, rotated
    by the anchor theta_b = 64 b pi u. BLAS sums these columns in tiles of
    ``_TILE`` blocks (``_batch_columns``): one product of a fixed shape per
    piece and tile, whose inner dimension is twice the piece's row count,
    the last tile zero-padded past d. The anchors are complex products of
    two ladders of ``_TILE`` rungs in exactly reduced steps of 64 pi u and
    512 pi u (``_span_ladders``), so a row takes 8 trig calls up to
    d = 4160 and 2 more per 4096 columns beyond, where one exact anchor per
    tile and a phase table of its own took 34 at d = 3000. The head sums the
    same elements in the same order on both routes, and an output element
    comes from operations whose shapes and operands do not depend on d, on
    the other samples of the chunk or on the chunking: every column is a
    function of k and the sample's rows only. A BLAS product of one shape
    gives the same bits on every call; for these shapes OpenBLAS also gives
    them under one and two threads (tested), where one
    (8 x 3000) @ (3000 x 64) product does not.

    Anchor angles are reduced mod 2 pi without rounding (``_anchor_angles``);
    a ladder adds a few eps per rung. Against np.cos of exact angles every
    column is within 2.5e-14 of sum |x_i| for one jump, 5.4e-15 for 45 and
    1.6e-15 for 450 (largest of 300, 60 and 12 random draws at d = 3000;
    2.6e-14, 5.5e-15 and 1.7e-15 at d = 9000, past the first exact restart
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
        if len(sample):
            _add_batches(acc, scale, x, u, sample, start, end)
        return out
    i = 0
    while i < len(start):
        j = int(np.searchsorted(end, start[i] + _HEAD_ROWS, side="right"))
        r0, r1 = start[i], end[j - 1]
        terms = _head_cosines(u[r0:r1], d) * x[r0:r1]
        np.add.at(acc, sample[i:j], _piece_sums(terms, start[i:j] - r0) * scale)
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
