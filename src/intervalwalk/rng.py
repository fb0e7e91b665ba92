"""Deterministic random streams: one master seed, many addressable substreams.

Streams are PCG64 generators keyed by an integer path (seed, part, part, ...),
so any unit of work can draw from its own stream and results never depend on
execution order or worker count.

`substream` builds one stream through numpy's `SeedSequence` and `PCG64`.
`substreams` walks a block of consecutive substreams (seed, idx): it hashes
the whole block's entropy in one uint32 numpy pass (numpy's SeedSequence
mix with its pool of 4 words) into each row's `generate_state(4, uint64)`
words, and numpy's own PCG64 seeds each row's generator from its words.
Every row's stream equals that of `substream(seed, idx)`, and each block's
first row is checked against numpy's SeedSequence itself, so a numpy that
hashed differently would raise instead of shifting the streams.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .graph import _check_integers


def _seed_sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    """numpy's SeedSequence for (seed, *path); a ValueError names an argument
    that is not an integer, and SeedSequence raises one for a negative."""
    _check_integers(seed=seed, **{f"path[{i}]": p for i, p in enumerate(path)})
    return np.random.SeedSequence([int(seed), *(int(p) for p in path)])


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by (seed, *path)."""
    return np.random.default_rng(_seed_sequence(seed, path))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL = 4
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first, as
    SeedSequence reads an entropy entry (0 is one word)."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(4, uint64)` for each row of `entropy`,
    a (rows, words) uint32 array of assembled entropy words, as one C-ordered
    (rows, 4) uint64 array."""
    rows, length = entropy.shape
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, length):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    # generate_state(4, uint64): eight words cycled from the pool, read as
    # little-endian pairs
    hash_const = _INIT_B
    state = np.empty((rows, 8), dtype=np.uint64)
    for i in range(8):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return np.ascontiguousarray(state[:, 0::2] | state[:, 1::2] << np.uint64(32))


class _SeedWords(ISeedSequence):
    """One row of `_seed_words`, handed to numpy's PCG64, which asks its seed
    sequence for exactly `generate_state(4, uint64)` and seeds from that."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only generate_state(4, uint64) is held, got ({n_words}, {np.dtype(dtype)})")
        return self._words


def substreams(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """For idx in range(lo, hi), in order, a new Generator that draws what
    `substream(seed, idx)` draws.

    Raises RuntimeError if the block's first row disagrees with numpy's own
    SeedSequence, and ValueError if an argument is not an integer or `seed`
    or `lo` is negative, as SeedSequence does.
    """
    _check_integers(seed=seed, lo=lo, hi=hi)
    seed, lo, hi = int(seed), int(lo), int(hi)
    if seed < 0 or lo < 0:
        raise ValueError(f"substreams needs a non-negative seed and lo, got seed={seed}, lo={lo}")
    prefix = _words(seed)
    numpy_first = np.random.SeedSequence([seed, lo]).generate_state(4, np.uint64)
    # an idx below 2^32 is one entropy word, one below 2^64 two, and so on;
    # each run of rows with the same word count is hashed in one pass
    start = lo
    while start < hi:
        width = len(_words(start))
        stop = min(hi, 1 << 32 * width)
        idx = np.arange(start, stop, dtype=object)
        entropy = np.empty((stop - start, len(prefix) + width), dtype=np.uint32)
        entropy[:, : len(prefix)] = prefix
        for w in range(width):
            entropy[:, len(prefix) + w] = (idx >> (32 * w)) & _MASK32
        words = _seed_words(entropy)
        if start == lo and not np.array_equal(words[0], numpy_first):
            raise RuntimeError(f"substreams({seed}, {lo}, {hi}) disagrees with numpy's SeedSequence seeding")
        for row in words:
            yield np.random.Generator(np.random.PCG64(_SeedWords(row)))
        start = stop


def derive_seed(seed: int, *path: int) -> int:
    """Stable nonnegative 63-bit seed for the substream addressed by (seed, *path)."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0] >> np.uint64(1))


def exponential(rng: np.random.Generator, mean: float, size=None) -> np.ndarray:
    """Exponential draws via the inverse CDF, for bit-stable streams."""
    return -mean * np.log1p(-rng.random(size))
