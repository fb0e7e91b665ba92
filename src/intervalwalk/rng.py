"""Deterministic random streams: one master seed, many addressable substreams.

Streams are PCG64 generators keyed by an integer path (seed, part, part, ...),
so any unit of work can draw from its own stream and results never depend on
execution order or worker count.

`substream` builds one stream through numpy's `SeedSequence` and `PCG64`.
`substreams` walks a block of consecutive substreams (seed, idx): it hashes
the whole block's entropy in one uint32 numpy pass (numpy's SeedSequence
mix with its pool of 4 words), runs PCG64's seeding step on Python ints,
and sets one reused Generator to each row's state in turn.  Every row's
state equals that of `substream(seed, idx)`, and each block's first row is
checked against numpy itself, so a numpy that seeded differently would
raise instead of shifting the streams.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by (seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *(int(p) for p in path)]))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL = 4
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first, as
    SeedSequence reads an entropy entry (0 is one word)."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _pcg64_states(entropy: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 (state, inc) seeded by `SeedSequence(row)` for each row of
    `entropy`, a (rows, words) uint32 array of assembled entropy words."""
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
    # little-endian pairs, then PCG64's srandom on (seed, inc) 128-bit halves
    hash_const = _INIT_B
    state = np.empty((rows, 8), dtype=np.uint64)
    for i in range(8):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    halves = (state[:, 0::2] | state[:, 1::2] << np.uint64(32)).tolist()
    out = []
    for s_hi, s_lo, i_hi, i_lo in halves:
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        out.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return out


def substreams(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """For idx in range(lo, hi), in order, a Generator in the state that
    `substream(seed, idx)` starts in.

    One Generator is reused and re-seeded for each row, so draw from a row
    before advancing to the next.  Raises RuntimeError if the block's first
    row disagrees with numpy's own SeedSequence/PCG64 seeding, and
    ValueError if `seed` or `lo` is negative, as SeedSequence does.
    """
    seed, lo, hi = int(seed), int(lo), int(hi)
    if seed < 0 or lo < 0:
        raise ValueError(f"substreams needs a non-negative seed and lo, got seed={seed}, lo={lo}")
    if hi <= lo:
        return
    prefix = _words(seed)
    # an idx below 2^32 is one entropy word, one below 2^64 two, and so on;
    # each run of rows with the same word count is hashed in one pass
    states: list[tuple[int, int]] = []
    start = lo
    while start < hi:
        width = len(_words(start))
        stop = min(hi, 1 << 32 * width)
        idx = np.arange(start, stop, dtype=object)
        entropy = np.empty((stop - start, len(prefix) + width), dtype=np.uint32)
        entropy[:, : len(prefix)] = prefix
        for w in range(width):
            entropy[:, len(prefix) + w] = (idx >> (32 * w)) & _MASK32
        states += _pcg64_states(entropy)
        start = stop

    gen = np.random.Generator(np.random.PCG64(0))
    bit_gen = gen.bit_generator
    numpy_state = np.random.PCG64(np.random.SeedSequence([seed, lo])).state["state"]
    if (numpy_state["state"], numpy_state["inc"]) != states[0]:
        raise RuntimeError(
            f"substreams({seed}, {lo}, {hi}) disagrees with numpy's SeedSequence/PCG64 seeding"
        )
    for state, inc in states:
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


def derive_seed(seed: int, *path: int) -> int:
    """Stable nonnegative 63-bit seed for the substream addressed by (seed, *path)."""
    ss = np.random.SeedSequence([int(seed), *(int(p) for p in path)])
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def exponential(rng: np.random.Generator, mean: float, size=None) -> np.ndarray:
    """Exponential draws via the inverse CDF, for bit-stable streams."""
    return -mean * np.log1p(-rng.random(size))
