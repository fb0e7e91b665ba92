"""Addressable random streams: block seeding against numpy's own, pinned values."""

import numpy as np
import pytest

from intervalwalk import GenParams, OptimizationProblem, generate_instance, optimize, rng
from intervalwalk.optimize import _random_starts
from intervalwalk.rng import derive_seed, exponential, substream, substreams

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 3]

# idx ranges of one and two entropy words, and ranges that straddle 2^32
# (and 2^64, where an idx takes a third word)
RANGES = [(0, 3), (254, 259), (2**32 - 3, 2**32 + 2), (2**32 + 5, 2**32 + 9), (2**64 - 2, 2**64 + 1)]


def _per_row(gens):
    """State dict and first draw of each generator, read before the next."""
    return [(g.bit_generator.state, g.permuted(np.arange(7.0))) for g in gens]


class TestSubstreams:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("lo, hi", RANGES)
    def test_rows_are_the_per_index_substreams(self, seed, lo, hi):
        rows = _per_row(substreams(seed, lo, hi))
        assert len(rows) == hi - lo
        for (state, draw), (ref_state, ref_draw) in zip(rows, _per_row(substream(seed, idx) for idx in range(lo, hi))):
            assert state == ref_state
            np.testing.assert_array_equal(draw, ref_draw)

    def test_empty_range_yields_nothing(self):
        assert list(substreams(3, 5, 5)) == []
        assert list(substreams(3, 5, 4)) == []

    @pytest.mark.parametrize("seed, lo", [(-1, 0), (0, -1), (-(2**64), 3)])
    def test_negative_seed_or_index_raises(self, seed, lo):
        with pytest.raises(ValueError, match="non-negative"):
            next(substreams(seed, lo, lo + 3))
        with pytest.raises(ValueError):
            substream(seed, lo)

    def test_numpy_integers_accepted(self):
        rows = _per_row(substreams(np.uint64(7), np.int64(2), np.int32(4)))
        assert [state for state, _ in rows] == [substream(7, idx).bit_generator.state for idx in (2, 3)]

    def test_seeding_mismatch_raises(self, monkeypatch):
        # a hash that drifted from numpy's must fail loudly, not shift streams
        monkeypatch.setattr(rng, "_MULT_B", rng._MULT_B ^ 1)
        with pytest.raises(RuntimeError, match=r"substreams\(0, 0, 4\) disagrees"):
            next(substreams(0, 0, 4))


class TestRandomStarts:
    @pytest.mark.parametrize("starts", [1, optimize._CHUNK + 1, 20000])
    def test_equal_to_per_start_substream_draws(self, starts):
        bounds, q, f = generate_instance(GenParams(s=4, seed=11))
        problem = OptimizationProblem(bounds, q, f, 2)
        reference = optimize._draw_upper_masks(bounds, 2, (substream(5, idx) for idx in range(starts)))
        assert np.array_equal(_random_starts(problem, starts, 5), reference)


class TestPinnedValues:
    def test_derive_seed(self):
        assert [derive_seed(0), derive_seed(1, 2), derive_seed(2**64 + 3, 7, 9)] == [
            7896617691693857887,
            7764949442709860949,
            9039172467350314988,
        ]

    def test_exponential(self):
        assert exponential(substream(5), 2.0, 3).tolist() == [
            3.269541428193694,
            3.299903135413385,
            1.448555746642289,
        ]
