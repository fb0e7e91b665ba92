"""Random instance generation: determinism, validity, distribution targets."""

import numpy as np
import pytest

from intervalwalk import GenParams, GenerationError, generate_instance, validate


class TestGenParams:
    def test_defaults_follow_the_experimental_setup(self):
        p = GenParams(s=4)
        assert p.disconnect_fraction == 0.25
        assert p.lower_mean == 0.8
        assert p.width_mean == 1.0
        assert p.qf_mean == 1.5
        assert p.marginal_slack == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s": 1},
            {"s": 4, "disconnect_fraction": 1.0},
            {"s": 4, "disconnect_fraction": -0.1},
            {"s": 4, "lower_mean": 0.0},
            {"s": 4, "marginal_slack": 0.0},
            {"s": 4, "seed": -1},
            {"s": 4, "lower_mean": "x"},
            {"s": 4, "width_mean": float("inf")},
            {"s": 4.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            GenParams(**kwargs)


class TestGenerateInstance:
    def test_deterministic(self):
        a = generate_instance(GenParams(s=4, seed=7))
        b = generate_instance(GenParams(s=4, seed=7))
        np.testing.assert_array_equal(a[0].lower, b[0].lower)
        np.testing.assert_array_equal(a[0].upper, b[0].upper)
        np.testing.assert_array_equal(a[0].marginal, b[0].marginal)
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])

    def test_different_seeds_differ(self):
        a = generate_instance(GenParams(s=4, seed=7))
        b = generate_instance(GenParams(s=4, seed=8))
        assert not np.array_equal(a[0].lower, b[0].lower)

    def test_always_valid_with_no_warnings(self):
        for seed in range(50):
            bounds, q, f = generate_instance(GenParams(s=2 + seed % 7, seed=seed))
            report = validate(bounds)
            assert report.ok
            assert report.warnings == ()
            assert np.all(q > 0) and np.all(f > 0)

    def test_intervals_are_ordered_with_positive_slack(self):
        for seed in range(20):
            bounds, _, _ = generate_instance(GenParams(s=6, seed=seed))
            assert np.all(bounds.lower <= bounds.upper)
            # slack marginals leave strictly positive loop mass everywhere
            floor = bounds.marginal - bounds.upper.sum(axis=1)
            np.testing.assert_allclose(
                floor, bounds.marginal / 1.1 * 0.1, rtol=1e-9
            )
            assert np.all(floor > 0)

    def test_absent_pair_fraction_near_target(self):
        # 10,000+ vertex pairs at s = 8 (28 pairs per instance)
        absent = 0
        pairs = 0
        iu, ju = np.triu_indices(8, k=1)
        for seed in range(400):
            bounds, _, _ = generate_instance(GenParams(s=8, seed=seed))
            absent += int(np.sum(bounds.upper[iu, ju] == 0.0))
            pairs += len(iu)
        assert pairs >= 10_000
        assert abs(absent / pairs - 0.25) < 0.02

    def test_lower_weight_mean_near_target(self):
        total = 0.0
        count = 0
        seed = 0
        while count < 100_000:
            bounds, _, _ = generate_instance(GenParams(s=8, seed=seed))
            total += float(bounds.free_lower.sum())
            count += len(bounds.free_lower)
            seed += 1
        assert abs(total / count - 0.8) < 0.02

    def test_retry_cap_raises(self):
        with pytest.raises(GenerationError):
            generate_instance(GenParams(s=8, disconnect_fraction=0.999, seed=0))
