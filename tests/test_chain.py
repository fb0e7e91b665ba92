"""Transition operators, expectations, reversibility, sequence probabilities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bounds_q_f, interval_bounds, random_weight
from intervalwalk import (
    GenParams,
    WeightFunction,
    backward_step,
    close,
    detailed_balance_residual,
    expectation,
    forward_step,
    generate_instance,
    is_pmf,
    sequence_lower_probability,
    stationary_distribution,
    transition_matrix,
)
from intervalwalk.oracle import enumerate_extremal


class TestTransitionMatrix:
    def test_two_state_matrices(self, two_state):
        np.testing.assert_allclose(
            transition_matrix(two_state.bounds, two_state.w_up), [[0.1, 0.9], [0.9, 0.1]]
        )
        np.testing.assert_allclose(
            transition_matrix(two_state.bounds, two_state.w_lo), [[0.8, 0.2], [0.2, 0.8]]
        )

    @given(args=bounds_q_f())
    def test_rows_are_stochastic(self, args):
        bounds, _, _ = args
        rng = np.random.default_rng(0)
        p = transition_matrix(bounds, random_weight(bounds, rng))
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestSteps:
    def test_backward_step_examples(self, two_state):
        np.testing.assert_allclose(
            backward_step(two_state.bounds, two_state.w_up, [0.0, 1.0]), [0.9, 0.1]
        )
        np.testing.assert_allclose(
            backward_step(two_state.bounds, two_state.w_lo, [0.0, 1.0]), [0.2, 0.8]
        )

    def test_backward_step_preserves_constants(self, two_state):
        np.testing.assert_allclose(
            backward_step(two_state.bounds, two_state.w_up, [3.7, 3.7]), [3.7, 3.7]
        )

    def test_forward_step_example(self, two_state):
        np.testing.assert_allclose(
            forward_step(two_state.bounds, [1.0, 0.0], two_state.w_up), [0.1, 0.9]
        )

    def test_forward_step_fixes_stationary(self, two_state):
        np.testing.assert_allclose(
            forward_step(two_state.bounds, [0.5, 0.5], two_state.w_lo), [0.5, 0.5]
        )

    def test_forward_step_is_linear_in_zero(self, two_state):
        np.testing.assert_allclose(
            forward_step(two_state.bounds, [0.0, 0.0], two_state.w_up), [0.0, 0.0]
        )


class TestExpectation:
    def test_two_step_golden_values(self, two_state):
        b, q, f = two_state.bounds, two_state.q, two_state.f
        w, wp = two_state.w_up, two_state.w_lo
        assert expectation(b, q, (w, w), f) == pytest.approx(0.18, abs=1e-12)
        assert expectation(b, q, (wp, wp), f) == pytest.approx(0.32, abs=1e-12)
        assert expectation(b, q, (w, wp), f) == pytest.approx(0.74, abs=1e-12)
        assert expectation(b, q, (wp, w), f) == pytest.approx(0.74, abs=1e-12)

    def test_empty_schedule_is_scalar_product(self, two_state):
        assert expectation(two_state.bounds, two_state.q, (), two_state.f) == 0.0

    @given(args=bounds_q_f(), n=st.integers(0, 5))
    def test_duality_of_left_and_right_actions(self, args, n):
        bounds, q, f = args
        rng = np.random.default_rng(7)
        schedule = tuple(random_weight(bounds, rng) for _ in range(n))
        pushed = q
        for w in schedule:
            pushed = forward_step(bounds, pushed, w)
        lhs = float(pushed @ f)
        rhs = expectation(bounds, q, schedule, f)
        assert close(lhs, rhs)

    def test_linearity_in_all_arguments(self, two_state):
        bounds = two_state.bounds
        rng = np.random.default_rng(5)
        q1, q2 = rng.normal(size=2), rng.normal(size=2)
        f1, f2 = rng.normal(size=2), rng.normal(size=2)
        w1, w2 = random_weight(bounds, rng), random_weight(bounds, rng)
        a = 0.37
        assert close(
            expectation(bounds, a * q1 + q2, (w1,), f1),
            a * expectation(bounds, q1, (w1,), f1) + expectation(bounds, q2, (w1,), f1),
        )
        assert close(
            expectation(bounds, q1, (w1,), a * f1 + f2),
            a * expectation(bounds, q1, (w1,), f1) + expectation(bounds, q1, (w1,), f2),
        )
        mixed = WeightFunction(
            a * w1.offdiag + (1 - a) * w2.offdiag, a * w1.loop + (1 - a) * w2.loop
        )
        assert close(
            expectation(bounds, q1, (mixed,), f1),
            a * expectation(bounds, q1, (w1,), f1) + (1 - a) * expectation(bounds, q1, (w2,), f1),
        )


class TestStationaryDistribution:
    def test_two_state(self, two_state):
        np.testing.assert_allclose(stationary_distribution(two_state.bounds), [0.5, 0.5])

    def test_three_state_proportions(self):
        from intervalwalk import IntervalBounds

        lower = np.zeros((3, 3))
        upper = np.zeros((3, 3))
        for i, j in ((0, 1), (1, 2)):
            lower[i, j] = lower[j, i] = 0.1
            upper[i, j] = upper[j, i] = 0.3
        bounds = IntervalBounds(lower, upper, [1.0, 2.0, 1.0])
        np.testing.assert_allclose(stationary_distribution(bounds), [0.25, 0.5, 0.25])

    @given(bounds=interval_bounds())
    def test_is_pmf_and_invariant(self, bounds):
        pi = stationary_distribution(bounds)
        assert is_pmf(pi)
        rng = np.random.default_rng(1)
        for _ in range(5):
            w = random_weight(bounds, rng)
            np.testing.assert_allclose(forward_step(bounds, pi, w), pi, rtol=0, atol=1e-12)


class TestDetailedBalance:
    def test_zero_for_admissible_weights(self, two_state):
        assert detailed_balance_residual(two_state.bounds, two_state.w_up) <= 1e-12
        assert detailed_balance_residual(two_state.bounds, two_state.w_lo) <= 1e-12

    def test_detects_asymmetry(self, two_state):
        broken = WeightFunction([[0.0, 0.9], [0.2, 0.0]], [0.1, 0.8])
        assert detailed_balance_residual(two_state.bounds, broken) > 0.1

    @given(bounds=interval_bounds())
    def test_residual_tiny_for_sampled_weights(self, bounds):
        rng = np.random.default_rng(2)
        w = random_weight(bounds, rng)
        assert detailed_balance_residual(bounds, w) <= 1e-12


class TestSequenceLowerProbability:
    def test_single_transition(self, two_state):
        assert sequence_lower_probability(two_state.bounds, [0, 1]) == pytest.approx(
            0.1, abs=1e-15
        )

    def test_two_transitions(self, two_state):
        assert sequence_lower_probability(two_state.bounds, [0, 1, 0]) == pytest.approx(
            0.02, abs=1e-15
        )

    def test_reversal_invariance(self, two_state):
        rng = np.random.default_rng(9)
        bounds, _, _ = generate_instance(GenParams(s=4, seed=3))
        for _ in range(50):
            path = rng.integers(0, 4, size=rng.integers(2, 6)).tolist()
            fwd = sequence_lower_probability(bounds, path)
            rev = sequence_lower_probability(bounds, path[::-1])
            assert close(fwd, rev)

    def test_two_point_symmetry_equals_lower_over_total(self):
        bounds, _, _ = generate_instance(GenParams(s=5, seed=8))
        for x in range(5):
            for y in range(5):
                if x == y:
                    continue
                p = sequence_lower_probability(bounds, [x, y])
                assert close(p, bounds.lower[x, y] / bounds.total)
                assert close(p, sequence_lower_probability(bounds, [y, x]))

    def test_short_path_rejected(self, two_state):
        with pytest.raises(ValueError):
            sequence_lower_probability(two_state.bounds, [0])

    def test_out_of_range_state_rejected(self, two_state):
        with pytest.raises(ValueError):
            sequence_lower_probability(two_state.bounds, [0, 5])

    @pytest.mark.parametrize(
        "path, message",
        [
            pytest.param([0, 1.7], "path\\[1\\] must be an integer, got 1.7", id="float"),
            pytest.param([True, False], "path\\[0\\] must be an integer, got True", id="bool"),
        ],
    )
    def test_non_integer_state_rejected(self, two_state, path, message):
        with pytest.raises(ValueError, match=message):
            sequence_lower_probability(two_state.bounds, path)

    def test_numpy_integer_states_accepted(self, two_state):
        path = np.array([0, 1, 0])
        assert sequence_lower_probability(two_state.bounds, path) == sequence_lower_probability(
            two_state.bounds, [0, 1, 0]
        )

    def test_matches_full_enumeration_minimum(self):
        # independent route: minimize the joint path probability over every
        # combination of per-step extremal weight functions
        rng = np.random.default_rng(4)
        for seed in range(6):
            bounds, _, _ = generate_instance(GenParams(s=3, seed=seed))
            mats = [transition_matrix(bounds, w) for _, w in enumerate_extremal(bounds)]
            pi = stationary_distribution(bounds)
            for _ in range(30):
                path = rng.integers(0, 3, size=rng.integers(2, 5)).tolist()
                factors = [
                    np.array([p[a, b] for p in mats]) for a, b in zip(path, path[1:])
                ]
                products = factors[0]
                for vec in factors[1:]:
                    products = np.multiply.outer(products, vec)
                brute = pi[path[0]] * products.min()
                assert close(brute, sequence_lower_probability(bounds, path))
