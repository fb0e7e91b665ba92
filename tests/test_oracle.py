"""Exhaustive enumeration oracle: candidate lists, exact bounds, refusals."""

import gc

import numpy as np
import pytest

from intervalwalk import (
    EdgeChoice,
    GenParams,
    IntervalBounds,
    OptimizationProblem,
    Sense,
    close,
    enumerate_extremal,
    exact_bounds,
    expectation,
    generate_instance,
    multistart,
    one_step_minimizer,
)
from intervalwalk import oracle
from intervalwalk.graph import _extremal_masks
from intervalwalk.oracle import BudgetExceededError


def triangle_bounds():
    lower = np.zeros((3, 3))
    upper = np.zeros((3, 3))
    for i, j in ((0, 1), (1, 2), (0, 2)):
        lower[i, j] = lower[j, i] = 0.1
        upper[i, j] = upper[j, i] = 0.4
    return IntervalBounds(lower, upper, np.full(3, 1.0))


class TestEnumerateExtremal:
    def test_two_state_has_exactly_two(self, two_state):
        pairs = enumerate_extremal(two_state.bounds)
        assert len(pairs) == 2
        matrices = [w.matrix[0, 1] for _, w in pairs]
        assert matrices == [pytest.approx(0.2), pytest.approx(0.9)]

    def test_triangle_has_eight(self):
        pairs = enumerate_extremal(triangle_bounds())
        assert len(pairs) == 8
        assert len({sel for sel, _ in pairs}) == 8

    def test_lexicographic_order(self):
        pairs = enumerate_extremal(triangle_bounds())
        assert pairs[0][0].choices == (EdgeChoice.LOWER,) * 3
        assert pairs[1][0].choices == (EdgeChoice.LOWER, EdgeChoice.LOWER, EdgeChoice.UPPER)
        assert pairs[-1][0].choices == (EdgeChoice.UPPER,) * 3

    def test_fully_degenerate_gives_one(self):
        lower = [[0.0, 0.4], [0.4, 0.0]]
        bounds = IntervalBounds(lower, lower, [1.0, 1.0])
        assert len(enumerate_extremal(bounds)) == 1

    def test_cap_refusal_names_the_numbers(self, monkeypatch):
        # the complete 7-vertex graph has 21 free edges, one over the cap;
        # refused before any enumeration
        lower = np.full((7, 7), 0.1)
        upper = np.full((7, 7), 0.2)
        np.fill_diagonal(lower, 0.0)
        np.fill_diagonal(upper, 0.0)
        bounds = IntervalBounds(lower, upper, np.full(7, 2.0))
        assert len(bounds.free_edges) == 21
        monkeypatch.setattr(oracle, "_extremal_masks", None)
        with pytest.raises(BudgetExceededError, match=r"21 free edges .* over the cap of 2\^20"):
            enumerate_extremal(bounds)


class TestExactBounds:
    def test_two_state_two_steps(self, two_state):
        res = exact_bounds(two_state.bounds, two_state.q, two_state.f, 2)
        assert res.minimum == pytest.approx(0.18, abs=1e-12)
        assert res.maximum == pytest.approx(0.74, abs=1e-12)
        # one pure minimizing schedule, two mixed maximizing schedules
        assert len(res.argmin) == 1
        assert [c for sel in res.argmin[0] for c in sel.choices] == [
            EdgeChoice.UPPER,
            EdgeChoice.UPPER,
        ]
        assert len(res.argmax) == 2

    def test_two_state_one_step(self, two_state):
        res = exact_bounds(two_state.bounds, two_state.q, two_state.f, 1)
        assert res.minimum == pytest.approx(0.2, abs=1e-12)
        assert res.maximum == pytest.approx(0.9, abs=1e-12)

    def test_zero_steps_is_scalar_product(self, two_state):
        res = exact_bounds(two_state.bounds, two_state.q, two_state.f, 0)
        assert res.minimum == res.maximum == 0.0
        assert res.argmin == ((),)

    def test_argmin_values_really_attain_the_bound(self):
        bounds, q, f = generate_instance(GenParams(s=3, seed=5))
        res = exact_bounds(bounds, q, f, 2)
        from intervalwalk import weight_from_selection

        for schedule in res.argmin:
            weights = tuple(weight_from_selection(bounds, sel) for sel in schedule)
            assert close(expectation(bounds, q, weights, f), res.minimum)
        for schedule in res.argmax:
            weights = tuple(weight_from_selection(bounds, sel) for sel in schedule)
            assert close(expectation(bounds, q, weights, f), res.maximum)

    def test_budget_refusal_names_the_numbers(self):
        bounds = triangle_bounds()
        with pytest.raises(BudgetExceededError, match="budget"):
            exact_bounds(bounds, [1, 0, 0], [0, 0, 1], 5, budget=100)

    def test_negative_steps_rejected(self, two_state):
        with pytest.raises(ValueError):
            exact_bounds(two_state.bounds, two_state.q, two_state.f, -1)

    @pytest.mark.parametrize("n", [2.0, True])
    def test_non_integer_steps_rejected(self, two_state, n):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            exact_bounds(two_state.bounds, two_state.q, two_state.f, n)

    @pytest.mark.parametrize("budget", [True, 4.5, "8"])
    def test_non_integer_budget_rejected(self, two_state, budget):
        with pytest.raises(ValueError, match=f"budget must be an integer, got {budget!r}"):
            exact_bounds(two_state.bounds, two_state.q, two_state.f, 2, budget=budget)

    def test_numpy_integer_steps_accepted(self, two_state):
        res = exact_bounds(two_state.bounds, two_state.q, two_state.f, np.int64(2))
        assert res == exact_bounds(two_state.bounds, two_state.q, two_state.f, 2)

    def test_numpy_integer_steps_count_the_budget_exactly(self, monkeypatch):
        # (2^3)^30 = 2^90 wraps to 0 in int64 arithmetic; the budget must still refuse
        monkeypatch.setattr(oracle, "_transitions_from_masks", None)
        with pytest.raises(BudgetExceededError, match="budget"):
            exact_bounds(triangle_bounds(), [1, 0, 0], [0, 0, 1], np.int64(30), budget=100)

    @pytest.mark.parametrize(
        "q, f, message",
        [
            pytest.param([float("nan"), 0.0], [0.0, 1.0], "q and f must be finite", id="q-nan"),
            pytest.param([1.0, 0.0], [0.0, float("inf")], "q and f must be finite", id="f-inf"),
            pytest.param([1.0, 0.0, 0.0], [0.0, 1.0], "q and f must be vectors of length 2", id="q-long"),
        ],
    )
    def test_bad_vectors_rejected_before_any_work(self, two_state, monkeypatch, q, f, message):
        monkeypatch.setattr(oracle, "_transitions_from_masks", None)
        with pytest.raises(ValueError, match=message):
            exact_bounds(two_state.bounds, q, f, 2)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_a_bad_argument(self, two_state, budget):
        with pytest.raises(ValueError, match=f"budget must be at least 1, got {budget}"):
            exact_bounds(two_state.bounds, two_state.q, two_state.f, 2, budget=budget)

    def test_leaves_no_garbage_cycle(self):
        # the enumeration's blocks and transition stack go on return, not at
        # the next garbage collection
        bounds, q, f = generate_instance(GenParams(s=4, seed=3))
        gc.collect()
        gc.disable()
        try:
            exact_bounds(bounds, q, f, 2)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_tie_spanning_leaf_blocks_lists_every_schedule(self):
        # a constant payoff ties all (2^3)^3 schedules, across every leaf block
        bounds = triangle_bounds()
        res = exact_bounds(bounds, [0.2, 0.3, 0.5], [0.7, 0.7, 0.7], 3)
        expected = [m.tolist() for m in _extremal_masks(9).reshape(512, 3, 3)]
        for schedules in (res.argmin, res.argmax):
            assert [[sel.upper_mask().tolist() for sel in sched] for sched in schedules] == expected

    def test_one_step_agreement_with_minimizer(self):
        # the closed-form one-step minimizer against brute enumeration
        for seed in range(20):
            bounds, q, f = generate_instance(GenParams(s=4, seed=seed))
            rng = np.random.default_rng(seed)
            q = rng.normal(size=4)
            f = rng.normal(size=4)
            res = exact_bounds(bounds, q, f, 1)
            w, _ = one_step_minimizer(bounds, q, f)
            assert close(expectation(bounds, q, (w,), f), res.minimum)

    def test_sandwiches_multistart(self):
        for seed in range(6):
            bounds, q, f = generate_instance(GenParams(s=4, seed=40 + seed))
            res = exact_bounds(bounds, q, f, 2)
            lo = multistart(OptimizationProblem(bounds, q, f, 2, Sense.MIN), 20, seed=seed)
            hi = multistart(OptimizationProblem(bounds, q, f, 2, Sense.MAX), 20, seed=seed)
            assert res.minimum <= lo.best.value + 1e-12
            assert hi.best.value <= res.maximum + 1e-12

    def test_cylinder_event_matches_sequence_lower_probability(self):
        # a two-state cylinder is a one-step expectation with indicator payoff
        from intervalwalk import sequence_lower_probability, stationary_distribution

        for seed in range(6):
            bounds, _, _ = generate_instance(GenParams(s=3, seed=60 + seed))
            pi = stationary_distribution(bounds)
            for a in range(3):
                for b in range(3):
                    q = np.zeros(3)
                    q[a] = pi[a]
                    f = np.zeros(3)
                    f[b] = 1.0
                    res = exact_bounds(bounds, q, f, 1)
                    assert close(res.minimum, sequence_lower_probability(bounds, [a, b]))
