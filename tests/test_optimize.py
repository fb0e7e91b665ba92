"""Local descent sweeps, random extremal schedules, and multistart search."""

import itertools
import json
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from conftest import random_weight
from intervalwalk import (
    EdgeChoice,
    EdgeSelection,
    GenParams,
    IntervalBounds,
    LocalOptimum,
    OptimizationProblem,
    Sense,
    SweepOrder,
    WeightFunction,
    backward_step,
    close,
    edge_gradient,
    expectation,
    forward_step,
    generate_instance,
    improve_at,
    local_optimize,
    multistart,
    multistart_exhaustive,
    random_extremal_schedule,
    selection_of,
    transition_matrix,
    validate,
    weight_from_selection,
    weight_matrix_from_mask,
)
from intervalwalk import optimize
from intervalwalk.graph import (
    TOL,
    _extremal_masks,
    _gradient_upper_mask,
    _selections_from_masks,
    _transitions_from_masks,
)
from intervalwalk.optimize import _candidate, _descents, _random_starts
from intervalwalk.oracle import BudgetExceededError
from intervalwalk.rng import substream


def two_state_problem(two_state, sense=Sense.MIN, n=2):
    return OptimizationProblem(two_state.bounds, two_state.q, two_state.f, n, sense)


def naive_local_optimize(problem, start, order, tol=1e-12):
    """Reference sweep built only from the public single-step operations."""
    schedule = list(start)
    value = expectation(problem.bounds, problem.q, schedule, problem.f)
    better = (lambda new, cur, thr: new < cur - thr) if problem.sense is Sense.MIN else (
        lambda new, cur, thr: new > cur + thr
    )
    indices = range(problem.n) if order is SweepOrder.LEFT_TO_RIGHT else range(
        problem.n - 1, -1, -1
    )
    while True:
        changed = False
        for k in indices:
            replacement, new_value = improve_at(problem, schedule, k)
            if better(new_value, value, tol * max(1.0, abs(value))):
                schedule[k] = replacement
                value = new_value
                changed = True
        if not changed:
            return tuple(schedule), value


class TestImproveAt:
    def test_flips_first_step_to_match_suffix(self, two_state):
        problem = two_state_problem(two_state)
        replacement, value = improve_at(problem, (two_state.w_up, two_state.w_lo), 0)
        assert replacement.matrix[0, 1] == pytest.approx(0.2)
        assert value == pytest.approx(0.32, abs=1e-12)

    def test_keeps_optimal_step(self, two_state):
        problem = two_state_problem(two_state)
        replacement, value = improve_at(problem, (two_state.w_up, two_state.w_up), 0)
        assert replacement.matrix[0, 1] == pytest.approx(0.9)
        assert value == pytest.approx(0.18, abs=1e-12)

    def test_second_step_stays(self, two_state):
        problem = two_state_problem(two_state)
        replacement, value = improve_at(problem, (two_state.w_lo, two_state.w_lo), 1)
        assert replacement.matrix[0, 1] == pytest.approx(0.2)
        assert value == pytest.approx(0.32, abs=1e-12)

    def test_index_out_of_range(self, two_state):
        problem = two_state_problem(two_state)
        with pytest.raises(IndexError):
            improve_at(problem, (two_state.w_up, two_state.w_up), 2)

    @pytest.mark.parametrize(
        "k, error",
        [
            pytest.param(True, ValueError, id="bool"),
            pytest.param(1.0, ValueError, id="float"),
            pytest.param(np.int64(1), None, id="numpy-int"),
            pytest.param(-1, IndexError, id="negative"),
        ],
    )
    def test_step_index_must_be_an_integer_in_range(self, two_state, k, error):
        problem = two_state_problem(two_state)
        schedule = (two_state.w_lo, two_state.w_lo)
        if error is None:
            assert improve_at(problem, schedule, k)[1] == improve_at(problem, schedule, 1)[1]
        else:
            with pytest.raises(error, match="k must be an integer" if error is ValueError else "out of range"):
                improve_at(problem, schedule, k)

    def test_never_worsens(self):
        rng = np.random.default_rng(17)
        for seed in range(20):
            bounds, q, f = generate_instance(GenParams(s=4, seed=seed))
            n = int(rng.integers(1, 4))
            for sense in (Sense.MIN, Sense.MAX):
                problem = OptimizationProblem(bounds, q, f, n, sense)
                schedule = random_extremal_schedule(bounds, n, int(rng.integers(1 << 30)))
                value = expectation(bounds, q, schedule, f)
                for k in range(n):
                    _, new_value = improve_at(problem, schedule, k)
                    if sense is Sense.MIN:
                        assert new_value <= value + 1e-12 * max(1.0, abs(value))
                    else:
                        assert new_value >= value - 1e-12 * max(1.0, abs(value))

    @pytest.mark.parametrize("sense", list(Sense))
    def test_matches_the_single_step_fold(self, sense):
        # the fold by the public single-step operations, one weight function
        # at a time, and the replacement as the candidate mask's weight
        # matrix with its diagonal split off as the loops
        rng = np.random.default_rng(29)
        for seed in range(12):
            bounds, q, f = generate_instance(GenParams(s=3 + seed % 5, seed=seed))
            n = 1 + seed % 4
            schedule = tuple(
                random_weight(bounds, rng) if k % 2 else w
                for k, w in enumerate(random_extremal_schedule(bounds, n, seed))
            )
            problem = OptimizationProblem(bounds, q, f, n, sense)
            for k in range(n):
                ql = q
                for w in schedule[:k]:
                    ql = forward_step(bounds, ql, w)
                fr = sense.sign * f
                for w in reversed(schedule[k + 1 :]):
                    fr = backward_step(bounds, w, fr)
                mask, _, value = _candidate(bounds, ql, fr)
                offdiag = weight_matrix_from_mask(bounds, mask)
                loop = np.diag(offdiag).copy()
                np.fill_diagonal(offdiag, 0.0)
                replacement, got = improve_at(problem, schedule, k)
                assert got == sense.sign * float(value)
                assert replacement.offdiag.tobytes() == offdiag.tobytes()
                assert replacement.loop.tobytes() == loop.tobytes()


class TestLocalOptimize:
    def test_pure_upper_start_is_already_optimal(self, two_state):
        problem = two_state_problem(two_state)
        result = local_optimize(problem, (two_state.w_up, two_state.w_up))
        assert result.value == pytest.approx(0.18, abs=1e-12)
        assert result.improvements == 0
        assert result.trace == (result.start_value,)

    def test_pure_lower_start_is_a_local_minimum(self, two_state):
        problem = two_state_problem(two_state)
        result = local_optimize(problem, (two_state.w_lo, two_state.w_lo))
        assert result.value == pytest.approx(0.32, abs=1e-12)
        assert result.improvements == 0

    def test_mixed_start_left_to_right(self, two_state):
        problem = two_state_problem(two_state)
        result = local_optimize(problem, (two_state.w_up, two_state.w_lo))
        assert result.value == pytest.approx(0.32, abs=1e-12)
        assert [c for sel in result.selections for c in sel.choices] == [
            EdgeChoice.LOWER,
            EdgeChoice.LOWER,
        ]
        assert result.start_value == pytest.approx(0.74, abs=1e-12)

    def test_mixed_start_right_to_left_finds_other_basin(self, two_state):
        problem = two_state_problem(two_state)
        result = local_optimize(problem, (two_state.w_up, two_state.w_lo), SweepOrder.RIGHT_TO_LEFT)
        assert result.value == pytest.approx(0.18, abs=1e-12)

    def test_wrong_length_start_rejected(self, two_state):
        problem = two_state_problem(two_state)
        with pytest.raises(ValueError):
            local_optimize(problem, (two_state.w_up,))

    def test_string_order_rejected(self, two_state):
        # a plain string must not silently run the right-to-left sweep
        problem = two_state_problem(two_state)
        with pytest.raises(ValueError, match="'left-to-right'"):
            local_optimize(problem, (two_state.w_up, two_state.w_lo), "left-to-right")

    def test_matches_naive_reference_sweep(self):
        rng = np.random.default_rng(23)
        for seed in range(15):
            bounds, q, f = generate_instance(GenParams(s=4, seed=100 + seed))
            n = int(rng.integers(1, 5))
            sense = Sense.MIN if seed % 2 else Sense.MAX
            problem = OptimizationProblem(bounds, q, f, n, sense)
            start = random_extremal_schedule(bounds, n, seed)
            for order in SweepOrder:
                mine = local_optimize(problem, start, order)
                ref_schedule, ref_value = naive_local_optimize(problem, start, order)
                assert close(mine.value, ref_value)
                assert mine.selections == tuple(
                    selection_of(bounds, w) for w in ref_schedule
                )

    def test_fixed_point_and_monotone_trace(self):
        rng = np.random.default_rng(29)
        for seed in range(25):
            bounds, q, f = generate_instance(GenParams(s=int(rng.integers(3, 6)), seed=seed))
            n = int(rng.integers(1, 5))
            sense = Sense.MIN if seed % 2 else Sense.MAX
            problem = OptimizationProblem(bounds, q, f, n, sense)
            start = random_extremal_schedule(bounds, n, 1000 + seed)
            for order in SweepOrder:
                result = local_optimize(problem, start, order)
                diffs = np.diff(result.trace)
                assert np.all(diffs < 0) if sense is Sense.MIN else np.all(diffs > 0)
                assert close(
                    result.value,
                    expectation(bounds, q, result.schedule(bounds), f),
                )
                for k in range(n):
                    _, candidate = improve_at(problem, result.schedule(bounds), k)
                    gap = result.value - candidate if sense is Sense.MIN else candidate - result.value
                    assert gap <= 1e-12 * max(1.0, abs(result.value))
                for sel in result.selections:
                    assert sel is not None and len(sel) == len(bounds.free_edges)
                assert 1 <= result.sweeps <= 2 ** (len(bounds.free_edges) * n)

    @pytest.mark.parametrize("n", [1, 3])
    def test_one_selection_build_per_step(self, monkeypatch, n):
        # the start is read once, into masks: only the result's n selections are built
        bounds, q, f = generate_instance(GenParams(s=5, seed=4))
        problem = OptimizationProblem(bounds, q, f, n)
        start = random_extremal_schedule(bounds, n, 7)
        build = EdgeSelection.from_upper_mask.__func__
        calls = []

        def counting(cls, bounds, mask):
            calls.append(mask)
            return build(cls, bounds, mask)

        monkeypatch.setattr(EdgeSelection, "from_upper_mask", classmethod(counting))
        result = local_optimize(problem, start)
        assert len(calls) == n
        assert len(result.selections) == n

    def test_interior_start_is_pinned_to_extremal(self, two_state):
        problem = two_state_problem(two_state)
        rng = np.random.default_rng(31)
        start = (random_weight(two_state.bounds, rng), random_weight(two_state.bounds, rng))
        assert selection_of(two_state.bounds, start[0]) is None
        result = local_optimize(problem, start)
        assert len(result.selections) == 2
        assert result.value <= result.start_value + 1e-12

    def test_equal_value_interior_steps_are_pinned(self, two_state):
        # with f = (1, 1) every schedule has the same value, so no step can
        # improve: the first sweep only pins both interior steps
        problem = OptimizationProblem(two_state.bounds, two_state.q, [1.0, 1.0], 2)
        rng = np.random.default_rng(31)
        start = (random_weight(two_state.bounds, rng), random_weight(two_state.bounds, rng))
        assert all(selection_of(two_state.bounds, w) is None for w in start)
        result = local_optimize(problem, start)
        assert all(selection_of(two_state.bounds, w) is not None for w in result.schedule(two_state.bounds))
        assert result.improvements == 0
        assert result.sweeps == 2
        assert abs(result.value - result.start_value) <= 1e-12


class TestSense:
    def test_string_sense_matches_the_enum(self, two_state):
        by_name = OptimizationProblem(two_state.bounds, two_state.q, two_state.f, 2, "max")
        assert by_name.sense is Sense.MAX
        report = multistart(by_name, 16, seed=0)
        assert report == multistart(two_state_problem(two_state, Sense.MAX), 16, seed=0)
        assert report.best.value == pytest.approx(0.74, abs=1e-12)

    def test_unknown_sense_rejected(self, two_state):
        with pytest.raises(ValueError, match="sideways"):
            OptimizationProblem(two_state.bounds, two_state.q, two_state.f, 2, "sideways")


class TestInteriorStart:
    def test_rounding_noise_does_not_block_the_first_visit(self, two_state):
        # f is constant, so in exact arithmetic every schedule is worth 0; at 3e15 the
        # rounding noise of a fold exceeds TOL, and the interior start step
        # must still take its one-step optimum
        problem = OptimizationProblem(two_state.bounds, [1.0, -1.0], [3e15, 3e15], 1, Sense.MAX)
        start = WeightFunction([[0.0, 0.3], [0.3, 0.0]], [0.7, 0.7])
        assert selection_of(two_state.bounds, start) is None
        result = local_optimize(problem, (start,))
        assert len(result.selections) == 1
        assert selection_of(two_state.bounds, result.schedule(two_state.bounds)[0]) is not None
        assert result.improvements == len(result.trace) - 1


class TestInadmissibleStart:
    """Start steps must be admissible weight functions of the problem's bounds."""

    @pytest.mark.parametrize(
        "offdiag, loop, message",
        [
            pytest.param([[0.0, 5.0], [5.0, 0.0]], [0.0, 0.0], "outside its interval", id="above-upper"),
            pytest.param([[0.0, 0.1], [0.1, 0.0]], [0.9, 0.9], "outside its interval", id="below-lower"),
            pytest.param([[0.0, 0.3], [0.4, 0.0]], [0.7, 0.6], "differs from its mirror", id="asymmetric"),
            pytest.param([[0.0, 0.5], [0.5, 0.0]], [0.2, 0.2], "row sum differs", id="row-sums"),
            pytest.param(np.full((3, 3), 0.3), [0.4, 0.4, 0.4], "has 3 states, the bounds have 2", id="size"),
        ],
    )
    @pytest.mark.parametrize("call", ["local_optimize", "improve_at"])
    def test_rejected_naming_the_step(self, two_state, offdiag, loop, message, call):
        problem = two_state_problem(two_state, Sense.MAX)
        start = (two_state.w_up, WeightFunction(offdiag, loop))
        with pytest.raises(ValueError, match=f"step 1 .*{message}"):
            if call == "local_optimize":
                local_optimize(problem, start)
            else:
                improve_at(problem, start, 0)

    def test_negative_loop_rejected(self):
        # the row sums are right, but the loop pays for an edge above W
        bounds = IntervalBounds([[0.0, 1.0], [1.0, 0.0]], [[0.0, 3.0], [3.0, 0.0]], [2.0, 2.0])
        problem = OptimizationProblem(bounds, [1.0, 0.0], [0.0, 1.0], 1)
        start = (WeightFunction([[0.0, 2.5], [2.5, 0.0]], [-0.5, -0.5]),)
        with pytest.raises(ValueError, match="step 0 .*loop weight is negative"):
            local_optimize(problem, start)

    def test_rounding_within_tol_accepted(self, two_state):
        problem = two_state_problem(two_state, n=1)
        start = (WeightFunction([[0.0, 0.9 + 1e-13], [0.9 + 1e-13, 0.0]], [0.1, 0.1]),)
        assert local_optimize(problem, start).start_value == pytest.approx(0.9, abs=1e-12)


class TestRandomExtremalSchedule:
    def test_steps_live_on_the_two_candidates(self, two_state):
        schedule = random_extremal_schedule(two_state.bounds, 8, 5)
        for w in schedule:
            assert w.matrix[0, 1] in (pytest.approx(0.2), pytest.approx(0.9))

    def test_deterministic_given_seed(self, two_state):
        a = random_extremal_schedule(two_state.bounds, 5, 123)
        b = random_extremal_schedule(two_state.bounds, 5, 123)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.matrix, wb.matrix)

    def test_all_steps_are_admissible_and_extremal(self):
        bounds, _, _ = generate_instance(GenParams(s=6, seed=2))
        schedule = random_extremal_schedule(bounds, 6, 9)
        for w in schedule:
            np.testing.assert_allclose(w.row_sums, bounds.marginal, rtol=1e-12)
            assert np.all(w.loop >= 0)
            assert selection_of(bounds, w) is not None

    def test_zero_steps_is_empty(self, two_state):
        assert random_extremal_schedule(two_state.bounds, 0, 5) == ()

    def test_negative_steps_rejected(self, two_state):
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            random_extremal_schedule(two_state.bounds, -1, 5)

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            pytest.param(True, 5, "n must be an integer, got True", id="n-bool"),
            pytest.param(2.0, 5, "n must be an integer, got 2.0", id="n-float"),
            pytest.param(2, 1.5, "seed must be an integer, got 1.5", id="seed-float"),
        ],
    )
    def test_non_integer_counts_rejected(self, two_state, n, seed, message):
        with pytest.raises(ValueError, match=message):
            random_extremal_schedule(two_state.bounds, n, seed)

    def test_negative_seed_rejected(self, two_state):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            random_extremal_schedule(two_state.bounds, 2, -1)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_no_free_edges_gives_empty_masks(self, two_state, n):
        b = two_state.bounds
        masks = optimize._draw_upper_masks(IntervalBounds(b.lower, b.lower, b.marginal), n, [substream(1)])[0]
        assert masks.dtype == bool and masks.shape == (n, 0)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_masks_match_a_per_step_draw(self, n):
        # each step draws its h ranking, then its f ranking, from the one stream
        bounds, _, _ = generate_instance(GenParams(s=6, seed=4))
        rng = substream(3, n)
        expected = np.empty((n, len(bounds.free_edges)), dtype=bool)
        for t in range(n):
            h = rng.permutation(6).astype(float)
            f = rng.permutation(6).astype(float)
            expected[t] = _gradient_upper_mask(bounds, h, f)
        np.testing.assert_array_equal(optimize._draw_upper_masks(bounds, n, [substream(3, n)])[0], expected)


    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_stream_left_as_after_per_step_draws(self, n):
        bounds, _, _ = generate_instance(GenParams(s=6, seed=4))
        drawn, expected = substream(5, n), substream(5, n)
        optimize._draw_upper_masks(bounds, n, [drawn])[0]
        for _ in range(2 * n):
            expected.permutation(6)
        assert drawn.random() == expected.random()

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_schedule_from_a_generator_leaves_the_stream_after_its_draws(self, n):
        bounds, _, _ = generate_instance(GenParams(s=5, seed=8))
        drawn, expected = substream(6, n), substream(6, n)
        random_extremal_schedule(bounds, n, drawn)
        for _ in range(2 * n):
            expected.permutation(5)
        assert drawn.random() == expected.random()


class TestMultistart:
    def test_two_state_min_finds_both_basins(self, two_state):
        problem = two_state_problem(two_state)
        report = multistart(problem, 32, seed=0)
        assert report.best.value == pytest.approx(0.18, abs=1e-12)
        values = report.distinct_values()
        assert len(values) == 2
        assert values[0] == pytest.approx(0.18, abs=1e-12)
        assert values[1] == pytest.approx(0.32, abs=1e-12)

    def test_two_state_max(self, two_state):
        problem = two_state_problem(two_state, Sense.MAX)
        report = multistart(problem, 32, seed=0)
        assert report.best.value == pytest.approx(0.74, abs=1e-12)

    def test_deterministic_and_consistent(self, two_state):
        problem = two_state_problem(two_state)
        a = multistart(problem, 25, seed=42)
        b = multistart(problem, 25, seed=42)
        assert a == b
        assert sum(hits for _, _, hits in a.unique_extrema) == 25
        assert a.best.value == min(value for _, value, _ in a.unique_extrema)

    def test_best_never_worse_than_any_start(self, two_state):
        problem = two_state_problem(two_state)
        report = multistart(problem, 16, seed=3)
        assert report.best.value <= 0.18 + 1e-12

    @pytest.mark.parametrize("q, f", [([float("nan"), 0.0], [0.0, 1.0]), ([1.0, 0.0], [0.0, float("-inf")])])
    def test_non_finite_vectors_rejected(self, two_state, q, f):
        with pytest.raises(ValueError, match="q and f must be finite"):
            OptimizationProblem(two_state.bounds, q, f, 2)

    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_non_integer_steps_rejected(self, two_state, n):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            OptimizationProblem(two_state.bounds, two_state.q, two_state.f, n)

    def test_zero_steps_rejected(self, two_state):
        with pytest.raises(ValueError, match="need at least one step"):
            OptimizationProblem(two_state.bounds, two_state.q, two_state.f, 0)

    @pytest.mark.parametrize(
        "starts, seed, message",
        [
            pytest.param(True, 0, "starts must be an integer, got True", id="starts-bool"),
            pytest.param(3.0, 0, "starts must be an integer, got 3.0", id="starts-float"),
            pytest.param(3, 1.5, "seed must be an integer, got 1.5", id="seed-float"),
        ],
    )
    def test_non_integer_counts_rejected(self, two_state, starts, seed, message):
        with pytest.raises(ValueError, match=message):
            multistart(two_state_problem(two_state), starts, seed=seed)

    def test_negative_seed_rejected(self, two_state):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            multistart(two_state_problem(two_state), 4, seed=-1)

    def test_numpy_integers_accepted(self, two_state):
        problem = two_state_problem(two_state, n=np.int64(2))
        assert type(problem.n) is int and problem.n == 2
        report = multistart(problem, np.int64(8), seed=np.uint32(1))
        assert report == multistart(two_state_problem(two_state), 8, seed=1)

    def test_numpy_seed_reported_as_int(self, two_state):
        report = multistart(two_state_problem(two_state), 5, np.int64(3))
        assert type(report.seed) is int and report.seed == 3
        assert json.dumps(report.seed) == "3"

    def test_rejects_zero_starts(self, two_state):
        with pytest.raises(ValueError):
            multistart(two_state_problem(two_state), 0, seed=0)

    def test_string_order_rejected(self, two_state):
        with pytest.raises(ValueError, match="'left-to-right'"):
            multistart(two_state_problem(two_state), 4, seed=0, order="left-to-right")

    @pytest.mark.parametrize("steps", [2, 3, 4])
    @pytest.mark.parametrize("sense", list(Sense))
    def test_census_order_spec(self, steps, sense):
        # best value first in the problem's sense, ties by the per-step
        # choices with LOWER first and the first step most significant
        def reference_key(entry):
            sels, value, _ = entry
            signed = value if sense is Sense.MIN else -value
            return signed, tuple(tuple(int(c) for c in sel.choices) for sel in sels)

        for seed in range(4):
            bounds, q, f = generate_instance(GenParams(s=4 + seed % 2, seed=40 + seed))
            report = multistart(OptimizationProblem(bounds, q, f, steps, sense), 30, seed=seed)
            assert list(report.unique_extrema) == sorted(report.unique_extrema, key=reference_key)
            assert len({reference_key(entry)[1] for entry in report.unique_extrema}) == len(
                report.unique_extrema
            )
            assert report.best.selections == report.unique_extrema[0][0]

    def test_selections_built_only_for_census_entries(self, monkeypatch):
        bounds, q, f = generate_instance(GenParams(s=5, seed=4))
        problem = OptimizationProblem(bounds, q, f, 3)
        build = EdgeSelection.from_upper_mask.__func__
        calls = []

        def counting(cls, bounds, mask):
            calls.append(mask)
            return build(cls, bounds, mask)

        monkeypatch.setattr(EdgeSelection, "from_upper_mask", classmethod(counting))
        report = multistart(problem, 40, seed=2)
        # the call builds `best`'s selections only, and the census values
        # are read without building any; an entry builds on first read
        assert len(calls) == problem.n
        count = len(report.unique_extrema)
        assert len(report.distinct_values()) > 1
        assert 1 < count < 10 and len(calls) == problem.n
        entries = tuple(report.unique_extrema)
        assert len(calls) == count * problem.n
        assert report.best.selections is entries[0][0]
        tuple(report.unique_extrema)
        assert len(calls) == count * problem.n

    @pytest.mark.parametrize("read", ["none", "some", "all"])
    def test_reports_compare_however_much_was_read(self, read):
        bounds, q, f = generate_instance(GenParams(s=6, seed=9))
        problem = OptimizationProblem(bounds, q, f, 3)
        report, unread = multistart(problem, 50, seed=3), multistart(problem, 50, seed=3)
        runs = _descents(problem, _random_starts(problem, 50, 3), SweepOrder.LEFT_TO_RIGHT)
        keys = {}
        for idx, masks in enumerate(runs.masks):
            key = masks.tobytes()
            keys.setdefault(key, [idx, 0])[1] += 1
        ranked = sorted(keys.items(), key=lambda item: (runs.value[item[1][0]], item[0]))
        eager = tuple(
            (_selections_from_masks(bounds, runs.masks[idx]), float(runs.value[idx]), hits)
            for _, (idx, hits) in ranked
        )
        assert len(eager) > 2
        if read == "some":
            report.unique_extrema[1]
        elif read == "all":
            tuple(report.unique_extrema)
        assert report == unread and hash(report) == hash(unread)
        assert report.unique_extrema == eager and hash(report.unique_extrema) == hash(eager)
        assert tuple(report.unique_extrema) == eager
        assert report.unique_extrema[-1] == eager[-1] and report.unique_extrema[1:] == eager[1:]
        assert report != multistart(problem, 50, seed=4)


class TestDescents:
    @pytest.mark.parametrize(
        "shapes, starts, free",
        [
            pytest.param([(5, 4)], 1, True, id="1"),
            pytest.param([(5, 4)], 7, True, id="7"),
            pytest.param([(5, 4)], optimize._CHUNK + 1, True, id=str(optimize._CHUNK + 1)),
            pytest.param([(5, 4), (8, 3)], 7, False, id="no-free-edges"),
            pytest.param([(20, 10)], 300, True, id="20x10-300"),
            pytest.param(list(itertools.product(range(2, 13), range(1, 7))), 5, True, id="2-12x1-6"),
        ],
    )
    def test_random_starts_are_one_array_of_per_start_draws(self, shapes, starts, free):
        # (vertices, steps) shapes; without free edges every interval is a point
        for vertices, steps in shapes:
            bounds, q, f = generate_instance(GenParams(s=vertices, seed=3))
            if not free:
                bounds = IntervalBounds(bounds.lower, bounds.lower, bounds.marginal)
            problem = OptimizationProblem(bounds, q, f, steps)
            table = _random_starts(problem, starts, 8)
            assert isinstance(table, np.ndarray) and table.dtype == bool
            assert table.shape == (starts, steps, len(bounds.free_edges) if free else 0)
            for idx, row in enumerate(table):
                np.testing.assert_array_equal(row, optimize._draw_upper_masks(bounds, steps, [substream(8, idx)])[0])

    def test_start_draw_holds_one_chunk_of_rankings(self):
        # a start's float rankings take 2.3 times the bytes of its masks, so
        # beside the mask array only one chunk's rankings may be held
        bounds, q, f = generate_instance(GenParams(s=20, seed=5))
        assert len(bounds.free_edges) == 141
        problem = OptimizationProblem(bounds, q, f, 10)
        # the bounds' cached index arrays are built before the trace starts
        _random_starts(problem, 1, 0)
        tracemalloc.start()
        try:
            masks = _random_starts(problem, 20000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * masks.nbytes

    @pytest.mark.parametrize("vertices", [3, 4, 5, 6])
    def test_matches_local_optimize_from_sampled_schedules(self, vertices):
        # the mask path, reported through the boundary builder, must reach
        # field for field what the public weight-function path reaches from
        # the same sampled start
        bounds, q, f = generate_instance(GenParams(s=vertices, seed=vertices))
        for sense in Sense:
            for order in SweepOrder:
                problem = OptimizationProblem(bounds, q, f, 3, sense)
                runs = _descents(problem, _random_starts(problem, 6, 17), order)
                assert runs.masks.shape == (6, problem.n, len(bounds.free_edges))
                for idx in range(6):
                    start = random_extremal_schedule(bounds, problem.n, substream(17, idx))
                    assert reported(bounds, descent_row(runs, idx)) == local_optimize(problem, start, order)

    @pytest.mark.parametrize("starts", [7, optimize._CHUNK + 1])
    def test_descends_the_start_array_in_place(self, starts):
        # a list of rows is copied; an array is consumed, its rows becoming
        # the fixed points, so no second mask array is held
        bounds, q, f = generate_instance(GenParams(s=5, seed=3))
        problem = OptimizationProblem(bounds, q, f, 3)
        table = _random_starts(problem, starts, 1)
        from_rows = _descents(problem, list(table), SweepOrder.LEFT_TO_RIGHT)
        assert not np.shares_memory(from_rows.masks, table)
        runs = _descents(problem, table, SweepOrder.LEFT_TO_RIGHT)
        assert runs.masks is table
        np.testing.assert_array_equal(runs.masks, from_rows.masks)


class Descent(NamedTuple):
    """One start's descent as the per-start reference returns it."""

    masks: np.ndarray
    value: float
    start_value: float
    sweeps: int
    improvements: int
    trace: tuple[float, ...]


def descent_row(runs, idx):
    """Row idx of a `_Runs` block, in the reference's form."""
    opt = runs.optimum(idx, None)
    return Descent(runs.masks[idx], *[getattr(opt, name) for name in Descent._fields[1:]])


def reported(bounds, run):
    """The `LocalOptimum` a descent is reported as."""
    return LocalOptimum(_selections_from_masks(bounds, run.masks), *run[1:])


def reference_descend(problem, mats, masks, order):
    """The per-start descent the lockstep kernel replaced, kept as its
    reference: one start, one step at a time, every product a plain `@`.
    A step whose mask is None (an interior start step) takes its candidate
    on first visit."""
    bounds = problem.bounds
    q = problem.q
    sign = problem.sense.sign
    f = sign * problem.f
    n = len(mats)
    prefix = [q] * (n + 1)
    suffix = [f] * (n + 1)

    def push(k):
        prefix[k + 1] = prefix[k] @ mats[k]

    def pull(k):
        suffix[k] = mats[k] @ suffix[k + 1]

    if order is SweepOrder.LEFT_TO_RIGHT:
        steps, rebuild, advance = range(n), pull, push
    else:
        steps, rebuild, advance = range(n - 1, -1, -1), push, pull

    def fold_value():
        for k in reversed(range(n)):
            pull(k)
        return float(q @ suffix[0])

    value = fold_value()
    trace = [value]
    sweeps = 0
    while True:
        sweeps += 1
        changed = False
        for k in reversed(steps):
            rebuild(k)
        for k in steps:
            ql, fr = prefix[k], suffix[k + 1]
            mask = _gradient_upper_mask(bounds, ql / bounds.marginal, fr)
            mat = _transitions_from_masks(bounds, mask)
            v_new = float(ql @ (mat @ fr))
            better = v_new < value - TOL * max(1.0, abs(value))
            if better or masks[k] is None:
                mats[k], masks[k] = mat, mask
                value = v_new
                changed = True
                if better:
                    trace.append(value)
            advance(k)
        if not changed:
            break
    trace = tuple(sign * v for v in trace)
    return Descent(np.array(masks), sign * fold_value(), trace[0], sweeps, len(trace) - 1, trace)


def assert_same_descent(run, ref):
    """Field for field, with no tolerance."""
    assert np.array_equal(run.masks, ref.masks) and run.masks.dtype == ref.masks.dtype
    assert run[1:] == ref[1:]
    assert all(type(v) is float for v in (run.value, run.start_value, *run.trace))


class TestLockstepKernel:
    @pytest.mark.parametrize("vertices", [3, 5, 8, 12])
    def test_matches_the_per_start_reference(self, vertices):
        rng = np.random.default_rng(vertices)
        for seed in range(3):
            bounds, q, f = generate_instance(GenParams(s=vertices, seed=500 + seed))
            n = int(rng.integers(1, 7))
            for sense in Sense:
                problem = OptimizationProblem(bounds, q, f, n, sense)
                starts = list(_random_starts(problem, 12, seed))
                for order in SweepOrder:
                    runs = _descents(problem, starts, order)
                    assert len(runs.masks) == len(starts)
                    for idx, masks in enumerate(starts):
                        mats = list(_transitions_from_masks(bounds, masks))
                        ref = reference_descend(problem, mats, list(masks), order)
                        assert_same_descent(descent_row(runs, idx), ref)

    @pytest.mark.parametrize("order", list(SweepOrder))
    def test_interior_starts_match_the_per_start_reference(self, order):
        rng = np.random.default_rng(41)
        for seed in range(8):
            bounds, q, f = generate_instance(GenParams(s=int(rng.integers(3, 7)), seed=600 + seed))
            n = int(rng.integers(1, 5))
            problem = OptimizationProblem(bounds, q, f, n, Sense.MAX if seed % 2 else Sense.MIN)
            extremal = random_extremal_schedule(bounds, n, seed)
            start = tuple(random_weight(bounds, rng) if k % 2 == 0 else w for k, w in enumerate(extremal))
            masks = [None if k % 2 == 0 else selection_of(bounds, w).upper_mask() for k, w in enumerate(start)]
            mats = [transition_matrix(bounds, w) for w in start]
            ref = reference_descend(problem, mats, masks, order)
            assert local_optimize(problem, start, order) == reported(bounds, ref)

    @pytest.mark.parametrize("starts", [1, 7, optimize._CHUNK + 1])
    def test_chunking_changes_nothing(self, monkeypatch, starts):
        bounds, q, f = generate_instance(GenParams(s=5, seed=7))
        problem = OptimizationProblem(bounds, q, f, 3, Sense.MAX)
        table = _random_starts(problem, starts, 4)
        outputs = []
        for chunk in (1, 3, optimize._CHUNK):
            monkeypatch.setattr(optimize, "_CHUNK", chunk)
            # the array and the list of its rows are the same batch; the
            # descent consumes an array, so it gets a copy
            for batch in (table.copy(), list(table)):
                runs = _descents(problem, batch, SweepOrder.RIGHT_TO_LEFT)
                rows = [descent_row(runs, idx) for idx in range(len(runs.masks))]
                outputs.append((rows, multistart(problem, starts, seed=4)))
        (first, report), *rest = outputs
        assert len(first) == starts
        for runs, other in rest:
            for run, ref in zip(runs, first, strict=True):
                assert_same_descent(run, ref)
            assert other == report

    def test_exhaustive_over_several_chunks(self, monkeypatch):
        # 3 free edges over 3 steps: 512 starts, two default chunks
        bounds, q, f = generate_instance(GenParams(s=3, seed=1, disconnect_fraction=0.0))
        problem = OptimizationProblem(bounds, q, f, 3)
        assert (1 << len(bounds.free_edges)) ** problem.n > optimize._CHUNK
        reports = []
        for chunk in (1, 3, optimize._CHUNK):
            monkeypatch.setattr(optimize, "_CHUNK", chunk)
            reports.append(multistart_exhaustive(problem))
        assert reports[0] == reports[1] == reports[2]


class TestMultistartExhaustive:
    def test_two_state_enumerates_four_starts(self, two_state):
        problem = two_state_problem(two_state)
        report = multistart_exhaustive(problem)
        assert report.starts == 4
        assert report.seed is None
        assert report.best.value == pytest.approx(0.18, abs=1e-12)
        assert report.distinct_values() == pytest.approx((0.18, 0.32), abs=1e-12)

    def test_budget_refusal(self, monkeypatch):
        # 11 free edges over 4 steps need 2^44 starts; refused before any descent
        bounds, q, f = generate_instance(GenParams(s=6, seed=0))
        problem = OptimizationProblem(bounds, q, f, 4)
        assert len(bounds.free_edges) == 11
        monkeypatch.setattr(optimize, "_descents", None)
        with pytest.raises(BudgetExceededError, match=f"needs {2**44} starts, over the budget of {2**16}"):
            multistart_exhaustive(problem)

    def test_budget_refusal_past_the_digit_limit(self, monkeypatch):
        # 2^14311 has more than 4300 decimal digits, which Python refuses to
        # format; the refusal is decided and written from the exponent
        bounds, q, f = generate_instance(GenParams(s=6, seed=0))
        problem = OptimizationProblem(bounds, q, f, 1301)
        monkeypatch.setattr(optimize, "_descents", None)
        with pytest.raises(BudgetExceededError, match=r"needs 2\^14311 starts, over the budget of 65536"):
            multistart_exhaustive(problem)

    @pytest.mark.parametrize("e", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_starts_run_in_lexicographic_order(self, monkeypatch, e, n):
        # every schedule once, first step most significant, each step in
        # the selection order of the one-step table
        lower = np.full((3, 3), 0.1)
        np.fill_diagonal(lower, 0.0)
        upper = lower.copy()
        for i, j in ((0, 1), (0, 2), (1, 2))[:e]:
            upper[i, j] = upper[j, i] = 0.4
        bounds = IntervalBounds(lower, upper, np.full(3, 1.0))
        q, f = [0.2, 0.3, 0.5], [1.0, 0.0, 2.0]
        seen = []
        descents = optimize._descents

        def recording(problem, start_masks, order):
            seen.extend(masks.tolist() for masks in start_masks)
            return descents(problem, start_masks, order)

        monkeypatch.setattr(optimize, "_descents", recording)
        multistart_exhaustive(OptimizationProblem(bounds, q, f, n))
        table = _extremal_masks(e)
        assert seen == [table[list(combo)].tolist() for combo in itertools.product(range(1 << e), repeat=n)]

    def test_matches_oracle_on_small_instances(self):
        from intervalwalk import exact_bounds

        for seed in range(8):
            bounds, q, f = generate_instance(GenParams(s=3, seed=seed))
            n = 1 + seed % 3
            res = exact_bounds(bounds, q, f, n)
            lo = multistart_exhaustive(OptimizationProblem(bounds, q, f, n, Sense.MIN))
            hi = multistart_exhaustive(OptimizationProblem(bounds, q, f, n, Sense.MAX))
            assert close(lo.best.value, res.minimum)
            assert close(hi.best.value, res.maximum)


class TestNoFreeEdges:
    """Every interval a point: each schedule is the one empty schedule, whose
    masks have no bytes."""

    @staticmethod
    def problem(sense, n=3):
        bounds, q, f = generate_instance(GenParams(s=5, seed=2))
        pinned = IntervalBounds(bounds.lower, bounds.lower, bounds.marginal)
        return OptimizationProblem(pinned, q, f, n, sense)

    @pytest.mark.parametrize("sense", list(Sense))
    @pytest.mark.parametrize("starts", [1, 9, optimize._CHUNK + 3])
    def test_multistart_has_one_entry_hit_by_every_start(self, sense, starts):
        problem = self.problem(sense)
        report = multistart(problem, starts, seed=1)
        [(selections, value, hits)] = report.unique_extrema
        assert hits == starts and report.distinct_values() == (value,)
        assert selections == report.best.selections and len(selections) == problem.n
        assert all(sel.edges == () for sel in selections)
        assert report.best.value == value == report.best.start_value
        assert report.best.improvements == 0 and report.best.trace == (value,)

    @pytest.mark.parametrize("sense", list(Sense))
    def test_exhaustive_has_one_start_and_one_entry(self, sense):
        report = multistart_exhaustive(self.problem(sense))
        assert report.starts == 1
        [(_, value, hits)] = report.unique_extrema
        assert hits == 1 and report.best.value == value

    def test_census_of_two_streams(self):
        problem = self.problem(Sense.MIN)
        starts = _random_starts(problem, 7, 0)
        lr = _descents(problem, starts.copy(), SweepOrder.LEFT_TO_RIGHT)
        rl = _descents(problem, starts, SweepOrder.RIGHT_TO_LEFT)
        first, values, hits = optimize._census(problem.sense, lr, rl)
        assert first.tolist() == [0] and hits.tolist() == [[7, 7]]
        assert values.tolist() == [lr.value[0]]


class TestMaxIsMinOfNegated:
    def test_reduction_identity(self):
        for seed in range(6):
            bounds, q, f = generate_instance(GenParams(s=4, seed=seed))
            pmax = OptimizationProblem(bounds, q, f, 2, Sense.MAX)
            pneg = OptimizationProblem(bounds, q, -f, 2, Sense.MIN)
            a = multistart(pmax, 20, seed=7)
            b = multistart(pneg, 20, seed=7)
            assert close(a.best.value, -b.best.value)


def tied_edge_problem(sense):
    """Path 0-1-2 with one step and f(0) = f(1), so edge {0, 1} has gradient
    exactly 0; dyadic numbers make the two endpoints' values equal bit for bit."""
    lower = [[0.0, 0.25, 0.0], [0.25, 0.0, 0.25], [0.0, 0.25, 0.0]]
    upper = [[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]]
    bounds = IntervalBounds(lower, upper, [2.0, 2.0, 2.0])
    return OptimizationProblem(bounds, [0.0, 1.0, 0.0], [1.0, 1.0, 2.0], 1, sense)


class TestTieRule:
    """A replacement must beat the current value by more than TOL·max(1, |value|)."""

    def test_instance_has_an_exact_zero_gradient(self):
        problem = tied_edge_problem(Sense.MIN)
        assert validate(problem.bounds).ok
        assert problem.bounds.free_edges == ((0, 1), (1, 2))
        assert edge_gradient(problem.bounds, problem.q, problem.f)[0, 1] == 0.0

    @pytest.mark.parametrize("sense", list(Sense))
    @pytest.mark.parametrize("choice", list(EdgeChoice), ids=lambda c: c.name.lower())
    def test_local_optimize_keeps_the_start_endpoint(self, sense, choice):
        problem = tied_edge_problem(sense)
        # edge {1, 2} starts at its optimal endpoint for the sense
        other = EdgeChoice.LOWER if sense is Sense.MIN else EdgeChoice.UPPER
        selection = EdgeSelection(problem.bounds.free_edges, (choice, other))
        start = weight_from_selection(problem.bounds, selection)
        result = local_optimize(problem, (start,))
        assert result.improvements == 0
        assert result.value == result.start_value
        assert result.selections[0].choices == (choice, other)

    @pytest.mark.parametrize("sense", list(Sense))
    def test_multistart_lists_both_endpoints_lower_first(self, sense):
        report = multistart(tied_edge_problem(sense), 16, seed=0)
        assert [sels[0].choice(0, 1) for sels, _, _ in report.unique_extrema] == [
            EdgeChoice.LOWER,
            EdgeChoice.UPPER,
        ]
        lower_value, upper_value = (value for _, value, _ in report.unique_extrema)
        assert lower_value == upper_value
        assert report.best.selections == report.unique_extrema[0][0]
