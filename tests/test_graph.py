"""Bounds validation, extremal weight construction, and the edge gradient."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bounds_q_f, edge_selections, interval_bounds, random_weight
from intervalwalk import (
    EdgeChoice,
    EdgeSelection,
    GenParams,
    IntervalBounds,
    StateSpace,
    ViolationCode,
    WeightFunction,
    close,
    connected_components,
    edge_gradient,
    expectation,
    generate_instance,
    one_step_minimizer,
    selection_of,
    validate,
    weight_from_selection,
    weight_matrix_from_mask,
)
from intervalwalk.graph import (
    _checked_weights,
    _extremal_masks,
    _gradient_upper_mask,
    _transitions_from_masks,
    _weight_functions,
    _weights_from_masks,
)
from intervalwalk.oracle import enumerate_extremal


def reference_weight_matrix(bounds, mask):
    """Entry-by-entry weight matrix of an endpoint mask, loops last."""
    m = bounds.lower.copy()
    for (x, y), up in zip(bounds.free_edges, mask):
        m[x, y] = m[y, x] = bounds.upper[x, y] if up else bounds.lower[x, y]
    np.fill_diagonal(m, bounds.marginal - m.sum(axis=1))
    return m


def reference_components(adjacency):
    """Stack depth-first search over the symmetrized adjacency: sorted
    components, ordered by their smallest member."""
    adj = np.asarray(adjacency, dtype=bool)
    adj = adj | adj.T
    seen = [False] * len(adj)
    components = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        stack, component = [start], [start]
        while stack:
            for y in np.flatnonzero(adj[stack.pop()]).tolist():
                if not seen[y]:
                    seen[y] = True
                    component.append(y)
                    stack.append(y)
        components.append(sorted(component))
    return components


class TestStateSpace:
    def test_basic(self):
        space = StateSpace(("a", "b", "c"))
        assert space.size == 3
        assert space.index("b") == 1

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            StateSpace(("a", "a"))

    def test_rejects_single_state(self):
        with pytest.raises(ValueError):
            StateSpace(("a",))

    @pytest.mark.parametrize("labels", ["ab", 2])
    def test_rejects_non_list(self, labels):
        with pytest.raises(ValueError, match="states must be a list of labels"):
            StateSpace(labels)


class TestConstruction:
    def test_dimension_mismatch_is_structural(self):
        with pytest.raises(ValueError):
            IntervalBounds(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(3))
        with pytest.raises(ValueError):
            IntervalBounds(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            IntervalBounds(np.zeros((2, 2)), np.zeros((3, 3)), np.ones(2))

    def test_nonfinite_rejected(self):
        lower = [[0.0, np.nan], [np.nan, 0.0]]
        with pytest.raises(ValueError):
            IntervalBounds(lower, [[0.0, 1.0], [1.0, 0.0]], [2.0, 2.0])

    def test_diagonal_must_be_zero(self):
        with pytest.raises(ValueError):
            IntervalBounds([[0.1, 0.2], [0.2, 0.0]], [[0.0, 0.9], [0.9, 0.0]], [1.0, 1.0])

    def test_rejects_single_state(self):
        with pytest.raises(ValueError, match="need at least two states"):
            IntervalBounds([[0.0]], [[0.0]], [1.0])


class TestValidate:
    def test_two_state_example_is_valid(self, two_state):
        report = validate(two_state.bounds)
        assert report.ok
        assert report.warnings == ()

    def test_feasibility_violation(self):
        bounds = IntervalBounds(
            [[0.0, 0.2], [0.2, 0.0]], [[0.0, 0.9], [0.9, 0.0]], [0.5, 1.0]
        )
        report = validate(bounds)
        codes = {(v.code, v.where) for v in report.violations}
        assert (ViolationCode.FEASIBILITY, (0,)) in codes

    def test_convention_violation(self):
        bounds = IntervalBounds(
            [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.5], [0.5, 0.0]], [1.0, 1.0]
        )
        report = validate(bounds)
        assert any(
            v.code is ViolationCode.CONVENTION and v.where == (0, 1)
            for v in report.violations
        )

    def test_connectivity_violation(self):
        lower = np.zeros((4, 4))
        upper = np.zeros((4, 4))
        for i, j in ((0, 1), (2, 3)):
            lower[i, j] = lower[j, i] = 0.1
            upper[i, j] = upper[j, i] = 0.2
        bounds = IntervalBounds(lower, upper, np.full(4, 1.0))
        report = validate(bounds)
        assert any(v.code is ViolationCode.CONNECTIVITY for v in report.violations)

    def test_components_match_depth_first_search(self):
        rng = np.random.default_rng(7)
        cases = [np.zeros((0, 0), dtype=bool), np.zeros((1, 1), dtype=bool), np.zeros((5, 5), dtype=bool)]
        for _ in range(400):
            s = int(rng.integers(0, 31))
            # densities from a few isolated vertices to one component; the
            # matrices are asymmetric and some carry loops
            cases.append(rng.random((s, s)) < rng.choice([0.0, 0.02, 0.05, 0.1, 0.3]))
        for adjacency in cases:
            components = connected_components(adjacency)
            assert components == reference_components(adjacency)
            assert all(type(x) is int for component in components for x in component)

    def test_symmetry_and_order_violations(self):
        lower = [[0.0, 0.3], [0.2, 0.0]]
        upper = [[0.0, 0.25], [0.25, 0.0]]
        report = validate(IntervalBounds(lower, upper, [1.0, 1.0]))
        codes = {v.code for v in report.violations}
        assert ViolationCode.SYMMETRY in codes
        assert ViolationCode.ORDER in codes

    def test_positivity_violations(self):
        bounds = IntervalBounds(
            [[0.0, -0.1], [-0.1, 0.0]], [[0.0, 0.5], [0.5, 0.0]], [1.0, 0.0]
        )
        report = validate(bounds)
        wheres = {v.where for v in report.violations if v.code is ViolationCode.POSITIVITY}
        assert (1,) in wheres  # nonpositive marginal
        assert (0, 1) in wheres  # negative lower bound

    def test_zero_loop_floor_warns(self):
        bounds = IntervalBounds(
            [[0.0, 0.2], [0.2, 0.0]], [[0.0, 0.9], [0.9, 0.0]], [0.9, 1.0]
        )
        report = validate(bounds)
        assert report.ok
        assert len(report.warnings) == 1 and "state 0" in report.warnings[0]

    def test_report_text_is_pinned(self):
        """Every code and the loop-weight warning, with their indices and
        text, in the order validate reports them."""
        lower = [
            [0.0, 0.5, -0.25, 0.0],
            [0.5, 0.0, 0.25, 0.0],
            [-0.25, 0.125, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
        upper = [
            [0.0, 0.25, 0.5, 0.0],
            [0.25, 0.0, 1.0, 0.5],
            [0.5, 1.0, 0.0, -0.5],
            [0.0, 0.0, -0.5, 0.0],
        ]
        report = validate(IntervalBounds(lower, upper, [1.0, 1.0, 1.5, 0.0]))
        expected = [
            ("POSITIVITY", (3,), "marginal W(3) = 0.0 is not positive"),
            ("POSITIVITY", (0, 2), "lower(0, 2) = -0.25 is negative"),
            ("POSITIVITY", (2, 0), "lower(2, 0) = -0.25 is negative"),
            ("POSITIVITY", (2, 3), "upper(2, 3) = -0.5 is negative"),
            ("POSITIVITY", (3, 2), "upper(3, 2) = -0.5 is negative"),
            ("SYMMETRY", (1, 2), "lower(1, 2) = 0.25 but lower(2, 1) = 0.125"),
            ("SYMMETRY", (1, 3), "upper(1, 3) = 0.5 but upper(3, 1) = 0.0"),
            ("ORDER", (0, 1), "lower(0, 1) = 0.5 exceeds upper(0, 1) = 0.25"),
            ("ORDER", (1, 0), "lower(1, 0) = 0.5 exceeds upper(1, 0) = 0.25"),
            ("ORDER", (2, 3), "lower(2, 3) = 0.0 exceeds upper(2, 3) = -0.5"),
            ("ORDER", (3, 2), "lower(3, 2) = 0.0 exceeds upper(3, 2) = -0.5"),
            ("FEASIBILITY", (1,), "upper bounds incident to 1 sum to 1.75 > W(1) = 1.0"),
            ("CONVENTION", (0, 2), "edge (0, 2) has upper = 0.5 > 0 but lower = -0.25"),
            ("CONVENTION", (1, 3), "edge (1, 3) has upper = 0.5 > 0 but lower = 0.0"),
            (
                "CONNECTIVITY",
                (3,),
                "states [3] are cut off from state 0 on the graph of edges with positive lower bound",
            ),
        ]
        assert [(v.code.name, v.where, v.detail) for v in report.violations] == expected
        assert all(type(x) is int for v in report.violations for x in v.where)
        assert report.warnings == ()
        assert str(report) == "\n".join(f"{code} at {where}: {detail}" for code, where, detail in expected)

        report = validate(
            IntervalBounds([[0.0, 0.25], [0.25, 0.0]], [[0.0, 0.75], [0.75, 0.0]], [0.75, 1.0])
        )
        warning = (
            "state 0: the admissible loop weight can reach 0 "
            "(upper bounds exhaust the marginal); some walks lose aperiodicity"
        )
        assert report.violations == () and report.warnings == (warning,)
        assert str(report) == f"warning: {warning}"

    @given(bounds=interval_bounds())
    def test_generated_bounds_are_valid(self, bounds):
        assert validate(bounds).ok


class TestWeightFromSelection:
    def test_upper_choice(self, two_state):
        np.testing.assert_allclose(
            two_state.w_up.matrix, [[0.1, 0.9], [0.9, 0.1]], rtol=0, atol=1e-15
        )

    def test_lower_choice(self, two_state):
        np.testing.assert_allclose(
            two_state.w_lo.matrix, [[0.8, 0.2], [0.2, 0.8]], rtol=0, atol=1e-15
        )

    def test_degenerate_bounds_give_unique_function(self):
        lower = [[0.0, 0.4], [0.4, 0.0]]
        bounds = IntervalBounds(lower, lower, [1.0, 1.0])
        assert bounds.free_edges == ()
        w = weight_from_selection(bounds, EdgeSelection((), ()))
        np.testing.assert_allclose(w.matrix, [[0.6, 0.4], [0.4, 0.6]])

    def test_rejects_foreign_selection(self, two_state):
        with pytest.raises(ValueError):
            weight_from_selection(two_state.bounds, EdgeSelection(((0, 2),), (EdgeChoice.LOWER,)))

    @given(data=st.data())
    def test_output_satisfies_weight_invariants(self, data):
        bounds = data.draw(interval_bounds())
        selection = data.draw(edge_selections(bounds))
        w = weight_from_selection(bounds, selection)
        i, j = np.triu_indices(bounds.size, k=1)
        assert np.all(w.offdiag[i, j] >= bounds.lower[i, j] - 1e-15)
        assert np.all(w.offdiag[i, j] <= bounds.upper[i, j] + 1e-15)
        assert np.all(w.loop >= -1e-12 * np.maximum(1.0, bounds.marginal))
        for x in range(bounds.size):
            assert close(w.row_sums[x], bounds.marginal[x])

    def test_exhaustive_on_small_instance(self):
        lower = np.zeros((3, 3))
        upper = np.zeros((3, 3))
        for i, j in ((0, 1), (1, 2), (0, 2)):
            lower[i, j] = lower[j, i] = 0.1
            upper[i, j] = upper[j, i] = 0.5
        triangle = IntervalBounds(lower, upper, np.full(3, 1.2))
        # a 4-cycle with one degenerate edge {1, 2} and two absent chords
        lower = np.zeros((4, 4))
        upper = np.zeros((4, 4))
        edges = {(0, 1): (0.1, 0.3), (1, 2): (0.2, 0.2), (2, 3): (0.1, 0.4), (0, 3): (0.05, 0.2)}
        for (i, j), (lo, up) in edges.items():
            lower[i, j] = lower[j, i] = lo
            upper[i, j] = upper[j, i] = up
        cycle = IntervalBounds(lower, upper, np.full(4, 1.0))
        assert cycle.free_edges == ((0, 1), (0, 3), (2, 3))
        for bounds in (triangle, cycle):
            pairs = enumerate_extremal(bounds)
            table = _extremal_masks(len(bounds.free_edges))
            stack = _weights_from_masks(bounds, table)
            for (selection, w), mask, m in zip(pairs, table, stack, strict=True):
                assert np.all(w.loop >= 0.0)
                np.testing.assert_allclose(w.row_sums, bounds.marginal, rtol=1e-12)
                assert selection_of(bounds, w) == selection
                assert np.array_equal(selection.upper_mask(), mask)
                single = weight_matrix_from_mask(bounds, mask)
                assert m.tobytes() == single.tobytes() == w.matrix.tobytes()
                assert m.tobytes() == reference_weight_matrix(bounds, mask).tobytes()


def split_weight_matrix(bounds, mask):
    """One mask's weight function by the single-mask recipe: the matrix of
    `weight_matrix_from_mask`, its diagonal split off as the loops."""
    m = weight_matrix_from_mask(bounds, mask)
    loop = np.diag(m).copy()
    np.fill_diagonal(m, 0.0)
    return m, loop


class TestWeightFunctions:
    """The stacked builder behind every public weight-function constructor."""

    @pytest.mark.parametrize("free", [True, False], ids=["free", "no-free-edges"])
    @pytest.mark.parametrize("k", [0, 1, 7, 513])
    def test_stack_matches_the_single_mask_recipe(self, k, free):
        for seed in range(6):
            bounds, _, _ = generate_instance(GenParams(s=2 + seed, seed=seed))
            if not free:
                bounds = IntervalBounds(bounds.lower, bounds.lower, bounds.marginal)
            masks = np.random.default_rng(seed).random((k, len(bounds.free_edges))) < 0.5
            weights = _weight_functions(bounds, masks)
            assert type(weights) is tuple and len(weights) == k
            for mask, w in zip(masks, weights, strict=True):
                offdiag, loop = split_weight_matrix(bounds, mask)
                assert w.offdiag.tobytes() == offdiag.tobytes()
                assert w.loop.tobytes() == loop.tobytes()

    @pytest.mark.parametrize(
        "offdiag, loop, message",
        [
            pytest.param([0.0, 0.3], [0.7, 0.7], r"offdiag must be square, got shape \(2,\)", id="vector"),
            pytest.param([[0.0, 0.3, 0.1], [0.3, 0.0, 0.1]], [0.7, 0.7], "offdiag must be square", id="non-square"),
            pytest.param([[0.0, 0.3], [0.3, 0.0]], [0.7], "loop vector length must match", id="short-loop"),
        ],
    )
    def test_shapes_checked(self, offdiag, loop, message):
        with pytest.raises(ValueError, match=message):
            WeightFunction(offdiag, loop)

    def test_caller_arrays_are_copied(self):
        offdiag = np.array([[0.0, 0.3], [0.3, 0.0]])
        loop = np.array([0.7, 0.7])
        w = WeightFunction(offdiag, loop)
        offdiag[0, 1] = loop[0] = 5.0
        assert w.offdiag[0, 1] == 0.3 and w.loop[0] == 0.7
        assert not w.offdiag.flags.writeable and not w.loop.flags.writeable


class TestTransitionsFromMasks:
    """The stacked transition builder, bit for bit the per-row division."""

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)], ids=["vector", "rows", "rows-steps"])
    @pytest.mark.parametrize(
        "states, free", [(4, True), (7, True), (20, True), (5, False)], ids=["4", "7", "20", "no-free-edges"]
    )
    def test_stack_matches_the_per_row_division(self, shape, states, free):
        bounds, _, _ = generate_instance(GenParams(s=states, seed=states))
        if not free:
            bounds = IntervalBounds(bounds.lower, bounds.lower, bounds.marginal)
        e = len(bounds.free_edges)
        assert (e == 0) == (not free)
        masks = np.random.default_rng(states).random(shape + (e,)) < 0.5
        stack = _transitions_from_masks(bounds, masks)
        assert stack.shape == shape + (bounds.size, bounds.size)
        rows = masks.reshape(int(np.prod(shape)), e)
        expected = np.array([weight_matrix_from_mask(bounds, m) / bounds.marginal[:, None] for m in rows])
        assert stack.tobytes() == expected.tobytes()


class TestCheckedWeights:
    """The start check returns the weight stack it checked."""

    @pytest.mark.parametrize("n", [1, 4])
    def test_stack_is_the_matrices_byte_for_byte(self, n):
        for seed in range(6):
            bounds, _, _ = generate_instance(GenParams(s=2 + seed, seed=seed))
            rng = np.random.default_rng(seed)
            schedule = []
            for k in range(n):
                w = random_weight(bounds, rng)
                if k % 2:
                    # a stored diagonal is not a weight; the loops replace it
                    w = WeightFunction(w.offdiag + np.diag(rng.random(bounds.size)), w.loop)
                schedule.append(w)
            weights = _checked_weights(bounds, schedule)
            assert weights.dtype == float and weights.shape == (n, bounds.size, bounds.size)
            assert weights.tobytes() == np.array([w.matrix for w in schedule]).tobytes()


class TestEdgeGradient:
    def test_unit_case(self, two_state):
        g = edge_gradient(two_state.bounds, [1.0, 0.0], [0.0, 1.0])
        assert g[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_constant_mass_gives_zero(self, two_state):
        g = edge_gradient(two_state.bounds, [0.7, 0.7], [0.3, -2.0])
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_negative_case(self, two_state):
        g = edge_gradient(two_state.bounds, [1.0, 0.0], [0.9, 0.1])
        assert g[0, 1] == pytest.approx(-0.8, abs=1e-15)

    @given(args=bounds_q_f())
    def test_symmetric_zero_diagonal(self, args):
        bounds, q, f = args
        g = edge_gradient(bounds, q, f)
        np.testing.assert_allclose(g, g.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(g), 0.0, atol=1e-15)

    def test_gradient_is_derivative_of_one_step_value(self, two_state):
        # shift mass d off an edge onto its two loops; the value moves by -d * gradient
        rng = np.random.default_rng(3)
        for _ in range(50):
            bounds = two_state.bounds
            q = rng.normal(size=2)
            f = rng.normal(size=2)
            w = random_weight(bounds, rng)
            g = edge_gradient(bounds, q, f)
            d = (w.offdiag[0, 1] - bounds.lower[0, 1]) * rng.random()
            offdiag = w.offdiag.copy()
            offdiag[0, 1] -= d
            offdiag[1, 0] -= d
            shifted = WeightFunction(offdiag, bounds.marginal - offdiag.sum(axis=1))
            before = expectation(bounds, q, (w,), f)
            after = expectation(bounds, q, (shifted,), f)
            assert close(before - after, d * g[0, 1])


@st.composite
def gradient_stacks(draw):
    """Bounds on 2-8 states and h, f stacks of shape (s,), (k, s) or
    (k, m, s), from a value set small enough that exact ties, zeros and
    negatives occur."""
    bounds = draw(interval_bounds(max_states=8))
    shape = draw(st.sampled_from([(), (3,), (2, 3)])) + (bounds.size,)
    values = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
    size = int(np.prod(shape))
    h, f = (np.reshape(draw(st.lists(values, min_size=size, max_size=size)), shape) for _ in "hf")
    return bounds, h, f


class TestGradientUpperMask:
    """The one-step minimizer's endpoint rule, apart from every kernel that uses it."""

    @given(args=gradient_stacks())
    def test_matches_the_written_out_rule(self, args):
        bounds, h, f = args
        no_free = IntervalBounds(bounds.lower, bounds.lower, bounds.marginal)
        for b in (bounds, no_free):
            i, j = b._free_idx
            expected = (h[..., i] - h[..., j]) * (f[..., j] - f[..., i]) <= 0
            mask = _gradient_upper_mask(b, h, f)
            assert mask.dtype == bool and mask.shape == expected.shape
            assert np.array_equal(mask, expected)

    @pytest.mark.parametrize("shape", [(256,), (2, 128)], ids=["rows", "rows-steps"])
    def test_wide_stack_on_twenty_states(self, shape):
        """A kernel-sized stack: 256 rows on a 20-state instance, with values
        from a small set so that ties and zero gradients occur."""
        bounds, _, _ = generate_instance(GenParams(s=20, seed=20))
        rng = np.random.default_rng(20)
        values = np.array([-1.0, 0.0, 0.5, 1.0])
        h, f = (rng.choice(values, size=shape + (20,)) for _ in "hf")
        i, j = bounds._free_idx
        g = (h[..., i] - h[..., j]) * (f[..., j] - f[..., i])
        assert (g == 0).any() and (g < 0).any() and (g > 0).any()
        assert np.array_equal(_gradient_upper_mask(bounds, h, f), g <= 0)


class TestOneStepMinimizer:
    def test_prefers_upper_on_negative_gradient(self, two_state):
        w, selection = one_step_minimizer(two_state.bounds, [1.0, 0.0], [0.9, 0.1])
        assert selection.choices == (EdgeChoice.UPPER,)
        np.testing.assert_allclose(w.matrix, two_state.w_up.matrix)

    def test_prefers_lower_on_positive_gradient(self, two_state):
        w, selection = one_step_minimizer(two_state.bounds, [1.0, 0.0], [0.2, 0.8])
        assert selection.choices == (EdgeChoice.LOWER,)
        np.testing.assert_allclose(w.matrix, two_state.w_lo.matrix)

    def test_zero_gradient_ties_go_upper(self, two_state):
        _, selection = one_step_minimizer(two_state.bounds, [0.5, 0.5], [0.0, 1.0])
        assert selection.choices == (EdgeChoice.UPPER,)

    def test_beats_every_extremal_candidate(self):
        # the enumeration is the independent route for the minimizer's claim
        rng = np.random.default_rng(11)
        from intervalwalk import GenParams, generate_instance

        for trial in range(30):
            bounds, q, f = generate_instance(GenParams(s=int(rng.integers(3, 6)), seed=trial))
            q = rng.normal(size=bounds.size)
            f = rng.normal(size=bounds.size)
            w_best, _ = one_step_minimizer(bounds, q, f)
            best = expectation(bounds, q, (w_best,), f)
            for _, w in enumerate_extremal(bounds):
                assert best <= expectation(bounds, q, (w,), f) + 1e-12


@pytest.mark.parametrize("call", [edge_gradient, one_step_minimizer])
@pytest.mark.parametrize(
    "q, f, message",
    [
        pytest.param([float("nan"), 0.0], [0.0, 1.0], "q and f must be finite", id="nan-q"),
        pytest.param([1.0, 0.0], [0.0, float("inf")], "q and f must be finite", id="inf-f"),
        pytest.param([1.0, 0.0, 0.0], [0.0, 1.0], "q and f must be vectors of length 2", id="long-q"),
        pytest.param([1.0, 0.0], [[0.0, 1.0]], "q and f must be vectors of length 2", id="matrix-f"),
    ],
)
def test_one_step_vectors_checked(two_state, call, q, f, message):
    with pytest.raises(ValueError, match=message):
        call(two_state.bounds, q, f)


class TestSelectionOf:
    def test_recovers_upper(self, two_state):
        assert selection_of(two_state.bounds, two_state.w_up).choices == (EdgeChoice.UPPER,)

    def test_foreign_size_rejected(self, two_state):
        # its (0, 1) weight alone would read as the upper endpoint
        offdiag = [[0.0, 0.9, 0.0], [0.9, 0.0, 0.0], [0.0, 0.0, 0.0]]
        w = WeightFunction(offdiag, [0.1, 0.1, 1.0])
        with pytest.raises(ValueError, match="weight function has 3 states, the bounds have 2"):
            selection_of(two_state.bounds, w)

    def test_interior_weight_is_not_extremal(self, two_state):
        w = WeightFunction([[0.0, 0.55], [0.55, 0.0]], [0.45, 0.45])
        assert selection_of(two_state.bounds, w) is None

    def test_degenerate_bounds_empty_selection(self):
        lower = [[0.0, 0.4], [0.4, 0.0]]
        bounds = IntervalBounds(lower, lower, [1.0, 1.0])
        w = weight_from_selection(bounds, EdgeSelection((), ()))
        assert selection_of(bounds, w) == EdgeSelection((), ())

    @given(data=st.data())
    def test_round_trip(self, data):
        bounds = data.draw(interval_bounds())
        selection = data.draw(edge_selections(bounds))
        w = weight_from_selection(bounds, selection)
        assert selection_of(bounds, w) == selection


class TestEdgeSelection:
    def test_lookup_by_edge(self, two_state):
        selection = EdgeSelection(two_state.bounds.free_edges, (EdgeChoice.UPPER,))
        assert selection.choice(0, 1) is EdgeChoice.UPPER
        assert selection.choice(1, 0) is EdgeChoice.UPPER
        with pytest.raises(KeyError):
            selection.choice(0, 2)

    def test_one_choice_per_edge(self, two_state):
        with pytest.raises(ValueError, match="one choice per edge required"):
            EdgeSelection(two_state.bounds.free_edges, (EdgeChoice.UPPER, EdgeChoice.LOWER))

    @pytest.mark.parametrize("build", [EdgeSelection.from_upper_mask, weight_matrix_from_mask])
    @pytest.mark.parametrize("mask", [[], [True, False], [[True]]])
    def test_mask_length_checked(self, two_state, build, mask):
        with pytest.raises(ValueError, match="mask length does not match the free edges"):
            build(two_state.bounds, mask)

    def test_equality_is_by_choices(self, two_state):
        edges = two_state.bounds.free_edges
        a = EdgeSelection(edges, (EdgeChoice.UPPER,))
        b = EdgeSelection(edges, (EdgeChoice.UPPER,))
        c = EdgeSelection(edges, (EdgeChoice.LOWER,))
        assert a == b and hash(a) == hash(b)
        assert a != c
