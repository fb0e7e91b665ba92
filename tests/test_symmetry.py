"""Symmetries of the bounds problem, on the oracle and on the optimizer.

Reversibility gives P_tᵀ = D P_t D⁻¹, with D the marginals, so
<q, P_1 ... P_n f> = <m∘f, P_n ... P_1 q/m>: the adjoint problem has the
same bounds, attained by the same schedules with their steps reversed.
Scaling every weight and marginal by a power of two changes no transition
matrix, relabeling the states changes no value and, once the free edges are
mapped, no optimal schedule, and the minimum of -f is minus the maximum of f.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from intervalwalk import (
    GenParams,
    IntervalBounds,
    OptimizationProblem,
    Sense,
    exact_bounds,
    generate_instance,
    multistart,
    multistart_exhaustive,
)
from intervalwalk.graph import _extremal_masks

#: Most schedule bits e·n an example enumerates: at most 2^8 schedules.
_BITS = 8


@st.composite
def instances(draw):
    """A generated instance on 3-5 states with e·n <= `_BITS`, and its q and
    f; in about a third of the draws f is constant, so every schedule ties."""
    s = draw(st.integers(3, 5))
    bounds, q, f = generate_instance(GenParams(s=s, seed=draw(st.integers(0, 2**16))))
    e = len(bounds.free_edges)
    assume(e <= _BITS)
    n = draw(st.integers(1, _BITS // max(e, 1)))
    if draw(st.integers(0, 2)) == 2:
        f = np.full(s, 0.7)
    return bounds, q, f, n


def near(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def census(report):
    extrema = report.unique_extrema
    return extrema.values, extrema.hits, extrema.masks.tolist()


def check_rows(bounds, n, schedules):
    """The argopt list reads as ascending rows of the schedule table, and its
    lazily built selections are those rows' masks."""
    e = len(bounds.free_edges)
    masks = schedules.masks
    assert masks.shape == (len(schedules), n, e)
    rows = masks.reshape(len(masks), e * n) @ (1 << np.arange(e * n - 1, -1, -1))
    assert np.all(np.diff(rows) > 0)
    assert np.array_equal(_extremal_masks(e * n, rows).reshape(masks.shape), masks)
    assert [[sel.upper_mask().tolist() for sel in schedule] for schedule in schedules] == masks.tolist()


@given(case=instances())
def test_adjoint_reverses_the_optimal_schedules(case):
    bounds, q, f, n = case
    m = bounds.marginal
    res, adj = exact_bounds(bounds, q, f, n), exact_bounds(bounds, m * f, q / m, n)
    assert near(res.minimum, adj.minimum) and near(res.maximum, adj.maximum)
    for ours, theirs in ((res.argmin, adj.argmin), (res.argmax, adj.argmax)):
        check_rows(bounds, n, ours)
        assert len(ours) == len(theirs)
        assert set(theirs) == {schedule[::-1] for schedule in ours}
    for sense, value in ((Sense.MIN, res.minimum), (Sense.MAX, res.maximum)):
        best = multistart_exhaustive(OptimizationProblem(bounds, m * f, q / m, n, sense)).best
        assert near(best.value, value)


@given(case=instances(), k=st.sampled_from([-3, -1, 1, 2, 4]), seed=st.integers(0, 2**16))
def test_scaling_the_weights_changes_no_bit(case, k, seed):
    bounds, q, f, n = case
    c = 2.0**k
    scaled = IntervalBounds(bounds.lower * c, bounds.upper * c, bounds.marginal * c)
    res, got = exact_bounds(bounds, q, f, n), exact_bounds(scaled, q, f, n)
    assert (got.minimum.hex(), got.maximum.hex()) == (res.minimum.hex(), res.maximum.hex())
    assert np.array_equal(got.argmin.masks, res.argmin.masks)
    assert np.array_equal(got.argmax.masks, res.argmax.masks)
    for sense in Sense:
        ours = multistart(OptimizationProblem(bounds, q, f, n, sense), 6, seed)
        theirs = multistart(OptimizationProblem(scaled, q, f, n, sense), 6, seed)
        assert census(theirs) == census(ours)


@given(case=instances(), data=st.data())
def test_relabeling_the_states_keeps_values_and_ties(case, data):
    bounds, q, f, n = case
    p = np.array(data.draw(st.permutations(range(bounds.size))))
    square = np.ix_(p, p)
    relabeled = IntervalBounds(bounds.lower[square], bounds.upper[square], bounds.marginal[p])
    res, got = exact_bounds(bounds, q, f, n), exact_bounds(relabeled, q[p], f[p], n)
    assert near(got.minimum, res.minimum) and near(got.maximum, res.maximum)
    assert (len(got.argmin), len(got.argmax)) == (len(res.argmin), len(res.argmax))
    # state p[a] is relabeled a, so free edge k is the relabeled free edge cols[k]
    label = np.argsort(p)
    column = {edge: k for k, edge in enumerate(relabeled.free_edges)}
    cols = [column[tuple(sorted((int(label[x]), int(label[y]))))] for x, y in bounds.free_edges]
    for ours, theirs in ((res.argmin, got.argmin), (res.argmax, got.argmax)):
        assert sorted(map(bytes, theirs.masks[:, :, cols])) == sorted(map(bytes, ours.masks))


@given(case=instances(), seed=st.integers(0, 2**16))
def test_minimum_of_minus_f_is_minus_the_maximum(case, seed):
    bounds, q, f, n = case
    res, neg = exact_bounds(bounds, q, f, n), exact_bounds(bounds, q, -f, n)
    assert (neg.minimum.hex(), neg.maximum.hex()) == ((-res.maximum).hex(), (-res.minimum).hex())
    assert np.array_equal(neg.argmin.masks, res.argmax.masks)
    assert np.array_equal(neg.argmax.masks, res.argmin.masks)
    lowest = multistart(OptimizationProblem(bounds, q, -f, n, Sense.MIN), 6, seed)
    highest = multistart(OptimizationProblem(bounds, q, f, n, Sense.MAX), 6, seed)
    values, hits, masks = census(highest)
    assert census(lowest) == ([-v for v in values], hits, masks)
