"""Exact expectation bounds on small instances by exhaustive enumeration.

Optima over admissible weight schedules are always attained at per-step
extremal weight functions, so enumerating the 2^e endpoint selections per
step (e = number of free edges) and folding every combination gives ground
truth.  The fold runs in blocks of prefixes, not one prefix at a time: one
einsum pushes a whole block one step.  The enumeration refuses instead of
approximating when the requested work exceeds its budget.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .graph import (
    EdgeSelection,
    IntervalBounds,
    WeightFunction,
    _LazyTuple,
    _checked_vectors,
    _check_integers,
    _extremal_masks,
    _selections_from_masks,
    _transitions_from_masks,
    _weight_functions,
)

#: Absolute tolerance for collecting all schedules tied with an optimum.
ARGOPT_ATOL = 1e-12

#: Most free edges whose 2^e extremal weight functions are enumerated.
EXTREMAL_CAP = 20

# Most (prefix, last step) values `exact_bounds` evaluates in one batch, and
# most transition rows it builds at once; a prefix with more last steps is a
# batch of its own.
_BATCH = 2**14


class BudgetExceededError(RuntimeError):
    """Raised instead of returning an approximate answer when an exact
    enumeration would exceed its budget."""


class _Schedules(_LazyTuple):
    """Optimal schedules as a sequence of selection schedules, each held as
    its row of the (2^e)^n schedule table ``graph._extremal_masks(e·n)``, in
    an int64 array; `masks` is every schedule's (n, e) masks as one (k, n, e)
    array."""

    def __init__(self, bounds: IntervalBounds, n: int, index: np.ndarray):
        self._bounds = bounds
        self._shape = (n, len(bounds.free_edges))
        self._index = index

    @property
    def masks(self) -> np.ndarray:
        # the shape is explicit, as a zero-step (1, 0, e) stack cannot infer it
        n, e = self._shape
        return _extremal_masks(e * n, self._index).reshape(len(self._index), n, e)

    def __len__(self) -> int:
        return len(self._index)

    def _entry(self, i):
        n, e = self._shape
        return _selections_from_masks(self._bounds, _extremal_masks(e * n, self._index[i]).reshape(n, e))


class ExactBounds(NamedTuple):
    minimum: float
    maximum: float
    argmin: Sequence[tuple[EdgeSelection, ...]]
    argmax: Sequence[tuple[EdgeSelection, ...]]


def _check_cap(e: int) -> None:
    if e > EXTREMAL_CAP:
        raise BudgetExceededError(
            f"{e} free edges would enumerate 2^{e} extremal functions, over the cap of 2^{EXTREMAL_CAP}"
        )


def enumerate_extremal(bounds: IntervalBounds) -> list[tuple[EdgeSelection, WeightFunction]]:
    """All 2^e extremal weight functions, in the lexicographic selection order
    of ``graph._extremal_masks``; refuses beyond 2^`EXTREMAL_CAP`."""
    e = len(bounds.free_edges)
    _check_cap(e)
    masks = _extremal_masks(e)
    return list(zip(_selections_from_masks(bounds, masks), _weight_functions(bounds, masks)))


def _check_budget(e: int, n: int, budget: int, message: str) -> None:
    """Raise BudgetExceededError with `message`, its `{count}` filled in,
    when (2^e)^n exceeds `budget` >= 1.  Decided from the exponent, as
    2^(e·n) > budget exactly when e·n >= budget.bit_length(), so no large
    integer is built; a count of more than 64 bits is written 2^(e·n)."""
    if e * n >= int(budget).bit_length():
        count = str(1 << e * n) if e * n < 64 else f"2^{e * n}"
        raise BudgetExceededError(message.format(count=count))


def exact_bounds(
    bounds: IntervalBounds, q, f, n: int, budget: int = 2**24
) -> ExactBounds:
    """Exact minimum and maximum of the n-step expectation over extremal
    schedules, with every optimal schedule within 1e-12 of the optimum.

    A leaf block is one prefix of n - 1 steps and the values of its 2^e last
    steps.  Prefixes are pushed a block at a time, and leaf blocks are
    evaluated in batches of at most max(2^14, 2^e) values, in ascending
    prefix order.  One pass keeps each leaf block that can hold an optimum of
    either sense, and both answers are read from those blocks.  Every value
    is bit for bit that of a fold one prefix at a time, as each sum runs in
    the same order.  Optimal schedules are listed as ascending row indices
    of the schedule table ``graph._extremal_masks(e·n)`` (first step most
    significant), in read-only sequences that build a schedule's selections
    when it is read, so counting ties builds none.

    Raises ValueError on an `n` that is not a nonnegative integer, a `budget`
    that is not an integer of at least 1, or a q or f that is not a finite
    vector over the states.
    Refuses (BudgetExceededError) when the (2^e)^n schedule evaluations would
    exceed `budget`, or when 2^e extremal functions exceed 2^`EXTREMAL_CAP`;
    n = 0 enumerates nothing and is never refused.
    """
    _check_integers(n=n, budget=budget)
    if n < 0:
        raise ValueError("step count must be nonnegative")
    n = int(n)  # a numpy integer would wrap in the (2^e)^n budget count
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    q, f = _checked_vectors(bounds, q=q, f=f)
    if n == 0:
        value = float(q @ f)
        empty = _Schedules(bounds, 0, np.zeros(1, np.int64))
        return ExactBounds(value, value, empty, empty)
    e = len(bounds.free_edges)
    _check_cap(e)
    _check_budget(
        e,
        n,
        budget,
        f"enumerating {n} steps over {e} free edges needs (2^{e})^{n} = {{count}} "
        f"evaluations, over the budget of {budget}",
    )

    # the one-step stack summed axis first, (s, m, s), so einsum's inner loop
    # runs over a prefix's m·s pushed values at once; filled a block at a
    # time, as a transposed copy would hold it twice
    s, m = bounds.size, 1 << e
    stack = np.empty((s, m, s))
    rows = max(1, _BATCH // s)
    for a in range(0, m, rows):
        block = _extremal_masks(e, np.arange(a, min(a + rows, m)))
        stack[:, a : a + rows] = _transitions_from_masks(bounds, block).transpose(1, 0, 2)

    lo, hi = np.inf, -np.inf
    kept: list[tuple[np.ndarray, np.ndarray]] = []  # (prefix indices, leaf values) per batch
    done = 0  # prefixes evaluated; batches arrive in ascending prefix order

    def near(index, values) -> tuple[np.ndarray, np.ndarray]:
        """The leaf blocks, rows of `values` with prefix indices `index`, that
        can hold an optimum of either sense."""
        k = (values.min(axis=1) <= lo + ARGOPT_ATOL) | (values.max(axis=1) >= hi - ARGOPT_ATOL)
        return index[k], values[k]

    # an explicit stack of (steps left, prefix masses) blocks stands in for
    # recursion, so any depth runs; a block holds at most `per` prefixes
    per = max(1, _BATCH // m)
    todo = [(n - 1, q[None])]
    while todo:
        left, masses = todo.pop()
        pushed = np.einsum("kx,xmy->kmy", masses, stack)
        if left:
            pushed = pushed.reshape(-1, s)
            # reversed, so the first block is popped first
            todo.extend((left - 1, pushed[i : i + per]) for i in reversed(range(0, len(pushed), per)))
            continue
        values = pushed @ f
        low, high = float(values.min()), float(values.max())
        if low < lo or high > hi:
            lo, hi = min(lo, low), max(hi, high)
            kept = [near(i, v) for i, v in kept]
        kept.append(near(done + np.arange(len(values)), values))
        done += len(values)

    index = np.concatenate([i for i, _ in kept])
    values = np.concatenate([v for _, v in kept])

    def schedules(hit) -> _Schedules:
        # row-major, so in ascending prefix and then leaf index; the
        # enumeration has counted to every schedule number, so it fits 64 bits
        flat = np.flatnonzero(hit)
        return _Schedules(bounds, n, index[flat // m] * m + flat % m)

    return ExactBounds(
        lo,
        hi,
        schedules(values <= lo + ARGOPT_ATOL),
        schedules(values >= hi - ARGOPT_ATOL),
    )
