"""Exact expectation bounds on small instances by exhaustive enumeration.

Optima over admissible weight schedules are always attained at per-step
extremal weight functions, so enumerating the 2^e endpoint selections per
step (e = number of free edges) and folding every combination gives ground
truth.  The enumeration refuses instead of approximating when the requested
work exceeds its budget.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graph import (
    EdgeSelection,
    IntervalBounds,
    WeightFunction,
    _checked_vectors,
    _check_integers,
    _extremal_masks,
    _selections_from_masks,
    _transitions_from_masks,
    weight_from_selection,
)

#: Absolute tolerance for collecting all schedules tied with an optimum.
ARGOPT_ATOL = 1e-12

#: Most free edges whose 2^e extremal weight functions are enumerated.
EXTREMAL_CAP = 20


class BudgetExceededError(RuntimeError):
    """Raised instead of returning an approximate answer when an exact
    enumeration would exceed its budget."""


class ExactBounds(NamedTuple):
    minimum: float
    maximum: float
    argmin: tuple[tuple[EdgeSelection, ...], ...]
    argmax: tuple[tuple[EdgeSelection, ...], ...]


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
    selections = _selections_from_masks(bounds, _extremal_masks(e))
    return [(sel, weight_from_selection(bounds, sel)) for sel in selections]


def exact_bounds(
    bounds: IntervalBounds, q, f, n: int, budget: int = 2**24
) -> ExactBounds:
    """Exact minimum and maximum of the n-step expectation over extremal
    schedules, with every optimal schedule within 1e-12 of the optimum.

    One depth-first pass keeps each leaf block (the 2^e last steps of one
    prefix) that can hold an optimum of either sense, and both answers are
    read from those blocks.  Optimal schedules are listed in lexicographic
    order, step by step, of the selection order of ``graph._extremal_masks``.

    Raises ValueError on an `n` that is not a nonnegative integer, a `budget`
    that is not an integer of at least 1, or a q or f that is not a finite
    vector over the states.
    Refuses (BudgetExceededError) when the (2^e)^n schedule evaluations would
    exceed `budget`, or when 2^e extremal functions exceed 2^`EXTREMAL_CAP`.
    """
    _check_integers(n=n, budget=budget)
    if n < 0:
        raise ValueError("step count must be nonnegative")
    n = int(n)  # a numpy integer would wrap in the (2^e)^n budget count
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    q, f = _checked_vectors(bounds, q, f)
    e = len(bounds.free_edges)
    _check_cap(e)
    total = (1 << e) ** n
    if total > budget:
        raise BudgetExceededError(
            f"enumerating {n} steps over {e} free edges needs (2^{e})^{n} = {total} "
            f"evaluations, over the budget of {budget}"
        )
    if n == 0:
        value = float(q @ f)
        return ExactBounds(value, value, ((),), ((),))

    table = _extremal_masks(e)
    stack = _transitions_from_masks(bounds, table)
    m = stack.shape[0]
    lo, hi = np.inf, -np.inf
    kept: list[tuple[int, np.ndarray]] = []  # (prefix index, leaf values), ascending

    def near(low, high) -> bool:
        """Whether a leaf block spanning [low, high] can hold an optimum of either sense."""
        return low <= lo + ARGOPT_ATOL or high >= hi - ARGOPT_ATOL

    def explore(depth: int, ql: np.ndarray, index: int) -> None:
        nonlocal lo, hi, kept
        pushed = np.einsum("x,mxy->my", ql, stack)
        if depth < n - 1:
            for k in range(m):
                explore(depth + 1, pushed[k], index * m + k)
            return
        values = pushed @ f
        low, high = float(values.min()), float(values.max())
        if low < lo or high > hi:
            lo, hi = min(lo, low), max(hi, high)
            kept = [(i, v) for i, v in kept if near(v.min(), v.max())]
        if near(low, high):
            kept.append((index, values))

    explore(0, q, 0)
    # explore reaches itself through its closure: break the cycle so the blocks
    # and the stack are freed on return, not at the next garbage collection
    del explore

    def schedules(hit) -> tuple[tuple[EdgeSelection, ...], ...]:
        flat = [index * m + k for index, values in kept for k in np.flatnonzero(hit(values))]
        rows = np.stack(np.unravel_index(flat, (m,) * n), axis=-1)
        return tuple(_selections_from_masks(bounds, table[r]) for r in rows)

    return ExactBounds(
        lo,
        hi,
        schedules(lambda values: values <= lo + ARGOPT_ATOL),
        schedules(lambda values: values >= hi - ARGOPT_ATOL),
    )
