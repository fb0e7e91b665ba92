"""Exact expectation bounds on small instances by exhaustive enumeration.

Optima over admissible weight schedules are always attained at per-step
extremal weight functions, so enumerating the 2^e endpoint selections per
step (e = number of free edges) and folding every combination gives ground
truth.  The enumeration refuses instead of approximating when the requested
work exceeds its budget.
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


class BudgetExceededError(RuntimeError):
    """Raised instead of returning an approximate answer when an exact
    enumeration would exceed its budget."""


class _Schedules(_LazyTuple):
    """Optimal schedules as a sequence of selection schedules, each held as
    its n rows of the one-step table ``graph._extremal_masks(e)`` in a (k, n)
    integer array; `masks` is every schedule's (n, e) masks as one (k, n, e)
    array."""

    def __init__(self, bounds: IntervalBounds, digits: np.ndarray):
        self._bounds = bounds
        self._digits = digits

    @property
    def masks(self) -> np.ndarray:
        return _extremal_masks(len(self._bounds.free_edges), self._digits)

    def __len__(self) -> int:
        return len(self._digits)

    def _entry(self, i):
        masks = _extremal_masks(len(self._bounds.free_edges), self._digits[i])
        return _selections_from_masks(self._bounds, masks)


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


def _prefix_masses(stack: np.ndarray, ql: np.ndarray, steps: int):
    """Depth first, in ascending prefix index, the mass `ql` pushed through
    each of the m^`steps` prefixes of `steps` >= 0 steps drawn from the
    (m, s, s) transition stack.  An explicit stack of (steps left, mass)
    pairs stands in for recursion, so any depth runs; the last step yields
    the rows of one push."""
    todo = [(steps, ql)]
    while todo:
        left, mass = todo.pop()
        if not left:
            yield mass
            continue
        pushed = np.einsum("x,mxy->my", mass, stack)
        if left == 1:
            yield from pushed
        else:
            # reversed, so the first row is popped first
            todo.extend((left - 1, row) for row in pushed[::-1])


def exact_bounds(
    bounds: IntervalBounds, q, f, n: int, budget: int = 2**24
) -> ExactBounds:
    """Exact minimum and maximum of the n-step expectation over extremal
    schedules, with every optimal schedule within 1e-12 of the optimum.

    One depth-first pass keeps each leaf block (the 2^e last steps of one
    prefix) that can hold an optimum of either sense, and both answers are
    read from those blocks.  Optimal schedules are listed in lexicographic
    order, step by step, of the selection order of ``graph._extremal_masks``,
    as read-only sequences that build a schedule's selections when it is
    read, so counting ties builds none.

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
    q, f = _checked_vectors(bounds, q=q, f=f)
    e = len(bounds.free_edges)
    _check_cap(e)
    _check_budget(
        e,
        n,
        budget,
        f"enumerating {n} steps over {e} free edges needs (2^{e})^{n} = {{count}} "
        f"evaluations, over the budget of {budget}",
    )
    if n == 0:
        value = float(q @ f)
        empty = _Schedules(bounds, np.zeros((1, 0), dtype=np.int32))
        return ExactBounds(value, value, empty, empty)

    table = _extremal_masks(e)
    stack = _transitions_from_masks(bounds, table)
    m = stack.shape[0]
    lo, hi = np.inf, -np.inf
    kept: list[tuple[int, np.ndarray]] = []  # (prefix index, leaf values), ascending

    def near(low, high) -> bool:
        """Whether a leaf block spanning [low, high] can hold an optimum of either sense."""
        return low <= lo + ARGOPT_ATOL or high >= hi - ARGOPT_ATOL

    # a leaf block is one prefix of n - 1 steps with the values of its m last steps
    for index, ql in enumerate(_prefix_masses(stack, q, n - 1)):
        values = np.einsum("x,mxy->my", ql, stack) @ f
        low, high = float(values.min()), float(values.max())
        if low < lo or high > hi:
            lo, hi = min(lo, low), max(hi, high)
            kept = [(i, v) for i, v in kept if near(v.min(), v.max())]
        if near(low, high):
            kept.append((index, values))

    # each kept prefix's n - 1 base-m digits, first step most significant,
    # read in Python integers, as a prefix index can pass 64 bits; a digit
    # is below m <= 2^EXTREMAL_CAP, so it fits 32 bits
    powers = [m**p for p in reversed(range(n - 1))]
    prefixes = np.array([[index // p % m for p in powers] for index, _ in kept], dtype=np.int32)

    def schedules(hit) -> _Schedules:
        # row-major, so in ascending prefix and then leaf index
        block, leaf = np.nonzero([hit(values) for _, values in kept])
        digits = np.empty((len(block), n), dtype=np.int32)
        digits[:, :-1] = prefixes[block]
        digits[:, -1] = leaf
        return _Schedules(bounds, digits)

    return ExactBounds(
        lo,
        hi,
        schedules(lambda values: values <= lo + ARGOPT_ATOL),
        schedules(lambda values: values >= hi - ARGOPT_ATOL),
    )
