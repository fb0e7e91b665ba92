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


class _ArgTracker:
    """Running optimum plus every schedule within ARGOPT_ATOL of it."""

    def __init__(self, sign: float):
        self.sign = sign  # +1 tracks a minimum, -1 a maximum
        self.best = np.inf
        self.entries: list[tuple[float, tuple[int, ...]]] = []

    def offer(self, values: np.ndarray, prefix: tuple[int, ...]) -> None:
        vals = self.sign * values
        low = float(vals.min())
        if low < self.best:
            self.best = low
            self.entries = [(v, p) for v, p in self.entries if v <= self.best + ARGOPT_ATOL]
        for k in np.flatnonzero(vals <= self.best + ARGOPT_ATOL):
            self.entries.append((float(vals[k]), prefix + (int(k),)))

    def result(self) -> tuple[float, tuple[tuple[int, ...], ...]]:
        kept = sorted(p for v, p in self.entries if v <= self.best + ARGOPT_ATOL)
        return self.sign * self.best, tuple(kept)


def exact_bounds(
    bounds: IntervalBounds, q, f, n: int, budget: int = 2**24
) -> ExactBounds:
    """Exact minimum and maximum of the n-step expectation over extremal
    schedules, with every optimal schedule within 1e-12 of the optimum.

    Optimal schedules are listed in lexicographic order, step by step, of the
    selection order of ``graph._extremal_masks``.

    Refuses (BudgetExceededError) when the (2^e)^n schedule evaluations would
    exceed `budget`, or when 2^e extremal functions exceed 2^`EXTREMAL_CAP`.
    """
    if n < 0:
        raise ValueError("step count must be nonnegative")
    q = np.asarray(q, dtype=float)
    f = np.asarray(f, dtype=float)
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
    mins = _ArgTracker(+1.0)
    maxs = _ArgTracker(-1.0)

    def explore(depth: int, ql: np.ndarray, prefix: tuple[int, ...]) -> None:
        pushed = np.einsum("x,mxy->my", ql, stack)
        if depth == n - 1:
            values = pushed @ f
            mins.offer(values, prefix)
            maxs.offer(values, prefix)
        else:
            for k in range(m):
                explore(depth + 1, pushed[k], prefix + (k,))

    explore(0, q, ())

    minimum, argmin = mins.result()
    maximum, argmax = maxs.result()
    return ExactBounds(
        minimum,
        maximum,
        tuple(_selections_from_masks(bounds, table[list(p)]) for p in argmin),
        tuple(_selections_from_masks(bounds, table[list(p)]) for p in argmax),
    )
