"""Local descent over per-step endpoint choices, and multistart global search.

A schedule of weight functions is improved one step at a time: with all other
steps fixed, the best replacement for step k is the one-step minimizer for
the mass pushed forward to k and the payoff folded backward to k.  Sweeping
the step index until nothing improves yields a local optimum; multistart
repeats the descent from many random extremal schedules and keeps the best
fixed point found.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import rng as rngmod
from .chain import Schedule, backward_step, forward_step, transition_matrix
from .graph import (
    TOL,
    EdgeSelection,
    IntervalBounds,
    WeightFunction,
    _checked_vectors,
    _extremal_masks,
    _gradient_upper_mask,
    _selections_from_masks,
    _transitions_from_masks,
    selection_of,
    weight_from_selection,
)
from .oracle import BudgetExceededError


class Sense(enum.Enum):
    MIN = "min"
    MAX = "max"


class SweepOrder(enum.Enum):
    LEFT_TO_RIGHT = "left-to-right"
    RIGHT_TO_LEFT = "right-to-left"


@dataclass(frozen=True, eq=False)
class OptimizationProblem:
    """Bound the n-step expectation <q, T_w1 ... T_wn f> over admissible weights."""

    bounds: IntervalBounds
    q: np.ndarray
    f: np.ndarray
    n: int
    sense: Sense = Sense.MIN

    def __post_init__(self):
        q, f = _checked_vectors(self.bounds, self.q, self.f)
        if self.n < 1:
            raise ValueError("need at least one step")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "f", f)


@dataclass(frozen=True)
class LocalOptimum:
    """A sweep fixed point: no single-step replacement improves the objective.

    `trace` holds the objective at the start and after each accepted
    replacement, in the problem's own sense (so it decreases for MIN runs and
    increases for MAX runs).
    """

    selections: tuple[EdgeSelection, ...]
    value: float
    start_value: float
    sweeps: int
    improvements: int
    trace: tuple[float, ...]

    def schedule(self, bounds: IntervalBounds) -> Schedule:
        """Materialize the optimized weight functions."""
        return tuple(weight_from_selection(bounds, sel) for sel in self.selections)


class _Descent(NamedTuple):
    """A fixed point as the engine keeps it: (n, e) endpoint masks, then the rest of `LocalOptimum`."""

    masks: np.ndarray
    value: float
    start_value: float
    sweeps: int
    improvements: int
    trace: tuple[float, ...]


def _local_optimum(bounds: IntervalBounds, run: _Descent) -> LocalOptimum:
    """The reported form of a descent, its masks turned into selections."""
    return LocalOptimum(_selections_from_masks(bounds, run.masks), *run[1:])


#: Absolute gap below which two extremum values count as one distinct value.
DISTINCT_ATOL = 1e-9

#: Most starts `multistart_exhaustive` descends from.
EXHAUSTIVE_BUDGET = 2**16


@dataclass(frozen=True)
class MultistartReport:
    """Aggregate of many local descents: the best fixed point plus a census
    of every distinct one, keyed by its canonical selection schedule."""

    best: LocalOptimum
    unique_extrema: tuple[tuple[tuple[EdgeSelection, ...], float, int], ...]
    starts: int
    seed: int | None

    def distinct_values(self) -> tuple[float, ...]:
        """Extremum values clustered at `DISTINCT_ATOL` (distinct selections can tie)."""
        values = sorted(v for _, v, _ in self.unique_extrema)
        out: list[float] = []
        for v in values:
            if not out or v - out[-1] > DISTINCT_ATOL:
                out.append(v)
        return tuple(out)


def improve_at(
    problem: OptimizationProblem, schedule: Sequence[WeightFunction], k: int
) -> tuple[WeightFunction, float]:
    """Best single replacement for step k, all other steps fixed.

    Pushes the initial mass forward through steps before k and folds the
    payoff backward through steps after k, then picks the one-step extremal
    optimizer between them.  Returns the replacement weight function and the
    objective value of the schedule with step k replaced, in the problem's
    sense.  By construction the returned value never loses to the current
    schedule's value.
    """
    schedule = tuple(schedule)
    if len(schedule) != problem.n:
        raise ValueError(f"schedule has {len(schedule)} steps, problem wants {problem.n}")
    if not 0 <= k < problem.n:
        raise IndexError(f"step index {k} out of range for {problem.n} steps")
    bounds = problem.bounds
    ql = problem.q
    for w in schedule[:k]:
        ql = forward_step(bounds, ql, w)
    fr = problem.f if problem.sense is Sense.MIN else -problem.f
    for w in reversed(schedule[k + 1 :]):
        fr = backward_step(bounds, w, fr)
    mask, _, value = _candidate(bounds, ql, fr)
    replacement = weight_from_selection(bounds, EdgeSelection.from_upper_mask(bounds, mask))
    return replacement, (value if problem.sense is Sense.MIN else -value)


def _candidate(bounds, ql, fr):
    """Endpoint mask, transition matrix and value <ql, P fr> of the best step
    between prefix mass `ql` and suffix payoff `fr`."""
    mask = _gradient_upper_mask(bounds, ql / bounds.marginal, fr)
    mat = _transitions_from_masks(bounds, mask)
    return mask, mat, float(ql @ (mat @ fr))


def _descend(problem, mats, masks, order) -> _Descent:
    """Sweep single-step replacements until a full pass changes nothing.

    Minimizes <q, P_1 ... P_n f>, with f negated for MAX problems, and
    accepts a replacement only when it gains more than TOL·max(1, |value|).
    `mats` (transition matrices) and `masks` (endpoint masks, None while a
    step is interior) are mutated in place.  Step k reads the prefix mass
    before it and the suffix payoff after it.  The side the sweep walks away
    from is rebuilt at the start of each sweep; the side it walks toward is
    extended after each step, so neither is stale when read.  The result is
    in the problem's own sense.
    """
    bounds = problem.bounds
    q = problem.q
    f = problem.f if problem.sense is Sense.MIN else -problem.f
    n = len(mats)
    prefix = [q] * (n + 1)
    suffix = [f] * (n + 1)

    def push(k):
        prefix[k + 1] = prefix[k] @ mats[k]

    def pull(k):
        suffix[k] = mats[k] @ suffix[k + 1]

    if order is SweepOrder.LEFT_TO_RIGHT:
        steps, rebuild, advance = range(n), pull, push
    elif order is SweepOrder.RIGHT_TO_LEFT:
        steps, rebuild, advance = range(n - 1, -1, -1), push, pull
    else:
        raise ValueError(f"order must be a SweepOrder, got {order!r}")

    def fold_value():
        g = f
        for p in reversed(mats):
            g = p @ g
        return float(q @ g)

    value = fold_value()
    trace = [value]
    sweeps = 0
    improvements = 0

    while True:
        sweeps += 1
        changed = False
        for k in reversed(steps):
            rebuild(k)
        for k in steps:
            ql, fr = prefix[k], suffix[k + 1]
            mask, mat, v_new = _candidate(bounds, ql, fr)
            threshold = TOL * max(1.0, abs(value))
            if v_new < value - threshold:
                mats[k], masks[k] = mat, mask
                value = v_new
                trace.append(value)
                improvements += 1
                changed = True
            elif masks[k] is None and v_new <= value + threshold:
                # pin an interior step to its equal-value extremal form
                mats[k], masks[k] = mat, mask
                value = v_new
                changed = True
            advance(k)
        if not changed:
            break

    value = fold_value()
    for k, mask in enumerate(masks):
        if mask is None:
            raise RuntimeError(f"step {k} could not be pinned to an extremal function")
    if problem.sense is Sense.MAX:
        value = -value
        trace = [-v for v in trace]
    return _Descent(np.array(masks), value, trace[0], sweeps, improvements, tuple(trace))


def local_optimize(
    problem: OptimizationProblem,
    start: Sequence[WeightFunction],
    order: SweepOrder = SweepOrder.LEFT_TO_RIGHT,
) -> LocalOptimum:
    """Run replacement sweeps from `start` until a fixed point is reached.

    A replacement is accepted only when it beats the current objective by
    more than TOL·max(1, |value|), which rules out cycling among equal
    extremal schedules and forces termination.  Interior (non-extremal) start
    steps are pinned to an extremal function of no worse value on first
    visit, so the result is always a schedule of extremal weight functions.
    """
    start = tuple(start)
    if len(start) != problem.n:
        raise ValueError(f"start has {len(start)} steps, problem wants {problem.n}")
    bounds = problem.bounds
    mats = [transition_matrix(bounds, w) for w in start]
    masks = []
    for w in start:
        sel = selection_of(bounds, w)
        masks.append(None if sel is None else sel.upper_mask())
    return _local_optimum(bounds, _descend(problem, mats, masks, order))


def _random_upper_masks(bounds: IntervalBounds, n: int, rng: np.random.Generator) -> np.ndarray:
    """Endpoint masks of n random extremal weight functions.

    Each step draws two uniform random state rankings and takes the sign of
    the edge gradient they induce, which covers exactly the selections a
    one-step optimization could ever produce.
    """
    masks = np.empty((n, len(bounds.free_edges)), dtype=bool)
    s = bounds.size
    for t in range(n):
        h = rng.permutation(s).astype(float)
        f = rng.permutation(s).astype(float)
        masks[t] = _gradient_upper_mask(bounds, h, f)
    return masks


def random_extremal_schedule(
    bounds: IntervalBounds, n: int, seed: int | np.random.Generator
) -> Schedule:
    """A schedule of n independently sampled random extremal weight functions.

    Deterministic for an integer seed; pass a Generator to draw from an
    existing stream.
    """
    rng = seed if isinstance(seed, np.random.Generator) else rngmod.substream(seed)
    masks = _random_upper_masks(bounds, n, rng)
    return tuple(weight_from_selection(bounds, sel) for sel in _selections_from_masks(bounds, masks))


def _census(sense: Sense, *streams) -> list[tuple[_Descent, list[int]]]:
    """The distinct fixed points of one or more descent streams, best first.

    Each entry is the first run to reach a distinct mask array and its hit
    count in each stream.  Entries are ranked by value in `sense`, ties by
    mask bytes, which sort like the per-step choices (LOWER first, first step
    most significant).  A value depends only on the masks, since `_descend`
    refolds it from them, so the first run stands for every run of its key.
    """
    census: dict[bytes, tuple[_Descent, list[int]]] = {}
    for column, runs in enumerate(streams):
        for run in runs:
            census.setdefault(run.masks.tobytes(), (run, [0] * len(streams)))[1][column] += 1
    sign = -1.0 if sense is Sense.MAX else 1.0
    ranked = sorted(census.items(), key=lambda item: (sign * item[1][0].value, item[0]))
    return [entry for _, entry in ranked]


def _aggregate(problem, runs, starts, seed) -> MultistartReport:
    """The census of one descent stream as a report; `best` is the first run
    to reach the best key.  Selections are built once per distinct fixed point."""
    census = _census(problem.sense, runs)
    unique = tuple(
        (_selections_from_masks(problem.bounds, run.masks), run.value, hits) for run, (hits,) in census
    )
    best = LocalOptimum(unique[0][0], *census[0][0][1:])
    return MultistartReport(best, unique, starts, seed)


def _random_starts(problem, starts, seed):
    """Lazily, the (n, e) endpoint masks of `starts` random extremal
    schedules.  Start `idx` draws from substream (seed, idx), so the starts do
    not depend on how, or in what order, they are descended."""
    for idx in range(starts):
        yield _random_upper_masks(problem.bounds, problem.n, rngmod.substream(seed, idx))


def _descents(problem, start_masks, order):
    """Lazily, the `_Descent` reached from each (n, e) start mask array."""
    for masks in start_masks:
        mats = list(_transitions_from_masks(problem.bounds, masks))
        yield _descend(problem, mats, list(masks), order)


def multistart(
    problem: OptimizationProblem,
    starts: int,
    seed: int,
    order: SweepOrder = SweepOrder.LEFT_TO_RIGHT,
) -> MultistartReport:
    """Local descent from `starts` random extremal schedules.

    Each start draws from its own substream keyed by (seed, start index), so
    the report is reproducible and independent of how the runs are executed.
    """
    if starts < 1:
        raise ValueError("need at least one start")
    runs = _descents(problem, _random_starts(problem, starts, seed), order)
    return _aggregate(problem, runs, starts, seed)


def multistart_exhaustive(problem: OptimizationProblem) -> MultistartReport:
    """Left-to-right local descent from every extremal schedule, in
    lexicographic order (the selection order of ``graph._extremal_masks``,
    first step most significant).

    Because each global optimum is itself a start and descent never worsens a
    start, the best fixed point equals the exact global optimum; useful as a
    cross-check against the enumeration oracle on small instances.  Refuses
    (BudgetExceededError) beyond `EXHAUSTIVE_BUDGET` starts.
    """
    e = len(problem.bounds.free_edges)
    total = (1 << e) ** problem.n
    if total > EXHAUSTIVE_BUDGET:
        raise BudgetExceededError(
            f"exhaustive multistart over {e} free edges and {problem.n} steps needs "
            f"{total} starts, over the budget of {EXHAUSTIVE_BUDGET}"
        )
    starts = _extremal_masks(e * problem.n).reshape(total, problem.n, e)
    return _aggregate(problem, _descents(problem, starts, SweepOrder.LEFT_TO_RIGHT), total, None)
