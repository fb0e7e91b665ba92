"""Local descent over per-step endpoint choices, and multistart global search.

A schedule of weight functions is improved one step at a time: with all other
steps fixed, the best replacement for step k is the one-step minimizer for
the mass pushed forward to k and the payoff folded backward to k.  Sweeping
the step index until nothing improves yields a local optimum; multistart
repeats the descent from many random extremal schedules and keeps the best
fixed point found.

One kernel, `_descend_chunk`, runs every descent: it sweeps a chunk of up to
`_CHUNK` starts in lockstep through stacked products, and `local_optimize` is
a chunk of one.  Each start's arithmetic is bit for bit that of a descent on
its own, so no result depends on how the starts are chunked.
"""

from __future__ import annotations

import enum
import itertools
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
    _check_admissible,
    _check_integers,
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

    @property
    def sign(self) -> float:
        """1.0 for MIN, -1.0 for MAX: every problem is solved as the minimum
        of sign·value and reported as sign times that minimum."""
        return 1.0 if self is Sense.MIN else -1.0


class SweepOrder(enum.Enum):
    LEFT_TO_RIGHT = "left-to-right"
    RIGHT_TO_LEFT = "right-to-left"


@dataclass(frozen=True, eq=False)
class OptimizationProblem:
    """Bound the n-step expectation <q, T_w1 ... T_wn f> over admissible weights.

    `sense` takes a `Sense` or its value, "min" or "max"; anything else
    raises ValueError.
    """

    bounds: IntervalBounds
    q: np.ndarray
    f: np.ndarray
    n: int
    sense: Sense = Sense.MIN

    def __post_init__(self):
        q, f = _checked_vectors(self.bounds, self.q, self.f)
        _check_integers(n=self.n)
        if self.n < 1:
            raise ValueError("need at least one step")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "sense", Sense(self.sense))


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
    schedule's value.  Every step must be admissible for the problem's
    bounds (ValueError naming the step otherwise).
    """
    schedule = tuple(schedule)
    if len(schedule) != problem.n:
        raise ValueError(f"schedule has {len(schedule)} steps, problem wants {problem.n}")
    _check_integers(k=k)
    if not 0 <= k < problem.n:
        raise IndexError(f"step index {k} out of range for {problem.n} steps")
    bounds = problem.bounds
    _check_admissible(bounds, schedule)
    ql = problem.q
    for w in schedule[:k]:
        ql = forward_step(bounds, ql, w)
    sign = problem.sense.sign
    fr = sign * problem.f
    for w in reversed(schedule[k + 1 :]):
        fr = backward_step(bounds, w, fr)
    mask, _, value = _candidate(bounds, ql, fr)
    replacement = weight_from_selection(bounds, EdgeSelection.from_upper_mask(bounds, mask))
    return replacement, sign * float(value)


def _candidate(bounds, ql, fr):
    """Endpoint masks, transition matrices and values <ql, P fr> of the best
    steps between prefix masses `ql` and suffix payoffs `fr`, one per row of
    (..., s) stacks."""
    # the gradient kernel indexes its first axis, so it takes (s, ...) stacks
    mask = _gradient_upper_mask(bounds, (ql / bounds.marginal).T, fr.T).T
    mat = _transitions_from_masks(bounds, mask)
    return mask, mat, np.vecdot(ql, np.matmul(mat, fr[..., None])[..., 0])


#: Starts that `_descents` sweeps in lockstep.  At 20 states and 10 steps one
#: chunk's transition stack is 8 MB.
_CHUNK = 256


def _descend_chunk(problem, masks, mats, pinned, order) -> list[_Descent]:
    """Sweep single-step replacements on a chunk of starts in lockstep, until
    each start has made a full pass that changes nothing; one `_Descent` per
    start, in chunk order.

    Takes (B, n, e) endpoint masks, the (B, n, s, s) transition matrices of
    the start schedules and a (B, n) flag per step, False for a step not yet
    pinned to its mask (an interior start step), and consumes all three.
    Each start minimizes <q, P_1 ... P_n sign·f> and accepts a replacement
    only when it gains more than TOL·max(1, |value|); a step not yet pinned
    takes its candidate on first visit, better or not: the objective is
    linear in one step's weights, so in exact arithmetic the endpoint
    candidate is never worse.  Step k reads the prefix mass before it and the
    suffix payoff after it, from (B, n + 1, s) stacks.  The side the sweep
    walks away from is rebuilt at the start of each sweep; the side it walks
    toward is extended after each step, so neither is stale when read.  A
    start leaves the active set after a sweep with no change.  Every product
    is a stacked np.matmul or np.vecdot, bit for bit the per-start `@`, so a
    start's result does not depend on the chunk it runs in.  Results are in
    the problem's own sense.
    """
    bounds = problem.bounds
    q = problem.q
    sign = problem.sense.sign
    f = sign * problem.f
    count, n = pinned.shape
    prefix = np.empty((count, n + 1, bounds.size))
    suffix = np.empty_like(prefix)
    prefix[:, 0] = q
    suffix[:, n] = f

    def push(k):
        prefix[:, k + 1] = np.matmul(prefix[:, k, None], mats[:, k])[:, 0]

    def pull(k):
        suffix[:, k] = np.matmul(mats[:, k], suffix[:, k + 1, :, None])[..., 0]

    if order is SweepOrder.LEFT_TO_RIGHT:
        steps, rebuild, advance = range(n), pull, push
    elif order is SweepOrder.RIGHT_TO_LEFT:
        steps, rebuild, advance = range(n - 1, -1, -1), push, pull
    else:
        raise ValueError(f"order must be a SweepOrder, got {order!r}")

    for k in reversed(range(n)):
        pull(k)
    value = np.vecdot(q, suffix[:, 0])
    traces = [[v] for v in value.tolist()]
    active = np.arange(count)
    out = [None] * count
    sweeps = 0

    while active.size:
        sweeps += 1
        changed = np.zeros(active.size, dtype=bool)
        for k in reversed(steps):
            rebuild(k)
        for k in steps:
            mask, mat, v_new = _candidate(bounds, prefix[:, k], suffix[:, k + 1])
            better = v_new < value - TOL * np.maximum(1.0, np.abs(value))
            take = better | ~pinned[:, k]
            np.copyto(masks[:, k], mask, where=take[:, None])
            np.copyto(mats[:, k], mat, where=take[:, None, None])
            np.copyto(value, v_new, where=take)
            pinned[:, k] = True
            changed |= take
            for i in better.nonzero()[0]:
                traces[active[i]].append(float(v_new[i]))
            advance(k)
        done = (~changed).nonzero()[0]
        # after a pass with no change, in either order, suffix[:, 0] is the
        # fold of the final schedule from f, one pull per step
        final = sign * np.vecdot(q, suffix[done, 0])
        for i, final_value in zip(done, final.tolist()):
            trace = tuple(sign * v for v in traces[active[i]])
            out[active[i]] = _Descent(masks[i].copy(), final_value, trace[0], sweeps, len(trace) - 1, trace)
        if done.size:
            # the transition stack, the one large array, is compacted in
            # place a few rows at a time, so no second stack is ever held;
            # each kept row moves down, never onto a row still to be read
            keep = changed.nonzero()[0]
            for lo in range(0, keep.size, 16):
                rows = keep[lo : lo + 16]
                mats[lo : lo + rows.size] = mats[rows]
            mats = mats[: keep.size]
            active, value, masks, pinned, prefix, suffix = (
                a[changed] for a in (active, value, masks, pinned, prefix, suffix)
            )
    return out


def local_optimize(
    problem: OptimizationProblem,
    start: Sequence[WeightFunction],
    order: SweepOrder = SweepOrder.LEFT_TO_RIGHT,
) -> LocalOptimum:
    """Run replacement sweeps from `start` until a fixed point is reached.

    Every start step must be admissible for the problem's bounds (ValueError
    naming the step otherwise).  A replacement is accepted only when it beats
    the current objective by more than TOL·max(1, |value|), which rules out
    cycling among equal extremal schedules and forces termination.  An
    interior (non-extremal) start step is not yet pinned: it takes its
    one-step optimum on first visit, better or not, so the result is always a
    schedule of extremal weight functions.  The one-step optimum puts a
    zero-gradient edge at its upper endpoint, and a MAX problem is solved as
    the MIN problem of -f.  The descent is the multistart kernel run on a
    chunk of one start.
    """
    start = tuple(start)
    if len(start) != problem.n:
        raise ValueError(f"start has {len(start)} steps, problem wants {problem.n}")
    bounds = problem.bounds
    _check_admissible(bounds, start)
    selections = [selection_of(bounds, w) for w in start]
    masks = np.zeros((1, problem.n, len(bounds.free_edges)), dtype=bool)
    for k, sel in enumerate(selections):
        if sel is not None:
            masks[0, k] = sel.upper_mask()
    pinned = np.array([[sel is not None for sel in selections]])
    mats = np.array([[transition_matrix(bounds, w) for w in start]])
    (run,) = _descend_chunk(problem, masks, mats, pinned, order)
    return _local_optimum(bounds, run)


def _random_upper_masks(bounds: IntervalBounds, n: int, rng: np.random.Generator) -> np.ndarray:
    """Endpoint masks of n random extremal weight functions.

    Each step draws two uniform random state rankings, h then f, and takes
    the sign of the edge gradient they induce, which covers exactly the
    selections a one-step optimization could ever produce.
    """
    s = bounds.size
    # one call for the 2n rankings: the same draws, in the same order, as 2n
    # rng.permutation(s) calls, leaving the stream in the same state
    ranks = rng.permuted(np.broadcast_to(np.arange(s, dtype=float), (2 * n, s)), axis=1).reshape(n, 2, s)
    # one kernel call for all steps; it indexes its first axis, so it takes
    # (s, n) rankings and returns (e, n) masks
    return _gradient_upper_mask(bounds, ranks[:, 0].T, ranks[:, 1].T).T


def random_extremal_schedule(
    bounds: IntervalBounds, n: int, seed: int | np.random.Generator
) -> Schedule:
    """A schedule of n independently sampled random extremal weight functions.

    Deterministic for an integer seed; pass a Generator to draw from an
    existing stream.  A negative n raises ValueError.
    """
    _check_integers(n=n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not isinstance(seed, np.random.Generator):
        _check_integers(seed=seed)
        seed = rngmod.substream(seed)
    masks = _random_upper_masks(bounds, n, seed)
    return tuple(weight_from_selection(bounds, sel) for sel in _selections_from_masks(bounds, masks))


def _census(sense: Sense, *streams) -> list[tuple[_Descent, list[int]]]:
    """The distinct fixed points of one or more descent streams, best first.

    Each entry is the first run to reach a distinct mask array and its hit
    count in each stream.  Entries are ranked by value in `sense`, ties by
    mask bytes, which sort like the per-step choices (LOWER first, first step
    most significant).  A value depends only on the masks, since `_descend_chunk`
    refolds it from them, so the first run stands for every run of its key.
    """
    census: dict[bytes, tuple[_Descent, list[int]]] = {}
    for column, runs in enumerate(streams):
        for run in runs:
            census.setdefault(run.masks.tobytes(), (run, [0] * len(streams)))[1][column] += 1
    ranked = sorted(census.items(), key=lambda item: (sense.sign * item[1][0].value, item[0]))
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
    """Lazily, in start order, the `_Descent` reached from each (n, e) start
    mask array; the starts are descended `_CHUNK` at a time."""
    starts = iter(start_masks)
    while chunk := list(itertools.islice(starts, _CHUNK)):
        masks = np.array(chunk, dtype=bool)
        mats = _transitions_from_masks(problem.bounds, masks)
        yield from _descend_chunk(problem, masks, mats, np.ones(masks.shape[:2], dtype=bool), order)


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
    _check_integers(starts=starts, seed=seed)
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
