"""Local descent over per-step endpoint choices, and multistart global search.

A schedule of weight functions is improved one step at a time: with all other
steps fixed, the best replacement for step k is the one-step minimizer for
the mass pushed forward to k and the payoff folded backward to k.  Sweeping
the step index until nothing improves yields a local optimum; multistart
repeats the descent from many random extremal schedules and keeps the best
fixed point found.

A batch of starts is one (S, n, e) array of endpoint masks, S starts of n
steps over e free edges: `multistart` draws all of its starts into one (each
start's rankings from its own substream, the masks of `_CHUNK` starts at a
time by one gradient call per step), and `multistart_exhaustive` passes its
table of every schedule.  `_descents` slices such an array `_CHUNK` rows at
a time, and one kernel, `_descend_chunk`, runs every descent: it sweeps a
chunk in lockstep through stacked products, and `local_optimize` is a chunk
of one.  Each row reads its own sign, so `_joint_descents` descends the
starts of both senses of one problem in one run.  Each start's draws and
arithmetic are bit for bit those of a start on its own, so no result
depends on how the starts are batched.

Results stay arrays until they are reported: the kernel returns one `_Runs`
block per chunk, with a row per start and the accepted values as (row, value)
events, and `_census` finds the distinct fixed points by one `np.unique` over
the mask rows.  A census entry's selections are built on first read, and a
trace only for a run that is reported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .chain import Schedule
from .graph import (
    TOL,
    EdgeSelection,
    IntervalBounds,
    WeightFunction,
    _LazyTuple,
    _check_integers,
    _check_seed,
    _checked_vectors,
    _checked_weights,
    _extremal_masks,
    _gradient_upper_mask,
    _selections_from_masks,
    _transitions_from_masks,
    _upper_masks,
    _weight_functions,
    weight_from_selection,
)
from .oracle import _check_budget


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
        q, f = _checked_vectors(self.bounds, q=self.q, f=self.f)
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


class _Runs(NamedTuple):
    """Descents as the engine keeps them, one row per start: (S, n, e)
    endpoint masks, final and start values, sweeps and accepted improvements,
    and every accepted value as a (row, value) event, in the order accepted.
    Values are in each row's own sense."""

    masks: np.ndarray
    value: np.ndarray
    start_value: np.ndarray
    sweeps: np.ndarray
    improvements: np.ndarray
    event_rows: np.ndarray
    event_values: np.ndarray

    def rows(self, lo: int, hi: int) -> "_Runs":
        """Rows lo to hi as a block of their own, their events renumbered
        from 0; the whole block is itself."""
        if (lo, hi) == (0, len(self.masks)):
            return self
        mine = (self.event_rows >= lo) & (self.event_rows < hi)
        per_row = (column[lo:hi] for column in self[:5])
        return _Runs(*per_row, self.event_rows[mine] - lo, self.event_values[mine])

    def optimum(self, i, selections) -> LocalOptimum:
        """The reported form of row i, with its masks given as `selections`;
        its trace is built here."""
        trace = (float(self.start_value[i]), *self.event_values[self.event_rows == i].tolist())
        return LocalOptimum(
            selections, float(self.value[i]), trace[0], int(self.sweeps[i]), int(self.improvements[i]), trace
        )


class _Extrema(_LazyTuple):
    """A census as a read-only sequence of (selections, value, hits)
    entries, best first.  It holds the entries' (U, n, e) `masks`, `values`
    and `hits` as plain attributes, and builds an entry's selections on
    first read and keeps them."""

    def __init__(self, bounds: IntervalBounds, masks: np.ndarray, values: list[float], hits: list[int]):
        self._bounds = bounds
        self.masks = masks
        self._selections: list = [None] * len(masks)
        self.values = values
        self.hits = hits

    def __len__(self) -> int:
        return len(self.masks)

    def _entry(self, i):
        sels = self._selections[i]
        if sels is None:
            sels = self._selections[i] = _selections_from_masks(self._bounds, self.masks[i])
        return sels, self.values[i], self.hits[i]


#: Absolute gap below which two extremum values count as one distinct value.
DISTINCT_ATOL = 1e-9

#: Most starts `multistart_exhaustive` descends from.
EXHAUSTIVE_BUDGET = 2**16


@dataclass(frozen=True)
class MultistartReport:
    """Aggregate of many local descents: the best fixed point plus a census
    of every distinct one, keyed by its canonical selection schedule.
    `unique_extrema` builds an entry's selections when it is first read;
    `best` shares entry 0's."""

    best: LocalOptimum
    unique_extrema: _Extrema
    starts: int
    seed: int | None

    def distinct_values(self) -> tuple[float, ...]:
        """Extremum values clustered at `DISTINCT_ATOL` (distinct selections can tie)."""
        out: list[float] = []
        for v in sorted(self.unique_extrema.values):
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
    mats = _checked_schedule(problem, tuple(schedule), "schedule", k) / problem.bounds.marginal[:, None]
    ql = problem.q
    for mat in mats[:k]:
        ql = ql @ mat
    sign = problem.sense.sign
    fr = sign * problem.f
    for mat in reversed(mats[k + 1 :]):
        fr = mat @ fr
    mask, _, value = _candidate(problem.bounds, ql, fr)
    return _weight_functions(problem.bounds, mask[None])[0], sign * float(value)


def _checked_schedule(problem, schedule, name, k=0) -> np.ndarray:
    """The (n, s, s) weight matrices of `schedule`, a tuple of weight
    functions, loops on the diagonal, after the checks `improve_at` and
    `local_optimize` share, in this order: it has the problem's n steps (a
    ValueError calls it `name`), step index `k` is an integer in range (an
    IndexError when out of range; the default 0 always is, as n >= 1), and
    every step is admissible for the problem's bounds (a ValueError names
    the step).  Each caller divides by the marginals once."""
    if len(schedule) != problem.n:
        raise ValueError(f"{name} has {len(schedule)} steps, problem wants {problem.n}")
    _check_integers(k=k)
    if not 0 <= k < problem.n:
        raise IndexError(f"step index {k} out of range for {problem.n} steps")
    return _checked_weights(problem.bounds, schedule)


def _candidate(bounds, ql, fr):
    """Endpoint masks, transition matrices and values <ql, P fr> of the best
    steps between prefix masses `ql` and suffix payoffs `fr`, one per row of
    (..., s) stacks."""
    # the gradient kernel indexes its first axis, so it takes (s, ...) stacks
    mask = _gradient_upper_mask(bounds, (ql / bounds.marginal).T, fr.T).T
    mat = _transitions_from_masks(bounds, mask)
    return mask, mat, np.vecdot(ql, np.matmul(mat, fr[..., None])[..., 0])


#: Starts that `_random_starts` draws, and `_descents` sweeps in lockstep, at
#: a time.  At 20 states and 10 steps one chunk's transition stack is 8 MB.
_CHUNK = 256


def _descend_chunk(problem, masks, mats, pinned, sign, order) -> _Runs:
    """Sweep single-step replacements on a chunk of starts in lockstep, until
    each start has made a full pass that changes nothing; one `_Runs` block
    for the chunk, a row per start, in chunk order.

    Takes (B, n, e) endpoint masks, the (B, n, s, s) transition matrices of
    the start schedules and a (B, n) flag per step, False for a step not yet
    pinned to its mask (an interior start step), and consumes all three; and
    a (B,) sign per row, 1.0 for MIN and -1.0 for MAX, so a chunk may mix the
    senses of one (bounds, q, f, n).  Each start minimizes
    <q, P_1 ... P_n sign·f> with its own sign and accepts a replacement
    only when it gains more than TOL·max(1, |value|); a step not yet pinned
    takes its candidate on first visit, better or not: the objective is
    linear in one step's weights, so in exact arithmetic the endpoint
    candidate is never worse.  Step k reads the prefix mass before it and the
    suffix payoff after it, from (B, n + 1, s) stacks.  The side the sweep
    walks away from is rebuilt at the start of each sweep; the side it walks
    toward is extended after each step, so neither is stale when read.  A
    start leaves the active set after a sweep with no change.  Every product
    is a stacked np.matmul or np.vecdot, bit for bit the per-start `@`, so a
    start's result does not depend on the chunk it runs in; multiplying by
    a sign of ±1 is exact, so neither does it depend on the senses of the
    other rows.  Results are in each row's own sense.  The block's masks are
    the given `masks` array, each row overwritten by its fixed point when its
    start leaves.
    """
    bounds = problem.bounds
    q = problem.q
    count, n = pinned.shape
    prefix = np.empty((count, n + 1, bounds.size))
    suffix = np.empty_like(prefix)
    prefix[:, 0] = q
    suffix[:, n] = sign[:, None] * problem.f

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
    start_value = sign * value
    out_masks, out_value, out_sweeps = masks, np.empty(count), np.empty(count, dtype=int)
    event_rows, event_values = [], []
    active = np.arange(count)
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
            event_rows.append(active[better])
            event_values.append(v_new[better])
            advance(k)
        done = ~changed
        # after a pass with no change, in either order, suffix[:, 0] is the
        # fold of the final schedule from f, one pull per step; until the
        # first rows leave, `masks` is `out_masks` itself
        left = active[done]
        out_masks[left] = masks[done]
        out_value[left] = sign[left] * np.vecdot(q, suffix[done, 0])
        out_sweeps[left] = sweeps
        if left.size:
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
    event_rows = np.concatenate(event_rows)
    improvements = np.bincount(event_rows, minlength=count)
    event_values = sign[event_rows] * np.concatenate(event_values)
    return _Runs(out_masks, out_value, start_value, out_sweeps, improvements, event_rows, event_values)


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
    weights = _checked_schedule(problem, tuple(start), "start")
    # an interior step is not pinned: it takes its candidate on first visit,
    # so its mask is never read
    masks, pinned = _upper_masks(problem.bounds, weights)
    weights /= problem.bounds.marginal[:, None]
    sign = np.array([problem.sense.sign])
    runs = _descend_chunk(problem, masks[None], weights[None], pinned[None], sign, order)
    return runs.optimum(0, _selections_from_masks(problem.bounds, runs.masks[0]))


def _draw_upper_masks(bounds: IntervalBounds, n: int, rngs) -> np.ndarray:
    """Endpoint masks of n random extremal weight functions from each
    generator in `rngs`, as one (S, n, e) array with a row per generator.

    Each generator draws 2n uniform random state rankings, h then f for each
    step, and a step takes the sign of the edge gradient they induce, which
    covers exactly the selections a one-step optimization could ever
    produce.  The rankings are drawn per generator and stacked as (S, n, 2, s);
    one gradient call per step turns the rankings of all rows into masks.
    """
    s = bounds.size
    # one call for a generator's 2n rankings: the same draws, in the same
    # order, as 2n rng.permutation(s) calls, leaving the stream in the same state
    base = np.broadcast_to(np.arange(s, dtype=float), (2 * n, s))
    ranks = [rng.permuted(base, axis=1) for rng in rngs]
    # rebinding frees the per-generator arrays before the gradient loop
    ranks = np.reshape(ranks, (len(ranks), n, 2, s))
    masks = np.empty((len(ranks), n, len(bounds.free_edges)), dtype=bool)
    for t in range(n):
        # the gradient kernel indexes its first axis, so it takes (s, S)
        # rankings and returns (e, S) masks
        masks[:, t] = _gradient_upper_mask(bounds, ranks[:, t, 0].T, ranks[:, t, 1].T).T
    return masks


def random_extremal_schedule(
    bounds: IntervalBounds, n: int, seed: int | np.random.Generator
) -> Schedule:
    """A schedule of n independently sampled random extremal weight functions.

    Deterministic for an integer seed; pass a Generator to draw from an
    existing stream.  A negative n or integer seed raises ValueError.
    """
    _check_integers(n=n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not isinstance(seed, np.random.Generator):
        _check_seed(seed)
        seed = rngmod.substream(seed)
    return _weight_functions(bounds, _draw_upper_masks(bounds, n, [seed])[0])


def _census(sense: Sense, *streams: _Runs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct fixed points of one or more `_Runs` streams, best first,
    as three arrays: the index of the first run to reach each, counting
    through the streams in order, its value, and its hits in each stream,
    (U, len(streams)).

    Entries are ranked by value in `sense`, ties by mask bytes, which sort
    like the per-step choices (LOWER first, first step most significant).
    A value depends only on the masks, since `_descend_chunk` refolds it
    from them, so the first run stands for every run of its key.
    """
    keys = np.concatenate([_mask_keys(runs.masks) for runs in streams])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    ends = np.cumsum([0, *(len(runs.masks) for runs in streams)])
    hits = np.stack([np.bincount(inverse[lo:hi], minlength=len(first)) for lo, hi in zip(ends, ends[1:])], 1)
    value = np.concatenate([runs.value for runs in streams])[first]
    rank = np.argsort(sense.sign * value, kind="stable")
    return first[rank], value[rank], hits[rank]


def _mask_keys(masks: np.ndarray) -> np.ndarray:
    """One opaque key per (n, e) row of `masks` that compares like its C-order bytes."""
    rows = np.ascontiguousarray(masks).reshape(len(masks), -1)
    if not rows.shape[1]:
        # a schedule over no free edges has no bytes: every run reaches the
        # one empty schedule
        rows = np.zeros((len(rows), 1), dtype=bool)
    return rows.view(np.dtype((np.void, rows.shape[1])))[:, 0]


def _aggregate(problem, starts, order, seed) -> MultistartReport:
    """Descend every row of `starts`, an (S, n, e) endpoint mask array, in
    `order`, and report the census of the fixed points reached; `best` is the
    first run to reach the best key.  Only `best`'s selections are built
    here, the other entries' on first read."""
    runs = _descents(problem, starts, order)
    first, value, hits = _census(problem.sense, runs)
    unique = _Extrema(problem.bounds, runs.masks[first], value.tolist(), hits[:, 0].tolist())
    return MultistartReport(runs.optimum(first[0], unique[0][0]), unique, len(starts), seed)


def _random_starts(problem, starts, seed) -> np.ndarray:
    """The endpoint masks of `starts` random extremal schedules, as one
    (starts, n, e) array.  Row `idx` draws its rankings from substream
    (seed, idx), so no start depends on how many others are drawn or how
    they are descended.  The rows are drawn `_CHUNK` at a time: one
    `rng.substreams` pass seeds a block's substreams, and one gradient call
    per step turns its rankings into masks, so the float rankings of only
    one block are held beside the mask array."""
    masks = np.empty((starts, problem.n, len(problem.bounds.free_edges)), dtype=bool)
    for lo in range(0, starts, _CHUNK):
        rngs = rngmod.substreams(seed, lo, min(lo + _CHUNK, starts))
        masks[lo : lo + _CHUNK] = _draw_upper_masks(problem.bounds, problem.n, rngs)
    return masks


def _descents(problem, starts, order) -> _Runs:
    """The descents of one problem from every row of `starts`, an (S, n, e)
    endpoint mask array or a list of (n, e) rows, as one `_Runs` in start
    order, descended `_CHUNK` rows at a time.  Like the kernel it consumes
    a mask array: the result's masks are that array, each row overwritten by
    its fixed point, so no second (S, n, e) array is held; descending the
    same starts twice takes a copy."""
    [runs] = _joint_descents([problem], [starts], order)
    return runs


def _joint_descents(problems, starts, order) -> list[_Runs]:
    """The descents from `starts`, one start array per problem, as one
    lockstep run, for problems that differ only in sense: the kernel reads
    each row's sign, so a chunk may mix senses and every row gets the bits
    of a run of its own sense.  One `_Runs` per problem, its rows sliced
    back and its events split off by row range.  A single start array is
    consumed as `_descents` consumes it; several are concatenated into one
    array and left as they were."""
    masks = [np.asarray(rows, dtype=bool) for rows in starts]
    table = masks[0] if len(masks) == 1 else np.concatenate(masks)
    ends = np.cumsum([0, *map(len, masks)])
    sign = np.repeat([problem.sense.sign for problem in problems], np.diff(ends))
    bounds = problems[0].bounds
    blocks = []
    for lo in range(0, len(table), _CHUNK):
        chunk = table[lo : lo + _CHUNK]
        mats = _transitions_from_masks(bounds, chunk)
        pinned = np.ones(chunk.shape[:2], dtype=bool)
        runs = _descend_chunk(problems[0], chunk, mats, pinned, sign[lo : lo + _CHUNK], order)
        blocks.append(runs._replace(event_rows=runs.event_rows + lo))
    runs = _Runs(table, *(np.concatenate(column) for column in list(zip(*blocks))[1:]))
    return [runs.rows(lo, hi) for lo, hi in zip(ends, ends[1:])]


def multistart(
    problem: OptimizationProblem,
    starts: int,
    seed: int,
    order: SweepOrder = SweepOrder.LEFT_TO_RIGHT,
) -> MultistartReport:
    """Local descent from `starts` random extremal schedules.

    Each start draws from its own substream keyed by (seed, start index), so
    the report is reproducible and independent of how the runs are executed.
    A `seed` that is not a non-negative integer raises ValueError.
    """
    _check_integers(starts=starts)
    _check_seed(seed)
    if starts < 1:
        raise ValueError("need at least one start")
    return _aggregate(problem, _random_starts(problem, starts, seed), order, int(seed))


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
    _check_budget(
        e,
        problem.n,
        EXHAUSTIVE_BUDGET,
        f"exhaustive multistart over {e} free edges and {problem.n} steps needs "
        f"{{count}} starts, over the budget of {EXHAUSTIVE_BUDGET}",
    )
    starts = _extremal_masks(e * problem.n).reshape(1 << e * problem.n, problem.n, e)
    return _aggregate(problem, starts, SweepOrder.LEFT_TO_RIGHT, None)
