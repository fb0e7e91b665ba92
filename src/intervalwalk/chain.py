"""Transition operators induced by weight functions and their n-step expectations.

A weight function w turns into the row-stochastic matrix P(x, y) = w(x, y)/W(x).
Functions on states (payoffs) are propagated backward through P, mass functions
forward; an n-step expectation folds a whole schedule of weight functions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import TOL, IntervalBounds, WeightFunction, _check_integers, _check_states, _checked_vectors

#: An ordered per-step assignment of weight functions (possibly empty).
Schedule = tuple[WeightFunction, ...]


def transition_matrix(bounds: IntervalBounds, w: WeightFunction) -> np.ndarray:
    """Row-stochastic transition matrix P(x, y) = w(x, y) / W(x), loops included.

    A `w` of another size than `bounds` raises ValueError."""
    _check_states(bounds, w)
    return w.matrix / bounds.marginal[:, None]


def backward_step(bounds: IntervalBounds, w: WeightFunction, f) -> np.ndarray:
    """Expected payoff one step ahead: (T_w f)(x) = sum_y P(x, y) f(y).

    `f` must hold one finite number per state (ValueError otherwise)."""
    (f,) = _checked_vectors(bounds, f=f)
    return transition_matrix(bounds, w) @ f


def forward_step(bounds: IntervalBounds, q, w: WeightFunction) -> np.ndarray:
    """Push a mass function one step forward: (q T_w)(y) = sum_x q(x) P(x, y).

    `q` must hold one finite number per state (ValueError otherwise)."""
    (q,) = _checked_vectors(bounds, q=q)
    return q @ transition_matrix(bounds, w)


def expectation(bounds: IntervalBounds, q, schedule: Sequence[WeightFunction], f) -> float:
    """n-step expectation <q, T_w1 ... T_wn f>; the empty schedule gives <q, f>.

    Folds from the right: n matrix-vector products, then one dot product.
    `q` and `f` must hold one finite number per state (ValueError otherwise).
    """
    q, g = _checked_vectors(bounds, q=q, f=f)
    for w in reversed(tuple(schedule)):
        g = transition_matrix(bounds, w) @ g
    return float(q @ g)


def stationary_distribution(bounds: IntervalBounds) -> np.ndarray:
    """The invariant distribution W(x) / W, shared by every admissible walk."""
    return bounds.marginal / bounds.total


def is_pmf(values) -> bool:
    """True if `values` is a probability mass function up to `TOL`."""
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(v)) and np.all(v >= -TOL) and abs(v.sum() - 1.0) <= TOL)


def detailed_balance_residual(bounds: IntervalBounds, w: WeightFunction) -> float:
    """Largest violation of pi(x) P(x, y) = pi(y) P(y, x).

    Zero (to rounding) for every admissible weight function, since symmetric
    weights force the probability flux pi(x) P(x, y) = w(x, y) / W to be
    symmetric as well.
    """
    pi = stationary_distribution(bounds)
    flux = pi[:, None] * transition_matrix(bounds, w)
    return float(np.max(np.abs(flux - flux.T)))


def sequence_lower_probability(bounds: IntervalBounds, path: Sequence[int]) -> float:
    """Lower probability of observing the exact state sequence `path`.

    The walk starts from the stationary distribution; each transition
    contributes its smallest admissible weight (the interval lower bound on
    edges, the residual mass floor on loop steps), so the value equals the
    product of those weights over W times the interior marginals.  Invariant
    under reversal of the path.  State indices must be integers (numpy
    integers count, bools do not).
    """
    steps = list(path)
    _check_integers(**{f"path[{i}]": x for i, x in enumerate(steps)})
    if len(steps) < 2:
        raise ValueError("a path needs at least two states")
    if any(x < 0 or x >= bounds.size for x in steps):
        raise ValueError("path contains an out-of-range state index")
    numerator = 1.0
    for a, b in zip(steps, steps[1:]):
        numerator *= bounds.lower[a, b] if a != b else bounds.min_loop[a]
    denominator = bounds.total
    for x in steps[1:-1]:
        denominator *= bounds.marginal[x]
    return numerator / denominator
