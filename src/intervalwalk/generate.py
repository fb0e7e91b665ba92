"""Seeded random generation of valid problem instances.

Edges are kept with a fixed probability and the adjacency is resampled until
connected; interval lower bounds and widths are exponential, the payoff and
initial-mass vectors too.  Marginals are set a fixed slack factor above the
incident upper bounds, which guarantees feasibility with strictly positive
loop mass for every admissible weight function.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .graph import IntervalBounds, _check_integers, connected_components
from .rng import exponential, substream

#: Attempts at a connected adjacency before giving up.
RETRY_CAP = 1000


#: The real-valued GenParams fields; all but the first must be positive.
_REAL_FIELDS = ("disconnect_fraction", "lower_mean", "width_mean", "qf_mean", "marginal_slack")


def _is_finite_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


class GenerationError(RuntimeError):
    """Raised when no connected adjacency was found within the retry cap."""


@dataclass(frozen=True)
class GenParams:
    """Distribution parameters for random instances.

    `disconnect_fraction` is the target fraction of absent vertex pairs;
    `lower_mean` and `width_mean` drive the exponential edge intervals
    (upper = lower * (1 + width)); `qf_mean` drives the exponential entries
    of q and f; marginals are (1 + marginal_slack) times the incident upper
    bounds.
    """

    s: int
    disconnect_fraction: float = 0.25
    lower_mean: float = 0.8
    width_mean: float = 1.0
    qf_mean: float = 1.5
    marginal_slack: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _check_integers(s=self.s, seed=self.seed)
        for name in _REAL_FIELDS:
            if not _is_finite_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.s < 2:
            raise ValueError("need at least two vertices")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.disconnect_fraction < 1.0:
            raise ValueError("disconnect_fraction must be in [0, 1)")
        for name in _REAL_FIELDS[1:]:
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


def generate_instance(params: GenParams) -> tuple[IntervalBounds, np.ndarray, np.ndarray]:
    """One random valid instance: interval bounds plus q and f vectors.

    Deterministic for a given `params.seed`.  The output always passes
    validation with no violations and no loop warnings; all q and f entries
    are strictly positive.
    """
    rng = substream(params.seed)
    s = params.s
    iu, ju = np.triu_indices(s, k=1)

    present = None
    for _ in range(RETRY_CAP):
        candidate = rng.random(len(iu)) >= params.disconnect_fraction
        adjacency = np.zeros((s, s), dtype=bool)
        adjacency[iu, ju] = candidate
        if len(connected_components(adjacency)) == 1:
            present = candidate
            break
    if present is None:
        raise GenerationError(
            f"no connected adjacency on {s} vertices with disconnect fraction "
            f"{params.disconnect_fraction} within {RETRY_CAP} attempts"
        )

    n_edges = int(present.sum())
    lower_e = exponential(rng, params.lower_mean, n_edges)
    upper_e = lower_e * (1.0 + exponential(rng, params.width_mean, n_edges))
    q = exponential(rng, params.qf_mean, s)
    f = exponential(rng, params.qf_mean, s)

    lower = np.zeros((s, s))
    upper = np.zeros((s, s))
    ei, ej = iu[present], ju[present]
    lower[ei, ej] = lower_e
    lower[ej, ei] = lower_e
    upper[ei, ej] = upper_e
    upper[ej, ei] = upper_e
    marginal = (1.0 + params.marginal_slack) * upper.sum(axis=1)
    return IntervalBounds(lower, upper, marginal), q, f
