"""Self-describing JSON instance files.

One document holds the whole problem: state labels, the interval matrices
(row-major, zero diagonal), the marginals, the q and f vectors, and the step
count.  Floats are serialized as shortest round-tripping decimals, so a
save/load cycle reproduces every number bit for bit.  `write_json` and
`read_json` are the package's one JSON writer and reader: instance files,
experiment configs and summaries, and the CLI's result records all pass
through them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import IntervalBounds, StateSpace, _check_integers, _checked_vectors
from .optimize import OptimizationProblem, Sense

_FIELDS = ("states", "lower", "upper", "marginal", "q", "f", "steps")


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A bounds problem as stored on disk: labeled states, bounds, q, f, steps."""

    states: StateSpace
    bounds: IntervalBounds
    q: np.ndarray
    f: np.ndarray
    steps: int

    def __post_init__(self):
        if self.states.size != self.bounds.size:
            raise ValueError("state labels do not match the matrix size")
        q, f = _checked_vectors(self.bounds, q=self.q, f=self.f)
        _check_integers(steps=self.steps)
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "steps", int(self.steps))

    def problem(self, sense: Sense = Sense.MIN) -> OptimizationProblem:
        return OptimizationProblem(self.bounds, self.q, self.f, self.steps, sense)


def instance_to_dict(instance: ProblemInstance) -> dict:
    return {
        "states": list(instance.states.labels),
        "lower": instance.bounds.lower.tolist(),
        "upper": instance.bounds.upper.tolist(),
        "marginal": instance.bounds.marginal.tolist(),
        "q": instance.q.tolist(),
        "f": instance.f.tolist(),
        "steps": instance.steps,
    }


def _check_numbers(name: str, value) -> None:
    """Raise ValueError naming `name` unless every entry of `value`, a number
    or nested lists of them, is a JSON number: not a string, not a boolean."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"{name} is not an array of numbers: {item!r} is not a JSON number")


def instance_from_dict(data: dict) -> ProblemInstance:
    """Build an instance from parsed JSON; raises ValueError on a bad document.

    Every field is required and no other is allowed; `states` must be a list
    of strings, and the numeric fields must hold JSON numbers, not strings or
    booleans.
    """
    if not isinstance(data, dict):
        raise ValueError("instance document must be a JSON object")
    missing = [k for k in _FIELDS if k not in data]
    if missing:
        raise ValueError(f"instance document is missing fields: {', '.join(missing)}")
    unknown = sorted(set(data) - set(_FIELDS))
    if unknown:
        raise ValueError(f"unknown instance fields: {', '.join(unknown)}")
    labels = data["states"]
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise ValueError(f"states must be a list of labels, got {labels!r}")
    for name in ("lower", "upper", "marginal", "q", "f"):
        _check_numbers(name, data[name])
    states = StateSpace(labels)
    bounds = IntervalBounds(data["lower"], data["upper"], data["marginal"])
    return ProblemInstance(states, bounds, data["q"], data["f"], data["steps"])


def write_json(path, payload) -> None:
    """Write `payload` to `path` as JSON indented by 2, plus a final newline.

    The document is streamed to the file, never held in memory as one string.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_json(path):
    """Parse the JSON document at `path`; raises ValueError when it is not JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not a JSON document: {exc}") from exc


def save_instance(path, instance: ProblemInstance) -> None:
    write_json(path, instance_to_dict(instance))


def load_instance(path) -> ProblemInstance:
    """Load an instance file; raises ValueError on malformed content."""
    return instance_from_dict(read_json(path))
