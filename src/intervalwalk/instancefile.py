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
from json.encoder import encode_basestring_ascii

import numpy as np

from .graph import IntervalBounds, StateSpace, _check_integers, _checked_vectors
from .optimize import OptimizationProblem, Sense

_INDENT = "  "
#: the JSON spellings of float.__repr__'s "nan", "inf" and "-inf"
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

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


def _scalar_text(value):
    """JSON text of a string, number, bool or None, as `json` writes it;
    None for anything else."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_NAMES.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return None


def _key_text(key) -> str:
    if not isinstance(key, str):
        text = _scalar_text(key)
        if text is None:
            raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
        key = text
    return encode_basestring_ascii(key)


def write_json(path, payload) -> None:
    """Write `payload` to `path` as JSON indented by 2, plus a final newline:
    the bytes of `json.dump(payload, fh, indent=2)` and a newline.  A value
    `json` cannot encode raises TypeError.

    The document is streamed to the file, never held in memory as one string.
    A list of scalars and tuples goes out as one string.  A list looks all
    its items up at once in a memo of tuple texts (schedule rows, shared by
    many schedules) per depth, and renders only the misses, as no text is
    empty.  The memo is keyed by identity, because equal rows such as (1,),
    (1.0,) and (True,) render differently; it lives for this call only, while
    the payload keeps every row alive, so no id in it can be reused.
    """
    memos = {}

    def item_text(item, depth, memo):
        if not isinstance(item, tuple):
            return _scalar_text(item)
        parts = []
        emit(item, depth, parts.append)
        text = memo[id(item)] = "".join(parts)
        return text

    def emit(value, depth, write):
        text = _scalar_text(value)
        if text is not None:
            write(text)
        elif isinstance(value, (list, tuple)):
            emit_list(value, depth, write)
        elif isinstance(value, dict):
            emit_dict(value, depth, write)
        else:
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")

    def emit_list(items, depth, write):
        if not items:
            write("[]")
            return
        inner = "\n" + _INDENT * (depth + 1)
        close = "\n" + _INDENT * depth + "]"
        memo = memos.setdefault(depth + 1, {})
        texts = list(map(memo.get, map(id, items)))
        if None in texts:
            texts = [text or item_text(item, depth + 1, memo) for item, text in zip(items, texts)]
        if None not in texts:
            write("[" + inner + ("," + inner).join(texts) + close)
            return
        opening = "[" + inner
        for item, text in zip(items, texts):
            write(opening)
            if text is None:
                emit(item, depth + 1, write)
            else:
                write(text)
            opening = "," + inner
        write(close)

    def emit_dict(mapping, depth, write):
        if not mapping:
            write("{}")
            return
        inner = "\n" + _INDENT * (depth + 1)
        opening = "{" + inner
        for key, item in mapping.items():
            write(opening + _key_text(key) + ": ")
            emit(item, depth + 1, write)
            opening = "," + inner
        write("\n" + _INDENT * depth + "}")

    with open(path, "w", encoding="utf-8") as fh:
        emit(payload, 0, fh.write)
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
