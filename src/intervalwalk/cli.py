"""Command line interface: instance tools and experiment runners.

Subcommands: validate | bounds | oracle | gen | exp-count | exp-sweep |
exp-scatter | exp-dev.  Every seeded command writes bit-identical files on
repeated runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    ExperimentConfig,
    load_config,
    run_deviation_curves,
    run_extrema_count,
    run_initial_vs_optimized,
    run_sweep_comparison,
)
from .generate import _REAL_FIELDS, GenerationError, GenParams, generate_instance
from .graph import StateSpace, validate
from .instancefile import ProblemInstance, load_instance, save_instance, write_json
from .optimize import Sense, SweepOrder, _joint_multistart, _mask_keys
from .oracle import BudgetExceededError, exact_bounds


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load(loader, path: str):
    """`loader(path)`, with a failed read reported as a ValueError."""
    try:
        return loader(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _check_out(path: str, directory: bool) -> None:
    """Raise the OSError that writing the file `path`, or creating the output
    directory `path`, would meet.  Creates nothing; a write can still fail
    later, for instance on a full disk."""
    target = Path(path)
    start = target if directory else target.parent
    existing = next((p for p in (start, *start.parents) if p.exists()), start)
    code = 0
    if not existing.is_dir():
        code = errno.EEXIST if existing == target else errno.ENOTDIR
    elif not directory and existing != start:
        code = errno.ENOENT
    elif not directory and target.is_dir():
        code = errno.EISDIR
    elif not os.access(existing, os.W_OK | os.X_OK):
        code = errno.EACCES
    elif not directory and target.exists() and not os.access(target, os.W_OK):
        code = errno.EACCES
    if code:
        raise OSError(code, os.strerror(code), path)


def cmd_validate(args) -> int:
    report = validate(_load(load_instance, args.instance).bounds)
    print(report)
    return 0 if report.ok else 1


def _row_table(labels, free_edges):
    """One shared `(label_x, label_y, "lower"|"upper")` row per free edge and
    endpoint, indexed by the endpoint bit (False is "lower"), so
    the JSON writer renders each row once however many schedules hold it."""
    return [((labels[x], labels[y], "lower"), (labels[x], labels[y], "upper")) for x, y in free_edges]


def _schedules_json(table, masks):
    """The record rows of the schedules in `masks`, a (k, n, e) endpoint mask
    array; each distinct step row is built once, and its list shared."""
    count, n, e = masks.shape
    steps = masks.reshape(count * n, e)
    _, first, inverse = np.unique(_mask_keys(steps), return_index=True, return_inverse=True)
    rows = [list(map(tuple.__getitem__, table, bits)) for bits in steps[first].tolist()]
    return [list(map(rows.__getitem__, schedule)) for schedule in inverse.reshape(count, n).tolist()]


def _print_report(table, sense: Sense, census) -> None:
    kind, word = ("lower", "minima") if sense is Sense.MIN else ("upper", "maxima")
    print(f"{kind} bound: {census.values[0]!r}")
    values = ", ".join(f"{value!r} (hits {hits})" for value, hits in zip(census.values, census.hits))
    print(f"  unique local {word}: {len(census)} [{values}]")
    for step, edges in enumerate(_schedules_json(table, census.masks[:1])[0], start=1):
        parts = ", ".join(f"{{{x},{y}}}={choice}" for x, y, choice in edges) or "(no free edges)"
        print(f"  step {step}: {parts}")


def _report_json(table, census) -> dict:
    schedules = _schedules_json(table, census.masks)
    return {
        "value": census.values[0],
        "schedule": schedules[0],
        "unique_extrema": [
            {"value": value, "hits": hits, "schedule": rows}
            for rows, value, hits in zip(schedules, census.values, census.hits)
        ],
    }


def cmd_bounds(args) -> int:
    if args.starts < 1:
        return _fail(f"--starts must be at least 1, got {args.starts}", 2)
    if args.seed < 0:
        return _fail(f"--seed must be non-negative, got {args.seed}", 2)
    instance = _load(load_instance, args.instance)
    report = validate(instance.bounds)
    if not report.ok:
        return _fail(f"instance is not valid:\n{report}", 1)
    if instance.steps < 1:
        return _fail("instance has steps = 0; nothing to optimize", 1)
    if args.out:
        _check_out(args.out, directory=False)
    order = SweepOrder(args.strategy)
    senses = (Sense.MIN, Sense.MAX) if args.sense == "both" else (Sense(args.sense),)
    table = _row_table(instance.states.labels, instance.bounds.free_edges)
    reports = _joint_multistart([instance.problem(sense) for sense in senses], args.starts, args.seed, order)
    for sense, report in zip(senses, reports):
        _print_report(table, sense, report.unique_extrema)
    if args.out:
        results = {sense.value: _report_json(table, report.unique_extrema) for sense, report in zip(senses, reports)}
        record = dict(starts=args.starts, seed=args.seed, strategy=order.value, steps=instance.steps, results=results)
        write_json(args.out, record)
        print(f"wrote {args.out}")
    return 0


def cmd_oracle(args) -> int:
    instance = _load(load_instance, args.instance)
    report = validate(instance.bounds)
    if not report.ok:
        return _fail(f"instance is not valid:\n{report}", 1)
    if args.out:
        _check_out(args.out, directory=False)
    result = exact_bounds(instance.bounds, instance.q, instance.f, instance.steps, budget=args.budget)
    print(f"exact lower bound: {result.minimum!r} ({len(result.argmin)} optimal schedules)")
    print(f"exact upper bound: {result.maximum!r} ({len(result.argmax)} optimal schedules)")
    if args.out:
        table = _row_table(instance.states.labels, instance.bounds.free_edges)
        payload = {
            "steps": instance.steps,
            "minimum": result.minimum,
            "maximum": result.maximum,
            "argmin": _schedules_json(table, result.argmin.masks),
            "argmax": _schedules_json(table, result.argmax.masks),
        }
        write_json(args.out, payload)
        print(f"wrote {args.out}")
    return 0


def cmd_gen(args) -> int:
    fields = {name: getattr(args, name) for name in _REAL_FIELDS}
    params = GenParams(args.vertices, seed=args.seed, **fields)
    bounds, q, f = generate_instance(params)
    instance = ProblemInstance(StateSpace.of_size(args.vertices), bounds, q, f, args.steps)
    save_instance(args.out, instance)
    pairs = args.vertices * (args.vertices - 1) // 2
    edges = int(np.count_nonzero(bounds.upper) // 2)
    print(f"wrote {args.out}")
    print(
        f"  vertices {args.vertices}, steps {args.steps}, edges {edges}/{pairs} "
        f"(absent fraction {1 - edges / pairs:.3f})"
    )
    print(
        f"  mean lower weight {bounds.free_lower.mean():.4f}, "
        f"mean interval width {(bounds.free_upper - bounds.free_lower).mean():.4f}"
    )
    return 0


def _parse_cells(text: str) -> tuple[tuple[int, int], ...]:
    cells = []
    for part in text.split(","):
        v, _, n = part.strip().partition("x")
        try:
            cells.append((int(v), int(n)))
        except ValueError:
            raise ValueError(f"bad --cells entry {part.strip()!r}: expected VERTICESxSTEPS, e.g. 4x2") from None
    return tuple(cells)


def _experiment_config(args, base: ExperimentConfig) -> ExperimentConfig:
    config = _load(load_config, args.config) if args.config else base
    cells = None if args.cells is None else _parse_cells(args.cells)
    # ExperimentConfig converts the sense and order strings itself
    flags = dict(
        cells=cells, instances=args.instances, starts=args.starts, seed=args.seed, sense=args.sense, order=args.strategy
    )
    overrides = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(config, **overrides) if overrides else config


def _run_experiment(args) -> int:
    config = _experiment_config(args, args.base)
    if args.threads < 1:
        return _fail(f"--threads must be at least 1, got {args.threads}", 2)
    _check_out(args.out, directory=True)
    csv_path, summary_path = args.runner(config, args.out, threads=args.threads)
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    return 0


#: One row per experiment command: name, runner, default config, help.
_EXPERIMENTS = (
    ("exp-count", run_extrema_count, ExperimentConfig(), "census of unique local extrema per instance"),
    (
        "exp-sweep",
        run_sweep_comparison,
        ExperimentConfig(instances=20, starts=100),
        "left-to-right vs right-to-left sweep comparison",
    ),
    (
        "exp-scatter",
        run_initial_vs_optimized,
        ExperimentConfig(cells=((8, 8),), instances=10, starts=300, sense=Sense.MAX),
        "initial vs optimized value pairs",
    ),
    (
        "exp-dev",
        run_deviation_curves,
        ExperimentConfig(cells=((8, 8),), instances=30, starts=500),
        "deviation curves with and without local optimization",
    ),
)


def _add_strategy(sub: argparse.ArgumentParser, **kwargs) -> None:
    sub.add_argument("--strategy", choices=[o.value for o in SweepOrder], **kwargs)


def _add_experiment_args(sub: argparse.ArgumentParser, sense: bool, strategy: bool) -> None:
    sub.add_argument("--config", help="JSON experiment config file")
    sub.add_argument("--cells", help="grid cells as VERTICESxSTEPS[,...], e.g. 4x2,6x4")
    sub.add_argument("--instances", type=int, help="instances per cell")
    sub.add_argument("--starts", type=int, help="starts per instance")
    sub.add_argument("--seed", type=int, help="master seed")
    if sense:
        sub.add_argument("--sense", choices=["min", "max"], help="optimization sense")
    if strategy:
        _add_strategy(sub, help="sweep order for the local optimizer")
    sub.add_argument("--out", default="results", help="output directory")
    sub.add_argument("--threads", type=int, default=1, help="worker processes, at most the CPU count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalwalk",
        description="Expectation bounds for random walks on graphs with interval weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file against the model constraints")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bounds", help="multistart local optimization bounds")
    p.add_argument("instance")
    p.add_argument("--starts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_strategy(p, default=SweepOrder.LEFT_TO_RIGHT.value)
    p.add_argument("--sense", choices=["min", "max", "both"], default="both")
    p.add_argument("--out", help="write a machine-readable JSON result record")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("oracle", help="exact bounds by exhaustive enumeration (small instances)")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=2**24, help="maximum schedule evaluations")
    p.add_argument("--out", help="write a machine-readable JSON result record")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a random valid instance file")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    for name in _REAL_FIELDS:
        p.add_argument("--" + name.replace("_", "-"), type=float, default=getattr(GenParams, name))
    p.set_defaults(func=cmd_gen)

    for name, runner, base, blurb in _EXPERIMENTS:
        p = sub.add_parser(name, help=blurb)
        # the census and the sweep comparison always run both senses, and
        # the sweep comparison always runs both orders
        _add_experiment_args(
            p,
            sense=runner not in (run_extrema_count, run_sweep_comparison),
            strategy=runner is not run_sweep_comparison,
        )
        p.set_defaults(func=_run_experiment, runner=runner, base=base, sense=None, strategy=None)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place where an exception becomes an exit code.

    A budget refusal exits 1; bad input (ValueError, GenerationError), a
    request too large for memory (MemoryError) and a failed write (OSError:
    every read error is already a ValueError) exit 2, naming its file, or
    stdout when it names none, as a pipe closed by its reader does.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        return _fail(str(exc), 1)
    except (ValueError, GenerationError, MemoryError) as exc:
        return _fail(str(exc), 2)
    except OSError as exc:
        return _fail(f"cannot write {exc.filename or 'stdout'}: {exc.strerror or exc}", 2)


if __name__ == "__main__":
    raise SystemExit(main())
