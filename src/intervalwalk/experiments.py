"""Experiment runners emitting plot-ready CSV files plus a JSON run summary.

Four experiments over grids of random instances: a census of unique local
extrema, a comparison of the two sweep orders, initial-vs-optimized value
scatter data, and best-so-far deviation curves with and without local
optimization.  Every runner descends through the same mask path as
`multistart`: each start's endpoint masks go straight into the sweep, with no
weight-function round trip.  Every run is bit-deterministic for a given seed:
each unit of work draws from a substream keyed by (seed, experiment, role,
cell, instance), so neither scheduling nor worker count can change the output
files.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .generate import _REAL_FIELDS, GenParams, _is_integer, generate_instance
from .instancefile import read_json, write_json
from .optimize import OptimizationProblem, Sense, SweepOrder, multistart
from .optimize import _census_rank, _descents, _random_starts
from .rng import derive_seed, substream

# experiment ids and stream roles for substream addressing
_EXP_COUNT, _EXP_SWEEP, _EXP_SCATTER, _EXP_DEV = 1, 2, 3, 4
_ROLE_GEN, _ROLE_MIN, _ROLE_MAX, _ROLE_SHUFFLE = 0, 1, 2, 3
_SENSE_ROLES = {Sense.MIN: _ROLE_MIN, Sense.MAX: _ROLE_MAX}

#: Reference mean extrema counts for this instance family, measured at the
#: larger published scale (200 parameter sets, 1500 starts per set); recorded
#: in run summaries for qualitative trend comparison only.
REFERENCE_MEAN_EXTREMA = {
    (4, 2): 1.9,
    (4, 4): 13.4,
    (4, 6): 80.6,
    (6, 2): 3.2,
    (6, 4): 46.8,
    (6, 6): 251.2,
    (8, 2): 5.3,
    (8, 4): 100.3,
    (8, 6): 411.4,
}

_DEFAULT_CELLS = tuple((v, n) for v in (4, 6, 8) for n in (2, 4, 6))


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and sampling parameters shared by all experiment runners.

    `cells` lists (vertices, steps) pairs; `instances` random instances are
    generated per cell and `starts` random extremal schedules are optimized
    per instance, descending in `order` (the sweep comparison runs both
    orders).  The remaining fields mirror the instance generator.
    """

    cells: tuple[tuple[int, int], ...] = _DEFAULT_CELLS
    instances: int = 50
    starts: int = 300
    seed: int = 0
    sense: Sense = Sense.MIN
    order: SweepOrder = SweepOrder.LEFT_TO_RIGHT
    disconnect_fraction: float = GenParams.disconnect_fraction
    lower_mean: float = GenParams.lower_mean
    width_mean: float = GenParams.width_mean
    qf_mean: float = GenParams.qf_mean
    marginal_slack: float = GenParams.marginal_slack

    def __post_init__(self):
        try:
            cells = tuple(tuple(cell) for cell in self.cells)
        except TypeError:
            raise ValueError(f"cells must be a list of (vertices, steps) pairs, got {self.cells!r}") from None
        if not cells:
            raise ValueError("need at least one (vertices, steps) cell")
        for cell in cells:
            if len(cell) != 2 or not all(_is_integer(x) for x in cell):
                raise ValueError(f"bad cell {cell!r}: need a (vertices, steps) pair of integers")
            if cell[0] < 2 or cell[1] < 1:
                raise ValueError(f"bad cell {cell}: vertices >= 2 and steps >= 1 required")
        for name in ("instances", "starts"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.instances < 1 or self.starts < 1:
            raise ValueError("instances and starts must be at least 1")
        # the generator fields and the seed obey GenParams' rules
        self.gen_params(cells[0][0], self.seed)
        object.__setattr__(self, "cells", tuple((int(v), int(n)) for v, n in cells))
        object.__setattr__(self, "sense", Sense(self.sense))
        object.__setattr__(self, "order", SweepOrder(self.order))

    def gen_params(self, vertices: int, seed: int) -> GenParams:
        return GenParams(vertices, seed=seed, **{name: getattr(self, name) for name in _REAL_FIELDS})


def config_to_dict(config: ExperimentConfig) -> dict:
    data = asdict(config)
    data["sense"] = config.sense.value
    data["order"] = config.order.value
    return data


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON document; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ValueError("experiment config must be a JSON object")
    if "orders" in data:
        raise ValueError('config field "orders" is now "order", a single sweep order')
    unknown = set(data) - {field.name for field in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(sorted(unknown))}")
    return ExperimentConfig(**data)


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path))


def _write_outputs(
    out_dir, name: str, header: list[str], rows, config: ExperimentConfig, **summary
) -> tuple[Path, Path]:
    """Create `out_dir` and write `<name>.csv` and `<name>_summary.json`, the
    summary led by the config echo; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    summary_path = out_dir / f"{name}_summary.json"
    write_json(summary_path, {"config": config_to_dict(config), **summary})
    return csv_path, summary_path


def _map_tasks(func, tasks, threads: int):
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1:
        return [func(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(func, tasks))


def _run_grid(task, config: ExperimentConfig, threads: int):
    """Map `task` over every (config, cell, instance) of the grid, in grid
    order; returns the task results."""
    tasks = [(config, ci, inst) for ci in range(len(config.cells)) for inst in range(config.instances)]
    return _map_tasks(task, tasks, threads)


def _instance_for(config, exp_id, ci, inst):
    vertices, steps = config.cells[ci]
    params = config.gen_params(vertices, derive_seed(config.seed, exp_id, _ROLE_GEN, ci, inst))
    bounds, q, f = generate_instance(params)
    return bounds, q, f, steps


# --- unique local extrema census ---------------------------------------------


def _count_task(args):
    config, ci, inst = args
    bounds, q, f, steps = _instance_for(config, _EXP_COUNT, ci, inst)
    counts = []
    for sense, role in _SENSE_ROLES.items():
        problem = OptimizationProblem(bounds, q, f, steps, sense)
        seed = derive_seed(config.seed, _EXP_COUNT, role, ci, inst)
        counts.append(len(multistart(problem, config.starts, seed, config.order).unique_extrema))
    return ci, inst, *counts


def run_extrema_count(config: ExperimentConfig, out_dir, threads: int = 1) -> tuple[Path, Path]:
    """Count deduplicated local minima and maxima discovered per instance.

    CSV columns: vertices, steps, instance_id, unique_local_minima,
    unique_local_maxima.  After each cell's instances one summary row with
    instance_id = "mean" carries the per-cell sample means.
    """
    results = _run_grid(_count_task, config, threads)

    rows = []
    cell_stats = []
    for ci, (vertices, steps) in enumerate(config.cells):
        mins, maxs = [], []
        for rci, inst, n_min, n_max in results:
            if rci != ci:
                continue
            rows.append([vertices, steps, inst, n_min, n_max])
            mins.append(n_min)
            maxs.append(n_max)
        mean_min = float(np.mean(mins))
        mean_max = float(np.mean(maxs))
        rows.append([vertices, steps, "mean", mean_min, mean_max])
        cell_stats.append(
            {
                "vertices": vertices,
                "steps": steps,
                "mean_unique_local_minima": mean_min,
                "mean_unique_local_maxima": mean_max,
                "reference_mean_extrema": REFERENCE_MEAN_EXTREMA.get((vertices, steps)),
            }
        )

    return _write_outputs(
        out_dir,
        "extrema_counts",
        ["vertices", "steps", "instance_id", "unique_local_minima", "unique_local_maxima"],
        rows,
        config,
        cells=cell_stats,
    )


# --- sweep-order comparison ---------------------------------------------------


def _sweep_task(args):
    config, ci, inst = args
    bounds, q, f, steps = _instance_for(config, _EXP_SWEEP, ci, inst)
    out = []
    for sense, role in _SENSE_ROLES.items():
        problem = OptimizationProblem(bounds, q, f, steps, sense)
        seed = derive_seed(config.seed, _EXP_SWEEP, role, ci, inst)
        starts = list(_random_starts(problem, config.starts, seed))
        census: dict[bytes, list] = {}
        disagreements = 0
        for runs in zip(
            _descents(problem, starts, SweepOrder.LEFT_TO_RIGHT),
            _descents(problem, starts, SweepOrder.RIGHT_TO_LEFT),
        ):
            keys = [run.masks.tobytes() for run in runs]
            disagreements += keys[0] != keys[1]
            for column, (key, run) in enumerate(zip(keys, runs)):
                census.setdefault(key, [run.value, 0, 0])[1 + column] += 1
        ordered = sorted(census.items(), key=lambda item: _census_rank(item[0], item[1][0], sense))
        fraction = disagreements / config.starts
        for _, (value, hits_lr, hits_rl) in ordered:
            out.append(
                (sense.value, value, hits_lr / config.starts, hits_rl / config.starts, fraction)
            )
    return ci, inst, out


def run_sweep_comparison(config: ExperimentConfig, out_dir, threads: int = 1) -> tuple[Path, Path]:
    """Feed identical starts to both sweep orders and compare where they land.

    CSV columns: vertices, steps, instance_id, sense, extremum_value,
    freq_left_to_right, freq_right_to_left, order_disagreement_fraction (the
    per-instance fraction of starts whose two descents reached different
    extrema, repeated on each of its rows).
    """
    results = _run_grid(_sweep_task, config, threads)

    rows = []
    disagreement_stats = []
    for ci, inst, entries in results:
        vertices, steps = config.cells[ci]
        for sense, value, freq_lr, freq_rl, fraction in entries:
            rows.append([vertices, steps, inst, sense, value, freq_lr, freq_rl, fraction])
        disagreement_stats.append(
            {
                "vertices": vertices,
                "steps": steps,
                "instance_id": inst,
                "disagreement_fraction": {sense: fraction for sense, _, _, _, fraction in entries},
            }
        )

    return _write_outputs(
        out_dir,
        "sweep_comparison",
        [
            "vertices",
            "steps",
            "instance_id",
            "sense",
            "extremum_value",
            "freq_left_to_right",
            "freq_right_to_left",
            "order_disagreement_fraction",
        ],
        rows,
        config,
        instances=disagreement_stats,
    )


# --- initial value vs optimized value -----------------------------------------


def _value_pairs(config, exp_id, ci, inst):
    """The problem of one grid instance in `config.sense`, and a lazy
    (start value, optimized value) pair per start, so that a caller can
    refuse the problem before any descent runs."""
    bounds, q, f, steps = _instance_for(config, exp_id, ci, inst)
    problem = OptimizationProblem(bounds, q, f, steps, config.sense)
    seed = derive_seed(config.seed, exp_id, _SENSE_ROLES[config.sense], ci, inst)
    runs = _descents(problem, _random_starts(problem, config.starts, seed), config.order)
    return problem, ((run.start_value, run.value) for run in runs)


def _scatter_task(args):
    config, ci, inst = args
    _, pairs = _value_pairs(config, _EXP_SCATTER, ci, inst)
    return ci, inst, list(pairs)


def run_initial_vs_optimized(
    config: ExperimentConfig, out_dir, threads: int = 1
) -> tuple[Path, Path]:
    """Emit (start value, locally optimized value) pairs for scatter plots.

    CSV columns: vertices, steps, instance_id, start_id, start_value,
    optimized_value.  The run summary records the per-instance sample
    correlation between the two columns (null when degenerate).
    """
    results = _run_grid(_scatter_task, config, threads)

    rows = []
    correlations = []
    for ci, inst, pairs in results:
        vertices, steps = config.cells[ci]
        started = np.array([p[0] for p in pairs])
        optimized = np.array([p[1] for p in pairs])
        for idx, (sv, ov) in enumerate(pairs):
            rows.append([vertices, steps, inst, idx, sv, ov])
        r = None
        if started.std() > 0.0 and optimized.std() > 0.0:
            r = float(np.corrcoef(started, optimized)[0, 1])
        correlations.append(
            {"vertices": vertices, "steps": steps, "instance_id": inst, "correlation": r}
        )

    return _write_outputs(
        out_dir,
        "initial_vs_optimized",
        ["vertices", "steps", "instance_id", "start_id", "start_value", "optimized_value"],
        rows,
        config,
        instances=correlations,
    )


# --- deviation curves ----------------------------------------------------------


def _deviation_task(args):
    config, ci, inst = args
    problem, pairs = _value_pairs(config, _EXP_DEV, ci, inst)
    if np.any(problem.q < 0.0) or np.any(problem.f < 0.0):
        raise ValueError("deviation curves need nonnegative q and f")
    start_values, optimized_values = np.array(list(pairs)).T

    shuffle = substream(config.seed, _EXP_DEV, _ROLE_SHUFFLE, ci, inst).permutation(config.starts)
    # minimize sign * value; negation is exact, so MAX gives the same bits
    sign = 1.0 if config.sense is Sense.MIN else -1.0
    low = (sign * optimized_values).min()
    best = float(sign * low)
    dev_opt = (np.minimum.accumulate(sign * optimized_values[shuffle]) - low) / best * 100.0
    dev_rand = (np.minimum.accumulate(sign * start_values[shuffle]) - low) / best * 100.0
    return ci, inst, best, dev_opt, dev_rand


def run_deviation_curves(config: ExperimentConfig, out_dir, threads: int = 1) -> tuple[Path, Path]:
    """Best-so-far relative deviation versus sample size, with and without
    local optimization.

    For each parameter set the starts are replayed in a shuffled order; the
    deviation at sample size m is the gap between the best value among the
    first m starts and the best value over the whole budget, in percent.
    CSV columns: sample_size, avg_rel_dev_optimized, avg_rel_dev_random,
    max_rel_dev_optimized, max_rel_dev_random, aggregated over all parameter
    sets (cells x instances).
    """
    results = _run_grid(_deviation_task, config, threads)

    dev_opt = np.vstack([r[3] for r in results])
    dev_rand = np.vstack([r[4] for r in results])
    rows = [
        [
            m + 1,
            float(dev_opt[:, m].mean()),
            float(dev_rand[:, m].mean()),
            float(dev_opt[:, m].max()),
            float(dev_rand[:, m].max()),
        ]
        for m in range(config.starts)
    ]

    return _write_outputs(
        out_dir,
        "deviation_curves",
        [
            "sample_size",
            "avg_rel_dev_optimized",
            "avg_rel_dev_random",
            "max_rel_dev_optimized",
            "max_rel_dev_random",
        ],
        rows,
        config,
        parameter_sets=len(results),
        best_values=[
            {
                "vertices": config.cells[ci][0],
                "steps": config.cells[ci][1],
                "instance_id": inst,
                "best_value": best,
            }
            for ci, inst, best, _, _ in results
        ],
    )
