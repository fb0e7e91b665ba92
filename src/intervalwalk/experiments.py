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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .generate import _REAL_FIELDS, GenParams, generate_instance
from .graph import _check_integers, _is_integer
from .instancefile import read_json, write_json
from .optimize import OptimizationProblem, Sense, SweepOrder, multistart
from .optimize import _census, _descents, _joint_descents, _random_starts
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
        _check_integers(instances=self.instances, starts=self.starts)
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
    """The config's fields by name, its enums as their values; the fields
    are immutable, so they are shared rather than copied."""
    data = {field.name: getattr(config, field.name) for field in fields(ExperimentConfig)}
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
    """`func` over `tasks`, in order, on at most `threads` worker processes
    (and no more than the CPU count); a `threads` that is not an integer
    of at least 1 raises ValueError."""
    _check_integers(threads=threads)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
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


def _problems(config, exp_id, ci, inst, senses):
    """The problems of one grid instance, generated once: an
    (OptimizationProblem, start seed) pair per sense in `senses`, in order."""
    vertices, steps = config.cells[ci]
    bounds, q, f = generate_instance(
        config.gen_params(vertices, derive_seed(config.seed, exp_id, _ROLE_GEN, ci, inst))
    )
    return [
        (
            OptimizationProblem(bounds, q, f, steps, sense),
            derive_seed(config.seed, exp_id, _SENSE_ROLES[sense], ci, inst),
        )
        for sense in senses
    ]


# --- unique local extrema census ---------------------------------------------


def _count_task(args):
    """The CSV row of one instance: its numbers of distinct minima and maxima."""
    config, ci, inst = args
    row = [*config.cells[ci], inst]
    for problem, seed in _problems(config, _EXP_COUNT, ci, inst, Sense):
        row.append(len(multistart(problem, config.starts, seed, config.order).unique_extrema))
    return row


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
        cell = results[ci * config.instances : (ci + 1) * config.instances]
        mean_min, mean_max = np.mean([row[3:] for row in cell], axis=0).tolist()
        rows += [*cell, [vertices, steps, "mean", mean_min, mean_max]]
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
    """The CSV rows and summary entry of one instance: both orders descend
    from the same starts, and one census per sense counts where each lands.
    The two senses descend together, one lockstep run per order."""
    config, ci, inst = args
    vertices, steps = config.cells[ci]
    pairs = _problems(config, _EXP_SWEEP, ci, inst, Sense)
    problems = [problem for problem, _ in pairs]
    starts = [_random_starts(problem, config.starts, seed) for problem, seed in pairs]
    # two start arrays are concatenated, not consumed, so both orders descend the same starts
    lrs = _joint_descents(problems, starts, SweepOrder.LEFT_TO_RIGHT)
    rls = _joint_descents(problems, starts, SweepOrder.RIGHT_TO_LEFT)
    rows = []
    fractions = {}
    for problem, lr, rl in zip(problems, lrs, rls):
        disagreements = int(np.count_nonzero((lr.masks != rl.masks).any(axis=(1, 2))))
        fraction = fractions[problem.sense.value] = disagreements / config.starts
        _, values, hits = _census(problem.sense, lr, rl)
        for value, (hits_lr, hits_rl) in zip(values.tolist(), hits.tolist()):
            freqs = [hits_lr / config.starts, hits_rl / config.starts]
            rows.append([vertices, steps, inst, problem.sense.value, value, *freqs, fraction])
    entry = {"vertices": vertices, "steps": steps, "instance_id": inst, "disagreement_fraction": fractions}
    return rows, entry


def run_sweep_comparison(config: ExperimentConfig, out_dir, threads: int = 1) -> tuple[Path, Path]:
    """Feed identical starts to both sweep orders and compare where they land.

    CSV columns: vertices, steps, instance_id, sense, extremum_value,
    freq_left_to_right, freq_right_to_left, order_disagreement_fraction (the
    per-instance fraction of starts whose two descents reached different
    extrema, repeated on each of its rows).
    """
    results = _run_grid(_sweep_task, config, threads)
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
        [row for rows, _ in results for row in rows],
        config,
        instances=[entry for _, entry in results],
    )


# --- initial value vs optimized value -----------------------------------------


def _value_pairs(problem, seed, config) -> np.ndarray:
    """The (start value, optimized value) of each of `config.starts` starts,
    descended in `config.order`, as a (starts, 2) array."""
    runs = _descents(problem, _random_starts(problem, config.starts, seed), config.order)
    return np.stack([runs.start_value, runs.value], axis=1)


def _scatter_task(args):
    """The CSV rows of one instance, a pair per start, and its summary entry,
    the sample correlation of the pairs (None when degenerate)."""
    config, ci, inst = args
    vertices, steps = config.cells[ci]
    [(problem, seed)] = _problems(config, _EXP_SCATTER, ci, inst, [config.sense])
    pairs = _value_pairs(problem, seed, config)
    started, optimized = pairs.T
    r = None
    if started.std() > 0.0 and optimized.std() > 0.0:
        r = float(np.corrcoef(started, optimized)[0, 1])
    rows = [[vertices, steps, inst, idx, sv, ov] for idx, (sv, ov) in enumerate(pairs.tolist())]
    return rows, {"vertices": vertices, "steps": steps, "instance_id": inst, "correlation": r}


def run_initial_vs_optimized(
    config: ExperimentConfig, out_dir, threads: int = 1
) -> tuple[Path, Path]:
    """Emit (start value, locally optimized value) pairs for scatter plots.

    CSV columns: vertices, steps, instance_id, start_id, start_value,
    optimized_value.  The run summary records the per-instance sample
    correlation between the two columns (null when degenerate).
    """
    results = _run_grid(_scatter_task, config, threads)
    return _write_outputs(
        out_dir,
        "initial_vs_optimized",
        ["vertices", "steps", "instance_id", "start_id", "start_value", "optimized_value"],
        [row for rows, _ in results for row in rows],
        config,
        instances=[entry for _, entry in results],
    )


# --- deviation curves ----------------------------------------------------------


def _deviation_task(args):
    """The summary entry of one instance, which holds its best value, and
    its two best-so-far deviation curves over the shuffled starts."""
    config, ci, inst = args
    vertices, steps = config.cells[ci]
    [(problem, seed)] = _problems(config, _EXP_DEV, ci, inst, [config.sense])
    if np.any(problem.q < 0.0) or np.any(problem.f < 0.0):
        raise ValueError("deviation curves need nonnegative q and f")
    start_values, optimized_values = _value_pairs(problem, seed, config).T

    shuffle = substream(config.seed, _EXP_DEV, _ROLE_SHUFFLE, ci, inst).permutation(config.starts)
    # minimize sign * value; negation is exact, so MAX gives the same bits
    sign = config.sense.sign
    low = (sign * optimized_values).min()
    best = float(sign * low)
    dev_opt = (np.minimum.accumulate(sign * optimized_values[shuffle]) - low) / best * 100.0
    dev_rand = (np.minimum.accumulate(sign * start_values[shuffle]) - low) / best * 100.0
    entry = {"vertices": vertices, "steps": steps, "instance_id": inst, "best_value": best}
    return entry, dev_opt, dev_rand


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

    dev_opt = np.vstack([r[1] for r in results])
    dev_rand = np.vstack([r[2] for r in results])
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
        best_values=[entry for entry, _, _ in results],
    )
