"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, runs passes of timed
ops through the public functions of the package, and checks every op's
output.  An op is the unit a workload times: one `multistart` call on
census-grid, one `bounds` CLI call on multistart-wide, one single-instance
sweep comparison on sweep-orders, one `exact_bounds` call on oracle-exact.

Invariant checks run on every seed.  `reference_entry` gives the values that
`reference.json` records on the default seed: best values (compared to 1e-9
relative), census digests (selection bits plus hit counts, exact) and oracle
argopt counts (exact).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from intervalwalk import chain as iw_chain
from intervalwalk import cli as iw_cli
from intervalwalk import experiments as iw_experiments
from intervalwalk import generate as iw_generate
from intervalwalk import graph as iw_graph
from intervalwalk import instancefile as iw_instancefile
from intervalwalk import optimize as iw_optimize
from intervalwalk import oracle as iw_oracle

clock = time.perf_counter

#: Relative tolerance for best values against the reference and for values
#: recomputed through another layer.
REL_TOL = 1e-9


@dataclasses.dataclass
class Op:
    """One timed call: its key, its wall time, a summary of its output for
    the checks, and the error it raised, if any."""

    key: str
    seconds: float
    data: dict
    error: str | None = None
    #: calibration kernel time measured right before the op (None when the
    #: run does not calibrate)
    cal: float | None = None
    #: factor to the op's time at the reference machine speed
    scale: float = 1.0


@dataclasses.dataclass
class Replay:
    """A descent the traced run replays.  With a `start` it runs
    `local_optimize` from that schedule (the path sweep-orders takes);
    otherwise it runs `multistart(problem, 1, seed)`, which draws start 0 of
    the real call through the same substream and mask path.  `census` holds
    the selections the real call reached (None when the start is itself
    taken from the real run's captured call)."""

    problem: object
    order: object
    census: frozenset | None
    start: tuple | None = None
    seed: int | None = None


def _seed_stream(seed: int, *path: int):
    """Benchmark-owned seed derivation, independent of the package's rng."""
    state = np.random.SeedSequence([int(seed), *path]).generate_state(2, np.uint32)
    return int(state[0]) << 31 | int(state[1]) >> 1


def close_rel(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def selection_bits(selections) -> str:
    return "|".join("".join(str(int(c)) for c in sel.choices) for sel in selections)


def schedule_json_bits(schedule) -> str:
    return "|".join("".join("1" if c == "upper" else "0" for _, _, c in step) for step in schedule)


def _banded_instances(seed, wid, shapes):
    """For each (vertices, steps, e_lo, e_hi, count) shape, the first `count`
    generated instances whose free-edge count lies in [e_lo, e_hi], scanning
    the seed's stream in order."""
    out = []
    for si, (vertices, steps, e_lo, e_hi, count) in enumerate(shapes):
        found = 0
        k = 0
        while found < count:
            gen_seed = _seed_stream(seed, wid, si, k)
            k += 1
            bounds, q, f = iw_generate.generate_instance(iw_generate.GenParams(s=vertices, seed=gen_seed))
            if e_lo <= len(bounds.free_edges) <= e_hi:
                out.append((f"{vertices}x{steps}/{found}", bounds, q, f, steps, gen_seed))
                found += 1
            if k > 10000:
                raise RuntimeError(f"no {vertices}-vertex instance with e in [{e_lo}, {e_hi}]")
    return out


def calibration_kernel(iterations: int) -> float:
    """Wall time of a fixed kernel of small numpy and Python operations, the
    mix the package's descents run, without calling the package."""
    rng = np.random.default_rng(0)
    m = rng.random((8, 8))
    v = rng.random(8)
    seen = {}
    # the kernel's tuples are GC-tracked: a collection triggered by the
    # package's garbage must not land inside the kernel's time
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        for k in range(iterations):
            v = m @ v
            v /= v.sum()
            seen[k % 64] = (float(v[k % 8]), k)
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Current machine speed, from short runs of the calibration kernel.

    The machine this benchmark was built on has phases, from fractions of a
    second to minutes long, in which the same code runs up to twice as
    slowly.  The kernel is timed right before every op and once after the
    last; scaling an op's time by `scale(before, after)` gives its time at
    the reference speed, at which the kernel takes REF_PER_ITERATION seconds
    per iteration.  The kernel calls no package code and runs with GC off,
    but it shares caches and the allocator with the op before it, so a
    change that leaves more memory behind could still move the factor; the
    run therefore prints the raw times and the median factor beside the
    scaled ones.
    """

    REF_PER_ITERATION = 5e-6

    def __init__(self, iterations: int = 100):
        self.iterations = iterations
        self.spent = 0.0

    def __call__(self) -> float:
        """Kernel time now, in seconds."""
        t0 = clock()
        took = calibration_kernel(self.iterations)
        self.spent += clock() - t0
        return took

    def scale(self, before: float, after: float) -> float:
        return self.REF_PER_ITERATION * self.iterations / ((before + after) / 2)


class Workload:
    name = ""
    #: input sizes by name: "default" is measured, "tiny" serves the self-check
    sizes: dict = {}
    #: a run holds at least this many passes and this many ops; 100 ops put
    #: ten beyond the p90 tail
    min_passes = 3
    min_ops = 100
    #: percentile of op times reported as op_tail_s.  A higher one on
    #: census-grid would be the top ops of a pass, the largest instances,
    #: which depend on the seed.
    tail_pct = 90
    #: calibration kernel iterations per op
    calibration_iterations = 100
    #: scale every op of a pass by the median calibration of the pass, not by
    #: the calibrations on either side of it
    scale_by_pass = False
    #: set-ups per run, this process plus fresh child interpreters; setup_s
    #: is their median
    setup_repeats = 5

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.params = self.sizes[size]
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        #: set for untraced runs: ops are then scaled to the reference speed
        self.calibrator: Calibrator | None = None

    def _calibrate(self) -> float | None:
        return self.calibrator() if self.calibrator else None

    def _spent(self) -> float:
        return self.calibrator.spent if self.calibrator else 0.0

    def _scale_ops(self, ops: list[Op]) -> None:
        """Scale each op by the calibrations right before and right after it
        (the next op's, or one more after the last op), or by the median of
        the pass's calibrations."""
        timed = [op for op in ops if op.cal is not None]
        if not timed:
            return
        after = [op.cal for op in timed[1:]] + [self.calibrator()]
        if self.scale_by_pass:
            middle = statistics.median([op.cal for op in timed] + after[-1:])
            for op in timed:
                op.scale = self.calibrator.scale(middle, middle)
            return
        for op, next_cal in zip(timed, after):
            op.scale = self.calibrator.scale(op.cal, next_cal)

    def _op(self, key: str, call, summarize) -> Op:
        """Calibrate, time `call()`, then summarize its result for the
        checks.  An exception in either becomes the op's error, so an op
        that raises counts as failed instead of ending the run."""
        cal = self._calibrate()
        t0 = clock()
        try:
            out = call()
        except Exception as exc:
            return Op(key, clock() - t0, {}, f"raised {exc!r}", cal)
        seconds = clock() - t0
        try:
            return Op(key, seconds, summarize(out), cal=cal)
        except Exception as exc:
            return Op(key, seconds, {}, f"unreadable output: {exc!r}", cal)

    def _finish(self, t_pass: float, spent: float, ops: list[Op]) -> tuple[float, list[Op]]:
        """Pass wall time without the calibrations, and the scaled ops."""
        wall = clock() - t_pass - (self._spent() - spent)
        self._scale_ops(ops)
        return wall, ops

    # descents (start, sense, order) per pass, and schedules resolved per pass
    def starts_per_pass(self) -> float:
        raise NotImplementedError

    def schedules_per_pass(self) -> float:
        return self.starts_per_pass()

    def setup(self) -> None:
        """Generate and write inputs, then run one warm-up op."""

    def run_pass(self) -> tuple[float, list[Op]]:
        """(pass wall time without the calibrations, ops)."""
        raise NotImplementedError

    def check(self, ops: list[Op]) -> dict[str, str]:
        """Invariant failures by op key."""
        return {}

    def reference_entry(self, op: Op) -> dict:
        return {}

    def census(self, ops: list[Op]) -> list[tuple[int, int, int]]:
        """(starts, distinct extrema, hits of the best) per census."""
        return []

    def replays(self, results) -> list[Replay]:
        """Descents to replay in the traced run; `results` holds the
        (name, args, kwargs, result) records of the last traced pass."""
        return []

    def traced_extras(self) -> None:
        """Extra per-layer probes run under the tracer after the passes."""

    def pool_check(self) -> tuple[bool, float] | None:
        """(1- and 2-worker outputs identical, 1-worker wall / 2-worker wall)."""
        return None


# --- census-grid -------------------------------------------------------------


class CensusGrid(Workload):
    """experiments.run_extrema_count, 1 worker, on the paper's 9-cell grid."""

    name = "census-grid"
    sizes = {
        "default": {"cells": None, "instances": 8, "starts": 100},
        "tiny": {"cells": ((4, 2), (6, 2)), "instances": 1, "starts": 4},
    }
    # a pass takes 8-12 s and holds 144 ops, so two passes fill a run
    min_passes = 2

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        p = self.params
        config = iw_experiments.ExperimentConfig(instances=p["instances"], starts=p["starts"], seed=seed)
        if p["cells"]:
            config = dataclasses.replace(config, cells=p["cells"])
        self.config = config
        self.captured: list = []

    def starts_per_pass(self):
        c = self.config
        return len(c.cells) * c.instances * 2 * c.starts

    def setup(self):
        warm = dataclasses.replace(self.config, cells=self.config.cells[:1], instances=1)
        iw_experiments.run_extrema_count(warm, self.workdir / "warm", threads=1)

    def _run(self, out_dir):
        captured = []
        inner = iw_experiments.multistart

        def timed(problem, starts, seed, *args, **kwargs):
            cal = self._calibrate()
            t0 = clock()
            report = inner(problem, starts, seed, *args, **kwargs)
            captured.append((problem, starts, seed, args, kwargs, report, clock() - t0, cal))
            return report

        iw_experiments.multistart = timed
        try:
            spent = self._spent()
            t0 = clock()
            paths = iw_experiments.run_extrema_count(self.config, out_dir, threads=1)
            wall = clock() - t0 - (self._spent() - spent)
        finally:
            iw_experiments.multistart = inner
        return wall, paths, captured

    def run_pass(self):
        try:
            wall, (csv_path, _), captured = self._run(self.workdir / "pass")
        except Exception as exc:
            self.captured = []
            return 0.0, [Op("pass", 0.0, {}, f"raised {exc!r}")]
        self.captured = captured
        ordinal: dict[int, int] = {}
        ops = []
        for problem, starts, seed, args, kwargs, report, seconds, cal in captured:
            inst = ordinal.setdefault(id(problem.bounds), len(ordinal))
            unique = report.unique_extrema
            data = {
                "instance": inst,
                "sense": problem.sense.value,
                "starts": starts,
                "value": report.best.value,
                "first_value": unique[0][1],
                "hits": sum(h for _, _, h in unique),
                "distinct": len(unique),
                "best_hits": unique[0][2],
                "digest": _digest(f"{selection_bits(s)}:{h}" for s, _, h in unique),
            }
            ops.append(Op(f"i{inst}/{problem.sense.value}", seconds, data, cal=cal))
        self._scale_ops(ops)
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["instance_id"] != "mean"]
        counts = [(int(r["unique_local_minima"]), int(r["unique_local_maxima"])) for r in rows]
        expected = self.starts_per_pass() // (2 * self.config.starts)
        if len(ops) != 2 * expected:
            ops.append(Op("pass", wall, {}, f"saw {len(ops)} multistart calls, expected {2 * expected}"))
        else:
            by_inst = {}
            for op in ops:
                by_inst.setdefault(op.data["instance"], {})[op.data["sense"]] = op.data["distinct"]
            seen = [(d["min"], d["max"]) for _, d in sorted(by_inst.items())]
            if seen != counts:
                ops.append(Op("pass", wall, {}, "CSV extrema counts differ from the census"))
        return wall, ops

    def check(self, ops):
        return _check_census_ops(ops)

    def reference_entry(self, op):
        return {"value": op.data["value"], "digest": op.data["digest"]}

    def census(self, ops):
        return [(o.data["starts"], o.data["distinct"], o.data["best_hits"]) for o in ops if o.data]

    def replays(self, results):
        return _multistart_replays(
            (
                problem,
                seed,
                kwargs.get("order", args[0] if args else iw_optimize.SweepOrder.LEFT_TO_RIGHT),
                starts,
                frozenset(selection_bits(s) for s, _, _ in report.unique_extrema),
            )
            for problem, starts, seed, args, kwargs, report, _, _ in self.captured
        )

    def pool_check(self):
        # a quarter of the instances keeps the two runs at a few seconds
        config = dataclasses.replace(self.config, instances=max(1, self.config.instances // 4))
        walls, texts = [], []
        for threads in (1, 2):
            out = self.workdir / f"pool{threads}"
            t0 = clock()
            paths = iw_experiments.run_extrema_count(config, out, threads=threads)
            walls.append(clock() - t0)
            texts.append([Path(p).read_bytes() for p in paths])
        return texts[0] == texts[1], walls[0] / walls[1]


def _check_census_ops(ops):
    failures = {}
    by_inst: dict = {}
    for op in ops:
        if op.error or not op.data:
            continue
        d = op.data
        if d["hits"] != d["starts"]:
            failures[op.key] = f"census hits sum to {d['hits']}, not {d['starts']} starts"
        elif d["value"] != d["first_value"]:
            failures[op.key] = "best value is not the first census entry"
        by_inst.setdefault(d["instance"], {})[d["sense"]] = (op.key, d["value"])
    for senses in by_inst.values():
        if "min" in senses and "max" in senses and senses["min"][1] > senses["max"][1]:
            failures[senses["min"][0]] = "min bound exceeds max bound"
    return failures


def _multistart_replays(calls, limit: int = 48):
    """One-start replays of captured multistart calls, spread over the calls.

    `calls` yields (problem, seed, order, starts, census).  A replay is
    `multistart(problem, 1, seed)`: start 0 of the real call, drawn and
    descended on the same mask path, so its fixed point must be one of the
    census selections.
    """
    calls = list(calls)
    return [
        Replay(problem, order, census, seed=seed)
        for problem, seed, order, _, census in calls[:: max(1, len(calls) // limit)][:limit]
    ]


# --- multistart-wide -----------------------------------------------------------


class MultistartWide(Workload):
    """In-process `intervalwalk bounds --sense both` on wide generated instances."""

    name = "multistart-wide"
    # (vertices, steps, free-edge band, instances, starts).  A bounds call
    # takes 1-5 s at 300 starts, so a run holds only a few instances, and
    # their op times differ by a CV of about 0.3.  The instances therefore
    # come from a fixed stream (INSTANCE_SEED), not from the workload seed,
    # which drives every start instead; the run then measures the same
    # instances on every seed.
    sizes = {
        "default": {"shapes": ((12, 8, 48, 51, 6, 300), (20, 10, 140, 145, 1, 300))},
        "tiny": {"shapes": ((6, 3, 8, 15, 1, 4),)},
    }
    INSTANCE_SEED = 0
    # A pass takes about 12 s: two fit a run, with 14 ops in all, so no
    # percentile has ten ops beyond it.  Six 12x8 ops to one 20x10 op put
    # the op median in the middle of the 12x8 ops.  The p90 would be the one
    # 20x10 op, twice, whose time swings by 20% between runs of one seed;
    # the p75 is the slowest 12x8 ops, with three or four ops beyond it.
    min_passes = 2
    min_ops = 0
    tail_pct = 75
    # An op of seconds averages out the machine's speed noise from one tenth
    # of a second to the next, which a single calibration catches.  So a
    # longer calibration is taken before every op, and all ops of a pass are
    # scaled by their median: over 8 runs of the same inputs this gave pass
    # spreads (IQR/median) of 0.04 against 0.16 unscaled, and op p90
    # spreads of 0.10 against 0.14 with per-op scales.
    calibration_iterations = 10000
    scale_by_pass = True
    # a set-up holds one 300-start warm-up op
    setup_repeats = 3

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.instances = []
        self._last_ops: list[Op] = []

    def starts_per_pass(self):
        return sum(2 * inst[-1] for inst in self.instances)

    def setup(self):
        found = _banded_instances(self.INSTANCE_SEED, 2, [s[:5] for s in self.params["shapes"]])
        starts = {f"{v}x{n}": s for v, n, *_, s in self.params["shapes"]}
        for k, (key, bounds, q, f, steps, gen_seed) in enumerate(found):
            path = self.workdir / f"instance{k}.json"
            instance = iw_instancefile.ProblemInstance(
                iw_graph.StateSpace.of_size(bounds.size), bounds, q, f, steps
            )
            iw_instancefile.save_instance(path, instance)
            self.instances.append(
                (key, path, bounds, q, f, steps, _seed_stream(self.seed, 2, 99, k), starts[key.split("/")[0]])
            )
        self._bounds_call(self.instances[0], self.workdir / "warm.json")

    def _bounds_call(self, inst, out_path):
        _, path, *_, ms_seed, starts = inst
        argv = ["bounds", str(path), "--starts", str(starts), "--seed", str(ms_seed),
                "--sense", "both", "--out", str(out_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            return iw_cli.main(argv)

    def run_pass(self):
        ops = []
        spent = self._spent()
        t_pass = clock()
        for k, inst in enumerate(self.instances):
            out_path = self.workdir / f"bounds{k}.json"
            ops.append(self._op(inst[0], lambda: self._bounds_call(inst, out_path),
                                lambda code: _bounds_summary(code, out_path)))
        self._last_ops = ops
        return self._finish(t_pass, spent, ops)

    def check(self, ops):
        failures = {}
        for op in ops:
            if op.error:
                continue
            d = op.data
            for sense in ("min", "max"):
                s = d.get(sense)
                if s is None:
                    failures[op.key] = f"no {sense} result"
                elif s["hits"] != d["starts"]:
                    failures[op.key] = f"{sense} census hits sum to {s['hits']}, not {d['starts']}"
                elif s["value"] != s["first_value"]:
                    failures[op.key] = f"{sense} value is not the first census entry"
            if op.key not in failures and d["min"]["value"] > d["max"]["value"]:
                failures[op.key] = "min bound exceeds max bound"
        return failures

    def reference_entry(self, op):
        return {
            sense: {"value": op.data[sense]["value"], "digest": op.data[sense]["digest"]}
            for sense in ("min", "max")
        }

    def census(self, ops):
        return [
            (o.data["starts"], o.data[s]["distinct"], o.data[s]["best_hits"])
            for o in ops if o.data for s in ("min", "max")
        ]

    def replays(self, results):
        calls = []
        ops_by_key = {op.key: op for op in self._last_ops}
        for key, _path, bounds, q, f, steps, ms_seed, starts in self.instances:
            op = ops_by_key.get(key)
            if op is None or not op.data:
                continue
            for sense in (iw_optimize.Sense.MIN, iw_optimize.Sense.MAX):
                problem = iw_optimize.OptimizationProblem(bounds, q, f, steps, sense)
                census = frozenset(op.data[sense.value]["census"])
                calls.append((problem, ms_seed, iw_optimize.SweepOrder.LEFT_TO_RIGHT, starts, census))
        return _multistart_replays(calls)

    def traced_extras(self):
        for k, (_, _, bounds, q, f, steps, _, _) in enumerate(self.instances):
            instance = iw_instancefile.ProblemInstance(iw_graph.StateSpace.of_size(bounds.size), bounds, q, f, steps)
            path = self.workdir / f"resave{k}.json"
            iw_instancefile.save_instance(path, instance)
            iw_instancefile.load_instance(path)


def _bounds_summary(code, out_path):
    """Census summary of a `bounds --out` record."""
    if code != 0:
        raise RuntimeError(f"bounds exited with {code}")
    record = json.loads(Path(out_path).read_text(encoding="utf-8"))
    data = {"starts": record["starts"]}
    for sense, res in record["results"].items():
        unique = res["unique_extrema"]
        data[sense] = {
            "value": res["value"],
            "first_value": unique[0]["value"],
            "hits": sum(u["hits"] for u in unique),
            "distinct": len(unique),
            "best_hits": unique[0]["hits"],
            "digest": _digest(f"{schedule_json_bits(u['schedule'])}:{u['hits']}" for u in unique),
            "census": [schedule_json_bits(u["schedule"]) for u in unique],
        }
    return data


# --- sweep-orders ------------------------------------------------------------------


class SweepOrders(Workload):
    """experiments.run_sweep_comparison, one instance per op, both orders."""

    name = "sweep-orders"
    # (vertices, steps, starts): the starts give both cells about the same op
    # time, so the op median sits inside one cluster.  The p90 tail falls on
    # the slowest instances, so a pass holds 48 of them for it to be steady
    # from seed to seed.
    sizes = {
        "default": {"cells": ((6, 4, 22), (8, 6, 12)), "instances": 24},
        "tiny": {"cells": ((4, 2, 4),), "instances": 2},
    }

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        p = self.params
        self.configs = [
            (
                f"{v}x{n}/{k}",
                iw_experiments.ExperimentConfig(
                    cells=((v, n),), instances=1, starts=starts, seed=_seed_stream(seed, 3, ci, k)
                ),
            )
            for ci, (v, n, starts) in enumerate(p["cells"])
            for k in range(p["instances"])
        ]

    def starts_per_pass(self):
        return sum(2 * 2 * config.starts for _, config in self.configs)

    def setup(self):
        iw_experiments.run_sweep_comparison(self.configs[0][1], self.workdir / "warm", threads=1)

    def run_pass(self):
        ops = []
        spent = self._spent()
        t_pass = clock()
        for k, (key, config) in enumerate(self.configs):
            ops.append(self._op(
                key,
                lambda: iw_experiments.run_sweep_comparison(config, self.workdir / f"op{k}", threads=1),
                lambda paths: _sweep_summary(paths[0], config.starts),
            ))
        return self._finish(t_pass, spent, ops)

    def check(self, ops):
        failures = {}
        for op in ops:
            if op.error:
                continue
            d = op.data
            for sense in ("min", "max"):
                s = d.get(sense)
                if s is None:
                    failures[op.key] = f"no {sense} rows"
                    break
                if abs(s["freq_lr"] - 1.0) > 1e-9 or abs(s["freq_rl"] - 1.0) > 1e-9:
                    failures[op.key] = f"{sense} sweep frequencies do not sum to 1 per order"
                elif not all(0.0 <= x <= 1.0 for x in s["fractions"]):
                    failures[op.key] = f"{sense} disagreement fraction outside [0, 1]"
            if op.key not in failures and d["min"]["best"] > d["max"]["best"]:
                failures[op.key] = "min bound exceeds max bound"
        return failures

    def reference_entry(self, op):
        d = op.data
        return {"min": d["min"]["best"], "max": d["max"]["best"], "digest": d["digest"]}

    def census(self, ops):
        out = []
        for o in ops:
            for s in ("min", "max"):
                if o.data and s in o.data:
                    out.append((o.data["starts"], o.data[s]["distinct"], o.data[s]["best_hits"]))
        return out

    def replays(self, results):
        out = []
        for name, args, kwargs, _ in results:
            if name == "optimize.descent_lr":
                out.append(Replay(args[0], iw_optimize.SweepOrder.LEFT_TO_RIGHT, None, start=tuple(args[1])))
        return out[:: max(1, len(out) // 48)][:48]

    def pool_check(self):
        config = dataclasses.replace(
            self.configs[0][1],
            cells=tuple((v, n) for v, n, _ in self.params["cells"]),
            instances=self.params["instances"],
            seed=self.seed,
        )
        walls, texts = [], []
        for threads in (1, 2):
            t0 = clock()
            paths = iw_experiments.run_sweep_comparison(config, self.workdir / f"pool{threads}", threads=threads)
            walls.append(clock() - t0)
            texts.append([Path(p).read_bytes() for p in paths])
        return texts[0] == texts[1], walls[0] / walls[1]


def _sweep_summary(csv_path, starts):
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    data = {"starts": starts}
    for sense in ("min", "max"):
        mine = [r for r in rows if r["sense"] == sense]
        if not mine:
            continue
        values = [float(r["extremum_value"]) for r in mine]
        lr = [float(r["freq_left_to_right"]) for r in mine]
        best = min(values) if sense == "min" else max(values)
        best_row = values.index(best)
        data[sense] = {
            "best": best,
            "freq_lr": sum(lr),
            "freq_rl": sum(float(r["freq_right_to_left"]) for r in mine),
            "fractions": sorted({float(r["order_disagreement_fraction"]) for r in mine}),
            "distinct": len(mine),
            "best_hits": round(lr[best_row] * starts),
        }
    data["digest"] = _digest(
        (r["sense"], r["freq_left_to_right"], r["freq_right_to_left"], r["order_disagreement_fraction"])
        for r in rows
    )
    return data


# --- oracle-exact ------------------------------------------------------------------


class OracleExact(Workload):
    """oracle.exact_bounds on a deep-narrow and a shallow-wide shape."""

    name = "oracle-exact"
    # (vertices, steps, free-edge band, instances): deep-narrow is bound by the Python
    # DFS calls, shallow-wide by the per-node einsum and argopt tracking.
    sizes = {
        "default": {"shapes": ((4, 4, 4, 4, 3), (6, 2, 10, 10, 3))},
        "tiny": {"shapes": ((4, 2, 3, 4, 1), (5, 2, 4, 5, 1))},
    }

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.instances = []

    def schedules_per_pass(self):
        return float(sum((1 << len(b.free_edges)) ** n for _, b, _, _, n, _ in self.instances))

    def starts_per_pass(self):
        # exact bounds for both senses equal a multistart from every
        # extremal schedule, once per sense
        return 2.0 * self.schedules_per_pass()

    def setup(self):
        self.instances = _banded_instances(self.seed, 4, self.params["shapes"])
        _, bounds, q, f, n, _ = self.instances[0]
        iw_oracle.exact_bounds(bounds, q, f, n)

    def run_pass(self):
        ops = []
        spent = self._spent()
        t_pass = clock()
        for key, bounds, q, f, n, _ in self.instances:
            ops.append(self._op(
                key,
                lambda: iw_oracle.exact_bounds(bounds, q, f, n),
                lambda result: {"result": result, "bounds": bounds, "q": q, "f": f,
                                "schedules": (1 << len(bounds.free_edges)) ** n},
            ))
        return self._finish(t_pass, spent, ops)

    def check(self, ops):
        failures = {}
        for op in ops:
            if op.error or not op.data:
                continue
            r, bounds = op.data["result"], op.data["bounds"]
            if r.minimum > r.maximum:
                failures[op.key] = "min bound exceeds max bound"
            elif not r.argmin or not r.argmax:
                failures[op.key] = "empty argopt set"
            else:
                for target, sched in ((r.minimum, r.argmin[0]), (r.maximum, r.argmax[0])):
                    weights = [iw_graph.weight_from_selection(bounds, sel) for sel in sched]
                    value = iw_chain.expectation(bounds, op.data["q"], weights, op.data["f"])
                    if not close_rel(value, target):
                        failures[op.key] = f"argopt schedule evaluates to {value!r}, not {target!r}"
        return failures

    def reference_entry(self, op):
        r = op.data["result"]
        return {"min": r.minimum, "max": r.maximum, "argmin": len(r.argmin), "argmax": len(r.argmax)}

    def traced_extras(self):
        for _, bounds, *_ in self.instances:
            iw_oracle.enumerate_extremal(bounds)

    def shape_rates(self, ops) -> dict:
        """Schedules per second per shape, over all ops of the run."""
        rates = {}
        for label, (vertices, steps, *_) in zip(("deep", "wide"), self.params["shapes"]):
            prefix = f"{vertices}x{steps}/"
            mine = [o for o in ops if o.key.startswith(prefix) and not o.error]
            seconds = sum(o.seconds for o in mine)
            rates[label] = sum(o.data["schedules"] for o in mine) / seconds if seconds else 0.0
        return rates

    def argopt_count(self, ops) -> int:
        return sum(len(o.data["result"].argmin) + len(o.data["result"].argmax) for o in ops if not o.error)


WORKLOADS = {cls.name: cls for cls in (CensusGrid, MultistartWide, SweepOrders, OracleExact)}


def cleanup(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
