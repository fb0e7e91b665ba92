"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criteria 6 and 7 regenerate experiment data at the scaled
configuration and take a few minutes.
"""

import csv
import time

import numpy as np
import pytest

from conftest import random_weight
from intervalwalk import (
    GenParams,
    OptimizationProblem,
    Sense,
    SweepOrder,
    WeightFunction,
    close,
    detailed_balance_residual,
    edge_gradient,
    enumerate_extremal,
    exact_bounds,
    expectation,
    forward_step,
    generate_instance,
    improve_at,
    local_optimize,
    multistart,
    multistart_exhaustive,
    one_step_minimizer,
    random_extremal_schedule,
    selection_of,
    sequence_lower_probability,
    stationary_distribution,
    transition_matrix,
)
from intervalwalk.cli import main
from intervalwalk.experiments import ExperimentConfig, run_deviation_curves, run_extrema_count


def _report(number: int, name: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} in {elapsed:.2f}s")


class _Criterion:
    def __init__(self, number, name, time_limit=None):
        self.number = number
        self.name = name
        self.time_limit = time_limit

    def __enter__(self):
        self.start = time.perf_counter()
        self.ok = False
        return self

    def done(self):
        self.ok = True

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        _report(self.number, self.name, self.ok and exc_type is None, elapsed)
        if self.time_limit is not None and elapsed >= self.time_limit:
            raise AssertionError(
                f"criterion {self.number} took {elapsed:.2f}s, limit {self.time_limit}s"
            )
        return False


def test_criterion_1_worked_example_exactness(two_state):
    with _Criterion(1, "worked-example exactness", time_limit=1.0) as crit:
        res = exact_bounds(two_state.bounds, two_state.q, two_state.f, 2)
        assert abs(res.minimum - 0.18) <= 1e-12
        assert abs(res.maximum - 0.74) <= 1e-12
        problem = OptimizationProblem(two_state.bounds, two_state.q, two_state.f, 2)
        report = multistart(problem, 64, seed=0)
        values = report.distinct_values()
        assert len(values) == 2
        assert abs(values[0] - 0.18) <= 1e-12
        assert abs(values[1] - 0.32) <= 1e-12
        crit.done()


def test_criterion_2_oracle_equivalence():
    with _Criterion(2, "oracle equivalence on 100 instances", time_limit=60.0) as crit:
        for trial in range(100):
            bounds, q, f = generate_instance(GenParams(s=3, seed=trial))
            n = 1 + trial % 3
            res = exact_bounds(bounds, q, f, n)
            lo = multistart_exhaustive(OptimizationProblem(bounds, q, f, n, Sense.MIN))
            hi = multistart_exhaustive(OptimizationProblem(bounds, q, f, n, Sense.MAX))
            assert abs(lo.best.value - res.minimum) <= 1e-12 * max(1.0, abs(res.minimum))
            assert abs(hi.best.value - res.maximum) <= 1e-12 * max(1.0, abs(res.maximum))
        crit.done()


def test_criterion_3_optimality_principle():
    with _Criterion(3, "one-step optimality principle, 200 trials") as crit:
        rng = np.random.default_rng(2024)
        for trial in range(200):
            s = int(rng.integers(3, 6))  # at most 10 free edges
            bounds, _, _ = generate_instance(GenParams(s=s, seed=trial))
            assert len(bounds.free_edges) <= 12
            q = rng.normal(size=s)
            f = rng.normal(size=s)
            w_best, _ = one_step_minimizer(bounds, q, f)
            best = expectation(bounds, q, (w_best,), f)
            for _, w in enumerate_extremal(bounds):
                assert best <= expectation(bounds, q, (w,), f) + 1e-12

            # mass shift along an edge moves the value by exactly -d * gradient
            w = random_weight(bounds, rng)
            gradient = edge_gradient(bounds, q, f)
            for x, y in bounds.free_edges:
                room = w.offdiag[x, y] - bounds.lower[x, y]
                if room <= 0.0:
                    continue
                d = room * float(rng.random())
                offdiag = w.offdiag.copy()
                offdiag[x, y] -= d
                offdiag[y, x] -= d
                shifted = WeightFunction(offdiag, bounds.marginal - offdiag.sum(axis=1))
                drop = expectation(bounds, q, (w,), f) - expectation(bounds, q, (shifted,), f)
                assert close(drop, d * gradient[x, y])
        crit.done()


def test_criterion_4_chain_theory_properties():
    with _Criterion(4, "chain-theory property suite, 1000 trials each") as crit:
        rng = np.random.default_rng(77)
        instances = [
            generate_instance(GenParams(s=2 + seed % 5, seed=seed))[0] for seed in range(40)
        ]

        for trial in range(1000):  # duality of the two actions
            bounds = instances[trial % len(instances)]
            s = bounds.size
            q = rng.normal(size=s)
            f = rng.normal(size=s)
            schedule = tuple(
                random_weight(bounds, rng) for _ in range(int(rng.integers(0, 6)))
            )
            pushed = q
            for w in schedule:
                pushed = forward_step(bounds, pushed, w)
            assert close(float(pushed @ f), expectation(bounds, q, schedule, f))

        for trial in range(1000):  # row stochasticity
            bounds = instances[trial % len(instances)]
            p = transition_matrix(bounds, random_weight(bounds, rng))
            assert np.all(p >= 0.0)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12

        for trial in range(1000):  # stationarity of W(x) / W
            bounds = instances[trial % len(instances)]
            pi = stationary_distribution(bounds)
            w = random_weight(bounds, rng)
            assert np.max(np.abs(forward_step(bounds, pi, w) - pi)) <= 1e-12

        for trial in range(1000):  # detailed balance
            bounds = instances[trial % len(instances)]
            assert detailed_balance_residual(bounds, random_weight(bounds, rng)) <= 1e-12

        small = [generate_instance(GenParams(s=3, seed=500 + k))[0] for k in range(10)]
        stacks = [
            [transition_matrix(b, w) for _, w in enumerate_extremal(b)] for b in small
        ]
        for trial in range(1000):  # sequence lower probabilities vs enumeration
            pick = trial % len(small)
            bounds, mats = small[pick], stacks[pick]
            pi = stationary_distribution(bounds)
            path = rng.integers(0, 3, size=int(rng.integers(2, 5))).tolist()
            factors = [np.array([p[a, b] for p in mats]) for a, b in zip(path, path[1:])]
            products = factors[0]
            for vec in factors[1:]:
                products = np.multiply.outer(products, vec)
            brute = pi[path[0]] * products.min()
            assert close(brute, sequence_lower_probability(bounds, path))
        crit.done()


def test_criterion_5_fixed_point_and_descent():
    with _Criterion(5, "fixed point, descent, extremality, 1000 runs") as crit:
        rng = np.random.default_rng(99)
        for run in range(1000):
            bounds, q, f = generate_instance(GenParams(s=int(rng.integers(3, 6)), seed=run))
            n = int(rng.integers(1, 5))
            sense = Sense.MIN if run % 2 else Sense.MAX
            order = SweepOrder.LEFT_TO_RIGHT if run % 3 else SweepOrder.RIGHT_TO_LEFT
            problem = OptimizationProblem(bounds, q, f, n, sense)
            start = random_extremal_schedule(bounds, n, run)
            result = local_optimize(problem, start, order)

            diffs = np.diff(result.trace)
            assert np.all(diffs < 0) if sense is Sense.MIN else np.all(diffs > 0)
            schedule = result.schedule(bounds)
            for sel, w in zip(result.selections, schedule):
                assert selection_of(bounds, w) == sel
            tolerance = 1e-12 * max(1.0, abs(result.value))
            for k in range(n):
                _, candidate = improve_at(problem, schedule, k)
                gap = (
                    result.value - candidate
                    if sense is Sense.MIN
                    else candidate - result.value
                )
                assert gap <= tolerance
        crit.done()


@pytest.mark.slow
def test_criterion_6_extrema_census_trend(tmp_path):
    with _Criterion(6, "extrema census trend at scaled config", time_limit=1800.0) as crit:
        config = ExperimentConfig(instances=50, starts=300, seed=0)
        csv_path, _ = run_extrema_count(config, tmp_path, threads=2)
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        combined = {}
        for row in rows[1:]:
            if row[2] != "mean":
                continue
            cell = (int(row[0]), int(row[1]))
            combined[cell] = (float(row[3]) + float(row[4])) / 2.0
        print("  mean unique extrema per cell (reference at 200x1500 in parens):")
        from intervalwalk.experiments import REFERENCE_MEAN_EXTREMA

        for cell in config.cells:
            print(f"    {cell}: {combined[cell]:.2f} ({REFERENCE_MEAN_EXTREMA[cell]})")
        for v in (4, 6, 8):
            series = [combined[(v, n)] for n in (2, 4, 6)]
            assert series[0] < series[1] < series[2], f"steps trend broken at {v} vertices"
        for n in (2, 4, 6):
            series = [combined[(v, n)] for v in (4, 6, 8)]
            assert series[0] < series[1] < series[2], f"vertex trend broken at {n} steps"
        crit.done()


@pytest.mark.slow
def test_criterion_7_deviation_curves(tmp_path):
    with _Criterion(7, "deviation curves dominate random starts", time_limit=1800.0) as crit:
        config = ExperimentConfig(cells=((8, 8),), instances=30, starts=500, seed=0)
        csv_path, _ = run_deviation_curves(config, tmp_path, threads=2)
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        data = np.array([[float(x) for x in row] for row in rows[1:]])
        assert data.shape == (500, 5)
        for col in (1, 2, 3, 4):
            assert np.all(np.diff(data[:, col]) <= 1e-12), "curve not non-increasing"
        assert np.all(data[:, 1] <= data[:, 2] + 1e-12), "avg optimized above random"
        assert np.all(data[:, 3] <= data[:, 4] + 1e-12), "max optimized above random"
        assert data[-1, 1] == 0.0
        print(
            "  avg deviation at sample sizes 1/10/100/500 (optimized vs random): "
            + ", ".join(
                f"{data[m - 1, 1]:.2f}%/{data[m - 1, 2]:.2f}%" for m in (1, 10, 100, 500)
            )
        )
        crit.done()


def test_criterion_8_cli_byte_determinism(tmp_path, two_state):
    with _Criterion(8, "seeded CLI commands are byte-identical") as crit:
        from intervalwalk import ProblemInstance, StateSpace, save_instance

        instance_path = tmp_path / "inst.json"
        outputs = []
        for tag in ("a", "b"):
            work = tmp_path / tag
            work.mkdir()
            gen_path = work / "gen.json"
            assert main(["gen", "--vertices", "5", "--steps", "3", "--seed", "21",
                         "--out", str(gen_path)]) == 0
            save_instance(
                instance_path,
                ProblemInstance(
                    StateSpace(("1", "2")), two_state.bounds, two_state.q, two_state.f, 2
                ),
            )
            bounds_path = work / "bounds.json"
            assert main(["bounds", str(instance_path), "--starts", "24", "--seed", "3",
                         "--out", str(bounds_path)]) == 0
            oracle_path = work / "oracle.json"
            assert main(["oracle", str(gen_path), "--out", str(oracle_path)]) == 0
            exp_dir = work / "exp"
            assert main(["exp-count", "--cells", "3x2", "--instances", "2", "--starts", "6",
                         "--seed", "1", "--out", str(exp_dir)]) == 0
            assert main(["exp-dev", "--cells", "4x3", "--instances", "2", "--starts", "8",
                         "--seed", "1", "--out", str(exp_dir)]) == 0
            outputs.append(
                [
                    gen_path.read_bytes(),
                    bounds_path.read_bytes(),
                    oracle_path.read_bytes(),
                    (exp_dir / "extrema_counts.csv").read_bytes(),
                    (exp_dir / "extrema_counts_summary.json").read_bytes(),
                    (exp_dir / "deviation_curves.csv").read_bytes(),
                    (exp_dir / "deviation_curves_summary.json").read_bytes(),
                ]
            )
        assert outputs[0] == outputs[1]
        crit.done()
