"""Experiment runners: CSV schemas, determinism, and cross-checks."""

import csv
import json

import numpy as np
import pytest

from intervalwalk import IntervalBounds, experiments, optimize
from intervalwalk.experiments import (
    ExperimentConfig,
    REFERENCE_MEAN_EXTREMA,
    config_from_dict,
    config_to_dict,
    run_deviation_curves,
    run_extrema_count,
    run_initial_vs_optimized,
    run_sweep_comparison,
)
from intervalwalk.optimize import Sense, SweepOrder


def small_config(**overrides):
    base = dict(cells=((3, 2), (4, 2)), instances=2, starts=8, seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_round_trip(self):
        config = small_config(sense=Sense.MAX, order=SweepOrder.RIGHT_TO_LEFT)
        assert config_from_dict(config_to_dict(config)) == config

    def test_string_orders_are_converted(self):
        config = ExperimentConfig(order="right-to-left")
        assert config == ExperimentConfig(order=SweepOrder.RIGHT_TO_LEFT)
        assert config.order is SweepOrder.RIGHT_TO_LEFT

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="sideways"):
            ExperimentConfig(order="sideways")

    def test_echo_is_pinned(self):
        # the summary's config echo: every field, in declaration order
        config = ExperimentConfig(sense=Sense.MAX, order=SweepOrder.RIGHT_TO_LEFT, lower_mean=0.5)
        assert json.dumps(config_to_dict(config)) == (
            '{"cells": [[4, 2], [4, 4], [4, 6], [6, 2], [6, 4], [6, 6], [8, 2], [8, 4], [8, 6]], '
            '"instances": 50, "starts": 300, "seed": 0, "sense": "max", '
            '"order": "right-to-left", "disconnect_fraction": 0.25, "lower_mean": 0.5, '
            '"width_mean": 1.0, "qf_mean": 1.5, "marginal_slack": 0.1}'
        )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict({"instancess": 3})

    def test_bad_cell_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(cells=((1, 2),))

    def test_reference_table_covers_default_grid(self):
        assert set(ExperimentConfig().cells) == set(REFERENCE_MEAN_EXTREMA)


class TestExtremaCount:
    def test_schema_and_means(self, tmp_path):
        config = small_config()
        csv_path, summary_path = run_extrema_count(config, tmp_path)
        rows = read_rows(csv_path)
        assert rows[0] == [
            "vertices",
            "steps",
            "instance_id",
            "unique_local_minima",
            "unique_local_maxima",
        ]
        # 2 instances + 1 mean row per cell
        assert len(rows) == 1 + len(config.cells) * (config.instances + 1)
        mean_rows = [r for r in rows[1:] if r[2] == "mean"]
        assert len(mean_rows) == len(config.cells)
        for cell_row in mean_rows:
            v, n = int(cell_row[0]), int(cell_row[1])
            members = [
                r for r in rows[1:] if r[2] != "mean" and int(r[0]) == v and int(r[1]) == n
            ]
            assert float(cell_row[3]) == pytest.approx(
                np.mean([float(r[3]) for r in members])
            )
        summary = json.loads(summary_path.read_text())
        assert summary["config"]["seed"] == config.seed
        assert len(summary["cells"]) == len(config.cells)

    def test_byte_determinism_and_thread_independence(self, tmp_path):
        config = small_config()
        p1, s1 = run_extrema_count(config, tmp_path / "a")
        p2, s2 = run_extrema_count(config, tmp_path / "b")
        p3, s3 = run_extrema_count(config, tmp_path / "c", threads=2)
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
        assert s1.read_bytes() == s2.read_bytes() == s3.read_bytes()


class TestSweepComparison:
    def test_frequencies_sum_to_one_per_order(self, tmp_path):
        config = small_config()
        csv_path, summary_path = run_sweep_comparison(config, tmp_path)
        rows = read_rows(csv_path)
        assert rows[0][3] == "sense" and rows[0][4] == "extremum_value"
        groups = {}
        for r in rows[1:]:
            key = (r[0], r[1], r[2], r[3])
            lr, rl = float(r[5]), float(r[6])
            a, b = groups.get(key, (0.0, 0.0))
            groups[key] = (a + lr, b + rl)
        for lr_total, rl_total in groups.values():
            assert lr_total == pytest.approx(1.0)
            assert rl_total == pytest.approx(1.0)
        summary = json.loads(summary_path.read_text())
        for item in summary["instances"]:
            for fraction in item["disagreement_fraction"].values():
                assert 0.0 <= fraction <= 1.0

    def test_thread_independence(self, tmp_path):
        config = small_config()
        p1, s1 = run_sweep_comparison(config, tmp_path / "a")
        p2, s2 = run_sweep_comparison(config, tmp_path / "b", threads=2)
        assert p1.read_bytes() == p2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_tied_extrema_are_ordered_by_selection(self, tmp_path, monkeypatch):
        # on this triangle two distinct one-step extrema share a value bit for bit
        lower = np.full((3, 3), 0.2)
        upper = np.full((3, 3), 0.4)
        np.fill_diagonal(lower, 0.0)
        np.fill_diagonal(upper, 0.0)
        instance = (IntervalBounds(lower, upper, np.ones(3)), np.array([1.0, 0, 0]), np.arange(3.0))
        monkeypatch.setattr(experiments, "generate_instance", lambda params: instance)
        config = small_config(cells=((3, 1),), instances=1, starts=20)
        csv_path, _ = run_sweep_comparison(config, tmp_path)
        rows = read_rows(csv_path)[1:]
        for sense in ("min", "max"):
            values = [r[4] for r in rows if r[3] == sense]
            assert len(values) == 2 and values[0] == values[1]
            assert sum(float(r[5]) for r in rows if r[3] == sense) == pytest.approx(1.0)

    def test_no_free_edges(self, tmp_path, monkeypatch):
        # every interval a point: both orders of every start reach the one
        # empty schedule, so each sense has one census row hit by every start
        generate = experiments.generate_instance

        def pinned(params):
            bounds, q, f = generate(params)
            return IntervalBounds(bounds.lower, bounds.lower, bounds.marginal), q, f

        monkeypatch.setattr(experiments, "generate_instance", pinned)
        config = small_config(cells=((4, 3),), instances=2, starts=9)
        csv_path, summary_path = run_sweep_comparison(config, tmp_path)
        rows = read_rows(csv_path)[1:]
        assert [(r[2], r[3]) for r in rows] == [("0", "min"), ("0", "max"), ("1", "min"), ("1", "max")]
        assert all(r[5:] == ["1.0", "1.0", "0.0"] for r in rows)
        summary = json.loads(summary_path.read_text())
        fractions = [item["disagreement_fraction"] for item in summary["instances"]]
        assert fractions == [{"min": 0.0, "max": 0.0}] * 2

    def test_two_state_orders_agree_on_best(self, tmp_path, two_state):
        # only two basins: both orders must report the same best values
        from intervalwalk import OptimizationProblem, multistart

        problem = OptimizationProblem(two_state.bounds, two_state.q, two_state.f, 2)
        lr = multistart(problem, 16, seed=1, order=SweepOrder.LEFT_TO_RIGHT)
        rl = multistart(problem, 16, seed=1, order=SweepOrder.RIGHT_TO_LEFT)
        assert lr.best.value == pytest.approx(rl.best.value, abs=1e-12)


class TestMapTasks:
    def test_threads_clamped_to_cpu_count(self, monkeypatch):
        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks):
                return map(func, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        assert experiments._map_tasks(abs, [-1, -2], 64) == [1, 2]
        assert seen == [3]
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert experiments._map_tasks(abs, [-1, -2], 64) == [1, 2]
        assert seen == [3]  # unknown CPU count: run serially

    @pytest.mark.parametrize(
        "threads, message",
        [
            pytest.param(0, "threads must be at least 1, got 0", id="zero"),
            pytest.param(-3, "threads must be at least 1, got -3", id="negative"),
            pytest.param(2.5, "threads must be an integer, got 2.5", id="float"),
            pytest.param(True, "threads must be an integer, got True", id="bool"),
        ],
    )
    def test_bad_threads_rejected(self, tmp_path, threads, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_extrema_count(small_config(), tmp_path / "out", threads=threads)
        assert not (tmp_path / "out").exists()


class TestInitialVsOptimized:
    def test_optimized_never_worse_and_correlations_recorded(self, tmp_path):
        config = small_config()
        csv_path, summary_path = run_initial_vs_optimized(config, tmp_path)
        rows = read_rows(csv_path)
        assert rows[0][-2:] == ["start_value", "optimized_value"]
        assert len(rows) == 1 + len(config.cells) * config.instances * config.starts
        for r in rows[1:]:
            assert float(r[5]) <= float(r[4]) + 1e-12
        summary = json.loads(summary_path.read_text())
        assert len(summary["instances"]) == len(config.cells) * config.instances

    def test_max_sense_flips_inequality(self, tmp_path):
        config = small_config(sense=Sense.MAX)
        csv_path, _ = run_initial_vs_optimized(config, tmp_path)
        for r in read_rows(csv_path)[1:]:
            assert float(r[5]) >= float(r[4]) - 1e-12

    def test_thread_independence(self, tmp_path):
        config = small_config(sense=Sense.MAX)
        p1, s1 = run_initial_vs_optimized(config, tmp_path / "a")
        p2, s2 = run_initial_vs_optimized(config, tmp_path / "b", threads=2)
        assert p1.read_bytes() == p2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()


class TestDeviationCurves:
    def test_monotone_and_dominating(self, tmp_path):
        config = small_config(cells=((4, 3),), instances=3, starts=12)
        csv_path, summary_path = run_deviation_curves(config, tmp_path)
        rows = read_rows(csv_path)
        assert rows[0] == [
            "sample_size",
            "avg_rel_dev_optimized",
            "avg_rel_dev_random",
            "max_rel_dev_optimized",
            "max_rel_dev_random",
        ]
        data = np.array([[float(x) for x in r] for r in rows[1:]])
        assert len(data) == config.starts
        assert np.all(np.diff(data[:, 1]) <= 1e-12)  # averages non-increasing
        assert np.all(np.diff(data[:, 3]) <= 1e-12)  # maxima non-increasing
        assert np.all(data[:, 1] <= data[:, 2] + 1e-12)  # optimized dominates
        assert np.all(data[:, 3] <= data[:, 4] + 1e-12)
        assert data[-1, 1] == pytest.approx(0.0, abs=1e-12)  # full budget self-reference
        summary = json.loads(summary_path.read_text())
        assert summary["parameter_sets"] == 3
        assert all(item["best_value"] > 0 for item in summary["best_values"])

    def test_negative_q_or_f_refused_before_any_descent(self, tmp_path, two_state, monkeypatch):
        def no_descent(*args):
            raise AssertionError("descended a refused instance")

        monkeypatch.setattr(optimize, "_descend_chunk", no_descent)
        config = small_config(cells=((2, 2),), instances=1, starts=4)
        for q, f in (([-1.0, 0.0], [0.0, 1.0]), ([1.0, 0.0], [0.0, -1.0])):
            instance = (two_state.bounds, np.array(q), np.array(f))
            monkeypatch.setattr(experiments, "generate_instance", lambda params: instance)
            with pytest.raises(ValueError, match="nonnegative q and f"):
                run_deviation_curves(config, tmp_path / "r")
            assert not (tmp_path / "r").exists()

    def test_byte_determinism(self, tmp_path):
        config = small_config(cells=((4, 3),), instances=2, starts=6)
        p1, s1 = run_deviation_curves(config, tmp_path / "a")
        p2, s2 = run_deviation_curves(config, tmp_path / "b", threads=2)
        assert p1.read_bytes() == p2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()
