"""Command line interface: flows, exit codes, and output determinism."""

import json

import numpy as np
import pytest

from intervalwalk import (
    GenParams,
    ProblemInstance,
    StateSpace,
    generate_instance,
    load_instance,
    save_instance,
)
from intervalwalk import cli, experiments
from intervalwalk.cli import main


@pytest.fixture
def example_file(tmp_path, two_state):
    path = tmp_path / "example.json"
    instance = ProblemInstance(
        StateSpace(("1", "2")), two_state.bounds, two_state.q, two_state.f, 2
    )
    save_instance(path, instance)
    return path


class TestValidateCommand:
    def test_valid_instance(self, example_file, capsys):
        assert main(["validate", str(example_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_instance_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = {
            "states": ["a", "b"],
            "lower": [[0.0, 0.2], [0.2, 0.0]],
            "upper": [[0.0, 0.9], [0.9, 0.0]],
            "marginal": [0.5, 1.0],
            "q": [1.0, 0.0],
            "f": [0.0, 1.0],
            "steps": 2,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "FEASIBILITY" in capsys.readouterr().out

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param("states", "ab", "states must be a list of labels, got 'ab'", id="string-states"),
            pytest.param("states", 2, "states must be a list of labels, got 2", id="number-states"),
            pytest.param("marginal", [10**400, 1.0], "marginal is not an array of numbers", id="huge-integer"),
            pytest.param("lower", [[0.0, 0.2], [0.2]], "lower is not an array of numbers", id="ragged"),
            pytest.param("upper", [[0.0, "x"], [0.9, 0.0]], "upper is not an array of numbers", id="string-entry"),
            pytest.param("q", {"a": 1.0}, "q is not an array of numbers", id="dict-vector"),
        ],
    )
    def test_malformed_field_exits_two_naming_it(self, example_file, capsys, field, value, message):
        doc = json.loads(example_file.read_text())
        doc[field] = value
        example_file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(example_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param("marginal", ["1.5", "1.5"], "marginal is not an array of numbers: '1.5'", id="string-numbers"),
            pytest.param("q", [True, False], "q is not an array of numbers: True", id="boolean-numbers"),
            pytest.param("states", {"a": 0, "b": 1}, "states must be a list of labels, got {", id="object-states"),
            pytest.param("states", [["0"], ["1"]], "states must be a list of labels, got [['0'], ['1']]", id="nested-states"),
            pytest.param("bogus", 1, "unknown instance fields: bogus", id="unknown-field"),
        ],
    )
    def test_loosely_typed_document_exits_two_naming_the_field(self, example_file, capsys, field, value, message):
        doc = json.loads(example_file.read_text())
        doc[field] = value
        example_file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(example_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["validate", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: cannot read {missing}: No such file or directory\n"


class TestBoundsCommand:
    def test_both_senses_with_record(self, example_file, tmp_path, capsys):
        out = tmp_path / "record.json"
        code = main(
            ["bounds", str(example_file), "--starts", "32", "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "lower bound: 0.17999999999999997" in text
        assert "upper bound: 0.7400000000000001" in text
        record = json.loads(out.read_text())
        assert record["results"]["min"]["value"] == pytest.approx(0.18, abs=1e-12)
        assert record["results"]["max"]["value"] == pytest.approx(0.74, abs=1e-12)
        values = sorted(e["value"] for e in record["results"]["min"]["unique_extrema"])
        assert values == pytest.approx([0.18, 0.32], abs=1e-12)
        # schedules name the states by label
        step = record["results"]["min"]["schedule"][0]
        assert step == [["1", "2", "upper"]]

    def test_deterministic_record(self, example_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["bounds", str(example_file), "--starts", "16", "--seed", "5", "--out", str(a)])
        main(["bounds", str(example_file), "--starts", "16", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_instance_refused(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "states": ["a", "b"],
            "lower": [[0.0, 0.0], [0.0, 0.0]],
            "upper": [[0.0, 0.5], [0.5, 0.0]],
            "marginal": [1.0, 1.0],
            "q": [1.0, 0.0],
            "f": [0.0, 1.0],
            "steps": 2,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["bounds", str(path)]) == 1

    def test_zero_steps_exit_one(self, example_file, tmp_path, capsys):
        doc = json.loads(example_file.read_text())
        doc["steps"] = 0
        example_file.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "record.json"
        assert main(["bounds", str(example_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: instance has steps = 0; nothing to optimize\n"
        assert not out.exists()

    @pytest.mark.parametrize("starts", ["0", "-1"])
    def test_starts_below_one_exit_two(self, example_file, tmp_path, capsys, starts):
        out = tmp_path / "record.json"
        assert main(["bounds", str(example_file), "--starts", starts, "--out", str(out)]) == 2
        assert f"--starts must be at least 1, got {starts}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_two(self, example_file, tmp_path, capsys):
        out = tmp_path / "record.json"
        assert main(["bounds", str(example_file), "--seed", "-1", "--out", str(out)]) == 2
        assert "--seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_steps_exit_two(self, example_file, tmp_path, capsys):
        doc = json.loads(example_file.read_text())
        doc["steps"] = 2.5
        example_file.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "record.json"
        assert main(["bounds", str(example_file), "--out", str(out)]) == 2
        assert "error: steps must be an integer, got 2.5" in capsys.readouterr().err
        assert not out.exists()


class TestOracleCommand:
    def test_exact_bounds(self, example_file, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert main(["oracle", str(example_file), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "exact lower bound: 0.17999999999999997" in text
        record = json.loads(out.read_text())
        assert record["minimum"] == pytest.approx(0.18, abs=1e-12)
        assert record["maximum"] == pytest.approx(0.74, abs=1e-12)
        assert len(record["argmax"]) == 2

    def test_budget_refusal(self, example_file, capsys):
        assert main(["oracle", str(example_file), "--budget", "1"]) == 1
        assert "budget" in capsys.readouterr().err

    def test_invalid_instance_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = {
            "states": ["a", "b"],
            "lower": [[0.0, 0.2], [0.2, 0.0]],
            "upper": [[0.0, 0.9], [0.9, 0.0]],
            "marginal": [0.5, 1.0],
            "q": [1.0, 0.0],
            "f": [0.0, 1.0],
            "steps": 2,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["oracle", str(path), "--out", str(tmp_path / "oracle.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: instance is not valid:" in captured.err and "FEASIBILITY" in captured.err
        assert not (tmp_path / "oracle.json").exists()

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_exits_two(self, example_file, capsys, budget):
        assert main(["oracle", str(example_file), "--budget", budget]) == 2
        assert f"budget must be at least 1, got {budget}" in capsys.readouterr().err


class TestGenCommand:
    def test_gen_validate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code = main(["gen", "--vertices", "5", "--steps", "3", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert main(["validate", str(out)]) == 0

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--vertices", "6", "--seed", "9", "--out", str(a)])
        main(["gen", "--vertices", "6", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flags,message",
        [
            pytest.param(["--vertices", "1"], "need at least two vertices", id="one-vertex"),
            pytest.param(
                ["--vertices", "3", "--steps", "-1"], "steps must be nonnegative", id="negative-steps"
            ),
            pytest.param(
                ["--vertices", "4", "--seed", "-1"], "seed must be non-negative, got -1", id="negative-seed"
            ),
            pytest.param(
                ["--vertices", "8", "--disconnect-fraction", "0.999"],
                "no connected adjacency on 8 vertices",
                id="disconnect-fraction-unreachable",
            ),
        ],
    )
    def test_bad_arguments_exit_two(self, tmp_path, capsys, flags, message):
        out = tmp_path / "g.json"
        assert main(["gen", *flags, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_generator_flags_reach_params(self, tmp_path):
        out = tmp_path / "g.json"
        flags = ["--disconnect-fraction", "0.4", "--lower-mean", "0.5", "--width-mean", "2.0"]
        flags += ["--qf-mean", "0.7", "--marginal-slack", "0.3"]
        assert main(["gen", "--vertices", "7", "--seed", "4", *flags, "--out", str(out)]) == 0
        params = GenParams(
            7, disconnect_fraction=0.4, lower_mean=0.5, width_mean=2.0, qf_mean=0.7, marginal_slack=0.3, seed=4
        )
        bounds, q, f = generate_instance(params)
        loaded = load_instance(out)
        np.testing.assert_array_equal(loaded.bounds.lower, bounds.lower)
        np.testing.assert_array_equal(loaded.bounds.upper, bounds.upper)
        np.testing.assert_array_equal(loaded.bounds.marginal, bounds.marginal)
        np.testing.assert_array_equal(loaded.q, q)
        np.testing.assert_array_equal(loaded.f, f)


class TestExperimentCommands:
    def test_exp_count_with_config_file(self, tmp_path, capsys):
        config = {
            "cells": [[3, 2]],
            "instances": 2,
            "starts": 6,
            "seed": 4,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "results"
        code = main(["exp-count", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "extrema_counts.csv").exists()
        summary = json.loads((out / "extrema_counts_summary.json").read_text())
        assert summary["config"]["cells"] == [[3, 2]]
        assert summary["config"]["starts"] == 6

    def test_cli_flags_override_config(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"cells": [[3, 2]], "instances": 2, "starts": 6}), "utf-8")
        out = tmp_path / "results"
        main(["exp-count", "--config", str(cfg), "--starts", "4", "--out", str(out)])
        summary = json.loads((out / "extrema_counts_summary.json").read_text())
        assert summary["config"]["starts"] == 4

    @pytest.mark.parametrize(
        "config,flags,message",
        [
            pytest.param([{"cells": [[3, 2]]}], [], "experiment config must be a JSON object", id="not-an-object"),
            pytest.param({"bogus": 1}, [], "unknown config fields: bogus", id="unknown-field"),
            pytest.param({"cells": []}, [], "need at least one (vertices, steps) cell", id="no-cells"),
            pytest.param({"instances": 0}, [], "instances and starts must be at least 1", id="no-instances"),
            pytest.param({"starts": 0}, [], "instances and starts must be at least 1", id="no-starts"),
            pytest.param({"cells": 5}, [], "cells must be a list", id="cells-not-a-list"),
            pytest.param({"cells": [[4, 2.5]]}, [], "bad cell (4, 2.5)", id="cell-not-integer"),
            pytest.param({"instances": "3"}, [], "instances must be an integer", id="instances-string"),
            pytest.param(
                {"instances": 2.5, "cells": [[3, 2]], "starts": 2},
                [],
                "instances must be an integer",
                id="instances-float",
            ),
            pytest.param({"seed": 1.5}, [], "seed must be an integer", id="seed-float"),
            pytest.param({"seed": -1}, [], "seed must be non-negative, got -1", id="seed-negative"),
            pytest.param(
                {},
                ["--cells", "3x2", "--instances", "1", "--starts", "2", "--seed", "-1"],
                "seed must be non-negative, got -1",
                id="seed-flag-negative",
            ),
            pytest.param(
                {"orders": 5}, [], 'config field "orders" is now "order"', id="orders-not-a-list"
            ),
            pytest.param(
                {"order": ["left-to-right"]},
                [],
                "['left-to-right'] is not a valid SweepOrder",
                id="order-is-a-list",
            ),
            pytest.param({"lower_mean": "x"}, [], "lower_mean must be a finite number", id="lower-mean-x"),
            pytest.param(
                {"disconnect_fraction": 1.5},
                [],
                "disconnect_fraction must be in [0, 1)",
                id="disconnect-fraction-out-of-range",
            ),
            pytest.param(
                {}, ["--cells", "4"], "bad --cells entry '4': expected VERTICESxSTEPS", id="cells-flag"
            ),
            pytest.param(
                {"disconnect_fraction": 0.999, "cells": [[8, 2]], "instances": 1, "starts": 2},
                [],
                "no connected adjacency on 8 vertices",
                id="disconnect-fraction-unreachable",
            ),
        ],
    )
    def test_bad_config_exits_two(self, tmp_path, capsys, config, flags, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        args = ["exp-count", "--config", str(cfg), *flags, "--out", str(tmp_path / "r")]
        assert main(args) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_two(self, tmp_path, capsys, threads):
        args = ["--cells", "3x2", "--instances", "1", "--starts", "2", "--threads", threads]
        assert main(["exp-count", *args, "--out", str(tmp_path / "r")]) == 2
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "command,filename",
        [
            ("exp-count", "extrema_counts.csv"),
            ("exp-sweep", "sweep_comparison.csv"),
            ("exp-scatter", "initial_vs_optimized.csv"),
            ("exp-dev", "deviation_curves.csv"),
        ],
    )
    def test_all_runners_are_deterministic(self, tmp_path, command, filename):
        # the CSV rows and summary entries are built in the worker processes
        # at --threads 2
        args = ["--cells", "3x2", "--instances", "2", "--starts", "5", "--seed", "2"]
        assert main([command, *args, "--out", str(tmp_path / "a")]) == 0
        assert main([command, *args, "--out", str(tmp_path / "b")]) == 0
        assert main([command, *args, "--threads", "2", "--out", str(tmp_path / "c")]) == 0
        for name in (filename, filename.replace(".csv", "_summary.json")):
            a, b, c = ((tmp_path / run / name).read_bytes() for run in "abc")
            assert a == b == c

    def test_sweep_takes_no_strategy(self, tmp_path, capsys):
        # the sweep comparison always runs both orders
        args = ["--cells", "3x2", "--instances", "1", "--starts", "2", "--strategy", "right-to-left"]
        with pytest.raises(SystemExit) as exc:
            main(["exp-sweep", *args, "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --strategy" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["exp-count", "exp-sweep"])
    def test_both_sense_runners_take_no_sense(self, tmp_path, capsys, command):
        # the census and the sweep comparison always run both senses
        args = ["--cells", "3x2", "--instances", "1", "--starts", "2", "--sense", "max"]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sense" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_missing_config_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["exp-count", "--config", str(missing), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: cannot read {missing}: No such file or directory\n"
        assert not (tmp_path / "r").exists()

    def test_strategy_sets_the_order(self, tmp_path):
        args = ["--cells", "3x2", "--instances", "1", "--starts", "2", "--strategy", "right-to-left"]
        assert main(["exp-scatter", *args, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "initial_vs_optimized_summary.json").read_text())
        assert summary["config"]["order"] == "right-to-left"


@pytest.mark.parametrize("command", ["bounds", "oracle", "gen", "exp-count"])
def test_unwritable_out_exits_two(example_file, tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = str(blocker / "x.json")
    argv = {
        "bounds": ["bounds", str(example_file), "--starts", "4"],
        "oracle": ["oracle", str(example_file)],
        "gen": ["gen", "--vertices", "4"],
        "exp-count": ["exp-count", "--cells", "3x2", "--instances", "1", "--starts", "2"],
    }[command]
    assert main([*argv, "--out", out]) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err


class TestOutCheckedFirst:
    """An unwritable --out fails before any multistart, enumeration or grid runs."""

    def test_bounds_missing_directory(self, example_file, tmp_path, capsys):
        out = str(tmp_path / "nodir" / "x.json")
        assert main(["bounds", str(example_file), "--starts", "4", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write {out}: No such file or directory" in captured.err

    def test_oracle_out_is_a_directory(self, example_file, tmp_path, capsys):
        assert main(["oracle", str(example_file), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write {tmp_path}: Is a directory" in captured.err

    def test_bounds_unwritable_directory(self, example_file, tmp_path, capsys, monkeypatch):
        # root writes anywhere, so the permission check is answered here
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        out = str(tmp_path / "x.json")
        assert main(["bounds", str(example_file), "--starts", "4", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write {out}: Permission denied" in captured.err

    def test_experiment_runs_no_multistart(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = experiments.multistart
        monkeypatch.setattr(experiments, "multistart", lambda *a, **k: calls.append(a) or real(*a, **k))
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = str(blocker / "x")
        args = ["--cells", "3x2", "--instances", "1", "--starts", "2", "--out", out]
        assert main(["exp-count", *args]) == 2
        assert f"error: cannot write {out}: Not a directory" in capsys.readouterr().err
        assert calls == []
        # the patch is live: the same run into a writable directory calls it
        assert main(["exp-count", *args[:-1], str(tmp_path / "r")]) == 0
        assert len(calls) == 2
