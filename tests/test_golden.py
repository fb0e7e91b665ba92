"""Golden bytes: output files pinned by their sha256.

The bounds and CSV digests were recorded before the descent stopped building
endpoint selections per start; the instance-file, oracle-record and summary
digests before every JSON document went through one streaming writer.  Any
change to a number, to the census order or to the file layout shows here;
change a digest only together with a documented change of the output format.
"""

import hashlib
import json

import pytest

from intervalwalk.cli import main


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "--vertices", "5", "--steps", "3", "--seed", "7", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def test_instance_file(instance_file):
    assert sha256(instance_file) == "63557b029c3b01b28b26ad1cef466488033b676e6899b77312e9f057b6e29f07"


def test_oracle_record(tmp_path):
    path, out = tmp_path / "tiny.json", tmp_path / "oracle.json"
    assert main(["gen", "--vertices", "4", "--steps", "2", "--seed", "7", "--out", str(path)]) == 0
    assert main(["oracle", str(path), "--out", str(out)]) == 0
    assert sha256(out) == "bd84de1789648de7ed0961ee46aed9b3229c720d20f3227a6f027080e11ae3dd"


def test_oracle_record_with_tied_optima(tmp_path):
    path, out = tmp_path / "tied.json", tmp_path / "oracle.json"
    assert main(["gen", "--vertices", "3", "--steps", "2", "--seed", "1", "--out", str(path)]) == 0
    doc = json.loads(path.read_text(encoding="utf-8"))
    # states 0 and 1 share a payoff, so the last step's choice on edge {0,1}
    # moves none of it: every optimum comes with its twin
    doc["f"][1] = doc["f"][0]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["oracle", str(path), "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert len(record["argmin"]) == len(record["argmax"]) == 2
    assert sha256(out) == "7c7bbdd7ddc85112ac9a16c108aa2ed542596c5dd57162bb38b61ba718890ffe"


BOUNDS_DIGESTS = {
    "left-to-right": "d66802254ddf525d935306322e632f93d50d66d3749986165fdfa4c396069f8c",
    "right-to-left": "cb77759c63828437d620a48152e4f9848932f44c6f321d2b1fa80f75a345ed1a",
}


@pytest.mark.parametrize("strategy", sorted(BOUNDS_DIGESTS))
def test_bounds_record(instance_file, tmp_path, strategy):
    out = tmp_path / "record.json"
    argv = ["bounds", str(instance_file), "--starts", "20", "--seed", "1", "--strategy", strategy]
    assert main([*argv, "--out", str(out)]) == 0
    assert sha256(out) == BOUNDS_DIGESTS[strategy]


EXPERIMENT_DIGESTS = {
    "exp-count": ("extrema_counts.csv", "5e0540045cbf39afb63024b73a11cbe8fee14c258ed2f663c8e6955eaca913a5"),
    "exp-sweep": ("sweep_comparison.csv", "9eb65958d4d02a51ee24439950a9120714491c918c33e26721edd738cb805e34"),
    "exp-scatter": ("initial_vs_optimized.csv", "b95298c2db44979e37c852a34febb52e0faa3fd0120e92202156f0fbaf72b3e6"),
    "exp-dev": ("deviation_curves.csv", "b110389669b61854b713c4edfad925001d9da9c34f6d3a34bbf31ad3f929fa2c"),
}


@pytest.mark.parametrize("command", sorted(EXPERIMENT_DIGESTS))
def test_experiment_csv(tmp_path, command):
    filename, digest = EXPERIMENT_DIGESTS[command]
    args = ["--cells", "3x2,4x2", "--instances", "2", "--starts", "5", "--seed", "3"]
    assert main([command, *args, "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / filename) == digest


SUMMARY_DIGESTS = {
    "exp-count": ("extrema_counts_summary.json", "843611bfdbb5dca33f131929fe8345e15e7636e338520f56d8b73e20ad73f9c8"),
    "exp-sweep": ("sweep_comparison_summary.json", "f952cd4e79c5a6fc9d75c5f5b1a7ead4b532745b135a4c0d328220e8c2ea58ee"),
    "exp-scatter": (
        "initial_vs_optimized_summary.json",
        "673fb474cdae933c48992f2c35b94edd6e5e060fe09527c94bca9f9277f5cd3a",
    ),
    "exp-dev": ("deviation_curves_summary.json", "929466a2c6087d29512f052b57efcaa38dea9ea4541b3001ba8c24a82b074776"),
}


@pytest.mark.parametrize("command", sorted(SUMMARY_DIGESTS))
def test_experiment_summary(tmp_path, command):
    filename, digest = SUMMARY_DIGESTS[command]
    args = ["--cells", "3x2,4x2", "--instances", "2", "--starts", "5", "--seed", "3"]
    assert main([command, *args, "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / filename) == digest
