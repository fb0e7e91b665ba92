"""Instance file round trips and malformed-document handling."""

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
from intervalwalk.instancefile import instance_from_dict, instance_to_dict


def example_instance(two_state):
    return ProblemInstance(
        StateSpace(("1", "2")), two_state.bounds, two_state.q, two_state.f, 2
    )


class TestRoundTrip:
    def test_bit_exact_round_trip(self, two_state, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(path, example_instance(two_state))
        loaded = load_instance(path)
        assert loaded.states.labels == ("1", "2")
        assert loaded.steps == 2
        np.testing.assert_array_equal(loaded.bounds.lower, two_state.bounds.lower)
        np.testing.assert_array_equal(loaded.bounds.upper, two_state.bounds.upper)
        np.testing.assert_array_equal(loaded.bounds.marginal, two_state.bounds.marginal)
        np.testing.assert_array_equal(loaded.q, two_state.q)
        np.testing.assert_array_equal(loaded.f, two_state.f)

    def test_generated_instance_round_trips_every_bit(self, tmp_path):
        bounds, q, f = generate_instance(GenParams(s=6, seed=13))
        instance = ProblemInstance(StateSpace.of_size(6), bounds, q, f, 4)
        path = tmp_path / "inst.json"
        save_instance(path, instance)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.bounds.lower, bounds.lower)
        np.testing.assert_array_equal(loaded.bounds.upper, bounds.upper)
        np.testing.assert_array_equal(loaded.bounds.marginal, bounds.marginal)
        np.testing.assert_array_equal(loaded.q, q)
        np.testing.assert_array_equal(loaded.f, f)
        # and the serialized form itself is stable
        save_instance(tmp_path / "again.json", loaded)
        assert (tmp_path / "inst.json").read_bytes() == (tmp_path / "again.json").read_bytes()

    def test_dict_round_trip(self, two_state):
        inst = example_instance(two_state)
        again = instance_from_dict(instance_to_dict(inst))
        assert instance_to_dict(again) == instance_to_dict(inst)


class TestMalformedDocuments:
    def test_missing_field(self, two_state):
        data = instance_to_dict(example_instance(two_state))
        del data["marginal"]
        with pytest.raises(ValueError, match="missing"):
            instance_from_dict(data)

    def test_ragged_matrix(self, two_state):
        data = instance_to_dict(example_instance(two_state))
        data["lower"] = [[0.0, 0.2], [0.2]]
        with pytest.raises(ValueError):
            instance_from_dict(data)

    def test_non_object_document(self):
        with pytest.raises(ValueError):
            instance_from_dict([1, 2, 3])

    def test_mismatched_labels(self, two_state):
        data = instance_to_dict(example_instance(two_state))
        data["states"] = ["1", "2", "3"]
        with pytest.raises(ValueError):
            instance_from_dict(data)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("definitely not json{", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON"):
            load_instance(path)

    def test_negative_steps(self, two_state):
        data = instance_to_dict(example_instance(two_state))
        data["steps"] = -1
        with pytest.raises(ValueError):
            instance_from_dict(data)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            pytest.param("steps", 2.5, "steps must be an integer, got 2.5", id="steps-float"),
            pytest.param("steps", True, "steps must be an integer, got True", id="steps-bool"),
            pytest.param("q", [float("nan"), 0.0], "q and f must be finite", id="q-nan"),
            pytest.param("f", [0.0, float("inf")], "q and f must be finite", id="f-inf"),
        ],
    )
    def test_non_integer_steps_and_non_finite_vectors(self, two_state, tmp_path, field, value, message):
        data = instance_to_dict(example_instance(two_state))
        data[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_instance(path)

    def test_problem_factory(self, two_state):
        inst = example_instance(two_state)
        problem = inst.problem()
        assert problem.n == 2
        assert json.dumps(instance_to_dict(inst))  # serializable
