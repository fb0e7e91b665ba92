"""Instance file round trips and malformed-document handling."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalwalk import (
    GenParams,
    ProblemInstance,
    StateSpace,
    generate_instance,
    load_instance,
    save_instance,
)
from intervalwalk.instancefile import instance_from_dict, instance_to_dict, write_json


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


def stdlib_write(path, payload):
    """The reference writer: json.dump with indent=2, plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and +-inf included
    | st.text()  # non-ASCII and control characters included
)
KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
TREES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(KEYS, children, max_size=4)
    ),
    max_leaves=24,
)


@st.composite
def documents(draw):
    """A JSON tree with one tuple object shared at several depths, and the
    sibling rows (1,), (1.0,) and (True,), which are equal and hash alike."""
    shared = tuple(draw(st.lists(TREES, max_size=3)))
    tree = draw(TREES)
    return {
        "tree": tree,
        "rows": [shared, (1,), (1.0,), (True,), shared, ()],
        "deeper": [[shared], {"x": (shared, [shared])}, shared],
        "empty": [[], (), {}],
    }


class TestWriteJson:
    @settings(max_examples=300)
    @given(doc=documents())
    def test_writes_the_stdlib_indent_2_layout(self, doc, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "doc.json"
        write_json(path, doc)
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"

    def test_row_text_is_not_kept_between_calls(self, tmp_path):
        # each freed (k,) leaves its id free for the next call's row
        path = tmp_path / "rows.json"
        for k in range(50):
            write_json(path, [(k,), (k,)])
            assert path.read_text(encoding="utf-8") == json.dumps([(k,), (k,)], indent=2) + "\n"

    @pytest.mark.parametrize(
        "payload", [[1, object()], {"a": (object(),)}, {object(): 1}, [{1: [{}, b"bytes"]}]], ids=repr
    )
    def test_unencodable_value_raises_type_error(self, tmp_path, payload):
        with pytest.raises(TypeError) as expected:
            json.dumps(payload, indent=2)
        with pytest.raises(TypeError) as raised:
            write_json(tmp_path / "bad.json", payload)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("writer", [write_json, stdlib_write], ids=["write_json", "json.dump"])
    def test_streams_the_document(self, tmp_path, writer):
        # a bounds record's shape: schedules of rows shared from one table
        edges = 120
        table = [tuple((f"s{x}", f"s{x + 1}", choice) for choice in ("lower", "upper")) for x in range(edges)]
        schedules = [
            [[table[e][(e * step + k) % 3 == 0] for e in range(edges)] for step in range(8)] for k in range(80)
        ]
        payload = {"results": {"min": {"unique_extrema": [{"value": 0.5, "schedule": s} for s in schedules]}}}
        path = tmp_path / "record.json"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            writer(path, payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 5_000_000
        assert peak < size / 2
