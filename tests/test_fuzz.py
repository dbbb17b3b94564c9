"""Malformed documents through the command line.

Every document drawn here is malformed by construction: one defect is put
into an otherwise valid circuit (JSON or QASM), duration table or schedule.
Whatever the defect, ``qos`` must exit 1 or 2 with a ``qos: error:`` line
on stderr; an exception escaping ``main`` fails the test with its
traceback.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import fig2_circuit
from qos.circuit import circuit_to_json
from qos.cli import main

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 10)
    | st.floats()
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
)
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
non_lists = json_values.filter(lambda v: not isinstance(v, list))
non_objects = json_values.filter(lambda v: not isinstance(v, dict))
non_integers = json_values.filter(lambda v: isinstance(v, bool) or not isinstance(v, int))
non_numbers = json_values.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float)))
# Durations that no reader may accept: negative, fractional, not finite, not a number.
bad_durations = (
    st.integers(-10**30, -1)
    | st.floats().filter(lambda v: not v.is_integer())
    | non_numbers.filter(lambda v: v is not None)
)
# Nesting past the interpreter's recursion limit, and short nesting.
deep_json = st.integers(1, 5000).flatmap(
    lambda depth: st.sampled_from(["[" * depth + "]" * depth, '{"a":' * depth + "1" + "}" * depth])
)


def _truncated(doc: dict) -> st.SearchStrategy[str]:
    text = json.dumps(doc)
    return st.integers(0, len(text) - 1).map(lambda cut: text[:cut])


def _with(doc: dict, path: tuple, value) -> dict:
    """A deep copy of ``doc`` with the item at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


CIRCUIT = {
    "num_qubits": 3,
    "ops": [
        {"name": "h", "qubits": [1], "duration": 1},
        {"name": "cx", "qubits": [1, 2], "duration": 2},
        {"name": "u1", "qubits": [2], "params": [0.5], "duration": 1},
    ],
}


@st.composite
def bad_circuits(draw) -> str:
    op = draw(st.integers(0, 2))
    defect = draw(
        st.sampled_from(
            ["truncated", "top", "deep", "num_qubits", "ops", "op", "name", "qubits",
             "params", "duration", "barrier"]
        )
    )
    if defect == "truncated":
        return draw(_truncated(CIRCUIT))
    if defect == "top":
        return json.dumps(draw(non_objects))
    if defect == "deep":
        return draw(deep_json)
    if defect == "num_qubits":
        return json.dumps(_with(CIRCUIT, ("num_qubits",), draw(non_integers | st.integers(-5, 0))))
    if defect == "ops":
        return json.dumps(_with(CIRCUIT, ("ops",), draw(non_lists)))
    if defect == "op":
        return json.dumps(_with(CIRCUIT, ("ops", op), draw(non_objects)))
    if defect == "name":
        name = draw(json_values.filter(lambda v: not isinstance(v, str)) | st.just(""))
        return json.dumps(_with(CIRCUIT, ("ops", op, "name"), name))
    if defect == "qubits":
        qubits = draw(
            non_lists
            | st.just([])
            | st.lists(non_integers, min_size=1, max_size=3)
            | st.lists(st.integers(-5, -1), min_size=1, max_size=2)
            | st.lists(st.integers(3, 10**30), min_size=1, max_size=2)
        )
        return json.dumps(_with(CIRCUIT, ("ops", op, "qubits"), qubits))
    if defect == "params":
        # h and cx take no angle and u1 one, so two or three are wrong for all.
        params = draw(
            non_lists
            | st.lists(non_numbers, min_size=1, max_size=2)
            | st.lists(st.floats(allow_nan=False), min_size=2, max_size=3)
            | st.sampled_from([[float("nan")], [float("inf")], [10**400]])
        )
        return json.dumps(_with(CIRCUIT, ("ops", op, "params"), params))
    if defect == "duration":
        return json.dumps(_with(CIRCUIT, ("ops", op, "duration"), draw(bad_durations)))
    barrier = {"name": "barrier", "qubits": [0, 1], "duration": draw(st.integers(1, 10))}
    return json.dumps(_with(CIRCUIT, ("ops", op), barrier))


QASM = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];", "h q[1];", "cx q[1],q[2];", "u1(pi/2) q[2];"]

# Angle expressions that are malformed whatever their length: an unknown name at
# the end of a long sum, a long run of signs, or deep parentheses.
bad_angles = st.integers(1, 3000).flatmap(
    lambda n: st.sampled_from(
        ["+".join(["1"] * n) + "+x", "-" * n + "x", "(" * n + "x" + ")" * n, "pi/0" + "*1" * n]
    )
)
bad_statements = st.sampled_from(
    ["creg c[3];", "measure q[0] -> c[0];", "reset q[0];", "foo q[0];", "h q[7];", "h r[0];",
     "h q;", "h(0.5) q[0];", "u1 q[0];", "cx q[0],q[0];", "cx q[0];", "qreg r[2];", "h q[0]"]
) | bad_angles.map(lambda angle: f"u1({angle}) q[0];")


@st.composite
def bad_qasm(draw) -> str:
    lines = list(QASM)
    defect = draw(st.sampled_from(["statement", "no qreg", "qreg size"]))
    if defect == "no qreg":
        lines.remove("qreg q[3];")
    elif defect == "qreg size":
        lines[2] = draw(st.sampled_from(["qreg q[0];", "qreg q[" + "9" * 5000 + "];", "qreg q[-1];"]))
    else:
        statement = draw(bad_statements)
        if statement.endswith(";"):
            lines.insert(draw(st.integers(3, len(lines))), statement)
        else:
            lines.append(statement)  # unterminated: must come last
    return "\n".join(lines) + "\n"


TABLE = {"exact": [{"name": "cx", "qubits": [1, 2], "duration": 4}], "defaults": {"h": 1}, "global_default": 2}


@st.composite
def bad_tables(draw) -> str:
    defect = draw(
        st.sampled_from(
            ["truncated", "top", "deep", "exact", "entry", "entry keys", "entry qubits",
             "entry duration", "defaults", "default", "global", "unresolvable"]
        )
    )
    if defect == "truncated":
        return draw(_truncated(TABLE))
    if defect == "top":
        return json.dumps(draw(non_objects))
    if defect == "deep":
        return draw(deep_json)
    if defect == "exact":
        return json.dumps(_with(TABLE, ("exact",), draw(non_lists)))
    if defect == "entry":
        return json.dumps(_with(TABLE, ("exact", 0), draw(non_objects)))
    if defect == "entry keys":
        key = draw(st.sampled_from(["name", "qubits", "duration"]))
        entry = {k: v for k, v in TABLE["exact"][0].items() if k != key}
        return json.dumps(_with(TABLE, ("exact", 0), entry))
    if defect == "entry qubits":
        qubits = draw(non_lists | st.lists(non_integers, min_size=1, max_size=2))
        return json.dumps(_with(TABLE, ("exact", 0, "qubits"), qubits))
    if defect == "entry duration":
        return json.dumps(_with(TABLE, ("exact", 0, "duration"), draw(bad_durations)))
    if defect == "defaults":
        return json.dumps(_with(TABLE, ("defaults",), draw(non_objects)))
    if defect == "default":
        return json.dumps(_with(TABLE, ("defaults", "h"), draw(bad_durations)))
    if defect == "global":
        return json.dumps(_with(TABLE, ("global_default",), draw(bad_durations)))
    return json.dumps({"defaults": {"h": 1}})  # nothing resolves cx or x


SCHEDULE = {
    "makespan": 3,
    "starts": [
        {"op": 0, "start": 0, "duration": 1},
        {"op": 1, "start": 1, "duration": 1},
        {"op": 2, "start": 2, "duration": 1},
    ],
}


@st.composite
def bad_schedules(draw) -> str:
    entry = draw(st.integers(0, 2))
    defect = draw(
        st.sampled_from(
            ["truncated", "top", "deep", "starts", "entry", "op", "duplicate", "missing",
             "start", "duration", "makespan"]
        )
    )
    if defect == "truncated":
        return draw(_truncated(SCHEDULE))
    if defect == "top":
        return json.dumps(draw(non_objects))
    if defect == "deep":
        return draw(deep_json)
    if defect == "starts":
        return json.dumps(_with(SCHEDULE, ("starts",), draw(non_lists)))
    if defect == "entry":
        return json.dumps(_with(SCHEDULE, ("starts", entry), draw(non_objects)))
    if defect == "op":
        op = draw(non_integers | st.integers(-5, -1) | st.integers(3, 10**30))
        return json.dumps(_with(SCHEDULE, ("starts", entry, "op"), op))
    if defect == "duplicate":
        return json.dumps(_with(SCHEDULE, ("starts", entry, "op"), (entry + 1) % 3))
    if defect == "missing":
        doc = json.loads(json.dumps(SCHEDULE))
        del doc["starts"][entry]
        return json.dumps(doc)
    if defect == "start":
        start = draw(non_integers | st.integers(-10**30, -1))
        return json.dumps(_with(SCHEDULE, ("starts", entry, "start"), start))
    if defect == "duration":
        duration = draw(json_values.filter(lambda v: v != 1))
        return json.dumps(_with(SCHEDULE, ("starts", entry, "duration"), duration))
    return json.dumps(_with(SCHEDULE, ("makespan",), draw(json_values.filter(lambda v: v != 3))))


CIRCUIT_COMMANDS = [
    ["parse"],
    ["dag", "--emit", "json"],
    ["schedule", "--method", "heft"],
    ["schedule", "--method", "asap", "--gantt"],
    ["export-mip"],
]


def _fails_cleanly(argv: list[str], capsys) -> None:
    code = main(argv)  # an escaping exception fails the test with its traceback
    err = capsys.readouterr().err
    assert code in (1, 2), (code, err)
    assert err.startswith("qos: error:"), err
    assert "Traceback" not in err


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(circuit_to_json(fig2_circuit()), encoding="utf-8")
    return str(path)


@FUZZ
@given(text=bad_circuits(), command=st.sampled_from(CIRCUIT_COMMANDS))
def test_malformed_json_circuit(tmp_path, capsys, text, command):
    path = tmp_path / "circuit.json"
    path.write_text(text, encoding="utf-8")
    _fails_cleanly([command[0], str(path), *command[1:]], capsys)


@FUZZ
@given(text=bad_qasm(), command=st.sampled_from(CIRCUIT_COMMANDS))
def test_malformed_qasm_circuit(tmp_path, capsys, text, command):
    path = tmp_path / "circuit.qasm"
    path.write_text(text, encoding="utf-8")
    _fails_cleanly([command[0], str(path), *command[1:]], capsys)


@FUZZ
@given(data=st.binary(max_size=32))
def test_undecodable_circuit_file(tmp_path, capsys, data):
    path = tmp_path / "circuit.json"
    path.write_bytes(b"\xff" + data)  # 0xff never occurs in UTF-8
    _fails_cleanly(["parse", str(path)], capsys)


@FUZZ
@given(text=bad_tables(), command=st.sampled_from(CIRCUIT_COMMANDS))
def test_malformed_duration_table(tmp_path, capsys, fig2_file, text, command):
    path = tmp_path / "durations.json"
    path.write_text(text, encoding="utf-8")
    _fails_cleanly([command[0], fig2_file, *command[1:], "--durations", str(path)], capsys)


@FUZZ
@given(text=bad_schedules(), dag=st.sampled_from(["standard", "extended"]))
def test_malformed_schedule(tmp_path, capsys, fig2_file, text, dag):
    path = tmp_path / "schedule.json"
    path.write_text(text, encoding="utf-8")
    _fails_cleanly(["validate", fig2_file, "--schedule", str(path), "--dag", dag], capsys)


# Named cases for what the fuzz tests found: the first five escaped
# ``main`` as a RecursionError; a boolean op index was read as 0 or 1.
DEEP = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_circuit_json(tmp_path, capsys):
    path = tmp_path / "circuit.json"
    path.write_text(DEEP, encoding="utf-8")
    _fails_cleanly(["parse", str(path)], capsys)


def test_deeply_nested_duration_table(tmp_path, capsys, fig2_file):
    path = tmp_path / "durations.json"
    path.write_text(DEEP, encoding="utf-8")
    _fails_cleanly(["parse", fig2_file, "--durations", str(path)], capsys)


def test_deeply_nested_schedule(tmp_path, capsys, fig2_file):
    path = tmp_path / "schedule.json"
    path.write_text(DEEP, encoding="utf-8")
    _fails_cleanly(["validate", fig2_file, "--schedule", str(path)], capsys)


@pytest.mark.parametrize("angle", ["+".join(["1"] * 3000), "-" * 3000 + "1"], ids=["sum", "signs"])
def test_angle_expression_deeper_than_the_stack(tmp_path, capsys, angle):
    path = tmp_path / "circuit.qasm"
    path.write_text(f"qreg q[1];\nu1({angle}) q[0];\n", encoding="utf-8")
    _fails_cleanly(["parse", str(path)], capsys)


def test_boolean_op_index_in_schedule(tmp_path, capsys, fig2_file):
    path = tmp_path / "schedule.json"
    entries = [{"op": False, "start": 0}, {"op": True, "start": 1}, {"op": 2, "start": 2}]
    path.write_text(json.dumps({"starts": entries}), encoding="utf-8")
    _fails_cleanly(["validate", fig2_file, "--schedule", str(path)], capsys)
