from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import circuits
from oracle import (
    reference_apply_durations,
    reference_parse_json_circuit,
    reference_parse_qasm_subset,
)
from test_fuzz import bad_circuits, bad_qasm
from qos.circuit import (
    Circuit,
    CircuitError,
    DurationTable,
    Operation,
    apply_durations,
    circuit_to_json,
    circuit_to_qasm,
    parse_json_circuit,
    parse_qasm_subset,
)

FIG2_JSON = json.dumps(
    {
        "num_qubits": 3,
        "ops": [
            {"name": "h", "qubits": [1]},
            {"name": "cx", "qubits": [1, 2]},
            {"name": "x", "qubits": [2]},
        ],
    }
)

FIG2_QASM = "qreg q[3]; h q[1]; cx q[1],q[2]; x q[2];"


class TestParseJson:
    def test_three_op_circuit(self):
        circuit = parse_json_circuit(FIG2_JSON)
        assert circuit.num_qubits == 3
        assert [op.name for op in circuit.ops] == ["h", "cx", "x"]
        assert circuit.ops[1].qubits == (1, 2)
        assert all(op.duration == 0 for op in circuit.ops)

    def test_empty_op_list(self):
        circuit = parse_json_circuit('{"num_qubits": 1, "ops": []}')
        assert circuit.num_qubits == 1
        assert circuit.ops == ()

    def test_duplicate_qubit_rejected(self):
        doc = '{"num_qubits": 3, "ops": [{"name": "cx", "qubits": [2, 2]}]}'
        with pytest.raises(CircuitError, match="duplicate qubit"):
            parse_json_circuit(doc)

    def test_malformed_document(self):
        with pytest.raises(CircuitError, match="invalid JSON"):
            parse_json_circuit("{not json")

    def test_wrong_arity(self):
        doc = '{"num_qubits": 3, "ops": [{"name": "cx", "qubits": [0]}]}'
        with pytest.raises(CircuitError, match="expects 2 qubit"):
            parse_json_circuit(doc)

    def test_qubit_out_of_range(self):
        doc = '{"num_qubits": 2, "ops": [{"name": "h", "qubits": [5]}]}'
        with pytest.raises(CircuitError, match="out of range"):
            parse_json_circuit(doc)

    def test_durations_carried(self):
        doc = '{"num_qubits": 1, "ops": [{"name": "x", "qubits": [0], "duration": 160}]}'
        assert parse_json_circuit(doc).ops[0].duration == 160

    def test_fractional_duration_rejected(self):
        doc = '{"num_qubits": 1, "ops": [{"name": "x", "qubits": [0], "duration": 1.5}]}'
        with pytest.raises(CircuitError, match="fractional duration"):
            parse_json_circuit(doc)

    @pytest.mark.parametrize(
        "angle",
        ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e999", "10**400"],
    )
    def test_non_finite_angle_rejected(self, angle):
        doc = '{"num_qubits": 1, "ops": [{"name": "u1", "qubits": [0], "params": [%s]}]}' % angle
        with pytest.raises(CircuitError, match="not finite"):
            parse_json_circuit(doc)

    def test_unknown_gate_accepted_as_opaque(self):
        doc = '{"num_qubits": 3, "ops": [{"name": "swap", "qubits": [0, 2], "duration": 7}]}'
        op = parse_json_circuit(doc).ops[0]
        assert op.name == "swap" and op.qubits == (0, 2)


class TestParseQasm:
    def test_three_op_circuit(self):
        circuit = parse_qasm_subset(FIG2_QASM)
        assert circuit.num_qubits == 3
        assert [(op.name, op.qubits) for op in circuit.ops] == [
            ("h", (1,)),
            ("cx", (1, 2)),
            ("x", (2,)),
        ]

    def test_register_only(self):
        circuit = parse_qasm_subset("qreg q[2];")
        assert circuit.num_qubits == 2
        assert circuit.ops == ()

    def test_measure_rejected_with_line(self):
        text = "qreg q[2];\nh q[0];\nmeasure q[0] -> c[0];"
        with pytest.raises(CircuitError, match=r"line 3: unsupported statement 'measure'"):
            parse_qasm_subset(text)

    def test_header_and_include_ignored(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];'
        assert len(parse_qasm_subset(text).ops) == 1

    def test_comments_stripped(self):
        text = "qreg q[1]; // register\n// a full comment line\nx q[0]; // gate"
        assert len(parse_qasm_subset(text).ops) == 1

    def test_pi_expressions(self):
        circuit = parse_qasm_subset("qreg q[1]; u1(pi/2) q[0]; u2(-pi/4, 2*pi) q[0];")
        assert circuit.ops[0].params == (math.pi / 2,)
        assert circuit.ops[1].params == (-math.pi / 4, 2 * math.pi)

    def test_nested_parentheses_in_angles(self):
        circuit = parse_qasm_subset("qreg q[1]; u1((pi)/2) q[0]; u3((pi)/2, -(pi/4), 0) q[0];")
        assert circuit.ops[0].params == (math.pi / 2,)
        assert circuit.ops[1].params == (math.pi / 2, -math.pi / 4, 0.0)
        assert circuit.ops[1].qubits == (0,)

    def test_unbalanced_parentheses_rejected(self):
        with pytest.raises(CircuitError, match="line 1: unbalanced parentheses"):
            parse_qasm_subset("qreg q[1]; u1((pi/2) q[0];")

    @pytest.mark.parametrize("angle", ["1e999", "-1e999", "1e999-1e999", "1e300*1e300"])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(CircuitError, match="line 2: .*not finite"):
            parse_qasm_subset(f"qreg q[1];\nu1({angle}) q[0];")

    def test_integer_literal_beyond_float_range_rejected(self):
        with pytest.raises(CircuitError, match="line 1: bad parameter expression"):
            parse_qasm_subset("qreg q[1]; u1(1" + "0" * 400 + ") q[0];")

    def test_qreg_size_past_the_int_digit_limit_rejected_with_line(self):
        with pytest.raises(CircuitError, match="line 2: integer of 5000 digits is too long"):
            parse_qasm_subset("OPENQASM 2.0;\nqreg q[" + "9" * 5000 + "];")

    def test_operand_index_past_the_int_digit_limit_rejected_with_line(self):
        with pytest.raises(CircuitError, match="line 3: integer of 5000 digits is too long"):
            parse_qasm_subset("qreg q[2];\nh q[0];\ncx q[0],q[" + "1" * 5000 + "];")

    def test_qreg_size_in_non_ascii_digits_rejected_with_line(self):
        # Arabic-Indic three: a Unicode decimal digit that int() would take.
        with pytest.raises(CircuitError, match="line 2: "):
            parse_qasm_subset("OPENQASM 2.0;\nqreg q[٣];\nh q[0];")

    @pytest.mark.parametrize(
        "declaration",
        ["qreg q[x]", "qreg q[-1]", "qreg q", "qreg q[٣]"],
        ids=["name-size", "negative-size", "no-size", "non-ascii-size"],
    )
    def test_malformed_qreg_declaration_named_with_line(self, declaration):
        with pytest.raises(CircuitError) as err:
            parse_qasm_subset(f"OPENQASM 2.0;\n{declaration};\nh q[0];")
        assert str(err.value) == (
            f"line 2: malformed qreg declaration {declaration!r}; expected qreg name[size], "
            "the size in digits 0-9"
        )

    def test_operand_index_in_non_ascii_digits_rejected_with_line(self):
        with pytest.raises(CircuitError, match=r"line 3: cannot parse operand 'q\[٢\]'"):
            parse_qasm_subset("qreg q[3];\nh q[0];\nh q[٢];")

    @pytest.mark.parametrize(
        "function, value",
        [
            ("sin", math.sin(0.5)),
            ("cos", math.cos(0.5)),
            ("tan", math.tan(0.5)),
            ("exp", math.exp(0.5)),
            ("ln", math.log(0.5)),
            ("sqrt", math.sqrt(0.5)),
        ],
        ids=["sin", "cos", "tan", "exp", "ln", "sqrt"],
    )
    def test_unary_angle_function(self, function, value):
        circuit = parse_qasm_subset(f"qreg q[1]; u1(-{function}(pi/(2*pi))) q[0];")
        assert circuit.ops[0].params == (-value,)

    @pytest.mark.parametrize("angle", ["ln(-1)", "sqrt(-1)", "exp(1000)", "sin(1, 2)", "sin()", "sin(x=1)", "sinh(1)"])
    def test_angle_function_outside_its_domain_or_form_rejected(self, angle):
        with pytest.raises(CircuitError, match="line 2: bad parameter expression"):
            parse_qasm_subset(f"qreg q[1];\nu1({angle}) q[0];")

    def test_caret_rejected(self):
        with pytest.raises(CircuitError, match="line 1: bad parameter expression"):
            parse_qasm_subset("qreg q[1]; u1(2^3) q[0];")

    def test_barrier_listed_and_broadcast(self):
        circuit = parse_qasm_subset("qreg q[3]; barrier q[0],q[2]; barrier q;")
        assert circuit.ops[0].qubits == (0, 2)
        assert circuit.ops[1].qubits == (0, 1, 2)
        assert all(op.duration == 0 for op in circuit.ops)

    def test_undeclared_register(self):
        with pytest.raises(CircuitError, match="undeclared register 'r'"):
            parse_qasm_subset("qreg q[2]; h r[0];")

    def test_unsupported_gate(self):
        with pytest.raises(CircuitError, match="unsupported gate 'cz'"):
            parse_qasm_subset("qreg q[2]; cz q[0],q[1];")

    def test_param_arity_mismatch(self):
        with pytest.raises(CircuitError, match="expects 1 parameter"):
            parse_qasm_subset("qreg q[1]; u1 q[0];")

    def test_multiple_qregs_rejected(self):
        with pytest.raises(CircuitError, match="multiple qreg"):
            parse_qasm_subset("qreg q[2]; qreg r[2];")

    def test_missing_qreg(self):
        with pytest.raises(CircuitError, match="no qreg"):
            parse_qasm_subset("// nothing here")

    def test_unterminated_statement(self):
        with pytest.raises(CircuitError, match="not terminated"):
            parse_qasm_subset("qreg q[1]; h q[0]")

    def test_statement_order_preserved(self):
        text = "qreg q[2]; x q[0]; x q[1]; h q[0]; cx q[0],q[1];"
        names = [(op.name, op.qubits) for op in parse_qasm_subset(text).ops]
        assert names == [("x", (0,)), ("x", (1,)), ("h", (0,)), ("cx", (0, 1))]


class TestDurations:
    def test_global_default(self, fig2_zero):
        table = DurationTable(global_default=1)
        circuit = apply_durations(fig2_zero, table)
        assert [op.duration for op in circuit.ops] == [1, 1, 1]
        assert all(op.duration == 0 for op in fig2_zero.ops)  # input untouched

    def test_lookup_precedence(self, fig2_zero):
        table = DurationTable(
            exact={("cx", (1, 2)): 978},
            defaults={"h": 64, "x": 32, "cx": 500},
        )
        circuit = apply_durations(fig2_zero, table)
        assert [op.duration for op in circuit.ops] == [64, 978, 32]

    def test_exact_entries_are_order_sensitive(self):
        table = DurationTable(exact={("cx", (1, 2)): 978}, defaults={"cx": 500})
        assert table.lookup("cx", (1, 2)) == 978
        assert table.lookup("cx", (2, 1)) == 500

    def test_unresolvable_names_op(self):
        circuit = Circuit.build(1, [("u3", [0], (0.1, 0.2, 0.3))])
        with pytest.raises(CircuitError, match=r"op 0: no duration for u3\(0\)"):
            apply_durations(circuit, DurationTable(defaults={"h": 1}))

    def test_barrier_always_zero(self):
        circuit = Circuit.build(2, [("barrier", [0, 1])])
        table = DurationTable(defaults={"barrier": 9}, global_default=5)
        assert apply_durations(circuit, table).ops[0].duration == 0

    def test_idempotent(self, fig2_zero):
        table = DurationTable(global_default=3)
        once = apply_durations(fig2_zero, table)
        assert apply_durations(once, table) == once

    def test_table_from_json(self):
        text = json.dumps(
            {
                "exact": [{"name": "cx", "qubits": [1, 2], "duration": 978}],
                "defaults": {"h": 64},
                "global_default": 1,
            }
        )
        table = DurationTable.from_json(text)
        assert table.lookup("cx", (1, 2)) == 978
        assert table.lookup("h", (0,)) == 64
        assert table.lookup("u3", (0,)) == 1

    def test_table_rejects_fractional(self):
        with pytest.raises(CircuitError, match="fractional"):
            DurationTable.from_json('{"defaults": {"h": 1.25}}')

    def test_table_accepts_integral_float(self):
        table = DurationTable.from_json('{"defaults": {"h": 64.0}}')
        assert table.lookup("h", (3,)) == 64


class TestInvariants:
    def test_op_index_must_match_position(self):
        with pytest.raises(CircuitError, match="carries index"):
            Circuit(1, (Operation(3, "x", (0,)),))

    def test_barrier_duration_must_be_zero(self):
        with pytest.raises(CircuitError, match="zero-duration"):
            Operation(0, "barrier", (0, 1), (), 4)

    @pytest.mark.parametrize("qubits", [(True,), (0, False), (1.0,), (-1,), ()])
    def test_operands_must_be_non_negative_integers(self, qubits):
        with pytest.raises(CircuitError, match="qubit operand"):
            Operation(0, "frob" if len(qubits) != 1 else "h", qubits)

    def test_num_qubits_positive(self):
        with pytest.raises(CircuitError, match="positive"):
            Circuit(0, ())

    @settings(max_examples=60)
    @given(circuits())
    def test_json_round_trip(self, circuit):
        assert parse_json_circuit(circuit_to_json(circuit)) == circuit

    @settings(max_examples=60)
    @given(circuits(qasm_only=True, max_duration=0))
    def test_qasm_round_trip(self, circuit):
        assert parse_qasm_subset(circuit_to_qasm(circuit)) == circuit

    def test_qasm_serializer_rejects_opaque_gates(self):
        circuit = Circuit.build(2, [("frob", [0, 1])])
        with pytest.raises(CircuitError, match="outside the QASM subset"):
            circuit_to_qasm(circuit)


@pytest.fixture
def fig2_zero():
    return parse_qasm_subset(FIG2_QASM)


# --- the load path against the reference in tests/oracle.py ---------------

_LINE = re.compile(r"line (\d+):")
_ANGLE_CALL = re.compile(r"(sin|cos|tan|exp|ln|sqrt)\s*\(")
# An integer longer than int() converts: the reference raises int()'s own
# ValueError, which names no line.
_LONG_INT = re.compile(r"\d{4301}")

# Angle expressions, valid or not: literals in several spellings, names, and
# operators, '^' and '**' among them.
angle_texts = st.recursive(
    st.sampled_from(["pi", "0", "2", "2.5", "1e-3", ".5", "3.", "1_0", "0x1f", "01", "1e999", "True", "x"])
    | st.floats(-10, 10, allow_nan=False).map(repr),
    lambda inner: st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^", "**"]), inner).map("".join)
    | inner.map(lambda e: f"-{e}")
    | inner.map(lambda e: f"({e})"),
    max_leaves=5,
)


@st.composite
def qasm_layouts(draw) -> str:
    """A drawn circuit in QASM, laid out as files are: statements spanning
    lines or sharing one, '//' comments holding ';', and LF, CRLF or CR line
    ends. Angles are drawn expressions, so some statements are malformed."""
    circuit = draw(circuits(qasm_only=True, max_duration=0))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    gaps = st.sampled_from([" ", "\t ", eol, eol + " " + eol, " // a; b" + eol, eol + "//;" + eol])
    statements = [["OPENQASM", " 2.0"], ["include", ' "qelib1.inc"'], ["qreg", " q", f"[{circuit.num_qubits}]"]]
    for op in circuit.ops:
        tokens = [op.name]
        if op.params:
            angles = [draw(angle_texts | st.just(repr(p))) for p in op.params]
            tokens += ["(", ",".join(angles), ")"]
        operands = [f"q[{q}]" for q in op.qubits]
        tokens += [" " + operands[0], *(f",{operand}" for operand in operands[1:])]
        statements.append(tokens)
    text = ""
    for tokens in statements:
        text += draw(st.just("") | gaps) + "".join(
            token if i == 0 else draw(st.just("") | gaps) + token for i, token in enumerate(tokens)
        ) + ";"
    return text + draw(st.just("") | gaps)


def _line(exc: Exception) -> str | None:
    found = _LINE.match(str(exc))
    return found and found.group(1)


def _same_outcome(parse, reference, text: str) -> bool:
    """``parse`` gives the circuit ``reference`` gives, or both raise the
    same ``ValueError`` class (``CircuitError`` among them) naming the same
    line (or none); True when they raise."""
    try:
        expected = reference(text)
    except ValueError as exc:
        with pytest.raises(type(exc)) as err:
            parse(text)
        assert _line(err.value) == _line(exc), (str(err.value), str(exc))
        return True
    assert parse(text) == expected
    return False


class TestAgainstReference:
    """The load path accepts what the reference accepts, with an equal
    circuit, and rejects what it rejects; QASM errors name the same line.
    Angles calling the functions the reference lacks, and integers longer
    than int() converts, are left out."""

    @settings(max_examples=300, deadline=None)
    @given(qasm_layouts())
    def test_qasm_layouts(self, text):
        assume(not _ANGLE_CALL.search(text) and not _LONG_INT.search(text))
        _same_outcome(parse_qasm_subset, reference_parse_qasm_subset, text)

    @settings(max_examples=100, deadline=None)
    @given(circuits(), st.sampled_from([None, 0, 2]))
    def test_json(self, circuit, indent):
        text = circuit_to_json(circuit, indent=indent)
        assert not _same_outcome(parse_json_circuit, reference_parse_json_circuit, text)

    @settings(max_examples=150, deadline=None)
    @given(bad_qasm())
    def test_malformed_qasm(self, text):
        assume(not _ANGLE_CALL.search(text) and not _LONG_INT.search(text))
        assert _same_outcome(parse_qasm_subset, reference_parse_qasm_subset, text)

    @settings(max_examples=150, deadline=None)
    @given(bad_circuits())
    def test_malformed_json(self, text):
        assert _same_outcome(parse_json_circuit, reference_parse_json_circuit, text)

    @settings(max_examples=100, deadline=None)
    @given(
        circuits(),
        st.dictionaries(st.sampled_from(["h", "x", "u1", "cx", "frob"]), st.integers(0, 9)),
        st.none() | st.integers(0, 9),
    )
    def test_apply_durations(self, circuit, defaults, global_default):
        table = DurationTable(
            exact={("cx", (0, 1)): 7, ("frob", (1,)): 3}, defaults=defaults, global_default=global_default
        )
        try:
            expected = reference_apply_durations(circuit, table)
        except CircuitError as exc:
            with pytest.raises(CircuitError, match=re.escape(str(exc))):
                apply_durations(circuit, table)
        else:
            assert apply_durations(circuit, table) == expected
