from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings

from helpers import circuits
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
