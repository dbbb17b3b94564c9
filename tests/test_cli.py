from __future__ import annotations

import json
from decimal import Decimal

import pytest

from helpers import fig2_circuit
from qos.circuit import circuit_to_json
from qos.cli import (
    CompareRow,
    format_compare_csv,
    format_compare_table,
    improvement_percent,
    main,
    run_compare,
)

FIG2_TABLE = (
    "Circuit  Qubits  Gates  Std-DAG  Ext-DAG   Delta\n"
    "fig2          3      3        3        2  33.33%\n"
)


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(circuit_to_json(fig2_circuit()), encoding="utf-8")
    return str(path)


@pytest.fixture
def fig2_qasm_file(tmp_path):
    path = tmp_path / "fig2.qasm"
    path.write_text("qreg q[3]; h q[1]; cx q[1],q[2]; x q[2];\n", encoding="utf-8")
    return str(path)


class TestDeltaArithmetic:
    @pytest.mark.parametrize(
        "std,ext,expected",
        [
            (20408, 18906, "7.36"),
            (6328, 5984, "5.44"),
            (24940, 24308, "2.53"),
            (4210, 4210, "0.00"),
            (3, 2, "33.33"),
            (4812, 4998, "-3.87"),  # heuristic result worse than baseline
        ],
    )
    def test_known_pairs(self, std, ext, expected):
        assert improvement_percent(std, ext) == Decimal(expected)

    def test_undefined_for_zero_baseline(self):
        assert improvement_percent(0, 0) is None

    def test_row_delta(self):
        row = CompareRow("rc_adder_6", 14, 200, 20408, 18906)
        assert row.delta == Decimal("7.36")


class TestFormatting:
    def test_table_thousands_separators(self):
        rows = [CompareRow("mini_alu_305", 10, 173, 24940, 24308)]
        table = format_compare_table(rows)
        assert "24,940" in table and "24,308" in table and "2.53%" in table

    def test_csv_is_unformatted(self):
        rows = [CompareRow("mini_alu_305", 10, 173, 24940, 24308)]
        csv = format_compare_csv(rows)
        assert csv == (
            "circuit,qubits,gates,std_dag,ext_dag,delta_pct\n"
            "mini_alu_305,10,173,24940,24308,2.53\n"
        )

    def test_csv_quotes_a_name_with_a_comma_quote_or_line_break(self):
        rows = [CompareRow(name, 2, 2, 2, 2) for name in ("a,b", 'say "hi"', "two\nlines", "ok")]
        assert format_compare_csv(rows).splitlines(keepends=True)[1:] == [
            '"a,b",2,2,2,2,0.00\n',
            '"say ""hi""",2,2,2,2,0.00\n',
            '"two\n',
            'lines",2,2,2,2,0.00\n',
            "ok,2,2,2,2,0.00\n",
        ]

    def test_undefined_delta_renders_placeholder(self):
        rows = [CompareRow("empty", 1, 0, 0, 0)]
        assert " -" in format_compare_table(rows)
        assert format_compare_csv(rows).endswith("0,0,\n")


class TestRunCompare:
    def test_fig2(self, fig2_file):
        rows = run_compare([fig2_file], default_duration=1)
        assert len(rows) == 1
        row = rows[0]
        assert (row.std_makespan, row.ext_makespan) == (3, 2)
        assert row.delta == Decimal("33.33")
        assert row.num_qubits == 3 and row.num_gates == 3

    def test_heft_method(self, fig2_file):
        rows = run_compare([fig2_file], method="heft", default_duration=1)
        assert rows[0].ext_makespan == 2

    def test_error_collection_keeps_going(self, fig2_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        errors: list[tuple[str, str]] = []
        rows = run_compare([str(bad), fig2_file], default_duration=1, errors=errors)
        assert len(rows) == 1 and rows[0].name == "fig2"
        assert len(errors) == 1 and errors[0][0] == str(bad)

    def test_error_raises_without_collector(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        with pytest.raises(Exception):
            run_compare([str(bad)])


class TestCliCommands:
    def test_parse_normalizes_qasm_to_json(self, fig2_qasm_file, capsys):
        assert main(["parse", fig2_qasm_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_qubits"] == 3
        assert [op["name"] for op in doc["ops"]] == ["h", "cx", "x"]

    def test_parse_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["parse", str(tmp_path / "nope.json")]) == 1
        assert "qos: error" in capsys.readouterr().err

    def test_schedule_bnb_extended(self, fig2_file, capsys):
        code = main(
            ["schedule", fig2_file, "--dag", "extended", "--method", "bnb", "--default-duration", "1"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["makespan"] == 2

    def test_schedule_asap_standard(self, fig2_file, capsys):
        code = main(
            ["schedule", fig2_file, "--dag", "standard", "--method", "asap", "--default-duration", "1"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["makespan"] == 3

    @pytest.mark.parametrize("dag", ["standard", "extended"])
    def test_schedule_asap_on_a_huge_qubit_index(self, tmp_path, capsys, dag):
        path = tmp_path / "far.json"
        path.write_text(
            json.dumps(
                {"num_qubits": 10**9 + 1, "ops": [{"name": "x", "qubits": [10**9], "duration": 1}]}
            ),
            encoding="utf-8",
        )
        assert main(["schedule", str(path), "--dag", dag, "--method", "asap"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["makespan"] == 1 and err == ""

    def test_schedule_with_standard_rules_cannot_reorder(self, fig2_file, capsys):
        code = main(
            ["schedule", fig2_file, "--dag", "extended", "--rules", "standard", "--default-duration", "1"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["makespan"] == 3

    def test_schedule_gantt(self, fig2_file, capsys):
        code = main(["schedule", fig2_file, "--gantt", "--default-duration", "1"])
        assert code == 0
        assert capsys.readouterr().out == (
            "makespan 2 dt (1 cell = 1 dt)\n"
            "q0 |..|\n"
            "q1 |01|\n"
            "q2 |21|\n"
        )

    def test_schedule_brute_matches_bnb(self, fig2_file, capsys):
        assert main(["schedule", fig2_file, "--method", "brute", "--default-duration", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["makespan"] == 2

    def test_emitted_schedule_revalidates(self, fig2_file, tmp_path, capsys):
        out = tmp_path / "sched.json"
        assert main(
            ["schedule", fig2_file, "--default-duration", "1", "-o", str(out)]
        ) == 0
        code = main(
            [
                "validate",
                fig2_file,
                "--schedule",
                str(out),
                "--dag",
                "extended",
                "--default-duration",
                "1",
            ]
        )
        assert code == 0
        assert "valid: makespan 2 dt" in capsys.readouterr().out

    def test_validate_reports_violations(self, fig2_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "makespan": 1,
                    "starts": [
                        {"op": 0, "start": 0, "duration": 1},
                        {"op": 1, "start": 0, "duration": 1},
                        {"op": 2, "start": 0, "duration": 1},
                    ],
                }
            ),
            encoding="utf-8",
        )
        code = main(
            ["validate", fig2_file, "--schedule", str(bad), "--default-duration", "1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "precedence" in out and "violation" in out

    def test_dag_dot_output(self, fig2_file, capsys):
        assert main(["dag", fig2_file, "--mode", "extended", "--default-duration", "1"]) == 0
        dot = capsys.readouterr().out
        assert dot.startswith("digraph")
        assert dot.count("style=dashed") == 1

    def test_dag_json_output(self, fig2_file, capsys):
        assert main(["dag", fig2_file, "--mode", "standard", "--emit", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["conjunctive"] == [[0, 1], [1, 2]]
        assert doc["disjunctive"] == []

    def test_export_mip_to_file(self, fig2_file, tmp_path):
        out = tmp_path / "model.lp"
        code = main(
            ["export-mip", fig2_file, "--dag", "extended", "--default-duration", "1", "-o", str(out)]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("\\") and text.rstrip().endswith("End")
        assert "y_1_2" in text

    def test_compare_table_output(self, fig2_file, capsys):
        assert main(["compare", fig2_file, "--default-duration", "1"]) == 0
        assert capsys.readouterr().out == FIG2_TABLE

    def test_compare_csv_output(self, fig2_file, capsys):
        assert main(["compare", fig2_file, "--default-duration", "1", "--csv"]) == 0
        assert capsys.readouterr().out == (
            "circuit,qubits,gates,std_dag,ext_dag,delta_pct\n"
            "fig2,3,3,3,2,33.33\n"
        )

    def test_compare_is_deterministic(self, fig2_file, capsys):
        main(["compare", fig2_file, "--default-duration", "1"])
        first = capsys.readouterr().out
        main(["compare", fig2_file, "--default-duration", "1"])
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    def test_compare_bad_file_exits_one_but_processes_rest(self, fig2_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        code = main(["compare", str(bad), fig2_file, "--default-duration", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "fig2" in captured.out
        assert str(bad) in captured.err

    def test_durations_file_flag(self, fig2_file, tmp_path, capsys):
        table = tmp_path / "durations.json"
        table.write_text(
            json.dumps(
                {
                    "exact": [{"name": "cx", "qubits": [1, 2], "duration": 978}],
                    "defaults": {"h": 64, "x": 32},
                }
            ),
            encoding="utf-8",
        )
        assert main(["schedule", fig2_file, "--durations", str(table)]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_op = {entry["op"]: entry["duration"] for entry in doc["starts"]}
        assert by_op == {0: 64, 1: 978, 2: 32}

    def test_usage_error_exits_two(self, fig2_file):
        with pytest.raises(SystemExit) as err:
            main(["schedule", fig2_file, "--method", "quantum-annealing"])
        assert err.value.code == 2

    def test_gate_count_in_table_includes_barriers(self, tmp_path, capsys):
        path = tmp_path / "barr.json"
        path.write_text(
            json.dumps(
                {
                    "num_qubits": 2,
                    "ops": [
                        {"name": "x", "qubits": [0], "duration": 2},
                        {"name": "barrier", "qubits": [0, 1]},
                        {"name": "x", "qubits": [1], "duration": 2},
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert main(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "barr" in out and " 3 " in out.replace("\n", " ")


class TestCliErrors:
    def test_compare_and_schedule_agree_on_duration_flags(self, fig2_qasm_file, tmp_path, capsys):
        table = tmp_path / "durations.json"
        table.write_text(json.dumps({"defaults": {"cx": 5}}), encoding="utf-8")
        flags = ["--durations", str(table), "--default-duration", "3"]
        assert main(["schedule", fig2_qasm_file, "--method", "asap", "--dag", "standard", *flags]) == 0
        std = json.loads(capsys.readouterr().out)["makespan"]
        assert main(["compare", fig2_qasm_file, "--csv", *flags]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert int(row[3]) == std == 11

    def test_output_into_missing_directory(self, fig2_file, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        assert main(["parse", fig2_file, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"qos: error: cannot write {out}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,flag,doc",
        [
            ("validate", "--schedule", {"starts": 5}),
            ("validate", "--schedule", {"starts": [5]}),
            ("schedule", "--durations", {"defaults": [1]}),
            ("schedule", "--durations", {"exact": [{"name": "h", "qubits": 1, "duration": 2}]}),
        ],
    )
    def test_malformed_document_shapes(self, fig2_file, tmp_path, capsys, command, flag, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, fig2_file, flag, str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qos: error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["schedule", "compare"])
    def test_nan_time_limit(self, fig2_file, capsys, command):
        assert main([command, fig2_file, "--time-limit", "nan"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qos: error: ") and "time_limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "suffix,text",
        [
            (".qasm", "OPENQASM 2.0;\nqreg q[1];\nu1(1e999) q[0];\n"),
            (".qasm", "OPENQASM 2.0;\nqreg q[1];\nu1(1e999-1e999) q[0];\n"),
            (".json", '{"num_qubits": 1, "ops": [{"name": "u1", "qubits": [0], "params": [NaN]}]}'),
        ],
        ids=["qasm-inf", "qasm-nan", "json-nan"],
    )
    def test_non_finite_angle(self, tmp_path, capsys, suffix, text):
        bad = tmp_path / f"bad{suffix}"
        bad.write_text(text, encoding="utf-8")
        assert main(["schedule", str(bad), "--default-duration", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qos: error: ") and "not finite" in err
        assert "Traceback" not in err
