"""Command-line front end.

Subcommands: parse (normalize a circuit to JSON), dag (emit dependency or
disjunctive graphs), schedule (run a scheduler), validate (check a schedule
file), compare (standard-DAG baseline vs. commutation-aware makespans with
improvement rates), and export-mip (write the LP model). Exit codes: 0 on
success, 1 on violations or input errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .circuit import (
    Circuit,
    CircuitError,
    DurationTable,
    apply_durations,
    circuit_to_json,
    parse_json_circuit,
    parse_qasm_subset,
)
from .commutation import CommutationRuleSet
from .depgraph import (
    DisjunctiveEdgeMode,
    build_disjunctive_graph,
    build_extended_dag,
    build_standard_dag,
    export_dot,
)
from .exact import SolverConfig, export_mip_lp, solve_bnb, solve_bruteforce
from .schedulers import (
    asap,
    heft,
    render_gantt,
    schedule_from_json,
    schedule_to_json,
    validate,
)


def improvement_percent(std_makespan: int, ext_makespan: int) -> Decimal | None:
    """Improvement rate (std - ext) / std * 100, rounded half-up to two
    decimals; undefined (None) when the baseline makespan is zero."""
    if std_makespan <= 0:
        return None
    value = Decimal((std_makespan - ext_makespan) * 100) / Decimal(std_makespan)
    return value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


@dataclass(frozen=True)
class CompareRow:
    """One circuit's baseline vs. commutation-aware makespans."""

    name: str
    num_qubits: int
    num_gates: int
    std_makespan: int
    ext_makespan: int

    @property
    def delta(self) -> Decimal | None:
        return improvement_percent(self.std_makespan, self.ext_makespan)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CircuitError(f"cannot read {path}: {exc.strerror or exc}") from exc


def load_circuit(
    path: str,
    *,
    fmt: str = "auto",
    durations: DurationTable | None = None,
    default_duration: int | None = None,
) -> Circuit:
    """Read a circuit file and resolve its durations: through the table
    when given, with ``default_duration`` as its global default when that is
    given too; through ``default_duration`` alone when only it is given;
    otherwise durations stay as carried by the file (JSON) or zero (QASM)."""
    text = _read_text(path)
    if fmt == "auto":
        fmt = "qasm" if Path(path).suffix.lower() == ".qasm" else "json"
    circuit = parse_qasm_subset(text) if fmt == "qasm" else parse_json_circuit(text)
    if default_duration is not None:
        durations = replace(durations or DurationTable(), global_default=default_duration)
    if durations is not None:
        circuit = apply_durations(circuit, durations)
    return circuit


def run_compare(
    paths: list[str],
    durations: DurationTable | None = None,
    config: SolverConfig | None = None,
    method: str = "bnb",
    *,
    rules: CommutationRuleSet | None = None,
    mode: DisjunctiveEdgeMode = DisjunctiveEdgeMode.GROUPED,
    fmt: str = "auto",
    default_duration: int | None = None,
    errors: list[tuple[str, str]] | None = None,
) -> list[CompareRow]:
    """Per input file, compute the standard-DAG earliest-start makespan and
    the commutation-aware makespan via the chosen method ("bnb" or "heft").
    Each file is loaded by :func:`load_circuit` with the given format and
    durations.

    When ``errors`` is given, per-file failures are appended there and the
    remaining files still run; otherwise the first failure raises.
    """
    rules = rules or CommutationRuleSet.default()
    rows: list[CompareRow] = []
    for path in paths:
        try:
            circuit = load_circuit(
                path, fmt=fmt, durations=durations, default_duration=default_duration
            )
            std = asap(circuit, build_standard_dag(circuit)).makespan
            graph = _build_graph(circuit, "extended", rules, mode)
            if method == "heft":
                ext = heft(graph).makespan
            elif method == "bnb":
                ext = solve_bnb(graph, config).makespan
            else:
                raise ValueError(f"unknown compare method {method!r}")
            rows.append(
                CompareRow(Path(path).stem, circuit.num_qubits, len(circuit.ops), std, ext)
            )
        except (CircuitError, ValueError) as exc:
            if errors is None:
                raise
            errors.append((path, str(exc)))
    return rows


def format_compare_table(rows: list[CompareRow]) -> str:
    """Aligned text table with thousands separators on makespans."""
    header = ("Circuit", "Qubits", "Gates", "Std-DAG", "Ext-DAG", "Delta")
    cells = [
        (
            row.name,
            str(row.num_qubits),
            str(row.num_gates),
            f"{row.std_makespan:,}",
            f"{row.ext_makespan:,}",
            "-" if row.delta is None else f"{row.delta}%",
        )
        for row in rows
    ]
    widths = [max(len(header[c]), *(len(r[c]) for r in cells), 0) if cells else len(header[c]) for c in range(6)]
    lines = []
    for record in [header, *cells]:
        name = record[0].ljust(widths[0])
        numbers = "  ".join(record[c].rjust(widths[c]) for c in range(1, 6))
        lines.append(f"{name}  {numbers}".rstrip())
    return "\n".join(lines) + "\n"


def format_compare_csv(rows: list[CompareRow]) -> str:
    """Unformatted CSV: raw integers, delta as a bare two-decimal number;
    a name with a comma, quote or line break is quoted (RFC 4180)."""
    lines = ["circuit,qubits,gates,std_dag,ext_dag,delta_pct"]
    for row in rows:
        delta = "" if row.delta is None else str(row.delta)
        name = row.name
        if any(c in name for c in ',"\r\n'):
            name = '"' + name.replace('"', '""') + '"'
        lines.append(
            f"{name},{row.num_qubits},{row.num_gates},"
            f"{row.std_makespan},{row.ext_makespan},{delta}"
        )
    return "\n".join(lines) + "\n"


# --- argument plumbing ---------------------------------------------------------

def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("circuit", help="circuit file (JSON, or QASM subset)")
    _add_format_args(p)


def _add_format_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("auto", "qasm", "json"),
        default="auto",
        help="input format; auto picks qasm for .qasm files, json otherwise",
    )
    p.add_argument("--durations", metavar="PATH", help="duration table JSON file")
    p.add_argument(
        "--default-duration",
        type=int,
        metavar="DT",
        help="fallback duration for unmatched gates; overrides the table's global default",
    )


def _add_rules_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--rules",
        default="default",
        metavar="SPEC",
        help='commutation rules: "standard", "default", or a comma-separated list of rule names',
    )


def _add_dmode_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--dmode",
        choices=[m.value for m in DisjunctiveEdgeMode],
        default="grouped",
        help="disjunctive pair generation policy",
    )


def _add_out_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--out", metavar="PATH", help="write output here instead of stdout")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CircuitError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qos",
        description="Commutation-aware scheduling of quantum circuit operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a circuit and print its normalized JSON form")
    _add_input_args(p)
    _add_out_arg(p)

    p = sub.add_parser("dag", help="build dependency/disjunctive graphs and export them")
    _add_input_args(p)
    _add_rules_arg(p)
    _add_dmode_arg(p)
    p.add_argument("--mode", choices=("standard", "extended"), default="extended")
    p.add_argument("--emit", choices=("dot", "json"), default="dot")
    _add_out_arg(p)

    p = sub.add_parser("schedule", help="compute a schedule and print it")
    _add_input_args(p)
    _add_rules_arg(p)
    _add_dmode_arg(p)
    p.add_argument("--dag", choices=("standard", "extended"), default="extended")
    p.add_argument("--method", choices=("asap", "heft", "bnb", "brute"), default="bnb")
    p.add_argument("--time-limit", type=float, default=10.0, metavar="SECONDS")
    p.add_argument("--gantt", action="store_true", help="print a text Gantt chart instead of JSON")
    _add_out_arg(p)

    p = sub.add_parser("validate", help="check a schedule file against a circuit")
    _add_input_args(p)
    _add_rules_arg(p)
    p.add_argument("--schedule", required=True, metavar="PATH", help="schedule JSON file")
    p.add_argument("--dag", choices=("standard", "extended"), default="standard")

    p = sub.add_parser("compare", help="standard-DAG baseline vs. commutation-aware makespans")
    p.add_argument("circuits", nargs="+", help="circuit files (JSON, or QASM subset)")
    _add_format_args(p)
    _add_rules_arg(p)
    _add_dmode_arg(p)
    p.add_argument("--method", choices=("bnb", "heft"), default="bnb")
    p.add_argument("--time-limit", type=float, default=10.0, metavar="SECONDS")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of the aligned table")
    _add_out_arg(p)

    p = sub.add_parser("export-mip", help="write the big-M model in CPLEX LP format")
    _add_input_args(p)
    _add_rules_arg(p)
    _add_dmode_arg(p)
    p.add_argument("--dag", choices=("standard", "extended"), default="extended")
    _add_out_arg(p)

    return parser


def _read_table(path: str | None) -> DurationTable | None:
    return None if path is None else DurationTable.from_json(_read_text(path))


def _load(args: argparse.Namespace) -> Circuit:
    """The circuit named on the command line, read per the format and
    duration flags."""
    return load_circuit(
        args.circuit,
        fmt=args.format,
        durations=_read_table(args.durations),
        default_duration=args.default_duration,
    )


def _rules(args: argparse.Namespace, dag_kind: str) -> CommutationRuleSet:
    """The ``--rules`` set; a standard DAG ignores the flag, unparsed."""
    if dag_kind == "standard":
        return CommutationRuleSet.standard()
    return CommutationRuleSet.parse(args.rules)


def _build_dag(circuit: Circuit, dag_kind: str, rules: CommutationRuleSet):
    if dag_kind == "standard":
        return build_standard_dag(circuit)
    return build_extended_dag(circuit, rules)


def _build_graph(
    circuit: Circuit, dag_kind: str, rules: CommutationRuleSet, mode: DisjunctiveEdgeMode
):
    """The disjunctive graph over the chosen DAG; ``graph.dag`` is the DAG."""
    dag = _build_dag(circuit, dag_kind, rules)
    return build_disjunctive_graph(circuit, dag, dag.rules, mode)


def _cmd_parse(args: argparse.Namespace) -> int:
    circuit = _load(args)
    _emit(circuit_to_json(circuit), args.out)
    return 0


def _cmd_dag(args: argparse.Namespace) -> int:
    circuit = _load(args)
    graph = _build_graph(circuit, args.mode, _rules(args, args.mode), DisjunctiveEdgeMode(args.dmode))
    if args.emit == "dot":
        _emit(export_dot(graph), args.out)
    else:
        doc = {
            "num_ops": graph.num_ops,
            "conjunctive": [list(e) for e in graph.dag.sorted_edges],
            "disjunctive": [list(p) for p in graph.sorted_pairs],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    circuit = _load(args)
    graph = _build_graph(circuit, args.dag, _rules(args, args.dag), DisjunctiveEdgeMode(args.dmode))
    config = SolverConfig(time_limit=args.time_limit)
    if args.method == "asap":
        schedule = asap(circuit, graph.dag)
    elif args.method == "heft":
        schedule = heft(graph)
    elif args.method == "brute":
        schedule = solve_bruteforce(graph).schedule
    else:
        schedule = solve_bnb(graph, config).schedule
    if args.gantt:
        _emit(render_gantt(circuit, schedule), args.out)
    else:
        _emit(schedule_to_json(circuit, schedule), args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    circuit = _load(args)
    schedule = schedule_from_json(_read_text(args.schedule), circuit)
    dag = _build_dag(circuit, args.dag, _rules(args, args.dag))
    violations = validate(circuit, dag, schedule)
    if violations:
        for violation in violations:
            print(violation)
        print(f"{len(violations)} violation(s)")
        return 1
    print(f"valid: makespan {schedule.makespan} dt")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    errors: list[tuple[str, str]] = []
    rows = run_compare(
        args.circuits,
        _read_table(args.durations),
        SolverConfig(time_limit=args.time_limit),
        args.method,
        rules=CommutationRuleSet.parse(args.rules),
        mode=DisjunctiveEdgeMode(args.dmode),
        fmt=args.format,
        default_duration=args.default_duration,
        errors=errors,
    )
    text = format_compare_csv(rows) if args.csv else format_compare_table(rows)
    _emit(text, args.out)
    for path, message in errors:
        print(f"qos: compare: {path}: {message}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_export_mip(args: argparse.Namespace) -> int:
    circuit = _load(args)
    graph = _build_graph(circuit, args.dag, _rules(args, args.dag), DisjunctiveEdgeMode(args.dmode))
    _emit(export_mip_lp(graph), args.out)
    return 0


_HANDLERS = {
    "parse": _cmd_parse,
    "dag": _cmd_dag,
    "schedule": _cmd_schedule,
    "validate": _cmd_validate,
    "compare": _cmd_compare,
    "export-mip": _cmd_export_mip,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (CircuitError, ValueError) as exc:
        print(f"qos: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
