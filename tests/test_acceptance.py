"""End-to-end acceptance checks.

Each test evaluates one criterion at its stated tolerance and prints a
single pass/fail line (visible with ``pytest -s``). The shared corpus is
200 seeded random circuits with up to 10 ops on up to 5 qubits and
durations uniform in 1..10, matching the oracle-equivalence setup.
"""

from __future__ import annotations

import math
import random
import time
from decimal import Decimal

import pytest

from helpers import fig2_circuit
from oracle import commutes_matrix_oracle
from qos.circuit import Operation, circuit_to_json
from qos.cli import improvement_percent, main
from qos.commutation import CommutationRuleSet, commutes
from qos.depgraph import (
    DisjunctiveEdgeMode,
    build_disjunctive_graph,
    build_extended_dag,
    build_standard_dag,
)
from qos.exact import solve_bnb, solve_bruteforce
from qos.schedulers import Orientation, asap, heft, semi_active, validate

DEFAULT = CommutationRuleSet.default()
STANDARD = CommutationRuleSet.standard()


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def _ext_graph(circuit):
    dag = build_extended_dag(circuit, DEFAULT)
    return dag, build_disjunctive_graph(circuit, dag, DEFAULT, DisjunctiveEdgeMode.GROUPED)


def test_criterion_1_worked_example_reproduction():
    fig2 = fig2_circuit()
    std_dag = build_standard_dag(fig2)
    _, graph = _ext_graph(fig2)

    asap(fig2, std_dag)  # warm-up
    solve_bnb(graph)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        std_schedule = asap(fig2, std_dag)
        result = solve_bnb(graph)
        best = min(best, time.perf_counter() - t0)

    ok = (
        std_schedule.makespan == 3
        and result.makespan == 2
        and result.optimal
        and best < 1e-3
    )
    _report(
        1,
        "worked example: asap(std)=3, bnb(ext)=2 proved optimal, <1 ms",
        ok,
        f"std={std_schedule.makespan} ext={result.makespan} "
        f"optimal={result.optimal} best_run={best * 1e6:.0f}us",
    )


def test_criterion_2_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    mismatches = 0
    for circuit in corpus:
        _, graph = _ext_graph(circuit)
        exact = solve_bnb(graph)
        brute = solve_bruteforce(graph)
        if exact.makespan != brute.makespan or not exact.optimal:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _report(
        2,
        "branch-and-bound equals brute force on 200 random circuits in <60 s",
        ok,
        f"mismatches={mismatches} elapsed={elapsed:.1f}s",
    )


def test_criterion_3_relaxation_monotonicity(corpus):
    exceptions = 0
    for circuit in corpus:
        std_makespan = asap(circuit, build_standard_dag(circuit)).makespan
        result = solve_bnb(_ext_graph(circuit)[1])
        if not result.optimal or result.makespan > std_makespan:
            exceptions += 1
    _report(
        3,
        "proved-optimal extended makespan never exceeds the standard baseline",
        exceptions == 0,
        f"exceptions={exceptions}",
    )


def test_criterion_4_semi_active_uniqueness(corpus):
    mismatches = 0
    for circuit in corpus:
        std_dag = build_standard_dag(circuit)
        graph = build_disjunctive_graph(circuit, std_dag, STANDARD, DisjunctiveEdgeMode.GROUPED)
        if graph.pairs:
            mismatches += 1
            continue
        if asap(circuit, std_dag) != semi_active(graph, Orientation(())):
            mismatches += 1
    _report(
        4,
        "asap on the standard DAG equals its unique semi-active schedule",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def test_criterion_5_heft_bounds(corpus):
    failures = 0
    for circuit in corpus:
        dag, graph = _ext_graph(circuit)
        schedule = heft(graph)
        if validate(circuit, dag, schedule):
            failures += 1
            continue
        if schedule.makespan < solve_bnb(graph).makespan:
            failures += 1
    fig2_makespan = heft(_ext_graph(fig2_circuit())[1]).makespan
    ok = failures == 0 and fig2_makespan == 2
    _report(
        5,
        "heft schedules validate, never beat the exact optimum, and reach 2 on the worked example",
        ok,
        f"failures={failures} fig2={fig2_makespan}",
    )


def test_criterion_6_commutation_soundness():
    rng = random.Random(4242)

    def one_qubit(index: int, qubit: int) -> Operation:
        name = rng.choice(["h", "x", "z", "s", "t", "u1", "u2", "u3"])
        nparams = {"u1": 1, "u2": 2, "u3": 3}.get(name, 0)
        params = tuple(rng.uniform(0.0, 2 * math.pi) for _ in range(nparams))
        return Operation(index, name, (qubit,), params, 1)

    def patterns():
        q = rng.sample(range(3), 3)
        yield "DISJOINT_QUBITS", one_qubit(0, q[0]), rng.choice(
            [one_qubit(1, q[1]), Operation(1, "cx", (q[1], q[2]), (), 1)]
        )
        yield (
            "U1_ON_CX_CONTROL",
            Operation(0, "u1", (q[0],), (rng.uniform(0, 2 * math.pi),), 1),
            Operation(1, "cx", (q[0], q[1]), (), 1),
        )
        yield (
            "CX_SHARED_CONTROL",
            Operation(0, "cx", (q[0], q[1]), (), 1),
            Operation(1, "cx", (q[0], q[2]), (), 1),
        )
        yield (
            "CX_SHARED_TARGET",
            Operation(0, "cx", (q[0], q[2]), (), 1),
            Operation(1, "cx", (q[1], q[2]), (), 1),
        )
        yield (
            "X_ON_CX_TARGET",
            Operation(0, "x", (q[1],), (), 1),
            Operation(1, "cx", (q[0], q[1]), (), 1),
        )
        twin = one_qubit(0, q[0])
        yield "IDENTICAL_OPS", twin, Operation(1, twin.name, twin.qubits, twin.params, 1)

    violations = 0
    checked: dict[str, int] = {}
    for _ in range(120):
        for rule_name, a, b in patterns():
            if not commutes(a, b, DEFAULT):
                violations += 1
                continue
            if not commutes_matrix_oracle(a, b, tol=1e-9):
                violations += 1
            checked[rule_name] = checked.get(rule_name, 0) + 1
    ok = (
        violations == 0
        and len(checked) == 6
        and all(count >= 100 for count in checked.values())
    )
    _report(
        6,
        "every rule pattern stays within 1e-9 of a vanishing commutator",
        ok,
        f"violations={violations} per_pattern={min(checked.values(), default=0)}+",
    )


def test_criterion_7_improvement_rate_fixtures():
    fixtures = [
        (20408, 18906, Decimal("7.36")),
        (6328, 5984, Decimal("5.44")),
        (24940, 24308, Decimal("2.53")),
    ]
    worst = Decimal(0)
    for std, ext, expected in fixtures:
        got = improvement_percent(std, ext)
        worst = max(worst, abs(got - expected))
    _report(
        7,
        "improvement-rate arithmetic matches the reference pairs within 0.01",
        worst <= Decimal("0.01"),
        f"max_error={worst}",
    )


def test_criterion_8_compare_determinism(corpus, tmp_path_factory, capsys):
    directory = tmp_path_factory.mktemp("corpus")
    paths = []
    for i, circuit in enumerate(corpus):
        path = directory / f"c{i:03d}.json"
        path.write_text(circuit_to_json(circuit), encoding="utf-8")
        paths.append(str(path))

    assert main(["compare", *paths]) == 0
    first = capsys.readouterr().out
    assert main(["compare", *paths]) == 0
    second = capsys.readouterr().out
    ok = first.encode("utf-8") == second.encode("utf-8") and len(first) > 0
    _report(
        8,
        "two compare runs over the corpus are byte-identical",
        ok,
        f"bytes={len(first.encode('utf-8'))}",
    )
