"""The in-process pipeline that the benchmark times, with optional spans.

``run_circuit`` follows the path ``qos compare`` takes for one file: read
and parse, resolve durations, standard DAG, asap, extended DAG, GROUPED
disjunctive graph, then heft or branch and bound. Each call into a ``qos``
module is wrapped in a span named ``<module>.<step>``, so layers are timed
from outside, at their public functions.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from qos import (
    CommutationRuleSet,
    DisjunctiveEdgeMode,
    DurationTable,
    SolverConfig,
    apply_durations,
    asap,
    build_disjunctive_graph,
    build_extended_dag,
    build_standard_dag,
    heft,
    parse_json_circuit,
    parse_qasm_subset,
    solve_bnb,
)


@dataclass
class Span:
    name: str
    circuit: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str, circuit: str) -> "_SpanScope":
        return _SpanScope(self, name, circuit)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: the span's duration minus the part
        covered by its child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start - covered)
        return totals

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "circuit": s.circuit, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]


class _SpanScope:
    __slots__ = ("tracer", "name", "circuit", "index")

    def __init__(self, tracer: Tracer, name: str, circuit: str) -> None:
        self.tracer, self.name, self.circuit = tracer, name, circuit

    def __enter__(self) -> None:
        t = self.tracer
        parent = t._open[-1] if t._open else None
        self.index = len(t.spans)
        t.spans.append(Span(self.name, self.circuit, parent, time.perf_counter()))
        t._open.append(self.index)

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index].end = time.perf_counter()
        self.tracer._open.pop()


class NoTracer:
    """Tracing off: every span is a shared no-op context."""

    _null = nullcontext()

    def span(self, name: str, circuit: str) -> nullcontext:
        return self._null


@dataclass
class CircuitRun:
    """What one pipeline run produced. The graph objects are kept only when
    the caller asks for them, for the correctness checks. ``start`` and
    ``bnb_start`` are ``time.perf_counter`` readings. ``nominal_s`` is
    ``wall_s`` taken to nominal host speed, set by the caller that measured
    the speed."""

    name: str
    num_qubits: int
    num_ops: int
    std_makespan: int
    ext_makespan: int
    wall_s: float
    start: float = 0.0
    nominal_s: float = 0.0
    optimal: bool | None = None
    nodes: int = 0
    bnb_start: float = 0.0
    bnb_s: float = 0.0
    std_dag: object = None
    std_starts: tuple[int, ...] = ()
    graph: object = None
    ext_starts: tuple[int, ...] = ()


RULES = CommutationRuleSet.default()


def run_circuit(
    path: str,
    table: DurationTable | None,
    method: str,
    time_limit: float | None,
    tracer: Tracer | NoTracer,
    keep: bool = False,
) -> CircuitRun:
    """Run one circuit file through the compare pipeline and time it."""
    name = Path(path).stem
    span = tracer.span
    bnb = None
    t0 = time.perf_counter()
    with span("pipeline", name):
        text = Path(path).read_text(encoding="utf-8")
        with span("circuit.parse", name):
            if path.endswith(".qasm"):
                circuit = parse_qasm_subset(text)
            else:
                circuit = parse_json_circuit(text)
        if table is not None:
            with span("circuit.durations", name):
                circuit = apply_durations(circuit, table)
        with span("depgraph.standard", name):
            std_dag = build_standard_dag(circuit)
        with span("schedulers.asap", name):
            std = asap(circuit, std_dag)
        with span("depgraph.extended", name):
            ext_dag = build_extended_dag(circuit, RULES)
        with span("depgraph.disjunctive", name):
            graph = build_disjunctive_graph(circuit, ext_dag, RULES, DisjunctiveEdgeMode.GROUPED)
        if method == "heft":
            with span("schedulers.heft", name):
                ext = heft(graph)
        else:
            with span("exact.bnb", name):
                b0 = time.perf_counter()
                bnb = solve_bnb(graph, SolverConfig(time_limit=time_limit))
                bnb_s = time.perf_counter() - b0
            ext = bnb.schedule
    wall = time.perf_counter() - t0
    run = CircuitRun(name, circuit.num_qubits, len(circuit.ops), std.makespan, ext.makespan, wall, t0)
    if bnb is not None:
        run.optimal, run.nodes, run.bnb_start, run.bnb_s = bnb.optimal, bnb.nodes, b0, bnb_s
    if keep:
        run.std_dag, run.std_starts = std_dag, std.starts
        run.graph, run.ext_starts = graph, ext.starts
    return run
