"""Schedule construction and checking.

A schedule assigns each operation a non-negative integer start time in dt;
its makespan is the latest finish across all operations. This module
provides the validity check (precedence plus per-qubit non-overlap), the
longest-path evaluation of a fully oriented disjunctive graph, a greedy
earliest-start scheduler over a dependency DAG, and a rank-driven list
scheduler with an insertion-based slot policy.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .circuit import Circuit, CircuitError
from .depgraph import CycleError  # noqa: F401  (raised by semi_active)
from .depgraph import DependencyDag, DisjunctiveGraph


@dataclass(frozen=True)
class Schedule:
    """Start time per operation plus the resulting makespan, all in dt."""

    starts: tuple[int, ...]
    makespan: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", tuple(self.starts))
        if any(s < 0 for s in self.starts):
            raise ValueError("start times must be non-negative")
        if self.makespan < 0:
            raise ValueError("makespan must be non-negative")

    @classmethod
    def from_starts(cls, starts: Sequence[int], durations: Sequence[int]) -> "Schedule":
        makespan = max((s + d for s, d in zip(starts, durations)), default=0)
        return cls(tuple(starts), makespan)


@dataclass(frozen=True)
class Orientation:
    """One directed arc per disjunctive pair; total orientations turn a
    disjunctive graph into a plain DAG (when acyclic)."""

    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(tuple(a) for a in self.arcs))


@dataclass(frozen=True)
class Violation:
    """A broken scheduling constraint, naming the constraint kind and the
    offending operation pair."""

    kind: str  # "precedence" or "non-overlap"
    ops: tuple[int, int]
    message: str

    def __str__(self) -> str:
        return self.message


def validate(circuit: Circuit, dag: DependencyDag, schedule: Schedule) -> list[Violation]:
    """Check precedence against ``dag`` and per-qubit non-overlap against
    ``circuit``; an empty list means the schedule is feasible."""
    n = len(circuit.ops)
    if dag.num_ops != n:
        raise ValueError(f"DAG has {dag.num_ops} nodes but the circuit has {n} ops")
    if len(schedule.starts) != n:
        raise ValueError(f"schedule has {len(schedule.starts)} starts but the circuit has {n} ops")
    violations: list[Violation] = []
    starts = schedule.starts
    for i, j in dag.sorted_edges:
        finish = starts[i] + circuit.ops[i].duration
        if finish > starts[j]:
            violations.append(
                Violation(
                    "precedence",
                    (i, j),
                    f"precedence: op {i} finishes at {finish} after op {j} starts at {starts[j]}",
                )
            )
    by_qubit: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for op in circuit.ops:
        if op.duration == 0:
            continue  # empty interval occupies no instant
        for q in op.qubits:
            by_qubit[q].append((starts[op.index], starts[op.index] + op.duration, op.index))
    for q in sorted(by_qubit):
        intervals = sorted(by_qubit[q])
        max_end, max_idx = intervals[0][1], intervals[0][2]
        for start, end, idx in intervals[1:]:
            if start < max_end:
                violations.append(
                    Violation(
                        "non-overlap",
                        (max_idx, idx),
                        f"non-overlap: ops {max_idx} and {idx} overlap on qubit {q}",
                    )
                )
            if end > max_end:
                max_end, max_idx = end, idx
    return violations


def semi_active(g: DisjunctiveGraph, orientation: Orientation) -> Schedule:
    """Evaluate a total orientation: every operation starts as early as its
    incoming conjunctive edges and oriented pairs allow (longest path)."""
    covered = sorted(tuple(sorted(arc)) for arc in orientation.arcs)
    if covered != list(g.sorted_pairs):
        raise ValueError("orientation does not cover exactly the disjunctive pairs")
    starts = g.dag.paths(g.durations, orientation.arcs).heads
    return Schedule.from_starts(starts, g.durations)


def asap(circuit: Circuit, dag: DependencyDag) -> Schedule:
    """Greedy earliest-start scheduling over a dependency DAG.

    Operations become eligible once every DAG predecessor is placed; each
    step places the eligible operation with the earliest feasible start
    (ties broken by source index) at the later of its predecessors' finish
    times and the current free time of each acting qubit. Qubits are only
    appended to, never back-filled, so no operation is inserted into a gap.
    On a standard DAG this reproduces the unique semi-active schedule.

    Eligible operations wait in a heap keyed by a start computed when they
    were pushed. A start can only grow (an eligible op's ready time is fixed
    and qubit free times never decrease), so a popped key that is still
    current is the true minimum, and a stale one goes back with its new
    value: O(a + (n + r) log n) for n ops, r stale pops and a arcs of the
    DAG's join graph (linear in its runs' sizes), rather than a scan of
    every eligible operation per step. An op waits for each of its incoming
    links, not for each distinct predecessor.
    """
    n = len(circuit.ops)
    if dag.num_ops != n:
        raise ValueError(f"DAG has {dag.num_ops} nodes but the circuit has {n} ops")
    succ = dag.join_successors
    missing = _indegrees(succ)
    ready = [0] * len(succ)
    # Keyed by the qubits that occur, not num_qubits, which the input sets.
    qubit_free = dict.fromkeys((q for op in circuit.ops for q in op.qubits), 0)
    starts = [0] * n

    def candidate(i: int) -> int:
        return max(ready[i], max(qubit_free[q] for q in circuit.ops[i].qubits))

    heap = [(0, i) for i in range(n) if missing[i] == 0]  # nothing placed yet
    while heap:
        key, chosen = heappop(heap)
        start = candidate(chosen)
        if start > key:
            heappush(heap, (start, chosen))
            continue
        finish = start + circuit.ops[chosen].duration
        starts[chosen] = start
        for q in circuit.ops[chosen].qubits:
            qubit_free[q] = finish
        for succ_op in _release(succ, n, chosen, finish, ready, missing):
            heappush(heap, (candidate(succ_op), succ_op))
    return Schedule.from_starts(starts, [op.duration for op in circuit.ops])


def _indegrees(succ: Sequence[Sequence[int]]) -> list[int]:
    indegree = [0] * len(succ)
    for out in succ:
        for v in out:
            indegree[v] += 1
    return indegree


def _release(
    succ: Sequence[Sequence[int]],
    num_ops: int,
    u: int,
    finish: int,
    ready: list[int],
    missing: list[int],
) -> list[int]:
    """Pass op u's finish time along its arcs in a DAG's
    :attr:`~qos.depgraph.DependencyDag.join_successors`, counting each arc
    off its head's ``missing``; return the ops whose last incoming arc this
    was. A join node passes its sources' latest finish on to its targets
    once its last source is placed."""
    released = []
    for v in succ[u]:
        if ready[v] < finish:
            ready[v] = finish
        missing[v] -= 1
        if not missing[v]:
            if v < num_ops:
                released.append(v)
                continue
            at = ready[v]
            for t in succ[v]:
                if ready[t] < at:
                    ready[t] = at
                missing[t] -= 1
                if not missing[t]:
                    released.append(t)
    return released


def upward_rank(g: DisjunctiveGraph) -> tuple[int, ...]:
    """Priority of each operation: its duration plus the largest rank among
    its conjunctive successors; exit operations rank at their own duration.
    Disjunctive pairs do not contribute."""
    return tuple(g.dag.paths(g.durations).tails)


def heft(g: DisjunctiveGraph) -> Schedule:
    """List scheduling driven by upward rank with an insertion-based policy.

    Operations are placed in descending rank order (ties by ascending source
    index, which keeps conjunctive predecessors ahead of their successors).
    Each one goes into the earliest idle slot, simultaneously free on all
    its acting qubits, that starts at or after its ready time; placements
    may land in gaps between earlier placements. A gap exactly as long as
    the operation is usable, and a zero-length operation may sit on the
    boundary of a busy interval but never strictly inside one. Ready times
    propagate to conjunctive successors only, through the DAG's join nodes:
    an op is ready at the latest finish of the previous run on each of its
    qubits. Same-qubit contention is resolved purely by slot occupancy.

    Each qubit keeps its disjoint busy intervals as two parallel sorted
    lists of starts and ends. A slot search bisects each acting qubit's ends
    at the candidate start and steps over the intervals the operation would
    hit, repeating over the qubits until none moves the start. A placement
    costs O(log b) per qubit plus the intervals stepped over and one list
    insert, for b intervals on the qubit, rather than a merge and sort of
    every interval on its qubits.
    """
    ranks = upward_rank(g)
    order = sorted(range(g.num_ops), key=lambda i: (-ranks[i], i))
    succ = g.dag.join_successors
    missing = _indegrees(succ)
    ready = [0] * len(succ)
    busy: dict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
    starts = [0] * g.num_ops
    for u in order:
        duration = g.durations[u]
        lists = [busy[q] for q in g.qubits[u]]
        start = ready[u]
        moved = True
        while moved:
            moved = False
            for begins, ends in lists:
                k = bisect_right(ends, start)  # first interval ending after start
                while k < len(ends) and start + duration > begins[k]:
                    start = ends[k]
                    k += 1
                    moved = True
        starts[u] = start
        if duration:
            for begins, ends in lists:
                k = bisect_right(ends, start)
                begins.insert(k, start)
                ends.insert(k, start + duration)
        _release(succ, g.num_ops, u, start + duration, ready, missing)
    return Schedule.from_starts(starts, g.durations)


# --- schedule serialization and rendering -------------------------------------

def schedule_to_json(circuit: Circuit, schedule: Schedule, *, indent: int | None = 2) -> str:
    """Serialize a schedule: makespan plus one record per operation with its
    resolved start and duration."""
    if len(schedule.starts) != len(circuit.ops):
        raise ValueError("schedule does not match the circuit")
    doc = {
        "makespan": schedule.makespan,
        "starts": [
            {
                "op": op.index,
                "name": op.name,
                "qubits": list(op.qubits),
                "start": schedule.starts[op.index],
                "duration": op.duration,
            }
            for op in circuit.ops
        ],
    }
    return json.dumps(doc, indent=indent) + "\n"


def schedule_from_json(text: str, circuit: Circuit) -> Schedule:
    """Read a schedule written by :func:`schedule_to_json` back against its
    circuit, checking coverage, durations, and makespan consistency."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the stack
        raise CircuitError(f"invalid schedule JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("starts"), list):
        raise CircuitError("schedule document must be an object with a 'starts' array")
    n = len(circuit.ops)
    starts: list[int | None] = [None] * n
    for entry in doc["starts"]:
        if not isinstance(entry, dict):
            raise CircuitError(f"schedule entry {entry!r} is not an object")
        idx = entry.get("op")
        if isinstance(idx, bool) or not isinstance(idx, int) or not 0 <= idx < n:
            raise CircuitError(f"schedule entry has bad op index {idx!r}")
        if starts[idx] is not None:
            raise CircuitError(f"schedule lists op {idx} twice")
        start = entry.get("start")
        if isinstance(start, bool) or not isinstance(start, int) or start < 0:
            raise CircuitError(f"op {idx}: start must be a non-negative integer")
        declared = entry.get("duration", circuit.ops[idx].duration)
        if declared != circuit.ops[idx].duration:
            raise CircuitError(
                f"op {idx}: schedule duration {declared} disagrees with circuit "
                f"duration {circuit.ops[idx].duration}"
            )
        starts[idx] = start
    if any(s is None for s in starts):
        missing = [i for i, s in enumerate(starts) if s is None]
        raise CircuitError(f"schedule missing ops {missing}")
    schedule = Schedule.from_starts([s for s in starts if s is not None], [op.duration for op in circuit.ops])
    if "makespan" in doc and doc["makespan"] != schedule.makespan:
        raise CircuitError(
            f"declared makespan {doc['makespan']} disagrees with computed {schedule.makespan}"
        )
    return schedule


def render_gantt(circuit: Circuit, schedule: Schedule, *, width: int = 72) -> str:
    """Text Gantt chart: one row per qubit up to the largest one an
    operation acts on, cells proportional to duration, each block labeled
    with its operation index. When the makespan exceeds ``width`` cells,
    the time axis is scaled to whole dt per cell."""
    makespan = schedule.makespan
    scale = 1 if makespan <= width else -(-makespan // width)
    cells = -(-makespan // scale)
    lines = [f"makespan {makespan} dt (1 cell = {scale} dt)"]
    # Sized by the qubits that occur, not num_qubits, which the input sets.
    num_rows = max((q for op in circuit.ops for q in op.qubits), default=-1) + 1
    label_width = len(str(num_rows - 1))
    rows = [["."] * cells for _ in range(num_rows)]
    for op in circuit.ops:
        if op.duration == 0:
            continue
        start = schedule.starts[op.index]
        c0 = start // scale
        c1 = max(c0 + 1, -(-(start + op.duration) // scale))
        block = str(op.index).ljust(c1 - c0, "=")[: c1 - c0]
        for q in op.qubits:
            rows[q][c0:c1] = block
    for q, row in enumerate(rows):
        lines.append(f"q{q:<{label_width}} |{''.join(row)}|")
    return "\n".join(lines) + "\n"
