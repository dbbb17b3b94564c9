"""Reference implementations the tests hold the package to.

A dense-matrix commutator check over the known gate unitaries is the
independent oracle for the commutation rule table; ``graphlib`` gives the
reference topological order for the longest-path kernel; the quadratic
list schedulers below, which merge and scan every busy interval or every
ready operation at each step, are the reference for ``heft`` and ``asap``;
a pair builder that partitions each qubit's ops into commuting runs itself
is the reference for ``build_disjunctive_graph``; the extended-DAG builder
that tests each op against every member of a run and stores the edges
between consecutive runs one by one is the reference for
``build_extended_dag``; the parsers and ``apply_durations`` below, which
check each op in the parser and again in ``Operation``, split statements
one character at a time and rebuild each op through ``replace``, are the
reference for the load path; the branch and bound that runs a full
longest-path pass with reachability at every search node, and again after
forcing a pair, with a machine test that indexes the pairs itself, is the
reference for ``solve_bnb``. None of them is on the package's import path.
"""

from __future__ import annotations

import graphlib
import json
import math
import time
from bisect import insort
from collections import defaultdict
from dataclasses import replace
from itertools import combinations
from operator import itemgetter
from typing import Sequence

import numpy as np

from qos.circuit import (
    _GATE_RE,
    _OPERAND_RE,
    _QREG_RE,
    _UNSUPPORTED_KEYWORDS,
    QASM_GATES,
    Circuit,
    CircuitError,
    DurationTable,
    Operation,
    _as_duration,
    _eval_angle,
    _split_params,
)
from qos.commutation import CommutationRuleSet, commutes
from qos.depgraph import DependencyDag, DisjunctiveEdgeMode, DisjunctiveGraph
from qos.exact import SolveResult, SolverConfig, _jackson_bound, _TimeLimit
from qos.schedulers import Schedule, heft, upward_rank

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _gate_matrix(op: Operation) -> np.ndarray:
    """Unitary of a known gate on its own operands (first operand is the
    most significant bit)."""
    name, p = op.name, op.params
    if name == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2
    if name == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if name == "z":
        return np.diag([1, -1]).astype(complex)
    if name == "s":
        return np.diag([1, 1j]).astype(complex)
    if name == "t":
        return np.diag([1, np.exp(1j * math.pi / 4)])
    if name == "u1":
        (lam,) = p
        return np.diag([1, np.exp(1j * lam)])
    if name == "u2":
        phi, lam = p
        return _INV_SQRT2 * np.array(
            [[1, -np.exp(1j * lam)], [np.exp(1j * phi), np.exp(1j * (phi + lam))]]
        )
    if name == "u3":
        theta, phi, lam = p
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array(
            [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
        )
    if name == "cx":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise ValueError(f"no unitary known for gate {op.name!r}")


def _embed(gate: np.ndarray, gate_qubits: tuple[int, ...], support: tuple[int, ...]) -> np.ndarray:
    """Lift a gate unitary onto the full Hilbert space of ``support``
    (sorted qubit ids, first id most significant)."""
    n = len(support)
    positions = [support.index(q) for q in gate_qubits]
    k = len(gate_qubits)
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - i)) & 1 for i in range(n)]
        sub_in = 0
        for pos in positions:
            sub_in = (sub_in << 1) | bits[pos]
        for sub_out in range(1 << k):
            amp = gate[sub_out, sub_in]
            if amp == 0:
                continue
            new_bits = list(bits)
            for j, pos in enumerate(positions):
                new_bits[pos] = (sub_out >> (k - 1 - j)) & 1
            row = 0
            for bit in new_bits:
                row = (row << 1) | bit
            out[row, col] = amp
    return out


def commutes_matrix_oracle(a: Operation, b: Operation, *, tol: float = 1e-9) -> bool:
    """Decide commutation numerically: embed both unitaries on their union
    support and test whether the commutator's max-norm is within ``tol``.

    Supports the gate set with known matrices (h, x, z, s, t, u1, u2, u3,
    cx) and union supports of at most 3 qubits.
    """
    support = tuple(sorted(set(a.qubits) | set(b.qubits)))
    if len(support) > 3:
        raise ValueError(f"combined support of {len(support)} qubits exceeds the 3-qubit limit")
    mat_a = _embed(_gate_matrix(a), a.qubits, support)
    mat_b = _embed(_gate_matrix(b), b.qubits, support)
    return float(np.max(np.abs(mat_a @ mat_b - mat_b @ mat_a))) <= tol


def edge_successors(dag: DependencyDag) -> list[list[int]]:
    """Per op, its direct successors in ascending order, read off the
    DAG's op-level ``edges`` rather than its links."""
    out: list[list[int]] = [[] for _ in range(dag.num_ops)]
    for i, j in sorted(dag.edges):
        out[i].append(j)
    return out


def reference_paths(
    num_ops: int, arcs: list[tuple[int, int]], durations: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """Heads, tails and reachability bitsets of an acyclic digraph, by
    definition: longest paths along a ``graphlib`` topological order, and a
    search from every node. Raises ``graphlib.CycleError`` on a cycle."""
    preds: dict[int, list[int]] = {v: [] for v in range(num_ops)}
    succs: dict[int, list[int]] = {v: [] for v in range(num_ops)}
    for u, v in arcs:
        preds[v].append(u)
        succs[u].append(v)
    order = list(graphlib.TopologicalSorter(preds).static_order())
    heads = [0] * num_ops
    for v in order:
        heads[v] = max((heads[u] + durations[u] for u in preds[v]), default=0)
    tails = [0] * num_ops
    for u in reversed(order):
        tails[u] = durations[u] + max((tails[v] for v in succs[u]), default=0)
    reach = []
    for u in range(num_ops):
        seen: set[int] = set()
        stack = list(succs[u])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(succs[v])
        reach.append(sum(1 << v for v in seen))
    return heads, tails, reach


def reference_asap(circuit: Circuit, dag: DependencyDag) -> Schedule:
    """Greedy earliest-start scheduling by a ``min`` scan over every
    eligible operation at each step (ties by source index)."""
    n = len(circuit.ops)
    if dag.num_ops != n:
        raise ValueError(f"DAG has {dag.num_ops} nodes but the circuit has {n} ops")
    successors = edge_successors(dag)
    missing = [0] * n
    for _, j in dag.edges:
        missing[j] += 1
    ready = [0] * n
    qubit_free = [0] * circuit.num_qubits
    starts = [0] * n
    eligible = {i for i in range(n) if missing[i] == 0}
    while eligible:
        def candidate(i: int) -> int:
            return max(ready[i], max(qubit_free[q] for q in circuit.ops[i].qubits))

        chosen = min(eligible, key=lambda i: (candidate(i), i))
        start = candidate(chosen)
        finish = start + circuit.ops[chosen].duration
        starts[chosen] = start
        for q in circuit.ops[chosen].qubits:
            qubit_free[q] = finish
        eligible.remove(chosen)
        for succ in successors[chosen]:
            ready[succ] = max(ready[succ], finish)
            missing[succ] -= 1
            if missing[succ] == 0:
                eligible.add(succ)
    return Schedule.from_starts(starts, [op.duration for op in circuit.ops])


def _earliest_slot(intervals: list[tuple[int, int]], ready: int, duration: int) -> int:
    """Earliest t >= ready such that [t, t+duration) avoids every busy
    interval. A gap exactly as long as the operation is usable."""
    t = ready
    for start, end in intervals:
        if t + duration <= start:
            break
        t = max(t, end)
    return t


def reference_heft(g: DisjunctiveGraph) -> Schedule:
    """Rank-ordered insertion list scheduling that, for every placement,
    merges and sorts all busy intervals on the op's qubits and scans them
    from the ready time."""
    ranks = upward_rank(g)
    order = sorted(range(g.num_ops), key=lambda i: (-ranks[i], i))
    ready = [0] * g.num_ops
    busy: dict[int, list[tuple[int, int]]] = defaultdict(list)
    starts = [0] * g.num_ops
    successors = edge_successors(g.dag)
    for u in order:
        duration = g.durations[u]
        merged = sorted(iv for q in g.qubits[u] for iv in busy[q])
        start = _earliest_slot(merged, ready[u], duration)
        starts[u] = start
        if duration:
            for q in g.qubits[u]:
                insort(busy[q], (start, start + duration))
        for v in successors[u]:
            ready[v] = max(ready[v], start + duration)
    return Schedule.from_starts(starts, g.durations)


def _ops_by_qubit(circuit: Circuit) -> dict[int, list[int]]:
    seq: dict[int, list[int]] = defaultdict(list)
    for op in circuit.ops:
        for q in op.qubits:
            seq[q].append(op.index)
    return seq


def _commutation_classes(
    circuit: Circuit, rules: CommutationRuleSet
) -> dict[int, list[list[int]]]:
    """Per qubit, partition the operations acting on it into maximal
    consecutive runs of pairwise-commuting operations. An op joins the
    current run only if it commutes with every member (commutation is not
    transitive); otherwise it opens a new run."""
    classes: dict[int, list[list[int]]] = {}
    for qubit, indices in _ops_by_qubit(circuit).items():
        runs: list[list[int]] = []
        for i in indices:
            if runs and all(
                commutes(circuit.ops[i], circuit.ops[j], rules) for j in runs[-1]
            ):
                runs[-1].append(i)
            else:
                runs.append([i])
        classes[qubit] = runs
    return classes


def reference_pairs(
    circuit: Circuit,
    dag: DependencyDag,
    rules: CommutationRuleSet,
    mode: DisjunctiveEdgeMode,
) -> set[tuple[int, int]]:
    """Disjunctive pairs from a fresh commutation partition of the circuit
    rather than from the groups the DAG records."""
    if mode is DisjunctiveEdgeMode.REDUNDANT:
        candidates: set[tuple[int, int]] = set()
        for indices in _ops_by_qubit(circuit).values():
            candidates.update(combinations(indices, 2))
    else:
        candidates = set()
        for runs in _commutation_classes(circuit, rules).values():
            for run in runs:
                candidates.update(combinations(run, 2))
    pairs = {p for p in candidates if p not in dag.edges}
    if mode is DisjunctiveEdgeMode.MINIMAL:
        pairs = {(k, l) for k, l in pairs if not dag.has_path(k, l)}
    return pairs


def reference_extended_dag(circuit: Circuit, rules: CommutationRuleSet) -> DependencyDag:
    """Relax the standard DAG using commutation. Per qubit, the ops acting on
    it are cut into maximal consecutive runs of pairwise-commuting ops: an op
    joins the current run only if it commutes with every member (commutation
    is not transitive); otherwise it opens a new run. Only consecutive runs
    are ordered, with an edge from every member of one run to every member
    of the next; runs of two or more ops become the DAG's ``groups``."""
    edges: set[tuple[int, int]] = set()
    groups: list[tuple[int, ...]] = []
    for indices in _ops_by_qubit(circuit).values():
        runs: list[list[int]] = []
        for i in indices:
            if runs and all(
                commutes(circuit.ops[i], circuit.ops[j], rules) for j in runs[-1]
            ):
                runs[-1].append(i)
            else:
                runs.append([i])
        for earlier, later in zip(runs, runs[1:]):
            edges.update((i, j) for i in earlier for j in later)
        groups.extend(tuple(run) for run in runs if len(run) > 1)
    links = tuple(((i,), (j,)) for i, j in sorted(edges))
    return DependencyDag(len(circuit.ops), links, rules, tuple(groups))


def reference_apply_durations(circuit: Circuit, table: DurationTable) -> Circuit:
    """Return a copy of ``circuit`` with every operation's duration resolved
    through ``table``; the input circuit is untouched."""
    ops = []
    for op in circuit.ops:
        duration = table.lookup(op.name, op.qubits)
        if duration is None:
            operands = ",".join(map(str, op.qubits))
            raise CircuitError(f"op {op.index}: no duration for {op.name}({operands})")
        ops.append(replace(op, duration=duration))
    return Circuit(circuit.num_qubits, tuple(ops))


def reference_parse_json_circuit(text: str) -> Circuit:
    """Parse the JSON circuit format.

    Top-level object with "num_qubits" and "ops", each op an object with
    "name", "qubits", optional "params", optional integer "duration".
    Missing durations default to 0 pending :func:`apply_durations`.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the stack
        raise CircuitError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitError("circuit document must be a JSON object")
    num_qubits = doc.get("num_qubits")
    if isinstance(num_qubits, bool) or not isinstance(num_qubits, int):
        raise CircuitError("num_qubits must be an integer")
    entries = doc.get("ops", [])
    if not isinstance(entries, list):
        raise CircuitError("ops must be an array")
    ops = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CircuitError(f"op {i}: must be an object")
        name = entry.get("name")
        if not isinstance(name, str):
            raise CircuitError(f"op {i}: missing gate name")
        qubits = entry.get("qubits")
        if not isinstance(qubits, list) or any(
            isinstance(q, bool) or not isinstance(q, int) for q in qubits
        ):
            raise CircuitError(f"op {i} ({name}): qubits must be an array of integers")
        params = entry.get("params", [])
        if not isinstance(params, list) or any(
            isinstance(p, bool) or not isinstance(p, (int, float)) for p in params
        ):
            raise CircuitError(f"op {i} ({name}): params must be an array of numbers")
        duration = _as_duration(entry.get("duration", 0), f"op {i} ({name})")
        try:
            angles = tuple(float(p) for p in params)
        except OverflowError as exc:
            raise CircuitError(f"op {i} ({name}): angle is not finite: {exc}") from exc
        ops.append(
            Operation(
                index=i,
                name=name.lower(),
                qubits=tuple(qubits),
                params=angles,
                duration=duration,
            )
        )
    return Circuit(num_qubits, tuple(ops))


def _reference_statements(text: str) -> list[tuple[int, str]]:
    """Split source text into ';'-terminated statements with the line number
    of each statement's first non-blank character. '//' comments are
    stripped."""
    out: list[tuple[int, str]] = []
    buf: list[tuple[str, int]] = []
    lineno = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("//", 1)[0]
        for ch in code:
            if ch == ";":
                stmt = "".join(c for c, _ in buf).strip()
                if stmt:
                    start = next(line for c, line in buf if not c.isspace())
                    out.append((start, stmt))
                buf = []
            else:
                buf.append((ch, lineno))
        buf.append((" ", lineno))
    tail = "".join(c for c, _ in buf).strip()
    if tail:
        start = next(line for c, line in buf if not c.isspace())
        raise CircuitError(f"line {start}: statement not terminated with ';': {tail!r}")
    return out


def reference_parse_qasm_subset(text: str) -> Circuit:
    """Parse the supported OpenQASM 2.0 subset.

    Accepted statements: an optional "OPENQASM 2.0" version line, include
    lines (ignored), exactly one qreg declaration, and gate statements among
    h, x, z, s, t, u1, u2, u3, cx, and barrier. "//" starts a line comment.
    Classical registers, measurement, reset, conditionals, and gate
    definitions are rejected with the offending line number.
    """
    reg_name: str | None = None
    reg_size = 0
    ops: list[Operation] = []
    for line, stmt in _reference_statements(text):
        head = stmt.split(None, 1)[0]
        if head == "OPENQASM" or head.startswith("include"):
            continue
        if head in _UNSUPPORTED_KEYWORDS:
            raise CircuitError(f"line {line}: unsupported statement {head!r}")
        qreg = _QREG_RE.match(stmt)
        if qreg:
            if reg_name is not None:
                raise CircuitError(f"line {line}: multiple qreg declarations")
            reg_name, reg_size = qreg.group(1), int(qreg.group(2))
            if reg_size < 1:
                raise CircuitError(f"line {line}: qreg size must be positive")
            continue
        gate = _GATE_RE.match(stmt)
        if not gate:
            raise CircuitError(f"line {line}: cannot parse statement {stmt!r}")
        name = gate.group(1).lower()
        if name not in QASM_GATES:
            raise CircuitError(f"line {line}: unsupported gate {name!r}")
        if reg_name is None:
            raise CircuitError(f"line {line}: gate statement before qreg declaration")
        params_text, operands_text = _split_params(gate.group(2), line)
        params: tuple[float, ...] = ()
        if params_text is not None:
            raw_params = [p for p in params_text.split(",") if p.strip()]
            params = tuple(_eval_angle(p, line) for p in raw_params)
        operands_text = operands_text.strip()
        if not operands_text:
            raise CircuitError(f"line {line}: {name} needs qubit operands")
        qubits: list[int] = []
        for item in operands_text.split(","):
            m = _OPERAND_RE.match(item.strip())
            if not m:
                raise CircuitError(f"line {line}: cannot parse operand {item.strip()!r}")
            if m.group(1) != reg_name:
                raise CircuitError(f"line {line}: undeclared register {m.group(1)!r}")
            if m.group(2) is None:
                if name != "barrier":
                    raise CircuitError(
                        f"line {line}: operand must be indexed like {reg_name}[0]"
                    )
                qubits.extend(range(reg_size))
            else:
                idx = int(m.group(2))
                if idx >= reg_size:
                    raise CircuitError(
                        f"line {line}: qubit {idx} out of range for {reg_name}[{reg_size}]"
                    )
                qubits.append(idx)
        try:
            ops.append(
                Operation(index=len(ops), name=name, qubits=tuple(qubits), params=params)
            )
        except CircuitError as exc:
            raise CircuitError(f"line {line}: {exc}") from exc
    if reg_name is None:
        raise CircuitError("no qreg declaration found")
    return Circuit(reg_size, tuple(ops))


def _machines(g: DisjunctiveGraph, reach: Sequence[int]) -> dict[int, list[int]]:
    """Per qubit, its positive-duration ops in index order, for the qubits
    whose ops every orientation runs one at a time: each two of them are
    joined by a conjunctive path (``reach`` holds the DAG's reachability
    bitsets) or form a disjunctive pair. Graphs from
    :func:`~qos.depgraph.build_disjunctive_graph` meet this on every qubit.
    Qubits with fewer than two such ops are left out."""
    by_qubit: dict[int, list[int]] = {}
    for v, duration in enumerate(g.durations):
        if duration > 0:
            for q in g.qubits[v]:
                by_qubit.setdefault(q, []).append(v)
    later_partners = [0] * g.num_ops  # bit l of entry k: (k, l) is a pair
    for k, l in g.pairs:
        later_partners[k] |= 1 << l
    machines: dict[int, list[int]] = {}
    for q, ops in sorted(by_qubit.items()):
        later = 0  # the ops after v; conjunctive paths only point forward
        for v in reversed(ops):
            if later & ~(reach[v] | later_partners[v]):
                break
            later |= 1 << v
        else:
            if len(ops) > 1:
                machines[q] = ops
    return machines


def reference_solve_bnb(g: DisjunctiveGraph, config: SolverConfig | None = None) -> SolveResult:
    """Depth-first branch and bound over pair orientations, with a full
    longest-path pass wherever the orientation changes.

    At each node: orient any pair whose endpoints a path through the
    oriented arcs connects, to a fixpoint. Then, until nothing more is
    forced: (1) prune when the lower bound reaches the incumbent makespan
    UB. The bound is the larger of the longest path through the oriented
    arcs and, for each qubit that :func:`_machines` accepts, the
    one-machine bound of :func:`_jackson_bound` over the qubit's
    positive-duration ops, with the heads and tails of the last pass. (2)
    Scan the unoriented pairs (k, l) in index order: with
    a = head(k) + p(k) + tail(l) and b = head(l) + p(l) + tail(k), close
    the node when both reach UB; orient l -> k when only a does (k -> l
    when only b does), propagate paths again, and scan the pairs after it
    with the new pass. (3) When the scan forces nothing, branch on the
    pair with the largest min(a, b), the lowest index on a tie, trying its
    cheaper direction first (source order on a tie). Leaves are evaluated
    semi-actively. The initial incumbent comes from the list-scheduling
    heuristic. Exhausting the tree inside the time limit proves
    optimality; otherwise the best incumbent is returned with the
    optimality flag cleared, and as lower bound the root node's last bound
    (or, when the root was not reached, the conjunctive DAG's longest
    path).
    """
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit
    durations = g.durations
    dag = g.dag
    pairs = g.sorted_pairs
    best = heft(g)
    best_makespan = best.makespan
    source = "heft"
    nodes = 0
    conjunctive = dag.paths(durations, reach=True)
    lower_bound = max(conjunctive.tails, default=0)

    # Given two or more ops, itemgetter picks a tuple out of a per-op list.
    picks = [itemgetter(*ops) for ops in _machines(g, conjunctive.reach).values()]
    machine_durations = [pick(durations) for pick in picks]
    # Per machine, the heads and tails its bound was last computed from, and
    # that bound: nodes deep in one subtree often leave a machine unchanged.
    seen: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = [None] * len(picks)
    values = [0] * len(picks)

    # One shared assignment map with an undo trail keeps the depth-first walk
    # iterative (pair counts can exceed the recursion limit) and cheap.
    fixed: dict[int, tuple[int, int]] = {}
    trail: list[int] = []

    def assign(idx: int, arc: tuple[int, int]) -> None:
        fixed[idx] = arc
        trail.append(idx)

    def undo(mark: int) -> None:
        while len(trail) > mark:
            del fixed[trail.pop()]

    def propagate():
        """Orient every pair a path orders, to a fixpoint (new arcs can
        order further pairs), and return the last pass, which orients
        nothing and so describes the current graph."""
        while True:
            paths = dag.paths(durations, fixed.values(), reach=True)
            reach = paths.reach
            forced = False
            for idx, (k, l) in enumerate(pairs):
                if idx in fixed:
                    continue
                if reach[k] >> l & 1:
                    assign(idx, (k, l))
                    forced = True
                elif reach[l] >> k & 1:
                    assign(idx, (l, k))
                    forced = True
            if not forced:
                return paths

    def expand() -> tuple[int, list[tuple[int, int]]] | None:
        """Process one search node under the current assignments: propagate,
        bound, evaluate leaves. Returns the branching pair and the direction
        order to try, or None when the node is closed."""
        nonlocal best, best_makespan, source, nodes, lower_bound
        nodes += 1
        paths = propagate()
        while True:
            if time.perf_counter() > deadline:
                raise _TimeLimit
            bound = max(paths.tails, default=0)
            if bound >= best_makespan:
                return None
            if len(fixed) == len(pairs):
                # All pairs oriented: the heads are the semi-active schedule.
                best, best_makespan = Schedule.from_starts(paths.heads, durations), bound
                source = "search"
                return None
            for m, pick in enumerate(picks):
                key = (pick(paths.heads), pick(paths.tails))
                if seen[m] != key:
                    seen[m] = key
                    values[m] = _jackson_bound(zip(*key, machine_durations[m]))
                bound = max(bound, values[m])
                if bound >= best_makespan:
                    return None
            if nodes == 1:
                lower_bound = bound
            forced = False
            widest = -1
            for idx, (k, l) in enumerate(pairs):
                if idx in fixed:
                    continue
                heads, tails = paths.heads, paths.tails
                before = heads[k] + durations[k] + tails[l]
                after = heads[l] + durations[l] + tails[k]
                if before >= best_makespan and after >= best_makespan:
                    return None
                if before >= best_makespan or after >= best_makespan:
                    assign(idx, (l, k) if before >= best_makespan else (k, l))
                    paths = propagate()
                    forced = True
                elif not forced and min(before, after) > widest:
                    widest = min(before, after)
                    choice = idx
                    directions = [(k, l), (l, k)] if before <= after else [(l, k), (k, l)]
            if not forced:
                return choice, directions

    optimal = True
    # Stack frames: (trail mark after this node's propagation, branching
    # pair, directions still to try).
    stack: list[tuple[int, int, list[tuple[int, int]]]] = []
    try:
        branch = expand()
        if branch is not None:
            stack.append((len(trail), *branch))
        while stack:
            mark, choice, directions = stack[-1]
            undo(mark)
            if not directions:
                stack.pop()
                continue
            assign(choice, directions.pop(0))
            branch = expand()
            if branch is not None:
                stack.append((len(trail), *branch))
    except _TimeLimit:
        optimal = False
    if optimal:
        lower_bound = best.makespan
    return SolveResult(
        best, best.makespan, optimal, nodes, time.perf_counter() - t0, lower_bound, source
    )
