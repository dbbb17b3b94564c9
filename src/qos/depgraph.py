"""Dependency graphs over circuit operations.

Two conjunctive graphs are supported: the standard DAG, which chains every
pair of operations sharing a qubit, and the extended DAG, which drops the
order between consecutive commuting operations on each qubit. On top of a
conjunctive DAG, a disjunctive graph adds the unordered pairs whose relative
order a scheduler is free to choose; three generation policies of different
tightness are available. One kernel, :func:`longest_paths`, computes the
topological order, longest paths and reachability of any such graph.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .circuit import Circuit
from .commutation import CommutationRuleSet, commutes


class CycleError(ValueError):
    """A directed cycle makes the requested ordering unschedulable."""

    def __init__(self, message: str, cycle: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.cycle = tuple(cycle)


class Paths(NamedTuple):
    """A topological order; per node its head (longest path into it, so its
    earliest start) and tail (longest path out of it, its own duration
    included); and, when asked for, per node a bitset of the nodes it
    reaches."""

    order: list[int]
    heads: list[int]
    tails: list[int]
    reach: list[int] | None


def longest_paths(
    successors: Sequence[Sequence[int]],
    durations: Sequence[int],
    arcs: Iterable[tuple[int, int]] = (),
    *,
    reach: bool = False,
) -> Paths:
    """Order, heads, tails and (with ``reach``) reachability of the digraph
    in which node u has an arc to each node of ``successors[u]``, plus the
    extra ``arcs``, from one Kahn pass. Arcs may point against index order;
    node u delays each successor by ``durations[u]``. Raises
    :class:`CycleError` naming a cycle if the arcs are not acyclic."""
    num_ops = len(successors)
    succs = [list(out) for out in successors]
    for u, v in arcs:
        succs[u].append(v)
    indegree = [0] * num_ops
    for out in succs:
        for v in out:
            indegree[v] += 1
    order = [v for v in range(num_ops) if not indegree[v]]
    heads = [0] * num_ops
    for u in order:  # the loop also visits the nodes it appends
        finish = heads[u] + durations[u]
        for v in succs[u]:
            if heads[v] < finish:
                heads[v] = finish
            indegree[v] -= 1
            if not indegree[v]:
                order.append(v)
    if len(order) < num_ops:
        # Every node left has a predecessor left, so walking predecessors
        # from one of them repeats a node; the walk between is a cycle.
        pred = {v: u for u, out in enumerate(succs) if indegree[u] for v in out if indegree[v]}
        walk: dict[int, int] = {}  # node -> step, in walk order
        v = min(pred)
        while v not in walk:
            walk[v] = len(walk)
            v = pred[v]
        cycle = list(walk)[walk[v]:][::-1]
        cycle.append(cycle[0])
        raise CycleError("cycle detected: " + " -> ".join(map(str, cycle)), cycle=cycle)
    tails = [0] * num_ops
    bits = [0] * num_ops if reach else None
    for u in reversed(order):
        tail = mask = 0
        for v in succs[u]:
            if tails[v] > tail:
                tail = tails[v]
            if reach:
                mask |= (1 << v) | bits[v]
        tails[u] = durations[u] + tail
        if reach:
            bits[u] = mask
    return Paths(order, heads, tails, bits)


@dataclass(frozen=True)
class DependencyDag:
    """Conjunctive precedence edges ``(i, j)``: op i must finish before op j
    starts. Edges always point forward in source order, so index order is a
    topological order. A DAG from a builder also records the commutation
    ``rules`` it was built with and its ``groups``: the per-qubit runs of
    two or more pairwise-commuting ops whose order it leaves free."""

    num_ops: int
    edges: frozenset[tuple[int, int]]
    rules: CommutationRuleSet | None = None
    groups: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        for i, j in self.edges:
            if not (0 <= i < j < self.num_ops):
                raise ValueError(f"edge ({i}, {j}) violates source order or node range")

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_ops)]
        for i, j in self.edges:
            out[i].append(j)
        return tuple(tuple(sorted(s)) for s in out)

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_ops)]
        for i, j in self.edges:
            out[j].append(i)
        return tuple(tuple(sorted(s)) for s in out)

    @cached_property
    def reachable(self) -> tuple[int, ...]:
        """Per-node reachability bitsets: bit j of entry i is set iff a
        directed path i -> j exists."""
        return tuple(longest_paths(self.successors, (0,) * self.num_ops, reach=True).reach)

    def has_path(self, i: int, j: int) -> bool:
        return bool(self.reachable[i] >> j & 1)


class DisjunctiveEdgeMode(Enum):
    """How generously disjunctive pairs are generated.

    REDUNDANT keeps every same-qubit pair without a direct conjunctive edge,
    commuting or not. GROUPED keeps the pairs inside each per-qubit run of
    mutually commuting operations. MINIMAL additionally drops pairs already
    ordered by a conjunctive path.
    """

    REDUNDANT = "redundant"
    GROUPED = "grouped"
    MINIMAL = "minimal"


@dataclass(frozen=True)
class DisjunctiveGraph:
    """A conjunctive DAG plus unordered disjunctive pairs, with per-node
    metadata (gate name, duration in dt, acting qubits) so schedulers do not
    need the originating circuit."""

    dag: DependencyDag
    pairs: frozenset[tuple[int, int]]
    names: tuple[str, ...]
    durations: tuple[int, ...]
    qubits: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        n = self.dag.num_ops
        if not (len(self.names) == len(self.durations) == len(self.qubits) == n):
            raise ValueError("node metadata length does not match the DAG node count")
        for k, l in self.pairs:
            if not (0 <= k < l < n):
                raise ValueError(f"disjunctive pair ({k}, {l}) out of range or unnormalized")
            if (k, l) in self.dag.edges:
                raise ValueError(f"pair ({k}, {l}) is already a conjunctive edge")

    @property
    def num_ops(self) -> int:
        return self.dag.num_ops

    @cached_property
    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))


def _ops_by_qubit(circuit: Circuit) -> dict[int, list[int]]:
    seq: dict[int, list[int]] = defaultdict(list)
    for op in circuit.ops:
        for q in op.qubits:
            seq[q].append(op.index)
    return seq


def build_standard_dag(circuit: Circuit) -> DependencyDag:
    """Chain consecutive operations on every qubit; duplicate edges between
    the same pair (from multi-qubit overlap) collapse to one."""
    edges: set[tuple[int, int]] = set()
    for indices in _ops_by_qubit(circuit).values():
        edges.update(zip(indices, indices[1:]))
    return DependencyDag(len(circuit.ops), frozenset(edges), CommutationRuleSet.standard())


def build_extended_dag(circuit: Circuit, rules: CommutationRuleSet) -> DependencyDag:
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
    return DependencyDag(len(circuit.ops), frozenset(edges), rules, tuple(groups))


def build_disjunctive_graph(
    circuit: Circuit,
    dag: DependencyDag,
    rules: CommutationRuleSet,
    mode: DisjunctiveEdgeMode = DisjunctiveEdgeMode.GROUPED,
) -> DisjunctiveGraph:
    """Attach disjunctive pairs to a conjunctive DAG built from the same
    circuit and rules; raises ``ValueError`` if ``rules`` is not the rule set
    the DAG records.

    Every same-qubit pair ends up either ordered by a conjunctive path or
    present as a disjunctive pair, whatever the mode; pairs that coincide
    with a direct conjunctive edge are never emitted. GROUPED and MINIMAL
    take their candidates from the DAG's ``groups``.
    """
    if dag.num_ops != len(circuit.ops):
        raise ValueError(
            f"DAG has {dag.num_ops} nodes but the circuit has {len(circuit.ops)} ops"
        )
    if rules != dag.rules:
        raise ValueError("the DAG was built with a different commutation rule set")
    candidates: set[tuple[int, int]] = set()
    if mode is DisjunctiveEdgeMode.REDUNDANT:
        for indices in _ops_by_qubit(circuit).values():
            candidates.update(combinations(indices, 2))
    else:
        for group in dag.groups:
            candidates.update(combinations(group, 2))
    pairs = {p for p in candidates if p not in dag.edges}
    if mode is DisjunctiveEdgeMode.MINIMAL:
        pairs = {(k, l) for k, l in pairs if not dag.has_path(k, l)}
    return DisjunctiveGraph(
        dag=dag,
        pairs=frozenset(pairs),
        names=tuple(op.name for op in circuit.ops),
        durations=tuple(op.duration for op in circuit.ops),
        qubits=tuple(op.qubits for op in circuit.ops),
    )


def export_dot(g: DisjunctiveGraph) -> str:
    """Render as Graphviz DOT: solid directed conjunctive edges, dashed
    undirected disjunctive pairs, node labels "name(qubits) p=duration"."""
    lines = ["digraph dependencies {", "  rankdir=LR;"]
    for i in range(g.num_ops):
        operands = ",".join(map(str, g.qubits[i]))
        lines.append(f'  n{i} [label="{g.names[i]}({operands}) p={g.durations[i]}"];')
    for i, j in g.dag.sorted_edges:
        lines.append(f"  n{i} -> n{j};")
    for k, l in g.sorted_pairs:
        lines.append(f"  n{k} -> n{l} [style=dashed, dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"
