"""Dependency graphs over circuit operations.

Two conjunctive graphs are supported: the standard DAG, which chains every
pair of operations sharing a qubit, and the extended DAG, which drops the
order between consecutive commuting operations on each qubit. Both are held
in linear size. Each qubit's operations fall into consecutive runs (single
operations on the standard DAG, maximal runs of pairwise-commuting
operations on the extended one), and the DAG stores one *link* per pair of
consecutive runs: every operation of the earlier run precedes every
operation of the later one. The scheduling passes walk the links as a
linear *join graph*; the operation-level edges and reachability are views
derived from the links on first use.

On top of a conjunctive DAG, a disjunctive graph adds the unordered pairs
whose relative order a scheduler is free to choose; three generation
policies of different tightness are available. It stores them as cliques
(the per-qubit runs) and derives the pairs on first use. One kernel,
:func:`longest_paths`, computes longest paths and reachability; every
op-level pass over a DAG, with or without oriented pairs, reaches it
through :meth:`DependencyDag.paths`. The branch and bound, whose search
state covers the join nodes too, runs it over the join graph itself.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .circuit import Circuit
from .commutation import CommutationRule, CommutationRuleSet, commutes


class CycleError(ValueError):
    """A directed cycle makes the requested ordering unschedulable."""

    def __init__(self, message: str, cycle: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.cycle = tuple(cycle)


class Paths(NamedTuple):
    """Per node its head (longest path into it, so its earliest start) and
    tail (longest path out of it, its own duration included); and, when
    asked for, per node a bitset of the nodes it reaches."""

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
    """Heads, tails and (with ``reach``) reachability of the digraph in
    which node u has an arc to each node of ``successors[u]``, plus the
    extra ``arcs``, from one Kahn pass. Arcs may point against index order;
    node u delays each successor by ``durations[u]``. Raises
    :class:`CycleError` naming a cycle if the arcs are not acyclic."""
    num_ops = len(successors)
    succs = successors
    if arcs:
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
    return Paths(heads, tails, bits)


Link = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class DependencyDag:
    """Conjunctive precedence as ``links`` ``(sources, targets)``: every op
    in ``sources`` must finish before any op in ``targets`` starts. Links
    always point forward in source order, so index order is a topological
    order. A builder emits one link per pair of consecutive runs on each
    qubit; :meth:`from_edges` makes each given edge ``(i, j)`` the link
    ``((i,), (j,))``. A DAG from a builder also records the commutation
    ``rules`` it was built with and its ``groups``: the per-qubit runs of
    two or more pairwise-commuting ops whose order it leaves free.

    A link between runs of a and b ops stands for a·b edges. The op-level
    views ``edges``, ``sorted_edges`` and ``reachable`` are derived from
    the links on first use and cached. Every op-level longest-path pass
    goes through :meth:`paths`, which walks :attr:`join_successors`; that
    stays linear.
    """

    num_ops: int
    links: tuple[Link, ...]
    rules: CommutationRuleSet | None = None
    groups: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        n = self.num_ops
        for sources, targets in self.links:
            if len(sources) == 1 == len(targets):  # most links; min and max are slow
                if 0 <= sources[0] < targets[0] < n:
                    continue
            elif (
                sources
                and targets
                and 0 <= min(sources)
                and max(sources) < min(targets)
                and max(targets) < n
            ):
                continue
            raise ValueError(
                f"link {tuple(sources)} -> {tuple(targets)} violates source order or node range"
            )

    @classmethod
    def from_edges(cls, num_ops: int, edges: Iterable[tuple[int, int]]) -> "DependencyDag":
        """A DAG with exactly the given edges, each a link of two single
        ops, and no rules or groups."""
        return cls(num_ops, tuple(((i,), (j,)) for i, j in sorted(set(edges))))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i, j) for sources, targets in self.links for i in sources for j in targets
        )

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def join_successors(self) -> tuple[tuple[int, ...], ...]:
        """Successor lists of the DAG with a zero-duration join node for
        each link between runs of a and b ops where a·b > a + b + 1, that
        is, where the join's node and a + b arcs are fewer than the a·b
        plain arcs: every op of the earlier run points to the join, and the
        join to every op of the later run. Joins are numbered from
        ``num_ops`` up. Other links stay plain arcs, so this is linear in
        the runs' sizes, and paths between ops are those of the DAG."""
        succ: list[list[int]] = [[] for _ in range(self.num_ops)]
        joins: list[tuple[int, ...]] = []
        for sources, targets in self.links:
            if len(sources) * len(targets) <= len(sources) + len(targets) + 1:
                for i in sources:
                    succ[i].extend(targets)
            else:
                join = self.num_ops + len(joins)
                for i in sources:
                    succ[i].append(join)
                joins.append(tuple(targets))
        return (*map(tuple, succ), *joins)

    def paths(
        self,
        durations: Sequence[int],
        arcs: Iterable[tuple[int, int]] = (),
        *,
        reach: bool = False,
    ) -> Paths:
        """:func:`longest_paths` over :attr:`join_successors` plus the extra
        op-to-op ``arcs`` (oriented pairs, say), with heads, tails and reach
        cut to the ops. Reach bits from ``num_ops`` up stand for join nodes.
        A :class:`CycleError` names a cycle of ops only, each step an edge
        of the DAG or one of the arcs."""
        n = self.num_ops
        succ = self.join_successors
        if len(succ) == n:
            return longest_paths(succ, durations, arcs, reach=reach)
        try:
            full = longest_paths(succ, [*durations, *(0,) * (len(succ) - n)], arcs, reach=reach)
        except CycleError as exc:
            # A join relays its sources to its targets, so leaving the joins
            # out keeps a cycle; it stays closed unless it began at a join.
            cycle = [v for v in exc.cycle if v < n]
            if cycle[0] != cycle[-1]:
                cycle.append(cycle[0])
            raise CycleError("cycle detected: " + " -> ".join(map(str, cycle)), cycle) from None
        bits = None if full.reach is None else full.reach[:n]
        return Paths(full.heads[:n], full.tails[:n], bits)

    @cached_property
    def reachable(self) -> tuple[int, ...]:
        """Per-node reachability bitsets: bit j of entry i is set iff a
        directed path i -> j exists."""
        mask = (1 << self.num_ops) - 1
        return tuple(bits & mask for bits in self.paths((0,) * self.num_ops, reach=True).reach)

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
    need the originating circuit.

    The pairs are held as ``cliques`` of ops in ascending order: each two
    ops of a clique form a pair unless a direct conjunctive edge joins them.
    A builder graph carries the per-qubit runs (GROUPED), the per-qubit op
    lists (REDUNDANT), or its pairs as cliques of two (MINIMAL).
    :meth:`from_pairs` takes explicit pairs and checks them. ``pairs`` and
    ``sorted_pairs`` are derived on first use and cached.
    """

    dag: DependencyDag
    cliques: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    durations: tuple[int, ...]
    qubits: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cliques", tuple(self.cliques))
        n = self.dag.num_ops
        if not (len(self.names) == len(self.durations) == len(self.qubits) == n):
            raise ValueError("node metadata length does not match the DAG node count")

    @classmethod
    def from_pairs(
        cls,
        dag: DependencyDag,
        pairs: Iterable[tuple[int, int]],
        names: tuple[str, ...],
        durations: tuple[int, ...],
        qubits: tuple[tuple[int, ...], ...],
    ) -> "DisjunctiveGraph":
        """A graph with exactly the given pairs; each must be an in-range
        ``(k, l)`` with ``k < l`` that is not a conjunctive edge."""
        pairs = sorted(set(pairs))
        for k, l in pairs:
            if not (0 <= k < l < dag.num_ops):
                raise ValueError(f"disjunctive pair ({k}, {l}) out of range or unnormalized")
            if (k, l) in dag.edges:
                raise ValueError(f"pair ({k}, {l}) is already a conjunctive edge")
        return cls(dag, tuple(pairs), names, durations, qubits)

    @property
    def num_ops(self) -> int:
        return self.dag.num_ops

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        # (k, l) is a direct edge when one link holds k among its sources
        # and l among its targets; unlike the edge set, that stays linear.
        source_of: list[set[int]] = [set() for _ in range(self.num_ops)]
        target_of: list[set[int]] = [set() for _ in range(self.num_ops)]
        for link, (sources, targets) in enumerate(self.dag.links):
            for i in sources:
                source_of[i].add(link)
            for j in targets:
                target_of[j].add(link)
        return frozenset(
            (k, l)
            for clique in self.cliques
            for k, l in combinations(clique, 2)
            if source_of[k].isdisjoint(target_of[l])
        )

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
    """Chain consecutive operations on every qubit, one link per
    consecutive pair; two ops sharing two qubits get two links for the
    same edge."""
    links: list[Link] = []
    for indices in _ops_by_qubit(circuit).values():
        runs = [(i,) for i in indices]
        links.extend(zip(runs, runs[1:]))
    return DependencyDag(len(circuit.ops), tuple(links), CommutationRuleSet.standard())


def build_extended_dag(circuit: Circuit, rules: CommutationRuleSet) -> DependencyDag:
    """Relax the standard DAG using commutation. Per qubit, the ops acting on
    it are cut into maximal consecutive runs of pairwise-commuting ops: an op
    joins the current run only if it commutes with every member (commutation
    is not transitive); otherwise it opens a new run. Consecutive runs are
    joined by a link; runs of two or more ops become the DAG's ``groups``.

    The membership test is linear. For two ops that share only qubit q,
    every rule but IDENTICAL_OPS looks only at each op's key: its gate name
    and its operand position (role) on q. So whether two keys commute is
    learnt once per build, from the first two such ops, with IDENTICAL_OPS
    left out. A run of two or more ops keeps one member per distinct
    identity (name, qubits, params), by key and by each other qubit the
    member acts on. A new op skips every key known to commute with its own,
    and is checked exactly (``commutes``) only against the members
    identical to it, which settles IDENTICAL_OPS, and the members that
    share a second qubit with it.
    """
    ops = circuit.ops
    plain = CommutationRuleSet(rules.rules - {CommutationRule.IDENTICAL_OPS})
    related: dict[tuple[tuple[str, int], tuple[str, int]], bool] = {}
    runs: dict[int, list[tuple[int, ...]]] = {}
    # Per qubit, its open run: the members, and once it holds two or more,
    # one member per identity by key and by each other qubit it acts on.
    open_runs: dict[int, tuple[list[int], dict, dict]] = {}

    def index(j: int, qubit: int, keyed: dict, sharing: dict) -> None:
        op = ops[j]
        ident = (op.name, op.qubits, op.params)
        keyed.setdefault((op.name, op.qubits.index(qubit)), {}).setdefault(ident, j)
        for q in op.qubits:
            if q != qubit:
                sharing.setdefault(q, {}).setdefault(ident, j)

    def pair_commutes(op, qubit: int, other) -> bool:
        """``commutes(op, other, rules)`` for two ops on ``qubit``, taken
        from the learnt keys when they share no other qubit and differ."""
        qubits = op.qubits
        if any(q != qubit and q in qubits for q in other.qubits) or (
            other.name == op.name and other.qubits == qubits and other.params == op.params
        ):
            return commutes(op, other, rules)
        pair = ((op.name, qubits.index(qubit)), (other.name, other.qubits.index(qubit)))
        rel = related.get(pair)
        if rel is None:
            rel = related[pair] = commutes(op, other, plain)
        return rel

    def admits(op, qubit: int, keyed: dict, sharing: dict) -> bool:
        """Whether ``op`` commutes with every member of the open run on
        ``qubit``, a run of two or more ops."""
        key = (op.name, op.qubits.index(qubit))
        checked = set()
        for other_key, idents in keyed.items():
            if related.get((key, other_key)):
                continue  # members sharing a second qubit are checked below
            for other, j in idents.items():
                if not pair_commutes(op, qubit, ops[j]):
                    return False
                checked.add(other)
        for q in op.qubits:
            if q != qubit:
                for other, j in sharing.get(q, {}).items():
                    if other not in checked:
                        if not commutes(op, ops[j], rules):
                            return False
                        checked.add(other)
        return True

    for op in ops:
        i = op.index
        for qubit in op.qubits:
            state = open_runs.get(qubit)
            if state is None:
                runs[qubit] = []
            else:
                members, keyed, sharing = state
                if len(members) == 1:  # no index yet
                    joins = pair_commutes(op, qubit, ops[members[0]])
                    if joins:
                        index(members[0], qubit, keyed, sharing)
                else:
                    joins = admits(op, qubit, keyed, sharing)
                if joins:
                    members.append(i)
                    index(i, qubit, keyed, sharing)
                    continue
                runs[qubit].append(tuple(members))
            open_runs[qubit] = ([i], {}, {})
    links: list[Link] = []
    groups: list[tuple[int, ...]] = []
    for qubit, closed in runs.items():
        closed.append(tuple(open_runs[qubit][0]))
        links.extend(zip(closed, closed[1:]))
        groups.extend(run for run in closed if len(run) > 1)
    return DependencyDag(len(ops), tuple(links), rules, tuple(groups))


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
    with a direct conjunctive edge are never emitted. GROUPED carries the
    DAG's ``groups`` as its cliques and REDUNDANT each qubit's ops, so
    neither builds a pair here; MINIMAL filters the GROUPED pairs by
    reachability and carries the survivors.
    """
    if dag.num_ops != len(circuit.ops):
        raise ValueError(
            f"DAG has {dag.num_ops} nodes but the circuit has {len(circuit.ops)} ops"
        )
    if rules != dag.rules:
        raise ValueError("the DAG was built with a different commutation rule set")
    if mode is DisjunctiveEdgeMode.REDUNDANT:
        cliques = tuple(tuple(ops) for ops in _ops_by_qubit(circuit).values() if len(ops) > 1)
    elif mode is DisjunctiveEdgeMode.GROUPED:
        cliques = dag.groups
    else:
        # A direct edge is a path too, so this also drops the edges.
        cliques = tuple(
            sorted(
                {
                    (k, l)
                    for group in dag.groups
                    for k, l in combinations(group, 2)
                    if not dag.has_path(k, l)
                }
            )
        )
    return DisjunctiveGraph(
        dag=dag,
        cliques=cliques,
        names=tuple(op.name for op in circuit.ops),
        durations=tuple(op.duration for op in circuit.ops),
        qubits=tuple(op.qubits for op in circuit.ops),
    )


def export_dot(g: DisjunctiveGraph) -> str:
    """Render as Graphviz DOT: solid directed conjunctive edges, dashed
    undirected disjunctive pairs, node labels "name(qubits) p=duration",
    with any backslash or double quote in the name escaped."""
    lines = ["digraph dependencies {", "  rankdir=LR;"]
    for i in range(g.num_ops):
        name = g.names[i].replace("\\", "\\\\").replace('"', '\\"')
        operands = ",".join(map(str, g.qubits[i]))
        lines.append(f'  n{i} [label="{name}({operands}) p={g.durations[i]}"];')
    for i, j in g.dag.sorted_edges:
        lines.append(f"  n{i} -> n{j};")
    for k, l in g.sorted_pairs:
        lines.append(f"  n{k} -> n{l} [style=dashed, dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"
