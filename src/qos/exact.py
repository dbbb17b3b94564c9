"""Exact minimum-makespan search over disjunctive-edge orientations.

Orienting every disjunctive pair (while keeping the graph acyclic) fixes
the order of operations competing for qubits; the longest-path schedule of
the oriented graph is then the best schedule compatible with that order.
The branch-and-bound solver searches orientations depth first with two
lower bounds: the critical path, and per qubit the value of Jackson's
preemptive schedule for the qubit's operations taken as one machine's jobs
(Carlier 1982); it propagates paths and, at every node, immediate
selection against the incumbent (Carlier & Pinson 1989), and branches on
the most constrained pair. A brute-force enumerator over all orientations
serves as its correctness oracle. A big-M linear model can be exported in
CPLEX LP format for external mixed-integer solvers.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from operator import itemgetter
from typing import Iterable, Sequence

from .depgraph import CycleError, DisjunctiveGraph, longest_paths
from .schedulers import Orientation, Schedule, heft, semi_active


BRUTEFORCE_CAP = 20  # the largest pair count solve_bruteforce accepts


@dataclass(frozen=True)
class SolverConfig:
    """Search limit: the branch and bound's wall-clock budget in seconds."""

    time_limit: float = 10.0

    def __post_init__(self) -> None:
        if not self.time_limit > 0:  # also rejects NaN
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class SolveResult:
    """Best schedule found, whether optimality was proved within the time
    limit, a lower bound on the optimal makespan (equal to ``makespan`` when
    proved), search statistics, and where the schedule came from:
    ``"heft"`` when the search never improved on the list-scheduling
    heuristic's incumbent, ``"search"`` when it did (always for
    :func:`solve_bruteforce`)."""

    schedule: Schedule
    makespan: int
    optimal: bool
    nodes: int
    elapsed: float
    lower_bound: int
    incumbent_source: str


class _TimeLimit(Exception):
    pass


def _jackson_bound(jobs: Iterable[tuple[int, int, int]]) -> int:
    """Lower bound on max(start + tail) over one machine's jobs, given as
    (head, tail, duration) triples, when the machine runs one job at a time:
    the value max(C + q) of Jackson's preemptive schedule, in which each job
    is released at its head, takes its duration p and is delivered
    q = tail - p after it completes, and the machine always runs the
    released job of largest q. That is the optimum when jobs may be
    preempted (Carlier 1982)."""
    ready: list[tuple[int, int]] = []  # (-q, processing left) of released jobs
    value = t = 0
    for release, tail, duration in sorted(jobs):
        while ready and t < release:
            neg_q, left = ready[0]
            if t + left > release:  # the new release may preempt this job
                heapreplace(ready, (neg_q, left - (release - t)))
                t = release
            else:
                heappop(ready)
                t += left
                if t - neg_q > value:
                    value = t - neg_q
        if t < release:
            t = release
        heappush(ready, (duration - tail, duration))
    while ready:
        neg_q, left = heappop(ready)
        t += left
        if t - neg_q > value:
            value = t - neg_q
    return value


def _machines(g: DisjunctiveGraph, reach: Sequence[int], partners: Sequence[int]) -> dict[int, list[int]]:
    """Per qubit, its positive-duration ops in index order, for the qubits
    whose ops every orientation runs one at a time: each two of them are
    joined by a conjunctive path (``reach`` holds the DAG's reachability
    bitsets) or form a disjunctive pair (``partners`` holds each op's pair
    partners as a bitset). Graphs from
    :func:`~qos.depgraph.build_disjunctive_graph` meet this on every qubit.
    Qubits with fewer than two such ops are left out."""
    by_qubit: dict[int, list[int]] = {}
    for v, duration in enumerate(g.durations):
        if duration > 0:
            for q in g.qubits[v]:
                by_qubit.setdefault(q, []).append(v)
    machines: dict[int, list[int]] = {}
    for q, ops in sorted(by_qubit.items()):
        later = 0  # the ops after v; conjunctive paths only point forward
        for v in reversed(ops):
            if later & ~(reach[v] | partners[v]):
                break
            later |= 1 << v
        else:
            if len(ops) > 1:
                machines[q] = ops
    return machines


def solve_bnb(g: DisjunctiveGraph, config: SolverConfig | None = None) -> SolveResult:
    """Depth-first branch and bound over pair orientations.

    At each node, until nothing more is forced: (1) prune when the lower
    bound reaches the incumbent makespan UB. The bound is the larger of the
    longest path through the oriented arcs and, for each qubit that
    :func:`_machines` accepts, the one-machine bound of
    :func:`_jackson_bound` over the qubit's positive-duration ops, with
    the node's heads and tails. (2) Scan the unoriented pairs (k, l) in
    index order for immediate selection (Carlier & Pinson 1989): with
    a = head(k) + p(k) + tail(l), the longest path through k -> l, and
    b = head(l) + p(l) + tail(k), close the node when both reach UB, and
    orient the pair l -> k when only a does (k -> l when only b does).
    Each oriented arc also orients every pair a path then orders, and
    the pairs after it are scanned with the updated heads and tails. (3)
    When the scan forces nothing, branch on the pair with the largest
    min(a, b), the lowest index on a tie, trying its cheaper direction
    first (source order on a tie). A node whose pairs are all oriented
    is a leaf: its heads are the semi-active schedule. The initial
    incumbent comes from the list-scheduling heuristic.

    ``nodes`` counts the root and each branching arc tried; forced pairs
    make no nodes. Exhausting the tree inside the time limit proves
    optimality; otherwise the best incumbent is returned with the
    optimality flag cleared, and as lower bound the root node's last
    bound, taken as its propagation proceeds (or, when the root was not
    reached, the conjunctive DAG's longest path). Forcing keeps that bound
    valid: every schedule better than the heuristic's meets the forced
    arcs, and one no better needs no bound.

    Propagation is incremental. One :func:`~qos.depgraph.longest_paths`
    pass over the join graph (ops and join nodes) gives the root's heads,
    tails and reach; from then on, they are updated from each new arc
    alone, and undone on backtracking. An arc a pair is oriented into by
    a path is implied by that path, so it changes no head, tail or reach.
    """
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit
    n = g.num_ops
    durations = g.durations
    dag = g.dag
    pairs = g.sorted_pairs
    best = heft(g)
    best_makespan = best.makespan
    source = "heft"
    nodes = 0
    # A join node takes no time and relays its sources to its targets.
    succs = list(dag.join_successors)
    delays = [*durations, *(0,) * (len(succs) - n)]
    heads, tails, reach = longest_paths(succs, delays, reach=True)
    lower_bound = max(tails, default=0)
    partners = [0] * n  # bit l of entry k: (k, l) or (l, k) is a pair
    for k, l in pairs:
        partners[k] |= 1 << l
        partners[l] |= 1 << k

    # Given two or more ops, itemgetter picks a tuple out of a per-op list.
    picks = [itemgetter(*ops) for ops in _machines(g, reach, partners).values()]
    machine_durations = [pick(durations) for pick in picks]
    # Per machine, the heads and tails its bound was last computed from, and
    # that bound: nodes deep in one subtree often leave a machine unchanged.
    seen: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = [None] * len(picks)
    values = [0] * len(picks)

    # The search state is changed in place, and each change is recorded on
    # the trail as (list, index, old value) so that backtracking can undo
    # it; the walk stays iterative (pair counts can exceed the recursion
    # limit), and its memory grows with the changes, not the depth. Links
    # point forward, so in a pair (k, l) only k can reach the other end.
    fixed = [bool(reach[k] >> l & 1) for k, l in pairs]
    trail: list[tuple[list, int, object]] = []
    # Built by the first pair scan; nodes that close on their bound need neither.
    preds: list[list[int]] = []
    pair_at: list[dict[int, int]] = []

    def expand(left: int) -> tuple[int, list[tuple[int, int]]] | None:
        """Bound, propagate and evaluate one search node, which has ``left``
        unoriented pairs. Returns its count of unoriented pairs after
        propagation and its branching pair's directions in the order to
        try, or None when the node is closed."""
        nonlocal best, best_makespan, source, nodes, lower_bound
        nodes += 1
        while True:
            if time.perf_counter() > deadline:
                raise _TimeLimit
            bound = max(tails, default=0)
            if bound >= best_makespan:
                return None
            if not left:
                # All pairs oriented: the heads are the semi-active schedule.
                best, best_makespan = Schedule.from_starts(heads[:n], durations), bound
                source = "search"
                return None
            for m, pick in enumerate(picks):
                key = (pick(heads), pick(tails))
                if seen[m] != key:
                    seen[m] = key
                    values[m] = _jackson_bound(zip(*key, machine_durations[m]))
                bound = max(bound, values[m])
                if bound >= best_makespan:
                    return None
            if nodes == 1:
                lower_bound = bound
            if not pair_at:
                preds.extend([] for _ in succs)
                for w, out in enumerate(succs):
                    for x in out:
                        preds[x].append(w)
                pair_at.extend({} for _ in range(n))
                for idx, (k, l) in enumerate(pairs):
                    pair_at[k][l] = pair_at[l][k] = idx
            forced = False
            widest = -1
            for idx, (k, l) in enumerate(pairs):
                if fixed[idx]:
                    continue
                before = heads[k] + durations[k] + tails[l]  # through k -> l
                after = heads[l] + durations[l] + tails[k]  # through l -> k
                if before >= best_makespan:
                    if after >= best_makespan:
                        return None
                    left -= fix(l, k)
                    forced = True
                elif after >= best_makespan:
                    left -= fix(k, l)
                    forced = True
                elif not forced and min(before, after) > widest:
                    widest = min(before, after)
                    directions = [(k, l), (l, k)] if before <= after else [(l, k), (k, l)]
            if not forced:
                return left, directions

    def fix(u: int, v: int) -> int:
        """Add the arc u -> v, where neither op reaches the other yet, and
        orient every pair it newly orders. Returns how many it orients."""
        below = reach[v] | 1 << v
        # The nodes that reach u but not v now reach all of ``below``. The
        # walk stops at a node that reaches v: it and its ancestors already do.
        ancestors = []
        todo = [u]
        while todo:
            w = todo.pop()
            bits = reach[w]
            if not bits >> v & 1:
                trail.append((reach, w, bits))
                reach[w] = bits | below
                ancestors.append(w)
                todo.extend(preds[w])
        trail.append((succs, u, succs[u]))
        succs[u] = (*succs[u], v)
        trail.append((preds, v, preds[v]))
        preds[v] = [*preds[v], u]
        # Raise heads forward from u and tails backward from v, where they
        # grow; only the new arc can raise them.
        todo = [u]
        while todo:
            w = todo.pop()
            finish = heads[w] + delays[w]
            for x in succs[w]:
                if heads[x] < finish:
                    trail.append((heads, x, heads[x]))
                    heads[x] = finish
                    todo.append(x)
        todo = [v]
        while todo:
            w = todo.pop()
            tail = tails[w]
            for x in preds[w]:
                if tails[x] < tail + delays[x]:
                    trail.append((tails, x, tails[x]))
                    tails[x] = tail + delays[x]
                    todo.append(x)
        oriented = 0
        for a in ancestors:
            if a < n:
                ends = partners[a] & below
                while ends:
                    low = ends & -ends
                    ends ^= low
                    idx = pair_at[a][low.bit_length() - 1]
                    if not fixed[idx]:
                        trail.append((fixed, idx, False))
                        fixed[idx] = True
                        oriented += 1
        return oriented

    optimal = True
    # Stack frames: (trail mark after this node's propagation, its count of
    # unoriented pairs, directions still to try).
    stack: list[tuple[int, int, list[tuple[int, int]]]] = []
    try:
        branch = expand(fixed.count(False))
        if branch is not None:
            stack.append((len(trail), *branch))
        while stack:
            mark, left, directions = stack[-1]
            while len(trail) > mark:
                state, i, old = trail.pop()
                state[i] = old
            if not directions:
                stack.pop()
                continue
            branch = expand(left - fix(*directions.pop(0)))
            if branch is not None:
                stack.append((len(trail), *branch))
    except _TimeLimit:
        optimal = False
    if optimal:
        lower_bound = best.makespan
    return SolveResult(
        best, best.makespan, optimal, nodes, time.perf_counter() - t0, lower_bound, source
    )


def solve_bruteforce(g: DisjunctiveGraph) -> SolveResult:
    """Enumerate all 2^|pairs| orientations, discard the cyclic ones, and
    keep the best semi-active schedule. Always proves optimality; refuses
    graphs with more than :data:`BRUTEFORCE_CAP` pairs."""
    t0 = time.perf_counter()
    pairs = g.sorted_pairs
    if len(pairs) > BRUTEFORCE_CAP:
        raise ValueError(
            f"{len(pairs)} disjunctive pairs exceed the brute-force cap of {BRUTEFORCE_CAP}"
        )
    best: Schedule | None = None
    evaluated = 0
    for flips in itertools.product((False, True), repeat=len(pairs)):
        arcs = tuple(
            (l, k) if flip else (k, l) for (k, l), flip in zip(pairs, flips)
        )
        try:
            schedule = semi_active(g, Orientation(arcs))
        except CycleError:
            continue
        evaluated += 1
        if best is None or schedule.makespan < best.makespan:
            best = schedule
    if best is None:
        raise ValueError("no acyclic orientation exists")
    return SolveResult(
        best, best.makespan, True, evaluated, time.perf_counter() - t0, best.makespan, "search"
    )


def export_mip_lp(g: DisjunctiveGraph) -> str:
    """Write the big-M mixed-integer model in CPLEX LP format.

    Continuous start variables x0..x{n-1} and makespan t; one binary y_k_l
    per disjunctive pair (1 when k precedes l). Precedence rows encode
    x_i + p_i <= x_j; each pair yields the two big-M rows linearizing the
    either-or ordering with M equal to the total duration; every operation
    must finish by t.
    """
    n = g.num_ops
    p = g.durations
    pairs = g.sorted_pairs
    big_m = sum(p)
    lines = ["\\ minimum-makespan schedule over a disjunctive graph", "Minimize", " obj: t", "Subject To"]
    for r, (i, j) in enumerate(g.dag.sorted_edges):
        lines.append(f" prec{r}: x{j} - x{i} >= {p[i]}")
    for r, (k, l) in enumerate(pairs):
        lines.append(f" dis{r}a: x{k} - x{l} + {big_m} y_{k}_{l} <= {big_m - p[k]}")
        lines.append(f" dis{r}b: x{l} - x{k} - {big_m} y_{k}_{l} <= {-p[l]}")
    for i in range(n):
        lines.append(f" mk{i}: x{i} - t <= {-p[i]}")
    lines.append("Bounds")
    for i in range(n):
        lines.append(f" x{i} >= 0")
    lines.append(" t >= 0")
    if pairs:
        lines.append("Binary")
        for k, l in pairs:
            lines.append(f" y_{k}_{l}")
    lines.append("End")
    return "\n".join(lines) + "\n"
