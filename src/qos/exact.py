"""Exact minimum-makespan search over disjunctive-edge orientations.

Orienting every disjunctive pair (while keeping the graph acyclic) fixes
the order of operations competing for qubits; the longest-path schedule of
the oriented graph is then the best schedule compatible with that order.
The branch-and-bound solver searches orientations depth first with path
propagation and a critical-path lower bound; a brute-force enumerator over
all orientations serves as its correctness oracle. A big-M linear model
can be exported in CPLEX LP format for external mixed-integer solvers.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

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
    limit, and search statistics."""

    schedule: Schedule
    makespan: int
    optimal: bool
    nodes: int
    elapsed: float


class _TimeLimit(Exception):
    pass


def solve_bnb(g: DisjunctiveGraph, config: SolverConfig | None = None) -> SolveResult:
    """Depth-first branch and bound over pair orientations.

    At each node: (1) propagate, orienting any pair whose endpoints are
    already connected by a path through the fixed arcs; (2) prune when the
    longest path through the fixed arcs reaches the incumbent makespan;
    (3) otherwise branch on an unoriented pair with both endpoints on a
    current critical path (lowest pair index first), trying the source-order
    direction before the reverse. Leaves are evaluated semi-actively. The
    initial incumbent comes from the list-scheduling heuristic. Exhausting
    the tree inside the time limit proves optimality; otherwise the best
    incumbent is returned with the optimality flag cleared.
    """
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit
    n = g.num_ops
    durations = g.durations
    successors = g.dag.successors
    pairs = g.sorted_pairs
    best = heft(g)
    best_makespan = best.makespan
    nodes = 0

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

    def expand() -> tuple[int, list[tuple[int, int]]] | None:
        """Process one search node under the current assignments: propagate,
        bound, evaluate leaves. Returns the branching pair and the direction
        order to try, or None when the node is closed."""
        nonlocal best, best_makespan, nodes
        nodes += 1
        if time.perf_counter() > deadline:
            raise _TimeLimit
        # Propagate to a fixpoint: a path between a pair's endpoints forces
        # its direction, and new arcs can force further pairs. The last pass,
        # which forces nothing, describes the node's graph.
        while True:
            paths = longest_paths(successors, durations, fixed.values(), reach=True)
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
                break
        heads, tails = paths.heads, paths.tails
        bound = max(tails, default=0)
        if bound >= best_makespan:
            return None
        if len(fixed) == len(pairs):
            # All pairs oriented: the heads are the semi-active schedule.
            best, best_makespan = Schedule.from_starts(heads, durations), bound
            return None
        critical = {v for v in range(n) if heads[v] + tails[v] == bound}
        choice = next(
            (
                idx
                for idx, (k, l) in enumerate(pairs)
                if idx not in fixed and k in critical and l in critical
            ),
            None,
        )
        if choice is None:
            choice = next(idx for idx in range(len(pairs)) if idx not in fixed)
        k, l = pairs[choice]
        return choice, [(k, l), (l, k)]

    optimal = True
    # Stack frames: (trail mark after this node's propagation, branching
    # pair, directions still to try). Source-order direction goes first.
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
    return SolveResult(best, best.makespan, optimal, nodes, time.perf_counter() - t0)


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
    return SolveResult(best, best.makespan, True, evaluated, time.perf_counter() - t0)


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
