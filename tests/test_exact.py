from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings

from helpers import (
    branching_circuits,
    circuits,
    fig2_circuit,
    pool_circuit,
    random_circuit,
    read_lp,
)
from oracle import edge_successors, reference_solve_bnb
from qos.circuit import Circuit
from qos.commutation import CommutationRuleSet
from qos.depgraph import (
    DependencyDag,
    DisjunctiveEdgeMode,
    DisjunctiveGraph,
    build_disjunctive_graph,
    build_extended_dag,
    build_standard_dag,
    longest_paths,
)
from qos.exact import (
    SolverConfig,
    _jackson_bound,
    export_mip_lp,
    solve_bnb,
    solve_bruteforce,
)
from qos.schedulers import (
    CycleError,
    Orientation,
    asap,
    heft,
    semi_active,
    validate,
)

DEFAULT = CommutationRuleSet.default()
STANDARD = CommutationRuleSet.standard()


def ext_graph(circuit, mode=DisjunctiveEdgeMode.GROUPED):
    dag = build_extended_dag(circuit, DEFAULT)
    return dag, build_disjunctive_graph(circuit, dag, DEFAULT, mode)


def std_graph(circuit):
    dag = build_standard_dag(circuit)
    return dag, build_disjunctive_graph(circuit, dag, STANDARD)


class TestBranchAndBound:
    def test_fig2_extended_optimal_two(self, fig2):
        _, graph = ext_graph(fig2)
        result = solve_bnb(graph)
        assert result.makespan == 2
        assert result.optimal
        assert result.schedule.makespan == 2

    def test_fig2_standard_single_node(self, fig2):
        dag, graph = std_graph(fig2)
        result = solve_bnb(graph)
        assert result.makespan == 3
        assert result.optimal
        assert result.nodes == 1
        assert validate(fig2, dag, result.schedule) == []

    def test_matches_bruteforce_on_random_instances(self):
        rng = random.Random(404)
        for _ in range(60):
            circuit = random_circuit(rng, max_ops=8)
            for mode in DisjunctiveEdgeMode:
                _, graph = ext_graph(circuit, mode)
                if len(graph.pairs) > 14:
                    continue
                exact = solve_bnb(graph)
                brute = solve_bruteforce(graph)
                assert exact.optimal
                assert exact.makespan == brute.makespan

    def test_optimum_is_mode_invariant(self):
        rng = random.Random(405)
        for _ in range(40):
            circuit = random_circuit(rng, max_ops=8)
            makespans = {
                mode: solve_bnb(ext_graph(circuit, mode)[1]).makespan
                for mode in DisjunctiveEdgeMode
            }
            assert len(set(makespans.values())) == 1, makespans

    def test_returned_schedule_validates(self):
        rng = random.Random(406)
        for _ in range(30):
            circuit = random_circuit(rng)
            dag, graph = ext_graph(circuit)
            result = solve_bnb(graph)
            assert validate(circuit, dag, result.schedule) == []

    def test_anytime_behaviour_under_tiny_limit(self, fig2):
        dag, graph = ext_graph(fig2)
        rushed = solve_bnb(graph, SolverConfig(time_limit=1e-9))
        assert not rushed.optimal
        assert rushed.makespan == heft(graph).makespan
        assert rushed.incumbent_source == "heft"
        assert rushed.makespan >= solve_bnb(graph).makespan
        # The root was never evaluated: the bound is the conjunctive DAG's.
        assert rushed.lower_bound == max(longest_paths(edge_successors(dag), graph.durations).tails)

    @pytest.mark.parametrize("k", [5, 10, 20])
    def test_fan_closes_at_the_root(self, k):
        # The hub runs an h and 2k cx one at a time: 1 + 4k dt, which heft
        # meets; the critical path alone is 1 + 2 + 2 dt.
        gates = [("h", [0], (), 1)]
        gates += [("cx", [0, t], (), 2) for t in range(1, k + 1)]
        gates += [("cx", [c, 0], (), 2) for c in range(1, k + 1)]
        _, graph = ext_graph(Circuit.build(k + 1, gates))
        result = solve_bnb(graph)
        assert result.optimal
        assert result.nodes == 1
        assert result.makespan == result.lower_bound == 4 * k + 1

    def test_incumbent_source_names_the_heuristic_or_the_search(self):
        # fan20 closes at the root on heft's schedule of 81 dt; on this
        # 30-op circuit the search finds 57 dt against heft's 62.
        gates = [("h", [0], (), 1)]
        gates += [("cx", [0, t], (), 2) for t in range(1, 21)]
        gates += [("cx", [c, 0], (), 2) for c in range(1, 21)]
        _, fan = ext_graph(Circuit.build(21, gates))
        assert solve_bnb(fan).incumbent_source == "heft"
        _, graph = ext_graph(pool_circuit(random.Random(59), 6, 30))
        assert heft(graph).makespan == 62
        result = solve_bnb(graph)
        assert (result.makespan, result.optimal, result.incumbent_source) == (57, True, "search")

    def test_search_leaves_the_edge_set_underived(self):
        # The DAG holds a 5 x 5 link between the hub's runs: the search
        # and its pair filter read links, never the op-level edges.
        gates = [("h", [0], (), 1)]
        gates += [("cx", [0, t], (), 2) for t in range(1, 6)]
        gates += [("cx", [c, 0], (), 2) for c in range(1, 6)]
        _, graph = ext_graph(Circuit.build(6, gates))
        assert solve_bnb(graph).optimal
        assert graph.pairs
        assert "edges" not in graph.dag.__dict__

    def test_unsequenced_qubit_is_not_a_machine(self):
        # Ops 0-2 share qubit 0, but nothing orders op 2 against the others,
        # so orientations may overlap it with them: the optimum is 4, below
        # the 6 dt that running all three one at a time would take.
        graph = DisjunctiveGraph.from_pairs(
            dag=DependencyDag.from_edges(3, ()),
            pairs=frozenset({(0, 1)}),
            names=("x",) * 3,
            durations=(2, 2, 2),
            qubits=((0,),) * 3,
        )
        result = solve_bnb(graph)
        assert result.makespan == solve_bruteforce(graph).makespan == 4
        assert result.optimal and result.lower_bound == 4

    def test_determinism(self):
        rng = random.Random(407)
        circuit = random_circuit(rng, max_ops=10)
        _, graph = ext_graph(circuit)
        first = solve_bnb(graph)
        second = solve_bnb(graph)
        assert first.schedule == second.schedule
        assert first.nodes == second.nodes

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(time_limit=0)
        with pytest.raises(ValueError):
            SolverConfig(time_limit=float("nan"))


class TestBruteforce:
    def test_fig2_enumerates_both_orientations(self, fig2):
        _, graph = ext_graph(fig2)
        result = solve_bruteforce(graph)
        assert result.makespan == 2
        assert result.optimal
        assert result.nodes == 2  # both orientations are acyclic

    def test_no_pairs_returns_unique_semi_active(self, fig2):
        _, graph = std_graph(fig2)
        result = solve_bruteforce(graph)
        assert result.nodes == 1
        assert result.schedule == semi_active(graph, Orientation(()))

    def test_cap_refusal(self):
        # Seven cx sharing a control form one commuting run: 21 pairs.
        circuit = Circuit.build(8, [("cx", [0, t]) for t in range(1, 8)], default_duration=1)
        _, graph = ext_graph(circuit)
        assert len(graph.pairs) == 21
        with pytest.raises(ValueError, match="exceed the brute-force cap of 20"):
            solve_bruteforce(graph)

    def test_cyclic_orientations_are_skipped(self):
        circuit = Circuit.build(1, [("x", [0]), ("z", [0]), ("x", [0])], default_duration=1)
        dag = build_standard_dag(circuit)
        graph = build_disjunctive_graph(circuit, dag, STANDARD, DisjunctiveEdgeMode.REDUNDANT)
        assert graph.pairs == {(0, 2)}
        result = solve_bruteforce(graph)
        assert result.nodes == 1  # the reversed orientation closes a cycle
        assert result.makespan == 3


def test_lower_bound_never_exceeds_best_completion():
    """The bounds used for pruning, the longest path and each qubit's
    one-machine bound, evaluated at partial orientations, are compared
    against the true best over all completions."""
    rng = random.Random(11)
    checked = 0
    for _ in range(50):
        circuit = random_circuit(rng, max_ops=8)
        _, graph = ext_graph(circuit)
        pairs = graph.sorted_pairs
        if not 1 <= len(pairs) <= 10:
            continue
        for k in range(len(pairs) + 1):
            fixed = [tuple(p) for p in pairs[:k]]
            paths = longest_paths(edge_successors(graph.dag), graph.durations, fixed)
            bound = max(paths.tails, default=0)
            for q in range(circuit.num_qubits):
                jobs = [
                    (paths.heads[op.index], paths.tails[op.index], op.duration)
                    for op in circuit.ops
                    if q in op.qubits and op.duration > 0
                ]
                bound = max(bound, _jackson_bound(jobs))
            best = None
            for flips in itertools.product((False, True), repeat=len(pairs) - k):
                tail = [
                    (l, c) if f else (c, l)
                    for (c, l), f in zip(pairs[k:], flips)
                ]
                try:
                    schedule = semi_active(graph, Orientation(tuple(fixed + tail)))
                except CycleError:
                    continue
                if best is None or schedule.makespan < best:
                    best = schedule.makespan
            assert best is not None
            assert bound <= best
            checked += 1
    assert checked >= 20


class TestLpExport:
    def test_fig2_exact_text(self, fig2):
        _, graph = ext_graph(fig2)
        assert export_mip_lp(graph) == (
            "\\ minimum-makespan schedule over a disjunctive graph\n"
            "Minimize\n"
            " obj: t\n"
            "Subject To\n"
            " prec0: x1 - x0 >= 1\n"
            " dis0a: x1 - x2 + 3 y_1_2 <= 2\n"
            " dis0b: x2 - x1 - 3 y_1_2 <= -1\n"
            " mk0: x0 - t <= -1\n"
            " mk1: x1 - t <= -1\n"
            " mk2: x2 - t <= -1\n"
            "Bounds\n"
            " x0 >= 0\n"
            " x1 >= 0\n"
            " x2 >= 0\n"
            " t >= 0\n"
            "Binary\n"
            " y_1_2\n"
            "End\n"
        )

    def test_fig2_structure_via_reader(self, fig2):
        _, graph = ext_graph(fig2)
        model = read_lp(export_mip_lp(graph))
        assert model.objective == "t"
        assert len(model.rows) == 1 + 2 * 1 + 3
        assert len(model.bounds) == 4  # x0..x2 and t
        assert model.binaries == ["y_1_2"]
        assert model.variables == {"t", "x0", "x1", "x2", "y_1_2"}

    def test_no_pairs_means_no_binary_section(self, fig2):
        _, graph = std_graph(fig2)
        text = export_mip_lp(graph)
        assert "Binary" not in text
        assert read_lp(text).binaries == []

    def test_row_and_variable_counts_on_random_graphs(self):
        rng = random.Random(12)
        for _ in range(40):
            circuit = random_circuit(rng)
            _, graph = ext_graph(circuit)
            model = read_lp(export_mip_lp(graph))
            n, c, d = graph.num_ops, len(graph.dag.edges), len(graph.pairs)
            assert len(model.rows) == c + 2 * d + n
            assert len(model.bounds) == n + 1
            assert len(model.binaries) == d

    def test_big_m_is_total_duration(self):
        circuit = Circuit.build(1, [("x", [0], (), 4), ("x", [0], (), 6)])
        ext = build_extended_dag(circuit, DEFAULT)
        graph = build_disjunctive_graph(circuit, ext, DEFAULT)
        assert graph.pairs == {(0, 1)}
        text = export_mip_lp(graph)
        assert " dis0a: x0 - x1 + 10 y_0_1 <= 6" in text
        assert " dis0b: x1 - x0 - 10 y_0_1 <= -6" in text


def test_jackson_bound_preempts_for_the_larger_delivery():
    # Job A (head 0, p 4, q 0) starts; job B (head 1, p 2, q 5) preempts it
    # at 1 and completes at 3 (3 + 5 = 8); A resumes and completes at 6.
    assert _jackson_bound([(0, 4, 4), (1, 7, 2)]) == 8
    # The machine idles from 1 until the release at 5.
    assert _jackson_bound([(5, 3, 3), (0, 1, 1)]) == 8
    assert _jackson_bound([]) == 0


@settings(max_examples=150, deadline=None)
@given(circuits(max_ops=8))
def test_bnb_matches_bruteforce_with_its_lower_bound(circuit):
    """Zero-duration ops and barriers included, on both DAGs and in every
    mode: the branch and bound finds the brute-force optimum and reports a
    lower bound no larger, equal to it when proved."""
    for rules, dag in (
        (STANDARD, build_standard_dag(circuit)),
        (DEFAULT, build_extended_dag(circuit, DEFAULT)),
    ):
        for mode in DisjunctiveEdgeMode:
            graph = build_disjunctive_graph(circuit, dag, rules, mode)
            if len(graph.pairs) > 10:  # keeps the enumeration to 1024 orientations
                continue
            exact = solve_bnb(graph)
            brute = solve_bruteforce(graph)
            assert exact.makespan == brute.makespan, mode
            assert exact.lower_bound <= brute.makespan
            if exact.optimal:
                assert exact.lower_bound == exact.makespan
            assert brute.lower_bound == brute.makespan


def _search(result):
    return (
        result.schedule, result.optimal, result.nodes, result.lower_bound, result.incumbent_source
    )


def _same_search_as_reference(circuit) -> int:
    """Solve every graph of ``circuit`` (both DAGs, every mode) with the
    branch and bound and its reference, under a time limit neither
    reaches, require the same search, and return the most nodes."""
    unlimited = SolverConfig(time_limit=600.0)
    most = 0
    for rules, dag in (
        (STANDARD, build_standard_dag(circuit)),
        (DEFAULT, build_extended_dag(circuit, DEFAULT)),
    ):
        for mode in DisjunctiveEdgeMode:
            graph = build_disjunctive_graph(circuit, dag, rules, mode)
            result = solve_bnb(graph, unlimited)
            assert _search(result) == _search(reference_solve_bnb(graph, unlimited)), mode
            assert result.optimal
            most = max(most, result.nodes)
    return most


def test_incremental_search_matches_the_reference():
    """Incremental heads, tails and reach give the search tree of a full
    longest-path pass per node: same schedule, proof, node count and lower
    bound. At least one drawn circuit in six must make it branch (about
    one in three does)."""
    branched = []

    @settings(max_examples=150, deadline=None)
    @given(branching_circuits())
    def check(circuit):
        branched.append(_same_search_as_reference(circuit) > 1)

    check()
    assert 6 * sum(branched) >= len(branched), f"{sum(branched)} of {len(branched)} branched"


@pytest.mark.parametrize(
    "qubits, ops, seed, min_joins",
    [
        (5, 30, 348, 0),
        (6, 36, 393, 1),
        (6, 36, 237, 2),
        (3, 30, 282, 2),
        (4, 30, 263, 2),
    ],
)
def test_incremental_search_matches_the_reference_on_seeded_circuits(qubits, ops, seed, min_joins):
    """A seeded :func:`pool_circuit` on which the search takes 100 nodes or
    more (199 to 467). The last three hold two or more join nodes in their
    extended DAGs, so they check the search's heads, tails and reach at
    join nodes too."""
    circuit = pool_circuit(random.Random(seed), qubits, ops)
    dag = build_extended_dag(circuit, DEFAULT)
    assert len(dag.join_successors) - dag.num_ops >= min_joins
    assert _same_search_as_reference(circuit) >= 100


@pytest.mark.parametrize("seed", [12, 49, 59])
def test_immediate_selection_shrinks_the_tree(seed):
    """Without immediate selection, and branching on the lowest-index
    critical pair, these circuits took 401, 473 and 383 nodes; with it,
    13, 3 and 33."""
    circuit = pool_circuit(random.Random(seed), 6, 30)
    for rules, dag in (
        (STANDARD, build_standard_dag(circuit)),
        (DEFAULT, build_extended_dag(circuit, DEFAULT)),
    ):
        for mode in DisjunctiveEdgeMode:
            result = solve_bnb(build_disjunctive_graph(circuit, dag, rules, mode))
            assert result.optimal
            assert result.nodes <= 50, mode


def _two_chains(tail_of_first: int) -> DisjunctiveGraph:
    """Ops 1 and 2 share qubit 0 as a pair. Op 0 (2 dt) runs before op 2,
    op 3 (``tail_of_first`` dt) after op 1 and op 4 (4 dt) after op 2; ops 1
    and 2 take 4 dt. So op 1 has head 0 and tail 4 + ``tail_of_first``, and
    op 2 head 2 and tail 8: 1 -> 2 costs 12, and 2 -> 1 costs
    10 + ``tail_of_first``."""
    return DisjunctiveGraph.from_pairs(
        dag=DependencyDag.from_edges(5, [(0, 2), (1, 3), (2, 4)]),
        pairs={(1, 2)},
        names=("x",) * 5,
        durations=(2, 4, 4, tail_of_first, 4),
        qubits=((1,), (0,), (0,), (2,), (3,)),
    )


def test_a_pair_that_cannot_beat_the_incumbent_either_way_closes_the_node():
    # heft puts op 2 first: 11. Neither the critical path (2 + 8 = 10) nor
    # qubit 0's preemptive bound (10) reaches it, but 1 -> 2 costs 12 and
    # 2 -> 1 costs 11: no schedule beats 11, so the root closes unbranched.
    graph = _two_chains(1)
    assert heft(graph).makespan == 11
    assert _jackson_bound([(0, 5, 4), (2, 8, 4)]) == 10
    result = solve_bnb(graph)
    assert (result.makespan, result.optimal, result.nodes, result.lower_bound) == (11, True, 1, 11)
    assert result.incumbent_source == "heft"


def test_a_forced_pair_adds_no_node():
    # heft puts op 2 first: 13. The bounds read 10 and 11, and 2 -> 1 costs
    # 13, so the pair is forced to 1 -> 2, which orients every pair: the
    # root itself is the leaf that finds the optimum, 12.
    graph = _two_chains(3)
    assert heft(graph).makespan == 13
    assert _jackson_bound([(0, 7, 4), (2, 8, 4)]) == 11
    result = solve_bnb(graph)
    assert (result.makespan, result.optimal, result.nodes) == (12, True, 1)
    assert result.schedule.starts == (0, 0, 4, 4, 8)
    assert result.incumbent_source == "search"


def test_relaxation_monotone_against_standard_baseline():
    rng = random.Random(13)
    for _ in range(50):
        circuit = random_circuit(rng)
        std_makespan = asap(circuit, build_standard_dag(circuit)).makespan
        _, graph = ext_graph(circuit)
        result = solve_bnb(graph)
        assert result.optimal
        assert result.makespan <= std_makespan


@pytest.fixture
def fig2():
    return fig2_circuit()
