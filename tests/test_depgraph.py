from __future__ import annotations

import graphlib
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import circuits, fig2_circuit
from oracle import reference_pairs, reference_paths
from qos.circuit import Circuit
from qos.commutation import CommutationRule, CommutationRuleSet
from qos.depgraph import (
    CycleError,
    DependencyDag,
    DisjunctiveEdgeMode,
    DisjunctiveGraph,
    build_disjunctive_graph,
    build_extended_dag,
    build_standard_dag,
    export_dot,
    longest_paths,
)

DEFAULT = CommutationRuleSet.default()
STANDARD = CommutationRuleSet.standard()
MODES = list(DisjunctiveEdgeMode)


class TestStandardDag:
    def test_fig2_chain(self, fig2):
        assert build_standard_dag(fig2).edges == {(0, 1), (1, 2)}

    def test_single_op(self):
        circuit = Circuit.build(1, [("x", [0])])
        assert build_standard_dag(circuit).edges == set()

    def test_cx_chain(self):
        circuit = Circuit.build(4, [("cx", [0, 1]), ("cx", [1, 2]), ("cx", [2, 3])])
        assert build_standard_dag(circuit).edges == {(0, 1), (1, 2)}

    def test_double_shared_qubits_deduplicated(self):
        circuit = Circuit.build(2, [("cx", [0, 1]), ("cx", [1, 0])])
        assert build_standard_dag(circuit).edges == {(0, 1)}


class TestExtendedDag:
    def test_fig2(self, fig2):
        assert build_extended_dag(fig2, DEFAULT).edges == {(0, 1)}

    def test_standard_rules_reduce_to_standard_dag(self, fig2):
        assert build_extended_dag(fig2, STANDARD).edges == build_standard_dag(fig2).edges

    def test_shared_control_run(self):
        circuit = Circuit.build(3, [("cx", [0, 1]), ("cx", [0, 2]), ("h", [1])])
        assert build_extended_dag(circuit, DEFAULT).edges == {(0, 2)}

    def test_run_membership_requires_commuting_with_all(self):
        # The second u1 commutes with the cx but not (per the rule table)
        # with the first u1, so it must open a new run on the control qubit
        # rather than slide past both.
        circuit = Circuit.build(
            2, [("u1", [0], [0.5]), ("cx", [0, 1]), ("u1", [0], [0.7])]
        )
        assert build_extended_dag(circuit, DEFAULT).edges == {(0, 2), (1, 2)}

    def test_identical_u1_runs_merge(self):
        circuit = Circuit.build(
            2, [("u1", [0], [0.5]), ("cx", [0, 1]), ("u1", [0], [0.5])]
        )
        assert build_extended_dag(circuit, DEFAULT).edges == set()

    def test_barrier_blocks_runs(self):
        circuit = Circuit.build(2, [("cx", [0, 1]), ("barrier", [0, 1]), ("cx", [0, 1])])
        assert build_extended_dag(circuit, DEFAULT).edges == {(0, 1), (1, 2)}

    def test_records_rules_and_groups(self, fig2):
        ext = build_extended_dag(fig2, DEFAULT)
        assert ext.rules == DEFAULT
        assert ext.groups == ((1, 2),)

    def test_standard_dag_records_standard_rules_and_no_groups(self, fig2):
        std = build_standard_dag(fig2)
        assert std.rules == STANDARD
        assert std.groups == ()


class TestDisjunctiveGraph:
    def test_fig2_extended_grouped(self, fig2):
        ext = build_extended_dag(fig2, DEFAULT)
        graph = build_disjunctive_graph(fig2, ext, DEFAULT, DisjunctiveEdgeMode.GROUPED)
        assert graph.pairs == {(1, 2)}
        assert graph.durations == (1, 1, 1)
        assert graph.qubits == ((1,), (1, 2), (2,))

    def test_fig2_standard_has_no_pairs(self, fig2):
        std = build_standard_dag(fig2)
        for mode in (DisjunctiveEdgeMode.GROUPED, DisjunctiveEdgeMode.MINIMAL):
            graph = build_disjunctive_graph(fig2, std, STANDARD, mode)
            assert graph.pairs == set()

    def test_node_count_mismatch(self, fig2):
        std = build_standard_dag(Circuit.build(1, [("x", [0])]))
        with pytest.raises(ValueError, match="nodes"):
            build_disjunctive_graph(fig2, std, STANDARD)

    def test_rules_must_match_the_dag(self, fig2):
        with pytest.raises(ValueError, match="different commutation rule set"):
            build_disjunctive_graph(fig2, build_standard_dag(fig2), DEFAULT)
        with pytest.raises(ValueError, match="different commutation rule set"):
            build_disjunctive_graph(fig2, build_extended_dag(fig2, DEFAULT), STANDARD)

    def test_pair_overlapping_edge_rejected(self):
        dag = DependencyDag(2, frozenset({(0, 1)}))
        with pytest.raises(ValueError, match="already a conjunctive edge"):
            DisjunctiveGraph(dag, frozenset({(0, 1)}), ("x", "x"), (1, 1), ((0,), (0,)))

    def test_barriers_never_in_pairs(self):
        circuit = Circuit.build(2, [("cx", [0, 1]), ("barrier", [0]), ("cx", [0, 1])])
        ext = build_extended_dag(circuit, DEFAULT)
        for mode in MODES:
            graph = build_disjunctive_graph(circuit, ext, DEFAULT, mode)
            assert all(1 not in pair for pair in graph.pairs)

    def test_minimal_drops_path_connected_pairs(self):
        # The identical cx ops share a run on their target qubit but are
        # ordered through the h on the control qubit, so MINIMAL drops the
        # pair that GROUPED keeps.
        circuit = Circuit.build(
            2, [("cx", [0, 1]), ("h", [0]), ("cx", [0, 1])], default_duration=1
        )
        ext = build_extended_dag(circuit, DEFAULT)
        assert ext.edges == {(0, 1), (1, 2)}
        grouped = build_disjunctive_graph(circuit, ext, DEFAULT, DisjunctiveEdgeMode.GROUPED)
        minimal = build_disjunctive_graph(circuit, ext, DEFAULT, DisjunctiveEdgeMode.MINIMAL)
        assert grouped.pairs == {(0, 2)}
        assert minimal.pairs == set()


class TestDagType:
    def test_edges_must_respect_source_order(self):
        with pytest.raises(ValueError, match="source order"):
            DependencyDag(3, frozenset({(2, 1)}))
        with pytest.raises(ValueError, match="source order"):
            DependencyDag(2, frozenset({(0, 5)}))

    def test_reachability(self):
        dag = DependencyDag(4, frozenset({(0, 1), (1, 3)}))
        assert dag.has_path(0, 3)
        assert not dag.has_path(0, 2)
        assert not dag.has_path(3, 0)


class TestExportDot:
    def test_fig2_extended(self, fig2):
        ext = build_extended_dag(fig2, DEFAULT)
        graph = build_disjunctive_graph(fig2, ext, DEFAULT)
        dot = export_dot(graph)
        assert dot.count("->") == 2
        assert dot.count("style=dashed") == 1
        assert 'n1 [label="cx(1,2) p=1"];' in dot

    def test_fig2_standard(self, fig2):
        std = build_standard_dag(fig2)
        dot = export_dot(build_disjunctive_graph(fig2, std, STANDARD))
        assert dot.count("->") == 2
        assert dot.count("style=dashed") == 0

    def test_empty_circuit(self):
        circuit = Circuit(1, ())
        dot = export_dot(build_disjunctive_graph(circuit, build_standard_dag(circuit), STANDARD))
        assert "n0" not in dot
        assert dot.startswith("digraph")


def _same_qubit_pairs(circuit: Circuit) -> set[tuple[int, int]]:
    pairs = set()
    for i, j in combinations(range(len(circuit.ops)), 2):
        if set(circuit.ops[i].qubits) & set(circuit.ops[j].qubits):
            pairs.add((i, j))
    return pairs


@settings(max_examples=60)
@given(circuits())
def test_completeness_every_same_qubit_pair_ordered_or_free(circuit):
    for rules, dag in (
        (STANDARD, build_standard_dag(circuit)),
        (DEFAULT, build_extended_dag(circuit, DEFAULT)),
    ):
        for mode in MODES:
            graph = build_disjunctive_graph(circuit, dag, rules, mode)
            for i, j in _same_qubit_pairs(circuit):
                assert dag.has_path(i, j) or (i, j) in graph.pairs, (mode, i, j)


@settings(max_examples=150)
@given(circuits(), st.sets(st.sampled_from(CommutationRule)))
def test_pairs_match_reference(circuit, enabled):
    drawn = CommutationRuleSet(frozenset(enabled))
    for rules, dag in (
        (STANDARD, build_standard_dag(circuit)),
        (drawn, build_extended_dag(circuit, drawn)),
        (DEFAULT, build_extended_dag(circuit, DEFAULT)),
    ):
        for mode in MODES:
            graph = build_disjunctive_graph(circuit, dag, rules, mode)
            assert graph.pairs == reference_pairs(circuit, dag, rules, mode), mode


@settings(max_examples=60)
@given(circuits())
def test_mode_containment(circuit):
    ext = build_extended_dag(circuit, DEFAULT)
    by_mode = {
        mode: build_disjunctive_graph(circuit, ext, DEFAULT, mode).pairs for mode in MODES
    }
    assert by_mode[DisjunctiveEdgeMode.MINIMAL] <= by_mode[DisjunctiveEdgeMode.GROUPED]
    assert by_mode[DisjunctiveEdgeMode.GROUPED] <= by_mode[DisjunctiveEdgeMode.REDUNDANT]


@settings(max_examples=60)
@given(circuits())
def test_extension_only_relaxes(circuit):
    """Every order the extended DAG imposes is already implied by the
    standard DAG's transitive closure."""
    std = build_standard_dag(circuit)
    ext = build_extended_dag(circuit, DEFAULT)
    for i, j in ext.edges:
        assert std.has_path(i, j)


@settings(max_examples=60)
@given(circuits())
def test_builders_produce_topologically_consistent_dags(circuit):
    for dag in (build_standard_dag(circuit), build_extended_dag(circuit, DEFAULT)):
        preds = {v: [u for u, w in dag.edges if w == v] for v in range(dag.num_ops)}
        order = list(graphlib.TopologicalSorter(preds).static_order())
        assert len(order) == dag.num_ops


@st.composite
def dags(draw, max_nodes: int = 12):
    """Random DAGs whose topological order is a random permutation of the
    node ids, so arcs often point against index order."""
    n = draw(st.integers(0, max_nodes))
    rank = draw(st.permutations(range(n)))
    candidates = [(rank[i], rank[j]) for i, j in combinations(range(n), 2)]
    arcs = draw(st.lists(st.sampled_from(candidates), max_size=30)) if candidates else []
    durations = draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
    return n, arcs, durations


class TestLongestPaths:
    @settings(max_examples=200)
    @given(dags())
    def test_matches_graphlib_reference(self, dag):
        n, arcs, durations = dag
        successors: list[list[int]] = [[] for _ in range(n)]
        for u, v in arcs[::2]:
            successors[u].append(v)
        paths = longest_paths(successors, durations, arcs[1::2], reach=True)
        assert sorted(paths.order) == list(range(n))
        position = {v: i for i, v in enumerate(paths.order)}
        assert all(position[u] < position[v] for u, v in arcs)
        heads, tails, reach = reference_paths(n, arcs, durations)
        assert (paths.heads, paths.tails, paths.reach) == (heads, tails, reach)

    def test_reach_only_when_asked(self):
        assert longest_paths([(), (0,)], [3, 4]) == ([1, 0], [4, 0], [3, 7], None)

    @settings(max_examples=200)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16),
            )
        )
    )
    def test_cycles_are_named_by_real_arcs(self, graph):
        n, arcs = graph
        try:
            reference_paths(n, arcs, [1] * n)
        except graphlib.CycleError:
            with pytest.raises(CycleError) as err:
                longest_paths([()] * n, [1] * n, arcs)
            cycle = err.value.cycle
            assert len(cycle) >= 2 and cycle[0] == cycle[-1]
            assert len(set(cycle)) == len(cycle) - 1
            assert all(arc in arcs for arc in zip(cycle, cycle[1:]))
        else:
            longest_paths([()] * n, [1] * n, arcs)


@pytest.fixture
def fig2():
    return fig2_circuit()
