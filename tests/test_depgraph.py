from __future__ import annotations

import graphlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import circuits, fig2_circuit, repeating_circuits
from oracle import edge_successors, reference_extended_dag, reference_pairs, reference_paths
from qos import cli, depgraph
from qos.cli import run_compare
from qos.circuit import Circuit, circuit_to_json
from qos.commutation import CommutationRule, CommutationRuleSet, commutes
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
        dag = DependencyDag.from_edges(2, {(0, 1)})
        with pytest.raises(ValueError, match="already a conjunctive edge"):
            DisjunctiveGraph.from_pairs(dag, {(0, 1)}, ("x", "x"), (1, 1), ((0,), (0,)))

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
            DependencyDag.from_edges(3, {(2, 1)})
        with pytest.raises(ValueError, match="source order"):
            DependencyDag.from_edges(2, {(0, 5)})

    def test_reachability(self):
        dag = DependencyDag.from_edges(4, {(0, 1), (1, 3)})
        assert dag.has_path(0, 3)
        assert not dag.has_path(0, 2)
        assert not dag.has_path(3, 0)

    def test_hand_built_edges_are_links_of_single_ops(self):
        dag = DependencyDag.from_edges(3, [(1, 2), (0, 1), (0, 1)])
        assert dag.links == (((0,), (1,)), ((1,), (2,)))
        assert dag.edges == {(0, 1), (1, 2)}
        assert dag.join_successors == ((1,), (2,), ())

    def test_link_between_two_runs_goes_through_one_join(self):
        # The three cx sharing control 0 form one run on qubit 0, the three
        # sharing target 0 the next: nine edges, held as one link.
        circuit = fan_circuit(3, labels=[0, 1, 2, 3], spokes_in=[1, 2, 3])
        dag = build_extended_dag(circuit, DEFAULT)
        assert ((1, 2, 3), (4, 5, 6)) in dag.links
        assert {(i, j) for i in (1, 2, 3) for j in (4, 5, 6)} <= dag.edges
        join = dag.num_ops  # the only link with two runs of two or more
        assert len(dag.join_successors) == join + 1
        assert dag.join_successors[join] == (4, 5, 6)
        assert all(join in dag.join_successors[i] for i in (1, 2, 3))
        durations = [op.duration for op in circuit.ops]
        assert dag.paths(durations).heads == longest_paths(edge_successors(dag), durations).heads


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

    def test_label_escapes_quotes_and_backslashes(self):
        circuit = Circuit.build(2, [('my"gate', (0, 1), (), 1), ("back\\slash", (1,), (), 1)])
        dot = export_dot(build_disjunctive_graph(circuit, build_standard_dag(circuit), STANDARD))
        assert 'n0 [label="my\\"gate(0,1) p=1"];' in dot
        assert 'n1 [label="back\\\\slash(1) p=1"];' in dot

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
@given(
    st.one_of(circuits(), repeating_circuits()), st.sets(st.sampled_from(CommutationRule))
)
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


@settings(max_examples=150)
@given(
    st.one_of(circuits(), repeating_circuits()), st.sets(st.sampled_from(CommutationRule))
)
def test_extended_dag_matches_reference(circuit, enabled):
    """The linear partition gives the reference builder's runs; the edges
    and reachability derived from its links are the reference's."""
    drawn = CommutationRuleSet(frozenset(enabled))
    for rules in (drawn, DEFAULT):
        dag = build_extended_dag(circuit, rules)
        ref = reference_extended_dag(circuit, rules)
        assert (dag.edges, dag.groups, dag.rules) == (ref.edges, ref.groups, ref.rules)
        assert dag.reachable == ref.reachable
        assert dag.paths([op.duration for op in circuit.ops]).tails == list(
            longest_paths(edge_successors(ref), [op.duration for op in circuit.ops]).tails
        )


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
        heads, tails, reach = reference_paths(n, arcs, durations)
        assert (paths.heads, paths.tails, paths.reach) == (heads, tails, reach)

    def test_reach_only_when_asked(self):
        assert longest_paths([(), (0,)], [3, 4]) == ([4, 0], [3, 7], None)

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


def fan_circuit(k, seed=3, labels=None, spokes_in=None):
    """The benchmark's fan shape: an h on the hub, k cx sharing the hub as
    control, then k cx sharing it as target, on seeded qubit labels."""
    rng = random.Random(seed)
    if labels is None:
        labels = list(range(k + 1))
        rng.shuffle(labels)
    hub, spokes = labels[0], labels[1:]
    gates = [("h", [hub], (), 1)] + [("cx", [hub, t], (), 2) for t in spokes]
    if spokes_in is None:
        spokes_in = list(spokes)
        rng.shuffle(spokes_in)
    gates += [("cx", [c, hub], (), 2) for c in spokes_in]
    return Circuit.build(k + 1, gates)


def qft_like_circuit(n):
    """QFT-like layers: per qubit c an h and a u1, then for each later qubit
    t two cx sharing control c, each followed by a u1 on t."""
    gates = []
    for c in range(n):
        gates += [("h", [c], (), 1), ("u1", [c], (0.5,), 1)]
        for t in range(c + 1, n):
            gates += [("cx", [c, t], (), 2), ("u1", [t], (0.25,), 1)]
            gates += [("cx", [c, t], (), 2), ("u1", [t], (0.125,), 1)]
    return Circuit.build(n, gates)


class TestLinearSize:
    """Structural guards that need no timer."""

    @pytest.mark.parametrize(
        "circuit", [fan_circuit(400), qft_like_circuit(32)], ids=["fan400", "qft32"]
    )
    def test_commutes_calls_are_linear_in_incidences(self, circuit, monkeypatch):
        calls = 0

        def counting(a, b, rules):
            nonlocal calls
            calls += 1
            return commutes(a, b, rules)

        monkeypatch.setattr(depgraph, "commutes", counting)
        build_extended_dag(circuit, DEFAULT)
        incidences = sum(len(op.qubits) for op in circuit.ops)
        assert calls <= 2 * incidences

    def test_heft_compare_derives_no_edges_or_pairs(self, tmp_path, monkeypatch):
        path = tmp_path / "fan400.json"
        path.write_text(circuit_to_json(fan_circuit(400)), encoding="utf-8")
        seen = []
        real_asap, real_heft = cli.asap, cli.heft
        monkeypatch.setattr(cli, "asap", lambda c, dag: seen.append(dag) or real_asap(c, dag))
        monkeypatch.setattr(cli, "heft", lambda g: seen.append(g) or real_heft(g))
        (row,) = run_compare([str(path)], method="heft")
        std_dag, graph = seen
        assert row.ext_makespan == 1 + 4 * 400
        assert "edges" not in std_dag.__dict__
        assert "edges" not in graph.dag.__dict__
        assert "pairs" not in graph.__dict__


@pytest.fixture
def fig2():
    return fig2_circuit()
