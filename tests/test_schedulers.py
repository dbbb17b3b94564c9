from __future__ import annotations

import graphlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import circuits, fig2_circuit, random_circuit, repeating_circuits
from oracle import (
    edge_successors,
    reference_asap,
    reference_extended_dag,
    reference_heft,
    reference_paths,
)
from qos.circuit import Circuit, CircuitError, Operation
from qos.commutation import CommutationRuleSet
from qos.depgraph import (
    DependencyDag,
    DisjunctiveEdgeMode,
    DisjunctiveGraph,
    build_disjunctive_graph,
    build_extended_dag,
    build_standard_dag,
)
from qos.schedulers import (
    CycleError,
    Orientation,
    Schedule,
    asap,
    heft,
    render_gantt,
    schedule_from_json,
    schedule_to_json,
    semi_active,
    upward_rank,
    validate,
)

DEFAULT = CommutationRuleSet.default()
STANDARD = CommutationRuleSet.standard()
MODES = list(DisjunctiveEdgeMode)


def ext_graph(circuit, mode=DisjunctiveEdgeMode.GROUPED):
    dag = build_extended_dag(circuit, DEFAULT)
    return dag, build_disjunctive_graph(circuit, dag, DEFAULT, mode)


def std_graph(circuit, mode=DisjunctiveEdgeMode.GROUPED):
    dag = build_standard_dag(circuit)
    return dag, build_disjunctive_graph(circuit, dag, STANDARD, mode)


def bare_graph(ops, edges):
    """A disjunctive graph with no pairs from ``(qubits, duration)`` per op
    and explicit conjunctive edges, to pin heft's placement order."""
    return DisjunctiveGraph.from_pairs(
        dag=DependencyDag.from_edges(len(ops), edges),
        pairs=frozenset(),
        names=("g",) * len(ops),
        durations=tuple(d for _, d in ops),
        qubits=tuple(tuple(q) for q, _ in ops),
    )


# Ops 0-5 leave busy intervals q0: [0, 1), [3, 6) and q1: [0, 2), [4, 5);
# ops 2 and 4 (on q2, q3) delay ops 3 and 5. All of them reach the 10-dt
# sink 7 on q9, so heft places them before the 2-qubit op 6 and before any
# op appended without successors.
OFFSET_GAPS_OPS = [
    ((0,), 1),
    ((1,), 2),
    ((2,), 3),
    ((0,), 3),
    ((3,), 4),
    ((1,), 1),
    ((0, 1), 2),
    ((9,), 10),
]
OFFSET_GAPS_EDGES = {(2, 3), (4, 5), (0, 7), (1, 7), (3, 7), (5, 7)}


class TestValidate:
    def test_reordered_schedule_is_feasible_for_extended_dag(self, fig2):
        ext = build_extended_dag(fig2, DEFAULT)
        schedule = Schedule.from_starts((0, 1, 0), (1, 1, 1))
        assert schedule.makespan == 2
        assert validate(fig2, ext, schedule) == []

    def test_same_schedule_breaks_standard_precedence(self, fig2):
        std = build_standard_dag(fig2)
        schedule = Schedule.from_starts((0, 1, 0), (1, 1, 1))
        kinds = [v.kind for v in validate(fig2, std, schedule)]
        assert kinds == ["precedence"]

    def test_precedence_violation(self, fig2):
        std = build_standard_dag(fig2)
        schedule = Schedule.from_starts((0, 0, 2), (1, 1, 1))
        violations = validate(fig2, std, schedule)
        assert any(v.kind == "precedence" and v.ops == (0, 1) for v in violations)

    def test_non_overlap_violation(self):
        circuit = Circuit.build(1, [("x", [0]), ("x", [0])], default_duration=1)
        ext = build_extended_dag(circuit, DEFAULT)  # identical ops: no edge
        assert ext.edges == set()
        violations = validate(circuit, ext, Schedule.from_starts((5, 5), (1, 1)))
        assert [v.kind for v in violations] == ["non-overlap"]
        assert violations[0].ops == (0, 1)

    def test_zero_duration_ops_never_overlap(self):
        circuit = Circuit.build(1, [("x", [0], (), 4), ("barrier", [0])])
        std = build_standard_dag(circuit)
        # barrier inside the x interval: empty interval, no overlap; but the
        # chain edge still demands it start after x finishes.
        violations = validate(circuit, std, Schedule.from_starts((0, 2), (4, 0)))
        assert [v.kind for v in violations] == ["precedence"]

    def test_size_mismatch_raises(self, fig2):
        std = build_standard_dag(fig2)
        with pytest.raises(ValueError, match="starts"):
            validate(fig2, std, Schedule.from_starts((0,), (1,)))


class TestSemiActive:
    def test_both_orientations(self, fig2):
        _, graph = ext_graph(fig2)
        before = semi_active(graph, Orientation(((2, 1),)))
        assert before.starts == (0, 1, 0) and before.makespan == 2
        after = semi_active(graph, Orientation(((1, 2),)))
        assert after.starts == (0, 1, 2) and after.makespan == 3

    def test_no_edges_all_start_at_zero(self):
        circuit = Circuit.build(3, [("x", [0]), ("x", [1]), ("x", [2])], default_duration=1)
        _, graph = std_graph(circuit)
        schedule = semi_active(graph, Orientation(()))
        assert schedule.starts == (0, 0, 0) and schedule.makespan == 1

    def test_cycle_detected(self):
        circuit = Circuit.build(1, [("x", [0]), ("z", [0]), ("x", [0])], default_duration=1)
        dag, graph = std_graph(circuit, DisjunctiveEdgeMode.REDUNDANT)
        assert graph.pairs == {(0, 2)}
        with pytest.raises(CycleError) as err:
            semi_active(graph, Orientation(((2, 0),)))
        assert set(err.value.cycle) >= {0, 2}

    def test_orientation_must_cover_pairs(self, fig2):
        _, graph = ext_graph(fig2)
        with pytest.raises(ValueError, match="cover"):
            semi_active(graph, Orientation(()))
        with pytest.raises(ValueError, match="cover"):
            semi_active(graph, Orientation(((0, 1),)))

    def test_output_validates(self):
        rng = random.Random(31)
        for _ in range(50):
            circuit = random_circuit(rng, max_ops=8)
            dag, graph = ext_graph(circuit)
            pairs = graph.sorted_pairs
            flips = [rng.random() < 0.5 for _ in pairs]
            arcs = tuple((l, k) if f else (k, l) for (k, l), f in zip(pairs, flips))
            try:
                schedule = semi_active(graph, Orientation(arcs))
            except CycleError:
                continue
            assert validate(circuit, dag, schedule) == []
            for u, v in arcs:
                assert schedule.starts[v] >= schedule.starts[u] + circuit.ops[u].duration


@st.composite
def blocked_circuits(draw):
    """Alternating blocks of cx sharing control 0 and cx sharing target 0:
    consecutive runs of two to five ops on qubit 0. The extended DAG links
    two runs of a and b ops through a join node when a·b > a + b + 1 (3 x 3,
    2 x 4 and up), and with plain arcs otherwise."""
    ops = []
    for block in range(draw(st.integers(2, 4))):
        for _ in range(draw(st.integers(2, 5))):
            other = draw(st.integers(1, 3))
            qubits = (0, other) if block % 2 == 0 else (other, 0)
            ops.append(Operation(len(ops), "cx", qubits, (), draw(st.integers(0, 3))))
    return Circuit(4, tuple(ops))


@settings(max_examples=150)
@given(
    st.one_of(circuits(), repeating_circuits(), blocked_circuits()),
    st.randoms(use_true_random=False),
)
def test_semi_active_matches_reference_paths(circuit, rng):
    """semi_active walks the DAG's join graph plus the arcs; the reference
    walks the op-level edges plus the arcs. A cycle is named by ops alone,
    each step an edge or an arc. Each graph flips its pairs against source
    order with its own drawn probability, so both outcomes occur."""
    for build in (std_graph, ext_graph):
        for mode in MODES:
            dag, graph = build(circuit, mode)
            flip = rng.random()
            arcs = tuple((l, k) if rng.random() < flip else (k, l) for k, l in graph.sorted_pairs)
            try:
                heads, _, _ = reference_paths(
                    graph.num_ops, [*dag.edges, *arcs], list(graph.durations)
                )
            except graphlib.CycleError:
                with pytest.raises(CycleError) as err:
                    semi_active(graph, Orientation(arcs))
                cycle = err.value.cycle
                assert len(cycle) >= 2 and cycle[0] == cycle[-1]
                assert all(0 <= v < graph.num_ops for v in cycle)
                assert all(step in dag.edges or step in arcs for step in zip(cycle, cycle[1:]))
            else:
                assert semi_active(graph, Orientation(arcs)).starts == tuple(heads)


class TestAsap:
    def test_standard_dag_makespan_three(self, fig2):
        schedule = asap(fig2, build_standard_dag(fig2))
        assert schedule.starts == (0, 1, 2) and schedule.makespan == 3

    def test_extended_dag_makespan_two(self, fig2):
        schedule = asap(fig2, build_extended_dag(fig2, DEFAULT))
        assert schedule.starts == (0, 1, 0) and schedule.makespan == 2

    def test_empty_circuit(self):
        circuit = Circuit(1, ())
        assert asap(circuit, build_standard_dag(circuit)).makespan == 0

    def test_declared_qubit_count_is_not_allocated(self, fig2):
        # A list per declared qubit would need terabytes here.
        huge = Circuit(10**12, fig2.ops)
        assert asap(huge, build_standard_dag(huge)) == asap(fig2, build_standard_dag(fig2))

    def test_unordered_identical_ops_still_serialize(self):
        circuit = Circuit.build(1, [("x", [0]), ("x", [0])], default_duration=1)
        ext = build_extended_dag(circuit, DEFAULT)
        schedule = asap(circuit, ext)
        assert sorted(schedule.starts) == [0, 1]
        assert validate(circuit, ext, schedule) == []

    @settings(max_examples=60)
    @given(circuits())
    def test_equals_semi_active_on_standard_dag(self, circuit):
        dag, graph = std_graph(circuit)
        assert graph.pairs == frozenset()
        assert asap(circuit, dag) == semi_active(graph, Orientation(()))

    @settings(max_examples=150)
    @given(st.one_of(circuits(max_ops=40, max_duration=4), repeating_circuits(max_ops=40)))
    def test_equals_reference_on_both_dags(self, circuit):
        # The reference walks op-level predecessors and successors; asap
        # walks the links through join nodes. The reference extended DAG
        # holds one link per edge.
        reference_dag = reference_extended_dag(circuit, DEFAULT)
        for dag in (build_standard_dag(circuit), build_extended_dag(circuit, DEFAULT)):
            assert asap(circuit, dag) == reference_asap(circuit, dag)
        assert asap(circuit, dag) == reference_asap(circuit, reference_dag)

    def test_stale_start_is_requeued(self):
        # Both x ops are eligible at 0; placing the x on q0 pushes the
        # second one (on q0) to 5, behind the z on q1 that was queued at 0.
        circuit = Circuit.build(2, [("x", [0], (), 5), ("x", [0], (), 1), ("z", [1], (), 1)])
        dag = build_extended_dag(circuit, DEFAULT)
        assert dag.edges == frozenset()
        schedule = asap(circuit, dag)
        assert schedule.starts == (0, 5, 0)
        assert schedule == reference_asap(circuit, dag)

    def test_state_is_keyed_by_the_qubits_used(self):
        # A list per qubit up to the one used would hold 10**9 entries.
        circuit = Circuit.build(10**9 + 1, [("x", [10**9])], default_duration=1)
        for dag in (build_standard_dag(circuit), build_extended_dag(circuit, DEFAULT)):
            assert asap(circuit, dag).starts == (0,)


class TestUpwardRank:
    def test_fig2_extended(self, fig2):
        _, graph = ext_graph(fig2)
        assert upward_rank(graph) == (2, 1, 1)

    def test_single_op(self):
        circuit = Circuit.build(1, [("x", [0], (), 7)])
        _, graph = std_graph(circuit)
        assert upward_rank(graph) == (7,)

    def test_chain(self):
        circuit = Circuit.build(1, [("x", [0]), ("z", [0]), ("x", [0])], default_duration=1)
        _, graph = std_graph(circuit)
        assert upward_rank(graph) == (3, 2, 1)

    def test_rank_exceeds_successors_for_positive_durations(self):
        rng = random.Random(8)
        for _ in range(40):
            circuit = random_circuit(rng)
            _, graph = ext_graph(circuit)
            ranks = upward_rank(graph)
            for u, successors in enumerate(edge_successors(graph.dag)):
                for v in successors:
                    if graph.durations[u] > 0:
                        assert ranks[u] > ranks[v]


class TestHeft:
    def test_fig2_insertion_reaches_two(self, fig2):
        _, graph = ext_graph(fig2)
        schedule = heft(graph)
        assert schedule.starts == (0, 1, 0) and schedule.makespan == 2

    def test_fig2_standard_equals_asap(self, fig2):
        dag, graph = std_graph(fig2)
        assert heft(graph) == asap(fig2, dag)

    def test_empty_circuit(self):
        circuit = Circuit(1, ())
        _, graph = std_graph(circuit)
        assert heft(graph) == Schedule((), 0)

    def test_exact_fit_slot_is_used(self):
        # x must drop into the [0, 2) idle window on its qubit even though
        # the window length equals its duration exactly.
        circuit = Circuit.build(
            3, [("h", [1], (), 2), ("cx", [1, 2], (), 3), ("x", [2], (), 2)]
        )
        _, graph = ext_graph(circuit)
        schedule = heft(graph)
        assert schedule.starts == (0, 2, 0) and schedule.makespan == 5

    def test_output_validates_against_conjunctive_dag(self):
        rng = random.Random(77)
        for _ in range(60):
            circuit = random_circuit(rng)
            dag, graph = ext_graph(circuit)
            assert validate(circuit, dag, heft(graph)) == []

    @settings(max_examples=150)
    @given(st.one_of(circuits(max_ops=40, max_duration=4), repeating_circuits(max_ops=40)))
    def test_equals_reference_on_both_dags(self, circuit):
        # As for asap: join nodes against op-level successors.
        for _, graph in (std_graph(circuit), ext_graph(circuit)):
            assert heft(graph) == reference_heft(graph)
        reference_graph = build_disjunctive_graph(
            circuit, reference_extended_dag(circuit, DEFAULT), DEFAULT
        )
        assert heft(graph) == reference_heft(reference_graph)

    def test_offset_gaps_need_repeated_passes(self):
        # The 2-dt op 6 fits q0's gap [1, 3) but not q1's busy [0, 2); q1's
        # gap [2, 4) then runs into q0's [3, 6), so one pass over its qubits
        # would stop at 2. The first start free on both is 6.
        graph = bare_graph(OFFSET_GAPS_OPS, OFFSET_GAPS_EDGES)
        schedule = heft(graph)
        assert schedule.starts == (0, 0, 0, 3, 0, 4, 6, 6)
        assert schedule == reference_heft(graph)

    @pytest.mark.parametrize(
        "delay,start",
        [
            (3, 3),  # exactly at the start of q0's [3, 6): allowed
            (4, 6),  # strictly inside [3, 6): moved to its end
            (1, 1),  # exactly at the end of [0, 1), in q0's idle gap
            (6, 6),  # exactly at the end of [3, 6)
        ],
    )
    def test_zero_length_op_on_interval_boundaries(self, delay, start):
        # A zero-length op on q0 (op 9) readied at ``delay`` by op 8 on q5.
        ops = OFFSET_GAPS_OPS + [((5,), delay), ((0,), 0)]
        graph = bare_graph(ops, OFFSET_GAPS_EDGES | {(8, 9)})
        schedule = heft(graph)
        assert schedule.starts[9] == start
        assert schedule == reference_heft(graph)


class TestScheduleIO:
    def test_json_round_trip(self, fig2):
        _, graph = ext_graph(fig2)
        schedule = heft(graph)
        text = schedule_to_json(fig2, schedule)
        assert schedule_from_json(text, fig2) == schedule

    def test_duplicate_op_rejected(self, fig2):
        text = (
            '{"makespan": 1, "starts": ['
            '{"op": 0, "start": 0}, {"op": 0, "start": 0}, {"op": 2, "start": 0}]}'
        )
        with pytest.raises(CircuitError, match="twice"):
            schedule_from_json(text, fig2)

    def test_missing_op_rejected(self, fig2):
        with pytest.raises(CircuitError, match="missing"):
            schedule_from_json('{"starts": [{"op": 0, "start": 0}]}', fig2)

    def test_duration_mismatch_rejected(self, fig2):
        text = (
            '{"starts": [{"op": 0, "start": 0, "duration": 9},'
            ' {"op": 1, "start": 1}, {"op": 2, "start": 0}]}'
        )
        with pytest.raises(CircuitError, match="disagrees"):
            schedule_from_json(text, fig2)

    def test_makespan_mismatch_rejected(self, fig2):
        text = (
            '{"makespan": 9, "starts": [{"op": 0, "start": 0},'
            ' {"op": 1, "start": 1}, {"op": 2, "start": 0}]}'
        )
        with pytest.raises(CircuitError, match="disagrees"):
            schedule_from_json(text, fig2)

    def test_gantt_fig2(self, fig2):
        _, graph = ext_graph(fig2)
        text = render_gantt(fig2, heft(graph))
        assert text == (
            "makespan 2 dt (1 cell = 1 dt)\n"
            "q0 |..|\n"
            "q1 |01|\n"
            "q2 |21|\n"
        )

    def test_gantt_rows_stop_at_the_largest_qubit_used(self, fig2):
        # A row per declared qubit would be 10**12 rows here.
        huge = Circuit(10**12, fig2.ops)
        text = render_gantt(huge, asap(huge, build_standard_dag(huge)))
        assert text.splitlines() == [
            "makespan 3 dt (1 cell = 1 dt)",
            "q0 |...|",
            "q1 |01.|",
            "q2 |.12|",
        ]

    def test_gantt_scales_down_long_schedules(self):
        circuit = Circuit.build(1, [("x", [0], (), 1000), ("z", [0], (), 1000)])
        dag = build_standard_dag(circuit)
        text = render_gantt(circuit, asap(circuit, dag), width=40)
        header, row = text.splitlines()
        assert header == "makespan 2000 dt (1 cell = 50 dt)"
        assert len(row) == len("q0 |") + 40 + 1


@pytest.fixture
def fig2():
    return fig2_circuit()
