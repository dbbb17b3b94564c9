"""Commutation-aware scheduling of quantum circuit operations.

Build dependency graphs that exploit gate commutation, reduce the
scheduling problem to orienting the disjunctive pairs of a job-shop-style
graph, and minimize the makespan exactly (branch and bound) or heuristically
(earliest-start and rank-driven list scheduling).
"""

from .circuit import (
    Circuit,
    CircuitError,
    DurationTable,
    Operation,
    apply_durations,
    circuit_to_json,
    circuit_to_qasm,
    parse_json_circuit,
    parse_qasm_subset,
)
from .commutation import CommutationRule, CommutationRuleSet, commutes
from .depgraph import (
    CycleError,
    DependencyDag,
    DisjunctiveEdgeMode,
    DisjunctiveGraph,
    build_disjunctive_graph,
    build_extended_dag,
    build_standard_dag,
    export_dot,
)
from .exact import SolveResult, SolverConfig, export_mip_lp, solve_bnb, solve_bruteforce
from .schedulers import (
    Orientation,
    Schedule,
    Violation,
    asap,
    heft,
    render_gantt,
    schedule_from_json,
    schedule_to_json,
    semi_active,
    upward_rank,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitError",
    "CommutationRule",
    "CommutationRuleSet",
    "CycleError",
    "DependencyDag",
    "DisjunctiveEdgeMode",
    "DisjunctiveGraph",
    "DurationTable",
    "Operation",
    "Orientation",
    "Schedule",
    "SolveResult",
    "SolverConfig",
    "Violation",
    "apply_durations",
    "asap",
    "build_disjunctive_graph",
    "build_extended_dag",
    "build_standard_dag",
    "circuit_to_json",
    "circuit_to_qasm",
    "commutes",
    "export_dot",
    "export_mip_lp",
    "heft",
    "parse_json_circuit",
    "parse_qasm_subset",
    "render_gantt",
    "schedule_from_json",
    "schedule_to_json",
    "semi_active",
    "solve_bnb",
    "solve_bruteforce",
    "upward_rank",
    "validate",
]
