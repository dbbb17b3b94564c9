"""Correctness checks the benchmark applies to every schedule it measures.

These are written here rather than taken from ``qos.validate``, so that the
program is not checked by its own code. All of them are linear or
``n log n`` in the circuit size.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Sequence

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def schedule_violations(
    durations: Sequence[int],
    qubits: Sequence[Sequence[int]],
    edges: Iterable[tuple[int, int]],
    starts: Sequence[int],
    makespan: int,
) -> list[str]:
    """Problems with a schedule: a precedence edge (i, j) where i finishes
    after j starts, two ops with positive duration overlapping on a qubit,
    a negative start, or a makespan that is not the latest finish."""
    n = len(durations)
    problems: list[str] = []
    if len(starts) != n:
        return [f"{len(starts)} starts for {n} ops"]
    if any(s < 0 for s in starts):
        problems.append("negative start time")
    for i, j in edges:
        if starts[i] + durations[i] > starts[j]:
            problems.append(f"precedence {i}->{j}: {starts[i]}+{durations[i]} > {starts[j]}")
    busy: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for i in range(n):
        if durations[i] > 0:
            for q in qubits[i]:
                busy[q].append((starts[i], starts[i] + durations[i], i))
    for q, intervals in busy.items():
        intervals.sort()
        for (_, end, a), (start, _, b) in zip(intervals, intervals[1:]):
            if start < end:
                problems.append(f"ops {a} and {b} overlap on qubit {q}")
    finish = max((s + d for s, d in zip(starts, durations)), default=0)
    if finish != makespan:
        problems.append(f"makespan {makespan} but latest finish {finish}")
    return problems


def chain_makespan(durations: Sequence[int], qubits: Sequence[Sequence[int]]) -> int:
    """Makespan of the schedule that keeps source order on every qubit and
    starts each op as early as that allows: the standard-DAG optimum."""
    free: dict[int, int] = defaultdict(int)
    makespan = 0
    for d, qs in zip(durations, qubits):
        finish = max(free[q] for q in qs) + d
        for q in qs:
            free[q] = finish
        makespan = max(makespan, finish)
    return makespan


def lower_bound(
    durations: Sequence[int],
    qubits: Sequence[Sequence[int]],
    edges: Iterable[tuple[int, int]],
) -> int:
    """No schedule respecting the forward-pointing ``edges`` and qubit
    exclusivity is shorter than the longest weighted path or the busiest
    qubit's total load."""
    n = len(durations)
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        preds[j].append(i)
    head = [0] * n
    for j in range(n):  # edges point forward in source order
        head[j] = max((head[i] + durations[i] for i in preds[j]), default=0)
    path = max((h + d for h, d in zip(head, durations)), default=0)
    load: dict[int, int] = defaultdict(int)
    for d, qs in zip(durations, qubits):
        for q in qs:
            load[q] += d
    return max(path, max(load.values(), default=0))


def load_expected() -> dict:
    """Committed makespans: workload -> seed -> {"inputs_sha256", "circuits":
    name -> {"std", "heft", "opt"?}}. "opt" is present only for circuits
    whose branch-and-bound solve was proved optimal when recorded. The seed
    key "*" holds makespans that every seed shares (bnb-search relabels
    fixed circuits), and carries no digest."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
