"""Reference implementations the tests hold the package to.

A dense-matrix commutator check over the known gate unitaries is the
independent oracle for the commutation rule table; ``graphlib`` gives the
reference topological order for the longest-path kernel. Neither is on the
package's import path.
"""

from __future__ import annotations

import graphlib
import math

import numpy as np

from qos.circuit import Operation

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _gate_matrix(op: Operation) -> np.ndarray:
    """Unitary of a known gate on its own operands (first operand is the
    most significant bit)."""
    name, p = op.name, op.params
    if name == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2
    if name == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if name == "z":
        return np.diag([1, -1]).astype(complex)
    if name == "s":
        return np.diag([1, 1j]).astype(complex)
    if name == "t":
        return np.diag([1, np.exp(1j * math.pi / 4)])
    if name == "u1":
        (lam,) = p
        return np.diag([1, np.exp(1j * lam)])
    if name == "u2":
        phi, lam = p
        return _INV_SQRT2 * np.array(
            [[1, -np.exp(1j * lam)], [np.exp(1j * phi), np.exp(1j * (phi + lam))]]
        )
    if name == "u3":
        theta, phi, lam = p
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array(
            [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
        )
    if name == "cx":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise ValueError(f"no unitary known for gate {op.name!r}")


def _embed(gate: np.ndarray, gate_qubits: tuple[int, ...], support: tuple[int, ...]) -> np.ndarray:
    """Lift a gate unitary onto the full Hilbert space of ``support``
    (sorted qubit ids, first id most significant)."""
    n = len(support)
    positions = [support.index(q) for q in gate_qubits]
    k = len(gate_qubits)
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - i)) & 1 for i in range(n)]
        sub_in = 0
        for pos in positions:
            sub_in = (sub_in << 1) | bits[pos]
        for sub_out in range(1 << k):
            amp = gate[sub_out, sub_in]
            if amp == 0:
                continue
            new_bits = list(bits)
            for j, pos in enumerate(positions):
                new_bits[pos] = (sub_out >> (k - 1 - j)) & 1
            row = 0
            for bit in new_bits:
                row = (row << 1) | bit
            out[row, col] = amp
    return out


def commutes_matrix_oracle(a: Operation, b: Operation, *, tol: float = 1e-9) -> bool:
    """Decide commutation numerically: embed both unitaries on their union
    support and test whether the commutator's max-norm is within ``tol``.

    Supports the gate set with known matrices (h, x, z, s, t, u1, u2, u3,
    cx) and union supports of at most 3 qubits.
    """
    support = tuple(sorted(set(a.qubits) | set(b.qubits)))
    if len(support) > 3:
        raise ValueError(f"combined support of {len(support)} qubits exceeds the 3-qubit limit")
    mat_a = _embed(_gate_matrix(a), a.qubits, support)
    mat_b = _embed(_gate_matrix(b), b.qubits, support)
    return float(np.max(np.abs(mat_a @ mat_b - mat_b @ mat_a))) <= tol


def reference_paths(
    num_ops: int, arcs: list[tuple[int, int]], durations: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """Heads, tails and reachability bitsets of an acyclic digraph, by
    definition: longest paths along a ``graphlib`` topological order, and a
    search from every node. Raises ``graphlib.CycleError`` on a cycle."""
    preds: dict[int, list[int]] = {v: [] for v in range(num_ops)}
    succs: dict[int, list[int]] = {v: [] for v in range(num_ops)}
    for u, v in arcs:
        preds[v].append(u)
        succs[u].append(v)
    order = list(graphlib.TopologicalSorter(preds).static_order())
    heads = [0] * num_ops
    for v in order:
        heads[v] = max((heads[u] + durations[u] for u in preds[v]), default=0)
    tails = [0] * num_ops
    for u in reversed(order):
        tails[u] = durations[u] + max((tails[v] for v in succs[u]), default=0)
    reach = []
    for u in range(num_ops):
        seen: set[int] = set()
        stack = list(succs[u])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(succs[v])
        reach.append(sum(1 << v for v in seen))
    return heads, tails, reach
