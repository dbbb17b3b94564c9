"""Shared test utilities: deterministic circuit generators, hypothesis
strategies, and a minimal LP-format reader used as the write-side oracle."""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

from hypothesis import strategies as st

from qos.circuit import Circuit, Operation

PARAM_COUNT = {"u1": 1, "u2": 2, "u3": 3}

ONE_QUBIT_GATES = ("h", "x", "z", "s", "t", "u1", "u2", "u3")


def fig2_circuit(duration: int = 1) -> Circuit:
    """The 3-op worked example: h on q1, cx on (q1, q2), x on q2."""
    return Circuit.build(
        3, [("h", [1]), ("cx", [1, 2]), ("x", [2])], default_duration=duration
    )


_CORPUS_POOL = ("h", "x", "x", "z", "s", "t", "u1", "u1", "u2", "u3") + ("cx",) * 6


def random_circuit(rng: random.Random, max_qubits: int = 5, max_ops: int = 10) -> Circuit:
    """Random circuit with durations uniform in 1..10 and a bias toward cx
    and u1 so that commuting same-qubit pairs occur often."""
    nq = rng.randint(2, max_qubits)
    nops = rng.randint(1, max_ops)
    gates = []
    for _ in range(nops):
        name = rng.choice(_CORPUS_POOL)
        if name == "cx":
            a, b = rng.sample(range(nq), 2)
            qubits: tuple[int, ...] = (a, b)
        else:
            qubits = (rng.randrange(nq),)
        params = tuple(rng.uniform(0.0, 2 * math.pi) for _ in range(PARAM_COUNT.get(name, 0)))
        gates.append((name, qubits, params, rng.randint(1, 10)))
    return Circuit.build(nq, gates)


def pool_circuit(rng: random.Random, num_qubits: int, num_ops: int) -> Circuit:
    """Random circuit of the given size from the corpus pool, with every
    angle 0.5 (so that identical ops recur) and durations uniform in 0..10."""
    gates = []
    for _ in range(num_ops):
        name = rng.choice(_CORPUS_POOL)
        qubits = tuple(rng.sample(range(num_qubits), 2)) if name == "cx" else (rng.randrange(num_qubits),)
        gates.append((name, qubits, (0.5,) * PARAM_COUNT.get(name, 0), rng.randint(0, 10)))
    return Circuit.build(num_qubits, gates)


def make_corpus(seed: int = 20260809, size: int = 200) -> list[Circuit]:
    rng = random.Random(seed)
    return [random_circuit(rng) for _ in range(size)]


@st.composite
def circuits(
    draw,
    max_qubits: int = 5,
    max_ops: int = 10,
    allow_barrier: bool = True,
    qasm_only: bool = False,
    max_duration: int = 10,
):
    """Hypothesis strategy for well-formed circuits."""
    nq = draw(st.integers(1, max_qubits))
    nops = draw(st.integers(0, max_ops))
    ops = []
    for i in range(nops):
        pool = list(ONE_QUBIT_GATES)
        if nq >= 2:
            pool += ["cx", "cx"]
        if allow_barrier:
            pool.append("barrier")
        if not qasm_only:
            pool.append("frob")  # opaque gate outside the known set
        name = draw(st.sampled_from(pool))
        if name == "cx":
            qubits = tuple(draw(st.permutations(range(nq)))[:2])
        elif name in ("barrier", "frob"):
            count = draw(st.integers(1, nq))
            qubits = tuple(draw(st.permutations(range(nq)))[:count])
        else:
            qubits = (draw(st.integers(0, nq - 1)),)
        params = tuple(
            draw(st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False, allow_infinity=False))
            for _ in range(PARAM_COUNT.get(name, 0))
        )
        duration = 0 if name == "barrier" else draw(st.integers(0, max_duration))
        ops.append(Operation(i, name, qubits, params, duration))
    return Circuit(nq, tuple(ops))


def branching_circuits():
    """Hypothesis strategy for circuits on which the branch and bound
    searches: :func:`pool_circuit` of 15 to 30 ops on 3 to 6 qubits, from a
    drawn seed. The extended-DAG search branches on about a third of them;
    on ops drawn one at a time by hypothesis, it branched on as few as a
    tenth."""
    return st.builds(
        lambda seed, nq, nops: pool_circuit(random.Random(seed), nq, nops),
        st.integers(0, 2**32),
        st.integers(3, 6),
        st.integers(15, 30),
    )


# Few distinct ops on three qubits, so that a drawn circuit repeats the
# same op (cx(0, 1) above all) and mixes identical, commuting and blocking
# neighbours in one run.
_REPEATING_POOL = (
    ("cx", (0, 1), ()),
    ("cx", (0, 1), ()),
    ("cx", (1, 0), ()),
    ("cx", (0, 2), ()),
    ("cx", (2, 1), ()),
    ("u1", (0,), (0.5,)),
    ("u1", (0,), (0.25,)),
    ("u1", (1,), (0.5,)),
    ("x", (1,), ()),
    ("h", (0,), ()),
    ("barrier", (0, 1), ()),
    ("frob", (0, 1, 2), ()),
)


@st.composite
def repeating_circuits(draw, max_ops: int = 12, max_duration: int = 3):
    """Hypothesis strategy for 3-qubit circuits drawn from a small pool of
    fixed ops, with zero-duration ops and barriers."""
    picks = draw(st.lists(st.sampled_from(_REPEATING_POOL), max_size=max_ops))
    ops = []
    for i, (name, qubits, params) in enumerate(picks):
        duration = 0 if name == "barrier" else draw(st.integers(0, max_duration))
        ops.append(Operation(i, name, qubits, params, duration))
    return Circuit(3, tuple(ops))


# --- minimal CPLEX-LP reader ---------------------------------------------------

_SECTIONS = ("Minimize", "Subject To", "Bounds", "Binary", "End")
_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class LpModel:
    objective: str
    rows: list[tuple[str, str]]
    bounds: list[str]
    binaries: list[str]

    @property
    def variables(self) -> set[str]:
        found: set[str] = set(_VAR_RE.findall(self.objective))
        for _, body in self.rows:
            found.update(_VAR_RE.findall(body))
        return found


def read_lp(text: str) -> LpModel:
    """Parse the subset of the LP format the exporter emits: named rows,
    one bound per line, one binary per line."""
    objective = ""
    rows: list[tuple[str, str]] = []
    bounds: list[str] = []
    binaries: list[str] = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        if line in _SECTIONS:
            section = line
            continue
        if section == "Minimize":
            objective = line.split(":", 1)[1].strip() if ":" in line else line
        elif section == "Subject To":
            name, body = line.split(":", 1)
            rows.append((name.strip(), body.strip()))
        elif section == "Bounds":
            bounds.append(line)
        elif section == "Binary":
            binaries.append(line)
        else:
            raise ValueError(f"content outside any section: {line!r}")
    if section != "End":
        raise ValueError("missing End section")
    return LpModel(objective, rows, bounds, binaries)
