"""Seeded input generators for the benchmark workloads.

Every workload is a list of circuit files (JSON or QASM) plus an optional
duration-table file, all produced as text from ``(workload name, seed)``
alone: the same pair always yields byte-identical files. ``qos`` sees only
these files. Sizes are fixed per workload. In ``heft-10k`` the seed draws
fresh random circuits and in ``commute-dense`` it draws angles, qubit
labels and the duration table. In ``bnb-search`` it only relabels qubits
and redraws angles of fixed base circuits: branch-and-bound effort differs
by orders of magnitude between random draws, so fresh draws would spread
every timing far past its bound (NOTES.md has the numbers).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Gate pool of the repository's test corpus generator (tests/helpers.py),
# copied so that the benchmark does not import hypothesis.
_CORPUS_POOL = ("h", "x", "x", "z", "s", "t", "u1", "u1", "u2", "u3") + ("cx",) * 6
_PARAM_COUNT = {"u1": 1, "u2": 2, "u3": 3}

HEFT_10K_CIRCUITS = 2
HEFT_10K_OPS = 10_000
HEFT_10K_QUBITS = 16

BNB_RANDOM_CIRCUITS = 30
BNB_RANDOM_QUBITS = 6
BNB_RANDOM_OPS = 30
BNB_FAN_SIZES = (5, 10, 20)
BNB_LARGE_CIRCUITS = 2
BNB_LARGE_QUBITS = 16
BNB_LARGE_OPS = 100
#: Per-circuit solver budget in seconds; part of the workload definition.
BNB_TIME_LIMIT = 1.25

DENSE_FAN_SIZES = (100, 200, 300, 400)
DENSE_QFT_QUBITS = (16, 32, 48)


@dataclass(frozen=True)
class Workload:
    """Generated inputs: ``files`` holds (file name, text) pairs in run
    order; ``durations`` is the duration-table JSON text, or None when the
    circuits carry inline durations."""

    name: str
    method: str
    time_limit: float | None
    files: tuple[tuple[str, str], ...]
    durations: str | None

    def write(self, directory: Path) -> tuple[list[str], str | None]:
        """Write the files into ``directory``; return the circuit paths in
        run order and the duration-table path (or None)."""
        paths = []
        for file_name, text in self.files:
            path = directory / file_name
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        table = None
        if self.durations is not None:
            table = str(directory / "durations.json")
            Path(table).write_text(self.durations, encoding="utf-8")
        return paths, table


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across
    # interpreter runs and independent between parts of a workload.
    return random.Random(f"{workload}/{seed}/{part}")


def _random_ops(rng: random.Random, num_qubits: int, num_ops: int) -> list[dict]:
    """Random ops from the corpus pool with inline durations 1..10, drawn
    in the same order as the test corpus generator."""
    ops = []
    for _ in range(num_ops):
        name = rng.choice(_CORPUS_POOL)
        if name == "cx":
            qubits = rng.sample(range(num_qubits), 2)
        else:
            qubits = [rng.randrange(num_qubits)]
        params = [rng.uniform(0.0, 2 * math.pi) for _ in range(_PARAM_COUNT.get(name, 0))]
        op: dict = {"name": name, "qubits": qubits}
        if params:
            op["params"] = params
        op["duration"] = rng.randint(1, 10)
        ops.append(op)
    return ops


def _relabeled(rng: random.Random, num_qubits: int, base: list[dict]) -> list[dict]:
    """``base`` under a random qubit permutation, with fresh angles. The
    scheduling instance is isomorphic: op order, gate names and durations
    are unchanged, so every makespan is too."""
    perm = list(range(num_qubits))
    rng.shuffle(perm)
    ops = []
    for op in base:
        new = {"name": op["name"], "qubits": [perm[q] for q in op["qubits"]]}
        if "params" in op:
            new["params"] = [rng.uniform(0.0, 2 * math.pi) for _ in op["params"]]
        new["duration"] = op["duration"]
        ops.append(new)
    return ops


def _fan_ops(rng: random.Random, k: int) -> tuple[int, list[tuple[str, list[int]]]]:
    """Fan-out/fan-in: an h on the hub, k cx sharing the hub as control,
    then k cx sharing it as target. Each run of k cx is mutually commuting,
    so GROUPED mode emits k(k-1) pairs. Qubit labels are a seeded
    permutation."""
    labels = list(range(k + 1))
    rng.shuffle(labels)
    hub, spokes = labels[0], labels[1:]
    ops = [("h", [hub])]
    ops += [("cx", [hub, t]) for t in spokes]
    rng.shuffle(spokes)
    ops += [("cx", [c, hub]) for c in spokes]
    return k + 1, ops


def _json_text(num_qubits: int, ops: list[dict]) -> str:
    return json.dumps({"num_qubits": num_qubits, "ops": ops}) + "\n"


def _angle(rng: random.Random) -> str:
    """A QASM angle expression in one of the forms the parser accepts."""
    form = rng.randrange(4)
    power = 2 ** rng.randint(1, 10)
    if form == 0:
        return f"pi/{power}"
    if form == 1:
        return f"-pi/{power}"
    if form == 2:
        return f"{rng.randint(1, 7)}*pi/{power}"
    return repr(round(rng.uniform(-math.pi, math.pi), 6))


def _qasm_text(num_qubits: int, lines: list[str]) -> str:
    head = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];"]
    return "\n".join(head + lines) + "\n"


def _qft_like_lines(rng: random.Random, n: int) -> list[str]:
    """QFT-like layers in h/u1/cx: per qubit c, an h and a u1, then for each
    later qubit t a controlled-phase built from two cx sharing control c.
    The u1 and all cx on c commute, giving a run of 2(n-c-1)+1 ops."""
    lines = []
    for c in range(n):
        lines.append(f"h q[{c}];")
        lines.append(f"u1({_angle(rng)}) q[{c}];")
        for t in range(c + 1, n):
            lines.append(f"cx q[{c}],q[{t}];")
            lines.append(f"u1({_angle(rng)}) q[{t}];")
            lines.append(f"cx q[{c}],q[{t}];")
            lines.append(f"u1({_angle(rng)}) q[{t}];")
    return lines


def _heft_10k(seed: int) -> Workload:
    files = []
    for i in range(HEFT_10K_CIRCUITS):
        ops = _random_ops(_rng("heft-10k", seed, f"r{i}"), HEFT_10K_QUBITS, HEFT_10K_OPS)
        files.append((f"rand{i}.json", _json_text(HEFT_10K_QUBITS, ops)))
    return Workload("heft-10k", "heft", None, tuple(files), None)


def _bnb_search(seed: int) -> Workload:
    files = []
    for i in range(BNB_RANDOM_CIRCUITS):
        base = _random_ops(_rng("bnb-search", 0, f"r{i}"), BNB_RANDOM_QUBITS, BNB_RANDOM_OPS)
        ops = _relabeled(_rng("bnb-search", seed, f"r{i}"), BNB_RANDOM_QUBITS, base)
        files.append((f"rand{i:02d}.json", _json_text(BNB_RANDOM_QUBITS, ops)))
    for k in BNB_FAN_SIZES:
        nq, gates = _fan_ops(_rng("bnb-search", seed, f"fan{k}"), k)
        ops = [{"name": g, "qubits": q, "duration": 1 if g == "h" else 2} for g, q in gates]
        files.append((f"fan{k}.json", _json_text(nq, ops)))
    for i in range(BNB_LARGE_CIRCUITS):
        base = _random_ops(_rng("bnb-search", 0, f"big{i}"), BNB_LARGE_QUBITS, BNB_LARGE_OPS)
        ops = _relabeled(_rng("bnb-search", seed, f"big{i}"), BNB_LARGE_QUBITS, base)
        files.append((f"big{i}.json", _json_text(BNB_LARGE_QUBITS, ops)))
    return Workload("bnb-search", "bnb", BNB_TIME_LIMIT, tuple(files), None)


def _commute_dense(seed: int) -> Workload:
    files = []
    pairs: set[tuple[int, int]] = set()
    for k in DENSE_FAN_SIZES:
        nq, gates = _fan_ops(_rng("commute-dense", seed, f"fan{k}"), k)
        lines = [f"{g} " + ",".join(f"q[{q}]" for q in qs) + ";" for g, qs in gates]
        pairs.update(tuple(qs) for g, qs in gates if g == "cx")
        files.append((f"fan{k}.qasm", _qasm_text(nq, lines)))
    for n in DENSE_QFT_QUBITS:
        lines = _qft_like_lines(_rng("commute-dense", seed, f"qft{n}"), n)
        pairs.update((c, t) for c in range(n) for t in range(c + 1, n))
        files.append((f"qft{n}.qasm", _qasm_text(n, lines)))
    # Device-style table: per-pair cx lengths, per-name defaults for the rest.
    rng = _rng("commute-dense", seed, "durations")
    exact = [
        {"name": "cx", "qubits": list(p), "duration": rng.randint(2, 6)} for p in sorted(pairs)
    ]
    defaults = {"h": rng.randint(1, 2), "u1": 1, "cx": 4}
    table = json.dumps({"exact": exact, "defaults": defaults}) + "\n"
    return Workload("commute-dense", "heft", None, tuple(files), table)


GENERATORS = {
    "heft-10k": _heft_10k,
    "bnb-search": _bnb_search,
    "commute-dense": _commute_dense,
}


def generate(name: str, seed: int) -> Workload:
    """Build the named workload's inputs from ``seed``."""
    return GENERATORS[name](seed)
