"""Quantum circuit intermediate representation and file formats.

The scheduler works on a flat sequence of operations. Each operation carries
a gate name, ordered qubit operands (for "cx" the first operand is the
control, the second the target), optional angle parameters in radians, and
an integer duration in device time units (dt).

Circuits can be read from a small JSON format or from a restricted OpenQASM
2.0 subset, and written back to either. Gate durations are resolved against
a :class:`DurationTable` with per-qubit-tuple overrides, per-name defaults,
and an optional global fallback.
"""

from __future__ import annotations

import ast
import json
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


class CircuitError(ValueError):
    """Malformed circuit data: parse failures, invariant violations, or
    unresolvable durations."""


#: Operand count for gates with a fixed arity. Names outside this table are
#: accepted as opaque scheduled operations (any operand count, no params).
GATE_QUBITS: dict[str, int] = {
    "h": 1,
    "x": 1,
    "z": 1,
    "s": 1,
    "t": 1,
    "u1": 1,
    "u2": 1,
    "u3": 1,
    "cx": 2,
}

#: Parameter count per gate name; everything else takes no parameters.
GATE_PARAMS: dict[str, int] = {"u1": 1, "u2": 2, "u3": 3}

#: Statements accepted by the QASM subset parser.
QASM_GATES = frozenset(GATE_QUBITS) | {"barrier"}


def _as_duration(value: object, where: str) -> int:
    """Coerce a JSON number to an integer dt count; fractional values are an
    error, never rounded."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CircuitError(f"{where}: duration must be a number, got {type(value).__name__}")
    if isinstance(value, float):
        if not value.is_integer():
            raise CircuitError(f"{where}: fractional duration {value!r} (durations are integer dt)")
        value = int(value)
    if value < 0:
        raise CircuitError(f"{where}: negative duration {value}")
    return value


#: Operand and parameter counts of the one- and two-operand gates: Operation's fast test.
_SHAPES = {g: (n, GATE_PARAMS.get(g, 0)) for g, n in GATE_QUBITS.items() if n <= 2}


@dataclass(frozen=True)
class Operation:
    """One gate instance in a circuit.

    ``index`` is the position in the source sequence, ``qubits`` the ordered
    operands, ``params`` angles in radians, ``duration`` the processing time
    in dt.

    Construction raises :class:`CircuitError` naming the first of these
    checks that fails: a non-negative index; a non-empty name; at least one
    qubit operand, each a non-negative integer (not a bool) and none
    repeated; for a gate in :data:`GATE_QUBITS`, its operand count; for
    those gates and "barrier", their parameter count; finite angles; a
    non-negative integer duration, and zero for "barrier".
    """

    index: int
    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    duration: int = 0

    def __post_init__(self) -> None:
        qubits, params, duration = self.qubits, self.params, self.duration
        # One test passes the common valid op; any other op, valid or not,
        # goes through the checks in their documented order.
        if (
            self.index >= 0
            and _SHAPES.get(self.name) == (len(qubits), len(params))
            # With one or two operands, the first and the last are all of them.
            and type(qubits[0]) is type(qubits[-1]) is int
            and qubits[0] >= 0 and qubits[-1] >= 0
            and (len(qubits) == 1 or qubits[0] != qubits[1])
            and type(duration) is int and duration >= 0
            and (not params or all(map(math.isfinite, params)))
        ):
            return
        where = f"op {self.index} ({self.name})"
        if self.index < 0:
            raise CircuitError(f"{where}: negative index")
        if not self.name:
            raise CircuitError(f"op {self.index}: empty gate name")
        if not qubits:
            raise CircuitError(f"{where}: no qubit operands")
        if any(isinstance(q, bool) or not isinstance(q, int) or q < 0 for q in qubits):
            raise CircuitError(f"{where}: qubit operands must be non-negative integers")
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"{where}: duplicate qubit operand")
        arity = GATE_QUBITS.get(self.name)
        if arity is not None and len(qubits) != arity:
            raise CircuitError(f"{where}: expects {arity} qubit(s), got {len(qubits)}")
        if self.name in GATE_QUBITS or self.name == "barrier":
            nparams = GATE_PARAMS.get(self.name, 0)
            if len(params) != nparams:
                raise CircuitError(f"{where}: expects {nparams} parameter(s), got {len(params)}")
        for p in params:
            if not math.isfinite(p):
                raise CircuitError(f"{where}: angle {p!r} is not finite")
        if isinstance(duration, bool) or not isinstance(duration, int):
            raise CircuitError(f"{where}: duration must be an integer dt count")
        if duration < 0:
            raise CircuitError(f"{where}: negative duration")
        if self.name == "barrier" and duration != 0:
            raise CircuitError(f"{where}: barriers are zero-duration")


@dataclass(frozen=True)
class Circuit:
    """An ordered sequence of operations over ``num_qubits`` qubits."""

    num_qubits: int
    ops: tuple[Operation, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.num_qubits, bool) or not isinstance(self.num_qubits, int):
            raise CircuitError("num_qubits must be an integer")
        if self.num_qubits < 1:
            raise CircuitError(f"num_qubits must be positive, got {self.num_qubits}")
        object.__setattr__(self, "ops", tuple(self.ops))
        for pos, op in enumerate(self.ops):
            if op.index != pos:
                raise CircuitError(f"op at position {pos} carries index {op.index}")
            for q in op.qubits:
                if q >= self.num_qubits:
                    raise CircuitError(
                        f"op {pos} ({op.name}): qubit {q} out of range for {self.num_qubits} qubits"
                    )

    @classmethod
    def build(
        cls,
        num_qubits: int,
        gates: Iterable[Sequence],
        *,
        default_duration: int = 0,
    ) -> "Circuit":
        """Construct a circuit from ``(name, qubits[, params[, duration]])``
        tuples, assigning sequential indices."""
        ops = []
        for i, spec in enumerate(gates):
            name, qubits, *rest = spec
            params = tuple(float(p) for p in rest[0]) if rest else ()
            duration = rest[1] if len(rest) > 1 else default_duration
            if str(name).lower() == "barrier" and len(rest) < 2:
                duration = 0
            ops.append(
                Operation(
                    index=i,
                    name=str(name).lower(),
                    qubits=tuple(qubits),
                    params=params,
                    duration=_as_duration(duration, f"op {i}"),
                )
            )
        return cls(num_qubits, tuple(ops))


@dataclass(frozen=True)
class DurationTable:
    """Gate duration lookup in dt.

    Resolution order: an exact ``(name, qubit tuple)`` entry, then a
    per-name default, then the global default. Qubit tuples are
    order-sensitive, so directional gates like "cx" can carry different
    lengths per (control, target) pair. "barrier" always resolves to 0.
    """

    exact: Mapping[tuple[str, tuple[int, ...]], int] = field(default_factory=dict)
    defaults: Mapping[str, int] = field(default_factory=dict)
    global_default: int | None = None

    def __post_init__(self) -> None:
        for (name, qubits), d in self.exact.items():
            _as_duration(d, f"duration table entry {name}{qubits}")
        for name, d in self.defaults.items():
            _as_duration(d, f"duration table default for {name}")
        if self.global_default is not None:
            _as_duration(self.global_default, "duration table global default")

    def lookup(self, name: str, qubits: Sequence[int]) -> int | None:
        """Resolve a duration, or None when nothing matches."""
        if name == "barrier":
            return 0
        hit = self.exact.get((name, tuple(qubits)))
        if hit is not None:
            return hit
        hit = self.defaults.get(name)
        if hit is not None:
            return hit
        return self.global_default

    @classmethod
    def from_json(cls, text: str) -> "DurationTable":
        """Read a table from its JSON form: ``{"exact": [{"name", "qubits",
        "duration"}], "defaults": {name: duration}, "global_default": n}``."""
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the stack
            raise CircuitError(f"invalid duration table JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise CircuitError("duration table must be a JSON object")
        entries, names = doc.get("exact", []), doc.get("defaults", {})
        if not isinstance(entries, list):
            raise CircuitError("duration table 'exact' must be an array")
        if not isinstance(names, dict):
            raise CircuitError("duration table 'defaults' must be an object")
        exact: dict[tuple[str, tuple[int, ...]], int] = {}
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or not {"name", "qubits", "duration"} <= entry.keys():
                raise CircuitError(f"exact entry {i}: needs name, qubits, duration")
            qubits = entry["qubits"]
            if not isinstance(qubits, list) or any(
                isinstance(q, bool) or not isinstance(q, int) for q in qubits
            ):
                raise CircuitError(f"exact entry {i}: qubits must be an array of integers")
            exact[(str(entry["name"]).lower(), tuple(qubits))] = _as_duration(
                entry["duration"], f"exact entry {i}"
            )
        defaults = {
            str(name).lower(): _as_duration(d, f"default for {name}")
            for name, d in names.items()
        }
        global_default = doc.get("global_default")
        if global_default is not None:
            global_default = _as_duration(global_default, "global_default")
        return cls(exact=exact, defaults=defaults, global_default=global_default)


def apply_durations(circuit: Circuit, table: DurationTable) -> Circuit:
    """Return a copy of ``circuit`` with every operation's duration resolved
    through ``table``; the input circuit is untouched."""
    ops = []
    for op in circuit.ops:
        duration = table.lookup(op.name, op.qubits)
        if duration is None:
            operands = ",".join(map(str, op.qubits))
            raise CircuitError(f"op {op.index}: no duration for {op.name}({operands})")
        ops.append(Operation(op.index, op.name, op.qubits, op.params, duration))
    return Circuit(circuit.num_qubits, tuple(ops))


# --- JSON circuit format -----------------------------------------------------

def parse_json_circuit(text: str) -> Circuit:
    """Parse the JSON circuit format.

    Top-level object with "num_qubits" and "ops", each op an object with
    "name", "qubits", optional "params", optional integer "duration".
    Missing durations default to 0 pending :func:`apply_durations`.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the stack
        raise CircuitError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitError("circuit document must be a JSON object")
    num_qubits = doc.get("num_qubits")
    if isinstance(num_qubits, bool) or not isinstance(num_qubits, int):
        raise CircuitError("num_qubits must be an integer")
    entries = doc.get("ops", [])
    if not isinstance(entries, list):
        raise CircuitError("ops must be an array")
    ops = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CircuitError(f"op {i}: must be an object")
        name = entry.get("name")
        if not isinstance(name, str):
            raise CircuitError(f"op {i}: missing gate name")
        qubits = entry.get("qubits")
        if not isinstance(qubits, list):  # Operation checks each operand
            raise CircuitError(f"op {i} ({name}): qubits must be an array of integers")
        params = entry.get("params", [])
        if type(params) is not list or (params and not all(type(p) is float for p in params)):
            if not isinstance(params, list) or any(
                isinstance(p, bool) or not isinstance(p, (int, float)) for p in params
            ):
                raise CircuitError(f"op {i} ({name}): params must be an array of numbers")
            try:
                params = [float(p) for p in params]
            except OverflowError as exc:
                raise CircuitError(f"op {i} ({name}): angle is not finite: {exc}") from exc
        duration = entry.get("duration", 0)
        if type(duration) is not int or duration < 0:
            duration = _as_duration(duration, f"op {i} ({name})")
        ops.append(Operation(i, name.lower(), tuple(qubits), tuple(params), duration))
    return Circuit(num_qubits, tuple(ops))


def circuit_to_json(circuit: Circuit, *, indent: int | None = 2) -> str:
    """Serialize to the JSON circuit format; parsing the result yields an
    identical circuit."""
    entries = []
    for op in circuit.ops:
        entry: dict = {"name": op.name, "qubits": list(op.qubits)}
        if op.params:
            entry["params"] = list(op.params)
        if op.duration:
            entry["duration"] = op.duration
        entries.append(entry)
    doc = {"num_qubits": circuit.num_qubits, "ops": entries}
    return json.dumps(doc, indent=indent) + "\n"


# --- OpenQASM 2.0 subset ------------------------------------------------------

_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]+)\s*\]$")
_GATE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(.*)$", re.DOTALL)
_OPERAND_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[\s*([0-9]+)\s*\])?$")

_UNSUPPORTED_KEYWORDS = frozenset({"creg", "measure", "reset", "if", "gate", "opaque"})


def _qasm_int(digits: str, line: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise CircuitError(f"line {line}: integer of {len(digits)} digits is too long") from None


def _statements(text: str) -> list[tuple[int, str]]:
    """Split source text into ';'-terminated statements with the line number
    of each statement's first non-blank character. '//' comments are
    stripped; a statement spanning lines has its line breaks read as
    spaces."""
    out: list[tuple[int, str]] = []
    parts: list[str] = []  # the open statement, one part per line
    start = 0  # the line of its first non-blank character; 0 before that
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for k, part in enumerate(raw.split("//", 1)[0].split(";")):
            if k:  # a ';' ends the open statement
                stmt = " ".join(parts).strip()
                if stmt:
                    out.append((start, stmt))
                parts, start = [], 0
            if not start and part.strip():
                start = lineno
            parts.append(part)
    tail = " ".join(parts).strip()
    if tail:
        raise CircuitError(f"line {start}: statement not terminated with ';': {tail!r}")
    return out


#: The binary operators and unary functions of OpenQASM 2.0 angle
#: expressions; '^' is not among them.
_ANGLE_OPERATORS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv
}
_ANGLE_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp, "ln": math.log, "sqrt": math.sqrt
}


def _eval_angle(expr: str, line: int) -> float:
    """Evaluate a parameter expression: numeric literals, 'pi', unary +/-,
    :data:`_ANGLE_OPERATORS`, and :data:`_ANGLE_FUNCTIONS` applied to one
    argument. A domain or range error is a :class:`CircuitError`."""

    def walk(node: ast.expr) -> float:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            if isinstance(node.value, bool):
                raise ValueError("boolean literal")
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            value = walk(node.operand)
            return value if isinstance(node.op, ast.UAdd) else -value
        if isinstance(node, ast.BinOp) and type(node.op) in _ANGLE_OPERATORS:
            return _ANGLE_OPERATORS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords:
            function = _ANGLE_FUNCTIONS.get(getattr(node.func, "id", None))
            if function:
                return function(walk(node.args[0]))
        raise ValueError(f"unsupported construct {type(node).__name__}")

    try:
        return walk(ast.parse(expr.strip(), mode="eval").body)
    except (SyntaxError, ValueError, ArithmeticError, RecursionError) as exc:
        raise CircuitError(f"line {line}: bad parameter expression {expr.strip()!r}: {exc}") from exc


def _split_params(rest: str, line: int) -> tuple[str | None, str]:
    """Split what follows a gate name into the text inside its parameter
    parentheses (None when it has none) and the operand text after them.
    The closing parenthesis is found by depth, so angles may nest them."""
    if not rest.startswith("("):
        return None, rest
    depth = 0
    for pos, ch in enumerate(rest):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if not depth:
                return rest[1:pos], rest[pos + 1:]
    raise CircuitError(f"line {line}: unbalanced parentheses in {rest!r}")


def parse_qasm_subset(text: str) -> Circuit:
    """Parse the supported OpenQASM 2.0 subset.

    Accepted statements: an optional "OPENQASM 2.0" version line, include
    lines (ignored), exactly one qreg declaration, and gate statements among
    h, x, z, s, t, u1, u2, u3, cx, and barrier. "//" starts a line comment.
    Classical registers, measurement, reset, conditionals, and gate
    definitions are rejected with the offending line number.
    """
    reg_name: str | None = None
    reg_size = 0
    ops: list[Operation] = []
    angles: dict[str, float] = {}  # each distinct angle text is evaluated once
    indices: dict[str, int] = {}  # and each distinct indexed operand text matched once
    for line, stmt in _statements(text):
        gate = _GATE_RE.match(stmt)
        name = gate.group(1).lower() if gate else ""
        if name not in QASM_GATES:
            head = stmt.split(None, 1)[0]
            if head == "OPENQASM" or head.startswith("include"):
                continue
            if head in _UNSUPPORTED_KEYWORDS:
                raise CircuitError(f"line {line}: unsupported statement {head!r}")
            qreg = _QREG_RE.match(stmt)
            if qreg:
                if reg_name is not None:
                    raise CircuitError(f"line {line}: multiple qreg declarations")
                reg_name, reg_size = qreg.group(1), _qasm_int(qreg.group(2), line)
                if reg_size < 1:
                    raise CircuitError(f"line {line}: qreg size must be positive")
                continue
            if not gate:
                raise CircuitError(f"line {line}: cannot parse statement {stmt!r}")
            if gate.group(1) == "qreg":
                raise CircuitError(
                    f"line {line}: malformed qreg declaration {stmt!r}; expected qreg name[size], "
                    "the size in digits 0-9"
                )
            raise CircuitError(f"line {line}: unsupported gate {name!r}")
        if reg_name is None:
            raise CircuitError(f"line {line}: gate statement before qreg declaration")
        params_text, operands_text = _split_params(gate.group(2), line)
        params: list[float] = []
        if params_text is not None:
            for p in params_text.split(","):
                if p.strip():
                    if p not in angles:
                        angles[p] = _eval_angle(p, line)
                    params.append(angles[p])
        operands_text = operands_text.strip()
        if not operands_text:
            raise CircuitError(f"line {line}: {name} needs qubit operands")
        qubits: list[int] = []
        for item in operands_text.split(","):
            if item in indices:
                qubits.append(indices[item])
                continue
            m = _OPERAND_RE.match(item.strip())
            if not m:
                raise CircuitError(f"line {line}: cannot parse operand {item.strip()!r}")
            if m.group(1) != reg_name:
                raise CircuitError(f"line {line}: undeclared register {m.group(1)!r}")
            if m.group(2) is None:
                if name != "barrier":
                    raise CircuitError(
                        f"line {line}: operand must be indexed like {reg_name}[0]"
                    )
                qubits.extend(range(reg_size))
            else:
                idx = _qasm_int(m.group(2), line)
                if idx >= reg_size:
                    raise CircuitError(
                        f"line {line}: qubit {idx} out of range for {reg_name}[{reg_size}]"
                    )
                qubits.append(idx)
                indices[item] = idx
        try:
            ops.append(Operation(len(ops), name, tuple(qubits), tuple(params)))
        except CircuitError as exc:
            raise CircuitError(f"line {line}: {exc}") from exc
    if reg_name is None:
        raise CircuitError("no qreg declaration found")
    return Circuit(reg_size, tuple(ops))


def circuit_to_qasm(circuit: Circuit) -> str:
    """Serialize to the QASM subset. Durations are not representable in QASM
    and are dropped; gates outside the subset are an error."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    for op in circuit.ops:
        if op.name not in QASM_GATES:
            raise CircuitError(f"op {op.index}: gate {op.name!r} is outside the QASM subset")
        params = f"({','.join(repr(p) for p in op.params)})" if op.params else ""
        operands = ",".join(f"q[{q}]" for q in op.qubits)
        lines.append(f"{op.name}{params} {operands};")
    return "\n".join(lines) + "\n"
