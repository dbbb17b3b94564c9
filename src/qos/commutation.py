"""Commutation analysis between circuit operations.

Whether two operations may be reordered is decided by a small rule table
that soundly under-approximates operator commutation: a rule firing means
the pair provably commutes, while "no rule" does not imply the opposite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .circuit import Operation


class CommutationRule(enum.Enum):
    """Identifiers for the supported pairwise commutation patterns."""

    DISJOINT_QUBITS = "DISJOINT_QUBITS"
    U1_ON_CX_CONTROL = "U1_ON_CX_CONTROL"
    CX_SHARED_CONTROL = "CX_SHARED_CONTROL"
    CX_SHARED_TARGET = "CX_SHARED_TARGET"
    X_ON_CX_TARGET = "X_ON_CX_TARGET"
    IDENTICAL_OPS = "IDENTICAL_OPS"


@dataclass(frozen=True)
class CommutationRuleSet:
    """An immutable set of enabled rules.

    DISJOINT_QUBITS is always a member: operations on disjoint qubit sets
    trivially commute, and that baseline defines the standard dependency
    graph.
    """

    rules: frozenset[CommutationRule] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rules", frozenset(self.rules) | {CommutationRule.DISJOINT_QUBITS}
        )

    def __contains__(self, rule: CommutationRule) -> bool:
        return rule in self.rules

    @classmethod
    def standard(cls) -> "CommutationRuleSet":
        """Only the trivial disjoint-qubits rule."""
        return cls(frozenset())

    @classmethod
    def default(cls) -> "CommutationRuleSet":
        """All supported rules."""
        return cls(frozenset(CommutationRule))

    @classmethod
    def from_names(cls, names) -> "CommutationRuleSet":
        rules = set()
        for name in names:
            try:
                rules.add(CommutationRule(str(name).strip().upper()))
            except ValueError:
                known = ", ".join(r.value for r in CommutationRule)
                raise ValueError(f"unknown commutation rule {name!r} (known: {known})") from None
        return cls(frozenset(rules))

    @classmethod
    def parse(cls, text: str) -> "CommutationRuleSet":
        """Parse a CLI-style spec: "standard", "default", or a comma list of
        rule names."""
        text = text.strip()
        if text.lower() == "standard":
            return cls.standard()
        if text.lower() == "default":
            return cls.default()
        return cls.from_names(n for n in text.split(",") if n.strip())


def commutes(a: Operation, b: Operation, rules: CommutationRuleSet) -> bool:
    """True iff some enabled rule proves that ``a`` and ``b`` commute.

    Symmetric in its first two arguments. Barriers are synchronization
    points and never commute with anything sharing a qubit. For two ops
    that share exactly one qubit, every rule but IDENTICAL_OPS looks only at
    each op's gate name and its operand position on that qubit;
    :func:`~qos.depgraph.build_extended_dag` relies on this.
    """
    if not set(a.qubits) & set(b.qubits):
        return True  # DISJOINT_QUBITS, always enabled
    if a.name == "barrier" or b.name == "barrier":
        return False
    if (
        CommutationRule.IDENTICAL_OPS in rules
        and a.name == b.name
        and a.qubits == b.qubits
        and a.params == b.params
    ):
        return True
    for x, y in ((a, b), (b, a)):
        if (
            CommutationRule.U1_ON_CX_CONTROL in rules
            and x.name == "u1"
            and y.name == "cx"
            and x.qubits[0] == y.qubits[0]
        ):
            return True
        if (
            CommutationRule.X_ON_CX_TARGET in rules
            and x.name == "x"
            and y.name == "cx"
            and x.qubits[0] == y.qubits[1]
        ):
            return True
    if a.name == "cx" and b.name == "cx":
        if CommutationRule.CX_SHARED_CONTROL in rules and a.qubits[0] == b.qubits[0]:
            return True
        if CommutationRule.CX_SHARED_TARGET in rules and a.qubits[1] == b.qubits[1]:
            return True
    return False
