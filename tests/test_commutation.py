from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qos
from helpers import PARAM_COUNT
from oracle import commutes_matrix_oracle
from qos.circuit import Operation
from qos.commutation import CommutationRule, CommutationRuleSet, commutes


def op(name, qubits, params=(), index=0):
    return Operation(index, name, tuple(qubits), tuple(params), 1 if name != "barrier" else 0)


DEFAULT = CommutationRuleSet.default()
STANDARD = CommutationRuleSet.standard()


class TestRuleTable:
    def test_x_on_cx_target(self):
        assert commutes(op("cx", [1, 2]), op("x", [2]), DEFAULT)

    def test_h_on_cx_control_does_not_commute(self):
        assert not commutes(op("h", [1]), op("cx", [1, 2]), DEFAULT)

    def test_disjoint_supports(self):
        assert commutes(op("cx", [0, 1]), op("cx", [2, 3]), STANDARD)

    def test_cx_shared_control(self):
        assert commutes(op("cx", [0, 1]), op("cx", [0, 2]), DEFAULT)

    def test_cx_shared_target(self):
        assert commutes(op("cx", [0, 2]), op("cx", [1, 2]), DEFAULT)

    def test_cx_control_of_one_is_target_of_other(self):
        assert not commutes(op("cx", [0, 1]), op("cx", [1, 0]), DEFAULT)

    def test_u1_on_cx_control(self):
        assert commutes(op("u1", [0], [0.3]), op("cx", [0, 1]), DEFAULT)

    def test_u1_on_cx_target_does_not_match(self):
        assert not commutes(op("u1", [1], [0.3]), op("cx", [0, 1]), DEFAULT)

    def test_identical_ops(self):
        a = op("u3", [0], [0.1, 0.2, 0.3])
        b = op("u3", [0], [0.1, 0.2, 0.3], index=1)
        assert commutes(a, b, DEFAULT)
        assert not commutes(a, op("u3", [0], [0.1, 0.2, 0.4], index=1), DEFAULT)

    def test_rules_can_be_disabled(self):
        only = CommutationRuleSet.from_names(["CX_SHARED_CONTROL"])
        assert not commutes(op("cx", [1, 2]), op("x", [2]), only)
        assert commutes(op("cx", [0, 1]), op("cx", [0, 2]), only)

    def test_barrier_never_commutes_when_sharing(self):
        assert not commutes(op("barrier", [0, 1]), op("x", [0]), DEFAULT)
        assert not commutes(op("barrier", [0]), op("barrier", [0], index=1), DEFAULT)
        assert commutes(op("barrier", [0, 1]), op("x", [2]), DEFAULT)

    def test_unknown_gates_match_no_rule(self):
        assert not commutes(op("frob", [0]), op("x", [0]), DEFAULT)


class TestRuleSet:
    def test_disjoint_always_enabled(self):
        assert CommutationRule.DISJOINT_QUBITS in CommutationRuleSet.from_names([])
        assert CommutationRule.DISJOINT_QUBITS in STANDARD

    def test_parse_keywords(self):
        assert CommutationRuleSet.parse("standard").rules == {CommutationRule.DISJOINT_QUBITS}
        assert CommutationRuleSet.parse("default").rules == set(CommutationRule)

    def test_parse_comma_list(self):
        rules = CommutationRuleSet.parse("cx_shared_control, x_on_cx_target")
        assert CommutationRule.CX_SHARED_CONTROL in rules
        assert CommutationRule.X_ON_CX_TARGET in rules
        assert CommutationRule.U1_ON_CX_CONTROL not in rules

    def test_unknown_rule_name(self):
        with pytest.raises(ValueError, match="unknown commutation rule"):
            CommutationRuleSet.parse("NOT_A_RULE")


class TestMatrixOracle:
    def test_cx_x_target(self):
        assert commutes_matrix_oracle(op("cx", [1, 2]), op("x", [2]))

    def test_h_cx_control(self):
        assert not commutes_matrix_oracle(op("h", [1]), op("cx", [1, 2]))

    def test_u1_cx_control(self):
        assert commutes_matrix_oracle(op("u1", [1], [0.7]), op("cx", [1, 2]))

    def test_u1_cx_target(self):
        assert not commutes_matrix_oracle(op("u1", [2], [0.7]), op("cx", [1, 2]))

    def test_diagonal_gates_commute_beyond_rules(self):
        # Sound under-approximation: the oracle may say yes where no rule fires.
        s, t = op("s", [0]), op("t", [0], index=1)
        assert commutes_matrix_oracle(s, t)
        assert not commutes(s, t, DEFAULT)

    def test_barrier_has_no_matrix(self):
        with pytest.raises(ValueError, match="no unitary"):
            commutes_matrix_oracle(op("barrier", [0]), op("x", [0]))

    def test_support_limit(self):
        with pytest.raises(ValueError, match="3-qubit limit"):
            commutes_matrix_oracle(op("cx", [0, 1]), op("cx", [2, 3]))

    def test_embedding_is_order_aware(self):
        # cx(0,1) and cx(1,0) differ; a wrong operand embedding would conflate them.
        assert not commutes_matrix_oracle(op("cx", [0, 1]), op("cx", [1, 0]))


def _random_op(rng: random.Random, index: int, num_qubits: int = 3) -> Operation:
    name = rng.choice(["h", "x", "z", "s", "t", "u1", "u2", "u3", "cx"])
    if name == "cx":
        a, b = rng.sample(range(num_qubits), 2)
        qubits: tuple[int, ...] = (a, b)
    else:
        qubits = (rng.randrange(num_qubits),)
    params = tuple(rng.uniform(0.0, 2 * math.pi) for _ in range(PARAM_COUNT.get(name, 0)))
    return Operation(index, name, qubits, params, 1)


def test_soundness_against_oracle():
    """Whenever the full rule set claims commutation, the commutator must
    vanish numerically; swept over random gates and parameters."""
    rng = random.Random(987)
    positives = 0
    for _ in range(2000):
        a, b = _random_op(rng, 0), _random_op(rng, 1)
        if commutes(a, b, DEFAULT):
            assert commutes_matrix_oracle(a, b), (a, b)
            positives += 1
    assert positives >= 100


_rule_subsets = st.frozensets(st.sampled_from(sorted(CommutationRule, key=lambda r: r.value)))


@settings(max_examples=120)
@given(seed=st.integers(0, 2**31), subset=_rule_subsets)
def test_symmetry(seed, subset):
    rng = random.Random(seed)
    a, b = _random_op(rng, 0), _random_op(rng, 1)
    rules = CommutationRuleSet(subset)
    assert commutes(a, b, rules) == commutes(b, a, rules)


def test_import_leaves_numpy_out():
    """numpy serves only the test oracle; the package must not load it."""
    env = dict(os.environ, PYTHONPATH=str(Path(qos.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, qos; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "False"


@settings(max_examples=200)
@given(
    st.sampled_from(["h", "x", "z", "u1", "u3", "cx", "barrier", "frob"]),
    st.sampled_from(["h", "x", "z", "u1", "u3", "cx", "barrier", "frob"]),
    st.randoms(use_true_random=False),
)
def test_one_shared_qubit_decided_by_name_and_role(name_a, name_b, rng):
    """Outside IDENTICAL_OPS, two ops sharing exactly one qubit commute as
    their names and operand positions on it decide; the extended-DAG
    builder learns commutation per such key pair."""
    rules = CommutationRuleSet(frozenset(CommutationRule) - {CommutationRule.IDENTICAL_OPS})
    width = {"cx": 2, "barrier": 2, "frob": 3}

    def placed(name, role, shared, spare):
        qubits = [spare.pop() for _ in range(width.get(name, 1))]
        qubits[role] = shared
        params = [rng.uniform(-3, 3) for _ in range(PARAM_COUNT.get(name, 0))]
        return op(name, qubits, params)

    for role_a in range(width.get(name_a, 1)):
        for role_b in range(width.get(name_b, 1)):
            answers = set()
            for _ in range(4):
                spare = rng.sample(range(1, 20), 6)
                shared = rng.choice([0, 20, 21])
                a, b = placed(name_a, role_a, shared, spare), placed(name_b, role_b, shared, spare)
                answers.add(commutes(a, b, rules))
            assert len(answers) == 1, (name_a, role_a, name_b, role_b)
