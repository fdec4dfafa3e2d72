"""Lowers a validated RuleSet onto a reversible circuit.

Truth encoding: bit 1 carries TRUE. A base fact with disbelief delta is
prepared by the single gate M(alpha/2) acting on |0>, which leaves
amplitude cos(theta) on bit 0 and sin(theta) on bit 1 (alpha/2 and theta
are complementary), so P(bit 1) = sin^2(theta) = P(true).

Connectives become reversible blocks writing onto fresh |0> ancillas:

    AND(a, b): CCN a b -> anc
    OR(a, b):  X a; X b; CCN a b -> anc; X anc; X a; X b   (De Morgan,
               inputs restored by the X sandwich)
    NOT(a):    CN a -> anc; X anc                          (copy then flip,
               source preserved)

Everything after the preparation layer therefore permutes basis states:
no interference occurs, and output marginals equal classical probability
propagation. Ancillas are never reclaimed; the target circuits are small
and clarity wins over qubit economy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gates import M, X
from .ruledsl import And, Expr, FactRef, Not, RuleSet, premise_nodes, topo_order
from .statevec import (MAX_QUBITS, Circuit, CircuitOp, init_zero,
                       marginal_prob_one, run, sample)
from .uncertainty import delta_to_alpha

TRUE_BIT = 1  # basis bit value that encodes a TRUE fact


class BudgetError(RuntimeError):
    """The program needs more qubits (or assignments) than supported."""


@dataclass(frozen=True)
class QubitPlan:
    """The qubit of each base fact and each concluded fact, of n_qubits in all.

    A rule whose premise is one fact concludes onto that fact's qubit.
    """

    fact_qubits: dict[str, int]
    conclusion_qubits: dict[str, int]
    n_qubits: int


@dataclass(frozen=True)
class CompiledProgram:
    circuit: Circuit
    plan: QubitPlan
    goal: str
    goal_qubit: int
    true_bit: int = TRUE_BIT

    @cached_property
    def p_goal(self) -> float:
        """Exact probability of reading 1 on the goal qubit.

        This is the program's one simulation: it runs on first access only.
        """
        state = run(self.circuit, init_zero(self.circuit.n_qubits))
        return marginal_prob_one(state, self.goal_qubit)


def _block_ops(block: str, inputs: tuple[int, ...], anc: int) -> list[CircuitOp]:
    """Gate sequence computing one connective of ``inputs`` onto ancilla ``anc``."""
    if block == "and":
        a, b = inputs
        if a == b:  # x AND x = x: plain copy
            return [CircuitOp(X, anc, controls=(a,))]
        return [CircuitOp(X, anc, controls=(a, b))]
    if block == "or":
        a, b = inputs
        if a == b:  # x OR x = x
            return [CircuitOp(X, anc, controls=(a,))]
        return [
            CircuitOp(X, a),
            CircuitOp(X, b),
            CircuitOp(X, anc, controls=(a, b)),
            CircuitOp(X, anc),
            CircuitOp(X, a),
            CircuitOp(X, b),
        ]
    if block == "not":
        (a,) = inputs
        return [CircuitOp(X, anc, controls=(a,)), CircuitOp(X, anc)]
    raise ValueError(f"unknown block {block!r}")


def compile_ruleset(rs: RuleSet) -> CompiledProgram:
    """Allocate qubits, prepare base facts, lower premises bottom-up."""
    order = topo_order(rs)
    # one qubit per base fact and one ancilla per Not/And/Or node, counted
    # before lowering, which recurses once per level of a premise
    n_qubits = len(rs.base_facts) + sum(
        not isinstance(node, FactRef)
        for rule in rs.rules
        for node in premise_nodes(rule.premise)
    )
    if n_qubits > MAX_QUBITS:
        raise BudgetError(
            f"program needs {n_qubits} qubits; "
            f"the dense simulator supports {MAX_QUBITS}"
        )

    ops: list[CircuitOp] = []
    fact_qubits: dict[str, int] = {}
    next_qubit = 0
    for name, delta in rs.base_facts.items():
        fact_qubits[name] = next_qubit
        ops.append(CircuitOp(M(delta_to_alpha(delta) / 2.0), next_qubit))
        next_qubit += 1

    conclusion_qubits: dict[str, int] = {}

    def fresh() -> int:
        nonlocal next_qubit
        q = next_qubit
        next_qubit += 1
        return q

    def lower(expr: Expr) -> int:
        if isinstance(expr, FactRef):
            if expr.name in fact_qubits:
                return fact_qubits[expr.name]
            return conclusion_qubits[expr.name]
        if isinstance(expr, Not):
            source = lower(expr.operand)
            anc = fresh()
            ops.extend(_block_ops("not", (source,), anc))
            return anc
        left = lower(expr.left)
        right = lower(expr.right)
        anc = fresh()
        block = "and" if isinstance(expr, And) else "or"
        ops.extend(_block_ops(block, (left, right), anc))
        return anc

    for rule in order:
        conclusion_qubits[rule.conclusion] = lower(rule.premise)

    goal_qubit = fact_qubits.get(rs.goal)
    if goal_qubit is None:
        goal_qubit = conclusion_qubits[rs.goal]
    circuit = Circuit(next_qubit, tuple(ops), measured_qubit=goal_qubit)
    plan = QubitPlan(fact_qubits, conclusion_qubits, next_qubit)
    return CompiledProgram(circuit, plan, rs.goal, goal_qubit)


def truth_table_check(block: str) -> dict[tuple[int, ...], int]:
    """Exhaustive basis-input truth table of one connective block.

    Inputs are prepared as basis states, the ancilla starts at |0>, and the
    resulting state must again be a basis state (the blocks are classical
    permutations); the returned map reads the ancilla bit off that state.
    """
    arity = 1 if block == "not" else 2
    out_qubit = arity
    table: dict[tuple[int, ...], int] = {}
    for combo in range(2**arity):
        bits = tuple((combo >> i) & 1 for i in range(arity))
        ops = [CircuitOp(X, q) for q in range(arity) if bits[q]]
        ops += _block_ops(block, tuple(range(arity)), out_qubit)
        circuit = Circuit(arity + 1, tuple(ops), measured_qubit=out_qubit)
        state = run(circuit, init_zero(arity + 1))
        winner = int(np.argmax(np.abs(state.amps)))
        if abs(abs(state.amps[winner]) - 1.0) > 1e-12:
            raise AssertionError(f"{block} block left a superposition")
        table[bits] = (winner >> out_qubit) & 1
    return table


class DemoRow(NamedTuple):
    input_bits: tuple[int, int]
    output_bit: int
    percentage: float


def rq_gate_demo(
    block: str,
    shots: int | None = None,
    seed: int = 0,
    deltas: tuple[float, float] = (50.0, 50.0),
) -> list[DemoRow]:
    """Drive one connective block with uncertain inputs and tally outcomes.

    Both inputs are prepared at the given disbelief values (50 gives the
    even superposition), the block writes its ancilla, and the full
    register is measured. With shots=None the percentages are the exact
    squared amplitudes; otherwise they come from seeded sampling. Rows are
    returned for all four input combinations in order 00, 01, 10, 11; the
    output bit per row is the block's deterministic truth value.
    """
    if block not in ("and", "or"):
        raise ValueError(f"demo supports 'and' and 'or', not {block!r}")
    ops = [
        CircuitOp(M(delta_to_alpha(float(d)) / 2.0), q)
        for q, d in enumerate(deltas)
    ]
    ops += _block_ops(block, (0, 1), 2)
    circuit = Circuit(3, tuple(ops), measured_qubit=2)
    state = run(circuit, init_zero(3))

    if shots is None:
        probs = np.abs(state.amps) ** 2
        percents = ((index, float(p) * 100.0) for index, p in enumerate(probs))
    else:
        counts = sample(state, shots, seed).counts
        percents = ((int(b, 2), 100.0 * c / shots) for b, c in counts.items())
    pct: dict[tuple[int, int], float] = {}
    for index, percent in percents:
        bits = (index & 1, (index >> 1) & 1)
        pct[bits] = pct.get(bits, 0.0) + percent

    table = truth_table_check(block)
    return [
        DemoRow((a, b), table[(a, b)], pct.get((a, b), 0.0))
        for a in (0, 1)
        for b in (0, 1)
    ]


# ---------------------------------------------------------------------------
# Circuit text format


def circuit_to_text(circuit: Circuit) -> str:
    """Line-oriented text form: qubit count, one op per line, measure line."""
    lines = [f"qubits {circuit.n_qubits}"]
    for op in circuit.ops:
        n_ctl = len(op.controls)
        if op.gate.name == "M" and n_ctl == 0:
            lines.append(f"M(theta={op.gate.theta:.6f}) q{op.target}")
        elif op.gate.name == "X" and n_ctl == 0:
            lines.append(f"X q{op.target}")
        elif op.gate.name == "X" and n_ctl == 1:
            lines.append(f"CN q{op.controls[0]} -> q{op.target}")
        elif op.gate.name == "X" and n_ctl == 2:
            lines.append(
                f"CCN q{op.controls[0]} q{op.controls[1]} -> q{op.target}"
            )
        else:
            raise ValueError(
                f"op {op.gate.name} with {n_ctl} controls has no text form"
            )
    lines.append(f"measure q{circuit.measured_qubit}")
    return "\n".join(lines) + "\n"


def export_circuit(cp: CompiledProgram) -> str:
    return circuit_to_text(cp.circuit)


_LINE_PATTERNS = (
    ("qubits", re.compile(r"^qubits\s+(\d+)$")),
    ("M", re.compile(r"^M\(theta=(-?\d+(?:\.\d+)?)\)\s+q(\d+)$")),
    ("X", re.compile(r"^X\s+q(\d+)$")),
    ("CN", re.compile(r"^CN\s+q(\d+)\s+->\s+q(\d+)$")),
    ("CCN", re.compile(r"^CCN\s+q(\d+)\s+q(\d+)\s+->\s+q(\d+)$")),
    ("measure", re.compile(r"^measure\s+q(\d+)$")),
)


def circuit_from_text(text: str) -> Circuit:
    """Parse the text format back into a Circuit; inverse of circuit_to_text."""
    n_qubits: int | None = None
    measured: int | None = None
    ops: list[CircuitOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for kind, pattern in _LINE_PATTERNS:
            match = pattern.match(line)
            if match:
                break
        else:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
        if kind == "qubits":
            if n_qubits is not None:
                raise ValueError(f"line {lineno}: duplicate qubits line")
            n_qubits = int(match.group(1))
        elif kind == "measure":
            if measured is not None:
                raise ValueError(f"line {lineno}: duplicate measure line")
            measured = int(match.group(1))
        elif kind == "M":
            ops.append(CircuitOp(M(float(match.group(1))), int(match.group(2))))
        elif kind == "X":
            ops.append(CircuitOp(X, int(match.group(1))))
        elif kind == "CN":
            ops.append(
                CircuitOp(X, int(match.group(2)), controls=(int(match.group(1)),))
            )
        else:  # CCN
            ops.append(
                CircuitOp(
                    X,
                    int(match.group(3)),
                    controls=(int(match.group(1)), int(match.group(2))),
                )
            )
    if n_qubits is None:
        raise ValueError("missing qubits line")
    if measured is None:
        raise ValueError("missing measure line")
    return Circuit(n_qubits, tuple(ops), measured_qubit=measured)
