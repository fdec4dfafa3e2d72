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
from typing import NamedTuple, Sequence

from .gates import M, X
from .ruledsl import And, FactRef, Not, RuleSet, premise_nodes, topo_order
from .statevec import (
    MAX_QUBITS,
    BudgetError,
    Circuit,
    CircuitOp,
    _draw_counts,
    circuit_planes,
    plane_marginals,
    world_weights,
)
from .uncertainty import delta_to_alpha

TRUE_BIT = 1  # basis bit value that encodes a TRUE fact


@dataclass(frozen=True)
class QubitPlan:
    """The qubit of each base fact and each concluded fact, of n_qubits in all.

    A rule whose premise is one fact concludes onto that fact's qubit.
    """

    fact_qubits: dict[str, int]
    conclusion_qubits: dict[str, int]
    n_qubits: int


def fact_theta(delta: float) -> float:
    """Angle of the M gate that prepares a base fact at disbelief ``delta``."""
    return delta_to_alpha(delta) / 2.0


@dataclass(frozen=True)
class CompiledProgram:
    """A compiled rule network: its circuit, qubit plan and goal qubit.

    Its exact goal marginals come from one simulation, ``circuit_planes``,
    run on first use: the rules fix the goal qubit's plane, and any row of
    disbeliefs only reweights the worlds (``statevec.plane_marginals``).
    ``goal_marginals`` is the one exact path; ``goal_marginal`` and
    ``p_goal`` are its one-row cases.
    """

    circuit: Circuit
    plan: QubitPlan
    goal: str
    goal_qubit: int

    @cached_property
    def _goal_plane(self) -> int:
        """The goal qubit's plane, from the program's one simulation."""
        return circuit_planes(self.circuit)[self.goal_qubit]

    @cached_property
    def p_goal(self) -> float:
        """Exact probability of reading 1 on the goal qubit.

        The one-row case of ``goal_marginals``, at the disbeliefs the
        program was compiled with, which are the M layer's angles.
        """
        m_layer = self.circuit.ops[: len(self.plan.fact_qubits)]
        thetas = [[op.gate.theta for op in m_layer]]
        return float(plane_marginals(self._goal_plane, thetas)[0])

    def goal_marginals(self, rows: Sequence[Sequence[float]]) -> list[float]:
        """Exact goal probability for each row of base-fact disbeliefs.

        A row holds one disbelief per base fact, in declaration order, and
        each gives its M gate the angle ``fact_theta`` of it, worked out
        once per distinct disbelief. The rows are weighted in one call on
        the goal's plane. A row's value does not depend on the other rows,
        and at the compiled disbeliefs it equals ``p_goal`` bit for bit.
        """
        n_facts = len(self.plan.fact_qubits)
        for row in rows:
            if len(row) != n_facts:
                raise ValueError(
                    f"expected {n_facts} disbeliefs, one per base fact, got {len(row)}"
                )
        if not rows:
            return []
        theta = {d: fact_theta(d) for d in {d for row in rows for d in row}}
        angles = [[theta[d] for d in row] for row in rows]
        return plane_marginals(self._goal_plane, angles).tolist()

    def goal_marginal(self, deltas: Sequence[float]) -> float:
        """``goal_marginals`` of the one row ``deltas``."""
        return self.goal_marginals([deltas])[0]


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
    """Allocate qubits, prepare base facts, lower premises bottom-up.

    Each premise is lowered in ``premise_nodes`` order: a connective's block
    follows its operands' and writes the next fresh ancilla.
    """
    order = topo_order(rs)
    premises = [premise_nodes(rule.premise) for rule in order]
    # one qubit per base fact and one ancilla per Not/And/Or node, counted
    # before any gate is built
    n_qubits = len(rs.base_facts) + sum(
        not isinstance(node, FactRef) for nodes in premises for node in nodes
    )
    if n_qubits > MAX_QUBITS:
        raise BudgetError(
            f"program needs {n_qubits} qubits; "
            f"compiled programs may use at most {MAX_QUBITS}"
        )

    ops = [CircuitOp(M(fact_theta(delta)), q)
           for q, delta in enumerate(rs.base_facts.values())]
    fact_qubits = {name: q for q, name in enumerate(rs.base_facts)}
    qubit_of = dict(fact_qubits)  # and each conclusion once lowered
    conclusion_qubits: dict[str, int] = {}
    next_qubit = len(fact_qubits)
    for rule, nodes in zip(order, premises):
        operands: list[int] = []  # qubits of the operands not yet used
        for node in nodes:
            if isinstance(node, FactRef):
                operands.append(qubit_of[node.name])
                continue
            if isinstance(node, Not):
                block, inputs = "not", (operands.pop(),)
            else:
                right = operands.pop()
                block = "and" if isinstance(node, And) else "or"
                inputs = (operands.pop(), right)
            ops += _block_ops(block, inputs, next_qubit)
            operands.append(next_qubit)
            next_qubit += 1
        qubit_of[rule.conclusion] = conclusion_qubits[rule.conclusion] = operands.pop()

    goal_qubit = qubit_of[rs.goal]
    circuit = Circuit(next_qubit, tuple(ops), measured_qubit=goal_qubit)
    plan = QubitPlan(fact_qubits, conclusion_qubits, next_qubit)
    return CompiledProgram(circuit, plan, rs.goal, goal_qubit)


def truth_table_check(block: str) -> dict[tuple[int, ...], int]:
    """Exhaustive basis-input truth table of one connective block.

    Inputs are prepared as basis states with X gates and the ancilla starts
    at |0>. The circuit has no M layer, so ``circuit_planes`` simulates it
    as one world, and the returned map reads bit 0 of the ancilla's plane.
    """
    arity = 1 if block == "not" else 2
    out_qubit = arity
    table: dict[tuple[int, ...], int] = {}
    for combo in range(2**arity):
        bits = tuple((combo >> i) & 1 for i in range(arity))
        ops = [CircuitOp(X, q) for q in range(arity) if bits[q]]
        ops += _block_ops(block, tuple(range(arity)), out_qubit)
        circuit = Circuit(arity + 1, tuple(ops), measured_qubit=out_qubit)
        table[bits] = circuit_planes(circuit)[out_qubit] & 1
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
    register is measured. The register's four possible outcomes are the
    four worlds of the two inputs: ``world_weights`` of the two M angles
    weights them, and ``circuit_planes`` gives the ancilla's bit in each.
    With shots=None the percentages are the exact world weights; otherwise
    they come from seeded sampling of those weights, which picks the same
    outcomes as sampling the dense register. Rows are returned for all four
    input combinations in order 00, 01, 10, 11; the output bit per row is
    the ancilla's plane in that world, the block's deterministic truth
    value.
    """
    if block not in ("and", "or"):
        raise ValueError(f"demo supports 'and' and 'or', not {block!r}")
    thetas = [fact_theta(d) for d in deltas]
    ops = [CircuitOp(M(theta), q) for q, theta in enumerate(thetas)]
    ops += _block_ops(block, (0, 1), 2)
    planes = circuit_planes(Circuit(3, tuple(ops), measured_qubit=2))
    weights = world_weights(thetas)
    if shots is None:
        percents = weights * 100.0
    else:
        percents = 100.0 * _draw_counts(weights, shots, seed) / shots
    # world a + 2b has input bits (a, b)
    return [
        DemoRow((a, b), planes[2] >> (a + 2 * b) & 1, float(percents[a + 2 * b]))
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
