import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrbs.compiler import (
    TRUE_BIT,
    BudgetError,
    circuit_from_text,
    circuit_to_text,
    compile_ruleset,
    rq_gate_demo,
    truth_table_check,
)
from qrbs.inference import infer_exact
from qrbs.reference import demo_ruleset
from qrbs.ruledsl import RuleSet, parse
from qrbs.gates import M, X
from qrbs.statevec import Circuit, CircuitOp, init_zero, marginal_prob_one, run
from qrbs.uncertainty import delta_to_alpha


def _gate_shape(op):
    return (op.gate.name, len(op.controls))


def test_demo_network_gate_census():
    cp = compile_ruleset(demo_ruleset())
    shapes = [_gate_shape(op) for op in cp.circuit.ops]
    assert shapes.count(("M", 0)) == 5  # one preparation per base fact
    assert shapes.count(("X", 2)) == 4  # R1 AND, R2 OR, R3 inner OR + outer AND
    assert set(shapes) <= {("M", 0), ("X", 0), ("X", 1), ("X", 2)}


def test_demo_network_plan():
    cp = compile_ruleset(demo_ruleset())
    assert cp.plan.fact_qubits == {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4}
    assert set(cp.plan.conclusion_qubits) == {"X", "Y", "R"}
    assert cp.goal_qubit == cp.plan.conclusion_qubits["R"]
    assert cp.plan.n_qubits == cp.circuit.n_qubits == 9
    assert TRUE_BIT == 1


def test_certain_and_rule_yields_certain_goal():
    rs = parse("fact A\nfact B\nrule R: if A and B then X\ngoal X")
    cp = compile_ruleset(rs)
    state = run(cp.circuit, init_zero(cp.circuit.n_qubits))
    assert marginal_prob_one(state, cp.goal_qubit) == pytest.approx(1.0, abs=1e-12)


def test_base_fact_goal_is_single_gate():
    rs = parse("fact A disbelief 30\ngoal A")
    cp = compile_ruleset(rs)
    assert len(cp.circuit.ops) == 1
    assert cp.goal_qubit == 0
    assert infer_exact(cp).p_true == pytest.approx(0.794, abs=5e-4)


def test_preparation_angle_is_half_alpha():
    # M(alpha/2)|0> puts sin(theta) on bit 1, so P(bit 1) = P(true)
    rs = parse("fact A disbelief 30\ngoal A")
    cp = compile_ruleset(rs)
    prep = cp.circuit.ops[0]
    assert prep.gate.name == "M"
    assert prep.gate.theta == pytest.approx(delta_to_alpha(30) / 2, abs=1e-15)


def test_rule_with_bare_fact_premise_aliases_the_fact_qubit():
    rs = parse("fact A disbelief 40\nrule R: if A then X\ngoal X")
    cp = compile_ruleset(rs)
    assert cp.goal_qubit == cp.plan.fact_qubits["A"]
    assert len(cp.circuit.ops) == 1


def test_repeated_fact_in_one_connective():
    # x AND x lowers to a copy, not a doubly-controlled gate on one qubit
    rs = parse("fact A disbelief 35\nrule R: if A and A then X\ngoal X")
    cp = compile_ruleset(rs)
    assert infer_exact(cp).p_true == pytest.approx(
        math.sin((math.pi - 0.35 * math.pi) / 2) ** 2, abs=1e-12
    )
    rs = parse("fact A disbelief 35\nrule R: if A or A then X\ngoal X")
    assert infer_exact(compile_ruleset(rs)).p_true == pytest.approx(
        math.sin((math.pi - 0.35 * math.pi) / 2) ** 2, abs=1e-12
    )


def test_compile_rejects_invalid_ruleset():
    rs = RuleSet({"A": 0.0}, (), "Q")
    with pytest.raises(ValueError):
        compile_ruleset(rs)


def test_compile_qubit_budget():
    rs = RuleSet({f"F{i}": 0.0 for i in range(30)}, (), "F0")
    with pytest.raises(BudgetError):
        compile_ruleset(rs)


def test_ancilla_discipline():
    cp = compile_ruleset(demo_ruleset())
    n_facts = len(cp.plan.fact_qubits)
    seen_targets = set()
    for op in cp.circuit.ops:
        if len(op.controls) == 2:
            assert op.target >= n_facts
            assert op.target not in seen_targets
            seen_targets.add(op.target)


def test_truth_tables_match_boolean_operators():
    assert truth_table_check("and") == {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1}
    assert truth_table_check("or") == {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert truth_table_check("not") == {(0,): 1, (1,): 0}


def test_or_block_restores_its_inputs():
    rng = random.Random(8)
    for _ in range(10):
        da, db = rng.uniform(0, 100), rng.uniform(0, 100)
        src = (f"fact A disbelief {da:.3f}\nfact B disbelief {db:.3f}\n"
               "rule R: if A or B then X\ngoal X")
        cp = compile_ruleset(parse(src))
        prep_only = Circuit(cp.circuit.n_qubits, cp.circuit.ops[:2], measured_qubit=0)
        before = run(prep_only, init_zero(cp.circuit.n_qubits))
        after = run(cp.circuit, init_zero(cp.circuit.n_qubits))
        for q in (0, 1):
            assert marginal_prob_one(after, q) == pytest.approx(
                marginal_prob_one(before, q), abs=1e-12
            )


def test_rq_demo_exact_is_uniform():
    rows = rq_gate_demo("and")
    assert [row.output_bit for row in rows] == [0, 0, 0, 1]
    for row in rows:
        assert row.percentage == pytest.approx(25.0, abs=1e-9)

    rows = rq_gate_demo("or")
    assert [row.output_bit for row in rows] == [0, 1, 1, 1]
    for row in rows:
        assert row.percentage == pytest.approx(25.0, abs=1e-9)


def test_rq_demo_sampled_close_to_uniform():
    for block in ("and", "or"):
        rows = rq_gate_demo(block, shots=8192, seed=7)
        assert sum(row.percentage for row in rows) == pytest.approx(100.0, abs=1e-9)
        for row in rows:
            assert row.percentage == pytest.approx(25.0, abs=1.5)


def test_rq_demo_with_certain_inputs():
    rows = rq_gate_demo("and", shots=1024, seed=0, deltas=(0.0, 0.0))
    by_bits = {row.input_bits: row for row in rows}
    assert by_bits[(1, 1)].percentage == pytest.approx(100.0, abs=1e-9)
    assert by_bits[(1, 1)].output_bit == 1
    for bits in ((0, 0), (0, 1), (1, 0)):
        assert by_bits[bits].percentage == 0.0


def test_rq_demo_rejects_unknown_block():
    with pytest.raises(ValueError):
        rq_gate_demo("xor")


def test_export_single_fact_program():
    cp = compile_ruleset(RuleSet({"F": 50.0}, (), "F"))
    assert circuit_to_text(cp.circuit) == "qubits 1\nM(theta=0.785398) q0\nmeasure q0\n"


def test_export_demo_network_counts():
    text = circuit_to_text(compile_ruleset(demo_ruleset()).circuit)
    lines = text.splitlines()
    assert lines[0] == "qubits 9"
    assert sum(1 for line in lines if line.startswith("M(")) == 5
    assert sum(1 for line in lines if line.startswith("CCN ")) == 4
    assert lines[-1] == "measure q8"


def test_circuit_text_round_trip_is_byte_identical():
    original = circuit_to_text(compile_ruleset(demo_ruleset()).circuit)
    assert circuit_to_text(circuit_from_text(original)) == original


@st.composite
def _circuits(draw):
    """M, X, CN and CCN ops on 1-24 qubits; M angles in [0, pi/2] at 6 decimals."""
    n = draw(st.integers(1, 24))
    qubit = st.integers(0, n - 1)
    # the text form writes theta with 6 decimals: n / 10^6 is the float it reads back
    angle = st.integers(0, int(math.pi / 2 * 10**6)).map(lambda micro: micro / 10**6)
    widths = {"M": 1, "X": 1, "CN": 2, "CCN": 3}  # qubits each kind touches
    kinds = [kind for kind, width in widths.items() if width <= n]
    ops = []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(kinds))
        target, *controls = draw(st.lists(qubit, min_size=widths[kind],
                                          max_size=widths[kind], unique=True))
        gate = M(draw(angle)) if kind == "M" else X
        ops.append(CircuitOp(gate, target, controls=tuple(controls)))
    return Circuit(n, tuple(ops), measured_qubit=draw(qubit))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_circuits())
def test_circuit_text_round_trips_random_circuits(circuit):
    assert circuit_from_text(circuit_to_text(circuit)) == circuit


def test_circuit_from_text_accepts_comments_and_blanks():
    circuit = circuit_from_text(
        "# preamble\nqubits 2\n\nX q0  # flip\nCN q0 -> q1\nmeasure q1\n"
    )
    assert circuit.n_qubits == 2
    assert len(circuit.ops) == 2
    assert circuit.measured_qubit == 1


_MALFORMED_CIRCUITS = [
    ("qubits 1\nY q0\nmeasure q0\n", "line 2: cannot parse 'Y q0'"),
    ("X q0\nmeasure q0\n", "missing qubits line"),
    ("qubits 1\nX q0\n", "missing measure line"),
    # the ops read from text meet the same checks as any Circuit's
    ("qubits 2\nCN q0 -> q0\nmeasure q0\n", "target qubit cannot also be a control"),
    ("qubits 2\nCCN q1 q1 -> q0\nmeasure q0\n", "duplicate control qubit"),
    ("qubits 2\nX q2\nmeasure q0\n", "qubit index 2 out of range for 2 qubits"),
    ("qubits 2\nX q0\nmeasure q2\n", "qubit index 2 out of range for 2 qubits"),
    ("qubits 0\nmeasure q0\n", "n_qubits must be in [1, 24]"),
    ("qubits 25\nmeasure q0\n", "n_qubits must be in [1, 24]"),
]


@pytest.mark.parametrize("text,message", _MALFORMED_CIRCUITS,
                         ids=[text for text, _ in _MALFORMED_CIRCUITS])
def test_circuit_from_text_rejects_malformed(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        circuit_from_text(text)


def test_monotone_response_to_single_fact_credibility():
    # lowering any one disbelief must never lower P(goal): all premises are positive
    for fact_index in range(5):
        previous = None
        for delta in (0, 25, 50, 75, 100):
            deltas = [50.0] * 5
            deltas[fact_index] = float(delta)
            p = infer_exact(compile_ruleset(demo_ruleset(deltas))).p_true
            if previous is not None:
                assert p <= previous + 1e-12
            previous = p
