"""From DSL text to a reversible circuit.

Parses the bundled three-rule program, shows the qubit plan, exports the
circuit text, and exercises the reversible AND/OR blocks on their own.
"""

from pathlib import Path

from qrbs.compiler import (
    circuit_to_text,
    compile_ruleset,
    rq_gate_demo,
    truth_table_check,
)
from qrbs.ruledsl import parse, topo_order

source = (Path(__file__).parent / "programs" / "three_rules.qrbs").read_text()
rs = parse(source)
print(f"parsed: {len(rs.base_facts)} facts, {len(rs.rules)} rules, goal {rs.goal}")
print("firing order:", [rule.name for rule in topo_order(rs)])

cp = compile_ruleset(rs)
print(f"\nqubit plan ({cp.plan.n_qubits} qubits):")
print("  facts      :", cp.plan.fact_qubits)
print("  conclusions:", cp.plan.conclusion_qubits)
print(f"  goal qubit : q{cp.goal_qubit} (bit 1 = TRUE)")

print("\ncircuit text:")
print(circuit_to_text(cp.circuit))

print("reversible blocks check out against the boolean operators:")
for block in ("and", "or", "not"):
    print(f"  {block.upper():3s}: {truth_table_check(block)}")

print("\ndriving RQ-AND with both inputs in even superposition (8192 shots):")
print(f"{'inputs':>7} {'out':>4} {'measured %':>11}")
for row in rq_gate_demo("and", shots=8192, seed=7):
    bits = "".join(map(str, row.input_bits))
    print(f"{bits:>7} {row.output_bit:>4} {row.percentage:>10.2f}%")
