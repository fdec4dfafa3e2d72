"""Executes compiled programs and checks them against brute-force enumeration.

The enumeration oracle is the ground truth of this package: it assigns each
base fact independently (weight sin^2 theta for true, cos^2 theta for
false), evaluates the boolean network classically, and sums the weights of
goal-true assignments. Because compiled circuits are basis permutations
after the preparation layer, the exact quantum marginal must agree with
the oracle to floating-point accuracy; cross_validate asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiler import BudgetError, CompiledProgram, compile_ruleset
from .ruledsl import And, Expr, FactRef, Not, RuleSet, topo_order
from .statevec import check_shots
from .uncertainty import fact_amplitudes

MAX_ORACLE_FACTS = 20


@dataclass(frozen=True)
class InferenceResult:
    goal: str
    p_true: float
    p_false: float
    method: str  # "exact" or "shots"
    shots: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class OracleResult:
    goal: str
    p_true: float
    enumerated_assignments: int


@dataclass(frozen=True)
class CrossValidation:
    goal: str
    exact_p_true: float
    oracle_p_true: float
    abs_difference: float
    passed: bool
    tolerance: float


def infer_exact(cp: CompiledProgram) -> InferenceResult:
    """Exact goal marginal from the final state vector."""
    p = cp.p_goal
    return InferenceResult(cp.goal, p, 1.0 - p, "exact")


def infer_shots(cp: CompiledProgram, shots: int, seed: int) -> InferenceResult:
    """Goal probability estimated from ``shots`` seeded measurements.

    Each shot measures the circuit's single measured qubit, the goal, so the
    count of ones is one seeded Binomial(shots, p) draw on the exact goal
    marginal ``cp.p_goal``. Memory is O(1) for any shot count.
    """
    check_shots(shots)
    # min() absorbs norm drift that could put p a few ulps above 1
    ones = int(np.random.default_rng(seed).binomial(shots, min(cp.p_goal, 1.0)))
    return InferenceResult(
        cp.goal, ones / shots, (shots - ones) / shots, "shots", shots, seed
    )


def _eval_expr(expr: Expr, values: dict[str, bool]) -> bool:
    if isinstance(expr, FactRef):
        return values[expr.name]
    if isinstance(expr, Not):
        return not _eval_expr(expr.operand, values)
    if isinstance(expr, And):
        return _eval_expr(expr.left, values) and _eval_expr(expr.right, values)
    return _eval_expr(expr.left, values) or _eval_expr(expr.right, values)


def oracle(rs: RuleSet) -> OracleResult:
    """Classical ground truth by exhaustive enumeration of base-fact worlds."""
    order = topo_order(rs)
    names = list(rs.base_facts)
    if len(names) > MAX_ORACLE_FACTS:
        raise BudgetError(
            f"enumeration over {len(names)} base facts exceeds "
            f"{MAX_ORACLE_FACTS}"
        )
    p_fact = {
        name: fact_amplitudes(delta).p_true
        for name, delta in rs.base_facts.items()
    }

    total = 0.0
    p_goal = 0.0
    for mask in range(2 ** len(names)):
        values = {name: bool((mask >> i) & 1) for i, name in enumerate(names)}
        weight = 1.0
        for name in names:
            weight *= p_fact[name] if values[name] else 1.0 - p_fact[name]
        for rule in order:
            values[rule.conclusion] = _eval_expr(rule.premise, values)
        total += weight
        if values[rs.goal]:
            p_goal += weight
    assert abs(total - 1.0) <= 1e-12, "assignment weights must sum to 1"
    return OracleResult(rs.goal, p_goal, 2 ** len(names))


def cross_validate(rs: RuleSet, tolerance: float = 1e-9) -> CrossValidation:
    """Compare the exact circuit marginal with the enumeration oracle."""
    exact = infer_exact(compile_ruleset(rs))
    reference = oracle(rs)
    diff = abs(exact.p_true - reference.p_true)
    return CrossValidation(
        rs.goal, exact.p_true, reference.p_true, diff, diff <= tolerance, tolerance
    )
