import math

import numpy as np
import pytest

from helpers import random_ruleset
from qrbs import compiler, inference, statevec
from qrbs.compiler import BudgetError, compile_ruleset
from qrbs.inference import cross_validate, infer_exact, infer_shots, oracle
from qrbs.reference import demo_ruleset
from qrbs.ruledsl import RuleSet, parse


def _p_true(delta: float) -> float:
    """Independent closed form used as the oracle for these tests."""
    theta = (math.pi - math.pi * delta / 100.0) / 2.0
    return math.sin(theta) ** 2


def _demo_closed_form(deltas) -> float:
    """P(goal) for the demo network under independent facts, written out:
    X = A and B, Y = X or C, R = Y and (D or E)."""
    p_a, p_b, p_c, p_d, p_e = (_p_true(d) for d in deltas)
    p_x = p_a * p_b
    p_y = 1.0 - (1.0 - p_x) * (1.0 - p_c)
    p_de = 1.0 - (1.0 - p_d) * (1.0 - p_e)
    return p_y * p_de


def test_exact_inference_all_unknown():
    result = infer_exact(compile_ruleset(demo_ruleset()))
    assert result.p_true == pytest.approx(0.46875, abs=1e-9)
    assert result.p_false == pytest.approx(0.53125, abs=1e-9)
    assert result.method == "exact"
    assert result.p_true + result.p_false == pytest.approx(1.0, abs=1e-9)


def test_exact_inference_certain_endpoints():
    assert infer_exact(compile_ruleset(demo_ruleset((0,) * 5))).p_true == pytest.approx(
        1.0, abs=1e-12
    )
    assert infer_exact(compile_ruleset(demo_ruleset((100,) * 5))).p_true == pytest.approx(
        0.0, abs=1e-12
    )


def test_shot_inference_single_fact():
    cp = compile_ruleset(RuleSet({"F": 10.0}, (), "F"))
    for seed in range(5):
        result = infer_shots(cp, 8192, seed)
        assert 0.962 <= result.p_true <= 0.989  # 4-sigma band around sin^2(theta)
        assert result.p_true + result.p_false == 1.0
        assert (result.shots, result.seed) == (8192, seed)


def test_single_shot_is_binary():
    cp = compile_ruleset(demo_ruleset())
    assert infer_shots(cp, 1, 0).p_true in (0.0, 1.0)


def test_shot_inference_deterministic_per_seed():
    cp = compile_ruleset(demo_ruleset())
    assert infer_shots(cp, 4096, 9) == infer_shots(cp, 4096, 9)


def test_shot_inference_rejects_zero_shots():
    with pytest.raises(ValueError):
        infer_shots(compile_ruleset(demo_ruleset()), 0, 0)


def test_oracle_all_unknown():
    result = oracle(demo_ruleset())
    assert result.p_true == pytest.approx(0.46875, abs=1e-12)
    assert result.enumerated_assignments == 32


def test_oracle_matches_independent_closed_form():
    deltas = (20.0, 20.0, 20.0, 20.0, 20.0)
    assert oracle(demo_ruleset(deltas)).p_true == pytest.approx(
        _demo_closed_form(deltas), abs=1e-12
    )


def test_oracle_single_fact():
    result = oracle(RuleSet({"A": 30.0}, (), "A"))
    assert result.p_true == pytest.approx(_p_true(30.0), abs=1e-12)
    assert result.p_true == pytest.approx(0.794, abs=5e-4)


def test_oracle_enumeration_budget():
    rs = RuleSet({f"F{i}": 50.0 for i in range(21)}, (), "F0")
    with pytest.raises(BudgetError):
        oracle(rs)


def test_oracle_rejects_invalid_ruleset():
    with pytest.raises(ValueError):
        oracle(RuleSet({"A": 0.0}, (), "Q"))


def test_cross_validate_demo_grid():
    for deltas in [(0,) * 5, (50,) * 5, (100,) * 5, (20, 60, 0, 0, 20), (60, 100, 20, 0, 0)]:
        report = cross_validate(demo_ruleset(deltas))
        assert report.passed
        assert report.abs_difference <= 1e-9


def test_cross_validate_with_not_premise():
    src = (
        "fact A disbelief 35\nfact B disbelief 70\n"
        "rule R1: if not A and B then X\n"
        "rule R2: if X or not B then Y\n"
        "goal Y"
    )
    report = cross_validate(parse(src))
    assert report.passed


def test_cross_validate_random_networks():
    for seed in range(40):
        report = cross_validate(random_ruleset(seed))
        assert report.passed, f"seed {seed}: diff {report.abs_difference}"


def test_shot_estimates_converge_at_four_sigma():
    cp = compile_ruleset(demo_ruleset())
    p = infer_exact(cp).p_true
    shots = 8192
    bound = 4 * math.sqrt(p * (1 - p) / shots)
    for seed in range(10):
        assert abs(infer_shots(cp, shots, seed).p_true - p) <= bound


def test_exact_and_shots_share_one_simulation(monkeypatch):
    runs = []

    def counting_worlds(circuit):
        runs.append(circuit)
        return statevec.worlds(circuit)

    def no_sample(*args):
        raise AssertionError("shot inference must not sample the register")

    for module in (compiler, inference):
        if hasattr(module, "worlds"):
            monkeypatch.setattr(module, "worlds", counting_worlds)
        for name in ("sample", "_draw_counts"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_sample)
    cp = compile_ruleset(demo_ruleset())
    exact = infer_exact(cp)
    infer_shots(cp, 8192, 3)
    assert infer_exact(cp) == exact
    assert runs == [cp.circuit]


def test_shot_count_is_a_seeded_binomial_draw():
    cp = compile_ruleset(demo_ruleset((20, 60, 0, 0, 20)))
    for seed in range(5):
        ones = np.random.default_rng(seed).binomial(8192, cp.p_goal)
        assert infer_shots(cp, 8192, seed).p_true == ones / 8192


def test_shot_inference_accepts_every_int64_count():
    cp = compile_ruleset(demo_ruleset())
    for shots in (10**11, statevec.MAX_SHOTS):
        result = infer_shots(cp, shots, 0)
        assert abs(result.p_true - cp.p_goal) <= 1e-4
    with pytest.raises(ValueError, match="shots"):
        infer_shots(cp, statevec.MAX_SHOTS + 1, 0)
