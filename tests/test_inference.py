import math
import random
import sys
from collections import Counter

import pytest

from helpers import random_ruleset
from qrbs import compiler, inference, statevec
from qrbs.compiler import BudgetError, compile_ruleset
from qrbs.inference import cross_validate, infer_exact, infer_shots, oracle
from qrbs.reference import demo_ruleset
from qrbs.ruledsl import And, FactRef, Not, Rule, RuleSet, parse


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


@pytest.mark.parametrize("op", ["and", "or"])
def test_oracle_walks_a_2000_term_chain_without_recursion(op):
    chain = f" {op} ".join(["a", "b"] * 1000)
    rs = parse(
        f"fact a disbelief 30\nfact b disbelief 60\nrule r: if {chain} then c\ngoal c\n"
    )
    p_a, p_b = _p_true(30), _p_true(60)
    expected = p_a * p_b if op == "and" else 1.0 - (1.0 - p_a) * (1.0 - p_b)
    assert oracle(rs).p_true == pytest.approx(expected, abs=1e-12)


def test_oracle_walks_deep_right_nested_and_not_trees():
    # built by hand: parse caps "not" and "(" at MAX_NESTING levels
    premise = FactRef("a")
    for i in range(3000):
        premise = Not(premise) if i % 3 == 0 else And(FactRef("b"), premise)
    rs = RuleSet({"a": 30.0, "b": 60.0}, (Rule("r", premise, "c"),), "c")
    # 1000 negations cancel out, and every "and" adds b
    assert oracle(rs).p_true == pytest.approx(_p_true(30) * _p_true(60), abs=1e-12)


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
    # goal probabilities strictly inside (0, 1): a sampler that always
    # returns 0 or ``shots`` fails here
    for deltas in [(50,) * 5, (60, 100, 20, 0, 0), (20, 60, 40, 30, 20)]:
        cp = compile_ruleset(demo_ruleset(deltas))
        assert 0.0 < cp.p_goal < 1.0
        counts = set()
        for seed in range(5):
            ones = inference._binomialvariate(random.Random(seed), 8192, cp.p_goal)
            assert infer_shots(cp, 8192, seed).p_true == ones / 8192
            counts.add(ones)
        assert len(counts) > 1


def _chi_square_critical(df: int, z: float = 3.09) -> float:
    """Upper 0.1 % point of chi-square with ``df`` degrees of freedom, by
    the Wilson-Hilferty cube approximation (z = 3.09 is the normal 0.999
    quantile)."""
    return df * (1.0 - 2.0 / (9 * df) + z * math.sqrt(2.0 / (9 * df))) ** 3


@pytest.mark.parametrize("n,p", [(20, 0.3), (60, 0.4), (25, 0.85), (60, 0.7)],
                         ids=["geometric", "btrs", "above-half-geometric", "above-half-btrs"])
def test_binomial_draws_over_seeds_follow_the_pmf(n, p):
    # n * min(p, 1 - p) is 6, 24, 3.75 and 18: both branches, with and
    # without the p > 0.5 reflection
    draws = 4000
    observed = Counter(inference._binomialvariate(random.Random(seed), n, p)
                       for seed in range(draws))
    assert all(0 <= k <= n for k in observed)
    # cells of adjacent counts, each expecting at least 5 draws
    cells, expected, seen = [], 0.0, 0
    for k in range(n + 1):
        expected += draws * math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        seen += observed[k]
        if expected >= 5.0:
            cells.append((seen, expected))
            expected, seen = 0.0, 0
    last_seen, last_expected = cells.pop()
    cells.append((last_seen + seen, last_expected + expected))
    chi2 = sum((o - e) ** 2 / e for o, e in cells)
    assert chi2 <= _chi_square_critical(len(cells) - 1)


@pytest.mark.skipif(sys.version_info < (3, 12),
                    reason="Random.binomialvariate is new in Python 3.12")
def test_binomial_port_equals_the_standard_library():
    for n in (1, 2, 9, 100, 8192, 10**6, 10**11, statevec.MAX_SHOTS):
        for p in (0.0, 1e-19, 1e-6, 0.01, 0.3, 0.46875, 0.5, 0.7, 0.999, 1.0 - 1e-12, 1.0):
            for seed in range(40):
                ours, theirs = random.Random(seed), random.Random(seed)
                expected = theirs.binomialvariate(n, p)
                assert inference._binomialvariate(ours, n, p) == expected, (n, p, seed)
                assert ours.random() == theirs.random()  # same draws consumed


def test_shot_inference_accepts_every_int64_count():
    cp = compile_ruleset(demo_ruleset())
    for shots in (10**11, statevec.MAX_SHOTS):
        result = infer_shots(cp, shots, 0)
        assert abs(result.p_true - cp.p_goal) <= 1e-4
    with pytest.raises(ValueError, match="shots"):
        infer_shots(cp, statevec.MAX_SHOTS + 1, 0)
