import math
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import random_ruleset
from qrbs import compiler, inference, statevec
from qrbs.compiler import BudgetError, compile_ruleset
from qrbs.inference import (
    InferenceResult, cross_validate, infer_exact, infer_shots, oracle, oracle_rows, shots_rows,
)
from qrbs.reference import TABLE8, demo_ruleset
from qrbs.ruledsl import And, FactRef, Not, Rule, RuleSet, parse, premise_nodes, topo_order
from qrbs.uncertainty import fact_amplitudes


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


def _random_rows(rs, rng, n_rows=6):
    """Disbelief rows for the base facts of ``rs``: 0, 100 or anything between."""
    return [[rng.choice([0.0, 100.0, round(rng.uniform(0.0, 100.0), 3)])
             for _ in rs.base_facts]
            for _ in range(n_rows)]


def _with_deltas(rs, row):
    """``rs`` with its base facts at the disbeliefs of ``row``, built afresh."""
    return RuleSet(dict(zip(rs.base_facts, row)), rs.rules, rs.goal)


def _eval(expr, values):
    if isinstance(expr, FactRef):
        return values[expr.name]
    if isinstance(expr, Not):
        return not _eval(expr.operand, values)
    if isinstance(expr, And):
        return _eval(expr.left, values) and _eval(expr.right, values)
    return _eval(expr.left, values) or _eval(expr.right, values)


def _per_world_oracle_rows(rs, rows):
    """P(goal) at each row of disbeliefs by the plain per-world loop: each
    world's weight is a product in declaration order, and the weights are
    summed in world order. The goal is evaluated once per world."""
    names = list(rs.base_facts)
    ps = [[fact_amplitudes(delta).p_true for delta in row] for row in rows]
    p_goals = [0.0] * len(rows)
    for mask in range(2 ** len(names)):
        values = {name: bool(mask >> i & 1) for i, name in enumerate(names)}
        for rule in topo_order(rs):
            values[rule.conclusion] = _eval(rule.premise, values)
        if not values[rs.goal]:
            continue
        for r, p in enumerate(ps):
            weight = 1.0
            for i, name in enumerate(names):
                weight *= p[i] if values[name] else 1.0 - p[i]
            p_goals[r] += weight
    return p_goals


def _per_world_oracle(rs):
    """``_per_world_oracle_rows`` at the RuleSet's own disbeliefs."""
    return _per_world_oracle_rows(rs, [list(rs.base_facts.values())])[0]


def test_oracle_rows_equal_one_oracle_call_per_row():
    rng = random.Random(11)
    for seed in range(120):
        rs = random_ruleset(seed)
        rows = _random_rows(rs, rng) + [list(rs.base_facts.values())]
        results = oracle_rows(rs, rows)
        assert results == [oracle(_with_deltas(rs, row)) for row in rows]
        assert [r.p_true for r in results] == [
            _per_world_oracle(_with_deltas(rs, row)) for row in rows
        ]


def test_oracle_rows_on_12_to_14_facts_equal_one_row_calls(monkeypatch):
    # a budget of 3 * 2^12 entries, not a power of two, holds all the
    # worlds of a row of 12 or 13 facts, and a row of 14 streams a fact
    monkeypatch.setattr(inference, "ORACLE_BLOCK_ENTRIES", 3 * 2**12)
    rng = random.Random(17)
    for n_facts in (12, 13, 14):
        rs = parse(_chain_source(n_facts))
        rows = _random_rows(rs, rng, n_rows=38) + [[0.0] * n_facts, [100.0] * n_facts]
        assert len(rows) << n_facts > inference.ORACLE_BLOCK_ENTRIES
        results = oracle_rows(rs, rows)
        assert results == [oracle(_with_deltas(rs, row)) for row in rows]
        assert [r.p_true for r in results] == _per_world_oracle_rows(rs, rows)
        assert oracle_rows(rs, []) == []


def _tree_source(rng, n_facts=14, n_or=6, n_not=2, n_rules=4):
    """A seeded tree of n_facts facts, each read once, joined by n_facts - 1
    connectives, n_or of them or and the rest and, with n_not of their
    results negated, over n_rules rules. Returns the source and the goal's
    probability by closed-form propagation."""
    lines, pool = [], []  # pool: the (text, probability) of each unread operand
    for i in range(n_facts):
        delta = round(rng.uniform(0.0, 100.0), 3)
        lines.append(f"fact f{i} disbelief {delta}")
        pool.append((f"f{i}", _p_true(delta)))
    kinds = ["or"] * n_or + ["and"] * (n_facts - 1 - n_or)
    rng.shuffle(kinds)
    negated = set(rng.sample(range(n_facts - 1), n_not))
    cuts = sorted(rng.sample(range(1, n_facts - 1), n_rules - 1))
    for r, (first, end) in enumerate(zip([0, *cuts], [*cuts, n_facts - 1])):
        for j in range(first, end):
            i, k = sorted(rng.sample(range(len(pool)), 2))
            (right, q), (left, p) = pool.pop(k), pool.pop(i)
            if kinds[j] == "and":
                text, p = f"({left} and {right})", p * q
            else:
                text, p = f"({left} or {right})", 1.0 - (1.0 - p) * (1.0 - q)
            pool.append((f"not {text}", 1.0 - p) if j in negated else (text, p))
        text, p = pool.pop()
        lines.append(f"rule r{r}: if {text} then c{r}")
        pool.append((f"c{r}", p))
    return "\n".join([*lines, f"goal c{n_rules - 1}"]), p


@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_of_a_14_fact_tree_weighs_its_whole_table_as_the_per_world_loop(seed):
    # the enum benchmark's shape: 14 facts, 6 or, 7 and and 2 not; at the
    # default budget a row keeps all 2^14 worlds in its table
    rng = random.Random(seed)
    source, expected = _tree_source(rng)
    rs = parse(source)
    kinds = Counter(type(node).__name__ for rule in rs.rules
                    for node in premise_nodes(rule.premise))
    assert len(rs.base_facts) == 14 and len(rs.rules) == 4
    assert [kinds[kind] for kind in ("Or", "And", "Not")] == [6, 7, 2]
    assert 2**14 <= inference.ORACLE_BLOCK_ENTRIES
    result = oracle(rs)
    assert result.p_true == _per_world_oracle(rs)
    assert result.p_true == pytest.approx(expected, abs=1e-12)
    # each of three rows is weighed on its own, as a one-row call
    rows = _random_rows(rs, rng, n_rows=3)
    assert oracle_rows(rs, rows) == [oracle_rows(rs, [row])[0] for row in rows]


def test_goal_marginal_equals_p_goal_of_the_rebuilt_program():
    rng = random.Random(12)
    for seed in range(120):
        rs = random_ruleset(seed)
        cp = compile_ruleset(rs)
        rows = _random_rows(rs, rng) + [list(rs.base_facts.values())]
        rebuilt = [compile_ruleset(_with_deltas(rs, row)) for row in rows]
        exact = [program.p_goal for program in rebuilt]
        assert [cp.goal_marginal(row) for row in rows] == exact
        assert cp.goal_marginals(rows) == exact
        assert cp.goal_marginals(rows)[-1] == cp.p_goal
        # 1 shot, the geometric method and BTRS
        for shots in (1, 50, 8192):
            assert shots_rows(rs.goal, exact, shots, seed) == [
                infer_shots(program, shots, seed) for program in rebuilt
            ]
    assert cp.goal_marginals([]) == []


def test_rows_must_give_one_disbelief_per_base_fact():
    rs = demo_ruleset()
    for row in ([50.0] * 4, [50.0] * 6):
        with pytest.raises(ValueError, match="expected 5 disbeliefs"):
            oracle_rows(rs, [row])
        with pytest.raises(ValueError, match="expected 5 disbeliefs"):
            compile_ruleset(rs).goal_marginal(row)
    with pytest.raises(ValueError, match="disbelief must be in"):
        oracle_rows(rs, [[50.0, 50.0, 50.0, 50.0, 101.0]])


def test_oracle_rows_run_without_the_compiler_or_the_simulator(monkeypatch):
    rs = demo_ruleset()
    rows = [deltas for deltas, _ in TABLE8]
    expected = [oracle(_with_deltas(rs, row)) for row in rows]

    def unavailable(*args, **kwargs):
        raise AssertionError("the oracle must not use the compiler or the simulator")

    for module in (statevec, compiler, inference):
        for name in ("world_weights", "circuit_planes", "plane_marginals", "compile_ruleset"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unavailable)
    fresh = demo_ruleset()  # its firing order not yet cached
    assert oracle_rows(fresh, rows) == expected
    assert oracle(fresh) == oracle_rows(fresh, [[50.0] * 5])[0]


_HAND_WRITTEN_NETWORKS = [
    # facts and conclusions used again by later rules, "not" on conclusions
    """fact a disbelief 30
    fact b disbelief 55
    fact c disbelief 80
    rule r1: if a and b then x
    rule r2: if x or not a then y
    rule r3: if not x and (y or c) then z
    rule r4: if not (z or b) or x and c then w
    goal w""",
    # the goal is a base fact that rules also read
    """fact a disbelief 10
    fact b disbelief 90
    rule r1: if a or b then x
    rule r2: if not x then y
    goal b""",
    # one fact alone, negated twice through conclusions
    """fact a disbelief 35
    rule r1: if not a then x
    rule r2: if not x then y
    goal y""",
    # ten facts, a conclusion read by three rules
    "\n".join([*(f"fact f{i} disbelief {7 * i + 3}" for i in range(10)),
               "rule r1: if f0 and f1 or f2 then s",
               "rule r2: if not s and f3 or f4 and f5 then t",
               "rule r3: if s or not t and f6 then u",
               "rule r4: if not u and s or f7 and not (f8 or f9) then v",
               "rule r5: if v and not s or t and not f0 then g",
               "goal g"]),
]


def test_oracle_equals_the_per_world_loop_on_networks_up_to_10_facts():
    rng = random.Random(13)
    networks = [parse(source) for source in _HAND_WRITTEN_NETWORKS]
    networks += [random_ruleset(seed, max_facts=10, max_rules=8, max_qubits=40)
                 for seed in range(80)]
    assert max(len(rs.base_facts) for rs in networks) == 10
    for rs in networks:
        rows = _random_rows(rs, rng, n_rows=3) + [
            [0.0] * len(rs.base_facts), [100.0] * len(rs.base_facts),
            [rng.choice([0.0, 100.0]) for _ in rs.base_facts],
            list(rs.base_facts.values())]
        assert [r.p_true for r in oracle_rows(rs, rows)] == [
            _per_world_oracle(_with_deltas(rs, row)) for row in rows
        ]


def _chain_source(n_facts):
    """C1 = F0 and F1, C2 = C1 or F2, C3 = C2 and F3, ... up to C(n-1)."""
    lines = [f"fact F{i} disbelief {(37 * i + 11) % 101}" for i in range(n_facts)]
    previous = "F0"
    for i in range(1, n_facts):
        op = "and" if i % 2 else "or"
        lines.append(f"rule R{i}: if {previous} {op} F{i} then C{i}")
        previous = f"C{i}"
    return "\n".join([*lines, f"goal {previous}"])


def test_oracle_on_a_20_fact_chain_equals_its_closed_form():
    rs = parse(_chain_source(20))
    p = [_p_true(delta) for delta in rs.base_facts.values()]
    expected = p[0]
    for i in range(1, 20):
        expected = expected * p[i] if i % 2 else 1.0 - (1.0 - expected) * (1.0 - p[i])
    result = oracle(rs)
    assert result.enumerated_assignments == 2 ** 20
    assert result.p_true == pytest.approx(expected, abs=1e-12)


def test_oracle_on_a_20_fact_shared_network_equals_its_closed_form():
    # every rule reads the shared facts S and T, and a chain reads each
    # rule's conclusion: D_j = S and F_j or T and not F_j, G_j = G_(j-1)
    # and/or D_j. Given S and T the D_j are independent, so P(goal) is a
    # sum over the four values of (S, T) of a product over j
    lines = ["fact S disbelief 40", "fact T disbelief 75",
             *(f"fact F{j} disbelief {(29 * j + 5) % 101}" for j in range(18))]
    for j in range(18):
        lines.append(f"rule D{j}: if S and F{j} or T and not F{j} then D{j}")
    lines.append("rule G0: if D0 then G0")
    for j in range(1, 18):
        op = "and" if j % 3 else "or"
        lines.append(f"rule G{j}: if G{j - 1} {op} D{j} then G{j}")
    rs = parse("\n".join([*lines, "goal G17"]))
    assert len(rs.base_facts) == 20
    p_s, p_t = _p_true(40), _p_true(75)
    p = [_p_true((29 * j + 5) % 101) for j in range(18)]
    expected = 0.0
    for s, t in ((0, 0), (0, 1), (1, 0), (1, 1)):
        d = [s * p_j + t * (1.0 - p_j) for p_j in p]  # the two terms exclude each other
        g = d[0]
        for j in range(1, 18):
            g = g * d[j] if j % 3 else 1.0 - (1.0 - g) * (1.0 - d[j])
        expected += (p_s if s else 1.0 - p_s) * (p_t if t else 1.0 - p_t) * g
    assert oracle(rs).p_true == pytest.approx(expected, abs=1e-12)


def test_oracle_holds_only_live_planes_of_a_600_rule_chain():
    # 1800 instructions over 2^18 worlds: one 32 KiB plane each would
    # peak near 45 MiB; the weight table and the goal bytes take about 13
    lines = [f"fact F{i} disbelief {5 * i}" for i in range(18)] + ["rule R0: if F0 then C0"]
    lines += [f"rule R{i}: if C{i - 1} and not F{i % 18} or F{(i + 1) % 18} then C{i}"
              for i in range(1, 600)]
    rs = parse("\n".join([*lines, "goal C599"]))
    tracemalloc.start()
    try:
        oracle(rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_oracle_holds_a_few_planes_of_a_left_nested_premise():
    # t1 or t2 or ... parses left-nested: the oracle must combine each term
    # as soon as it is built, not keep all 2000 terms' planes until the
    # "or"s run. A plane is 2^18 bits, 32 KiB; 2000 of them are 62 MiB
    facts = [f"fact F{i} disbelief {5 * i + 3}" for i in range(18)]
    terms = [f"F{i % 18} and not F{(7 * i + 1) % 18}" for i in range(2000)]

    def peak(premise):
        rs = parse("\n".join([*facts, f"rule R: if {premise} then G", "goal G"]))
        tracemalloc.start()
        try:
            oracle(rs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the one-term baseline holds the weight table, the fact planes and the
    # goal's bytes; the long premise adds its 6000 instructions, about
    # 0.7 MiB, and a few planes
    assert peak(" or ".join(terms)) - peak(terms[0]) < 2**20


def test_exact_marginal_on_23_facts_equals_its_closed_form():
    # 2^23 worlds, of which f0 and f1 hold in a quarter: the marginal is
    # p0 * p1 to within a rounding or two
    rs = parse("\n".join([*(f"fact f{i} disbelief {(37 * i + 11) % 101}" for i in range(23)),
                          "rule R: if f0 and f1 then g", "goal g"]))
    expected = _p_true(11) * _p_true(48)
    assert abs(compile_ruleset(rs).p_goal - expected) <= 1e-15


@pytest.mark.parametrize("n_facts,delta", [(18, 70), (18, 90), (20, 95)])
def test_oracle_weights_of_many_facts_may_drift_past_1e_12(n_facts, delta):
    # a left fold of 2^18 or 2^20 weights drifts from 1 by up to about
    # 2^k ulps, more than 1e-12 here; the goal's weight stays exact
    rs = parse("\n".join([*(f"fact f{i} disbelief {delta}" for i in range(n_facts)),
                          "rule R: if f0 and f1 then g", "goal g"]))
    assert abs(oracle(rs).p_true - _p_true(delta) ** 2) <= 1e-12


def test_goal_marginals_of_64_rows_hold_no_row_of_world_weights():
    # 64 rows of 2^20 float weights would be 512 MiB, and one row 8 MiB;
    # the mask of 2^20 bytes and each row's two 2^10-entry factors stay small
    rs = parse("\n".join([*(f"fact f{i} disbelief {5 * i}" for i in range(20)),
                          "rule R: if f0 and f1 or not f19 then g", "goal g"]))
    cp = compile_ruleset(rs)
    rng = random.Random(15)
    rows = [[rng.uniform(0.0, 100.0) for _ in range(20)] for _ in range(64)]
    tracemalloc.start()
    try:
        marginals = cp.goal_marginals(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    for row, p in zip(rows[:3], marginals):
        p0, p1, p19 = _p_true(row[0]), _p_true(row[1]), _p_true(row[19])
        assert p == pytest.approx(1.0 - (1.0 - p0 * p1) * p19, abs=1e-12)


def _traced_oracle_rows(rs, rows):
    """The traced peak of one ``oracle_rows`` call, and its results."""
    tracemalloc.start()
    try:
        results = oracle_rows(rs, rows)
        return tracemalloc.get_traced_memory()[1], results
    finally:
        tracemalloc.stop()


def test_oracle_rows_hold_one_block_of_world_weights():
    # at 18 facts a row's 2^18 weights take 8 MiB as a list; the four rows'
    # tables held at once would take 32 MiB. Four rows suffice: traced,
    # each row takes most of a second
    rs = parse("\n".join([*(f"fact f{i} disbelief {5 * i}" for i in range(18)),
                          "rule R: if f0 and f1 or not f17 then g", "goal g"]))
    rng = random.Random(16)
    rows = [[rng.uniform(0.0, 100.0) for _ in range(18)] for _ in range(4)]
    one_row, _ = _traced_oracle_rows(rs, rows[:1])
    all_rows, results = _traced_oracle_rows(rs, rows)
    assert all_rows < 2 * one_row
    for row, result in zip(rows, results):
        p0, p1, p17 = _p_true(row[0]), _p_true(row[1]), _p_true(row[17])
        assert result.p_true == pytest.approx(1.0 - (1.0 - p0 * p1) * p17, abs=1e-12)


def test_oracle_rows_of_64_rows_hold_one_rows_weights():
    # at 12 facts 64 rows' weights would take 2^18 entries, 8 MiB as a
    # list, if held at once; weighed a row at a time they take one row's
    # 2^12 entries, so the call's peak stays near a one-row call's
    rs = parse(_chain_source(12))
    rows = _random_rows(rs, random.Random(25), n_rows=64)
    one_row, _ = _traced_oracle_rows(rs, rows[:1])
    all_rows, results = _traced_oracle_rows(rs, rows)
    assert all_rows < 2 * one_row
    assert [r.p_true for r in results] == [oracle(_with_deltas(rs, row)).p_true
                                           for row in rows]


def _shared_source(n_facts):
    """D_j = S and F_j or T and not F_j for each of n_facts - 2 facts F_j,
    chained by G_j = G_(j-1) and/or D_j. S and T, which every D_j reads,
    are declared last, so they are the world index's high bits."""
    lines = [f"fact F{j} disbelief {(29 * j + 5) % 101}" for j in range(n_facts - 2)]
    lines += ["fact S disbelief 40", "fact T disbelief 75"]
    for j in range(n_facts - 2):
        lines.append(f"rule D{j}: if S and F{j} or T and not F{j} then D{j}")
    lines.append("rule G0: if D0 then G0")
    for j in range(1, n_facts - 2):
        op = "and" if j % 3 else "or"
        lines.append(f"rule G{j}: if G{j - 1} {op} D{j} then G{j}")
    return "\n".join([*lines, f"goal G{n_facts - 3}"])


def test_oracle_rows_equal_the_per_world_loop_around_the_streaming_threshold(monkeypatch):
    # a row streams the facts whose worlds outgrow ORACLE_BLOCK_ENTRIES; at
    # 2^10 entries a row of 9 facts fills half the table, one of 10 fills
    # it, and rows of 11 and 12 facts stream one and two facts
    monkeypatch.setattr(inference, "ORACLE_BLOCK_ENTRIES", 2**10)
    threshold = inference.ORACLE_BLOCK_ENTRIES.bit_length() - 1
    rng = random.Random(19)
    for n_facts in (threshold - 1, threshold, threshold + 1, threshold + 2):
        rs = parse(_shared_source(n_facts))
        assert len(rs.base_facts) == n_facts
        rows = [[0.0] * n_facts, [100.0] * n_facts,
                [rng.choice([0.0, 100.0]) for _ in range(n_facts)],
                list(rs.base_facts.values()),
                *([rng.uniform(0.0, 100.0) for _ in range(n_facts)] for _ in range(3)),
                *_random_rows(rs, rng, n_rows=2)]
        expected = _per_world_oracle_rows(rs, rows)
        assert [r.p_true for r in oracle_rows(rs, rows)] == expected
        assert [oracle_rows(rs, [row])[0].p_true for row in rows] == expected


def test_oracle_of_an_18_fact_chain_holds_its_whole_table_in_16_mib():
    # 18 facts are the most a row keeps in its table: 2^18 floats in a list
    # take 8 MiB, and the last doubling holds the 4 MiB table it doubles
    rs = parse(_chain_source(18))
    tracemalloc.start()
    try:
        result = oracle(rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert result.enumerated_assignments == 2**18


class _SkewedPTrue(float):
    """A fact's P(true) whose complement 1 - p comes out 1e-6 too large, so
    that the fact's P(false) + P(true) is not 1."""

    def __rsub__(self, other):
        return float(other) - float(self) + 1e-6


@pytest.mark.parametrize("n_facts", [10, 20])
def test_oracle_weights_that_do_not_sum_to_1_fail_the_check(monkeypatch, n_facts):
    # 10 facts keep every world in the table, and 20 stream two facts
    amplitudes = inference.fact_amplitudes
    monkeypatch.setattr(inference, "fact_amplitudes", lambda delta: SimpleNamespace(
        p_true=_SkewedPTrue(amplitudes(delta).p_true)))
    with pytest.raises(AssertionError, match="assignment weights must sum to 1"):
        oracle(parse(_chain_source(n_facts)))


_SKEWED_ORACLE = """
import sys
from types import SimpleNamespace
if not sys.flags.optimize:
    sys.exit("expected python -O")
sys.path.insert(0, sys.argv[1])
from test_inference import _SkewedPTrue
from qrbs import inference
from qrbs.ruledsl import parse
amplitudes = inference.fact_amplitudes
inference.fact_amplitudes = lambda delta: SimpleNamespace(
    p_true=_SkewedPTrue(amplitudes(delta).p_true))
inference.oracle(parse(sys.stdin.read()))
"""


def test_oracle_weights_that_do_not_sum_to_1_fail_the_check_under_python_O():
    # -O strips assert statements, and the weight-sum check must outlive it
    result = subprocess.run(
        [sys.executable, "-O", "-c", _SKEWED_ORACLE, str(Path(__file__).parent)],
        input=_chain_source(10), capture_output=True, text=True)
    assert result.returncode == 1, result.stderr
    assert result.stderr.endswith("AssertionError: assignment weights must sum to 1\n")


def test_oracle_of_a_20_fact_chain_holds_no_more_than_an_array_would():
    # the table's last two facts are streamed, so its list of 2^18 floats
    # takes the 8 MiB that 2^20 doubles would; a table of all 20 facts, as
    # a list, would take 32 MiB
    rs = parse(_chain_source(20))
    tracemalloc.start()
    try:
        result = oracle(rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert result.enumerated_assignments == 2**20


def test_facts_at_disbelief_100_weigh_exactly_0_on_true():
    # fact_theta(100) is pi/2, whose cosine is 6.1e-17 in floating point
    rs = parse("fact a disbelief 100\nfact b disbelief 100\n"
               "rule r: if a or b then c\ngoal c")
    cp = compile_ruleset(rs)
    assert cp.p_goal == 0.0
    assert cp.goal_marginals([[100.0, 100.0], [0.0, 100.0]]) == [0.0, 1.0]
    assert oracle(rs).p_true == 0.0


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

    def counting_planes(circuit):
        runs.append(circuit)
        return statevec.circuit_planes(circuit)

    def no_sample(*args):
        raise AssertionError("shot inference must not sample the register")

    for module in (compiler, inference):
        if hasattr(module, "circuit_planes"):
            monkeypatch.setattr(module, "circuit_planes", counting_planes)
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
            assert shots_rows(cp.goal, [0.5, cp.p_goal], 8192, seed)[1].p_true == ones / 8192
            counts.add(ones)
        assert len(counts) > 1


def _uniforms_drawn(shots, p, seed):
    """How many uniforms one Binomial(shots, p) draw takes from ``Random(seed)``."""
    rng, count = random.Random(seed), 0

    def uniform():
        nonlocal count
        count += 1
        return rng.random()

    inference._binomialvariate(SimpleNamespace(random=uniform), shots, p)
    return count


@pytest.mark.parametrize("shots", [1, 50, 8192, 10**9])
def test_every_shots_row_draws_what_a_fresh_generator_would(shots):
    geometric = min(0.1, 5.0 / shots)  # shots * p = 5: the geometric method
    ps = [0.0, 1.0, 0.5, geometric, 0.46875, 1.0 - geometric, 0.0, 1.0, 0.5]
    grew_then_shrank = 0
    for seed in range(20):
        drawn = [_uniforms_drawn(shots, p, seed) for p in ps]
        # p = 0 and 1 draw nothing: the 0.5 row reads past all that the
        # rows before it recorded, and the rows at 0 and 1 after it less
        assert drawn[0] == drawn[1] == drawn[6] == drawn[7] == 0 < drawn[2]
        # the geometric row mostly reads past every row before it, and the
        # BTRS row after it reads less
        grew_then_shrank += drawn[4] < drawn[3] > max(drawn[:3])
        fresh = [inference._binomialvariate(random.Random(seed), shots, p) for p in ps]
        assert shots_rows("g", ps, shots, seed) == [
            InferenceResult("g", ones / shots, (shots - ones) / shots, "shots", shots, seed)
            for ones in fresh
        ]
        assert shots_rows("g", [], shots, seed) == []
    assert grew_then_shrank > 0 or shots == 1


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
