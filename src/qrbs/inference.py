"""Executes compiled programs and checks them against brute-force enumeration.

The enumeration oracle is the ground truth of this package: it assigns each
base fact independently (weight sin^2 theta for true, cos^2 theta for
false), evaluates the boolean network classically, and sums the weights of
goal-true assignments. The goal's truth in each world depends on the rules
alone, so ``oracle_rows`` evaluates each rule once over all worlds, as
bit-planes with one bit per world, while it reads the rule's premise in
``ruledsl.premise_nodes`` order, and weights the worlds for any number of
disbelief rows. The weights are prefix products over the facts in a list
of floats of at most 2^18 entries, so the oracle needs no numpy: up to 18
facts every weight of a row is stored, and past 18 a row's last facts are
multiplied in as the weights are summed. Because compiled circuits are
basis permutations after the preparation layer, the exact quantum marginal
must agree with the oracle to floating-point accuracy; cross_validate
asserts exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import compress, cycle, repeat, tee
from math import fabs, floor, lgamma, log, log2, sqrt
from operator import add, mul
from types import SimpleNamespace
from typing import Callable, Sequence

from .compiler import BudgetError, CompiledProgram, compile_ruleset
from .ruledsl import And, FactRef, Not, RuleSet, premise_nodes, topo_order
from .statevec import check_seed, check_shots
from .uncertainty import fact_amplitudes

MAX_ORACLE_FACTS = 20
# The most entries one block of oracle rows puts in its world-major weight
# table, 8 MiB as a list of floats (32 B an entry: a pointer and a float). A
# block holds one row at least, so a row of up to 18 facts keeps all its
# worlds in the table; a row of more streams its facts past the 18th into
# the folds, which holds the table to 8 MiB at the 20-fact budget too
ORACLE_BLOCK_ENTRIES = 2**18


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
    """Exact goal marginal: the weight of the base-fact worlds whose goal
    plane reads 1 (``CompiledProgram.p_goal``)."""
    p = cp.p_goal
    return InferenceResult(cp.goal, p, 1.0 - p, "exact")


def infer_shots(cp: CompiledProgram, shots: int, seed: int) -> InferenceResult:
    """Goal probability estimated from ``shots`` seeded measurements.

    Each shot measures the circuit's single measured qubit, the goal, so the
    count of ones is one Binomial(shots, p) draw on the exact goal marginal
    ``cp.p_goal``: the one-row case of ``shots_rows``.
    """
    return shots_rows(cp.goal, [cp.p_goal], shots, seed)[0]


def shots_rows(goal: str, ps: Sequence[float], shots: int, seed: int
               ) -> list[InferenceResult]:
    """``shots`` seeded measurements of a goal at each exact marginal in ``ps``.

    Each count of ones is one Binomial(shots, p) draw from
    ``random.Random(seed)``, the standard library's Mersenne Twister
    (MT19937), by ``_binomialvariate``: Devroye's geometric method when
    shots * p < 10, Hörmann's BTRS otherwise. The generator is seeded once
    per call, and its uniforms pass through one ``itertools.tee``. Each row
    reads its own copy of the tee from the first uniform: the copy replays
    what earlier rows drew and draws from the generator only past it, so
    every row sees the uniforms a fresh ``random.Random(seed)`` would
    yield, and no generator state is saved or restored. A row takes a few
    uniforms, and one at p = 0 or 1 takes none, so the tee holds few. Time
    and memory are O(1) in the shot count, and no numpy generator is built.
    """
    check_shots(shots)
    check_seed(seed)
    # the anchor is never read, so each copy of it starts at the first
    # uniform; the tee keeps every uniform a copy has read for later copies
    uniforms = tee(iter(random.Random(seed).random, None), 1)[0]
    stream = SimpleNamespace()
    results = []
    for p in ps:
        stream.random = uniforms.__copy__().__next__
        # min() absorbs norm drift that could put p a few ulps above 1
        ones = _binomialvariate(stream, shots, min(p, 1.0))
        results.append(InferenceResult(
            goal, ones / shots, (shots - ones) / shots, "shots", shots, seed))
    return results


def _binomialvariate(rng: random.Random | SimpleNamespace, n: int, p: float) -> int:
    """A Binomial(n, p) count, 0 <= p <= 1, drawn from ``rng.random``.

    A port of CPython 3.12's ``Random.binomialvariate``, which 3.10 and 3.11
    lack: for the same generator state it returns the same count and
    consumes the same draws. Below n * p = 10 it counts geometric gaps
    between successes (Devroye 1986); otherwise it uses transformed
    rejection with squeeze (BTRS, Hörmann 1993), with the log(v) the paper
    omits from the acceptance test.
    """
    if p == 0.0:
        return 0
    if p == 1.0:
        return n
    uniform = rng.random
    if n == 1:
        return int(uniform() < p)
    if p > 0.5:
        return n - _binomialvariate(rng, n, 1.0 - p)

    if n * p < 10.0:
        x = y = 0
        c = log2(1.0 - p)
        if not c:
            return x
        while True:
            y += floor(log2(uniform()) / c) + 1
            if y > n:
                return x
            x += 1

    spq = sqrt(n * p * (1.0 - p))  # standard deviation
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    setup_complete = False
    while True:
        u = uniform() - 0.5
        us = 0.5 - fabs(u)
        k = floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = uniform()
        if us >= 0.07 and v <= vr:  # squeeze: accept without the test below
            return k
        if not setup_complete:
            alpha = (2.83 + 5.1 / b) * spq
            lpq = log(p / (1.0 - p))
            m = floor((n + 1) * p)  # mode
            h = lgamma(m + 1) + lgamma(n - m + 1)
            setup_complete = True
        v *= alpha / (a / (us * us) + b)
        if log(v) <= h - lgamma(k + 1) - lgamma(n - k + 1) + (k - m) * lpq:
            return k


_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def oracle(rs: RuleSet) -> OracleResult:
    """Classical ground truth by exhaustive enumeration of base-fact worlds.

    The one-row case of ``oracle_rows``, at the RuleSet's own disbeliefs.
    """
    return oracle_rows(rs, [list(rs.base_facts.values())])[0]


def oracle_rows(rs: RuleSet, rows: Sequence[Sequence[float]]) -> list[OracleResult]:
    """``oracle`` of ``rs`` with its base facts at each row of disbeliefs.

    A row holds one disbelief per base fact, in declaration order. The
    worlds are enumerated once, since the goal's truth in a world depends
    on the rules alone; each row then weights them. World w sets fact i
    when bit i of w is 1. Each base fact is a plane, a Python int of 2^k
    bits whose bit w is its value in world w, and each connective is one
    int operation over all worlds at once (and ``&``, or ``|``, not an
    exclusive or with the all-ones plane), so each rule costs a few big-int
    operations, not a loop over worlds. Each premise is read once, in
    ``premise_nodes`` order, with a stack of operand planes; a fact's plane
    is dropped after its last read, counted from the same node lists, so a
    long program holds only its live planes. A world's weight is the product, in
    declaration order, of sin^2 theta for each true fact and cos^2 theta
    for each false one, worked out once per distinct disbelief of the call.
    The rows go in blocks whose table holds at most ``ORACLE_BLOCK_ENTRIES``
    entries (one row at least), and each block's table is one world-major
    list of prefix products over the facts: a fact costs two C-level passes
    over the block, not two per row. That one budget also decides which
    facts stream: a row's table takes as many facts as the budget holds,
    all of them up to 18 facts at 2^18 entries, and the remaining k - 18 stay
    out of the table and are multiplied in as the weights are summed
    (``_goal_weights``). Each row's goal-true weights are summed by a left
    fold in world order, so each row's result equals a separate ``oracle``
    call on a RuleSet with that row's disbeliefs, bit for bit, and the
    memory held is that of one block. Nothing here touches the compiler or
    the circuit: the oracle builds its own planes and weights, and stays an
    independent check of them.
    """
    order = topo_order(rs)
    names = list(rs.base_facts)
    if len(names) > MAX_ORACLE_FACTS:
        raise BudgetError(
            f"enumeration over {len(names)} base facts exceeds "
            f"{MAX_ORACLE_FACTS}"
        )
    for row in rows:
        if len(row) != len(names):
            raise ValueError(
                f"expected {len(names)} disbeliefs, one per base fact, got {len(row)}"
            )
    # P(false) and P(true) of each distinct disbelief, worked out once
    p_false_of: dict[float, float] = {}
    p_true_of: dict[float, float] = {}
    for delta in {delta for row in rows for delta in row}:
        p = fact_amplitudes(delta).p_true
        p_false_of[delta], p_true_of[delta] = 1.0 - p, p
    premises = [premise_nodes(rule.premise) for rule in order]
    # a plane is 2^k bits, so each is dropped after its last read: ``reads``
    # counts the reads left of each fact, the goal's included
    reads = dict.fromkeys([*names, *(rule.conclusion for rule in order)], 0)
    reads[rs.goal] = 1
    for nodes in premises:
        for node in nodes:
            if isinstance(node, FactRef):
                reads[node.name] += 1

    # bit w of a plane is the value in world w, and fact i is bit i of the
    # world index: as with the weights below, each fact doubles the worlds,
    # its false half first, and every earlier plane repeats in the new half
    planes: list[int] = []
    n_worlds = 1
    for _ in names:
        planes = [plane | plane << n_worlds for plane in planes]
        planes.append(((1 << n_worlds) - 1) << n_worlds)
        n_worlds <<= 1
    full = (1 << n_worlds) - 1
    values = dict(zip(names, planes))  # each fact's plane, until its last read
    del planes
    for rule, nodes in zip(order, premises):
        operands: list[int] = []  # planes of the operands not yet used
        for node in nodes:
            if isinstance(node, FactRef):
                reads[node.name] -= 1
                plane = values[node.name] if reads[node.name] else values.pop(node.name)
            elif isinstance(node, Not):
                plane = full ^ operands.pop()
            elif isinstance(node, And):
                plane = operands.pop() & operands.pop()
            else:
                plane = operands.pop() | operands.pop()
            operands.append(plane)
        if reads[rule.conclusion]:
            values[rule.conclusion] = operands.pop()
    # byte w is 1 where the goal holds in world w: the plane's binary
    # digits, most significant first, reversed into world order
    digits = format(values[rs.goal], f"0{n_worlds}b")[::-1]
    goal_true = digits.encode().translate(_DIGIT_BYTES)

    # a row streams the facts whose worlds would outgrow the table's budget
    streamed = max(0, n_worlds.bit_length() - ORACLE_BLOCK_ENTRIES.bit_length())
    block_rows = max(1, ORACLE_BLOCK_ENTRIES >> (len(names) - streamed))
    return [OracleResult(rs.goal, p_goal, n_worlds)
            for start in range(0, len(rows), block_rows)
            for p_goal in _goal_weights(rows[start:start + block_rows], p_false_of.__getitem__,
                                        p_true_of.__getitem__, goal_true, streamed)]


def _goal_weights(block: Sequence[Sequence[float]], p_false: Callable[[float], float],
                  p_true: Callable[[float], float], goal_true: bytes, streamed: int
                  ) -> list[float]:
    """The goal-true weight of each row of disbeliefs in ``block``.

    ``p_false`` and ``p_true`` map a disbelief to a fact's P(false) and
    P(true), and byte w of ``goal_true`` is 1 where the goal holds in world
    w. Fact i is bit i of the world index. The first k - ``streamed`` facts
    build one world-major table, a list of floats whose entry l * R + r is
    row r's weight of low world l: each fact doubles the table, its false
    half first, and cycle() lines each row's factor up with that row's
    entries. The last ``streamed`` facts, none unless a row's worlds
    outgrow ``ORACLE_BLOCK_ENTRIES``, are the high bits h of the world
    index, w = h * 2^(k - streamed) + l, and are never doubled into the
    table: for each h in world order, a row's column of the table goes
    through one ``map(mul, repeat(factor), ...)`` per streamed fact, and
    both folds go on from their running values. Each weight is the product
    of the same factors in the same order as a table of all k facts.

    The goal's fold is ``reduce(add, ...)``, a left fold in world order, as
    the per-world loop adds, so every value is the same bits on every
    Python version. The total over all worlds only checks that the weights
    sum to 1 within a tolerance, so it is the builtin ``sum()``, a C double
    loop: the same left fold up to Python 3.11, and compensated, so closer
    to 1, from 3.12 on. The table is freed on return, before the caller
    builds the next block's.
    """
    n_rows = len(block)
    n_low = len(goal_true) >> streamed  # the worlds of the table's facts
    facts = list(zip(*block))  # each fact's disbelief in each row
    n_table = len(facts) - streamed
    # mul(x, w) is x * w, as in a per-row product
    table = [1.0] * n_rows
    for deltas in facts[:n_table]:
        if n_rows == 1:  # the same factors as cycle() gives, built for less
            falses, trues = repeat(p_false(deltas[0])), repeat(p_true(deltas[0]))
        else:
            falses, trues = cycle(map(p_false, deltas)), cycle(map(p_true, deltas))
        doubled = list(map(mul, falses, table))
        doubled += map(mul, trues, table)
        table = doubled
    # a left fold of 2^k weights may drift from 1 by about 2^k ulps
    tolerance = max(1e-12, len(goal_true) * 2**-52)
    p_goals = []
    for r, row in enumerate(block):
        column = table[r::n_rows] if n_rows > 1 else table  # row r's, low worlds in order
        pairs = [(p_false(delta), p_true(delta)) for delta in row[n_table:]]
        total = p_goal = 0.0
        for h in range(1 << streamed):
            weights = column
            goal_weights = compress(column, goal_true[h * n_low:(h + 1) * n_low])
            for j, pair in enumerate(pairs):  # fact n_table + j is bit j of h
                factor = repeat(pair[h >> j & 1])
                weights = map(mul, factor, weights)
                goal_weights = map(mul, factor, goal_weights)
            total = sum(weights, total)
            p_goal = reduce(add, goal_weights, p_goal)
        assert abs(total - 1.0) <= tolerance, "assignment weights must sum to 1"
        p_goals.append(p_goal)
    return p_goals


def cross_validate(rs: RuleSet, tolerance: float = 1e-9) -> CrossValidation:
    """Compare the exact circuit marginal with the enumeration oracle."""
    exact = infer_exact(compile_ruleset(rs))
    reference = oracle(rs)
    diff = abs(exact.p_true - reference.p_true)
    return CrossValidation(
        rs.goal, exact.p_true, reference.p_true, diff, diff <= tolerance, tolerance
    )
