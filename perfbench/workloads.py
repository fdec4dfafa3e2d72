"""Seeded inputs, timed operations and answer checks for the four workloads.

Every expected answer is computed here from the generated inputs alone,
never from qrbs output: closed-form propagation on tree-shaped networks
(each fact referenced once, so AND is p*q, OR is 1-(1-p)(1-q), NOT is
1-p), and enumeration over numpy bit-planes for networks that reuse a
fact. The probability of a base fact comes from the paper's chain
alpha = pi*delta/100, theta = (pi-alpha)/2, P(true) = sin^2(theta).

A workload is a fixed list of operations per round. The worker runs whole
rounds, so every run carries the same mix of operations whatever its
length. Each operation is a pair: ``run`` is the timed call into qrbs, and
``check`` inspects what it returned, untimed and with tracing paused.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qrbs import cli, compiler, inference, reference, ruledsl, statevec

SHOTS = 8192
EXACT_TOL = 1e-9

# An expression of the benchmark's own network model:
# ("fact", name) | ("not", e) | ("and", l, r) | ("or", l, r).
Model = tuple


@dataclass(frozen=True)
class Network:
    facts: dict[str, float]  # name -> disbelief, in declaration order
    rules: tuple[tuple[str, Model, str], ...]  # (name, premise, conclusion), dependency order
    goal: str
    qubits: int  # base facts plus one ancilla per connective

    def source(self, rng: random.Random) -> str:
        """DSL text with the rules declared in a shuffled order."""
        lines = [f"fact {name} disbelief {delta!r}" for name, delta in self.facts.items()]
        rules = [f"rule {n}: if {_text(e)} then {c}" for n, e, c in self.rules]
        rng.shuffle(rules)
        return "\n".join(lines + rules + [f"goal {self.goal}"]) + "\n"

    def ruleset(self, rng: random.Random) -> ruledsl.RuleSet:
        rules = [ruledsl.Rule(n, _ast(e), c) for n, e, c in self.rules]
        rng.shuffle(rules)
        return ruledsl.RuleSet(dict(self.facts), tuple(rules), self.goal)


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def p_true(delta: float) -> float:
    theta = (math.pi - math.pi * delta / 100.0) / 2.0
    return math.sin(theta) ** 2


def _text(e: Model) -> str:
    if e[0] == "fact":
        return e[1]
    if e[0] == "not":
        return f"not ({_text(e[1])})"
    return f"({_text(e[1])} {e[0]} {_text(e[2])})"


def _ast(e: Model) -> ruledsl.Expr:
    if e[0] == "fact":
        return ruledsl.FactRef(e[1])
    if e[0] == "not":
        return ruledsl.Not(_ast(e[1]))
    node = ruledsl.And if e[0] == "and" else ruledsl.Or
    return node(_ast(e[1]), _ast(e[2]))


def _model(expr: Any) -> Model:
    """The benchmark's model of a parsed qrbs expression."""
    kind = type(expr).__name__
    if kind == "FactRef":
        return ("fact", expr.name)
    if kind == "Not":
        return ("not", _model(expr.operand))
    return (kind.lower(), _model(expr.left), _model(expr.right))


def network(rng: random.Random, n_facts: int, rule_kinds: list[list[str]],
            shared: bool) -> Network:
    """Random network with exactly the given connectives in each rule.

    A rule with b binary connectives takes b+1 leaves. With ``shared`` the
    leaves are drawn with replacement from the base facts and the earlier
    conclusions. Without it each name is consumed once, which makes the
    network a tree; the binary connectives must then total n_facts-1, so
    that the last conclusion is the one name left.
    """
    facts = {f"f{i}": round(rng.uniform(0.0, 100.0), 3) for i in range(n_facts)}
    pool = list(facts)
    rules = []
    for r, kinds in enumerate(rule_kinds):
        n_leaves = sum(k != "not" for k in kinds) + 1
        if shared:
            leaves = rng.choices(pool, k=n_leaves)
        else:
            leaves = rng.sample(pool, n_leaves)
            for name in leaves:
                pool.remove(name)
        nodes: list[Model] = [("fact", name) for name in leaves]
        for kind in rng.sample(kinds, len(kinds)):
            if kind == "not":
                i = rng.randrange(len(nodes))
                nodes[i] = ("not", nodes[i])
            else:
                i, j = sorted(rng.sample(range(len(nodes)), 2))
                right, left = nodes.pop(j), nodes.pop(i)
                nodes.append((kind, left, right))
        rules.append((f"r{r}", nodes[0], f"c{r}"))
        pool.append(f"c{r}")
    if not shared and len(pool) != 1:
        raise ValueError("a tree needs n_facts-1 binary connectives")
    qubits = n_facts + sum(len(kinds) for kinds in rule_kinds)
    return Network(facts, tuple(rules), rules[-1][2], qubits)


def _split(rng: random.Random, kinds: list[str], n_rules: int) -> list[list[str]]:
    """Shuffle the connectives and cut them into n_rules runs, each with a
    binary connective."""
    kinds = list(kinds)
    while True:
        rng.shuffle(kinds)
        cuts = sorted(rng.sample(range(1, len(kinds)), n_rules - 1))
        parts = [kinds[a:b] for a, b in zip([0] + cuts, cuts + [len(kinds)])]
        if all(any(k != "not" for k in part) for part in parts):
            return parts


def closed_form(net: Network) -> float:
    """Goal probability of a tree-shaped network by propagation."""
    p = {name: p_true(delta) for name, delta in net.facts.items()}

    def value(e: Model) -> float:
        if e[0] == "fact":
            return p[e[1]]
        if e[0] == "not":
            return 1.0 - value(e[1])
        a, b = value(e[1]), value(e[2])
        return a * b if e[0] == "and" else 1.0 - (1.0 - a) * (1.0 - b)

    for _, premise, conclusion in net.rules:
        p[conclusion] = value(premise)
    return p[net.goal]


def enumerated(net: Network) -> float:
    """Goal probability of any network, weighting all 2^facts worlds at once."""
    worlds = np.arange(2 ** len(net.facts))
    weight = np.ones(worlds.size)
    truth: dict[str, np.ndarray] = {}
    for i, (name, delta) in enumerate(net.facts.items()):
        truth[name] = (worlds >> i) & 1 == 1
        weight *= np.where(truth[name], p_true(delta), 1.0 - p_true(delta))

    def value(e: Model) -> np.ndarray:
        if e[0] == "fact":
            return truth[e[1]]
        if e[0] == "not":
            return ~value(e[1])
        a, b = value(e[1]), value(e[2])
        return a & b if e[0] == "and" else a | b

    for _, premise, conclusion in net.rules:
        truth[conclusion] = value(premise)
    return float(weight[truth[net.goal]].sum())


def shots_ok(estimate: float, p: float, rounding: float = 0.0) -> bool:
    """Shot estimate within 6 standard deviations plus 6 counts of p.

    A seeded draw outside this band has probability below 1e-8, so a
    failure means a wrong distribution, not bad luck.
    """
    band = (6.0 * math.sqrt(SHOTS * max(0.0, p * (1.0 - p))) + 6.0) / SHOTS
    return abs(estimate - p) <= band + rounding


def _close(value: float, expected: float, tol: float = EXACT_TOL) -> bool:
    return abs(value - expected) <= tol


class Workload:
    """Seeded inputs plus the operations of round ``r``."""

    name = ""
    tail_percentile = 99

    def ops(self, r: int) -> list[Op]:
        raise NotImplementedError


class Sweep(Workload):
    """Programs of 4..14 qubits through the whole pipeline, from DSL text."""

    name = "sweep"
    tail_percentile = 99

    def __init__(self, seed: int, work: Path):
        rng = random.Random(f"sweep:{seed}")
        self.nets = []
        for qubits in range(4, 15):
            n_facts = (qubits + 1) // 2
            internal = qubits - n_facts
            n_not = internal // 4
            n_or = (internal - n_not) // 2
            kinds = ["not"] * n_not + ["or"] * n_or + ["and"] * (internal - n_not - n_or)
            n_rules = max(1, (internal - n_not) // 2)
            for _ in range(8):
                parts = _split(rng, kinds, n_rules)
                self.nets.append(network(rng, n_facts, parts, shared=True))
        self.texts = [net.source(rng) for net in self.nets]
        self.shot_seed = rng.randrange(2**32)
        self.expected = functools.cache(lambda i: enumerated(self.nets[i]))

    def ops(self, r: int) -> list[Op]:
        return [self._op(i, self.shot_seed + r * len(self.nets) + i)
                for i in range(len(self.nets))]

    def _op(self, i: int, shot_seed: int) -> Op:
        text, net = self.texts[i], self.nets[i]

        def run():
            rs = ruledsl.parse(text)
            cp = compiler.compile_ruleset(rs)
            exact = inference.infer_exact(cp)
            shots = inference.infer_shots(cp, SHOTS, shot_seed)
            return rs, cp, exact, shots, inference.oracle(rs)

        def check(out) -> bool:
            rs, cp, exact, shots, truth = out
            p = self.expected(i)
            rules = {rule.name: (_model(rule.premise), rule.conclusion) for rule in rs.rules}
            return (rs.base_facts == net.facts and rs.goal == net.goal
                    and rules == {n: (e, c) for n, e, c in net.rules}
                    and cp.circuit.n_qubits == net.qubits
                    and _close(exact.p_true, p) and _close(exact.p_false, 1.0 - p)
                    and _close(exact.p_true, truth.p_true)
                    and truth.enumerated_assignments == 2 ** len(net.facts)
                    and shots.shots == SHOTS and shots.seed == shot_seed
                    and shots_ok(shots.p_true, p))

        return Op("sweep", run, check)


class Wide(Workload):
    """16-qubit programs over 8 base facts: the dense simulator dominates."""

    name = "wide"
    tail_percentile = 90
    KINDS = ["or"] * 4 + ["and"] * 3 + ["not"]  # 8 facts + 8 ancillas = 16 qubits

    def __init__(self, seed: int, work: Path):
        rng = random.Random(f"wide:{seed}")
        self.nets = [network(rng, 8, _split(rng, self.KINDS, 3), shared=False)
                     for _ in range(4)]
        self.rulesets = [net.ruleset(rng) for net in self.nets]
        self.shot_seed = rng.randrange(2**32)
        self.expected = functools.cache(lambda i: closed_form(self.nets[i]))

    def ops(self, r: int) -> list[Op]:
        return [self._op(i, self.shot_seed + r * len(self.nets) + i)
                for i in range(len(self.nets))]

    def _op(self, i: int, shot_seed: int) -> Op:
        rs = self.rulesets[i]

        def run():
            cp = compiler.compile_ruleset(rs)
            return cp, inference.infer_exact(cp), inference.infer_shots(cp, SHOTS, shot_seed)

        def check(out) -> bool:
            cp, exact, shots = out
            p = self.expected(i)
            return (cp.circuit.n_qubits == self.nets[i].qubits
                    and _close(exact.p_true, p) and _close(exact.p_false, 1.0 - p)
                    and shots.seed == shot_seed and shots_ok(shots.p_true, p))

        return Op("wide", run, check)


class Enum(Workload):
    """The enumeration oracle alone on 14-fact trees (29 qubits, past the
    simulator budget)."""

    name = "enum"
    tail_percentile = 90
    KINDS = ["or"] * 6 + ["and"] * 7 + ["not"] * 2

    def __init__(self, seed: int, work: Path):
        rng = random.Random(f"enum:{seed}")
        self.nets = [network(rng, 14, _split(rng, self.KINDS, 4), shared=False)
                     for _ in range(16)]
        self.rulesets = [net.ruleset(rng) for net in self.nets]
        self.expected = functools.cache(lambda i: closed_form(self.nets[i]))

    def ops(self, r: int) -> list[Op]:
        return [self._op(i) for i in range(len(self.nets))]

    def _op(self, i: int) -> Op:
        rs = self.rulesets[i]

        def check(out) -> bool:
            return (_close(out.p_true, self.expected(i))
                    and out.enumerated_assignments == 2 ** len(self.nets[i].facts))

        return Op("enum", lambda: inference.oracle(rs), check)


def _table8_truth() -> list[tuple[tuple[int, ...], float, float, str]]:
    """(deltas, printed, closed form, flag) for each reference row of Table 8.

    The closed form is R = ((A and B) or C) and (D or E); a row MATCHes
    when it lies within 0.02 of the printed value.
    """
    rows = []
    for deltas, printed in reference.TABLE8:
        a, b, c, d, e = (p_true(x) for x in deltas)
        r = (1.0 - (1.0 - a * b) * (1.0 - c)) * (1.0 - (1.0 - d) * (1.0 - e))
        rows.append((deltas, printed, r, "MATCH" if abs(r - printed) <= 0.02 else "DIVERGES"))
    return rows


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return list(csv.reader(line for line in lines if not line.startswith("#")))[1:]


class Cli(Workload):
    """``qrbs.cli.main`` in-process: run, compile, tables 7 and table8."""

    name = "cli"
    tail_percentile = 99
    KINDS = ["or"] * 2 + ["and"] * 2 + ["not"]  # 5 facts + 5 ancillas = 10 qubits

    def __init__(self, seed: int, work: Path):
        rng = random.Random(f"cli:{seed}")
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.nets = [network(rng, 5, _split(rng, self.KINDS, 2), shared=False)
                     for _ in range(4)]
        self.paths = []
        for i, net in enumerate(self.nets):
            path = work / f"prog{i}.qrbs"
            path.write_text(net.source(rng), encoding="utf-8")
            self.paths.append(str(path))
        self.shot_seed = rng.randrange(2**32)
        self.expected = functools.cache(lambda i: closed_form(self.nets[i]))
        golden = Path(__file__).resolve().parent.parent / "tests/data/table8_flags.csv"
        self.golden_flags = [row[-1] for row in
                             csv.reader(golden.read_text(encoding="utf-8").splitlines())]
        self.table8 = _table8_truth()

    def ops(self, r: int) -> list[Op]:
        i = r % len(self.nets)
        seed = self.shot_seed + r
        ops = [self._run(i, fmt, None) for fmt in ("human", "csv", "jsonl")]
        ops += [self._run(i, fmt, seed) for fmt in ("human", "csv", "jsonl")]
        return ops + [self._compile(i), self._tables7(seed), self._table8(seed)]

    @staticmethod
    def _main(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def _run(self, i: int, fmt: str, seed: int | None) -> Op:
        argv = ["run", self.paths[i], "--format", fmt]
        argv += ["--mode", "exact"] if seed is None else ["--mode", "shots", "--seed", str(seed)]

        def check(out) -> bool:
            code, text = out
            p = self.expected(i)
            if fmt == "jsonl":
                record = json.loads(text)
                got, rounding = record["p_true"], 0.0
                echo = (record["shots"], record["seed"])
            elif fmt == "csv":
                row = dict(zip(*csv.reader(text.splitlines())))
                got, rounding = float(row["p_true"]), 5e-7
                echo = (int(row["shots"]) if row["shots"] else None,
                        int(row["seed"]) if row["seed"] else None)
            else:
                fields = dict(f.split("=") for f in text.split()[1:])
                got, rounding = float(fields["p_true"]), 5e-7
                echo = (int(fields["shots"]) if "shots" in fields else None,
                        int(fields["seed"]) if "seed" in fields else None)
            if seed is None:
                ok = _close(got, p, EXACT_TOL + rounding) and echo == (None, None)
            else:
                ok = shots_ok(got, p, rounding) and echo == (SHOTS, seed)
            return code == 0 and ok

        return Op("cli.run", lambda: self._main(argv), check)

    def _compile(self, i: int) -> Op:
        out_path = self.work / f"prog{i}.circuit"
        argv = ["compile", self.paths[i], "--out", str(out_path)]

        def run():
            code, _ = self._main(argv)
            return code, compiler.circuit_from_text(out_path.read_text(encoding="utf-8"))

        def check(out) -> bool:
            code, circuit = out
            state = statevec.run(circuit, statevec.init_zero(circuit.n_qubits))
            got = statevec.marginal_prob_one(state, circuit.measured_qubit)
            # theta is written with 6 decimals: each fact may move by 5e-7
            tol = EXACT_TOL + 5e-7 * len(self.nets[i].facts)
            return (code == 0 and circuit.n_qubits == self.nets[i].qubits
                    and _close(got, self.expected(i), tol))

        return Op("cli.compile", run, check)

    def _tables7(self, seed: int) -> Op:
        out_path = self.work / "table7.csv"
        argv = ["tables", "7", "--out", str(out_path), "--seed", str(seed)]

        def check(out) -> bool:
            rows = _csv_rows(out_path)
            deltas = [int(row[0]) for row in rows]
            return (out[0] == 0 and deltas == list(range(0, 101, 10))
                    and all(_close(float(row[1]), p_true(d), 5e-6 + EXACT_TOL)
                            and shots_ok(float(row[6]), p_true(d), 5e-6)
                            for d, row in zip(deltas, rows)))

        return Op("cli.tables", lambda: self._main(argv), check)

    def _table8(self, seed: int) -> Op:
        out_path = self.work / "table8.csv"
        argv = ["table8", "--out", str(out_path), "--seed", str(seed)]

        def check(out) -> bool:
            rows = _csv_rows(out_path)
            flags = [row[-1] for row in rows]
            return (out[0] == 0 and len(rows) == len(self.table8)
                    and all(row[:5] == [str(x) for x in deltas]
                            and _close(float(row[5]), r, 5e-6 + EXACT_TOL)
                            and _close(float(row[6]), r, 5e-6 + EXACT_TOL)
                            and shots_ok(float(row[7]), r, 5e-6)
                            and _close(float(row[8]), printed, 5e-6)
                            for row, (deltas, printed, r, _) in zip(rows, self.table8))
                    and flags == [flag for *_, flag in self.table8] == self.golden_flags)

        return Op("cli.table8", lambda: self._main(argv), check)


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Sweep, Wide, Enum, Cli)}
