"""Parser and validator for the categorical rule DSL (``.qrbs`` files).

Grammar (keywords case-insensitive, ``#`` starts a line comment):

    program   := { fact_decl | rule_decl | goal_decl }
    fact_decl := "fact" IDENT [ "disbelief" NUMBER ]
    rule_decl := "rule" IDENT ":" "if" expr "then" IDENT
    expr      := term { "or" term }
    term      := factor { "and" factor }
    factor    := "not" factor | "(" expr ")" | IDENT

    goal_decl := "goal" IDENT

Precedence not > and > or, binary operators left-associative; "not" and
"(" nest at most MAX_NESTING levels deep in one premise. Identifiers
are ``[A-Za-z][A-Za-z0-9_]*``; keywords are reserved. A fact declared
without a ``disbelief`` clause defaults to delta = 0 (certainly true).

A valid program has acyclic dependencies, exactly one goal, at most one
rule concluding any fact, and never concludes a declared base fact.

The checks live in two places. ``parse`` rejects what a RuleSet cannot
represent: lexical and syntax errors, a duplicate fact, a missing or
repeated goal, and over-deep nesting. ``validate`` makes every other check
on a RuleSet, however it was built: disbelief range, duplicate rule, a fact
concluded twice, a base fact concluded, an undeclared fact, a cycle and an
unreachable goal. ``parse`` reports the first of those problems at the
source position of the token it concerns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

import numpy as np

KEYWORDS = frozenset(
    {"fact", "rule", "goal", "if", "then", "and", "or", "not", "disbelief"}
)

# Deepest stack of "not" and "(" one premise may open. The parser recurses
# once per such level, so the cap keeps it inside Python's recursion limit.
# It does not bound an "and"/"or" chain, whose left-deep tree is as deep as
# the chain is long: premise_nodes and validate walk any depth, the compiler
# rejects a premise past its qubit budget before it recurses, and oracle and
# to_source still recurse once per level of the tree.
MAX_NESTING = 100


class DslError(ValueError):
    """Parse or validation failure at a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class FactRef:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


Expr = Union[FactRef, Not, And, Or]


@dataclass(frozen=True)
class Rule:
    name: str
    premise: Expr
    conclusion: str


@dataclass(frozen=True)
class RuleSet:
    """Base facts (name -> disbelief, in declaration order), rules, one goal."""

    base_facts: dict[str, float]
    rules: tuple[Rule, ...]
    goal: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def concluded_by(self) -> dict[str, Rule]:
        return {rule.conclusion: rule for rule in self.rules}


def premise_nodes(expr: Expr) -> Iterator[Expr]:
    """Every node of an expression in pre-order, left to right.

    Walks with an explicit stack: an "and"/"or" chain of any length parses
    to a tree as deep as the chain is long.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.operand)
        elif not isinstance(node, FactRef):
            stack += (node.right, node.left)


def premise_facts(expr: Expr) -> Iterator[str]:
    """Names referenced by an expression, left to right, with repeats."""
    return (node.name for node in premise_nodes(expr) if isinstance(node, FactRef))


# ---------------------------------------------------------------------------
# Lexer


class Token(NamedTuple):
    kind: str  # keyword name, "ident", "number", ":", "(", ")", "eof"
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and source[i] != "\n":
                i += 1
        elif ch.isalpha():
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            word = source[start:i]
            lowered = word.lower()
            kind = lowered if lowered in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += i - start
        elif ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdigit():
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            tokens.append(Token("number", source[start:i], line, col))
            col += i - start
        elif ch in ":()":
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
        else:
            raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self._depth = 0  # "not" and "(" currently open
        # source position of each _problems anchor seen so far
        self.anchors: dict[tuple, tuple[int, int]] = {}
        self.rule_index = 0  # index in RuleSet.rules of the rule being parsed

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise DslError(f"expected {what}, found {shown!r}", tok.line, tok.col)
        return self.advance()

    def mark(self, anchor: tuple, tok: Token) -> None:
        """Record where the problems anchored at ``anchor`` are reported."""
        self.anchors.setdefault(anchor, (tok.line, tok.col))

    # expr := term { "or" term }
    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "or":
            self.advance()
            node = Or(node, self.term())
        return node

    # term := factor { "and" factor }
    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "and":
            self.advance()
            node = And(node, self.factor())
        return node

    # factor := "not" factor | "(" expr ")" | IDENT
    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("not", "("):
            if self._depth >= MAX_NESTING:
                raise DslError(
                    f"expression nested deeper than {MAX_NESTING} levels",
                    tok.line,
                    tok.col,
                )
            self.advance()
            self._depth += 1
            if tok.kind == "not":
                node: Expr = Not(self.factor())
            else:
                node = self.expr()
                self.expect(")", "')'")
            self._depth -= 1
            return node
        ident = self.expect("ident", "a fact name")
        self.mark(("leaf", self.rule_index, ident.text), ident)
        return FactRef(ident.text)


def parse(source: str) -> RuleSet:
    """Parse DSL text into a validated RuleSet.

    The parser rejects only what a RuleSet cannot represent: lexical and
    syntax errors, a duplicate fact, a missing or repeated goal, and
    "not"/"(" nested past MAX_NESTING. Every semantic check is made by
    validate; parse raises the first problem validate would report, at the
    token it concerns. Raises DslError with a 1-based line and column.
    """
    parser = _Parser(_tokenize(source))
    base_facts: dict[str, float] = {}
    rules: list[Rule] = []
    goal: str | None = None

    while True:
        tok = parser.peek()
        if tok.kind == "eof":
            break
        parser.advance()
        if tok.kind == "fact":
            name_tok = parser.expect("ident", "a fact name")
            if name_tok.text in base_facts:
                raise DslError(
                    f"duplicate fact '{name_tok.text}'", name_tok.line, name_tok.col
                )
            delta = 0.0
            if parser.peek().kind == "disbelief":
                parser.advance()
                num_tok = parser.expect("number", "a number")
                delta = float(num_tok.text)
                parser.mark(("fact", name_tok.text), num_tok)
            base_facts[name_tok.text] = delta
        elif tok.kind == "rule":
            parser.rule_index = len(rules)
            name_tok = parser.expect("ident", "a rule name")
            parser.mark(("rule", parser.rule_index), name_tok)
            parser.expect(":", "':'")
            parser.expect("if", "'if'")
            premise = parser.expr()
            parser.expect("then", "'then'")
            concl_tok = parser.expect("ident", "a fact name")
            parser.mark(("conclusion", parser.rule_index), concl_tok)
            rules.append(Rule(name_tok.text, premise, concl_tok.text))
        elif tok.kind == "goal":
            name_tok = parser.expect("ident", "a fact name")
            if goal is not None:
                raise DslError(
                    "multiple goal declarations", name_tok.line, name_tok.col
                )
            goal = name_tok.text
            parser.mark(("goal",), name_tok)
        else:
            shown = tok.text or "end of input"
            raise DslError(
                f"expected 'fact', 'rule' or 'goal', found {shown!r}",
                tok.line,
                tok.col,
            )

    if goal is None:
        eof = parser.peek()
        raise DslError("missing goal declaration", eof.line, eof.col)
    rs = RuleSet(base_facts, tuple(rules), goal)
    problem = next(_problems(rs), None)
    if problem is not None:
        message, anchor = problem
        raise DslError(message, *parser.anchors[anchor])
    return rs


# ---------------------------------------------------------------------------
# Validation and ordering


def _find_cycle(rs: RuleSet) -> list[str] | None:
    """First dependency cycle among concluded facts, as a closed name path.

    A depth-first search over the defining rules, with an explicit stack so
    that a chain of any length fits.
    """
    defining = {rule.conclusion: rule for rule in rs.rules}
    state: dict[str, int] = {}  # 0 on the current path, 1 done
    for rule in rs.rules:
        if rule.conclusion in state:
            continue
        state[rule.conclusion] = 0
        path = [rule.conclusion]
        deps = [premise_facts(defining[rule.conclusion].premise)]
        while path:
            dep = next(deps[-1], None)
            if dep is None:
                state[path.pop()] = 1
                deps.pop()
            elif dep in defining and dep not in state:
                state[dep] = 0
                path.append(dep)
                deps.append(premise_facts(defining[dep].premise))
            elif state.get(dep) == 0:
                return path[path.index(dep) :] + [dep]
    return None


def _problems(rs: RuleSet) -> Iterator[tuple[str, tuple]]:
    """Every semantic problem of a RuleSet, as (message, anchor) pairs.

    The anchor names what the problem concerns, for parse to place it in
    the source: ("fact", name) a base fact's disbelief, ("rule", i) the
    name of ``rs.rules[i]``, ("conclusion", i) its conclusion, ("leaf", i,
    name) the first use of a fact in its premise, and ("goal",) the goal.
    """
    for name, delta in rs.base_facts.items():
        if not 0.0 <= float(delta) <= 100.0:
            yield f"fact '{name}' disbelief {delta} outside [0, 100]", ("fact", name)
    seen_rules: set[str] = set()
    concluded: dict[str, int] = {}  # fact -> index of the first rule concluding it
    for i, rule in enumerate(rs.rules):
        if rule.name in seen_rules:
            yield f"duplicate rule '{rule.name}'", ("rule", i)
        seen_rules.add(rule.name)
        if rule.conclusion in concluded:
            first = rs.rules[concluded[rule.conclusion]].name
            yield (
                f"fact '{rule.conclusion}' concluded by {first} and {rule.name}",
                ("conclusion", i),
            )
        else:
            concluded[rule.conclusion] = i
        if rule.conclusion in rs.base_facts:
            yield (
                f"fact '{rule.conclusion}' is declared as a base fact and "
                f"concluded by {rule.name}",
                ("conclusion", i),
            )
    for i, rule in enumerate(rs.rules):
        for name in premise_facts(rule.premise):
            if name not in rs.base_facts and name not in concluded:
                yield (
                    f"undeclared fact '{name}' in premise of {rule.name}",
                    ("leaf", i, name),
                )
    cycle = _find_cycle(rs)
    if cycle is not None:
        yield "cycle detected: " + " -> ".join(cycle), ("rule", concluded[cycle[0]])
    if rs.goal not in rs.base_facts and rs.goal not in concluded:
        yield f"goal '{rs.goal}' is neither a base fact nor concluded", ("goal",)


def validate(rs: RuleSet) -> list[str]:
    """Diagnostics for a structurally built RuleSet; empty iff it is valid."""
    return [message for message, _ in _problems(rs)]


def topo_order(rs: RuleSet) -> list[Rule]:
    """Rules reordered so each fires after the rules feeding its premise.

    Ties break by declaration order, so the result is deterministic.
    """
    available = set(rs.base_facts)
    remaining = list(rs.rules)
    ordered: list[Rule] = []
    while remaining:
        for i, rule in enumerate(remaining):
            if all(name in available for name in premise_facts(rule.premise)):
                ordered.append(rule)
                available.add(rule.conclusion)
                del remaining[i]
                break
        else:
            names = ", ".join(rule.name for rule in remaining)
            raise ValueError(f"rules cannot be ordered (cycle among: {names})")
    return ordered


# ---------------------------------------------------------------------------
# Pretty-printing


def _fmt_delta(delta: float) -> str:
    if delta == int(delta):
        return str(int(delta))
    return np.format_float_positional(delta, trim="-")


def _expr_source(expr: Expr) -> tuple[str, int]:
    # precedence: or=1, and=2, not=3, atom=4
    if isinstance(expr, FactRef):
        return expr.name, 4
    if isinstance(expr, Not):
        inner, prec = _expr_source(expr.operand)
        if prec < 3:
            inner = f"({inner})"
        return f"not {inner}", 3
    op, prec = ("and", 2) if isinstance(expr, And) else ("or", 1)
    left, lp = _expr_source(expr.left)
    right, rp = _expr_source(expr.right)
    if lp < prec:
        left = f"({left})"
    if rp <= prec:  # right operand needs parens even at equal precedence
        right = f"({right})"
    return f"{left} {op} {right}", prec


def to_source(rs: RuleSet) -> str:
    """DSL text that parses back to an equal RuleSet."""
    lines = []
    for name, delta in rs.base_facts.items():
        if delta == 0:
            lines.append(f"fact {name}")
        else:
            lines.append(f"fact {name} disbelief {_fmt_delta(delta)}")
    for rule in rs.rules:
        premise, _ = _expr_source(rule.premise)
        lines.append(f"rule {rule.name}: if {premise} then {rule.conclusion}")
    lines.append(f"goal {rs.goal}")
    return "\n".join(lines) + "\n"
