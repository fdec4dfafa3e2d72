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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

import numpy as np

KEYWORDS = frozenset(
    {"fact", "rule", "goal", "if", "then", "and", "or", "not", "disbelief"}
)

# Deepest stack of "not" and "(" one premise may open. The parser, the
# compiler, the oracle and to_source all recurse once or more per level, so
# the cap keeps every one of them well inside Python's recursion limit.
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


def premise_facts(expr: Expr) -> Iterator[str]:
    """Names referenced by an expression, left to right, with repeats."""
    if isinstance(expr, FactRef):
        yield expr.name
    elif isinstance(expr, Not):
        yield from premise_facts(expr.operand)
    else:
        yield from premise_facts(expr.left)
        yield from premise_facts(expr.right)


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
        # first source position of each fact referenced by the premise
        # currently being parsed; reset per rule
        self._leaf_positions: dict[str, tuple[int, int]] = {}

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
        self._leaf_positions.setdefault(ident.text, (ident.line, ident.col))
        return FactRef(ident.text)


def parse(source: str) -> RuleSet:
    """Parse DSL text into a validated RuleSet.

    Raises DslError (with 1-based line and column) on the first lexical,
    syntactic or semantic problem.
    """
    parser = _Parser(_tokenize(source))

    base_facts: dict[str, float] = {}
    fact_pos: dict[str, tuple[int, int]] = {}
    rules: list[Rule] = []
    rule_pos: dict[str, tuple[int, int]] = {}
    concluded: dict[str, str] = {}  # fact -> rule that concludes it
    conclusion_pos: dict[str, tuple[int, int]] = {}
    leaf_pos: dict[str, dict[str, tuple[int, int]]] = {}  # rule -> fact -> pos
    goal: str | None = None
    goal_tok: Token | None = None

    while True:
        tok = parser.peek()
        if tok.kind == "eof":
            break
        if tok.kind == "fact":
            parser.advance()
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
                if not 0.0 <= delta <= 100.0:
                    raise DslError(
                        f"disbelief {num_tok.text} outside [0, 100]",
                        num_tok.line,
                        num_tok.col,
                    )
            base_facts[name_tok.text] = delta
            fact_pos[name_tok.text] = (name_tok.line, name_tok.col)
        elif tok.kind == "rule":
            parser.advance()
            name_tok = parser.expect("ident", "a rule name")
            if name_tok.text in rule_pos:
                raise DslError(
                    f"duplicate rule '{name_tok.text}'", name_tok.line, name_tok.col
                )
            parser.expect(":", "':'")
            parser.expect("if", "'if'")
            parser._leaf_positions = {}
            premise = parser.expr()
            parser.expect("then", "'then'")
            concl_tok = parser.expect("ident", "a fact name")
            if concl_tok.text in concluded:
                raise DslError(
                    f"fact '{concl_tok.text}' concluded by "
                    f"{concluded[concl_tok.text]} and {name_tok.text}",
                    concl_tok.line,
                    concl_tok.col,
                )
            rules.append(Rule(name_tok.text, premise, concl_tok.text))
            rule_pos[name_tok.text] = (name_tok.line, name_tok.col)
            concluded[concl_tok.text] = name_tok.text
            conclusion_pos[concl_tok.text] = (concl_tok.line, concl_tok.col)
            leaf_pos[name_tok.text] = parser._leaf_positions
        elif tok.kind == "goal":
            parser.advance()
            name_tok = parser.expect("ident", "a fact name")
            if goal is not None:
                raise DslError(
                    "multiple goal declarations", name_tok.line, name_tok.col
                )
            goal = name_tok.text
            goal_tok = name_tok
        else:
            shown = tok.text or "end of input"
            raise DslError(
                f"expected 'fact', 'rule' or 'goal', found {shown!r}",
                tok.line,
                tok.col,
            )

    eof = parser.peek()
    if goal is None or goal_tok is None:
        raise DslError("missing goal declaration", eof.line, eof.col)

    # semantic checks, each anchored to the most relevant source position
    for name in concluded:
        if name in base_facts:
            line, col = conclusion_pos[name]
            raise DslError(
                f"fact '{name}' is declared as a base fact and concluded by "
                f"{concluded[name]}",
                line,
                col,
            )
    for rule in rules:
        for name in premise_facts(rule.premise):
            if name not in base_facts and name not in concluded:
                line, col = leaf_pos[rule.name][name]
                raise DslError(f"undeclared fact '{name}'", line, col)

    rs = RuleSet(base_facts, tuple(rules), goal)
    cycle = _find_cycle(rs)
    if cycle is not None:
        line, col = rule_pos[concluded[cycle[0]]]
        raise DslError("cycle detected: " + " -> ".join(cycle), line, col)
    if goal not in base_facts and goal not in concluded:
        raise DslError(
            f"goal '{goal}' is neither a base fact nor concluded",
            goal_tok.line,
            goal_tok.col,
        )
    return rs


# ---------------------------------------------------------------------------
# Validation and ordering


def _find_cycle(rs: RuleSet) -> list[str] | None:
    """First dependency cycle among concluded facts, as a closed name path."""
    defining = {rule.conclusion: rule for rule in rs.rules}
    state: dict[str, int] = {}  # 0 visiting, 1 done
    stack: list[str] = []

    def visit(fact: str) -> list[str] | None:
        if state.get(fact) == 1 or fact not in defining:
            return None
        if state.get(fact) == 0:
            return stack[stack.index(fact) :] + [fact]
        state[fact] = 0
        stack.append(fact)
        for dep in premise_facts(defining[fact].premise):
            found = visit(dep)
            if found is not None:
                return found
        stack.pop()
        state[fact] = 1
        return None

    for rule in rs.rules:
        found = visit(rule.conclusion)
        if found is not None:
            return found
    return None


def validate(rs: RuleSet) -> list[str]:
    """Diagnostics for a structurally built RuleSet; empty iff it is valid."""
    problems: list[str] = []
    for name, delta in rs.base_facts.items():
        if not 0.0 <= float(delta) <= 100.0:
            problems.append(f"fact '{name}' disbelief {delta} outside [0, 100]")
    seen_rules: set[str] = set()
    concluded: dict[str, str] = {}
    for rule in rs.rules:
        if rule.name in seen_rules:
            problems.append(f"duplicate rule '{rule.name}'")
        seen_rules.add(rule.name)
        if rule.conclusion in concluded:
            problems.append(
                f"fact '{rule.conclusion}' concluded by "
                f"{concluded[rule.conclusion]} and {rule.name}"
            )
        else:
            concluded[rule.conclusion] = rule.name
        if rule.conclusion in rs.base_facts:
            problems.append(
                f"fact '{rule.conclusion}' is declared as a base fact and "
                f"concluded by {rule.name}"
            )
    for rule in rs.rules:
        for name in premise_facts(rule.premise):
            if name not in rs.base_facts and name not in concluded:
                problems.append(
                    f"undeclared fact '{name}' in premise of {rule.name}"
                )
    cycle = _find_cycle(rs)
    if cycle is not None:
        problems.append("cycle detected: " + " -> ".join(cycle))
    if rs.goal not in rs.base_facts and rs.goal not in concluded:
        problems.append(f"goal '{rs.goal}' is neither a base fact nor concluded")
    return problems


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
