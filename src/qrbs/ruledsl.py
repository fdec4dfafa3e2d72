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
are ``[A-Za-z][A-Za-z0-9_]*`` and numbers ``[0-9]+(.[0-9]+)?``, in ASCII
only; keywords are reserved. Letters, digits and dots glued to a number
belong to it, as does a sign right after an ``e`` or ``E``, so ``1e400`` and
``1e-5`` are each one malformed number, not ``1`` and ``e400``.
A fact declared without a ``disbelief`` clause defaults to delta = 0
(certainly true).

A valid program has acyclic dependencies, exactly one goal, at most one
rule concluding any fact, and never concludes a declared base fact.

The checks live in two places. ``parse`` rejects what a RuleSet cannot
represent: lexical and syntax errors, a duplicate fact, a missing or
repeated goal, and over-deep nesting. ``validate`` makes every other check
on a RuleSet, however it was built: disbelief range, duplicate rule, a fact
concluded twice, a base fact concluded, an undeclared fact, a cycle and an
unreachable goal. ``parse`` reports the first of those problems at the
source position of the token it concerns, and otherwise keeps the firing
order its check found on the RuleSet, for ``topo_order``.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Union

import numpy as np

KEYWORDS = frozenset(
    {"fact", "rule", "goal", "if", "then", "and", "or", "not", "disbelief"}
)

# Deepest stack of "not" and "(" one premise may open. The parser recurses
# once per such level, so the cap keeps it inside Python's recursion limit.
# It does not bound an "and"/"or" chain, whose left-deep tree is as deep as
# the chain is long: premise_nodes and validate walk any depth, the compiler
# rejects a premise past its qubit budget before it recurses, to_source
# walks with an explicit stack, and oracle still recurses once per level.
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
    """Base facts (name -> disbelief, in declaration order), rules, one goal.

    Treat instances as immutable: ``topo_order`` validates a RuleSet once and
    keeps its firing order in ``_order``, which takes no part in equality or
    repr. ``parse`` sets it, so a parsed RuleSet is never validated again.
    """

    base_facts: dict[str, float]
    rules: tuple[Rule, ...]
    goal: str
    _order: tuple[Rule, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))


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


# a token, a newline, a comment, or any other non-blank character alone; a
# number runs on through any letters, digits and dots glued to it, and a sign
# right after an e or E, so that "1e400" and "1e-5" are one token each, which
# parse rejects whole
_TOKEN = re.compile(
    r"[A-Za-z][A-Za-z0-9_]*|[0-9][A-Za-z0-9_.]*(?:(?<=[eE])[+-][A-Za-z0-9_.]*)*"
    r"|#[^\n]*|[^ \t\r]"
)
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: offset of the line's first column
    for match in _TOKEN.finditer(source):
        text = match.group()
        ch = text[0]
        col = match.start() - line_start + 1
        if ch == "\n":
            line, line_start = line + 1, match.end()
        elif ch == "#":
            line_start += len(text)  # so that an eof after it is at its "#"
        elif ch in ":()":
            tokens.append(Token(ch, ch, line, col))
        elif ch in string.ascii_letters:
            kind = text.lower()
            kind = kind if kind in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
        elif ch in string.digits:
            tokens.append(Token("number", text, line, col))
        else:
            raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
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
    token it concerns. Raises DslError with a 1-based line and column. The
    returned RuleSet carries the firing order, so topo_order does not check
    it again.
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
                if not _NUMBER.fullmatch(num_tok.text):
                    raise DslError(
                        f"'{num_tok.text}' is not a valid disbelief",
                        num_tok.line,
                        num_tok.col,
                    )
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
    order, cycle = _dependency_order(rs)
    problem = next(_problems(rs, cycle), None)
    if problem is not None:
        message, anchor = problem
        raise DslError(message, *parser.anchors[anchor])
    object.__setattr__(rs, "_order", tuple(order))
    return rs


# ---------------------------------------------------------------------------
# Validation and ordering


def _dependency_order(rs: RuleSet) -> tuple[list[Rule], list[str] | None]:
    """Rules in depth-first post-order, and the first cycle as a closed path.

    A rule is placed when the search of its conclusion finishes, after the
    rules its premise depends on, so without a cycle the order is
    topological (Tarjan 1972). Explicit stacks let a chain of any length fit.
    """
    defining = {rule.conclusion: rule for rule in rs.rules}
    state: dict[str, int] = {}  # 0 on the current path, 1 done
    order: list[Rule] = []
    for root in defining:
        if root in state:
            continue
        state[root] = 0
        path, deps = [root], [premise_facts(defining[root].premise)]
        while path:
            dep = next(deps[-1], None)
            if dep is None:
                done = path.pop()
                state[done] = 1
                order.append(defining[done])
                deps.pop()
            elif dep in defining and dep not in state:
                state[dep] = 0
                path.append(dep)
                deps.append(premise_facts(defining[dep].premise))
            elif state.get(dep) == 0:
                return order, path[path.index(dep) :] + [dep]
    return order, None


def _problems(rs: RuleSet, cycle: list[str] | None) -> Iterator[tuple[str, tuple]]:
    """Every semantic problem of a RuleSet, as (message, anchor) pairs.

    ``cycle`` is _dependency_order's second result, which the caller keeps
    together with the order.

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
    if cycle is not None:
        yield "cycle detected: " + " -> ".join(cycle), ("rule", concluded[cycle[0]])
    if rs.goal not in rs.base_facts and rs.goal not in concluded:
        yield f"goal '{rs.goal}' is neither a base fact nor concluded", ("goal",)


def validate(rs: RuleSet) -> list[str]:
    """Diagnostics for a structurally built RuleSet; empty iff it is valid."""
    return [message for message, _ in _problems(rs, _dependency_order(rs)[1])]


def topo_order(rs: RuleSet) -> list[Rule]:
    """Rules in firing order: each after the rules feeding its premise.

    The order is _dependency_order's: the declaration order for rules
    declared in dependency order. ValueError lists validate's problems.
    A RuleSet is checked on its first call only, or never if ``parse``
    built it, and keeps its order for later calls.
    """
    if rs._order is None:
        order, cycle = _dependency_order(rs)
        problems = [message for message, _ in _problems(rs, cycle)]
        if problems:
            raise ValueError("invalid ruleset: " + "; ".join(problems))
        object.__setattr__(rs, "_order", tuple(order))
    return list(rs._order)


# ---------------------------------------------------------------------------
# Pretty-printing


def _fmt_delta(delta: float) -> str:
    if delta == int(delta):
        return str(int(delta))
    return np.format_float_positional(delta, trim="-")


def _expr_source(expr: Expr) -> str:
    """DSL text of a premise, parenthesised only where precedence needs it.

    Walks with an explicit stack, as premise_nodes does: each node is
    visited before its operands and finished after them, and ``done`` holds
    the (text, precedence) of every finished operand.
    """
    # precedence: or=1, and=2, not=3, atom=4
    done: list[tuple[str, int]] = []
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, operands_done = stack.pop()
        if isinstance(node, FactRef):
            done.append((node.name, 4))
        elif not operands_done:
            stack.append((node, True))
            if isinstance(node, Not):
                stack.append((node.operand, False))
            else:
                stack += ((node.right, False), (node.left, False))
        elif isinstance(node, Not):
            inner, prec = done.pop()
            done.append((f"not ({inner})" if prec < 3 else f"not {inner}", 3))
        else:
            op, prec = ("and", 2) if isinstance(node, And) else ("or", 1)
            (left, lp), (right, rp) = done[-2:]
            del done[-2:]
            if lp < prec:
                left = f"({left})"
            if rp <= prec:  # right operand needs parens even at equal precedence
                right = f"({right})"
            done.append((f"{left} {op} {right}", prec))
    return done[0][0]


def to_source(rs: RuleSet) -> str:
    """DSL text that parses back to an equal RuleSet."""
    lines = []
    for name, delta in rs.base_facts.items():
        if delta == 0:
            lines.append(f"fact {name}")
        else:
            lines.append(f"fact {name} disbelief {_fmt_delta(delta)}")
    for rule in rs.rules:
        lines.append(
            f"rule {rule.name}: if {_expr_source(rule.premise)} then {rule.conclusion}"
        )
    lines.append(f"goal {rs.goal}")
    return "\n".join(lines) + "\n"
