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

The lexer drops comments, then reads tokens with one pattern, and keeps
their texts and kinds only. A token's line and column are worked out from
its index when a DslError is raised, by reading the tokens again with the
same pattern, so a program that parses pays nothing for positions.
"""

from __future__ import annotations

import itertools
import re
import string
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Union

KEYWORDS = frozenset(
    {"fact", "rule", "goal", "if", "then", "and", "or", "not", "disbelief"}
)

# Deepest stack of "not" and "(" one premise may open. The parser recurses
# once per such level, so the cap keeps it inside Python's recursion limit.
# It does not bound an "and"/"or" chain, whose left-deep tree is as deep as
# the chain is long. Only the parser recurses: validate, the compiler, the
# oracle and to_source all read premises through premise_nodes, which walks
# any depth.
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


def premise_nodes(expr: Expr) -> list[Expr]:
    """Every node of an expression in post-order: each after its operands,
    the left operand first.

    This is the one walk of a premise. A reader of it keeps a stack of
    operand values: a leaf pushes one, and a connective pops its operands
    and pushes its own. The walk takes nodes before their operands, the
    right operand first, and reverses the list. It uses an explicit stack,
    since an "and"/"or" chain of any length parses to a tree as deep as the
    chain is long.
    """
    nodes: list[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, Not):
            stack.append(node.operand)
        elif not isinstance(node, FactRef):
            stack += (node.left, node.right)
    nodes.reverse()
    return nodes


def premise_facts(expr: Expr) -> Iterator[str]:
    """Names referenced by an expression, left to right, with repeats."""
    return (node.name for node in premise_nodes(expr) if isinstance(node, FactRef))


# ---------------------------------------------------------------------------
# Lexer


# an identifier, or a number, which runs on through any letters, digits and
# dots glued to it, and a sign right after an e or E, so that "1e400" and
# "1e-5" are one token each, which parse rejects whole
_WORD = r"[A-Za-z][A-Za-z0-9_]*|[0-9][A-Za-z0-9_.]*(?:(?<=[eE])[+-][A-Za-z0-9_.]*)*"
_COMMENT = re.compile(r"#[^\n]*")
# what _lex finds once comments are gone: a word, or any other non-blank
# character alone
_LEXEME = re.compile(_WORD + r"|[^ \t\r\n]")
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?")

# token kind by text, over every spelling of each keyword, then by first
# character; "" is unexpected
_KINDS = {
    "".join(spelling): word
    for word in (*KEYWORDS, ":", "(", ")")
    for spelling in itertools.product(*zip(word, word.upper()))
}
_CLASSES = dict.fromkeys(string.ascii_letters, "ident") | dict.fromkeys(
    string.digits, "number"
)


def _lex(source: str) -> tuple[list[str], list[str]]:
    """Token texts and kinds, ending with an "eof" token of text "".

    A kind is a keyword, "ident", "number", ":", "(" or ")". Positions are
    not kept: _position finds one from a token's index when it is needed.
    """
    texts = _LEXEME.findall(_COMMENT.sub("", source))
    kinds = [_KINDS.get(text) or _CLASSES.get(text[0], "") for text in texts]
    if "" in kinds:
        index = kinds.index("")
        raise DslError(
            f"unexpected character {texts[index]!r}", *_position(source, index)
        )
    texts.append("")
    kinds.append("eof")
    return texts, kinds


def _position(source: str, index: int) -> tuple[int, int]:
    """1-based (line, column) of token ``index`` of ``_lex(source)``.

    The index one past the last token is the end of input. The tokens are
    found again as _lex finds them, on the source without its comments. A
    comment runs to the end of its line, so removing it moves no token, and
    the end of input after a trailing comment is placed at its "#".
    Carriage returns and tabs are blanks of one column.
    """
    text = _COMMENT.sub("", source)
    match = next(itertools.islice(_LEXEME.finditer(text), index, None), None)
    start = len(text) if match is None else match.start()
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.texts, self.kinds = _lex(source)
        self.pos = 0  # index of the next token
        self._depth = 0  # "not" and "(" currently open
        # token index of each ("fact", name) and ("goal",) anchor of _problems
        self.anchors: dict[tuple, int] = {}
        # token indices of each rule's name and of its "then"
        self.rule_spans: list[tuple[int, int]] = []
        # the fact names of the premise being parsed, left to right
        self.leaves: list[str] = []

    def error(self, message: str, index: int) -> DslError:
        return DslError(message, *_position(self.source, index))

    def shown(self, index: int) -> str:
        return self.texts[index] or "end of input"

    def expect(self, kind: str, what: str) -> str:
        """The text of the next token, which must be of ``kind``."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.error(f"expected {what}, found {self.shown(pos)!r}", pos)
        self.pos = pos + 1
        return self.texts[pos]

    def anchor_index(self, anchor: tuple) -> int:
        """Token index at which a problem anchored at ``anchor`` is reported."""
        if anchor[0] in ("fact", "goal"):
            return self.anchors[anchor]
        name_at, then_at = self.rule_spans[anchor[1]]
        if anchor[0] == "rule":
            return name_at
        if anchor[0] == "conclusion":
            return then_at + 1
        # a leaf: the first use of the fact in the premise
        return self.texts.index(anchor[2], name_at + 3, then_at)

    # expr := term { "or" term }
    def expr(self) -> Expr:
        node = self.term()
        while self.kinds[self.pos] == "or":
            self.pos += 1
            node = Or(node, self.term())
        return node

    # term := factor { "and" factor }
    def term(self) -> Expr:
        node = self.factor()
        while self.kinds[self.pos] == "and":
            self.pos += 1
            node = And(node, self.factor())
        return node

    # factor := "not" factor | "(" expr ")" | IDENT
    def factor(self) -> Expr:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "ident":
            self.pos = pos + 1
            self.leaves.append(self.texts[pos])
            return FactRef(self.texts[pos])
        if kind != "not" and kind != "(":
            raise self.error(f"expected a fact name, found {self.shown(pos)!r}", pos)
        if self._depth >= MAX_NESTING:
            raise self.error(f"expression nested deeper than {MAX_NESTING} levels", pos)
        self.pos = pos + 1
        self._depth += 1
        if kind == "not":
            node: Expr = Not(self.factor())
        else:
            node = self.expr()
            self.expect(")", "')'")
        self._depth -= 1
        return node


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
    parser = _Parser(source)
    kinds = parser.kinds
    base_facts: dict[str, float] = {}
    rules: list[Rule] = []
    rule_facts: list[list[str]] = []  # premise_facts of each rule, as parsed
    goal: str | None = None

    while True:
        kind = kinds[parser.pos]
        if kind == "eof":
            break
        parser.pos += 1
        if kind == "fact":
            name = parser.expect("ident", "a fact name")
            if name in base_facts:
                raise parser.error(f"duplicate fact '{name}'", parser.pos - 1)
            delta = 0.0
            if kinds[parser.pos] == "disbelief":
                parser.pos += 1
                number = parser.expect("number", "a number")
                if not _NUMBER.fullmatch(number):
                    raise parser.error(
                        f"'{number}' is not a valid disbelief", parser.pos - 1
                    )
                delta = float(number)
                parser.anchors[("fact", name)] = parser.pos - 1
            base_facts[name] = delta
        elif kind == "rule":
            name_at = parser.pos
            name = parser.expect("ident", "a rule name")
            parser.expect(":", "':'")
            parser.expect("if", "'if'")
            parser.leaves = []
            premise = parser.expr()
            then_at = parser.pos
            parser.expect("then", "'then'")
            conclusion = parser.expect("ident", "a fact name")
            parser.rule_spans.append((name_at, then_at))
            rules.append(Rule(name, premise, conclusion))
            rule_facts.append(parser.leaves)
        elif kind == "goal":
            name = parser.expect("ident", "a fact name")
            if goal is not None:
                raise parser.error("multiple goal declarations", parser.pos - 1)
            goal = name
            parser.anchors[("goal",)] = parser.pos - 1
        else:
            shown = parser.texts[parser.pos - 1]
            raise parser.error(
                f"expected 'fact', 'rule' or 'goal', found {shown!r}", parser.pos - 1
            )

    if goal is None:
        raise parser.error("missing goal declaration", parser.pos)
    rs = RuleSet(base_facts, tuple(rules), goal)
    order, cycle = _dependency_order(rs, rule_facts)
    problem = next(_problems(rs, cycle, rule_facts), None)
    if problem is not None:
        message, anchor = problem
        raise parser.error(message, parser.anchor_index(anchor))
    object.__setattr__(rs, "_order", tuple(order))
    return rs


# ---------------------------------------------------------------------------
# Validation and ordering


def _rule_facts(rs: RuleSet) -> list[list[str]]:
    """``premise_facts`` of each rule of ``rs``, in rule order."""
    return [list(premise_facts(rule.premise)) for rule in rs.rules]


def _dependency_order(
    rs: RuleSet, rule_facts: list[list[str]] | None = None
) -> tuple[list[Rule], list[str] | None]:
    """Rules in depth-first post-order, and the first cycle as a closed path.

    ``rule_facts`` is ``_rule_facts(rs)``, which parse collects while it
    reads the premises; without it the premises are walked here. A rule is
    placed when the search of its conclusion finishes, after the rules its
    premise depends on, so without a cycle the order is topological (Tarjan
    1972). Explicit stacks let a chain of any length fit.
    """
    if rule_facts is None:
        rule_facts = _rule_facts(rs)
    # the index of the last rule concluding each fact
    defining = {rule.conclusion: i for i, rule in enumerate(rs.rules)}
    state: dict[str, int] = {}  # 0 on the current path, 1 done
    order: list[Rule] = []
    for root in defining:
        if root in state:
            continue
        state[root] = 0
        path, deps = [root], [iter(rule_facts[defining[root]])]
        while path:
            dep = next(deps[-1], None)
            if dep is None:
                done = path.pop()
                state[done] = 1
                order.append(rs.rules[defining[done]])
                deps.pop()
            elif dep in defining and dep not in state:
                state[dep] = 0
                path.append(dep)
                deps.append(iter(rule_facts[defining[dep]]))
            elif state.get(dep) == 0:
                return order, path[path.index(dep) :] + [dep]
    return order, None


def _problems(
    rs: RuleSet, cycle: list[str] | None, rule_facts: list[list[str]] | None = None
) -> Iterator[tuple[str, tuple]]:
    """Every semantic problem of a RuleSet, as (message, anchor) pairs.

    ``cycle`` is _dependency_order's second result, which the caller keeps
    together with the order, and ``rule_facts`` is as for _dependency_order.

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
    if rule_facts is None:
        rule_facts = _rule_facts(rs)
    for i, (rule, facts) in enumerate(zip(rs.rules, rule_facts)):
        for name in facts:
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
    """Shortest positional text of a disbelief that reads back as ``delta``."""
    if delta == int(delta):
        return str(int(delta))
    # imported here: only to_source needs it, and not at every start
    from decimal import Decimal

    return format(Decimal(repr(delta)), "f")


def _expr_source(expr: Expr) -> str:
    """DSL text of a premise, parenthesised only where precedence needs it.

    ``done`` holds the text pieces and the precedence of each operand not
    yet used. A connective joins its operands' pieces into the longer of
    the two deques, so a premise of n nodes costs O(n log n), not the
    O(n^2) of joining ever longer strings.
    """
    # precedence: or=1, and=2, not=3, atom=4
    done: list[tuple[deque[str], int]] = []
    for node in premise_nodes(expr):
        if isinstance(node, FactRef):
            done.append((deque([node.name]), 4))
        elif isinstance(node, Not):
            inner, prec = done.pop()
            if prec < 3:
                inner.appendleft("(")
                inner.append(")")
            inner.appendleft("not ")
            done.append((inner, 3))
        else:
            op, prec = (" and ", 2) if isinstance(node, And) else (" or ", 1)
            right, rp = done.pop()
            left, lp = done.pop()
            if lp < prec:
                left.appendleft("(")
                left.append(")")
            if rp <= prec:  # right operand needs parens even at equal precedence
                right.appendleft("(")
                right.append(")")
            if len(left) >= len(right):
                left.append(op)
                left.extend(right)
            else:
                right.appendleft(op)
                right.extendleft(reversed(left))
                left = right
            done.append((left, prec))
    return "".join(done[0][0])


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
