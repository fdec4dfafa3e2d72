import re
import string
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_ruleset
from qrbs import compiler, ruledsl
from qrbs.inference import oracle
from qrbs.ruledsl import (
    MAX_NESTING,
    And,
    DslError,
    FactRef,
    Not,
    Or,
    Rule,
    RuleSet,
    parse,
    premise_facts,
    premise_nodes,
    to_source,
    topo_order,
    validate,
)

DEMO_SRC = """\
# three-rule demonstration network
fact A disbelief 50
fact B disbelief 50
fact C disbelief 50
fact D disbelief 50
fact E disbelief 50

rule R1: if A and B then X
rule R2: if X or C then Y
rule R3: if Y and (D or E) then R

goal R
"""


def test_parse_demo_network():
    rs = parse(DEMO_SRC)
    assert list(rs.base_facts) == ["A", "B", "C", "D", "E"]
    assert all(delta == 50.0 for delta in rs.base_facts.values())
    assert [rule.name for rule in rs.rules] == ["R1", "R2", "R3"]
    assert rs.goal == "R"
    assert rs.rules[0].premise == And(FactRef("A"), FactRef("B"))
    assert rs.rules[1].premise == Or(FactRef("X"), FactRef("C"))
    assert rs.rules[2].premise == And(FactRef("Y"), Or(FactRef("D"), FactRef("E")))


def test_parse_minimal_program():
    rs = parse("fact A\ngoal A")
    assert rs.base_facts == {"A": 0.0}
    assert rs.rules == ()
    assert rs.goal == "A"


def test_disbelief_defaults_to_zero():
    rs = parse("fact A\nfact B disbelief 12.5\ngoal A")
    assert rs.base_facts == {"A": 0.0, "B": 12.5}


def test_keywords_case_insensitive():
    rs = parse("FACT a Disbelief 10\nRULE r: IF a THEN b\nGOAL b")
    assert rs.base_facts == {"a": 10.0}
    assert rs.rules[0] == Rule("r", FactRef("a"), "b")


def test_operator_precedence():
    rs = parse("fact a\nfact b\nfact c\nrule r: if a or b and c then d\ngoal d")
    assert rs.rules[0].premise == Or(FactRef("a"), And(FactRef("b"), FactRef("c")))


def test_not_binds_tightest():
    rs = parse("fact a\nfact b\nrule r: if not a and b then d\ngoal d")
    assert rs.rules[0].premise == And(Not(FactRef("a")), FactRef("b"))


def test_parentheses_override_precedence():
    rs = parse("fact a\nfact b\nfact c\nrule r: if (a or b) and c then d\ngoal d")
    assert rs.rules[0].premise == And(Or(FactRef("a"), FactRef("b")), FactRef("c"))


def test_and_left_associative():
    rs = parse("fact a\nfact b\nfact c\nrule r: if a and b and c then d\ngoal d")
    assert rs.rules[0].premise == And(And(FactRef("a"), FactRef("b")), FactRef("c"))


@pytest.mark.parametrize(
    "source,fragment",
    [
        ("fact A$\ngoal A", "unexpected character"),
        ("fact A\nrule R: if A foo then B\ngoal B", "expected 'then'"),
        ("fact A\nrule R: if A and then B\ngoal B", "expected a fact name"),
        ("fact A\nrule R: if A or Q then B\ngoal B", "undeclared fact 'Q'"),
        ("fact A\nfact A\ngoal A", "duplicate fact 'A'"),
        ("fact A\nrule R: if A then B\nrule R: if A then C\ngoal B", "duplicate rule 'R'"),
        ("fact A\nrule R1: if A then X\nrule R2: if A then X\ngoal X", "concluded by R1 and R2"),
        ("fact A\nrule R1: if X then Y\nrule R2: if Y then X\ngoal X", "cycle detected"),
        ("fact A", "missing goal"),
        ("fact A\ngoal A\ngoal A", "multiple goal"),
        ("fact A disbelief 150\ngoal A", "outside [0, 100]"),
        ("fact A\nrule R: if A then A\ngoal A", "declared as a base fact and concluded"),
        ("fact A\ngoal Q", "neither a base fact nor concluded"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(DslError) as excinfo:
        parse(source)
    assert fragment in str(excinfo.value)
    assert excinfo.value.line >= 1
    assert excinfo.value.col >= 1


def test_error_positions_are_exact():
    cases = [
        ("fact A\nrule R: if A or Q then B\ngoal B", (2, 17)),
        ("fact A$\ngoal A", (1, 7)),
        ("fact A\nrule R: if A foo then B\ngoal B", (2, 14)),
        ("fact A\nrule R: if A and then B\ngoal B", (2, 18)),
        ("fact A\nfact A\ngoal A", (2, 6)),
        ("fact A\nrule R: if A then B\nrule R: if A then C\ngoal B", (3, 6)),
        ("fact A\nrule R1: if A then X\nrule R2: if A then X\ngoal X", (3, 20)),
        ("fact A\nrule R1: if X then Y\nrule R2: if Y then X\ngoal X", (2, 6)),
        ("fact A", (1, 7)),
        ("fact A\ngoal A\ngoal A", (3, 6)),
        ("fact A disbelief 150\ngoal A", (1, 18)),
        ("fact A\nrule R: if A then A\ngoal A", (2, 19)),
        ("fact A\ngoal Q", (2, 6)),
    ]
    for source, position in cases:
        with pytest.raises(DslError) as excinfo:
            parse(source)
        assert (excinfo.value.line, excinfo.value.col) == position, source

    with pytest.raises(DslError) as excinfo:
        parse("fact A\nrule R1: if X then Y\nrule R2: if Y then X\ngoal X")
    assert str(excinfo.value) == "2:6: cycle detected: Y -> X -> Y"


def test_comments_and_blank_lines_ignored():
    rs = parse("# header\n\nfact A # trailing\n\n# more\ngoal A\n")
    assert rs.base_facts == {"A": 0.0}


def test_validate_demo_is_clean():
    assert validate(parse(DEMO_SRC)) == []


def test_validate_reports_unreachable_goal():
    rs = RuleSet({"A": 0.0}, (), "Q")
    assert validate(rs) == ["goal 'Q' is neither a base fact nor concluded"]


def test_validate_reports_double_conclusion():
    rs = RuleSet(
        {"A": 0.0},
        (Rule("R1", FactRef("A"), "X"), Rule("R4", FactRef("A"), "X")),
        "X",
    )
    assert "fact 'X' concluded by R1 and R4" in validate(rs)


def test_validate_reports_bad_delta():
    rs = RuleSet({"A": 120.0}, (), "A")
    assert any("outside [0, 100]" in msg for msg in validate(rs))


def test_validate_reports_cycle():
    rs = RuleSet(
        {"A": 0.0},
        (Rule("R1", FactRef("Y"), "X"), Rule("R2", FactRef("X"), "Y")),
        "X",
    )
    assert any("cycle" in msg for msg in validate(rs))


def test_topo_order_demo():
    rs = parse(DEMO_SRC)
    assert [rule.name for rule in topo_order(rs)] == ["R1", "R2", "R3"]


def test_topo_order_respects_dependencies_not_declaration():
    src = (
        "fact A\nfact B\n"
        "rule R1: if X and B then Y\n"
        "rule R2: if A then X\n"
        "goal Y"
    )
    assert [rule.name for rule in topo_order(parse(src))] == ["R2", "R1"]


def test_topo_order_declaration_order_tie_break():
    src = "fact A\nrule R1: if A then X\nrule R2: if A then Y\ngoal X"
    assert [rule.name for rule in topo_order(parse(src))] == ["R1", "R2"]


def test_topo_order_is_depth_first_post_order():
    src = (
        "fact A\nfact B\n"
        "rule R1: if X and Y then Z\n"
        "rule R2: if B then Y\n"
        "rule R3: if A then X\n"
        "goal Z"
    )
    # R1's premise names X before Y, so R3 (concluding X) fires before R2
    assert [rule.name for rule in topo_order(parse(src))] == ["R3", "R2", "R1"]


def test_topo_order_single_rule():
    src = "fact A\nrule R: if A then X\ngoal X"
    assert [rule.name for rule in topo_order(parse(src))] == ["R"]


def test_premise_facts_left_to_right():
    rs = parse(DEMO_SRC)
    assert list(premise_facts(rs.rules[2].premise)) == ["Y", "D", "E"]


def test_to_source_round_trip_demo():
    rs = parse(DEMO_SRC)
    assert parse(to_source(rs)) == rs


def test_to_source_preserves_tricky_shapes():
    sources = [
        "fact a\nfact b\nfact c\nrule r: if a or (b or c) then d\ngoal d",
        "fact a\nfact b\nfact c\nrule r: if (a or b) and not c then d\ngoal d",
        "fact a\nrule r: if not not a then d\ngoal d",
        "fact a disbelief 0.125\ngoal a",
        "fact a disbelief 33.3\ngoal a",
    ]
    for src in sources:
        rs = parse(src)
        assert parse(to_source(rs)) == rs


@pytest.mark.parametrize("delta,text", [
    (50.0, "50"),
    (12.5, "12.5"),
    (33.333333333333336, "33.333333333333336"),
    (1e-05, "0.00001"),
    (5e-324, "0." + "0" * 323 + "5"),
])
def test_to_source_writes_a_disbelief_as_its_shortest_positional_text(delta, text):
    rs = RuleSet({"a": delta}, (), "a")
    assert to_source(rs) == f"fact a disbelief {text}\ngoal a\n"
    assert parse(to_source(rs)) == rs


def test_ruledsl_parses_and_prints_without_numpy():
    # the module has no package-relative imports, so it loads from its file alone
    script = """
import importlib.util
import sys
sys.modules["numpy"] = None  # so that importing numpy raises ImportError
path, program = sys.argv[1:]
spec = importlib.util.spec_from_file_location("ruledsl", path)
ruledsl = importlib.util.module_from_spec(spec)
sys.modules["ruledsl"] = ruledsl
spec.loader.exec_module(ruledsl)
with open(program, encoding="utf-8") as f:
    print(ruledsl.to_source(ruledsl.parse(f.read())), end="")
print(ruledsl.to_source(ruledsl.RuleSet({"a": 12.5}, (), "a")), end="")
"""
    root = Path(__file__).resolve().parents[1]
    program = root / "demos" / "programs" / "three_rules.qrbs"
    result = subprocess.run(
        [sys.executable, "-c", script, str(root / "src" / "qrbs" / "ruledsl.py"),
         str(program)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (to_source(parse(program.read_text(encoding="utf-8")))
                             + "fact a disbelief 12.5\ngoal a\n")


def test_random_rulesets_validate_and_order():
    for seed in range(120):
        rs = random_ruleset(seed)
        assert validate(rs) == []
        ordered = topo_order(rs)
        # direct definition of a topological order
        produced = set(rs.base_facts)
        for rule in ordered:
            assert all(name in produced for name in premise_facts(rule.premise))
            produced.add(rule.conclusion)
        assert parse(to_source(rs)) == rs


def test_to_source_round_trips_a_3000_term_and_rule():
    premise = FactRef("a0")
    for i in range(1, 3000):
        premise = And(premise, FactRef(f"a{i % 7}"))
    rs = RuleSet({f"a{i}": float(i) for i in range(7)}, (Rule("R", premise, "b"),), "b")
    back = parse(to_source(rs))
    # == on trees this deep would recurse past the limit: compare the
    # post-order node lists, which determine a tree
    def shape(expr):
        return [(type(node), getattr(node, "name", None)) for node in premise_nodes(expr)]

    assert shape(back.rules[0].premise) == shape(premise)
    assert (back.base_facts, back.rules[0].name, back.goal) == (rs.base_facts, "R", "b")


def _labels(expr):
    """``premise_nodes`` of ``expr``: fact names, and connectives by keyword."""
    return [node.name if isinstance(node, FactRef) else type(node).__name__.lower()
            for node in premise_nodes(expr)]


def test_premise_nodes_yield_each_node_after_its_operands_left_first():
    rs = parse("fact a\nfact b\nfact c\nfact d\nfact x\n"
               "rule r: if not a and (b or (c or d)) or x and x then g\ngoal g")
    assert _labels(rs.rules[0].premise) == [
        "a", "not", "b", "c", "d", "or", "or", "and", "x", "x", "and", "or"]


def test_a_100000_term_left_nested_premise_is_walked_and_round_tripped():
    premise = FactRef("f0")
    for i in range(1, 100_000):
        premise = Or(premise, FactRef(f"f{i % 7}"))
    labels = _labels(premise)
    assert labels[:5] == ["f0", "f1", "or", "f2", "or"] and len(labels) == 199_999
    rs = RuleSet({f"f{i}": 0.0 for i in range(7)}, (Rule("R", premise, "g"),), "g")
    assert _labels(parse(to_source(rs)).rules[0].premise) == labels


def test_a_20000_level_right_nested_premise_is_walked_and_printed():
    # built by hand: parse caps "not" and "(" at MAX_NESTING levels
    premise = FactRef("a")
    for _ in range(10_000):
        premise = Not(And(FactRef("b"), premise))
    assert _labels(premise) == ["b"] * 10_000 + ["a"] + ["and", "not"] * 10_000
    rs = RuleSet({"a": 0.0, "b": 0.0}, (Rule("R", premise, "g"),), "g")
    premise_text = "not (b and " * 10_000 + "a" + ")" * 10_000
    assert to_source(rs) == f"fact a\nfact b\nrule R: if {premise_text} then g\ngoal g\n"
    with pytest.raises(DslError, match=f"nested deeper than {MAX_NESTING} levels"):
        parse(to_source(rs))


@pytest.mark.parametrize("number", ["1e400", "1e2", "1.5.3", "2.", "50fact"])
def test_malformed_disbelief_is_reported_whole(number):
    with pytest.raises(DslError) as excinfo:
        parse(f"fact a disbelief {number}\ngoal a")
    assert str(excinfo.value) == f"1:18: '{number}' is not a valid disbelief"


@pytest.mark.parametrize("number", ["1e-5", "1E+5"])
def test_signed_exponent_stays_in_the_malformed_disbelief(number):
    with pytest.raises(DslError) as excinfo:
        parse(f"fact a disbelief {number}\ngoal a")
    assert str(excinfo.value) == f"1:18: '{number}' is not a valid disbelief"


def test_parsed_ruleset_is_not_validated_again(monkeypatch):
    rs = parse(DEMO_SRC)

    def no_check(*args):
        raise AssertionError("a parsed RuleSet must not be validated again")

    monkeypatch.setattr(ruledsl, "_problems", no_check)
    monkeypatch.setattr(ruledsl, "_dependency_order", no_check)
    assert [rule.name for rule in topo_order(rs)] == ["R1", "R2", "R3"]
    compiler.compile_ruleset(rs)
    oracle(rs)


def test_hand_built_ruleset_is_validated_once(monkeypatch):
    checks = []
    problems = ruledsl._problems

    def counting_problems(rs, cycle):
        checks.append(rs)
        return problems(rs, cycle)

    monkeypatch.setattr(ruledsl, "_problems", counting_problems)
    rs = RuleSet({"A": 10.0, "B": 20.0}, (Rule("R", And(FactRef("A"), FactRef("B")), "X"),), "X")
    topo_order(rs)
    compiler.compile_ruleset(rs)
    oracle(rs)
    assert checks == [rs]
    invalid = RuleSet({"A": 0.0}, (), "Q")
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid ruleset"):
            topo_order(invalid)


def test_cached_order_is_not_part_of_equality_or_repr():
    parsed = parse(DEMO_SRC)
    built = RuleSet(dict(parsed.base_facts), parsed.rules, parsed.goal)
    assert parsed == built
    assert repr(parsed) == repr(built)


def _nested(kind: str, depth: int) -> str:
    if kind == "not":
        premise = "not " * depth + "a"
    elif kind == "paren":
        premise = "(" * depth + "a" + ")" * depth
    else:  # each "not (" opens two levels
        premise = "not (" * (depth // 2) + "a" + ")" * (depth // 2)
    return f"fact a disbelief 30\nrule r: if {premise} then b\ngoal b\n"


@pytest.mark.parametrize("kind", ["not", "paren", "not-paren"])
def test_nesting_at_the_cap_parses_and_round_trips(kind):
    rs = parse(_nested(kind, MAX_NESTING))
    assert parse(to_source(rs)) == rs
    assert oracle(rs).p_true == pytest.approx(oracle(parse(_nested(kind, 0))).p_true)


@pytest.mark.parametrize("kind", ["not", "paren"])
def test_nesting_past_the_cap_is_a_dsl_error(kind):
    source = _nested(kind, MAX_NESTING + 1)
    with pytest.raises(DslError, match="nested deeper") as info:
        parse(source)
    # the offending token is the first "not" or "(" past the cap
    opener = "not" if kind == "not" else "("
    step = len("not ") if kind == "not" else 1
    col = len("rule r: if ") + 1 + MAX_NESTING * step
    assert (info.value.line, info.value.col) == (2, col)
    assert source.splitlines()[1][info.value.col - 1:].startswith(opener)


# Names come from one small pool, so that random rule sets often have a
# disbelief out of range, reuse a rule name, conclude a fact twice or
# conclude a base fact, leave a premise fact undeclared, form a cycle or miss
# the goal, and are sometimes valid.
_NAMES = st.sampled_from(["A", "B", "C", "X", "Y"])
_PREMISES = st.recursive(
    _NAMES.map(FactRef),
    lambda sub: st.one_of(
        sub.map(Not), st.builds(And, sub, sub), st.builds(Or, sub, sub)
    ),
    max_leaves=6,
)
_RULESETS = st.builds(
    RuleSet,
    st.dictionaries(
        _NAMES,
        st.floats(0.0, 100.0) | st.floats(min_value=0.0, allow_infinity=False),
        max_size=4,
    ),
    st.lists(st.builds(Rule, st.sampled_from(["R1", "R2", "R3"]), _PREMISES, _NAMES),
             max_size=4).map(tuple),
    _NAMES,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_RULESETS)
def test_parse_reports_the_first_problem_validate_reports(rs):
    problems = validate(rs)
    source = to_source(rs)
    if problems:
        with pytest.raises(DslError) as excinfo:
            parse(source)
        err = excinfo.value
        assert str(err) == f"{err.line}:{err.col}: {problems[0]}"
    else:
        assert parse(source) == rs


# DSL words and punctuation mixed with arbitrary characters: some texts are
# programs, and the rest fail in the lexer, the parser or validate.
_DSL_PIECES = st.sampled_from(
    ["fact ", "rule ", "goal ", "if ", "then ", "and ", "or ", "not ",
     "disbelief ", "A ", "B ", "X ", "R1", ":", "(", ")", "50", "12.5", "#",
     " ", "\n"]
)
_DSL_TEXT = st.lists(_DSL_PIECES | st.text(max_size=3), max_size=30).map("".join)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_DSL_TEXT)
@example("fact a disbelief ²")
@example("fact a disbelief ①")
def test_parse_returns_a_ruleset_or_raises_dsl_error(text):
    try:
        assert isinstance(parse(text), RuleSet)
    except DslError:
        pass


# The lexer as it was before positions were worked out only on error: one
# Token, with its line and column, per token. Kept as the reference that the
# kinds, texts and positions of ruledsl._lex and ruledsl._position must match.
class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_REFERENCE_TOKEN = re.compile(
    r"[A-Za-z][A-Za-z0-9_]*|[0-9][A-Za-z0-9_.]*(?:(?<=[eE])[+-][A-Za-z0-9_.]*)*"
    r"|#[^\n]*|[^ \t\r]"
)


def _reference_tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0  # line_start: offset of the line's first column
    for match in _REFERENCE_TOKEN.finditer(source):
        text = match.group()
        ch = text[0]
        col = match.start() - line_start + 1
        if ch == "\n":
            line, line_start = line + 1, match.end()
        elif ch == "#":
            line_start += len(text)  # so that an eof after it is at its "#"
        elif ch in ":()":
            tokens.append(_Token(ch, ch, line, col))
        elif ch in string.ascii_letters:
            kind = text.lower()
            kind = kind if kind in ruledsl.KEYWORDS else "ident"
            tokens.append(_Token(kind, text, line, col))
        elif ch in string.digits:
            tokens.append(_Token("number", text, line, col))
        else:
            raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, len(source) - line_start + 1))
    return tokens


# end of input after a trailing comment, CRLF line ends, tabs, and a bad
# character on line 3 after a comment line
_PINNED_SOURCES = {
    "fact A # note": "1:8: missing goal declaration",
    "fact A\r\ngoal B\r\n": "2:6: goal 'B' is neither a base fact nor concluded",
    "fact\tA\n\tgoal\tB": "2:7: goal 'B' is neither a base fact nor concluded",
    "fact A\n# comment\nfact B$\ngoal A": "3:7: unexpected character '$'",
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_DSL_TEXT)
@example("fact A # note")
@example("fact A\r\ngoal B\r\n")
@example("fact\tA\n\tgoal\tB")
@example("fact A\n# comment\nfact B$\ngoal A")
@example("FACT a DisBelief 1e-5 # x\r\n\tRULE r: IF not(a) THEN b")
def test_lexer_and_positions_match_the_reference_lexer(text):
    try:
        expected = _reference_tokenize(text)
    except DslError as err:
        with pytest.raises(DslError) as excinfo:
            ruledsl._lex(text)
        assert str(excinfo.value) == str(err)
        return
    texts, kinds = ruledsl._lex(text)
    assert list(zip(kinds, texts)) == [(tok.kind, tok.text) for tok in expected]
    # the last index is the end of input
    positions = [ruledsl._position(text, i) for i in range(len(expected))]
    assert positions == [(tok.line, tok.col) for tok in expected]


@pytest.mark.parametrize("source", list(_PINNED_SOURCES))
def test_pinned_error_positions(source):
    with pytest.raises(DslError) as excinfo:
        parse(source)
    assert str(excinfo.value) == _PINNED_SOURCES[source]
