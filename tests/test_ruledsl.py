import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_ruleset
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
