import random
import re
import string
import sys

import pytest
from hypothesis import given, strategies as st

from qcflp.domains import domain_from_name
from qcflp.syntax import (ParseError, _escape, _spine, _unescape, lex,
                          parse_constraints, parse_expr, parse_goal,
                          parse_program, print_constraints, print_expr,
                          print_goal, print_program)
from qcflp.terms import App, FALSE, TRUE, Var, mkstring


def test_library_shape(library):
    assert len(library.rules) == 24
    assert sorted({r.attenuation for r in library.rules}) == [0.7, 0.8, 0.9, 1.0]
    assert library.signature.df["search"] == 3
    assert library.signature.dc["book"] == 7


def test_member_rule_parse(library):
    r = library.rules[1]
    assert r.name == "member"
    assert r.patterns == (Var("B"), App("[]"))
    assert r.attenuation == 1.0
    assert r.rhs == FALSE
    assert r.conditions == ()


def test_attenuated_rule_parse(library):
    r = next(r for r in library.rules
             if r.name == "guessGenre" and r.attenuation == 0.9)
    assert r.rhs == mkstring("Fantasy")
    assert len(r.conditions) == 1
    cond = r.conditions[0]
    assert cond.symbol == "==" and cond.result == TRUE


def test_nonlinear_head_rejected():
    with pytest.raises(ParseError) as exc:
        parse_program("f(X, X) --> X")
    assert any("non-linear" in d.message for d in exc.value.diagnostics)


def test_bottom_in_source_rejected():
    with pytest.raises(ParseError) as exc:
        parse_program("f(X) --> _|_")
    assert any("undefined value" in d.message for d in exc.value.diagnostics)


def test_attenuation_range_checked():
    with pytest.raises(ParseError):
        parse_program("f --> true\ng -0.0-> true")
    with pytest.raises(ParseError):
        parse_program("g -1.5-> true")


def test_arity_consistency_checked():
    with pytest.raises(ParseError) as exc:
        parse_program("f(X) --> c(X)\ng --> c(1, 2)")
    assert any("argument" in d.message or "arities" in d.message
               for d in exc.value.diagnostics)


def test_goal_parse_examples():
    g = parse_goal('(search("German","Essay",intermediate) == R) # W | W >= 0.65')
    assert len(g.items) == 1
    item = g.items[0]
    assert item.wvar == "W" and item.threshold == 0.65
    assert item.constraint.symbol == "=="

    g2 = parse_goal("f == true # W | W >= 1.0")
    assert g2.items[0].threshold == 1.0

    with pytest.raises(ParseError):
        parse_goal("a == true # W, b == true # W | W >= 0.5")


def test_goal_threshold_optional():
    g = parse_goal("f == true # W")
    assert g.items[0].threshold is None


def test_threshold_for_unknown_variable():
    with pytest.raises(ParseError):
        parse_goal("f == true # W | V >= 0.5")


def test_threshold_for_unknown_variable_has_its_position():
    with pytest.raises(ParseError) as exc:
        parse_goal("f == true # W | V >= 0.5")
    d = exc.value.diagnostics[0]
    assert (d.line, d.col) == (1, 17)
    assert d.message == "threshold for undeclared qualification variable V"


def test_roundtrip_library(library, library_text):
    again = parse_program(print_program(library))
    assert again == library


def test_roundtrip_goal():
    for text in [
        '(search("German", "Essay", intermediate) == R) # W | W >= 0.65',
        "f == true # W",
        "p(X) # W1, q(Y) # W2 | W2 >= 0.5",
    ]:
        g = parse_goal(text)
        assert parse_goal(print_goal(g)) == g


def test_roundtrip_exprs():
    cases = [
        '"Hauten"', "[1, 2, 3]", "H:T", "1 + 2*X", "_|_", "c('x', [])",
        "f(g(X), 0.5)", "(X == Y) == false", "[]", "X.1",
    ]
    for text in cases:
        e = parse_expr(text)
        assert parse_expr(print_expr(e)) == e


def test_comments_and_layout():
    p = parse_program("-- a comment\nf --> true  -- trailing\n\ng --> f\n")
    assert [r.name for r in p.rules] == ["f", "g"]


def test_string_sugar():
    assert parse_expr('"ab"') == parse_expr("'a':('b':[])")
    assert print_expr(parse_expr('"ab"')) == '"ab"'
    assert print_expr(parse_expr("'a':X")) == "'a':X"


def test_anonymous_variables_distinct():
    p = parse_program("f(_, _) --> true")
    v1, v2 = p.rules[0].patterns
    assert isinstance(v1, Var) and isinstance(v2, Var) and v1 != v2


def test_constraint_list_parse():
    out = parse_constraints("qVal(W), W >= 0.65, search'(a, W) == R")
    assert [c.symbol for c in out] == ["qVal", ">=", "=="]
    assert parse_constraints(print_constraints(out)) == out


def test_bare_call_condition_equals_true(library):
    search = library.rules[-1]
    first = search.conditions[0]
    assert first.symbol == "==" and first.args[1] == TRUE
    assert first.args[0].symbol == "member"


def test_roundtrip_random_programs():
    rng = random.Random(5)
    from conftest import random_layered_program
    for _ in range(10):
        p = random_layered_program(rng)
        assert parse_program(print_program(p)) == p


def test_pair_attenuation_roundtrip():
    uxu = domain_from_name("uxu")
    p = parse_program("m -(0.9,0.8)-> true\nn -(0.7,1)-> m", uxu)
    assert p.rules[0].attenuation == (0.9, 0.8)
    assert parse_program(print_program(p), uxu) == p


def test_diagnostics_carry_positions():
    try:
        parse_program("f -->\n")
    except ParseError as exc:
        d = exc.diagnostics[0]
        assert d.line >= 1 and d.col >= 1
    else:
        pytest.fail("expected a parse error")


@pytest.mark.parametrize("text, tokens", [
    # a trailing comment does not move the end-of-input column
    ("f --> a -- note",
     [("IDENT", "f", 1, 1), ("-->", "-->", 1, 3), ("IDENT", "a", 1, 7),
      ("EOF", "", 1, 9)]),
    # --> is an arrow, -- starts a comment, -0.9-> is a minus, a number
    # and an arrow
    ("a --> b -- c\nf -0.9-> g",
     [("IDENT", "a", 1, 1), ("-->", "-->", 1, 3), ("IDENT", "b", 1, 7),
      ("IDENT", "f", 2, 1), ("-", "-", 2, 3), ("NUMBER", "0.9", 2, 4),
      ("->", "->", 2, 7), ("IDENT", "g", 2, 10), ("EOF", "", 2, 11)]),
    ("_|_ _ _X _|",
     [("BOTTOM", "_|_", 1, 1), ("VAR", "_", 1, 5), ("VAR", "_X", 1, 7),
      ("VAR", "_", 1, 10), ("|", "|", 1, 11), ("EOF", "", 1, 12)]),
    ("W.1 f' X.1.2",
     [("VAR", "W.1", 1, 1), ("IDENT", "f'", 1, 5), ("VAR", "X.1.2", 1, 8),
      ("EOF", "", 1, 13)]),
    ("'\\'' \"a\\\"b\"",
     [("CHAR", "'\\''", 1, 1), ("STRING", '"a\\"b"', 1, 6), ("EOF", "", 1, 12)]),
    # a raw newline in a string starts a line
    ('"a\nb" c',
     [("STRING", '"a\nb"', 1, 1), ("IDENT", "c", 2, 4), ("EOF", "", 2, 5)]),
    ("a\r\nb",
     [("IDENT", "a", 1, 1), ("IDENT", "b", 2, 1), ("EOF", "", 2, 2)]),
], ids=["trailing-comment", "arrows-and-comments", "bottom-and-underscores",
        "dotted-var-and-prime", "escaped-quotes", "raw-newline-in-string",
        "carriage-return"])
def test_lex_tokens(text, tokens):
    assert [(t.kind, t.text, t.line, t.col) for t in lex(text)] == tokens


def test_lex_unexpected_character():
    with pytest.raises(ParseError) as exc:
        lex("f(a,\n  {)")
    assert str(exc.value) == "2:3: unexpected character '{'"


@given(st.text(), st.sampled_from(["'", '"']))
def test_escape_roundtrip(body, quote):
    assert _unescape(_escape(body, quote)) == body


def test_large_catalogue_parses_at_default_recursion_limit(library_text):
    rng = random.Random(7)

    def word():
        return "".join(rng.choice(string.ascii_letters) for _ in range(8))

    books = ",\n".join(f'book({i}, "{word()}", "{word()}", "English", "Poetry", '
                       f"medium, {rng.randint(100, 999)})" for i in range(900))
    text = re.sub(r"^library -->.*?\]", lambda _m: f"library --> [{books}]",
                  library_text, count=1, flags=re.S | re.M)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        program = parse_program(text)
    finally:
        sys.setrecursionlimit(limit)
    rule = next(r for r in program.rules if r.name == "library")
    items, tail = _spine(rule.rhs)
    assert len(items) == 900 and tail is None


def test_lex_counts_the_lines_of_a_string():
    with pytest.raises(ParseError) as exc:
        lex('f --> "a\nb"\ng --> {')
    assert str(exc.value) == "3:7: unexpected character '{'"
