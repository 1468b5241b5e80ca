import random

import pytest

from conftest import random_layered_program
from qcflp.domains import U, domain_from_name
from qcflp.syntax import (parse_constraints, parse_expr, parse_goal,
                          parse_program, print_constraints, print_program,
                          print_rule)
from qcflp.terms import Basic, Var, vars_of
from qcflp.transform import (Emitter, FreshSupply, TransformError,
                             simplify_constraints, simplify_rule,
                             transform_expr, transform_goal, transform_program,
                             transform_rule)

UXU = domain_from_name("uxu")


def _tx_expr(text, program, seed=0):
    supply = FreshSupply(seed)
    em = Emitter(U)
    return transform_expr(parse_expr(text), program.signature, supply, em)


def test_expr_atoms_unchanged(library):
    out = _tx_expr("B", library)
    assert out.expr == Var("B") and out.constraints == () and out.wvars == ()
    out = _tx_expr("3", library)
    assert out.constraints == () and out.wvars == ()


def test_expr_call_gets_fresh_variable(library):
    out = _tx_expr("guessGenre(B)", library)
    assert out.expr == parse_expr("guessGenre'(B, _W0)")
    assert list(out.constraints) == parse_constraints("qVal(_W0)")
    assert out.wvars == ("_W0",)


def test_expr_call_under_constructor(library):
    # one call nested under a constructor: the variable set survives upward
    p = parse_program("f(X) --> c(X)")
    out = _tx_expr("c(f(X))", p)
    assert out.expr == parse_expr("c(f'(X, _W0))")
    assert list(out.constraints) == parse_constraints("qVal(_W0)")
    assert out.wvars == ("_W0",)


def test_nested_calls_chain(library):
    out = _tx_expr("guessGenre(member(B, library))", library)
    assert out.expr == parse_expr("guessGenre'(member'(B, library'(_W0), _W1), _W2)")
    assert list(out.constraints) == parse_constraints(
        "qVal(_W0), qVal(_W1), _W1 <= _W0, qVal(_W2), _W2 <= _W1")
    assert out.wvars == ("_W2",)


def test_rule_no_calls(library):
    rule = library.rules[1]  # the empty-list membership rule
    supply = FreshSupply(0)
    new_rule, introduced = transform_rule(rule, library.signature, supply, Emitter(U))
    assert print_rule(new_rule) == \
        "member'(B, [], _W0) --> false <== qVal(_W0)"
    assert introduced == ["_W0"]


def test_rule_with_condition_call(library):
    rule = next(r for r in library.rules
                if r.name == "guessGenre" and r.attenuation == 0.9)
    supply = FreshSupply(0)
    new_rule, introduced = transform_rule(rule, library.signature, supply, Emitter(U))
    assert print_rule(new_rule) == (
        "guessGenre'(B, _W0) --> \"Fantasy\" <== qVal(_W0), "
        "qVal(_W1), _W0 <= 0.9*_W1, guessGenre'(B, _W1) == \"SciFi\"")
    assert introduced == ["_W0", "_W1"]


def test_rule_with_rhs_call():
    p = parse_program("g --> true\nf(X) -0.8-> g")
    supply = FreshSupply(0)
    rule = p.rules[1]
    new_rule, _ = transform_rule(rule, p.signature, supply, Emitter(U))
    assert print_rule(new_rule) == \
        "f'(X, _W0) --> g'(_W1) <== qVal(_W0), qVal(_W1), _W0 <= 0.8*_W1"


def test_empty_program():
    empty = parse_program("")
    assert empty.rules == []
    assert parse_program(print_program(empty)) == empty
    translated, emit_map = transform_program(empty)
    assert translated.rules == [] and emit_map == []


def test_program_structure(library):
    translated, emit_map = transform_program(library)
    assert len(translated.rules) == 24
    for f, n in library.signature.df.items():
        assert translated.signature.df[f + "'"] == n + 1
    assert [e["source_rule"] for e in emit_map] == list(range(24))
    assert [e["translated_rule"] for e in emit_map] == list(range(24))
    # head constructor patterns are preserved, one condition block added
    for old, new in zip(library.rules, translated.rules):
        assert new.patterns[:-1] == old.patterns
        assert new.attenuation == 1.0
        assert len(new.conditions) >= len(old.conditions)


def test_freshness_hygiene(library):
    translated, emit_map = transform_program(library)
    source_vars = set()
    for r in library.rules:
        source_vars |= vars_of(r.patterns) | vars_of(r.rhs) | vars_of(r.conditions)
    introduced = [w for e in emit_map for w in e["qual_vars"]]
    assert len(introduced) == len(set(introduced))
    assert not (set(introduced) & source_vars)


def test_determinism(library):
    t1, _ = transform_program(library, seed=0)
    t2, _ = transform_program(library, seed=0)
    assert print_program(t1) == print_program(t2)
    t3, _ = transform_program(library, seed=7)
    assert print_program(t3) != print_program(t1)
    assert parse_program(print_program(t1)) == t1  # printed form parses back


def test_transform_of_transformed_rejected(library):
    translated, _ = transform_program(library)
    with pytest.raises(TransformError):
        transform_program(translated)


def test_goal_transform_exact(library):
    goal = parse_goal('(search("German","Essay",intermediate) == R) # W | W >= 0.65')
    constraints, wvars, datavars = transform_goal(goal, library)
    assert print_constraints(constraints) == (
        'qVal(_W0), qVal(W), W <= _W0, W >= 0.65, '
        'search\'("German", "Essay", intermediate, _W0) == R')
    assert wvars == ["W"] and datavars == ["R"]


def test_goal_primitive_only():
    p = parse_program("f --> true")
    goal = parse_goal("1 <= 2 # W | W >= 0.5")
    constraints, _, _ = transform_goal(goal, p)
    assert print_constraints(constraints) == "qVal(W), W >= 0.5, 1 <= 2"


def test_goal_two_conjuncts_disjoint():
    p = parse_program("f --> true\ng --> true")
    goal = parse_goal("f == true # W1, g == true # W2")
    constraints, wvars, _ = transform_goal(goal, p)
    assert wvars == ["W1", "W2"]
    text = print_constraints(constraints)
    assert "_W0" in text and "_W1" in text


def test_simplify_goal_to_session_form(library):
    goal = parse_goal('(search("German","Essay",intermediate) == R) # W | W >= 0.65')
    constraints, _, _ = transform_goal(goal, library)
    simplified = simplify_constraints(constraints)
    assert print_constraints(simplified) == \
        'qVal(W), W >= 0.65, search\'("German", "Essay", intermediate, W) == R'
    # idempotent
    assert simplify_constraints(simplified) == simplified


def test_simplify_respects_double_use():
    cs = parse_constraints(
        "qVal(_W0), qVal(W), W <= _W0, f'(_W0) == A, g'(_W0) == B")
    assert simplify_constraints(cs) == cs


def test_simplify_rule_threads_variable():
    p = parse_program("member(B,[]) --> false\n"
                      "member(B,H:_T) --> true <== B == H\n"
                      "member(B,H:T) --> member(B,T) <== B /= H")
    translated, _ = transform_program(p)
    simplified = simplify_rule(translated.rules[2])
    assert print_rule(simplified) == (
        "member'(B, H:T, _W2) --> member'(B, T, _W2) "
        "<== qVal(_W2), B /= H")


def test_structural_preservation_random():
    rng = random.Random(21)
    for _ in range(8):
        p = random_layered_program(rng)
        t, _ = transform_program(p)
        assert len(t.rules) == len(p.rules)
        for old, new in zip(p.rules, t.rules):
            assert new.name == old.name + "'"
            assert len(new.patterns) == len(old.patterns) + 1


def test_simplified_rules_preserve_answers(library):
    from qcflp.runtime import Limits, Solver, render_answer
    from qcflp.syntax import Program, parse_goal

    translated, _ = transform_program(library)
    simplified = Program(translated.signature,
                         [simplify_rule(r) for r in translated.rules])
    assert parse_program(print_program(simplified)) == simplified
    goal = parse_goal('(search("German","Essay",intermediate) == R) # W | W >= 0.65')
    cs, wn, dv = transform_goal(goal, library)
    outs = []
    for prog in (translated, simplified):
        solver = Solver(prog, limits=Limits(depth=64))
        outs.append([render_answer(a) for a in solver.solve(cs, wn, dv)])
    assert outs[0] == outs[1] == ["{ R -> 4 } { W in [0.65, 0.7] }"]


def test_uxu_lowering():
    p = parse_program("m -(0.9,0.8)-> true", UXU)
    t, _ = transform_program(p, UXU)
    assert print_rule(t.rules[0]) == (
        "m'(qpair(_W0.1, _W0.2)) --> true "
        "<== qVal(_W0.1), qVal(_W0.2), _W0.1 <= 0.9, _W0.2 <= 0.8")


def test_emitted_site_count_stable(library):
    from qcflp.oracle import count_qual_sites
    assert count_qual_sites(library, U) == count_qual_sites(library, U)


def _constant_bounds(rule, qual_vars):
    return [c for c in rule.conditions
            if c.symbol == "<=" and isinstance(c.args[1], Basic)
            and isinstance(c.args[0], Var)
            and c.args[0].name.split(".")[0] in qual_vars]


@pytest.mark.parametrize("source", ["library-u", "library-uxu", "random"])
def test_no_bound_that_qval_implies(library_text, source):
    # qVal(V) gives V <= 1, so a top constant W <= 1 is implied by qVal(W),
    # and any W <= a by a premise bound W <= a*V
    if source == "random":
        rng = random.Random(8)
        cases = [(random_layered_program(rng), U) for _ in range(12)]
    else:
        dom = domain_from_name(source.split("-")[1])
        cases = [(parse_program(library_text, dom), dom)]
    constant_rules = 0
    for program, dom in cases:
        translated, emit_map = transform_program(program, dom)
        for rule, entry in zip(translated.rules, emit_map):
            bounds = _constant_bounds(rule, entry["qual_vars"])
            assert all(c.args[1].value < 1.0 for c in bounds), print_rule(rule)
            if bounds:
                # only a rule without a qualified premise: its own W alone
                assert len(entry["qual_vars"]) == 1, print_rule(rule)
                assert len(set(bounds)) == len(bounds), print_rule(rule)
                constant_rules += 1
    assert constant_rules > 0 or source != "random"


def test_library_site_counts(library_text):
    from qcflp.oracle import count_qual_sites
    assert count_qual_sites(parse_program(library_text), U) == 70
    assert count_qual_sites(parse_program(library_text, UXU), UXU) == 140
