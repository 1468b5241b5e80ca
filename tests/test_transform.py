import random
import re
import string
import sys

import pytest

from conftest import BOOK4, random_layered_program
from qcflp.domains import U, domain_from_name
from qcflp.semantics import holds, parse_statement
from qcflp.syntax import (parse_constraints, parse_expr, parse_goal,
                          parse_program, print_constraints, print_program,
                          print_rule)
from qcflp.terms import Basic, Var, vars_of
from qcflp.transform import (Emitter, FreshSupply, GroundData, TransformError,
                             transform_expr, transform_goal, transform_program,
                             transform_rule)

UXU = domain_from_name("uxu")


def _tx_expr(text, program):
    # each call at the top takes a fresh leaf argument
    supply = FreshSupply()
    return transform_expr(parse_expr(text), program.signature, GroundData(),
                          lambda: (Var(supply.fresh()),))


def test_expr_atoms_unchanged(library):
    assert _tx_expr("B", library) == Var("B")
    assert _tx_expr("3", library) == parse_expr("3")


def test_expr_call_gets_fresh_variable(library):
    assert _tx_expr("guessGenre(B)", library) == parse_expr("guessGenre'(B, _W0)")


def test_expr_call_under_constructor(library):
    # calls under a constructor are each at the top
    p = parse_program("f(X) --> c(X)")
    assert _tx_expr("c(f(X), f(Y))", p) == parse_expr("c(f'(X, _W0), f'(Y, _W1))")


def test_expr_calls_take_arguments_in_pre_order():
    # call_arg() is called for each call at the top, left to right, and
    # before the calls nested in it, which take their caller's argument
    p = parse_program("f(X) --> X\ng(X) --> X")
    assert _tx_expr("c(f(g(X)), c(g(Y), f(Z)))", p) == \
        parse_expr("c(f'(g'(X, _W0), _W0), c(g'(Y, _W1), f'(Z, _W2)))")


def test_large_catalogue_translates_at_default_recursion_limit(library_text):
    rng = random.Random(7)

    def word():
        return "".join(rng.choice(string.ascii_letters) for _ in range(8))

    books = ",\n".join(f'book({i}, "{word()}", "{word()}", "German", "Essay", '
                       f"medium, {rng.randint(100, 999)})" for i in range(512))
    text = re.sub(r"^library -->.*?\]", lambda _m: f"library --> [{books}]",
                  library_text, count=1, flags=re.S | re.M)
    program = parse_program(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        translated, _ = transform_program(program)
    finally:
        sys.setrecursionlimit(limit)
    rule = next(r for r in translated.rules if r.name == "library'")
    spine, items = rule.rhs, 0
    while spine.args:
        spine, items = spine.args[1], items + 1
    assert items == 512


def test_nested_calls_chain(library):
    # a call nested in a call is a premise at factor 1: it takes its
    # caller's leaf argument
    assert _tx_expr("guessGenre(member(B, library))", library) == \
        parse_expr("guessGenre'(member'(B, library'(_W0), _W0), _W0)")


def test_rule_no_calls(library):
    rule = library.rules[1]  # the empty-list membership rule
    supply = FreshSupply()
    new_rule, introduced = transform_rule(rule, library.signature, GroundData(),
                                          supply, Emitter(U))
    # alpha is 1, so the head bounds nothing and declares nothing
    assert print_rule(new_rule) == "member'(B, [], _W0) --> false"
    assert introduced == ["_W0"]


def test_rule_at_factor_one_threads_its_variable(library):
    rule = library.rules[3]  # member(B,H:T) --> member(B,T) <== B /= H
    new_rule, introduced = transform_rule(rule, library.signature, GroundData(),
                                          FreshSupply(), Emitter(U))
    assert print_rule(new_rule) == \
        "member'(B, H:T, _W0) --> member'(B, T, _W0) <== B /= H"
    assert introduced == ["_W0"]


def test_rule_with_condition_call(library):
    rule = next(r for r in library.rules
                if r.name == "guessGenre" and r.attenuation == 0.9)
    supply = FreshSupply()
    new_rule, introduced = transform_rule(rule, library.signature, GroundData(),
                                          supply, Emitter(U))
    assert print_rule(new_rule) == (
        "guessGenre'(B, _W0) --> \"Fantasy\" <== qVal(_W0), "
        "qVal(_W1), _W0 <= 0.9*_W1, guessGenre'(B, _W1) == \"SciFi\"")
    assert introduced == ["_W0", "_W1"]


def test_rule_with_rhs_call():
    p = parse_program("g --> true\nf(X) -0.8-> g")
    supply = FreshSupply()
    rule = p.rules[1]
    new_rule, _ = transform_rule(rule, p.signature, GroundData(), supply, Emitter(U))
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
    t1, _ = transform_program(library)
    t2, _ = transform_program(library)
    assert print_program(t1) == print_program(t2)
    assert parse_program(print_program(t1)) == t1  # printed form parses back


def test_transform_of_transformed_rejected(library):
    translated, _ = transform_program(library)
    with pytest.raises(TransformError):
        transform_program(translated)


def test_goal_transform_exact(library):
    goal = parse_goal('(search("German","Essay",intermediate) == R) # W | W >= 0.65')
    constraints, wvars, datavars = transform_goal(goal, library)
    assert print_constraints(constraints) == \
        'qVal(W), W >= 0.65, search\'("German", "Essay", intermediate, W) == R'
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
    # each conjunct's calls take its own W
    assert print_constraints(constraints) == \
        "qVal(W1), f'(W1), qVal(W2), g'(W2)"


def test_structural_preservation_random():
    rng = random.Random(21)
    for _ in range(8):
        p = random_layered_program(rng)
        t, _ = transform_program(p)
        assert len(t.rules) == len(p.rules)
        for old, new in zip(p.rules, t.rules):
            assert new.name == old.name + "'"
            assert len(new.patterns) == len(old.patterns) + 1


def test_uxu_lowering():
    p = parse_program("m -(0.9,0.8)-> true", UXU)
    t, _ = transform_program(p, UXU)
    assert print_rule(t.rules[0]) == (
        "m'(_W0.1, _W0.2) --> true "
        "<== qVal(_W0.1), qVal(_W0.2), _W0.1 <= 0.9, _W0.2 <= 0.8")


def test_uxu_call_takes_one_argument_per_leaf(library_text):
    # each f of arity n becomes f' of arity n + 2, and no constructor
    # threads the two leaves
    program = parse_program(library_text, UXU)
    translated, _ = transform_program(program, UXU)
    assert translated.signature.df == \
        {f + "'": n + 2 for f, n in program.signature.df.items()}
    assert translated.signature.dc == program.signature.dc


def test_uxu_premise_shares_the_component_at_factor_one():
    # the first component gets a fresh leaf bounded at 0.9, the second
    # passes the head's leaf on, so the head declares only the first
    p = parse_program("g --> true\nm -(0.9,1)-> g", UXU)
    t, _ = transform_program(p, UXU)
    assert print_rule(t.rules[1]) == (
        "m'(_W1.1, _W1.2) --> g'(_W2.1, _W1.2) "
        "<== qVal(_W1.1), qVal(_W2.1), _W1.1 <= 0.9*_W2.1")


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
    assert count_qual_sites(parse_program(library_text), U) == 36
    assert count_qual_sites(parse_program(library_text, UXU), UXU) == 72


def _invariant_cases(library_text, source):
    """(program, domain, goal texts) for the threaded-translation checks."""
    if source == "random":
        out = []
        for seed in range(12):
            p = random_layered_program(random.Random(seed))
            out.append((p, U, [f"{r.name} == V # W" for r in p.rules]))
        return out
    dom = domain_from_name(source.split("-")[1])
    t = "(0.65,0.65)" if dom is not U else "0.65"
    return [(parse_program(library_text, dom), dom,
             [f'(search("German","Essay",intermediate) == R) # W | W >= {t}',
              "(search(L,G,V) == R) # W", "(guessGenre(B) == G) # W"])]


def _declared_then_bounded(conditions, passed_on=()):
    """The qVal-declared names that no later bound of conditions names,
    leaving out passed_on."""
    loose = []
    for i, c in enumerate(conditions):
        if c.symbol == "qVal" and c.args[0].name not in passed_on:
            later = [d for d in conditions[i + 1:] if d.symbol in ("<=", ">=")]
            if not any(c.args[0].name in vars_of(d) for d in later):
                loose.append(c.args[0].name)
    return loose


@pytest.mark.parametrize("source", ["library-u", "library-uxu", "random"])
def test_threaded_translation(library_text, source):
    # no chain W <= V is left, every emitted qVal is named by a later
    # bound (so dropping it makes the bound [malformed-qual]) unless it
    # declares a goal's W, and printed translations parse back equal
    for program, dom, goals in _invariant_cases(library_text, source):
        translated, _ = transform_program(program, dom)
        assert parse_program(print_program(translated), dom) == translated
        for rule in translated.rules:
            assert not [c for c in rule.conditions if c.symbol == "<="
                        and isinstance(c.args[1], Var)], print_rule(rule)
            assert not _declared_then_bounded(rule.conditions), print_rule(rule)
        for text in goals:
            goal = parse_goal(text, dom)
            constraints, wvars, _ = transform_goal(goal, program, dom)
            printed = print_constraints(constraints)
            assert parse_constraints(printed) == constraints
            assert not [c for c in constraints if c.symbol == "<="], printed
            leaves = {w + suf for w in wvars for suf in dom.leaf_suffixes()}
            assert not _declared_then_bounded(constraints, leaves), printed


@pytest.mark.parametrize("dom", [U, UXU])
def test_emit_map_source_conditions(library, dom):
    # the emit map locates each rule's own conditions among those of its
    # translation; every other condition is a qVal or bound it emitted
    translated, emit_map = transform_program(library, dom)
    for rule, new, entry in zip(library.rules, translated.rules, emit_map):
        own = entry["source_conditions"]
        assert [new.conditions[j].symbol for j in own] \
            == [c.symbol for c in rule.conditions]
        emitted = [c for j, c in enumerate(new.conditions) if j not in own]
        assert all(c.symbol in ("qVal", "<=") for c in emitted)


def test_goal_data_is_the_rules_data(library_text):
    # the translation builds the ground data of rules and goals in one
    # table, kept on the source program and shared by its translation,
    # so a goal's copy of a record of the library list is that record
    program = parse_program(library_text)
    translated, _ = transform_program(program)
    data = program.memo("ground data", GroundData)
    assert translated.memo("ground data", GroundData) is data
    books, spine = [], next(r for r in translated.rules if r.name == "library'").rhs
    while spine.args:
        books, spine = books + [spine.args[0]], spine.args[1]
    entries = len(data.terms)
    goal = parse_goal(f'(getLanguage({BOOK4}) == "German") # W')
    constraints, _, _ = transform_goal(goal, program)
    call, german = constraints[-1].args
    assert call.args[0] is books[3] and german is books[3].args[3]
    # neither the goal nor a second translation adds an entry
    transform_program(program)
    assert len(data.terms) == entries


BOOK1 = 'book(1, "a", "b", "c", "d", easy, 65)'


@pytest.mark.parametrize("text,symbol,args,arity", [
    (f"(getId({BOOK1}, 7) == R) # W", "getId", 2, 1),
    ("(getId(book(1, easy)) == R) # W", "book", 2, 7),
], ids=["function", "constructor"])
def test_goal_symbol_at_another_arity_is_refused(library, text, symbol, args, arity):
    # the goal parses without the program's signature; its translation
    # refuses a symbol of the signature at another arity
    with pytest.raises(TransformError, match=re.escape(
            f"{symbol!r} applied to {args} argument(s), but its arity is {arity}")):
        transform_goal(parse_goal(text), library)


def test_statement_symbol_at_another_arity_is_refused(library):
    statement = parse_statement(f"(getId({BOOK1}, 7) -> 1) # 0.5")
    with pytest.raises(TransformError, match="'getId' applied to 2 argument"):
        holds(library, U, statement)
