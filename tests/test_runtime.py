import itertools
import random

import pytest

from conftest import BOOK2, BOOK4, random_layered_program
from qcflp.constraints import Interval
from qcflp.domains import U, domain_from_name
from qcflp.runtime import (Limits, Solver, Store, answer_record, render_answer,
                           replay_trees)
from qcflp.semantics import check_proof
from qcflp.syntax import parse_constraints, parse_expr, parse_goal, parse_program
from qcflp.terms import Basic, Var
from qcflp.transform import transform_goal, transform_program


def solve_text(program, goal_text, depth=16, answers=None, dom=U):
    translated, _ = transform_program(program, dom)
    goal = parse_goal(goal_text, dom)
    constraints, wvars, datavars = transform_goal(goal, program, dom)
    solver = Solver(translated, dom, Limits(depth, answers))
    return list(solver.solve(constraints, wvars, datavars)), solver, constraints


def test_interval_posting_examples():
    p = parse_program("f --> true")
    translated, _ = transform_program(p)
    solver = Solver(translated)
    constraints = parse_constraints("qVal(W), W <= 0.9, W >= 0.65")
    answers = list(solver.solve(constraints, ["W"], []))
    assert len(answers) == 1
    iv = answers[0].qual["W"]
    assert (iv.lo, iv.hi) == (0.65, 0.9)

    constraints = parse_constraints(
        "qVal(W), qVal(W1), W <= 0.9, W >= 0.65, W <= 0.7*W1")
    answers = list(solver.solve(constraints, ["W"], []))
    assert answers[0].qual["W"].hi == pytest.approx(0.7)

    constraints = parse_constraints("qVal(W), W <= 0.7, W >= 0.8")
    assert list(solver.solve(constraints, ["W"], [])) == []


def test_solver_refuses_a_translation_under_another_domain():
    # the default U used to answer (f == R) # W with W in (-inf, inf)
    uxu = domain_from_name("uxu")
    translated, _ = transform_program(parse_program("f -(0.9,0.8)-> true", uxu), uxu)
    with pytest.raises(ValueError, match="translated under uxu .* under u$"):
        Solver(translated)
    assert Solver(translated, uxu).dom is uxu


def test_post_qual_store_operation():
    # each post narrows the answer's store, and a bound that empties an
    # interval leaves no answer
    p = parse_program("f --> true")
    translated, _ = transform_program(p)
    solver = Solver(translated)

    def store_of(text):
        answers = list(solver.solve(parse_constraints(text), ["W"], []))
        return answers[0].store if answers else None

    store = store_of("qVal(W), W <= 0.9, W >= 0.65")
    root = solver.walk(store, Var("W")).name
    assert store.ivals[root][:2] == (0.65, 0.9)
    store2 = store_of("qVal(W), W <= 0.9, W >= 0.65, qVal(W1), W <= 0.7*W1")
    assert store2.ivals[root][1] == pytest.approx(0.7)
    assert store_of("qVal(W), W <= 0.9, W >= 0.65, qVal(W1), W <= 0.7*W1, "
                    "W >= 0.8") is None


def test_propagation_guard_flags_run():
    # the two bounds chase each other down one factor of 0.99 at a time,
    # far past the step guard; the unfinished box breaks B <= A
    p = parse_program("f --> true")
    translated, _ = transform_program(p)
    text = "qVal(A), qVal(B), A <= 0.99*B, B <= A"
    solver = Solver(translated)
    answers = list(solver.solve(parse_constraints(text), ["A", "B"], []))
    assert solver.guard_hits == 1 and solver.cut == {"guard"}
    assert [a.flags for a in answers] == [["incomplete"]]
    ivals = answers[0].store.ivals
    assert ivals["B"][1] > ivals["A"][1]


# Golden answers of the solver that reduced and compiled every rule
# condition on each try; precompiled conditions must give the same.  A
# bound whose sides are all literals is evaluated, not posted.  f(Y)
# bounds a data variable, not a qualification one: the answer is not
# malformed, and it keeps the bound on Y as a residual.
EDGE = "f(X) -0.9-> true <== X <= 0.5\ng(X) --> f(X)"


@pytest.mark.parametrize("goal, expected", [
    ("f(0.3)", ["{ } { W in (0, 0.9] }"]),
    ("f(0.7)", []),
    ("f(Y)", ["{ } { W in (0, 0.9] } << Y <= 0.5 >> [conditional]"]),
    ("g(Y)", ["{ } { W in (0, 0.9] } << Y <= 0.5 >> [conditional]"]),
])
def test_rule_condition_edge_cases(goal, expected):
    answers, _, _ = solve_text(parse_program(EDGE), f"({goal} == true) # W")
    assert [render_answer(a) for a in answers] == expected


@pytest.mark.parametrize("program, goal, expected", [
    # the result holds a variable bounded by data conditions
    ("data nat = z | s(nat)\nk(z) --> s(Y) <== Y <= 0.5, Y > 0.1",
     "(k(z) == R) # W",
     "{ R -> s(~0~Y) } { W in (0, 1] } << ~0~Y <= 0.5, ~0~Y > 0.1 >> [conditional]"),
    # a bound outside the monomial shapes takes the general path
    ("p(X) --> true <== X + 1 <= 2", "(p(Y) == true) # W",
     "{ } { W in (0, 1] } << Y + 1 <= 2 >> [conditional]"),
    # the goal itself bounds its data variable
    ("f(X) --> true", "(f(Y) == true) # W, (Y <= 0.5) # V",
     "{ } { V in (0, 1], W in (0, 1] } << Y <= 0.5 >> [conditional]"),
    # bounds on a rule's local variables, which the goal's values never
    # reach and narrowing cannot refute: the answer must not be clean
    ("f --> true <== X * X < 0", "(f == true) # W",
     "{ } { W in (0, 1] } << ~0~X*~0~X < 0 >> [conditional]"),
    ("f --> true <== X + Z <= 1, X + Z >= 2", "(f == true) # W",
     "{ } { W in (0, 1] } << ~0~X + ~0~Z <= 1, ~0~X + ~0~Z >= 2 >> [conditional]"),
], ids=["in-result", "general-path", "in-goal", "local-square", "local-pair"])
def test_data_bounds_are_residual(program, goal, expected):
    # every answer names the bounds that its unbound data variables must
    # meet, and none of them is a bound on a qualification variable
    answers, _, _ = solve_text(parse_program(program), goal)
    assert [render_answer(a) for a in answers] == [expected]


@pytest.mark.parametrize("goal, expected", [
    ("(g /= b) # W", ["{ } { W in (0, 1] }"]),
    ("(c(a) /= c(a)) # W", []),
    ("(c(a) /= c(b)) # W", ["{ } { W in (0, 1] }"]),
    ("(X /= b) # W", ["{ } { W in (0, 1] } << X /= b >> [conditional]"]),
], ids=["call-vs-undeclared", "equal-undeclared", "different-undeclared",
        "variable"])
def test_disequality_on_undeclared_constructors(goal, expected):
    # a symbol that nothing declares or defines is data, so a disequality
    # between such terms is decided, as unification decides their equality
    answers, _, _ = solve_text(parse_program("data t = a\ng --> a"), goal)
    assert [render_answer(a) for a in answers] == expected


def test_undeclared_qualification_bound_is_malformed():
    # dropping a rule's qVal leaves its bounds on an undeclared
    # qualification variable: that is still flagged, and only that
    p = parse_program(EDGE)
    translated, _ = transform_program(p, U, drop_site=0)
    cs, wvars, datavars = transform_goal(parse_goal("(f(0.3) == true) # W"), p)
    answers = list(Solver(translated).solve(cs, wvars, datavars))
    assert [a.flags for a in answers] == [["malformed-qual"]]


def test_bound_on_constructor_stays_parked():
    # a qualification variable bound to a constructor is not numeric:
    # its bound is parked and the answer is conditional
    p = parse_program("data nat = z | s(nat)\n"
                      "h(W) --> true <== qVal(V), W <= 0.9*V")
    solver = Solver(p)
    answers = list(solver.solve(parse_constraints("h(s(Y)) == true"), [], ["Y"]))
    assert [render_answer(a) for a in answers] == \
        ["{ } { } << s(Y) <= 0.9*~0~V >> [conditional]"]


def test_qval_is_never_queued(library):
    p = parse_program("f --> true")
    translated, _ = transform_program(p)
    solver = Solver(translated)
    constraints = parse_constraints("qVal(W), W <= 0.9, W >= 0.65")
    answers = list(solver.solve(constraints, ["W"], []))
    # qVal narrows on the spot; each bound takes one step, and the
    # second re-steps the first
    assert solver.prop_steps == 3
    assert [c[0] for c in answers[0].store.qcons] == ["mono", "mono"]

    answers, solver, _ = solve_text(
        library,
        '(search("German","Essay",intermediate) == R) # W | W >= 0.3',
        depth=64)
    assert answers and solver.prop_steps > 0
    for ans in answers:
        assert all(c[0] != "qval" for c in ans.store.qcons)


def test_store_and_answers_hold_intervals(library):
    # the solver keeps constraints.Interval values, whether it narrows a
    # compiled monomial bound or falls back to the generic engine
    answers, _, _ = solve_text(
        library,
        '(search("German","Essay",intermediate) == R) # W | W >= 0.5',
        depth=64)
    translated, _ = transform_program(parse_program("f --> true"))
    answers += Solver(translated).solve(
        parse_constraints("qVal(W), qVal(V), W + V <= 1.2, W >= 0.3"),
        ["W", "V"], [])
    assert len(answers) > 1
    for ans in answers:
        assert ans.store.ivals and ans.qual
        for iv in (*ans.store.ivals.values(), *ans.qual.values()):
            assert type(iv) is Interval


def test_hnf_examples(library):
    translated, _ = transform_program(library)
    solver = Solver(translated)
    # a literal is its own head normal form
    assert list(solver._hnf(Basic(3.0), Store(), 8)) == [Basic(3.0)]

    call = parse_expr(f"getPages'({BOOK4}, W)")
    assert list(solver._hnf(call, Store(), 8)) == [Basic(432.0)]


def test_member_head_normal_form():
    p = parse_program("member(B,[]) --> false\n"
                      "member(B,H:_T) --> true <== B == H\n"
                      "member(B,H:T) --> member(B,T) <== B /= H")
    translated, _ = transform_program(p)
    solver = Solver(translated)
    # a translated caller declares the leaf it passes on
    goal = parse_constraints("qVal(W), member'(b, [b], W) == true")
    answers = list(solver.solve(goal, ["W"], []))
    assert len(answers) == 1 and answers[0].flags == []
    final = answers[0].store
    root = solver.walk(final, Var("W"))
    lo, hi, lo_open, hi_open = final.ivals[root.name]
    assert (lo, hi, lo_open, hi_open) == (0.0, 1.0, True, False)


def test_library_first_answer(library):
    answers, _, _ = solve_text(
        library,
        '(search("German","Essay",intermediate) == R) # W | W >= 0.65',
        depth=64)
    assert len(answers) == 1
    ans = answers[0]
    assert ans.subst["R"] == Basic(4.0)
    iv = ans.qual["W"]
    assert iv.lo == pytest.approx(0.65, abs=1e-9)
    assert iv.hi == pytest.approx(0.7, abs=1e-9)
    assert ans.flags == []
    assert render_answer(ans) == "{ R -> 4 } { W in [0.65, 0.7] }"


def test_empty_goal():
    p = parse_program("f --> true")
    translated, _ = transform_program(p)
    solver = Solver(translated)
    answers = list(solver.solve([], [], []))
    assert len(answers) == 1 and answers[0].subst == {}


def test_reader_level_interval(library):
    answers, _, _ = solve_text(
        library, f"(guessReaderLevel({BOOK2}) == intermediate) # W", depth=6)
    best = max(a.qual["W"].hi for a in answers)
    assert best == pytest.approx(0.8, abs=1e-9)
    iv = answers[0].qual["W"]
    assert iv.lo == 0.0 and iv.lo_open and not iv.hi_open


def test_threshold_monotonicity(library):
    goal = f"(guessReaderLevel({BOOK4}) == intermediate) # W"
    answers, _, _ = solve_text(library, goal, depth=6)
    h = max(a.qual["W"].hi for a in answers)
    at_h, _, _ = solve_text(library, goal + f" | W >= {h!r}", depth=6)
    assert at_h
    at_half, _, _ = solve_text(library, goal + f" | W >= {h / 2!r}", depth=6)
    assert at_half
    above, _, _ = solve_text(library, goal + f" | W >= {min(1.0, h + 0.01)!r}",
                             depth=6)
    assert not above


def test_answer_count_determinism(library):
    goal = f"(guessGenre({BOOK4}) == \"Essay\") # W"
    runs = [solve_text(library, goal, depth=6)[0] for _ in range(2)]
    assert len(runs[0]) == len(runs[1])
    assert [render_answer(a) for a in runs[0]] == [render_answer(a) for a in runs[1]]


def test_call_time_choice_shares_bindings():
    # a duplicated variable sees one choice, not two independent ones
    p = parse_program("coin --> h\ncoin --> t\npair(X) --> c(X, X)\n"
                      "f --> pair(coin)")
    answers, _, _ = solve_text(p, "f == c(A, B) # W", depth=8)
    values = {(repr(a.subst["A"]), repr(a.subst["B"])) for a in answers}
    assert values == {("h", "h"), ("t", "t")}


def test_residual_disequation_flags_conditional():
    p = parse_program("f(X) --> true <== X /= a")
    answers, _, _ = solve_text(p, "f(Y) == true # W", depth=8)
    assert answers and "conditional" in answers[0].flags
    assert answers[0].residual


def test_depth_exhaustion_flags_incomplete():
    p = parse_program("loop --> loop\nf --> true")
    answers, _, _ = solve_text(p, "loop == true # W, f == true # V", depth=4)
    assert answers == []  # no answer, the recursion never terminates
    answers, _, _ = solve_text(p, "f == true # V", depth=4)
    assert answers and answers[0].flags == []


def test_answers_limit(library):
    goal = f"(guessGenre({BOOK4}) == G) # W"
    limited, _, _ = solve_text(library, goal, depth=6, answers=1)
    assert len(limited) == 1


def test_machine_record_shape(library):
    answers, _, _ = solve_text(
        library,
        '(search("German","Essay",intermediate) == R) # W | W >= 0.65',
        depth=64)
    rec = answer_record(answers[0])
    assert rec["subst"] == {"R": "4"}
    assert rec["qual"]["W"]["hi"] == pytest.approx(0.7)
    assert rec["residual"] == [] and rec["flags"] == []


def test_replay_small_program():
    p = parse_program("g --> true\nf(X) -0.8-> g <== X == a")
    translated, _ = transform_program(p)
    goal = parse_goal("f(a) == true # W")
    constraints, wvars, datavars = transform_goal(goal, p)
    solver = Solver(translated, limits=Limits(depth=8))
    answers = list(solver.solve(constraints, wvars, datavars))
    assert len(answers) == 1
    trees = replay_trees(solver, answers[0], constraints)
    for tree in trees:
        assert check_proof(translated, None, tree).status == "valid"


def test_replay_library_answer(library):
    answers, solver, constraints = solve_text(
        library,
        '(search("German","Essay",intermediate) == R) # W | W >= 0.65',
        depth=64)
    trees = replay_trees(solver, answers[0], constraints)
    assert len(trees) == len(constraints)
    for tree in trees:
        assert check_proof(solver.program, None, tree).status == "valid"


def test_replay_random_programs():
    rng = random.Random(13)
    checked = 0
    for _ in range(6):
        p = random_layered_program(rng)
        translated, _ = transform_program(p)
        top = p.rules[-1].name
        goal = parse_goal(f"{top} == V # W")
        constraints, wvars, datavars = transform_goal(goal, p)
        solver = Solver(translated, limits=Limits(depth=12))
        for ans in list(solver.solve(constraints, wvars, datavars))[:4]:
            if ans.residual:
                continue
            for tree in replay_trees(solver, ans, constraints):
                assert check_proof(translated, None, tree).status == "valid"
                checked += 1
    assert checked > 0


# An answer prints the variables that the search introduced by first
# occurrence, so printed names do not depend on how many fresh numbers
# the search used: h's first rule, whose rhs clashes with the demand
# true, is skipped by its head and by the chain check, and is renamed
# only with both off; m's first is renamed, and fails at its cap.

CANONICAL = """
data nat = z | s(nat)
g --> s(Y)
h(s(N)) --> false
h(z) --> true
m -0.5-> true
m --> true
k(X) --> true <== Y * Y < X
f(Z) --> pair(g, g) <== h(z) == true, m == true, k(Z) == true
"""


def test_answer_names_do_not_depend_on_fresh_numbers(monkeypatch, request):
    program = parse_program(CANONICAL)
    translated, _ = transform_program(program)
    goal = parse_goal("(f(Z) == R) # W | W >= 0.6")
    constraints, wvars, datavars = transform_goal(goal, program)

    def run(start):
        solver = Solver(translated)
        solver._fresh = itertools.count(start)
        (ans,) = solver.solve(constraints, wvars, datavars)
        return (render_answer(ans), answer_record(ans)), repr(ans.subst)

    printed, raw = run(0)
    assert printed[0] == ("{ R -> pair(s(~0~Y), s(~1~Y)) } { W in [0.6, 1] } "
                          "<< ~2~Y*~2~Y < Z >> [conditional]")
    assert printed[1]["subst"] == {"R": "pair(s(~0~Y), s(~1~Y))"}
    assert printed[1]["residual"] == ["~2~Y*~2~Y < Z"]
    shifted, shifted_raw = run(1000)
    # every head unified through _unify_pattern, every clashing try run
    monkeypatch.setattr(Solver, "_match_head", lambda self, pats_t, args, store, vs: [])
    request.getfixturevalue("no_clash_skips")
    unmatched, unmatched_raw = run(0)
    assert shifted == printed and unmatched == printed
    # the answers themselves keep the solver's names, which differ
    assert len({raw, shifted_raw, unmatched_raw}) == 3


# Ground data (literals and constructor applications, with no variable
# and no call) is bound and compared whole.  Names printed after it are
# those of a cell-by-cell bind.

FRESH_AFTER = "data nat = z | s(nat)\ng --> s(Y)\n"


@pytest.mark.parametrize("goal, expected", [
    ('(X == "abc") # W1',
     '{ R -> s(~0~Y), X -> "abc" } { W1 in (0, 1], W2 in (0, 1] }'),
    ('(pair(1, "ab") == X) # W1',
     '{ R -> s(~0~Y), X -> pair(1, "ab") } { W1 in (0, 1], W2 in (0, 1] }'),
    # a skeleton for pair, then "ab" whole
    ('(X == pair("ab", Z)) # W1',
     '{ R -> s(~0~Y), X -> pair("ab", Z) } { W1 in (0, 1], W2 in (0, 1] }'),
    ('("abc" == "abc") # W1', '{ R -> s(~0~Y) } { W1 in (0, 1], W2 in (0, 1] }'),
    ('(pair(X, 2) == pair(1.0, 2.0)) # W1',
     '{ R -> s(~0~Y), X -> 1 } { W1 in (0, 1], W2 in (0, 1] }'),
], ids=["string", "pair", "partly-ground", "compare", "literal-values"])
def test_whole_bind_keeps_fresh_names(goal, expected):
    answers, _, _ = solve_text(parse_program(FRESH_AFTER),
                               f"{goal}, (g == R) # W2")
    assert [render_answer(a) for a in answers] == [expected]


FAILED_BIND = """
data nat = z | s(nat)
f(Y) --> true <== Y >= 0.5
g(X) --> z <== f(X) == true, X == "ab"
g(X) --> s(Y)
"""


def test_failed_whole_bind_keeps_fresh_names():
    # f gives X an interval, so binding X to "ab" fails, and g's second
    # rule gives the answer
    answers, _, _ = solve_text(parse_program(FAILED_BIND), "(g(X) == R) # W")
    assert [render_answer(a) for a in answers] == ["{ R -> s(~0~Y) } { W in (0, 1] }"]


def test_ground_bind_is_linear(monkeypatch):
    # a cell-by-cell bind runs an occurs check over the rest of the string
    # at every cell: 90,901 calls on this goal
    calls = []
    occurs = Solver._occurs
    monkeypatch.setattr(Solver, "_occurs", lambda self, *args:
                        calls.append(args) or occurs(self, *args))
    text = "abcdefghij" * 30
    answers, solver, constraints = solve_text(
        parse_program("f --> true"), f'(X == "{text}") # W')
    assert [render_answer(a) for a in answers] == \
        [f'{{ X -> "{text}" }} {{ W in (0, 1] }}']
    assert calls == []
    for tree in replay_trees(solver, answers[0], constraints):
        assert check_proof(solver.program, None, tree).status == "valid"


def test_an_answer_limit_below_one_yields_nothing():
    program = parse_program("f --> true\n")
    constraints, wvars, datavars = transform_goal(parse_goal("(f == R) # W"),
                                                  program)
    translated = transform_program(program)[0]
    for answers, count in ((-2, 0), (0, 0), (1, 1), (None, 1)):
        solver = Solver(translated, limits=Limits(answers=answers))
        assert len(list(solver.solve(constraints, wvars, datavars))) == count


def test_literal_pattern_meets_an_evaluated_argument():
    # the match stops at the call g, so _unify_pattern evaluates it and
    # compares each rule's literal pattern with its value
    answers, solver, constraints = solve_text(
        parse_program("g --> 1\nf(1) --> true\nf(2) --> false"), "(f(g) == R) # W")
    assert [render_answer(a) for a in answers] == ["{ R -> true } { W in (0, 1] }"]
    for tree in replay_trees(solver, answers[0], constraints):
        assert check_proof(solver.program, None, tree).status == "valid"


def test_residual_shows_the_value_of_a_call_evaluated_after_it_was_parked():
    # B takes the call f unevaluated; the disequation is parked before
    # B == 1 evaluates f, and the residual resolves B through that
    # recorded evaluation
    answers, _, _ = solve_text(
        parse_program("f --> 1\nk(B) --> true <== c(B) /= c(Y), B == 1"),
        "(k(f) == R) # W")
    assert [render_answer(a) for a in answers] == \
        ["{ R -> true } { W in (0, 1] } << c(1) /= c(~0~Y) >> [conditional]"]


def test_a_qualification_bound_to_a_literal_is_a_point():
    solver = Solver(transform_program(parse_program("f --> true"))[0])
    answers = list(solver.solve(parse_constraints("qVal(W), W == 0.5"), ["W"], []))
    assert [render_answer(a) for a in answers] == ["{ } { W in 0.5 }"]


@pytest.mark.parametrize("extra,rendered", [
    ("", ["{ } { W in [0.8, 1], X in (0, 0.5] }"]),
    (", X >= 0.6", []),
])
def test_qbound_propagates_as_a_product_bound(extra, rendered):
    # qBound(X, k, W) reads X <= k*W: it caps X at 0.5 from W <= 1
    solver = Solver(transform_program(parse_program("f --> true"))[0])
    constraints = parse_constraints(f"qVal(W), W >= 0.8, qVal(X), qBound(X, 0.5, W){extra}")
    assert [render_answer(a) for a in solver.solve(constraints, ["W", "X"], [])] == rendered
