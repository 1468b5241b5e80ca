import itertools
import sys
import time

import pytest

import qcflp.oracle
import qcflp.transform
from qcflp.domains import U, domain_from_name
from qcflp.oracle import (OracleRecord, OracleReport, _antichain, _sets_match,
                          compare, count_qual_sites, default_universe)
from qcflp.runtime import Limits, Solver
from qcflp.semantics import BUDGET, bounded_lfp
from qcflp.syntax import Goal, GoalItem, parse_expr, parse_program, print_expr
from qcflp.terms import App, AtomicConstraint, Basic, TRUE, is_value
from qcflp.transform import TransformError, transform_goal, transform_program

UXU = domain_from_name("uxu")

# Tiny programs whose emitted qualification conditions are all load-bearing:
# every rule either attenuates strictly or threads calls in every block, so
# no emitted condition duplicates another one.
CHAIN = """
f -0.9-> true
g -0.8-> f
h -0.7-> g
"""

BRANCHING = """
a -0.9-> true
p(z) -0.95-> true
p(s(N)) -0.5-> p(N)
c(X) -0.7-> a <== p(X)
"""

PAIRS = """
m -(0.9,0.8)-> true
n -(0.7,1)-> m
"""


def test_chain_program_agrees():
    p = parse_program(CHAIN)
    report = compare(p, U, k=6, depth=8)
    assert not report.partial
    assert report.mismatches == []
    by_goal = {r.goal: r for r in report.records}
    assert by_goal["f == true"].fixpoint == [(pytest.approx(0.9),)]
    assert by_goal["g == true"].fixpoint == [(pytest.approx(0.72),)]
    assert by_goal["h == true"].fixpoint == [(pytest.approx(0.504),)]


def test_branching_program_agrees():
    p = parse_program(BRANCHING, U)
    universe = default_universe(p) + [parse_expr("s(z)"), parse_expr("s(s(z))")]
    report = compare(p, U, k=6, universe=universe, depth=8)
    assert report.mismatches == []
    by_goal = {r.goal: r for r in report.records}
    # the binding block differs per argument: rhs for c(z), condition for c(s(z))
    assert by_goal["c(z) == true"].solver == [(pytest.approx(0.63),)]
    assert by_goal["c(s(z)) == true"].solver == [(pytest.approx(0.7 * 0.5 * 0.95),)]


def test_pair_program_agrees():
    p = parse_program(PAIRS, UXU)
    report = compare(p, UXU, k=4, depth=8)
    assert report.mismatches == []
    by_goal = {r.goal: r for r in report.records}
    assert by_goal["n == true"].fixpoint == [(pytest.approx(0.63), pytest.approx(0.8))]


@pytest.mark.parametrize("source,dom,universe_extra", [
    (CHAIN, U, []),
    (BRANCHING, U, ["s(z)", "s(s(z))"]),
    (PAIRS, UXU, []),
])
def test_every_mutation_detected(source, dom, universe_extra):
    p = parse_program(source, dom)
    universe = default_universe(p) + [parse_expr(t) for t in universe_extra]
    sites = count_qual_sites(p, dom)
    assert sites > 0
    undetected = []
    for site in range(sites):
        report = compare(p, dom, k=6, universe=universe, depth=8, drop_site=site)
        if not report.mismatches:
            undetected.append(site)
    assert undetected == []


def test_mismatch_direction_readable():
    p = parse_program(CHAIN)
    report = compare(p, U, k=6, depth=8, drop_site=4)
    assert report.mismatches
    rec = report.mismatches[0]
    assert rec.fixpoint != rec.solver


def test_a_fact_the_solver_misses_is_a_mismatch():
    # at depth 0 the solver answers no goal: a target with a fact but
    # no answer keeps its record, while those with neither are skipped
    report = compare(parse_program(CHAIN), U, k=6, depth=0)
    assert [(r.goal, r.solver, r.match) for r in report.records] == [
        ("f == true", [], False), ("g == true", [], False),
        ("h == true", [], False)]


def test_default_universe_collects_ground_terms():
    p = parse_program(BRANCHING)
    terms = default_universe(p)
    assert parse_expr("z") in terms and parse_expr("true") in terms


def test_default_universe_walks_a_long_list_in_linear_time():
    # one walk with its own stack, each value hash-consed: no structural
    # comparison of every suffix of the list with every earlier one
    program = parse_program("data t = a | b\nbig --> [" + ", ".join(["a"] * 60000)
                            + "]\none --> 1\nsame --> 1.0\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        started = time.process_time()
        terms = default_universe(program)
        elapsed = time.process_time() - started
    finally:
        sys.setrecursionlimit(limit)
    assert elapsed < 2
    assert len(terms) == 24
    assert [print_expr(t) for t in terms[:4]] == ["1", "[]", "a", "[a]"]
    # of two equal literals, the first one met is kept
    one, same = (next(r.rhs for r in program.rules if r.name == name)
                 for name in ("one", "same"))
    assert terms[0] is one and terms[0] is not same


# ----------------------------------------------------------------------
# one solver query per call, against a goal per (call, target) pair
# ----------------------------------------------------------------------

def per_target_compare(program, dom=U, k=6, universe=None, depth=8,
                       drop_site=None, budget=BUDGET):
    """compare as it was before the result was asked free: one solve for
    every (call, target) pair, each a step of the budget that the
    fixpoint's instances spent first.  The reference for the grouped
    queries; it reads corners with oracle._corners, so it checks only
    the grouping."""
    report = OracleReport()
    universe = default_universe(program) if universe is None else list(universe)
    interp = bounded_lfp(program, dom, k, universe, budget=budget)
    report.partial = interp.partial
    translated, _ = transform_program(program, dom, drop_site=drop_site)
    solver = Solver(translated, dom, Limits(depth=depth))
    targets = [u for u in universe if is_value(u, program.signature)]
    points = [float(u.value) if isinstance(u, Basic) else u for u in targets]
    steps = interp.steps
    for fname, arity in sorted(program.signature.df.items()):
        for args in itertools.product(universe, repeat=arity):
            for target in targets:
                steps += 1
                if steps > budget:
                    report.partial = True
                    return report
                call = App(fname, tuple(args))
                constraint = AtomicConstraint("==", (call, target), TRUE)
                fix = _antichain([tuple(dom.split(d)) for d in
                                  interp.max_quals(fname, tuple(args), target, dom)])
                goal = Goal((GoalItem(constraint, "W", None),))
                answers = solver.solve(*transform_goal(goal, program, dom))
                run, note = qcflp.oracle._corners(answers, dom, points)
                match = _sets_match(fix, run)
                if fix or run or not match:
                    report.records.append(OracleRecord(
                        f"{print_expr(call)} == {print_expr(target)}",
                        fix, run, match, note))
    return report


UXU_CHAIN = """
m -(0.9,0.8)-> true
n -(0.7,1)-> m
o -(0.8,0.5)-> n
"""

# the result of k(z) is s(Y) for every Y, and that of h(z) a variable
# with an interval: no answer names one target, so each is asked alone
OPEN_RESULT = "data nat = z | s(nat)\nk(z) --> s(Y)\nk(s(X)) -0.5-> X\n"
BOUNDED_RESULT = "data nat = z | s(nat)\nh(z) --> Y <== Y <= 0.5\nh(s(z)) -0.5-> z\n"
# asked free, g's first rule runs into the depth bound on the way to
# s(loop), and the conditional answer c comes after that cut; g == c
# never evaluates loop, so its note must not say incomplete
CUT_BEFORE_FLAGGED = ("data d = a | c | s(d)\nloop --> loop\ng --> s(loop)\n"
                      "g --> c <== h(X) == true\nh(Y) --> true <== Y /= a\n")


def _cases():
    cases = []
    for name, source, dom, extra in [
            ("chain", CHAIN, U, []),
            ("branching", BRANCHING, U, ["s(z)", "s(s(z))"]),
            ("pairs", PAIRS, UXU, []),
            ("uxu-chain", UXU_CHAIN, UXU, [])]:
        p = parse_program(source, dom)
        universe = default_universe(p) + [parse_expr(t) for t in extra]
        for site in [None, *range(count_qual_sites(p, dom))]:
            cases.append(pytest.param(p, dom, universe, {"drop_site": site},
                                      id=f"{name}-{site}"))
    for name, source in [("open", OPEN_RESULT), ("bounded", BOUNDED_RESULT)]:
        p = parse_program(source, U)
        universe = [parse_expr(t) for t in ("z", "s(z)", "s(s(z))", "0.5", "0.7")]
        cases.append(pytest.param(p, U, universe, {}, id=name))
    p = parse_program(CUT_BEFORE_FLAGGED, U)
    universe = [parse_expr(t) for t in ("a", "c", "s(a)")]
    cases.append(pytest.param(p, U, universe, {}, id="cut-before-flagged"))
    p = parse_program(BRANCHING, U)
    universe = default_universe(p) + [parse_expr("s(z)")]
    # the fixpoint spends 26 steps: 36 leave ten goals, of which
    # c(s(z)) == true is the last, and 20 leave none
    cases.append(pytest.param(p, U, universe, {"budget": 36}, id="truncated"))
    cases.append(pytest.param(p, U, universe, {"budget": 20},
                              id="truncated-fixpoint"))
    return cases


@pytest.mark.parametrize("program, dom, universe, kw", _cases())
def test_grouped_queries_match_per_target_goals(program, dom, universe, kw):
    got = compare(program, dom, k=6, universe=universe, depth=8, **kw)
    want = per_target_compare(program, dom, k=6, universe=universe, depth=8, **kw)
    assert got.records == want.records
    assert got.partial == want.partial


def test_disequation_witnessed_by_a_constructor_term():
    # X has no interval; X = c satisfies the residual X /= a, so the
    # conditional answer for g == c agrees with the fixpoint
    p = parse_program(CUT_BEFORE_FLAGGED, U)
    universe = [parse_expr(t) for t in ("a", "c", "s(a)")]
    report = compare(p, U, k=6, universe=universe, depth=8)
    assert report.mismatches == []
    by_goal = {r.goal: r for r in report.records}
    assert by_goal["g == c"].solver == [(1.0,)]
    assert by_goal["g == c"].note == ""


def _count_solves(monkeypatch):
    calls = []
    solve = Solver.solve

    def counting(self, constraints, wvars, datavars):
        calls.append(datavars)
        return solve(self, constraints, wvars, datavars)

    monkeypatch.setattr(qcflp.oracle.Solver, "solve", counting)
    return calls


def test_one_solve_per_call_when_results_are_values(monkeypatch):
    calls = _count_solves(monkeypatch)
    p = parse_program(BRANCHING, U)
    universe = default_universe(p) + [parse_expr("s(z)"), parse_expr("s(s(z))")]
    report = compare(p, U, k=6, universe=universe, depth=8)
    assert report.mismatches == []
    # a/0, and c/1 and p/1 over the universe; every call has all of the
    # universe's values as targets, but is solved once, with a free result
    n = len(universe)
    assert len(calls) == 1 + 2 * n
    assert calls == [["T"]] * len(calls)


def test_open_results_ask_each_target(monkeypatch):
    calls = _count_solves(monkeypatch)
    p = parse_program(OPEN_RESULT, U)
    universe = [parse_expr(t) for t in ("z", "s(z)", "s(s(z))")]
    report = compare(p, U, k=6, universe=universe, depth=8)
    assert report.mismatches == []
    by_goal = {r.goal: r.solver for r in report.records}
    assert by_goal["k(z) == s(z)"] == by_goal["k(z) == s(s(z))"] == [(1.0,)]
    # k(z) falls back to one goal per target; k(s(z)) and k(s(s(z))) do not
    assert len(calls) == 3 + len(universe)


def test_bounded_result_reports_no_mismatch():
    # h(z)'s result Y is bounded by a data condition, not a qualification
    # one: the answer for h(z) == 0.5 is clean, not malformed
    p = parse_program(BOUNDED_RESULT, U)
    report = compare(p, U, k=4)
    assert not report.partial
    assert report.mismatches == []
    by_goal = {r.goal: r for r in report.records}
    assert by_goal["h(z) == 0.5"].solver == [(1.0,)]
    assert by_goal["h(z) == 0.5"].note == ""


@pytest.mark.parametrize("source, solver, note", [
    # X is rule-local; 0.5 is a universe literal that satisfies X <= 0.5
    ("f --> true <== X <= 0.5", [(1.0,)], ""),
    ("f --> true <== X <= 0.5, X > 0.2", [(1.0,)], ""),
    # no real number satisfies X * X < 0
    ("f --> true <== X * X < 0", [], "flagged answer: conditional"),
    # Y > 0.7 holds for some real, but for no universe literal, and the
    # fixpoint draws Y from the universe: both sides have no fact
    ("f --> true <== X <= 0.5, Y > 0.7", [], "flagged answer: conditional"),
    # X = Y = 0.5 satisfies a residual on two variables
    ("f --> true <== X <= Y, Y <= 0.5", [(1.0,)], ""),
    # 0.5, the one literal in X's interval, fails X /= 0.5
    ("f --> true <== X /= 0.5, X <= 0.5", [], "flagged answer: conditional"),
])
def test_conditional_answer_with_a_witness_is_a_corner(source, solver, note):
    p = parse_program(source, U)
    call = App("f")
    answers = list(qcflp.oracle._solve(
        Solver(transform_program(p, U)[0], U), p, U, call, TRUE))
    assert [a.flags for a in answers] == [["conditional"]]
    points = [float(u.value) for u in default_universe(p)
              if isinstance(u, Basic)]
    assert qcflp.oracle._corners(answers, U, points) == (solver, note)
    report = compare(p, U, k=4)
    assert report.mismatches == []
    assert [r.solver for r in report.records] == ([solver] if solver else [])


def test_compare_uses_the_programs_own_translation(monkeypatch):
    # the unmutated comparison solves the translation kept on the
    # program, so a second comparison translates nothing
    calls = []
    inner = qcflp.transform.transform_program

    def counting(*args, **kwargs):
        calls.append(kwargs.get("drop_site"))
        return inner(*args, **kwargs)

    monkeypatch.setattr(qcflp.transform, "transform_program", counting)
    monkeypatch.setattr(qcflp.oracle, "transform_program", counting)
    program = parse_program(CHAIN)
    first = compare(program, U, k=4)
    second = compare(program, U, k=4)
    assert len(calls) == 1
    assert first.mismatches == second.mismatches == []
    compare(program, U, k=4, drop_site=0)
    assert calls == [None, 0]


def test_one_fixpoint_per_universe_list(monkeypatch):
    # a sweep's comparisons over one universe list share the fixpoint
    # side; an equal but newly built universe, another k and another
    # budget each compute it again
    calls = []
    inner = qcflp.oracle.bounded_lfp

    def counting(*args, **kwargs):
        calls.append(args[2])
        return inner(*args, **kwargs)

    monkeypatch.setattr(qcflp.oracle, "bounded_lfp", counting)
    p = parse_program(BRANCHING, U)

    def fresh_universe():
        return default_universe(p) + [parse_expr("s(z)"), parse_expr("s(s(z))")]

    universe = fresh_universe()
    sites = count_qual_sites(p, U)
    assert sites == 12
    for site in [None, *range(sites)]:
        compare(p, U, k=6, universe=universe, depth=8, drop_site=site)
    assert len(calls) == 1
    compare(p, U, k=6, universe=fresh_universe(), depth=8)
    assert len(calls) == 2
    compare(p, U, k=5, universe=universe, depth=8)
    assert len(calls) == 3
    compare(p, U, k=6, universe=universe, depth=8, budget=BUDGET - 1)
    assert len(calls) == 4


@pytest.mark.parametrize("site", [99, -1, 5])
def test_out_of_range_mutation_site_is_refused(site):
    # the program emits 5 sites: another drop_site used to compare the
    # unmutated translation and report no mismatch
    p = parse_program("f -0.9-> true\ng -0.8-> f\n")
    assert count_qual_sites(p, U) == 5
    with pytest.raises(TransformError, match=r"out of range \(0\.\.4\)"):
        compare(p, U, k=4, drop_site=site)
    with pytest.raises(TransformError):
        transform_program(p, U, drop_site=site)
    assert compare(p, U, k=4, drop_site=4).mismatches
