"""Rules that cannot succeed on a call are skipped before renaming.

The one head test, Solver._match_head, matches a rule's head against
the call left to right, as far as the call's arguments are already
values; when a pattern there meets a literal or a constructor value
with another head, the solver goes on to the next rule without
renaming, tracing or counting this one.  The match evaluates nothing,
so answers, flags, certificates and printed variable names are those of
unifying every head.  A rule
whose attenuation caps the call's qualification below its threshold is
renamed, and fails as its bound is posted.
"""

import pytest

from conftest import BOOK4
from test_fixpoint import DAG
from qcflp.constraints import Interval, narrow_bound
from qcflp.domains import U, domain_from_name
from qcflp.runtime import Limits, Solver, render_answer, replay_trees
from qcflp.semantics import serialize_proof
from qcflp.syntax import (parse_constraints, parse_goal, parse_program,
                          print_program)
from qcflp.transform import transform_goal, transform_program

SPIN = """
data nat = z | s(nat)
spin(X) --> spin(X)
f(z) --> true
f(s(N)) --> pair(N, Y)
g --> f(spin(z))
g --> f(s(z))
"""


def solve(source, goal, depth=64, dom=U, trace=None, tries=None):
    """The rendered answers of a goal; its rule tries (Solver.tries) are
    appended to the list tries, when one is given."""
    program = parse_program(source, dom) if isinstance(source, str) else source
    translated, _ = transform_program(program, dom)
    constraints, wvars, datavars = transform_goal(parse_goal(goal, dom), program, dom)
    solver = Solver(translated, dom, Limits(depth=depth), trace)
    answers = [render_answer(a) for a in solver.solve(constraints, wvars, datavars)]
    if tries is not None:
        tries.append(solver.tries)
    return answers


def test_probe_behind_a_cut_call_keeps_incomplete():
    # f(spin(z)) must evaluate its argument to try f's rules; the depth
    # cut that this hits flags every answer, also the one from f(s(z))
    (answer,) = solve(SPIN, "(g == R) # W", depth=5)
    assert answer.startswith("{ R -> pair(z, ")
    assert answer.endswith("{ W in (0, 1] } [incomplete]")


def test_trace_shows_only_rules_whose_head_can_match():
    lines = []
    solve(SPIN, "(f(s(z)) == R) # W", trace=lines.append)
    assert lines == ["try rule 2: f'"]
    lines.clear()
    solve(SPIN, "(f(spin(z)) == R) # W", depth=3, trace=lines.append)
    assert "try rule 1: f'" in lines and "try rule 2: f'" in lines


def test_dag_renames_fall_and_answers_stay(monkeypatch):
    program = parse_program(DAG)
    goals = [f"({f}({n}) == R) # W" for f in ("r", "s") for n in
             sorted({c.symbol for r in program.rules for c in r.patterns})]
    renames, unfiltered = [], []
    filtered = [solve(program, g, depth=8, tries=renames) for g in goals]
    monkeypatch.setattr(Solver, "_match_head", lambda self, pats_t, args, store, vs: [])
    assert [solve(program, g, depth=8, tries=unfiltered) for g in goals] == filtered
    assert sum(unfiltered) >= 5 * sum(renames)
    assert any(filtered)


def test_filter_keeps_fresh_variable_names(monkeypatch):
    filtered = solve(SPIN, "(g == R) # W", depth=5)
    monkeypatch.setattr(Solver, "_match_head", lambda self, pats_t, args, store, vs: [])
    assert solve(SPIN, "(g == R) # W", depth=5) == filtered


PAPER = '(search("German","Essay",intermediate) == R) # W'

# benchmark/workloads.py's threshold-sweep solves, rendered before rules
# were filtered by head: (goal, domain, depth, answers)
THRESHOLD_SWEEP = [
    (f"{PAPER} | W >= 0.9", "u", 64, []),
    (f"{PAPER} | W >= 0.8", "u", 64, []),
    (f"{PAPER} | W >= 0.7", "u", 64, ["{ R -> 4 } { W in 0.7 }"]),
    (f"{PAPER} | W >= 0.65", "u", 64, ["{ R -> 4 } { W in [0.65, 0.7] }"]),
    (f"{PAPER} | W >= 0.6", "u", 64, ["{ R -> 4 } { W in [0.6, 0.7] }"]),
    (f"{PAPER} | W >= 0.5", "u", 64, ["{ R -> 4 } { W in [0.5, 0.7] }"]),
    (f"{PAPER} | W >= 0.3", "u", 64, ["{ R -> 4 } { W in [0.3, 0.7] }"]),
    (f"(guessGenre({BOOK4}) == G) # W | W >= 0.5", "u", 64,
     ['{ G -> "Biography" } { W in [0.5, 1] }',
      '{ G -> "Essay" } { W in [0.5, 0.7] }']),
    (f"(guessGenre({BOOK4}) == G) # W | W >= 0.3", "u", 64,
     ['{ G -> "Biography" } { W in [0.3, 1] }',
      '{ G -> "Essay" } { W in [0.3, 0.7] }']),
    (f"{PAPER} | W >= (0.65,0.65)", "uxu", 64,
     ["{ R -> 4 } { W.1 in [0.65, 0.7], W.2 in [0.65, 0.7] }"]),
    (PAPER, "u", 5, ["{ R -> 4 } { W in (0, 0.7] } [incomplete]"]),
    (PAPER, "u", 6, ["{ R -> 4 } { W in (0, 0.7] } [incomplete]"]),
]


@pytest.mark.parametrize("goal,dom_name,depth,expected", THRESHOLD_SWEEP)
def test_threshold_sweep_answers_unchanged(library_text, goal, dom_name,
                                           depth, expected):
    dom = domain_from_name(dom_name)
    program = parse_program(library_text, dom)
    assert solve(program, goal, depth, dom) == expected


@pytest.mark.parametrize("goal,dom_name,depth,expected", THRESHOLD_SWEEP)
def test_data_that_is_not_canonical_takes_the_general_paths(
        library_text, goal, dom_name, depth, expected):
    # a translated program parsed back from text holds no canonical
    # ground data, and the goal's data is canonical in another table, so
    # its solver compares and binds data by decomposing it: the same
    # answers, only slower
    dom = domain_from_name(dom_name)
    program = parse_program(library_text, dom)
    translated, _ = transform_program(program, dom)
    reparsed = parse_program(print_program(translated), dom)
    constraints, wvars, datavars = transform_goal(parse_goal(goal, dom), program, dom)
    rendered = []
    for p in (translated, reparsed):
        solver = Solver(p, dom, Limits(depth=depth))
        rendered.append([render_answer(a)
                         for a in solver.solve(constraints, wvars, datavars)])
    assert rendered == [expected, expected]


def solve_certified(program, goal, depth, dom, tries=None):
    """The rendered answers of a goal, and the certificates of the
    replayed trees of each clean answer; its rule tries are appended to
    tries, as in solve."""
    translated, _ = transform_program(program, dom)
    constraints, wvars, datavars = transform_goal(parse_goal(goal, dom), program, dom)
    solver = Solver(translated, dom, Limits(depth=depth))
    answers = list(solver.solve(constraints, wvars, datavars))
    certs = [serialize_proof(tree, dom.name, None)
             for a in answers if not a.flags
             for tree in replay_trees(solver, a, constraints)]
    if tries is not None:
        tries.append(solver.tries)
    return [render_answer(a) for a in answers], certs


# rule renamings with the chain check: at most so many on a thresholded
# goal (89 to 620 on the paper goal when a qualification probe and call
# subsumption stood in for the check under uxu), or exactly so many
# threshold-free, where the chain check skips only tries whose chains
# meet no attenuation, and the cut check every clashing try after the
# first depth cut (103 and 134 with a failure memo in its place)
MAX_THRESHOLDED_RENAMES = 40
EXACT_RENAMES = {(PAPER, 5): 42, (PAPER, 6): 46}


@pytest.mark.parametrize("goal,dom_name,depth,expected", THRESHOLD_SWEEP)
def test_chain_check_keeps_answers_and_certificates(
        request, library_text, goal, dom_name, depth, expected):
    dom = domain_from_name(dom_name)
    program = parse_program(library_text, dom)
    tries = []
    checked = solve_certified(program, goal, depth, dom, tries)
    request.getfixturevalue("no_clash_skips")
    assert solve_certified(program, goal, depth, dom, tries) == checked
    assert checked[0] == expected
    renames, every = tries
    assert renames <= every
    if "|" in goal:
        assert renames <= MAX_THRESHOLDED_RENAMES
    assert renames == EXACT_RENAMES.get((goal, depth), renames)


def test_paper_goal_posts_no_implied_bounds(no_cut_skips, no_clash_skips, library):
    # the translation emits no bound that qVal or a premise bound implies,
    # so the solver propagates fewer posts for the same rule tries (the
    # search with every clashing try run, which the bound was taken on)
    translated, _ = transform_program(library)
    constraints, wvars, datavars = transform_goal(
        parse_goal(f"{PAPER} | W >= 0.3"), library)
    solver = Solver(translated, limits=Limits(depth=64))
    answers = [render_answer(a) for a in solver.solve(constraints, wvars, datavars)]
    assert answers == ["{ R -> 4 } { W in [0.3, 0.7] }"]
    assert solver.tries == 15881
    assert solver.prop_steps <= 40000


# goal, depth, rule tries, answers, and the propagation steps that the
# chained translation (a fresh variable and W <= Wi per premise at
# factor 1) made on it, with every clashing try run.  The tries are those
# of trying every rule whose attenuation caps the call below its
# threshold (104 and 509 when such rules were skipped before renaming)
SHARED_PREMISE_SEARCH = [
    (f"{PAPER} | W >= 0.65", 64, 167, 1, 258),
    ("(search(L,G,V) == R) # W | W >= 0.6", 64, 951, 13, 1395),
    ("(guessGenre(B) == G) # W", 6, 7166, 6, 37774),
]


@pytest.mark.parametrize("goal,depth,tries,answers,chained_steps",
                         SHARED_PREMISE_SEARCH, ids=["paper", "search", "guessGenre"])
def test_shared_premise_variable_keeps_the_search(no_cut_skips, no_clash_skips,
                                                  library, goal, depth, tries,
                                                  answers, chained_steps):
    # a premise at factor 1 passes its parent's variable on instead of a
    # chained fresh one: the rule tries and answers are those of the
    # chained translation, and the solver propagates fewer steps.  Every
    # clashing try runs, as it did when the chained translation was
    # measured: its premise bounds (W <= Wi) leave its calls unbounded
    translated, _ = transform_program(library)
    constraints, wvars, datavars = transform_goal(parse_goal(goal), library)
    solver = Solver(translated, limits=Limits(depth=depth))
    assert len(list(solver.solve(constraints, wvars, datavars))) == answers
    assert solver.tries == tries
    assert solver.prop_steps < chained_steps


@pytest.mark.parametrize("dom_name,source,threshold,answers", [
    ("u", "f -0.9-> true", "0.9", ["{ } { W in 0.9 }"]),
    ("u", "f -0.9-> true", "0.91", []),
    ("uxu", "f -(0.9,0.8)-> true", "(0.9,0.8)", ["{ } { W.1 in 0.9, W.2 in 0.8 }"]),
    ("uxu", "f -(0.9,0.8)-> true", "(0.9,0.81)", []),
    ("uxu", "f -(0.9,0.8)-> true", "(0.91,0.5)", []),
], ids=["u-at-cap", "u-above", "uxu-at-cap", "uxu-second-above", "uxu-first-above"])
def test_an_attenuation_caps_each_component(dom_name, source, threshold, answers):
    dom = domain_from_name(dom_name)
    assert solve(parse_program(source, dom), f"(f == true) # W | W >= {threshold}",
                 dom=dom) == answers


@pytest.mark.parametrize("strict", [False, True], ids=["cap", "strict-cap"])
@pytest.mark.parametrize("lo_open", [False, True], ids=["closed", "open"])
def test_a_cap_at_the_threshold_fails_when_either_end_is_open(lo_open, strict):
    # W >= 0.9 (or W > 0.9) against the cap W <= 0.9*V (or W < 0.9*V),
    # with V <= 1: the propagator empties W, and the rule fails
    iv = Interval(0.9, 1.0, lo_open, False)
    ivals = {"W": iv}
    fails = narrow_bound(ivals, ivals.__setitem__, "W", hi=0.9, hi_open=strict)
    assert (fails == "fail") == (lo_open or strict)
    program = parse_program(
        f"f'(W) --> true <== qVal(W), qVal(V), W {'<' if strict else '<='} 0.9*V")
    goal = parse_constraints(f"qVal(W), W {'>' if lo_open else '>='} 0.9, f'(W) == true")
    answers = list(Solver(program).solve(goal, ["W"], []))
    assert len(answers) == (0 if lo_open or strict else 1)


RESIDUAL = """
f(X) -0.5-> true
f(X) --> g(X)
g(X) --> true <== Y * Y < X
"""


def test_a_rule_that_its_cap_fails_keeps_fresh_variable_names():
    # f's first rule is renamed and fails at its cap; the residual of
    # the answer still names g's Y first
    assert solve(RESIDUAL, "(f(Z) == true) # W | W >= 0.6") == \
        ["{ } { W in [0.6, 1] } << ~0~Y*~0~Y < Z >> [conditional]"]


CAPPED_SPIN = """
data nat = z | s(nat)
spin(X) --> spin(X)
f(z) -0.5-> true
f(s(N)) -0.5-> true
g --> f(spin(z))
g --> true
"""


def test_capped_rules_behind_a_cut_call_keep_incomplete():
    # both f rules are capped below the threshold, but matching their
    # constructor patterns evaluates spin(z), and the depth cut that
    # this hits flags the answer of g's second rule
    assert solve(CAPPED_SPIN, "(g == R) # W | W >= 0.6", depth=5) == \
        ["{ R -> true } { W in [0.6, 1] } [incomplete]"]
