"""Rules that cannot succeed on a call are skipped before renaming.

A rule's head probe is its first head pattern that is not a variable;
when the call argument there already is a literal or a constructor
value with another head, the solver goes on to the next rule without
renaming this one.  Its qualification probe is the constant bound that
its attenuation puts on the call's qualification argument; when that
argument's interval lies above it, the rule is skipped as well.  The
filters evaluate nothing, so answers, flags, certificates and variable
names are those of trying every rule.
"""

import pytest

from conftest import BOOK4
from test_fixpoint import DAG
from qcflp import runtime
from qcflp.constraints import Interval, narrow_bound
from qcflp.domains import U, domain_from_name
from qcflp.runtime import (Limits, Solver, Store, render_answer,
                           replay_trees)
from qcflp.semantics import serialize_proof
from qcflp.syntax import parse_goal, parse_program, print_program
from qcflp.terms import Basic, Var
from qcflp.transform import transform_goal, transform_program

SPIN = """
data nat = z | s(nat)
spin(X) --> spin(X)
f(z) --> true
f(s(N)) --> pair(N, Y)
g --> f(spin(z))
g --> f(s(z))
"""


def solve(source, goal, depth=64, dom=U, trace=None):
    program = parse_program(source, dom) if isinstance(source, str) else source
    translated, _ = transform_program(program, dom)
    constraints, wvars, datavars = transform_goal(parse_goal(goal, dom), program, dom)
    solver = Solver(translated, dom, Limits(depth=depth), trace)
    return [render_answer(a) for a in solver.solve(constraints, wvars, datavars)]


@pytest.fixture
def count_renames(monkeypatch):
    """A list whose one item counts the rule renamings made so far."""
    count = [0]
    rename = Solver._rename_rule

    def counted(self, tpl, *rest):
        count[0] += 1
        return rename(self, tpl, *rest)
    monkeypatch.setattr(Solver, "_rename_rule", counted)
    return count


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


def test_dag_renames_fall_and_answers_stay(monkeypatch, count_renames):
    program = parse_program(DAG)
    goals = [f"({f}({n}) == R) # W" for f in ("r", "s") for n in
             sorted({c.symbol for r in program.rules for c in r.patterns})]
    filtered = [solve(program, g, depth=8) for g in goals]
    renames = count_renames[0]
    monkeypatch.setattr(runtime, "_head_probe", lambda rule: None)
    count_renames[0] = 0
    assert [solve(program, g, depth=8) for g in goals] == filtered
    assert count_renames[0] >= 5 * renames
    assert any(filtered)


def test_filter_keeps_fresh_variable_names(monkeypatch):
    filtered = solve(SPIN, "(g == R) # W", depth=5)
    monkeypatch.setattr(runtime, "_head_probe", lambda rule: None)
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


# The qualification probe: a rule whose attenuation caps the call's
# qualification below the lower bound it already has is skipped before
# it is renamed, as a rule whose head cannot match is.

def solve_certified(program, goal, depth, dom):
    """The rendered answers of a goal, and the certificates of the
    replayed trees of each clean answer."""
    translated, _ = transform_program(program, dom)
    constraints, wvars, datavars = transform_goal(parse_goal(goal, dom), program, dom)
    solver = Solver(translated, dom, Limits(depth=depth))
    answers = list(solver.solve(constraints, wvars, datavars))
    certs = [serialize_proof(tree, dom.name, None)
             for a in answers if not a.flags
             for tree in replay_trees(solver, a, constraints)]
    return [render_answer(a) for a in answers], certs


# rule renamings with the probe, both runs under the failure memo: at
# most so many, or exactly so many where no goal threshold lets it fire
# (196 and 305 when the failure memo served demands, 121 and 152 before
# clashing tries that cannot cut were skipped)
MAX_RENAMES = {(f"{PAPER} | W >= 0.3", 64): 2100,
               (f"(guessGenre({BOOK4}) == G) # W | W >= 0.3", 64): 1200}
EXACT_RENAMES = {(PAPER, 5): 103, (PAPER, 6): 134}


@pytest.mark.parametrize("goal,dom_name,depth,expected", THRESHOLD_SWEEP)
def test_qual_probe_keeps_answers_and_certificates(
        monkeypatch, count_renames, library_text, goal, dom_name, depth, expected):
    dom = domain_from_name(dom_name)
    program = parse_program(library_text, dom)
    probed = solve_certified(program, goal, depth, dom)
    renames = count_renames[0]
    monkeypatch.setattr(runtime, "_qual_caps", lambda pats_t, compiled_t: ())
    count_renames[0] = 0
    assert solve_certified(program, goal, depth, dom) == probed
    assert probed[0] == expected
    assert renames <= count_renames[0]
    assert renames <= MAX_RENAMES.get((goal, depth), renames)
    assert renames == EXACT_RENAMES.get((goal, depth), renames)


def test_paper_goal_posts_no_implied_bounds(count_renames, no_failure_memo,
                                            no_clash_skips, library):
    # the translation emits no bound that qVal or a premise bound implies,
    # so the solver propagates fewer posts for the same rule tries (the
    # search without the failure memo and with every clashing try run,
    # which the bound was taken on)
    translated, _ = transform_program(library)
    constraints, wvars, datavars = transform_goal(
        parse_goal(f"{PAPER} | W >= 0.3"), library)
    solver = Solver(translated, limits=Limits(depth=64))
    answers = [render_answer(a) for a in solver.solve(constraints, wvars, datavars)]
    assert answers == ["{ R -> 4 } { W in [0.3, 0.7] }"]
    assert count_renames[0] == 7961
    assert solver.prop_steps <= 40000


# goal, depth, rule tries, answers, and the propagation steps that the
# chained translation (a fresh variable and W <= Wi per premise at
# factor 1) made on it, without the failure memo
SHARED_PREMISE_SEARCH = [
    (f"{PAPER} | W >= 0.65", 64, 104, 1, 258),
    ("(search(L,G,V) == R) # W | W >= 0.6", 64, 509, 13, 1395),
    ("(guessGenre(B) == G) # W", 6, 7166, 6, 37774),
]


@pytest.mark.parametrize("goal,depth,tries,answers,chained_steps",
                         SHARED_PREMISE_SEARCH, ids=["paper", "search", "guessGenre"])
def test_shared_premise_variable_keeps_the_search(count_renames, no_failure_memo,
                                                  no_clash_skips, library, goal,
                                                  depth, tries, answers,
                                                  chained_steps):
    # a premise at factor 1 passes its parent's variable on instead of a
    # chained fresh one: the rule tries and answers are those of the
    # chained translation, and the solver propagates fewer steps.  Every
    # clashing try runs, as it did when the chained translation was
    # measured: its premise bounds (W <= Wi) leave its calls unbounded
    translated, _ = transform_program(library)
    constraints, wvars, datavars = transform_goal(parse_goal(goal), library)
    solver = Solver(translated, limits=Limits(depth=depth))
    assert len(list(solver.solve(constraints, wvars, datavars))) == answers
    assert count_renames[0] == tries
    assert solver.prop_steps < chained_steps


def test_qual_probe_reads_the_cap_from_a_premise_bound(library):
    # guessGenre(B) -0.9-> "Fantasy" <== guessGenre(B) == "SciFi" bounds
    # its W only by W <= 0.9*V after qVal(V); as V <= 1, that caps W at 0.9
    translated, _ = transform_program(library)
    solver = Solver(translated)
    caps = []
    for i, (source, rule) in enumerate(zip(library.rules, translated.rules)):
        if source.name == "guessGenre" and source.attenuation < 1:
            assert not [c for c in rule.conditions
                        if c.symbol == "<=" and isinstance(c.args[1], Basic)]
            assert solver._compile_rule(i, rule)[-1] == \
                (((), source.attenuation, False),)
            caps.append(source.attenuation)
    assert caps == [0.9, 0.8, 0.7, 0.7]


def test_probe_keeps_a_rule_whose_cap_the_threshold_meets(count_renames):
    assert solve("f -0.9-> true", "(f == true) # W | W >= 0.9") == \
        ["{ } { W in 0.9 }"]
    assert count_renames[0] == 1
    count_renames[0] = 0
    assert solve("f -0.9-> true", "(f == true) # W | W >= 0.91") == []
    assert count_renames[0] == 0


def test_trace_leaves_out_rules_the_qual_probe_skips():
    lines = []
    assert solve("f -0.9-> true\nf --> true", "(f == true) # W | W >= 0.95",
                 trace=lines.append) == ["{ } { W in [0.95, 1] }"]
    assert lines == ["try rule 1: f'"]


@pytest.mark.parametrize("strict", [False, True], ids=["cap", "strict-cap"])
@pytest.mark.parametrize("lo_open", [False, True], ids=["closed", "open"])
def test_probe_and_propagator_agree_at_the_cap(lo_open, strict):
    # W >= 0.9 (or W > 0.9) against the cap W <= 0.9 (or W < 0.9)
    iv = Interval(0.9, 1.0, lo_open, False)
    solver = Solver(parse_program("f --> true"))
    skips = solver._over_cap(Store(ivals={"W": iv}), Var("W"), (((), 0.9, strict),))
    ivals = {"W": iv}
    fails = narrow_bound(ivals, ivals.__setitem__, "W", hi=0.9, hi_open=strict)
    assert skips == (fails == "fail") == (lo_open or strict)
    # a literal argument is a closed point
    literal = Store(subst={"W": Basic(0.9)})
    assert solver._over_cap(literal, Var("W"), (((), 0.9, strict),)) == strict


@pytest.mark.parametrize("threshold,answers", [
    ("(0.9,0.8)", ["{ } { W.1 in 0.9, W.2 in 0.8 }"]),
    ("(0.9,0.81)", []),
    ("(0.91,0.5)", []),
])
def test_uxu_probe_skips_on_either_component(count_renames, threshold, answers):
    uxu = domain_from_name("uxu")
    assert solve(parse_program("m -(0.9,0.8)-> true", uxu),
                 f"(m == true) # W | W >= {threshold}", dom=uxu) == answers
    assert count_renames[0] == len(answers)


RESIDUAL = """
f(X) -0.5-> true
f(X) --> g(X)
g(X) --> true <== Y * Y < X
"""


def test_probe_keeps_fresh_variable_names(monkeypatch, count_renames):
    goal = "(f(Z) == true) # W | W >= 0.6"
    probed = solve(RESIDUAL, goal)
    assert probed == ["{ } { W in [0.6, 1] } << ~0~Y*~0~Y < Z >> [conditional]"]
    assert count_renames[0] == 2
    monkeypatch.setattr(runtime, "_qual_caps", lambda pats_t, compiled_t: ())
    assert solve(RESIDUAL, goal) == probed


CAPPED_SPIN = """
data nat = z | s(nat)
spin(X) --> spin(X)
f(z) -0.5-> true
f(s(N)) -0.5-> true
g --> f(spin(z))
g --> true
"""


def test_qual_probe_behind_a_cut_call_keeps_incomplete():
    # both f rules are capped below the threshold, but matching their
    # constructor patterns evaluates spin(z), and the depth cut that
    # this hits flags the answer of g's second rule
    assert solve(CAPPED_SPIN, "(g == R) # W | W >= 0.6", depth=5) == \
        ["{ R -> true } { W in [0.6, 1] } [incomplete]"]
