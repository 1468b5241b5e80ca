"""Rules whose head cannot match a call are skipped before renaming.

A rule's probe is its first head pattern that is not a variable; when
the call argument there already is a literal or a constructor value
with another head, the solver goes on to the next rule without renaming
this one.  The filter evaluates nothing, so answers, flags and variable
names are those of trying every rule.
"""

import pytest

from conftest import BOOK4
from test_fixpoint import DAG
from qcflp import runtime
from qcflp.domains import U, domain_from_name
from qcflp.runtime import Limits, Solver, render_answer
from qcflp.syntax import parse_goal, parse_program
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

    def counted(self, index, rule):
        count[0] += 1
        return rename(self, index, rule)
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
