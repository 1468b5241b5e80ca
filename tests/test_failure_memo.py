"""A solver remembers the demands that failed.

A demand that a call on ground data evaluate to a literal or to ground
data (guessGenre(B) == "SciFi" for one book) is keyed by the call's
symbol and data, the demanded value, its qualification leaves'
intervals and the remaining depth.  A subsearch that fails with no
propagation guard records its key and the cut reasons it raised; the
same demand later adds those reasons to the run's cut and fails at once.
Answers, flags, residuals, certificates and cut lines are those of the
search without the memo.
"""

import pytest

from test_rule_filter import PAPER, THRESHOLD_SWEEP
from qcflp.cli import main
from qcflp.domains import U, domain_from_name
from qcflp.runtime import (EvalRec, Limits, Solver, Store, _failure_key,
                           answer_record, replay_trees)
from qcflp.semantics import serialize_proof
from qcflp.syntax import parse_constraints, parse_goal, parse_program
from qcflp.terms import App, Basic, Var
from qcflp.transform import transform_goal, transform_program


def outcome(program, goal, depth, dom):
    """Everything a solve shows: each answer's record (bindings,
    qualification, residuals, flags), the certificates of the clean
    answers and the reasons the run was cut; and the solver."""
    translated, _ = transform_program(program, dom)
    constraints, wvars, datavars = transform_goal(parse_goal(goal, dom), program, dom)
    solver = Solver(translated, dom, Limits(depth=depth))
    answers = list(solver.solve(constraints, wvars, datavars))
    certs = [serialize_proof(tree, dom.name, None)
             for a in answers if not a.flags
             for tree in replay_trees(solver, a, constraints)]
    return ([answer_record(a) for a in answers], certs, solver.cut), solver


DIFFERENTIAL = [
    *[pytest.param(goal, dom, depth, id=f"sweep-{i}")
      for i, (goal, dom, depth, _) in enumerate(THRESHOLD_SWEEP)],
    pytest.param("(search(L,G,V) == R) # W | W >= 0.6", "u", 64, id="search-u"),
    pytest.param("(search(L,G,V) == R) # W | W >= 0.6", "uxu", 64, id="search-uxu"),
    pytest.param("(guessGenre(B) == G) # W", "u", 6, id="guessGenre-depth6"),
]


@pytest.mark.parametrize("goal,dom_name,depth", DIFFERENTIAL)
def test_memo_keeps_what_the_search_shows(monkeypatch, library_text, goal,
                                          dom_name, depth):
    dom = domain_from_name(dom_name)
    program = parse_program(library_text, dom)
    memo, solver = outcome(program, goal, depth, dom)
    monkeypatch.setattr("qcflp.runtime._failure_key", lambda *args: None)
    plain, unmemoized = outcome(program, goal, depth, dom)
    assert memo == plain
    assert unmemoized.failure_hits == 0 and not unmemoized.failures


def test_paper_goal_counts(library, monkeypatch):
    # without the memo: 7,961 tries and 19,610 propagation steps
    tries = []
    rename = Solver._rename_rule
    monkeypatch.setattr(Solver, "_rename_rule",
                        lambda self, *args: tries.append(1) or rename(self, *args))
    (records, _, cut), solver = outcome(library, f"{PAPER} | W >= 0.3", 64, U)
    assert [r["qual"]["W"] for r in records] == \
        [{"lo": 0.3, "hi": 0.7, "lo_open": False, "hi_open": False}]
    assert (len(tries), solver.prop_steps) == (2059, 5959)
    assert (solver.failure_hits, len(solver.failures)) == (338, 387)
    assert cut == set()


# two rules of q demand p(a) == true alike; p's condition loops until
# the depth bound cuts it
LOOP = """
data t = a | b
loop(X) --> loop(X)
p(X) --> true <== loop(X) == b
q --> true <== p(a) == true
q --> true <== p(a) == true
"""


def test_a_hit_replays_the_depth_cut(tmp_path, capsys, monkeypatch):
    src = tmp_path / "loop.qcflp"
    src.write_text(LOOP)
    argv = ["solve", str(src), "--goal", "(q == true) # W", "--depth", "8", "--trace"]
    assert main(argv) == 3
    memo = capsys.readouterr()
    trace = memo.err.splitlines()
    assert trace[-3:] == ["-- try rule 3: q'", "-- reuse failure: p'(a, W) == true",
                          "solve: search cut by --depth 8; answers may be missing"]
    assert trace.count("-- try rule 0: loop'") == 6
    monkeypatch.setattr("qcflp.runtime._failure_key", lambda *args: None)
    assert main(argv) == 3
    plain = capsys.readouterr()
    assert plain.out == memo.out == ""
    assert plain.err.splitlines()[-1] == trace[-1]
    assert "reuse failure" not in plain.err


def test_a_later_run_of_the_solver_replays_the_cut():
    # the first run records the goal's own demand, with the depth cut
    # that its subsearch raised; the second run tries no rule, and that
    # cut still flags it
    program = parse_program(LOOP)
    translated, _ = transform_program(program)
    constraints, wvars, datavars = transform_goal(parse_goal("(q == true) # W"), program)
    lines = []
    solver = Solver(translated, limits=Limits(depth=8), trace=lines.append)
    assert list(solver.solve(constraints, wvars, datavars)) == []
    assert solver.cut == {"depth"} and solver.failure_hits == 1
    lines.clear()
    assert list(solver.solve(constraints, wvars, datavars)) == []
    assert lines == ["reuse failure: q'(W) == true"]
    assert solver.cut == {"depth"} and solver.failure_hits == 2


def test_a_reduced_call_is_not_served_from_the_memo():
    # a call node that this branch has reduced keeps its value (call-time
    # choice), even where its key has a recorded failure
    program = parse_program("data t = a | b\nk --> a\n")
    translated, _ = transform_program(program)
    solver = Solver(translated)
    call, a = App("k'", (Var("W"),)), solver._data.leaf(App("a"))
    store = Store(declared={"W"})
    key = _failure_key(solver, store, call, a, 5)
    assert key is not None and _failure_key(solver, store, a, call, 5) == key
    solver.failures[key] = frozenset({"depth"})
    assert list(solver._unify_strict(call, a, store, 5)) == []
    assert (solver.failure_hits, solver.cut) == (1, {"depth"})
    solver.cut = set()
    store.evals[id(call)] = EvalRec(call, "fun", a)
    assert _failure_key(solver, store, call, a, 5) is None
    assert list(solver._unify_strict(call, a, store, 5)) == [None]
    assert (solver.failure_hits, solver.cut) == (1, set())


# (call, demanded value); None stands for the canonical a
@pytest.mark.parametrize("call,value", [
    (App("k'", (Var("W"),)), Var("X")),                     # a free value
    (App("f'", (App("k'", (Var("W"),)), Var("W"))), None),  # a call as data
    (App("k'", (Var("V"),)), None),                         # undeclared leaf
    (App("g'", (Var("W"), Var("W"))), None),                # a data variable
    (App("k'", (Var("W"),)), App("a")),                     # not canonical
], ids=["free-value", "call-argument", "undeclared-leaf", "variable-argument",
        "other-data"])
def test_demands_outside_the_memo_get_no_key(call, value):
    program = parse_program("data t = a | b\nk --> a\nf(X) --> X\ng(X) --> X\n")
    solver = Solver(transform_program(program)[0])
    a = solver._data.leaf(App("a"))
    store = Store(declared={"W"})
    assert _failure_key(solver, store, call, a if value is None else value, 5) is None
    # the canonical a or a literal demanded of a call on a literal has one
    for value in (a, Basic(1)):
        assert _failure_key(solver, store, App("f'", (Basic(1), Var("W"))), value, 5)


# a translated program: r's second rule runs a propagation into the step
# guard (see test_runtime) before it demands what its first rule did;
# its third rule demands something new
GUARDED = """
loop'(X, W) --> loop'(X, W)
p'(X, W) --> 3 <== loop'(X, W) == 2
r'(W) --> true <== p'(1, W) == 3
r'(W) --> true <== qVal(A), qVal(B), A <= 0.99*B, B <= A, p'(1, W) == 3
r'(W) --> true <== p'(2, W) == 3
"""


def test_no_failure_is_reused_or_recorded_past_the_guard():
    solver = Solver(parse_program(GUARDED), limits=Limits(depth=8))
    constraints = parse_constraints("qVal(W), r'(W) == true")
    assert list(solver.solve(constraints, ["W"], [])) == []
    assert solver.cut == {"depth", "guard"}
    # p(1)'s and loop(1)'s demands, before the guard; none after it
    assert (solver.failure_hits, len(solver.failures)) == (0, 2)
