"""A solver remembers the demands that failed.

A demand that a call on ground data evaluate to a literal or to ground
data (guessGenre(B) == "SciFi" for one book) is keyed by a base (the
call's symbol and data, the demanded value, its literal qualification
leaves and the remaining depth) and its variable leaves' intervals.  A
subsearch that fails with no propagation guard records its key and the
cut reasons it raised; the same demand later adds those reasons to the
run's cut and fails at once.  A clean record, one with no cut reason,
also fails every demand with its base whose leaf intervals lie inside
its own (call subsumption), and the clean records of a base are kept an
antichain.  Answers, flags, residuals, certificates and cut lines are
those of the search without the memo.
"""

import importlib
import random
import sys

import pytest

from conftest import ROOT
from test_rule_filter import PAPER, THRESHOLD_SWEEP
from qcflp.cli import main
from qcflp.constraints import Interval
from qcflp.domains import U, domain_from_name
from qcflp.runtime import (EvalRec, Limits, Solver, Store, _failure_key,
                           answer_record, replay_trees)
from qcflp.semantics import serialize_proof
from qcflp.syntax import parse_constraints, parse_goal, parse_program
from qcflp.terms import App, Basic, Var
from qcflp.transform import PAIR_CTOR, transform_goal, transform_program


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


def books16_text(library_text: str) -> str:
    """library.qcflp over benchmark/workloads.py's seeded 16-book
    catalogue."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "benchmark"))
    books = workloads.make_catalogue(random.Random(16), 16)
    return workloads.catalogue_text(library_text, books)


OPEN = "(search(L,G,V) == R) # W"

# (goal, domain name, depth, program); None is the library
DIFFERENTIAL = [
    *[pytest.param(goal, dom, depth, None, id=f"sweep-{i}")
      for i, (goal, dom, depth, _) in enumerate(THRESHOLD_SWEEP)],
    pytest.param(f"{OPEN} | W >= 0.6", "u", 64, None, id="search-u"),
    pytest.param(f"{OPEN} | W >= 0.6", "uxu", 64, None, id="search-uxu"),
    pytest.param("(guessGenre(B) == G) # W", "u", 6, None, id="guessGenre-depth6"),
    pytest.param(f"{PAPER} | W >= 0.2", "u", 64, None, id="paper-0.2"),
    pytest.param(f"{PAPER} | W >= 0.15", "u", 64, None, id="paper-0.15"),
    pytest.param(f"{OPEN} | W >= 0.3", "u", 64, None, id="search-u-0.3"),
    pytest.param(f"{PAPER} | W >= (0.3,0.5)", "uxu", 64, None, id="paper-uxu-0.3-0.5"),
    pytest.param(f"{PAPER} | W >= (0.5,0.3)", "uxu", 64, None, id="paper-uxu-0.5-0.3"),
    pytest.param(f"{OPEN} | W >= 0.4", "u", 96, books16_text, id="books16-0.4"),
]


@pytest.mark.parametrize("goal,dom_name,depth,source", DIFFERENTIAL)
def test_memo_keeps_what_the_search_shows(monkeypatch, library_text, goal,
                                          dom_name, depth, source):
    dom = domain_from_name(dom_name)
    program = parse_program(library_text if source is None else source(library_text), dom)
    memo, solver = outcome(program, goal, depth, dom)
    monkeypatch.setattr("qcflp.runtime._failure_key", lambda *args: None)
    plain, unmemoized = outcome(program, goal, depth, dom)
    assert memo == plain
    assert unmemoized.failure_hits == 0 and not unmemoized.failures


# At 0.1 the search without the memo takes over 4 minutes, so this
# compares with the memo that serves exact keys only (no interval lies
# inside another), which the cases above check against no memo at all
def test_subsumption_keeps_what_the_exact_memo_shows(monkeypatch, library):
    goal = f"{PAPER} | W >= 0.1"
    subsumed, solver = outcome(library, goal, 64, U)
    monkeypatch.setattr("qcflp.runtime._inside", lambda *args: False)
    exact, exact_solver = outcome(library, goal, 64, U)
    assert subsumed == exact
    assert solver.failure_hits < exact_solver.failure_hits


@pytest.fixture
def tries(monkeypatch):
    """The rule tries made, one entry each."""
    made = []
    rename = Solver._rename_rule
    monkeypatch.setattr(Solver, "_rename_rule",
                        lambda self, *args: made.append(1) or rename(self, *args))
    return made


def test_paper_goal_counts(library, tries):
    # without the memo: 7,961 tries and 19,610 propagation steps; with
    # exact keys only: 2,059 tries, 5,959 steps, 338 hits, 387 records
    (answers, _, cut), solver = outcome(library, f"{PAPER} | W >= 0.3", 64, U)
    assert [r["qual"]["W"] for r in answers] == \
        [{"lo": 0.3, "hi": 0.7, "lo_open": False, "hi_open": False}]
    assert (len(tries), solver.prop_steps) == (637, 2037)
    records = sum(map(len, solver.failures.values()))
    assert (solver.failure_hits, records) == (196, 65)
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
    base, leaves = key
    solver.failures[base] = {leaves: frozenset({"depth"})}
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


# ----------------------------------------------------------------------
# call subsumption, on the demand k == a, whose search succeeds: a
# demand served from the memo fails instead
# ----------------------------------------------------------------------

SMALL = "data t = a | b\nk --> a\n"


def small_solver(dom=U):
    return Solver(transform_program(parse_program(SMALL, dom), dom)[0], dom)


def k_demand(solver, intervals, value="a"):
    """The demand k'(W) == value (k'(qpair(W0, W1)) under uxu), its
    leaves in intervals: (call, value, store)."""
    names = [f"W{i}" for i in range(len(intervals))]
    qual = Var(names[0]) if len(names) == 1 else App(PAIR_CTOR, tuple(map(Var, names)))
    store = Store(ivals=dict(zip(names, intervals)), declared=set(names))
    return App("k'", (qual,)), solver._data.leaf(App(value)), store


def record(solver, intervals, cut=frozenset(), depth=5):
    call, value, store = k_demand(solver, intervals)
    base, leaves = _failure_key(solver, store, call, value, depth)
    solver.failures.setdefault(base, {})[leaves] = cut


def served(solver, intervals, depth=5) -> bool:
    """Whether the demand k == a is served from the memo, so fails."""
    call, value, store = k_demand(solver, intervals)
    hits = solver.failure_hits
    found = list(solver._unify_strict(call, value, store, depth))
    assert (not found) == (solver.failure_hits > hits)
    return not found


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval(lo, hi, lo_open, hi_open)


def test_a_clean_failure_serves_a_narrower_demand():
    solver = small_solver()
    record(solver, [iv(0.3, 1)])
    for narrower in (iv(0.3, 1), iv(0.5, 0.9), iv(0.3, 0.3), iv(0.3, 1, True, True)):
        assert served(solver, [narrower]), narrower
    assert solver.cut == set()


@pytest.mark.parametrize("demand", [iv(0.3, 1), iv(0.3, 0.7), iv(0.7, 1),
                                    iv(0.5, 0.9)],
                         ids=["wider", "overlap-below", "overlap-above",
                              "closed-ends"])
def test_a_clean_failure_serves_no_wider_or_overlapping_demand(demand):
    solver = small_solver()
    record(solver, [iv(0.5, 0.9, True, False)])
    assert not served(solver, [demand])


def test_a_failure_with_a_cut_serves_only_its_exact_key():
    solver = small_solver()
    record(solver, [iv(0.3, 1)], frozenset({"depth"}))
    assert not served(solver, [iv(0.5, 0.9)])
    assert solver.cut == set()
    assert served(solver, [iv(0.3, 1)])
    assert solver.cut == {"depth"}


def test_a_demand_at_another_depth_is_not_served():
    solver = small_solver()
    record(solver, [iv(0.3, 1)], depth=5)
    assert not served(solver, [iv(0.5, 0.9)], depth=4)
    assert not served(solver, [iv(0.5, 0.9)], depth=6)
    assert served(solver, [iv(0.5, 0.9)], depth=5)


@pytest.mark.parametrize("leaves,inside", [
    ((iv(0.4, 1), iv(0.6, 1)), True),
    ((iv(0.3, 1), iv(0.5, 1)), True),
    ((iv(0.4, 1), iv(0.4, 1)), False),
    ((iv(0.2, 1), iv(0.6, 1)), False),
    ((iv(0.2, 1), iv(0.4, 1)), False),
], ids=["both-inside", "equal", "second-outside", "first-outside", "neither"])
def test_uxu_demand_is_served_only_when_every_leaf_lies_inside(leaves, inside):
    solver = small_solver(domain_from_name("uxu"))
    record(solver, [iv(0.3, 1), iv(0.5, 1)])
    assert served(solver, list(leaves)) == inside


def test_the_clean_failures_of_a_base_stay_an_antichain():
    # k == b fails cleanly; each demand that is not served records its
    # intervals, and a wider record drops those it contains
    solver = small_solver()

    def fail(interval):
        call, value, store = k_demand(solver, [interval], "b")
        assert list(solver._unify_strict(call, value, store, 5)) == []
        return _failure_key(solver, store, call, value, 5)[0]

    base = fail(iv(0.5, 0.9))
    fail(iv(0.7, 1))
    assert solver.failures == {base: {(iv(0.5, 0.9),): frozenset(),
                                      (iv(0.7, 1),): frozenset()}}
    fail(iv(0.6, 0.8))
    assert solver.failure_hits == 1 and len(solver.failures[base]) == 2
    fail(iv(0.4, 1))
    assert solver.failures == {base: {(iv(0.4, 1),): frozenset()}}
    assert solver.failure_hits == 1
