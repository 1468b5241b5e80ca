"""A solver remembers the rule tries that failed.

A strict equality whose one side is a literal or data demands that value
of the other side.  A rule whose rhs clashes with the demand ("Fantasy"
for guessGenre(B) == "SciFi") cannot give it, so its try never yields,
and only its cut reasons show.  Such a try on a call on ground data is
keyed by the rule, the call's data, its literal qualification leaves,
the remaining depth and its variable leaves' intervals.  A try that
fails with no propagation guard records its key and the cut reasons it
raised; a later try with the same key adds those reasons to the run's
cut and fails before renaming.  Answers, flags, residuals, certificates
and cut lines are those of the search without the memo.
"""

import importlib
import random
import sys

import pytest

from conftest import LIBRARY, ROOT, random_layered_program
from test_rule_filter import PAPER, THRESHOLD_SWEEP
from qcflp.cli import main
from qcflp.constraints import FULL, Interval
from qcflp.domains import U, domain_from_name
from qcflp import runtime
from qcflp.runtime import (EvalRec, Limits, Solver, Store, _clash_key,
                           answer_record, replay_trees)
from qcflp.semantics import serialize_proof
from qcflp.syntax import parse_constraints, parse_goal, parse_program, print_expr
from qcflp.terms import App, Basic, Var
from qcflp.transform import PAIR_CTOR, transform_goal, transform_program


def outcome(program, goal, depth, dom, translated=None):
    """Everything a solve shows: each answer's record (bindings,
    qualification, residuals, flags), the certificates of the clean
    answers and the reasons the run was cut; and the solver.  translated
    is the program's translation, when the caller has made it."""
    if translated is None:
        translated, _ = transform_program(program, dom)
    constraints, wvars, datavars = transform_goal(parse_goal(goal, dom), program, dom)
    solver = Solver(translated, dom, Limits(depth=depth))
    answers = list(solver.solve(constraints, wvars, datavars))
    certs = [serialize_proof(tree, dom.name, None)
             for a in answers if not a.flags
             for tree in replay_trees(solver, a, constraints)]
    return ([answer_record(a) for a in answers], certs, solver.cut), solver


def memo_key(solver, store, call, index, depth):
    """The failure memo key of a try (_clash_key), with the chain check
    off, so that no try is skipped instead; None when it has none."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runtime, "_chains_short", lambda *args: False)
        return _clash_key(solver, store, call, index, depth)


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
def test_memo_keeps_what_the_search_shows(request, library_text, goal,
                                          dom_name, depth, source):
    dom = domain_from_name(dom_name)
    program = parse_program(library_text if source is None else source(library_text), dom)
    memo, solver = outcome(program, goal, depth, dom)
    request.getfixturevalue("no_failure_memo")
    plain, unmemoized = outcome(program, goal, depth, dom)
    assert memo == plain
    assert unmemoized.failure_hits == 0 and not unmemoized.failures


# conftest's seeded layered programs: every function against every value.
# A clashing rule there is a fact, whose try cannot cut, so these runs
# switch the chain check off to send every try through the memo
VALUES = ("tt", "ff", "mk(tt)")


def test_memo_keeps_what_random_programs_show(request, no_clash_skips):
    programs = [random_layered_program(random.Random(seed)) for seed in range(100)]

    def show_all():
        shown, hits = [], 0
        for program in programs:
            translated, _ = transform_program(program)
            for f in sorted({r.name for r in program.rules}):
                for value in VALUES:
                    out, solver = outcome(program, f"({f} == {value}) # W", 6, U,
                                          translated)
                    shown.append(out)
                    hits += solver.failure_hits
        return shown, hits

    memo, hits = show_all()
    request.getfixturevalue("no_failure_memo")
    plain, plain_hits = show_all()
    assert memo == plain
    assert hits > 0 and plain_hits == 0


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
    # the memo on demands: 637 tries, 2,037 steps, 196 hits and 65
    # records (2,059, 5,959, 338 and 387 when it served exact keys only);
    # with the memo on rule tries: 320 tries, 621 steps, 167 hits and 82
    # records.  The chain check now skips every clashing try that the
    # memo served, so the memo is not used
    (answers, _, cut), solver = outcome(library, f"{PAPER} | W >= 0.3", 64, U)
    assert [r["qual"]["W"] for r in answers] == \
        [{"lo": 0.3, "hi": 0.7, "lo_open": False, "hi_open": False}]
    assert (len(tries), solver.prop_steps, solver.skips) == (35, 13, 20)
    assert (solver.failure_hits, solver.failures) == (0, {})
    assert cut == set()


# p's rule gives b, which clashes with the demand p(a) == a that both
# rules of q make; its condition loops until the depth bound cuts it
LOOP = """
data t = a | b
loop(X) --> loop(X)
p(X) --> b <== loop(X) == b
q --> true <== p(a) == a
q --> true <== p(a) == a
"""


def test_a_hit_replays_the_depth_cut(tmp_path, capsys, request):
    src = tmp_path / "loop.qcflp"
    src.write_text(LOOP)
    argv = ["solve", str(src), "--goal", "(q == true) # W", "--depth", "8", "--trace"]
    assert main(argv) == 3
    memo = capsys.readouterr()
    trace = memo.err.splitlines()
    assert trace[-3:] == ["-- try rule 3: q'", "-- reuse failure: rule 1 on p'(a, W)",
                          "solve: search cut by --depth 8; answers may be missing"]
    assert trace.count("-- try rule 0: loop'") == 6
    request.getfixturevalue("no_failure_memo")
    assert main(argv) == 3
    plain = capsys.readouterr()
    assert plain.out == memo.out == ""
    assert plain.err.splitlines()[-1] == trace[-1]
    assert plain.err.count("-- try rule 0: loop'") == 12
    assert "reuse failure" not in plain.err


def test_a_later_run_of_the_solver_replays_the_cut():
    # the first run records p's try, with the depth cut that it raised;
    # in the second run neither rule of q tries p, and that cut still
    # flags the run
    program = parse_program(LOOP)
    translated, _ = transform_program(program)
    constraints, wvars, datavars = transform_goal(parse_goal("(q == true) # W"), program)
    lines = []
    solver = Solver(translated, limits=Limits(depth=8), trace=lines.append)
    assert list(solver.solve(constraints, wvars, datavars)) == []
    assert solver.cut == {"depth"} and solver.failure_hits == 1
    lines.clear()
    assert list(solver.solve(constraints, wvars, datavars)) == []
    assert lines == ["try rule 2: q'", "reuse failure: rule 1 on p'(a, W)",
                     "try rule 3: q'", "reuse failure: rule 1 on p'(a, W)"]
    assert solver.cut == {"depth"} and solver.failure_hits == 3


@pytest.mark.parametrize("depth,tried,reused", [(5, 103, 71), (6, 134, 101)])
def test_library_trace_shows_each_try_once(monkeypatch, capsys, depth, tried, reused):
    # the threshold-free paper goal: each rule try, clashing or not,
    # prints one "try rule" line, and each memo hit one "reuse failure"
    solvers = []
    init = Solver.__init__
    monkeypatch.setattr(Solver, "__init__",
                        lambda self, *args: solvers.append(self) or init(self, *args))
    argv = ["solve", str(LIBRARY), "--goal", PAPER, "--depth", str(depth), "--trace"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "{ R -> 4 } { W in (0, 0.7] } [incomplete]\n"
    lines = err.splitlines()
    assert sum(line.startswith("-- try rule ") for line in lines) == tried
    reuses = sum(line.startswith("-- reuse failure: ") for line in lines)
    assert reuses == reused == solvers[0].failure_hits


def test_a_reduced_call_is_not_served_from_the_memo():
    # a call node that this branch has reduced keeps its value (call-time
    # choice), even where a try on it has a recorded failure.  k's first
    # rule applies a primitive, so its try is not skipped (see SMALL)
    program = parse_program("data t = a | b\nk --> b <== 1 + 1 > 0\nk --> a\n")
    solver = Solver(transform_program(program)[0])
    call, a = App("k'", (Var("W"),)), solver._data.leaf(App("a"))
    store = Store(declared={"W"})
    solver.failures[memo_key(solver, store, call, 0, 5)] = frozenset({"depth"})
    # k's first rule gives b, which clashes with the demanded a
    assert list(solver._unify_strict(call, a, store, 5)) == [None]
    assert (solver.failure_hits, solver.cut) == (1, {"depth"})
    solver.cut = set()
    store.evals[id(call)] = EvalRec(call, "fun", a)
    assert list(solver._unify_strict(call, a, store, 5)) == [None]
    assert (solver.failure_hits, solver.cut) == (1, set())


# calls on which a try gets no key
@pytest.mark.parametrize("call", [
    App("f'", (App("k'", (Var("W"),)), Var("W"))),         # a call as data
    App("k'", (Var("V"),)),                                 # undeclared leaf
    App("k'", (App(PAIR_CTOR, (Var("W"), Var("W"))),)),     # a repeated leaf
    App("g'", (Var("W"), Var("W"))),                        # a data variable
    App("f'", (App("a"), Var("W"))),                        # not canonical
], ids=["call-argument", "undeclared-leaf", "repeated-leaf", "variable-argument",
        "other-data"])
def test_tries_outside_the_memo_get_no_key(call):
    program = parse_program("data t = a | b\nk --> a\nf(X) --> X\ng(X) --> X\n")
    solver = Solver(transform_program(program)[0])
    store = Store(declared={"W"})
    assert memo_key(solver, store, call, 1, 5) is None
    # a try on the canonical a or on a literal has one, led by the rule
    for arg in (solver._data.leaf(App("a")), Basic(1)):
        base, leaves = memo_key(solver, store, App("f'", (arg, Var("W"))), 1, 5)
        assert base[0] == 1 and leaves == (FULL,)


# a translated program: r's second rule runs a propagation into the step
# guard (see test_runtime) before it makes the demand that its first rule
# made; its third rule makes a new one.  p's rule gives 3, which clashes
# with each demand of 4
GUARDED = """
loop'(X, W) --> loop'(X, W)
p'(X, W) --> 3 <== loop'(X, W) == 2
r'(W) --> true <== p'(1, W) == 4
r'(W) --> true <== qVal(A), qVal(B), A <= 0.99*B, B <= A, p'(1, W) == 4
r'(W) --> true <== p'(2, W) == 4
"""


def test_no_failure_is_reused_or_recorded_past_the_guard():
    solver = Solver(parse_program(GUARDED), limits=Limits(depth=8))
    constraints = parse_constraints("qVal(W), r'(W) == true")
    assert list(solver.solve(constraints, ["W"], [])) == []
    assert solver.cut == {"depth", "guard"}
    # p's try on 1, before the guard; none after it
    assert (solver.failure_hits, len(solver.failures)) == (0, 1)


# ----------------------------------------------------------------------
# exact keys, on the try of k's one rule, which gives a, against the
# demand k == b.  Its condition applies a primitive, so the chain check
# leaves the try to the memo (see test_clash_skip)
# ----------------------------------------------------------------------

SMALL = "data t = a | b\nk --> a <== 1 + 1 > 0\n"


def small_solver(dom=U):
    return Solver(transform_program(parse_program(SMALL, dom), dom)[0], dom)


def k_call(intervals):
    """The call k'(W) (k'(qpair(W0, W1)) under uxu), its leaves in
    intervals: (call, store)."""
    names = [f"W{i}" for i in range(len(intervals))]
    qual = Var(names[0]) if len(names) == 1 else App(PAIR_CTOR, tuple(map(Var, names)))
    store = Store(ivals=dict(zip(names, intervals)), declared=set(names))
    return App("k'", (qual,)), store


def record(solver, intervals, cut=frozenset(), depth=5):
    call, store = k_call(intervals)
    solver.failures[memo_key(solver, store, call, 0, depth)] = cut


def served(solver, intervals, depth=5) -> bool:
    """Whether k's try on the demand k == b is served from the memo,
    by the one trace line that the try prints."""
    call, store = k_call(intervals)
    lines = []
    solver.trace = lines.append
    assert list(solver._unify_strict(call, solver._data.leaf(App("b")), store, depth)) == []
    reuse = f"reuse failure: rule 0 on {print_expr(call)}"
    assert lines in ([reuse], ["try rule 0: k'"])
    return lines == [reuse]


def test_a_try_that_raises_records_nothing(monkeypatch):
    # an exception inside k's clashing try propagates; the run's cut
    # keeps its reasons, with the try's own, and the memo stays empty
    def raising(self, *args):
        self.cut.add("primitive")
        raise RuntimeError("inside the try")
        yield

    solver = small_solver()
    solver.cut = {"depth"}
    call, store = k_call([FULL])
    monkeypatch.setattr(Solver, "_solve_all", raising)
    with pytest.raises(RuntimeError, match="inside the try"):
        list(solver._unify_strict(call, solver._data.leaf(App("b")), store, 5))
    assert solver.cut == {"depth", "primitive"} and solver.failures == {}


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval(lo, hi, lo_open, hi_open)


@pytest.mark.parametrize("cut", [frozenset(), frozenset({"depth"})], ids=["clean", "cut"])
def test_a_failure_serves_only_its_exact_key(cut):
    # a narrower try is not served, even from a clean record
    solver = small_solver()
    record(solver, [iv(0.3, 1)], cut)
    for narrower in (iv(0.5, 0.9), iv(0.3, 0.3), iv(0.3, 1, True, True)):
        assert not served(solver, [narrower]), narrower
    assert solver.cut == set()
    assert served(solver, [iv(0.3, 1)])
    assert solver.cut == cut and solver.failure_hits == 1


def test_a_try_at_another_depth_is_not_served():
    solver = small_solver()
    record(solver, [iv(0.3, 1)], depth=5)
    assert not served(solver, [iv(0.3, 1)], depth=4)
    assert not served(solver, [iv(0.3, 1)], depth=6)
    assert served(solver, [iv(0.3, 1)], depth=5)


@pytest.mark.parametrize("leaves,exact", [
    ((iv(0.3, 1), iv(0.5, 1)), True),
    ((iv(0.4, 1), iv(0.6, 1)), False),
    ((iv(0.3, 1), iv(0.6, 1)), False),
    ((iv(0.2, 1), iv(0.5, 1)), False),
], ids=["equal", "both-inside", "second-inside", "first-outside"])
def test_uxu_try_is_served_only_on_its_exact_leaves(leaves, exact):
    solver = small_solver(domain_from_name("uxu"))
    record(solver, [iv(0.3, 1), iv(0.5, 1)])
    assert served(solver, list(leaves)) == exact
