"""A clashing try that can add no new reason to the run's cut is skipped.

A strict equality whose one side is a literal or data demands that value
of the other side.  A rule whose rhs clashes with the demand ("Fantasy"
for guessGenre(B) == "SciFi") cannot give it, so its try never yields,
and only its cut reasons show.  Once the run's cut holds every reason
that such a try may raise, the depth bound and, when the program or the
goal applies a primitive, an undecided primitive, the solver skips the
try before renaming.  Answers, flags, residuals, certificates and cut
sets are those of the search that runs the try.
"""

import hashlib
import importlib
import json
import random
import sys

import pytest

from conftest import LIBRARY, ROOT, pinned_form, random_layered_program
from test_rule_filter import PAPER, THRESHOLD_SWEEP
from qcflp.cli import main
from qcflp.constraints import FULL
from qcflp.domains import U, domain_from_name
from qcflp.runtime import (EvalRec, Limits, Solver, Store, answer_record,
                           replay_trees)
from qcflp.syntax import parse_constraints, parse_goal, parse_program
from qcflp.terms import App, Var
from qcflp.transform import transform_goal, transform_program


def outcome(program, goal, depth, dom, translated=None):
    """Everything a solve shows: each answer's record (bindings,
    qualification, residuals, flags), the certificates of the clean
    answers in the pinned form (conftest.pinned_form) and the reasons the
    run was cut; and the solver.  translated is the program's
    translation, when the caller has made it."""
    if translated is None:
        translated, _ = transform_program(program, dom)
    constraints, wvars, datavars = transform_goal(parse_goal(goal, dom), program, dom)
    solver = Solver(translated, dom, Limits(depth=depth))
    answers = list(solver.solve(constraints, wvars, datavars))
    certs = [pinned_form(tree, dom.name, None)
             for a in answers if not a.flags
             for tree in replay_trees(solver, a, constraints)]
    return ([answer_record(a) for a in answers], certs, solver.cut), solver


def digest(shown: list) -> tuple:
    """Two digests of what a list of solves show (outcome): of the answer
    records and cut sets, and of the certificates.  A change in the shape
    of the translated certificates re-pins only the second."""
    answers = json.dumps([(r, sorted(cut)) for r, _, cut in shown], sort_keys=True)
    certs = json.dumps([c for _, c, _ in shown])
    return tuple(hashlib.sha256(text.encode()).hexdigest()[:16]
                 for text in (answers, certs))


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
GUESS = "(guessGenre(B) == G) # W"

# the digests of what each THRESHOLD_SWEEP row shows (digest); its
# answers and cuts are those the solver showed with a failure memo in
# place of the cut check.  The uxu certificates here and below were
# pinned again when each leaf of a product qualification became an
# argument of its own
SWEEP_DIGESTS = [
    ("24e6713916be3b75", "cf1cbb66a638b486"),
    ("24e6713916be3b75", "cf1cbb66a638b486"),
    ("d07f689cdc9bc57b", "165c7d897e7b221e"),
    ("641ea329d3a4e415", "3f3140ee42317411"),
    ("0c30ed192ce4e12b", "d912c5208f92785c"),
    ("2616421208f6df96", "920a872a77bb0d89"),
    ("625411ebebeb4a20", "6487d0d144bdf65d"),
    ("ac53f18a73148805", "864d95cd3454e49e"),
    ("58227dc4c77f415e", "d85ddb160346e137"),
    ("fd1553c312ee5304", "b73babc651a00797"),
    ("1afb805f584f2b70", "cf1cbb66a638b486"),
    ("1afb805f584f2b70", "cf1cbb66a638b486"),
]

# (goal, domain name, depth, program, digest as above); None is the library
DIFFERENTIAL = [
    *[pytest.param(goal, dom, depth, None, pinned, id=f"sweep-{i}")
      for i, ((goal, dom, depth, _), pinned) in enumerate(zip(THRESHOLD_SWEEP,
                                                              SWEEP_DIGESTS,
                                                              strict=True))],
    pytest.param(f"{OPEN} | W >= 0.6", "u", 64, None,
                 ("520002de7c7cc8b0", "31aa966934df3706"), id="search-u"),
    pytest.param(f"{OPEN} | W >= 0.6", "uxu", 64, None,
                 ("e930bb6d044095e1", "1bb3137e60ce8063"), id="search-uxu"),
    pytest.param(GUESS, "u", 6, None,
                 ("856d2c62e60756bf", "5ea5bf7fd4d06493"), id="guessGenre-depth6"),
    pytest.param(f"{PAPER} | W >= 0.2", "u", 64, None,
                 ("5e0e13055f27980a", "b66ae4fcbbe88305"), id="paper-0.2"),
    pytest.param(f"{PAPER} | W >= 0.15", "u", 64, None,
                 ("47f01899ae90df16", "7565689adeea7e5a"), id="paper-0.15"),
    pytest.param(f"{OPEN} | W >= 0.3", "u", 64, None,
                 ("a24ca3be8ef0695d", "3628eda81ddabe0a"), id="search-u-0.3"),
    pytest.param(f"{PAPER} | W >= (0.3,0.5)", "uxu", 64, None,
                 ("15d8c80dbd81b317", "189cdc055abd8658"), id="paper-uxu-0.3-0.5"),
    pytest.param(f"{PAPER} | W >= (0.5,0.3)", "uxu", 64, None,
                 ("bd276651c77e2296", "28aa9892ef670647"), id="paper-uxu-0.5-0.3"),
    pytest.param(f"{OPEN} | W >= 0.4", "u", 96, books16_text,
                 ("7fbacdb6e4168d84", "d1900505e28415e4"), id="books16-0.4"),
]


@pytest.mark.parametrize("goal,dom_name,depth,source,pinned", DIFFERENTIAL)
def test_cut_skips_keep_what_the_search_shows(request, library_text, goal,
                                              dom_name, depth, source, pinned):
    dom = domain_from_name(dom_name)
    program = parse_program(library_text if source is None else source(library_text), dom)
    shown, _ = outcome(program, goal, depth, dom)
    assert digest([shown]) == pinned
    request.getfixturevalue("no_cut_skips")
    assert outcome(program, goal, depth, dom)[0] == shown


# the threshold-free goals, at each depth from 3 to 8, pinned as above.
# The memo took 1,790 and 7,166 tries for GUESS at depths 5 and 6, and
# did not finish at the default depth
FREE_DIGESTS = {
    PAPER: ("545a27e60f57e464", "4eceefa0f0e75652"),
    OPEN: ("51ac74cf21a52d5b", "722d52d4b1357612"),
    GUESS: ("5e00b168e6695c44", "30cf26abab91cfd2"),
}


@pytest.mark.parametrize("goal", list(FREE_DIGESTS), ids=["paper", "open", "guessGenre"])
def test_threshold_free_goals_show_what_they_showed(library, goal):
    shown = [outcome(library, goal, depth, U)[0] for depth in range(3, 9)]
    assert digest(shown) == FREE_DIGESTS[goal]


def test_guess_genre_finishes_at_the_default_depth(library):
    # B is free, so no chain check reads guessGenre's tries; after the
    # first depth cut the cut check skips each clashing one
    (answers, certs, cut), solver = outcome(library, GUESS, 64, U)
    assert (answers, certs, cut) == outcome(library, GUESS, 6, U)[0]
    assert cut == {"depth"} and len(answers) == 6 and solver.skips > 0
    assert sum("incomplete" in r["flags"] for r in answers) == 4


# conftest's seeded layered programs: every function against every
# value, at depths low enough to cut.  A clashing rule there is a fact,
# whose try the chain check skips, so these runs switch it off to leave
# every try to the cut check
VALUES = ("tt", "ff", "mk(tt)")


def test_cut_skips_keep_what_random_programs_show(request, no_clash_skips):
    programs = [random_layered_program(random.Random(seed)) for seed in range(100)]

    def show_all():
        shown, skips = [], 0
        for program in programs:
            translated, _ = transform_program(program)
            for f in sorted({r.name for r in program.rules}):
                for value in VALUES:
                    for depth in (1, 2, 3):
                        out, solver = outcome(program, f"({f} == {value}) # W",
                                              depth, U, translated)
                        shown.append(out)
                        skips += solver.skips
        return shown, skips

    skipped, skips = show_all()
    request.getfixturevalue("no_cut_skips")
    plain, plain_skips = show_all()
    assert skipped == plain
    assert skips > 0 and plain_skips == 0
    assert any(cut for _, _, cut in plain)


def test_paper_goal_counts(library):
    # with every clashing try run: 7,961 tries and 19,610 propagation
    # steps; with a failure memo on demands: 637 tries, 2,037 steps (2,059
    # and 5,959 when it served exact keys only); with the memo on rule
    # tries: 320 tries and 621 steps.  The chain check skips every
    # clashing try that the memo served, and the cut stays empty
    (answers, _, cut), solver = outcome(library, f"{PAPER} | W >= 0.3", 64, U)
    assert [r["qual"]["W"] for r in answers] == \
        [{"lo": 0.3, "hi": 0.7, "lo_open": False, "hi_open": False}]
    assert (solver.tries, solver.prop_steps, solver.skips) == (35, 13, 20)
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


def test_a_skip_keeps_the_depth_cut(tmp_path, capsys, request):
    # q's first rule runs p's try into the depth bound; its second rule
    # skips p's try, with no trace line, and the run is cut all the same
    src = tmp_path / "loop.qcflp"
    src.write_text(LOOP)
    argv = ["solve", str(src), "--goal", "(q == true) # W", "--depth", "8", "--trace"]
    assert main(argv) == 3
    skipped = capsys.readouterr()
    trace = skipped.err.splitlines()
    assert trace[-2:] == ["-- try rule 3: q'",
                          "solve: search cut by --depth 8; answers may be missing"]
    assert trace.count("-- try rule 1: p'") == 1
    assert trace.count("-- try rule 0: loop'") == 6
    request.getfixturevalue("no_cut_skips")
    assert main(argv) == 3
    plain = capsys.readouterr()
    assert plain.out == skipped.out == ""
    assert plain.err.splitlines()[-1] == trace[-1]
    assert plain.err.count("-- try rule 0: loop'") == 12


def test_a_later_run_of_the_solver_starts_a_new_cut():
    # each run starts with an empty cut, so in the second run q's first
    # rule runs p's try into the depth bound again before its second rule
    # skips it: a cut from an earlier run skips no try
    program = parse_program(LOOP)
    translated, _ = transform_program(program)
    constraints, wvars, datavars = transform_goal(parse_goal("(q == true) # W"), program)
    lines = []
    solver = Solver(translated, limits=Limits(depth=8), trace=lines.append)
    for run in (1, 2):
        lines.clear()
        assert list(solver.solve(constraints, wvars, datavars)) == []
        assert solver.cut == {"depth"} and solver.skips == run
        assert lines.count("try rule 1: p'") == 1
        assert lines.count("try rule 0: loop'") == 6


@pytest.mark.parametrize("depth,tried,skipped", [(5, 42, 29), (6, 46, 32)])
def test_library_trace_shows_each_try_once(monkeypatch, capsys, depth, tried,
                                           skipped):
    # the threshold-free paper goal: each rule try, clashing or not,
    # prints one "try rule" line, and a skipped try none (103 and 134
    # tries, 71 and 101 of them served by a failure memo, before the
    # cut check)
    solvers = []
    init = Solver.__init__
    monkeypatch.setattr(Solver, "__init__",
                        lambda self, *args: solvers.append(self) or init(self, *args))
    argv = ["solve", str(LIBRARY), "--goal", PAPER, "--depth", str(depth), "--trace"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "{ R -> 4 } { W in (0, 0.7] } [incomplete]\n"
    lines = [line for line in err.splitlines() if line.startswith("-- ")]
    assert all(line.startswith("-- try rule ") for line in lines)
    assert (len(lines), solvers[0].skips) == (tried, skipped)


# ----------------------------------------------------------------------
# the primitive reason: p's try runs into the depth bound, and prim's
# try, whose call of f applies a primitive to a free variable, raises
# an undecided primitive.  Each gives b against the demand a
# ----------------------------------------------------------------------

PRIMITIVE = """
data t = a | b
loop(X) --> loop(X)
p(X) --> b <== loop(X) == a
prim(X) --> b <== f(Y) == true
f(X) --> (X + 1) == 3
"""


@pytest.mark.parametrize("first,second", [("p", "prim"), ("prim", "p")],
                         ids=["depth-first", "primitive-first"])
def test_a_try_that_can_raise_a_new_reason_runs(request, first, second):
    # a third try of p comes after both reasons and is skipped
    source = PRIMITIVE + "".join(f"q --> true <== {f}(a) == a\n"
                                 for f in (first, second, "p"))
    program = parse_program(source)
    (answers, _, cut), solver = outcome(program, "(q == true) # W", 8, U)
    assert (answers, cut, solver.skips) == ([], {"depth", "primitive"}, 1)
    request.getfixturevalue("no_cut_skips")
    plain, every = outcome(program, "(q == true) # W", 8, U)
    assert plain == (answers, [], cut) and every.skips == 0


def test_a_primitive_in_the_goal_counts():
    # the program applies no primitive, but the goal passes Y + 1 to q,
    # whose second rule, clashing, evaluates it after p's try has cut
    program = parse_program("""
data t = a | b
loop(X) --> loop(X)
p(X) --> b <== loop(X) == a
q(X) --> a <== p(a) == a
q(X) --> b <== X == 2
""")
    (_, _, cut), solver = outcome(program, "(q(Y + 1) == a) # W", 8, U)
    assert (cut, solver.skips) == ({"depth", "primitive"}, 0)
    (_, _, cut), solver = outcome(program, "(q(1) == a) # W", 8, U)
    assert (cut, solver.skips) == ({"depth"}, 1)


# k's one rule gives a, against the demand k == b.  Its condition
# applies a primitive, so neither check skips its try
SMALL = "data t = a | b\nk --> a <== 1 + 1 > 0\n"


def test_a_try_that_raises_keeps_the_cut(monkeypatch):
    # an exception inside k's clashing try propagates; the run's cut
    # keeps its reasons, with the try's own
    def raising(self, *args):
        self.cut.add("primitive")
        raise RuntimeError("inside the try")
        yield

    solver = Solver(transform_program(parse_program(SMALL))[0])
    solver.cut = {"depth"}
    call, store = App("k'", (Var("W"),)), Store(ivals={"W": FULL}, declared={"W"})
    monkeypatch.setattr(Solver, "_solve_all", raising)
    with pytest.raises(RuntimeError, match="inside the try"):
        list(solver._unify_strict(call, solver._data.leaf(App("b")), store, 5))
    assert solver.cut == {"depth", "primitive"} and solver.skips == 0


# a primitive-free program: k's one rule gives a, with no condition
FACT = "data t = a | b\nk --> a\n"


@pytest.mark.parametrize("source,cut,skipped", [
    (SMALL, set(), False),
    (SMALL, {"depth"}, False),
    (SMALL, {"primitive"}, False),
    (SMALL, {"guard"}, False),
    (SMALL, {"depth", "primitive"}, True),
    (SMALL, {"depth", "primitive", "guard"}, True),
    (FACT, set(), False),
    (FACT, {"depth"}, True),
], ids=["small-clean", "small-depth", "small-primitive", "small-guard",
        "small-depth-primitive", "small-all", "fact-clean", "fact-depth"])
def test_the_cut_check_needs_every_reason(no_clash_skips, source, cut, skipped):
    # k's try against the demand k == b is skipped only when the cut
    # holds "depth" and, where the program applies a primitive,
    # "primitive"; a try that runs leaves the cut as it found it
    solver = Solver(transform_program(parse_program(source))[0])
    solver.cut = set(cut)
    call, store = App("k'", (Var("W"),)), Store(ivals={"W": FULL}, declared={"W"})
    lines = []
    solver.trace = lines.append
    assert list(solver._unify_strict(call, solver._data.leaf(App("b")), store, 5)) == []
    assert solver.skips == skipped and lines == ([] if skipped else ["try rule 0: k'"])
    assert solver.cut == cut


def test_a_reduced_call_is_not_tried():
    # a call node that this branch has reduced keeps its value (call-time
    # choice): neither of k's rules is tried on it, not even the clashing
    # one that the cut check would skip
    program = parse_program("data t = a | b\nk --> b <== 1 + 1 > 0\nk --> a\n")
    solver = Solver(transform_program(program)[0])
    solver.cut = {"depth", "primitive"}
    call, a = App("k'", (Var("W"),)), solver._data.leaf(App("a"))
    store = Store(declared={"W"})
    # k's first rule gives b, which clashes with the demanded a
    assert list(solver._unify_strict(call, a, store, 5)) == [None]
    assert solver.skips == 1
    store.evals[id(call)] = EvalRec(call, "fun", a)
    assert list(solver._unify_strict(call, a, store, 5)) == [None]
    assert solver.skips == 1


# a translated program: r's second rule runs a propagation into the step
# guard (see test_runtime) before it makes the demand that its first rule
# made; its third rule makes a new one.  p's rule gives 3, which clashes
# with each demand of 4, and its condition loops until the depth bound
GUARDED = """
loop'(X, W) --> loop'(X, W)
p'(X, W) --> 3 <== loop'(X, W) == 2
r'(W) --> true <== p'(1, W) == 4
r'(W) --> true <== qVal(A), qVal(B), A <= 0.99*B, B <= A, p'(1, W) == 4
r'(W) --> true <== p'(2, W) == 4
"""


def test_a_skip_keeps_the_guard_cut(request):
    # p's try on 1 runs into the depth bound; the later two are skipped,
    # and the guard hit between them still shows in the cut
    def run():
        solver = Solver(parse_program(GUARDED), limits=Limits(depth=8))
        constraints = parse_constraints("qVal(W), r'(W) == true")
        assert list(solver.solve(constraints, ["W"], [])) == []
        return solver

    solver = run()
    assert (solver.cut, solver.skips, solver.guard_hits) == ({"depth", "guard"}, 2, 1)
    request.getfixturevalue("no_cut_skips")
    every = run()
    assert (every.cut, every.skips, every.guard_hits) == ({"depth", "guard"}, 0, 1)
