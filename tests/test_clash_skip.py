"""A clashing try that cannot cut is skipped outright.

A rule whose rhs clashes with a strict equality's demand cannot give it,
so its try only shows the reasons that cut it.  When the rule's head
matches the call whole and a static bound on the rule's chains of
nested calls shows that none of them reaches depth 0 (runtime._chains_clear), the
try raises no reason either, and the solver skips it before renaming.
The bound comes from the qualification lower
bound of the call, which each attenuated call divides by its factor, so
thresholded goals skip most tries; a threshold-free goal skips only
tries whose chains meet no attenuation.  Under the product domain each
component is read on its own, and one that bounds every chain is
enough.  Answers, certificates, cut sets and holds verdicts are those of
running every try.
"""

import pytest

from conftest import BOOK2, BOOK4
from test_cut_skip import LOOP, OPEN, digest, outcome
from test_holds_golden import BOOKS
from test_rule_filter import PAPER
from qcflp.domains import U, domain_from_name
from qcflp.runtime import Limits, Solver, Store, _chains_clear, render_answer
from qcflp.semantics import holds, parse_statement, serialize_proof
from qcflp.syntax import parse_constraints, parse_goal, parse_program
from qcflp.terms import App, Basic, Var
from qcflp.transform import transform_goal, transform_program

THRESHOLDS = ("0.9", "0.7", "0.5", "0.3", "0.1")
DEPTHS = (3, 5, 6, 8, 64)

# goals of the library, each at every threshold and depth above
GOALS = [
    PAPER,
    OPEN,
    f"(guessGenre({BOOK4}) == \"Essay\") # W",
    f"(guessReaderLevel({BOOK2}) == upper) # W",
    '(search("English",G,V) == R) # W',
]


IDS = ["paper", "open", "guessGenre", "guessReaderLevel", "search-english"]

# under uxu each threshold t is (t,t), for three goals at two depths
UXU_GOALS = (0, 2, 3)

# the digests of what each goal's runs show (test_cut_skip.digest); their
# answers and cuts are those the solver showed with a failure memo, and
# the uxu certificates were pinned again when each leaf of a product
# qualification became an argument of its own
GRID_DIGESTS = [
    ("fecf0fcc16fbdf1e", "b8a79d2526060376"),
    ("2a9f4412afc9632f", "2975d1132cfe965e"),
    ("cf3881b927d60dd9", "91652a021353a837"),
    ("cf3881b927d60dd9", "bb768340d9dc5b0b"),
    ("30801e66423a0457", "7bcdb5cecee8a10a"),
    ("c19ab31ae0f1a780", "0c66b72de127f93e"),
    ("1c106124b3f41207", "986cc9e2ffc0b4bd"),
    ("1c106124b3f41207", "0bafd5c7218d5220"),
]


@pytest.mark.parametrize("dom_name,goal,pinned", [
    *[pytest.param("u", goal, pinned, id=name)
      for goal, name, pinned in zip(GOALS, IDS, GRID_DIGESTS)],
    *[pytest.param("uxu", GOALS[i], pinned, id=f"uxu-{IDS[i]}")
      for i, pinned in zip(UXU_GOALS, GRID_DIGESTS[len(GOALS):], strict=True)],
])
def test_skips_keep_what_the_search_shows(request, library_text, dom_name, goal,
                                          pinned):
    dom = domain_from_name(dom_name)
    program = parse_program(library_text, dom)
    if dom is U:
        runs = [(f"{goal} | W >= {t}", depth) for t in THRESHOLDS for depth in DEPTHS]
        runs += [(goal, depth) for depth in (5, 6)]
    else:
        runs = [(f"{goal} | W >= ({t},{t})", depth) for t in THRESHOLDS for depth in (5, 8)]
        runs += [(goal, 5)]
    assert digest([outcome(program, g, depth, dom)[0] for g, depth in runs]) == pinned
    # with every clashing try run, a thresholded run deeper than 5 may take
    # long (the paper goal at W >= 0.1 and depth 64 had made 360,000 tries
    # after 15 s), so only the others are compared
    assert_skips_keep(request, program, dom,
                      [(g, depth) for g, depth in runs if depth <= 5 or "|" not in g])


def assert_skips_keep(request, program, dom, runs):
    """Each (goal, depth) of runs shows what it shows with every clashing
    try run, and some try is skipped; returns what each run shows."""
    skipped = [outcome(program, g, depth, dom) for g, depth in runs]
    request.getfixturevalue("no_clash_skips")
    request.getfixturevalue("no_cut_skips")
    for (shown, solver), (g, depth) in zip(skipped, runs):
        plain, every = outcome(program, g, depth, dom)
        assert shown == plain, (g, depth)
        assert every.skips == 0
    assert sum(solver.skips for _, solver in skipped) > 0
    return [shown for shown, _ in skipped]


# components that attenuate differently: h's second rule is a factor-1
# cycle in the first component and attenuates by 0.8 in the second, so
# only the second can bound the chains that reach h.  From (0.05,0.6)
# it does; from (0.6,0.05) neither does, and the depth cuts the search
PRODUCT = """
data t = a | b | c
p(X) --> b <== g(X) == a
g(X) -(0.9,0.5)-> h(X)
g(X) --> c
h(X) -(0.5,0.9)-> a <== g(X) == c
h(X) -(1,0.8)-> c <== h(X) == a
"""


def test_skips_keep_what_the_search_shows_per_component(request):
    uxu = domain_from_name("uxu")
    program = parse_program(PRODUCT, uxu)
    runs = [(f"({goal}) # W | W >= {t}", depth)
            for goal in ("p(1) == R", "g(1) == a", "h(1) == R", "h(1) == c")
            for t in ("(0.05,0.6)", "(0.6,0.05)", "(0.3,0.3)") for depth in (4, 6, 8)]
    shown = assert_skips_keep(request, program, uxu, runs)
    for (answers, _, cut), (g, depth) in zip(shown, runs):
        if "(0.05,0.6)" in g:
            assert cut == set(), (g, depth)
        elif "(0.6,0.05)" in g:
            assert (answers, cut) == ([], {"depth"}), (g, depth)
    assert sum(len(answers) for answers, _, _ in shown) > 0


STATEMENTS = [
    '(guessGenre(BOOK1) -> "Essay") # 0.5',
    '(guessGenre(BOOK3) -> "Essay") # 0.7',
    '(guessGenre(BOOK2) -> "Adventure") # 0.5',
    '(guessReaderLevel(BOOK3) -> proficiency) # 0.8',
    '(search("German","Essay",intermediate) -> 4) # 0.65',
]


def test_skips_keep_the_holds_verdicts(request, library):
    def verdicts():
        out = []
        for text in STATEMENTS:
            for name, book in BOOKS.items():
                text = text.replace(name, book)
            for depth in (4, 6, 8, 12):
                r = holds(library, U, parse_statement(text), depth)
                out.append((r.status, r.tree and serialize_proof(r.tree, "u", U)))
        return out

    skipped = verdicts()
    request.getfixturevalue("no_clash_skips")
    request.getfixturevalue("no_cut_skips")
    assert verdicts() == skipped
    # BOOK1's statement is unknown at depths 4 and 6, not found at 8 and
    # 12; the search statement is unknown at depth 4
    assert [status for status, _ in skipped].count("unknown") == 3


def counted(program, goal, depth=64):
    """The rendered answers of a solve, its rule tries and its solver."""
    translated, _ = transform_program(program)
    constraints, wvars, datavars = transform_goal(parse_goal(goal), program)
    solver = Solver(translated, limits=Limits(depth=depth))
    answers = [render_answer(a) for a in solver.solve(constraints, wvars, datavars)]
    return answers, solver.tries, solver


@pytest.mark.parametrize("threshold", ["0.7", "0.6", "0.5", "0.4", "0.3", "0.2",
                                       "0.15", "0.1"])
def test_the_paper_goal_takes_at_most_40_tries_down_the_ladder(library, threshold):
    # 149 tries at 0.7 with every clashing try run (83 under a failure
    # memo, which took 620 at 0.1).  The cut stays empty, so every skip is
    # the chain check's
    answers, tries, solver = counted(library, f"{PAPER} | W >= {threshold}")
    assert len(answers) == 1 and tries <= 40
    assert solver.skips > 0 and solver.cut == set()


@pytest.mark.parametrize("depth,most", [(5, 42), (6, 46)])
def test_threshold_free_goal_keeps_its_flag(library, depth, most):
    # the chains of guessGenre's attenuated rules have no bound at a lower
    # bound of 0, so the chain check skips only tries whose chains meet no
    # attenuation, and the cut check the others after the first depth cut
    # (121 and 152 tries under a failure memo)
    answers, tries, solver = counted(library, PAPER, depth)
    assert answers == ["{ R -> 4 } { W in (0, 0.7] } [incomplete]"]
    assert solver.cut == {"depth"} and tries <= most


# p's try calls g, g calls h at factor 1 and h calls g at factor 0.5:
# from W >= 0.25 the chain is g, h, g, h, g, h, with g's leaf at 0.25,
# 0.5 and 1 (less a rounding), and the bound the check computes is
# exact.  The last h runs at depth 0 when p's try runs at depth 6
CHAIN = """
data t = a | b | c
p(X) --> b <== g(X) == a
g(X) --> h(X)
g(X) --> b
h(X) -0.5-> a <== g(X) == c
"""


# the same chain under uxu, where h's factor is 1 in the second
# component: g and h make a factor-1 cycle there, and the first
# component bounds the chain as u does
CHAIN_UXU = CHAIN.replace("-0.5->", "-(0.5,1)->")


@pytest.mark.parametrize("dom_name,source,threshold", [
    ("u", CHAIN, "0.25"), ("uxu", CHAIN_UXU, "(0.25,0.25)")], ids=["u", "uxu"])
@pytest.mark.parametrize("depth,cut,skipped", [(6, {"depth"}, False), (7, set(), True)])
def test_the_bound_is_tight_on_a_chain(request, depth, cut, skipped, dom_name,
                                       source, threshold):
    dom = domain_from_name(dom_name)
    program = parse_program(source, dom)
    goal = f"(p(1) == a) # W | W >= {threshold}"
    shown, solver = outcome(program, goal, depth, dom)
    assert (shown[2], solver.skips == 1) == (cut, skipped)
    request.getfixturevalue("no_clash_skips")
    assert outcome(program, goal, depth, dom)[0] == shown


# ----------------------------------------------------------------------
# tries that must run: each program's p(1) gives b against the demand a
# ----------------------------------------------------------------------

def p_solver(source, goal="(p(1) == a) # W | W >= 0.5", depth=8):
    """The answers of goal on source's program, and its solver."""
    program = parse_program("data t = a | b\n" + source)
    translated, _ = transform_program(program)
    constraints, wvars, datavars = transform_goal(parse_goal(goal), program)
    solver = Solver(translated, limits=Limits(depth=depth))
    return list(solver.solve(constraints, wvars, datavars)), solver


@pytest.mark.parametrize("source,goal", [
    ("p(X) --> b <== g(X) == a\ng(X) --> a\n", None),
    ("p(X) --> b <== g(X) == a\ng(X) -0.9-> a <== g(X) == b\ng(X) --> b\n", None),
    # p's head matches the variable Y whole, binding nothing
    ("p(X) --> b <== g(X) == a\ng(X) --> a\n", "(p(Y) == a) # W | W >= 0.5"),
], ids=["plain-call", "attenuated-recursion", "non-ground-call"])
def test_a_bounded_try_is_skipped(source, goal):
    answers, solver = p_solver(source, *([goal] if goal else []))
    assert (answers, solver.skips, solver.cut) == ([], 1, set())


@pytest.mark.parametrize("source,goal,cut", [
    ("p(X) --> b <== loop(X) == a\nloop(X) --> loop(X)\n", None, {"depth"}),
    ("p(X) --> b <== member(X, [1, 2]) == true\n"
     "member(B,[]) --> false\nmember(B,H:_T) --> true <== B == H\n"
     "member(B,H:T) --> member(B,T) <== B /= H\n", None, set()),
    ("p(X) --> b <== X + 1 > 0\n", None, set()),
    ("p(X) --> b <== g(k(X)) == a\ng(X) --> a\nk(X) --> X\n", None, set()),
], ids=["factor-1-cycle", "member", "primitive", "call-in-arguments"])
def test_a_try_that_the_bound_misses_runs(source, goal, cut):
    # the try runs, and shows the reasons that cut it
    answers, solver = p_solver(source, *([goal] if goal else []))
    assert (answers, solver.skips, solver.cut) == ([], 0, cut)


# the data argument of a call of f, made from the program's canonical
# ground data (GroundData), and whether the chain check clears f's try
ARGS_PROGRAM = "data t = a | b\nk --> a\nf(X) --> X\n"


@pytest.mark.parametrize("arg,cleared", [
    (lambda data: App("k'", (Var("W"),)), False),
    (lambda data: Var("X"), True),
    (lambda data: App("a"), False),
    (lambda data: data.leaf(App("a")), True),
    (lambda data: Basic(1), True),
], ids=["call-argument", "variable-argument", "other-data", "canonical-data",
        "literal"])
def test_the_chain_check_reads_ground_arguments_only(arg, cleared):
    # the chain check runs on a head that matched the call whole
    # (Solver._match_head), which evaluates and binds nothing: a call or
    # data outside the program's canonical ground data stops the match,
    # and a variable in a variable's slot takes it with no binding
    solver = Solver(transform_program(parse_program(ARGS_PROGRAM))[0])
    call, store = App("f'", (arg(solver._data), Var("W"))), Store(declared={"W"})
    (index, rule, _), = solver._rules["f'"]
    tpl = solver._compile_rule(index, rule)
    pats = solver._match_head(tpl[1], call.args, store, [None] * len(tpl[0]))
    whole = len(pats) == len(call.args)
    assert (whole and _chains_clear(solver, store, call, index, 5)) is cleared

# translated programs: the recursive call of h's first rule runs before
# the bound that attenuates it (AFTER), or before the qVal that caps
# its leaf at 1 (QVAL_AFTER), so its chains have no bound; from
# W >= 0.5 the depth cuts them, and in QVAL_AFTER a call whose leaf's
# lower bound is above 1 still runs
AFTER = """
h'(X, W) --> b <== qVal(W), qVal(V), h'(X, V) == a, W <= 0.5*V
h'(X, W) --> a
"""
BEFORE = AFTER.replace("h'(X, V) == a, W <= 0.5*V", "W <= 0.5*V, h'(X, V) == a")
QVAL_AFTER = AFTER.replace("qVal(V), h'(X, V) == a, W <= 0.5*V",
                           "W <= 0.5*V, h'(X, V) == a, qVal(V)")


@pytest.mark.parametrize("source,depth,skips,cut", [
    (AFTER, 6, 0, {"depth"}), (BEFORE, 6, 1, set()), (QVAL_AFTER, 2, 0, {"depth"}),
], ids=["bound-after-call", "bound-before-call", "qval-after-call"])
def test_a_bound_after_the_call_does_not_count(source, depth, skips, cut):
    program = parse_program("data t = a | b\n" + source)
    solver = Solver(program, limits=Limits(depth=depth))
    constraints = parse_constraints("qVal(W), W >= 0.5, h'(1, W) == a")
    assert len(list(solver.solve(constraints, ["W"], []))) == 1
    assert (solver.skips, solver.cut) == (skips, cut)


def test_a_chain_longer_than_the_depth_runs(request, library):
    # at W >= 0.5 and depth 6, some chains of guessGenre's calls are
    # longer than the remaining depth: their tries run, and the depth
    # still cuts the search
    goal = f"{PAPER} | W >= 0.5"
    answers, tries, solver = counted(library, goal, 6)
    assert answers == ["{ R -> 4 } { W in [0.5, 0.7] } [incomplete]"]
    assert solver.cut == {"depth"} and solver.skips > 0
    request.getfixturevalue("no_clash_skips")
    request.getfixturevalue("no_cut_skips")
    plain, _, every = counted(library, goal, 6)
    assert (plain, every.cut, every.skips) == (answers, solver.cut, 0)


def test_loop_runs_its_clashing_try():
    # LOOP's p calls loop, a factor-1 cycle, so the chain check cannot
    # skip its try: it runs into the depth bound, and the second time the
    # cut check skips it
    program = parse_program(LOOP)
    translated, _ = transform_program(program)
    constraints, wvars, datavars = transform_goal(
        parse_goal("(q == true) # W | W >= 0.5"), program)
    solver = Solver(translated, limits=Limits(depth=8))
    assert list(solver.solve(constraints, wvars, datavars)) == []
    assert (solver.skips, solver.cut) == (1, {"depth"})
