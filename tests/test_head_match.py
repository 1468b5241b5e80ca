"""A rule instance takes the values its call already has.

Before a rule is renamed, its head patterns are matched against the
call's walked arguments, left to right: a variable slot takes a
variable, a literal or ground data, a constructor pattern decomposes
against data, and a clash skips the rule.  From the first position that
would evaluate or bind, _unify_pattern takes over.  The match evaluates
and binds nothing, so answers and certificates are those of unifying
every position through the generators, up to the numbers in the names
that the search makes; a rule whose head clashes in the match is not
renamed, counted or traced.
"""

import re

import pytest

from conftest import BOOK4
from test_cut_skip import outcome
from test_fixpoint import DAG
from test_replay import UP
from test_rule_filter import (PAPER, RESIDUAL, SPIN, THRESHOLD_SWEEP,
                              solve, solve_certified)
from qcflp.cli import main
from qcflp.domains import U, domain_from_name
from qcflp.runtime import Limits, Solver, Store
from qcflp.semantics import parse_proof
from qcflp.syntax import parse_goal, parse_program
from qcflp.terms import App
from qcflp.transform import transform_goal, transform_program


@pytest.fixture
def calls(monkeypatch):
    """Counts of the bindings and store assignments made."""
    count = {"_bind": 0, "assign": 0}
    for cls, name in ((Solver, "_bind"), (Store, "assign")):
        def counted(*args, _name=name, _f=getattr(cls, name)):
            count[_name] += 1
            return _f(*args)
        monkeypatch.setattr(cls, name, counted)
    return count


@pytest.mark.parametrize("goal,tries,binds,assigns", [
    (f"{PAPER} | W >= 0.3", 35, 100, 10000),
    ("(search(L,G,V) == R) # W | W >= 0.6", 197, 100, 1000),
])
def test_match_keeps_the_tries_and_drops_the_bindings(calls, library, goal,
                                                      tries, binds, assigns):
    # at the parent of the match, the paper goal made 31,889 bindings
    # and 40,252 store assignments for the same 7,961 tries, which the
    # failure memo has since cut to 2,059, its call subsumption to 637,
    # its move to the rule try to 320 and the skipping of clashing tries
    # that cannot cut to 35 (509 to 366 to 325 to 281 to 197 for the
    # second)
    translated, _ = transform_program(library)
    constraints, wvars, datavars = transform_goal(parse_goal(goal), library)
    solver = Solver(translated, limits=Limits(depth=64))
    assert list(solver.solve(constraints, wvars, datavars))
    assert solver.tries == tries
    assert calls["_bind"] <= binds
    assert calls["assign"] <= assigns


# (program, domain name, goal, depth); None is the library
AGREE = [pytest.param(None, dom, goal, depth, id=f"sweep-{i}")
         for i, (goal, dom, depth, _) in enumerate(THRESHOLD_SWEEP)] + [
    pytest.param(None, "uxu", f"(guessGenre({BOOK4}) == G) # W | W >= (0.5,0.5)",
                 64, id="uxu-guessGenre"),
    pytest.param(UP, "u", "(up(2) == R) # W", 12, id="up-2"),
    pytest.param(UP, "u", "(up(30) == R) # W", 70, id="up-30"),
    pytest.param(SPIN, "u", "(g == R) # W", 5, id="spin-g"),
    pytest.param(SPIN, "u", "(f(s(z)) == R) # W", 8, id="spin-f"),
    pytest.param(RESIDUAL, "u", "(f(Z) == true) # W | W >= 0.6", 64, id="residual-var"),
    pytest.param(RESIDUAL, "u", "(f(3) == true) # W", 64, id="residual-literal"),
    *[pytest.param(DAG, "u", f"({f}({n}) == R) # W", 8, id=f"dag-{f}-{n}")
      for f in ("r", "s") for n in ("n1", "n6", "n4")],
]


@pytest.mark.parametrize("source,dom_name,goal,depth", AGREE)
def test_match_and_generator_path_agree(monkeypatch, library_text, source,
                                        dom_name, goal, depth):
    # stopping the match at position 0 unifies every head position
    # through _unify_pattern, as before the match
    dom = domain_from_name(dom_name)
    program = parse_program(library_text if source is None else source, dom)
    matched = solve_certified(program, goal, depth, dom)
    monkeypatch.setattr(Solver, "_match_head", lambda self, pats_t, args, store, vs: [])
    answers, certs = solve_certified(program, goal, depth, dom)
    # a head that clashes is then renamed, so the names that the search
    # made take other numbers: compare them as render_answer prints them
    assert answers == matched[0]
    assert list(map(renumbered, certs)) == list(map(renumbered, matched[1]))


def renumbered(cert: str) -> str:
    """cert with the n of each name the search made (~n, ~n~X)
    renumbered by first occurrence, as runtime._printed does."""
    numbers = {}
    return re.sub(r"~(\d+)",
                  lambda m: f"~{numbers.setdefault(m[1], len(numbers))}", cert)


CALL_IN_DATA = """
data t = a | b
data n = z | s(t)
k(X) --> X
f(s(X)) --> X
"""


def test_constructor_pattern_meets_data_holding_a_call(tmp_path, capsys):
    # f(s(X)) against s(k(a)): the match stops at the call k(a), which
    # X is then bound to unevaluated; theta records its value a
    assert solve(CALL_IN_DATA, "(f(s(k(a))) == R) # W") == ["{ R -> a } { W in (0, 1] }"]
    src, cert = tmp_path / "p.qcflp", tmp_path / "p.proof"
    src.write_text(CALL_IN_DATA)
    assert main(["prove", str(src), "--statement", "(f(s(k(a))) -> a) # 1",
                 "-o", str(cert)]) == 0
    assert main(["prove", str(src), "--check", str(cert)]) == 0
    assert capsys.readouterr().out == "derivable\nvalid\n"
    _, tree = parse_proof(cert.read_text())
    stack, thetas = [tree], []
    while stack:
        node = stack.pop()
        stack += node.children
        if node.tag == "fun":
            thetas.append(node.theta)
    assert thetas == [(("X", App("a")),)] * 2


CLASH = """
data nat = z | s(nat)
g(z, z) --> a
g(z, s(N)) --> N
g(s(N), M) --> M
"""


def test_a_clash_at_any_head_position_is_no_try(calls):
    # g(z, s(z)) matches rule 0's first position and clashes at its
    # second: the rule is skipped before it is renamed, so it is neither
    # counted nor traced
    lines, tries = [], []
    assert solve(CLASH, "(g(z, s(z)) == R) # W", trace=lines.append, tries=tries) == \
        ["{ R -> z } { W in (0, 1] }"]
    assert lines == ["try rule 1: g'"]
    assert tries == [1]
    assert calls["_bind"] == 1  # the goal's R


def test_other_canonical_data_fails_the_head_match():
    # "ab" and "cd" are both canonical ground data with the head ':' of
    # arity 2; the match compares them by identity and skips rule 0
    # before it is renamed, so it is neither counted nor traced
    lines, tries = [], []
    assert solve('g("ab") --> 1\ng("cd") --> 2', '(g("cd") == R) # W',
                 trace=lines.append, tries=tries) == ["{ R -> 2 } { W in (0, 1] }"]
    assert lines == ["try rule 1: g'"]
    assert tries == [1]


BEHIND_A_CALL = """
data nat = z | s(nat)
g(X, z) --> a
g(X, s(N)) --> b
k --> z
"""


def test_a_clash_behind_a_call_in_a_variable_slot_is_a_try():
    # the match stops at the call k in rule 0's slot X, so the rule is
    # renamed and traced; its clash at position 1 shows in _unify_pattern,
    # which binds X to k unevaluated, so no k' line shows
    lines, tries = [], []
    goal = "(g(k, s(z)) == R) # W"
    assert solve(BEHIND_A_CALL, goal, trace=lines.append, tries=tries) == \
        ["{ R -> b } { W in (0, 1] }"]
    assert lines == ["try rule 0: g'", "try rule 1: g'"]
    assert tries == [2]
    (_, _, cut), _ = outcome(parse_program(BEHIND_A_CALL), goal, 64, U)
    assert cut == set()


def test_a_variable_slot_does_not_take_a_call(calls):
    # g(z, k(s(z))): the match stops at the call, which _unify_pattern
    # binds unevaluated; the clash on rule 0 shows only after evaluation
    lines = []
    assert solve(CLASH + "k(X) --> X", "(g(z, k(s(z))) == R) # W",
                 trace=lines.append) == ["{ R -> z } { W in (0, 1] }"]
    assert lines == ["try rule 0: g'", "try rule 3: k'", "try rule 1: g'",
                     "try rule 3: k'"]
    assert calls["_bind"] >= 1
