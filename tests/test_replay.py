"""Proof replay: pinned certificates, shared resolution, long inputs.

Replay resolves each stored node once per answer, and the terms and
proof nodes it builds are canonical across all the answers of one
solver; the certificates it produces must stay byte for byte what the
unmemoized, unshared replay produced.
"""

import gc
import hashlib
import re
import sys

import pytest

from conftest import BOOK4, expanded_certificate, read_back
from qcflp.runtime import (Limits, ReplayError, Solver, _Replay, answer_record,
                           render_answer, replay_trees)
import qcflp.semantics
from qcflp.semantics import check_proof, distinct_parts, serialize_proof
from qcflp.syntax import Goal, GoalItem, parse_goal, parse_program
from qcflp.terms import App, AtomicConstraint, TRUE, Var, deep_recursion
from qcflp.transform import transform_goal, transform_program

PAPER = '(search("German","Essay",intermediate) == R) # W'

# Tree sizes of each clean answer's replayed goal constraints, in answer
# order, and the SHA-256 of all their certificates concatenated, taken
# from the unmemoized replay.  Each certificate is read back and hashed
# with a line per occurrence (conftest.expanded_certificate), so the
# digest pins the trees, whatever their certificates share.
GOLDEN_GOALS = [
    (f"{PAPER} | W >= 0.65", [[2, 3, 3122]]),
    (f"{PAPER} | W >= 0.5", [[2, 3, 3122]]),
    ("(search(L,G,V) == R) # W | W >= 0.6",
     [[2, 3, n] for n in (996, 1547, 1659, 1779, 1547, 1659, 1779,
                          2807, 2949, 2988, 3122, 2988, 3122)]),
    (f"(guessGenre({BOOK4}) == G) # W | W >= 0.5",
     [[2, 3, 259], [2, 3, 401]]),
]
GOLDEN_SHA256 = \
    "7dd3b174c615c4489ac4537357e93e7947aab3ae7edf29e0f9e80c5e7f3f229e"


@pytest.fixture(scope="module")
def translated_library(library):
    return transform_program(library)[0]


def clean_answers(program, translated, goal_text, depth=64):
    constraints, wvars, datavars = transform_goal(parse_goal(goal_text),
                                                  program)
    solver = Solver(translated, limits=Limits(depth=depth))
    answers = [a for a in solver.solve(constraints, wvars, datavars)
               if not a.flags]
    return solver, answers, constraints


def test_golden_certificates(library, translated_library):
    digest = hashlib.sha256()
    for goal, sizes in GOLDEN_GOALS:
        solver, answers, constraints = clean_answers(
            library, translated_library, goal)
        got = []
        for ans in answers:
            trees = replay_trees(solver, ans, constraints)
            got.append([t.size() for t in trees])
            for tree in trees:
                assert check_proof(translated_library, None, tree).status \
                    == "valid"
                parsed = read_back(translated_library, "u", None, tree)
                digest.update(expanded_certificate(parsed, "u", None).encode())
        assert got == sizes, goal
    assert digest.hexdigest() == GOLDEN_SHA256


def test_resolution_is_shared(library, translated_library):
    solver, answers, constraints = clean_answers(
        library, translated_library, f"{PAPER} | W >= 0.65")
    r = _Replay(solver, answers[0].store)
    stored = [rec.call for rec in answers[0].store.evals.values()]
    assert stored
    for call in stored:
        assert r.display(call) is r.display(call)
        assert r.value(call) is r.value(call)
    # replaying the goal again hands out the subtrees built the first time
    first = [r.atom_tree(c) for c in constraints]
    again = [r.atom_tree(c) for c in constraints]
    for a, b in zip(first, again):
        assert a is b
        # a child on a call or constructor node is the same object
        for x, y in zip(a.children, b.children):
            if isinstance(x.conclusion.lhs, App):
                assert x is y
        assert check_proof(translated_library, None, a).status == "valid"


OPEN = "(search(L,G,V) == R) # W | W >= 0.6"


def structural_classes(trees) -> dict:
    """id of every subproof reachable from trees -> the number of its
    structural class: two subproofs share a class when they are equal."""
    classes, out = {}, {}

    def cls(t):
        hit = out.get(id(t))
        if hit is None:
            key = (t.tag, t.rule_index, repr(t.conclusion), repr(t.theta),
                   tuple(cls(c) for c in t.children))
            hit = out[id(t)] = classes.setdefault(key, len(classes))
        return hit

    with deep_recursion():
        for t in trees:
            cls(t)
    return out


def test_equal_subproofs_are_one_object(library, translated_library):
    solver, answers, constraints = clean_answers(
        library, translated_library, OPEN)
    trees = [replay_trees(solver, a, constraints) for a in answers]
    assert len(trees) == 13
    for tree in (t for ts in trees for t in ts):
        assert distinct_parts([tree])[0] == \
            len(set(structural_classes([tree]).values()))
    # across answers too: one object per structural class
    every = [t for ts in trees for t in ts]
    classes = structural_classes(every)
    assert distinct_parts(every)[0] == len(classes) \
        == len(set(classes.values()))
    # most of the first answer's subproofs (its book records among
    # them) are objects of the last answer's trees too
    first, last = (set(map(id, _subproofs(ts))) for ts in (trees[0], trees[-1]))
    assert len(first & last) > len(first) // 2


def _subproofs(trees) -> list:
    seen, todo = {}, list(trees)
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(t.children)
    return list(seen.values())


def certificates(solver, answer, constraints) -> list:
    return [serialize_proof(t, "u", None)
            for t in replay_trees(solver, answer, constraints)]


@pytest.mark.parametrize("text,goal", [
    (None, OPEN),
    # two answers whose proofs differ in their rule index only
    ("f --> true\nf --> true", "(f == R) # W"),
], ids=["library", "twin-rules"])
def test_shared_replay_matches_a_fresh_solver(library, translated_library,
                                              text, goal):
    # answer k replayed after answers 0..k-1 reads as it does on a
    # solver that replays nothing else
    program = library if text is None else parse_program(text)
    translated = translated_library if text is None else \
        transform_program(program)[0]
    solver, answers, constraints = clean_answers(program, translated, goal)
    assert len(answers) > 1
    for ans in answers:
        assert certificates(solver, ans, constraints) == \
            certificates(Solver(translated), ans, constraints)


def test_shared_replay_survives_collection(library, translated_library):
    # the tables keep their keys alive: once the earlier trees and
    # answers are dropped and collected, no id of theirs is reused
    solver, answers, constraints = clean_answers(
        library, translated_library, OPEN)
    expected = [certificates(Solver(translated_library), a, constraints)
                for a in answers]
    half = len(answers) // 2
    trees = [replay_trees(solver, a, constraints) for a in answers[:half]]
    del trees, answers[:half]
    gc.collect()
    for ans, certs in zip(answers, expected[half:]):
        trees = replay_trees(solver, ans, constraints)
        assert [check_proof(translated_library, None, t).status
                for t in trees] == ["valid"] * len(trees)
        assert [serialize_proof(t, "u", None) for t in trees] == certs


WALK = "walk([]) --> true\nwalk(_X:T) --> walk(T)"


def test_long_list_replay_is_linear(monkeypatch):
    n = 200
    program = parse_program(WALK)
    translated = transform_program(program)[0]
    items = ",".join(str(i) for i in range(n))
    solver, answers, constraints = clean_answers(
        program, translated, f"(walk([{items}]) == true) # W", depth=2 * n)
    assert len(answers) == 1
    r = _Replay(solver, answers[0].store)
    trees = [r.atom_tree(c) for c in constraints]
    nodes = sum(t.size() for t in trees)
    checked = []
    check_node = qcflp.semantics._check_node

    def counting(chk, tree, path):
        checked.append(tree)
        return check_node(chk, tree, path)

    monkeypatch.setattr(qcflp.semantics, "_check_node", counting)
    assert all(check_proof(translated, None, t).status == "valid"
               for t in trees)
    # the checker decides each distinct subtree once across the calls
    assert len(checked) == distinct_parts(trees)[0]
    # the tree is quadratic in n (each level proves its whole argument
    # list), but every stored App node is resolved at most once per
    # direction, so resolution stays linear in n
    resolved = len(r._shown) + len(r._values)
    assert resolved <= nodes
    assert resolved <= 5 * n
    # and the trees share what was resolved: their distinct subtrees and
    # the distinct App objects of their statements are linear in n too
    subtrees, apps = distinct_parts(trees)
    assert subtrees <= 15 * n < nodes
    assert apps <= 5 * n
    # and their certificates write each distinct subtree once
    assert sum(serialize_proof(t, "u", None).count("\n") for t in trees) \
        <= 15 * n


def test_recursion_limit_is_restored():
    # the solver, replay and the checker raise the interpreter's
    # recursion limit only while they run
    program = parse_program(WALK)
    translated = transform_program(program)[0]
    goal = "(walk([1,2,3]) == true) # W"
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1234)
    try:
        solver, answers, constraints = clean_answers(program, translated, goal)
        assert len(answers) == 1
        assert sys.getrecursionlimit() == 1234
        trees = replay_trees(solver, answers[0], constraints)
        assert sys.getrecursionlimit() == 1234
        assert all(check_proof(translated, None, t).status == "valid"
                   for t in trees)
        assert sys.getrecursionlimit() == 1234
        # between answers the caller runs under its own limit, and
        # closing the search early restores it too
        cs, wvars, datavars = transform_goal(parse_goal(goal), program)
        search = Solver(translated).solve(cs, wvars, datavars)
        next(search)
        assert sys.getrecursionlimit() == 1234
        search.close()
        assert sys.getrecursionlimit() == 1234
    finally:
        sys.setrecursionlimit(old)


COUNT = "data nat = z | s(nat)\ncount(z) --> z\ncount(s(N)) --> s(count(N))"


def nested_s(n):
    deep = App("z")
    for _ in range(n):
        deep = App("s", (deep,))
    return deep


def count_goal(n):
    return Goal((GoalItem(AtomicConstraint(
        "==", (App("count", (nested_s(n),)), Var("R")), TRUE), "W", None),))


def test_deep_replay_and_check_under_the_default_limit():
    # 300 nested constructors take the replay and the checker past the
    # default recursion limit; each raises it for itself
    program = parse_program(COUNT)
    translated = transform_program(program)[0]
    goal = count_goal(300)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        constraints, wvars, datavars = transform_goal(goal, program)
        solver = Solver(translated, limits=Limits(depth=700))
        (answer,) = solver.solve(constraints, wvars, datavars)
        trees = replay_trees(solver, answer, constraints)
        assert [check_proof(translated, None, t).status for t in trees] == \
            ["valid"] * len(constraints)
    finally:
        sys.setrecursionlimit(old)


def test_deep_answer_renders_under_the_default_limit():
    # an answer 400 constructors deep takes printing past the default
    # recursion limit; rendering raises it for itself and restores it
    program = parse_program(COUNT)
    translated = transform_program(program)[0]
    with deep_recursion():  # building the goal is not under test
        constraints, wvars, datavars = transform_goal(count_goal(400), program)
    (answer,) = Solver(translated, limits=Limits(depth=900)).solve(
        constraints, wvars, datavars)
    expected = "s(" * 400 + "z" + ")" * 400
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert render_answer(answer).startswith("{ R -> " + expected + " }")
        assert answer_record(answer)["subst"] == {"R": expected}
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)


UP = ("data nat = z | s(nat)\n"
      "up(N) --> z <== N == 0\n"
      "up(N) --> s(up(N - 1)) <== N > 0")


@pytest.mark.parametrize("n", [1, 2, 100])
def test_replay_through_arithmetic_is_valid(n):
    # the recursive call's argument N - 1 is an unevaluated call that N
    # is bound to; theta records its value, and the conditions and the
    # right-hand side show and prove N at that value too
    program = parse_program(UP)
    translated = transform_program(program)[0]
    solver, answers, constraints = clean_answers(
        program, translated, f"(up({n}) == R) # W", depth=2 * n + 8)
    (answer,) = answers
    assert render_answer(answer).startswith("{ R -> " + "s(" * n + "z")
    trees = replay_trees(solver, answer, constraints)
    assert [check_proof(translated, None, t).status for t in trees] == \
        ["valid"] * len(constraints)


def test_replay_walks_each_variable_once(monkeypatch, library, translated_library):
    # value memoizes a variable as it does an application, so one
    # answer's replay walks each variable object of its store once
    walked = []
    walk = _Replay._walk

    def recorded(self, e):
        if type(e) is Var:
            walked.append((self, e))  # kept alive, so their ids stay unique
        return walk(self, e)
    monkeypatch.setattr(_Replay, "_walk", recorded)
    solver, answers, constraints = clean_answers(
        library, translated_library, "(search(L,G,V) == R) # W | W >= 0.6")
    for ans in answers:
        replay_trees(solver, ans, constraints)
    assert len(answers) == 13
    assert len({(id(r), id(e)) for r, e in walked}) == len(walked) > 0


def test_replay_refuses_conditional_answers():
    # a conditional answer's tree needs hypotheses that entail its
    # residuals, which replay_trees does not have
    p = parse_program("f(X) --> true <== X >= 0")
    translated, _ = transform_program(p)
    constraints, wvars, datavars = transform_goal(parse_goal("(f(Y) == true) # W"), p)
    solver = Solver(translated)
    [answer] = solver.solve(constraints, wvars, datavars)
    assert answer.residual
    with pytest.raises(ReplayError):
        replay_trees(solver, answer, constraints)


# ----------------------------------------------------------------------
# Ground data and its proofs are kept on the program
# ----------------------------------------------------------------------

def book_proofs(trees) -> dict:
    """The printed book record -> its proof, for every subproof of trees
    that proves a book record against itself."""
    return {repr(t.conclusion.lhs): t for t in _subproofs(trees)
            if t.tag == "cons" and t.conclusion.lhs.symbol == "book"
            and t.conclusion.lhs is t.conclusion.rhs}


def test_two_solvers_share_the_proof_of_a_book_record(library):
    translated = transform_program(library)[0]
    goal = f"{PAPER} | W >= 0.65"
    first, second = (book_proofs(replay_trees(s, a, cs))
                     for s, (a,), cs in (clean_answers(library, translated, goal)
                                         for _ in range(2)))
    assert first and first.keys() == second.keys()
    assert all(first[k] is second[k] for k in first)


def test_a_second_certified_solve_checks_what_is_not_ground(library, monkeypatch):
    translated = transform_program(library)[0]
    goal = f"{PAPER} | W >= 0.65"
    solver, (answer,), constraints = clean_answers(library, translated, goal)
    assert all(check_proof(translated, None, t).status == "valid"
               for t in replay_trees(solver, answer, constraints))
    ground_proofs = solver.hashcons.program_data.proofs
    checked = []
    check_node = qcflp.semantics._check_node

    def counting(chk, tree, path):
        checked.append(tree)
        return check_node(chk, tree, path)

    monkeypatch.setattr(qcflp.semantics, "_check_node", counting)
    solver, (answer,), constraints = clean_answers(library, translated, goal)
    trees = replay_trees(solver, answer, constraints)
    assert all(check_proof(translated, None, t).status == "valid" for t in trees)
    parts = _subproofs(trees)
    not_ground = [t for t in parts if ground_proofs.get(id(t.conclusion.lhs)) is not t]
    assert 0 < len(checked) <= len(not_ground) < len(parts) // 2
    assert not any(ground_proofs.get(id(t.conclusion.lhs)) is t for t in checked)


def test_the_ground_table_grows_with_values_not_queries(library):
    translated = transform_program(library)[0]

    def certify(goal):
        solver, answers, constraints = clean_answers(library, translated, goal)
        for a in answers:
            replay_trees(solver, a, constraints)
        return solver.hashcons.program_data

    table = certify(OPEN)
    size = (len(table.terms), len(table.proofs))
    assert size[1] > 100
    for _ in range(20):
        assert certify(OPEN) is table
    assert certify("(search(Lang,Genre,Level) == Res) # Q | Q >= 0.6") is table
    assert (len(table.terms), len(table.proofs)) == size


MEMBER = ("member(B,[]) --> false\n"
          "member(B,H:_T) --> true <== B == H\n"
          "member(B,H:T) --> member(B,T) <== B /= H")


def test_pattern_variables_bind_walked_arguments(monkeypatch):
    # each call binds its pattern variables to the end of its argument's
    # chain, so the chains stay short and walking them, in the search and
    # in replay, grows linearly with the list (quadratically when each
    # call's variables chained through the caller's)
    steps = [0]

    def walk(self, store, e):
        while isinstance(e, Var) and e.name in store.subst:
            steps[0] += 1
            e = store.subst[e.name]
        return e

    monkeypatch.setattr(Solver, "walk", walk)
    program = parse_program(MEMBER)
    translated = transform_program(program)[0]
    counts = {}
    for n in (100, 200):
        items = ",".join(map(str, range(n)))
        steps[0] = 0
        solver, (answer,), constraints = clean_answers(
            program, translated, f"(member({n - 1}, [{items}]) == true) # W",
            depth=2 * n + 8)
        search = steps[0]
        steps[0] = 0
        trees = replay_trees(solver, answer, constraints)
        assert check_proof(translated, None, trees[0]).status == "valid"
        counts[n] = (search, steps[0])
    for before, after in zip(counts[100], counts[200]):
        assert before <= 30 * 100
        assert after <= 2.2 * before


# ----------------------------------------------------------------------
# The program's own data is canonical once per program
# ----------------------------------------------------------------------

def catalogue_text(library_text: str, n: int) -> str:
    """library.qcflp with its list replaced by n books, of which only the
    last one is in Latin: it is a medium Philosophy book, so the closed
    query CLOSED names it at 0.8."""
    books = ", ".join(
        f'book({100 + i}, "Title {i}", "Author {i}", '
        f'"{"Latin" if i == n - 1 else "English"}", "Philosophy", medium, '
        f'{200 + i})' for i in range(n))
    text, count = re.subn(r"^library -->.*?\]", lambda _m: f"library --> [{books}]",
                          library_text, count=1, flags=re.S | re.M)
    assert count == 1
    return text


CLOSED = '(search("Latin","Essay",intermediate) == 131) # W | W >= 0.6'


def certified_text(solver, answers, constraints) -> list:
    return [(render_answer(a), certificates(solver, a, constraints))
            for a in answers]


def test_the_program_data_is_canonical_once_per_program(library_text, monkeypatch):
    program = parse_program(catalogue_text(library_text, 32))
    translated = transform_program(program)[0]
    solver, answers, constraints = clean_answers(program, translated, CLOSED)
    table = solver.hashcons.program_data
    # the library rule's rhs template is the canonical list itself
    (index,) = [i for i, r in enumerate(translated.rules) if r.name == "library'"]
    rhs = solver._templates[index][2]
    assert id(rhs) in table.proofs
    assert table.app(rhs.symbol, rhs.args) is rhs
    first = certified_text(solver, answers, constraints)
    assert len(first) == 1
    # a second solver's closed query adds no entry to the table and makes
    # none of the program's data canonical again, only the goal's data:
    # its two strings and a constant, each once
    made = []
    app = type(table).app

    def counted(self, symbol, args=()):
        made.append(symbol)
        return app(self, symbol, args)

    monkeypatch.setattr(type(table), "app", counted)
    size = (len(table.terms), len(table.proofs))
    second = certified_text(*clean_answers(program, translated, CLOSED))
    assert (len(table.terms), len(table.proofs)) == size
    assert "book" not in made and len(made) <= 30
    monkeypatch.undo()
    # and its answers and certificates read as a fresh program's
    fresh = parse_program(catalogue_text(library_text, 32))
    assert second == first == certified_text(
        *clean_answers(fresh, transform_program(fresh)[0], CLOSED))


def test_call_time_choice_stays_per_instance():
    # f's right-hand side call is rebuilt for each instance of f, so the
    # two calls of coin choose apart
    program = parse_program("coin --> 0\ncoin --> 1\nf(X) --> coin\n"
                            "g --> p(f(a), f(b))\n")
    translated = transform_program(program)[0]
    _, answers, _ = clean_answers(program, translated, "(g == R) # W")
    assert [render_answer(a) for a in answers] == [
        f"{{ R -> p({x}, {y}) }} {{ W in (0, 1] }}" for x in (0, 1) for y in (0, 1)]
