"""Golden answers for the trail-based solver store.

The solver searches on one mutable store and undoes each branch through
its trail; every answer carries its own snapshot.  These answers were
rendered by the earlier copy-on-branch solver, so the search tree,
flags and intervals must come out exactly the same.
"""

import pytest

from qcflp.runtime import (Limits, Solver, Store, render_answer,
                           replay_trees)
from qcflp.semantics import check_proof
from qcflp.syntax import parse_expr, parse_goal, parse_program
from qcflp.transform import transform_goal, transform_program

PAPER = '(search("German","Essay",intermediate) == R) # W'

SEARCH_ALL = [
    '{ G -> "Comic", L -> "French", R -> 1, V -> intermediate } { W in [0.6, 0.8] }',
    '{ G -> "SciFi", L -> "English", R -> 2, V -> intermediate } { W in [0.6, 0.8] }',
    '{ G -> "Fantasy", L -> "English", R -> 2, V -> intermediate } { W in [0.6, 0.8] }',
    '{ G -> "Adventure", L -> "English", R -> 2, V -> intermediate } { W in [0.6, 0.63] }',
    '{ G -> "SciFi", L -> "English", R -> 2, V -> upper } { W in [0.6, 0.7] }',
    '{ G -> "Fantasy", L -> "English", R -> 2, V -> upper } { W in [0.6, 0.7] }',
    '{ G -> "Adventure", L -> "English", R -> 2, V -> upper } { W in [0.6, 0.63] }',
    '{ G -> "Philosophy", L -> "German", R -> 3, V -> proficiency } { W in [0.6, 0.9] }',
    '{ G -> "Essay", L -> "German", R -> 3, V -> proficiency } { W in [0.6, 0.8] }',
    '{ G -> "Biography", L -> "German", R -> 4, V -> intermediate } { W in [0.6, 0.8] }',
    '{ G -> "Essay", L -> "German", R -> 4, V -> intermediate } { W in [0.6, 0.7] }',
    '{ G -> "Biography", L -> "German", R -> 4, V -> upper } { W in [0.6, 0.7] }',
    '{ G -> "Essay", L -> "German", R -> 4, V -> upper } { W in [0.6, 0.7] }',
]


@pytest.fixture(scope="module")
def translated_library(library):
    return transform_program(library)[0]


def collect(library, translated, goal_text, depth, monkeypatch):
    """All answers, collected before any replay; also counts store copies."""
    constraints, wvars, datavars = transform_goal(parse_goal(goal_text),
                                                  library)
    copies = []
    original = Store.copy

    def counted(self):
        copies.append(self)
        return original(self)

    solver = Solver(translated, limits=Limits(depth=depth))
    with monkeypatch.context() as m:
        m.setattr(Store, "copy", counted)
        answers = list(solver.solve(constraints, wvars, datavars))
    # one snapshot per emitted answer and no other copy
    assert len(copies) == len(answers)
    return solver, answers, constraints


def assert_replays(solver, translated, answers, constraints):
    clean = [a for a in answers if not a.flags]
    assert len({id(a.store) for a in clean}) == len(clean)
    for ans in clean:
        for tree in replay_trees(solver, ans, constraints):
            assert check_proof(translated, None, tree).status == "valid"


@pytest.mark.parametrize("threshold, expected", [
    ("0.65", "{ R -> 4 } { W in [0.65, 0.7] }"),
    ("0.5", "{ R -> 4 } { W in [0.5, 0.7] }"),
    ("0.3", "{ R -> 4 } { W in [0.3, 0.7] }"),
])
def test_paper_goal_thresholds(library, translated_library, monkeypatch,
                               threshold, expected):
    solver, answers, constraints = collect(
        library, translated_library, f"{PAPER} | W >= {threshold}", 64,
        monkeypatch)
    assert [render_answer(a) for a in answers] == [expected]
    assert_replays(solver, translated_library, answers, constraints)


@pytest.mark.parametrize("depth", [5, 6])
def test_paper_goal_threshold_free_depth_bound(library, translated_library,
                                               monkeypatch, depth):
    _, answers, _ = collect(library, translated_library, PAPER, depth,
                            monkeypatch)
    assert [render_answer(a) for a in answers] == \
        ["{ R -> 4 } { W in (0, 0.7] } [incomplete]"]


def test_search_all_snapshots_independent(library, translated_library,
                                          monkeypatch):
    solver, answers, constraints = collect(
        library, translated_library, "(search(L,G,V) == R) # W | W >= 0.6",
        64, monkeypatch)
    assert [render_answer(a) for a in answers] == SEARCH_ALL
    # every snapshot still replays after the whole enumeration
    assert_replays(solver, translated_library, answers, constraints)


def test_exhausted_call_restores_store():
    # a rule without variables or conditions makes no mutation of its
    # own before the call-time-choice record, so only that record's undo
    # restores the store
    solver = Solver(parse_program("f --> true"))
    store = Store()
    assert [str(h) for h in solver._hnf(parse_expr("f"), store, 8)] == ["true"]
    assert store.trail == [] and store == Store()
