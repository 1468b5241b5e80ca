"""A rule try builds only what it uses.

A try builds the slots of the rule's variables and the head patterns;
the compiled qVal and monomial-bound conditions post from the slots.  A
condition's atom is built when the general path first reaches it, and
the rhs when the conditions first hold, each once per instance, so the
call nodes in them keep one identity across the solutions of earlier
conditions.  Tries, propagation steps, answers and certificates are
those of building every part up front.  The proof checker keeps a rule
part that has no variables as it is.
"""

import hashlib

import pytest

from conftest import pinned_form
from test_acceptance import _rebuild
from test_rule_filter import PAPER
import qcflp.semantics
from qcflp.runtime import Limits, Solver, render_answer, replay_trees
from qcflp.semantics import check_proof
from qcflp.syntax import parse_goal, parse_program
from qcflp.terms import AtomicConstraint
from qcflp.transform import transform_goal, transform_program


@pytest.fixture
def built(monkeypatch):
    """A count of the AtomicConstraints built."""
    count = {"atoms": 0}
    init = AtomicConstraint.__init__

    def counted(*args):
        count["atoms"] += 1
        return init(*args)
    monkeypatch.setattr(AtomicConstraint, "__init__", counted)
    return count


@pytest.mark.parametrize("goal,tries,steps,atoms", [
    (f"{PAPER} | W >= 0.3", 35, 13, 3000),
    ("(search(L,G,V) == R) # W | W >= 0.6", 197, 125, 300),
])
def test_a_try_builds_only_the_atoms_it_reaches(built, library, goal, tries,
                                                steps, atoms):
    # building every condition atom at each try made 10,632 and 694,
    # for 7,961 and 509 tries before the failure memo (2,059 and 366
    # before its call subsumption, 637 and 325 before it moved to the
    # rule try, 320 and 281 before clashing tries that cannot cut were
    # skipped)
    translated, _ = transform_program(library)
    constraints, wvars, datavars = transform_goal(parse_goal(goal), library)
    solver = Solver(translated, limits=Limits(depth=64))
    built["atoms"] = 0
    assert list(solver.solve(constraints, wvars, datavars))
    assert solver.tries == tries
    assert solver.prop_steps == steps
    assert built["atoms"] <= atoms


# k's value reaches the rhs through Y, and the rhs calls g on it; f's
# attenuation adds compiled conditions, whose atoms only replay builds
IDENTITY = """
k --> a
k --> b
g(X) --> X
f -0.9-> p(Y, g(Y)) <== k == Y
"""

# SHA-256 of each answer's certificates in the pinned form
# (conftest.pinned_form), concatenated, as every part of the instance
# built up front gave them
IDENTITY_CERTS = [
    "92f4684f251bf26faea0dc9c9ffd3511b495be437f0fd806ab02a628231581e9",
    "ab5ca9354f1ff6a68df9418da4a1c9912a2141a29978b2fd6e01b3aea2d71954",
]


def test_instance_parts_keep_one_identity_across_condition_solutions():
    program = parse_program(IDENTITY)
    translated = transform_program(program)[0]
    constraints, wvars, datavars = transform_goal(parse_goal("(f == R) # W"), program)
    solver = Solver(translated, limits=Limits())
    answers = list(solver.solve(constraints, wvars, datavars))
    assert [render_answer(a) for a in answers] == [
        "{ R -> p(a, a) } { W in (0, 0.9] }", "{ R -> p(b, b) } { W in (0, 0.9] }"]
    # one instance of f: its rhs call g(Y) is one node, which each
    # branch reduced to its own value (call-time choice per branch)
    g_calls = [[rec for rec in a.store.evals.values() if rec.call.symbol == "g'"]
               for a in answers]
    assert [len(recs) for recs in g_calls] == [1, 1]
    assert g_calls[0][0].call is g_calls[1][0].call
    assert [str(recs[0].result) for recs in g_calls] == ["a", "b"]
    for _ in range(2):  # a second replay gives the same text
        certs = []
        for a in answers:
            trees = replay_trees(solver, a, constraints)
            assert [check_proof(translated, None, t).status for t in trees] == \
                ["valid"] * len(trees)
            text = "".join(pinned_form(t, "u", None) for t in trees)
            certs.append(hashlib.sha256(text.encode()).hexdigest())
        assert certs == IDENTITY_CERTS


def _fun_paths(tree, index, path=()):
    """Paths to the fun nodes of the rule with this index, pre-order."""
    if tree.tag == "fun" and tree.rule_index == index:
        yield path
    for i, kid in enumerate(tree.children):
        yield from _fun_paths(kid, index, path + (i,))


def test_the_checker_keeps_a_ground_rhs_as_it_is(monkeypatch, library):
    translated = transform_program(library)[0]
    index = next(i for i, r in enumerate(translated.rules) if r.name == "library'")
    listing = translated.rules[index].rhs
    constraints, wvars, datavars = transform_goal(
        parse_goal(f"{PAPER} | W >= 0.65"), library)
    solver = Solver(translated, limits=Limits())
    [answer] = solver.solve(constraints, wvars, datavars)
    tree = replay_trees(solver, answer, constraints)[-1]
    substituted = []
    apply_subst = qcflp.semantics.apply_subst

    def spy(obj, sigma):
        substituted.append(obj)
        return apply_subst(obj, sigma)

    monkeypatch.setattr(qcflp.semantics, "apply_subst", spy)
    assert check_proof(translated, None, tree).status == "valid"
    assert substituted and all(obj is not listing for obj in substituted)
    # the rhs premise is still compared: put the argument premise there
    path = next(_fun_paths(tree, index))
    swapped = _rebuild(tree, path, lambda node: type(node)(
        node.tag, node.conclusion, node.children[::-1], node.rule_index, node.theta))
    verdict = check_proof(translated, None, swapped)
    assert verdict.status == "invalid" and "premise mismatch" in verdict.reason
