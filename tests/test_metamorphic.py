"""Relations between runs that the qualification scheme implies.

Product diagonal: a u program read under uxu takes each factor a as
(a,a), so at a threshold (t,t) each answer is u's at t in both
components: the same bindings, residuals and flags, and each
component's interval u's interval.

Threshold monotonicity: qualification constraints are downward closed,
so the answers at W >= t are those at a lower threshold whose upper
bound is at least t, with the same bindings and upper bounds, and t as
their lower bound.

Depth monotonicity: a run that the depth bound does not cut gives the
same answers at every greater depth, and an answer that no cut flags at
one depth is found again one depth deeper.

Certificate agreement: each clean answer's statement, the goal's
call rewriting to the answer's result at the upper bound of its
qualification, is derivable, and its certificate, written and read
back, checks valid against the source program; a hair above that
bound, the statement is not found.

The relations hold under any correct search, whatever the solver skips
or remembers.
"""

import pytest

from test_cut_skip import GUESS, OPEN, outcome
from test_rule_filter import PAPER
from qcflp.domains import U, domain_from_name
from qcflp.runtime import Limits, Solver, answer_record
from qcflp.semantics import (CheckResult, check_proof, holds, parse_proof,
                             parse_statement, serialize_proof)
from qcflp.syntax import parse_goal, parse_program
from qcflp.transform import transform_goal, translation

LADDER = ("0.9", "0.8", "0.7", "0.65", "0.6", "0.5", "0.4", "0.3", "0.2", "0.15", "0.1")


@pytest.fixture(scope="module")
def library_uxu(library_text):
    return parse_program(library_text, domain_from_name("uxu"))


@pytest.mark.parametrize("goal", [PAPER, OPEN], ids=["paper", "open"])
def test_product_diagonal(library, library_uxu, goal):
    uxu = domain_from_name("uxu")
    for t in LADDER:
        (answers, _, cut), _ = outcome(library, f"{goal} | W >= {t}", 64, U)
        (pairs, _, pair_cut), _ = outcome(library_uxu, f"{goal} | W >= ({t},{t})", 64, uxu)
        assert len(pairs) == len(answers) and pair_cut == cut, t
        for a, p in zip(answers, pairs):
            assert p["qual"] == {"W.1": a["qual"]["W"], "W.2": a["qual"]["W"]}, t
            assert (p["subst"], p["residual"], p["flags"]) == \
                (a["subst"], a["residual"], a["flags"]), t
    assert answers


def records(program, goal: str, depth: int) -> tuple:
    """The records of a goal's answers under u (answer_record), and the
    reasons the run was cut."""
    constraints, wvars, datavars = transform_goal(parse_goal(goal), program, U)
    solver = Solver(translation(program, U).translated, U, Limits(depth=depth))
    return ([answer_record(a) for a in solver.solve(constraints, wvars, datavars)],
            solver.cut)


@pytest.mark.parametrize("goal,base,thresholds", [
    (OPEN, "0.6", ("0.9", "0.8", "0.7", "0.65")),
    (PAPER, "0.1", LADDER[:-1]),
], ids=["open", "paper"])
def test_threshold_monotonicity(library, goal, base, thresholds):
    below, cut = records(library, f"{goal} | W >= {base}", 64)
    assert below and not cut
    for t in thresholds:
        expected = [{**r, "qual": {"W": {**r["qual"]["W"], "lo": float(t)}}}
                    for r in below if r["qual"]["W"]["hi"] >= float(t)]
        assert records(library, f"{goal} | W >= {t}", 64) == (expected, set()), t


THRESHOLDED = (f"{PAPER} | W >= 0.65", f"{OPEN} | W >= 0.6")


@pytest.mark.parametrize("goal", THRESHOLDED, ids=["paper", "open"])
def test_no_cut_keeps_the_answers_at_every_greater_depth(library, goal):
    runs = {depth: records(library, goal, depth) for depth in range(1, 65)}
    uncut = min(depth for depth, (_, cut) in runs.items() if not cut)
    assert uncut == 7 and runs[uncut][0]
    assert all(runs[depth] == runs[uncut] for depth in range(uncut, 65))


# the threshold-free paper goal is cut at every depth up to 12, so it
# has no clean answer there; the others have one from depth 2, 3 or 7
@pytest.mark.parametrize("goal", [*THRESHOLDED, PAPER, OPEN, GUESS],
                         ids=["paper", "open", "paper-free", "open-free", "guessGenre"])
def test_a_clean_answer_is_found_one_depth_deeper(library, goal):
    deeper = records(library, goal, 1)[0]
    for depth in range(1, 12):
        shown, deeper = deeper, records(library, goal, depth + 1)[0]
        for r in shown:
            if not r["flags"]:
                assert r in deeper, (depth, r)


@pytest.mark.parametrize("dom_name,goal,call", [
    ("u", f"{OPEN} | W >= 0.6", "search({L}, {G}, {V})"),
    ("u", f"{PAPER} | W >= 0.3", 'search("German", "Essay", intermediate)'),
    ("uxu", f"{PAPER} | W >= (0.3,0.3)", 'search("German", "Essay", intermediate)'),
], ids=["open", "paper", "paper-uxu"])
def test_certificate_agreement(library_text, dom_name, goal, call):
    dom = domain_from_name(dom_name)
    program = parse_program(library_text, dom)
    (answers, _, cut), _ = outcome(program, goal, 64, dom)
    clean = [a for a in answers if not a["flags"]]
    assert not cut and len(clean) == (13 if "L" in call else 1)
    for a in clean:
        hi = [q["hi"] for _, q in sorted(a["qual"].items())]
        text = f"({call.format(**a['subst'])} -> {a['subst']['R']})"
        r = holds(program, dom, parse_statement(f"{text} # {qual(hi)}"), 64)
        assert r.status == "derivable", text
        _, tree = parse_proof(serialize_proof(r.tree, dom_name, dom))
        assert check_proof(program, dom, tree) == CheckResult("valid"), text
        above = parse_statement(f"{text} # {qual([x * (1 + 1e-6) for x in hi])}")
        assert holds(program, dom, above, 64).status == "not_found", text


def qual(components: list) -> str:
    """A qualification's text: one number, or a pair."""
    return repr(components[0]) if len(components) == 1 else \
        "(" + ",".join(map(repr, components)) + ")"
