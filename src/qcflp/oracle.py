"""Cross-validation of the solver against the fixpoint semantics.

Both engines answer the same question for ground goals over a finite
universe: with which maximal qualifications is a fact derivable?  The
fixpoint side iterates immediate consequences; the solver side runs the
translated program and reads the upper bounds of the qualification
intervals.  Disagreements indicate a bug in the transformation or in
either engine, so a seeded mutation of the transformation must surface
here as a mismatch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from .constraints import INF, holds_under
from .domains import QualDomain, U
from .runtime import Limits, Solver
from .semantics import BUDGET, bounded_lfp
from .syntax import Goal, GoalItem, Program, print_expr
from .terms import (App, AtomicConstraint, Basic, Expr, HashCons, TRUE, Var,
                    is_value, vars_of)
from .transform import transform_goal, transform_program, translation

TOL = 1e-9
WITNESS_TRIES = 4096
UNIVERSE_TERMS = 24  # the terms that default_universe keeps


@dataclass
class OracleRecord:
    goal: str
    fixpoint: list
    solver: list
    match: bool
    note: str = ""


@dataclass
class OracleReport:
    records: list = field(default_factory=list)
    partial: bool = False

    @property
    def mismatches(self) -> list:
        return [r for r in self.records if not r.match]


def default_universe(program: Program) -> list:
    """The UNIVERSE_TERMS smallest ground constructor terms mentioned by
    the program, small ones first.

    One walk over the rules, with its own stack, visits each subterm
    after its arguments and makes the values canonical in a local
    terms.HashCons, whose keys agree with ==: a literal by its value, an
    application by its symbol and its arguments' canonical terms.  Each
    distinct value is kept once, in the order it is first met, with its
    size, so a long list literal costs linear time.  Only values that can
    be among the first UNIVERSE_TERMS by size are printed for the order.
    """
    sig = program.signature
    canon = {}   # id of a visited subterm -> its canonical value, or None
    table = HashCons()
    size = {}    # id of a canonical value -> its size
    roots = []
    for r in program.rules:
        roots += r.patterns
        roots.append(r.rhs)
        for c in r.conditions:
            roots += (*c.args, c.result)
    stack = [(e, False) for e in reversed(roots)]
    while stack:
        e, kids_done = stack.pop()
        if id(e) in canon:
            continue
        if type(e) is App and e.args and not kids_done:
            stack.append((e, True))
            stack += ((a, False) for a in reversed(e.args))
            continue
        kids = [canon[id(a)] for a in e.args] if type(e) is App else ()
        if type(e) is Basic:
            value = table.leaf(e)
        elif type(e) is App and sig.kind(e.symbol) == "dc" \
                and all(k is not None for k in kids):
            value = table.app(e.symbol, kids)
        else:
            canon[id(e)] = None
            continue
        if id(value) not in size:
            size[id(value)] = 1 + sum(size[id(k)] for k in kids)
        canon[id(e)] = value
    seen = list(table.terms.values())
    if UNIVERSE_TERMS < len(seen):
        cap = sorted(size.values())[UNIVERSE_TERMS - 1]
        seen = [e for e in seen if size[id(e)] <= cap]
    seen.sort(key=lambda e: (size[id(e)], print_expr(e)))
    return seen[:UNIVERSE_TERMS]


def _antichain(points: list, tol: float = TOL) -> list:
    """Maximal elements of a list of component tuples, componentwise order."""
    uniq = []
    for p in points:
        if not any(all(abs(x - y) <= tol for x, y in zip(p, q)) for q in uniq):
            uniq.append(p)
    out = [p for p in uniq
           if not any(q is not p
                      and all(x <= y + tol for x, y in zip(p, q))
                      and any(y > x + tol for x, y in zip(p, q))
                      for q in uniq)]
    return sorted(out)


def _sets_match(a: list, b: list, tol: float = TOL) -> bool:
    if len(a) != len(b):
        return False
    return all(all(abs(x - y) <= tol for x, y in zip(p, q))
               for p, q in zip(sorted(a), sorted(b)))


def compare(program: Program, dom: QualDomain = U, k: int = 6,
            universe: Optional[list] = None, depth: int = 8,
            drop_site: Optional[int] = None, budget: int = BUDGET) -> OracleReport:
    """Compare fixpoint-derived facts with solver answers over a goal family.

    The goals are f(args) == target for each defined f, with args drawn
    from the universe and target from its constructor terms (is_value):
    a call rewrites only to those, so a fact never has a call as result.
    Each instance the fixpoint evaluates (bounded_lfp) and each pair
    asked is a step of budget, and the report is partial when it runs
    out.  One solver answers every goal, so each rule compiles once.
    A drop_site that is not an emitted site raises TransformError.

    The fixpoint side is planned once per universe list (_plan): the
    comparisons of a mutation sweep, which differ only in the
    translation, share it.  The solver is asked f(args) == T once per
    call, with the result T free, and its answers are grouped by the
    value of T (see _answers_by_result); a call whose answers do not all
    give T a value has each target posed as its own goal.  A target
    with neither a fixpoint corner nor a grouped answer matches and
    makes no record, so it is skipped.
    """
    universe = default_universe(program) if universe is None else list(universe)
    # the unmutated translation is the program's own, whose solvers share
    # rule templates and replayed ground data
    translated = translation(program, dom).translated if drop_site is None \
        else transform_program(program, dom, drop_site=drop_site)[0]
    targets, points, calls, partial = _plan(program, dom, k, universe, budget)
    solver = Solver(translated, dom, Limits(depth=depth))
    report = OracleReport(partial=partial)
    for call, goal, asked, fixes in calls:
        by_result = _answers_by_result(solver, program, goal) if asked else {}
        for i, target in enumerate(targets[:asked]):
            fix = fixes.get(i, [])
            if by_result is None:
                answers = _solve(solver, program, dom, call, target)
            else:
                answers = by_result.get(target, ())
                if not (fix or answers):
                    continue
            run, note = _corners(answers, dom, points)
            match = _sets_match(fix, run)
            if fix or run or not match:
                report.records.append(OracleRecord(
                    f"{print_expr(call)} == {print_expr(target)}",
                    fix, run, match, note))
    return report


def _plan(program: Program, dom: QualDomain, k: int, universe: list,
          budget: int) -> tuple:
    """The fixpoint side of compare: (targets, points, calls, partial).

    calls lists, in the order that budget spends its steps, each call
    f(args) as (call, its translated goal (call == T) # W, how many
    targets are asked, the fixpoint's maximal corners by target index);
    only a target with a fact has corners.  The list stops at the call
    the budget cuts, and partial is set then or when bounded_lfp ran
    out.

    One slot per program and domain holds the last plan, keyed on k,
    budget and the universe's terms by identity, which it keeps alive,
    so no id is reused.  A new universe list, even an equal one, is
    planned again: default_universe and parse_expr make fresh terms, so
    only comparisons over one list, such as a sweep's, share a plan.
    """
    slot = program.memo(("oracle plan", dom), dict)
    key = (k, budget, *map(id, universe))
    if slot.get("key") == key:
        return slot["plan"]
    interp = bounded_lfp(program, dom, k, universe, budget=budget)
    targets = [u for u in universe if is_value(u, program.signature)]
    points = [float(u.value) if isinstance(u, Basic) else u for u in targets]
    partial, steps, calls = interp.partial, interp.steps, []
    for fname, args in ((f, args) for f, n in sorted(program.signature.df.items())
                        for args in itertools.product(universe, repeat=n)):
        asked = min(max(budget - steps, 0), len(targets))
        steps += asked
        call = App(fname, args)
        fixes = {}
        for i, target in enumerate(targets[:asked]):
            fix = _antichain([tuple(dom.split(d))
                              for d in interp.max_quals(fname, args, target, dom)])
            if fix:
                fixes[i] = fix
        goal = _goal(program, dom, call, RESULT) if asked else None
        calls.append((call, goal, asked, fixes))
        if asked < len(targets):
            partial = True
            break
    plan = (targets, points, calls, partial)
    slot.update(key=key, terms=tuple(universe), plan=plan)
    return plan


RESULT = Var("T")


def _goal(program: Program, dom: QualDomain, call: App, result: Expr) -> tuple:
    """The translated goal (call == result) # W."""
    goal = Goal((GoalItem(AtomicConstraint("==", (call, result), TRUE), "W", None),))
    return transform_goal(goal, program, dom)


def _solve(solver: Solver, program: Program, dom: QualDomain, call: App,
           result: Expr):
    """The solver's answers to the goal (call == result) # W."""
    return solver.solve(*_goal(program, dom, call, result))


def _flagged(ans) -> bool:
    return "conditional" in ans.flags or "malformed-qual" in ans.flags


def _answers_by_result(solver: Solver, program: Program,
                       goal: tuple) -> Optional[dict]:
    """The answers to goal, the translated (call == T) # W, grouped by
    the value of T.

    A group holds the answers that the goal call == value has, in the
    same order: strict equality demands a constructor value, so fixing
    the result only prunes derivations that end in another one.  None
    when some answer leaves T a variable, with or without an interval,
    or a term that holds one (k(z) --> s(Y), h(z) --> Y <== Y <= 0.5),
    since such an answer stands for several targets at once; or when a
    flagged answer is also incomplete, since the cut that flag names may
    have been made on the way to another value, and a note shows the
    flags of a flagged answer.
    """
    groups = {}
    for ans in solver.solve(*goal):
        value = ans.subst.get(RESULT.name)
        if value is None or not is_value(value, program.signature) \
                or (_flagged(ans) and "incomplete" in ans.flags):
            return None
        groups.setdefault(value, []).append(ans)
    return groups


def _corners(answers, dom: QualDomain, points: list) -> tuple:
    """The maximal qualification corners of one goal's answers, and a note
    on why an answer was left out or is unbounded.  A flagged answer is
    left out unless _witnessed shows that its residuals hold."""
    corners = []
    note = ""
    for ans in answers:
        if _flagged(ans) and not _witnessed(ans, points):
            note = "flagged answer: " + ",".join(ans.flags)
            continue
        corner = []
        for suf in dom.leaf_suffixes():
            iv = ans.qual["W" + suf]
            corner.append(iv.hi)
            if iv.hi == INF:
                note = "unbounded qualification"
        corners.append(tuple(corner))
    return _antichain(corners), note


def _witnessed(ans, points) -> bool:
    """Whether a conditional answer holds as it stands: some assignment
    of points to its residuals' variables satisfies every residual
    evaluated exactly (f --> true <== X <= 0.5 at X = 0.5; X * X < 0 has
    no such point).  A variable with a narrowed interval is tried at the
    literals (floats) of points in it; one without, a data variable such
    as Y in Y /= a, at every point, constructor terms included.  The
    points come from the universe, since the fixpoint draws a rule-local
    variable from it: a witness outside it would show the universe's
    limit, not a fault of either engine.  Past WITNESS_TRIES assignments
    the answer is left out."""
    if "malformed-qual" in ans.flags:
        return False
    names = sorted(vars_of(ans.residual))
    columns = [points if n not in ans.store.ivals else
               [x for x in points if isinstance(x, float)
                and ans.store.ivals[n].contains(x)]
               for n in names]
    if math.prod(map(len, columns)) > WITNESS_TRIES:
        return False
    return any(all(holds_under(c, dict(zip(names, xs))) is True
                   for c in ans.residual)
               for xs in itertools.product(*columns))


def count_qual_sites(program: Program, dom: QualDomain = U) -> int:
    """How many qualification constraints the transformation emits.

    A translated rule keeps one condition per source condition; every
    other condition it has is an emitted site.
    """
    translated = translation(program, dom).translated
    return sum(len(t.conditions) - len(r.conditions)
               for t, r in zip(translated.rules, program.rules))
