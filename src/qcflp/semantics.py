"""Declarative semantics: statements, proof trees, derivability, fixpoints.

A qualified statement asserts that an expression approximates to a term
(or that an atomic constraint holds) with at least a given qualification
value, under a set of primitive hypotheses.  Statements are derived by a
small rewriting logic whose rules are, informally:

* triv: anything whose result is undefined, or whose hypotheses are
  unsatisfiable, holds vacuously;
* refl: a variable or literal rewrites to itself;
* cons: constructor applications rewrite componentwise;
* fun:  a defined-function call rewrites through a rule instance whose
  conditions and right-hand side are themselves derivable, with the
  conclusion qualification bounded by the rule's attenuation factor
  applied to every premise qualification;
* prim/atom: primitive applications and atomic constraints hold when the
  hypotheses entail the evaluated form.

This module provides a structural checker for such proof trees, bounded
derivability (holds), a statement entailment test, and a bounded,
semi-naive immediate-consequence iteration over indexed facts, usable as
an executable oracle on finite universes.  holds derives through the
one derivation engine, the solver of runtime.py: it solves the statement
against the translated program, replays the answer and maps the replayed
tree back to the source program (transform.SourceProof).  The iteration
reduces ground premises with _FactReducer, which looks calls up in the
facts derived so far.  The checker shares no code with either; its
qualification-free variant (statements with no qualification) validates
solver answers against translated programs.
"""

from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .constraints import entails, eval_primitive, holds_under, satisfiable
from .domains import QualDomain, U
from .syntax import (Goal, GoalItem, Program, ParseError, Diagnostic,
                     _unescape, _vars_in_order, format_attenuation,
                     parse_statement_parts, print_expr)
from .terms import (App, AtomicConstraint, Basic, Bottom, BOTTOM, Expr,
                    HashCons, Signature, TRUE, Var, apply_subst,
                    constraint_exprs, constraint_info_leq, deep_recursion,
                    info_leq, is_total, is_value, term_glb, term_lub, vars_of)

CHECK_TOL = 1e-12
# The oracle's steps (bounded_lfp's instances, oracle.compare's goals):
# some 60 times the largest comparison of the tests and the benchmark.
BUDGET = 20000


# ======================================================================
# Statements
# ======================================================================

@dataclass(frozen=True, slots=True)
class QStatement:
    """A (possibly qualified) rewriting statement.

    Productions carry lhs and rhs; atomic statements carry atom.  The
    qualification is None for statements of the plain, qualification-free
    logic.  Hypotheses are a tuple of primitive atomic constraints.
    """

    lhs: Optional[Expr] = None
    rhs: Optional[Expr] = None
    atom: Optional[AtomicConstraint] = None
    qual: object = None
    hypotheses: tuple = ()

    def is_production(self) -> bool:
        return self.atom is None

    def with_qual(self, d) -> "QStatement":
        return QStatement(self.lhs, self.rhs, self.atom, d, self.hypotheses)


def production(lhs: Expr, rhs: Expr, qual=None, hypotheses=()) -> QStatement:
    return QStatement(lhs, rhs, None, qual, tuple(hypotheses))


def atom_statement(c: AtomicConstraint, qual=None, hypotheses=()) -> QStatement:
    return QStatement(None, None, c, qual, tuple(hypotheses))


def triviality(stmt: QStatement, vacuous: Optional[dict] = None) -> str:
    """'yes' / 'no' / 'unknown': is the statement vacuously derivable,
    its result undefined or its hypotheses unsatisfiable?  vacuous, a
    memo that check_proof keeps per call, holds the verdict on each
    tuple of hypotheses decided so far."""
    if stmt.is_production() and stmt.rhs == BOTTOM:
        return "yes"
    pi = stmt.hypotheses
    if not pi:
        return "no"
    vacuous = {} if vacuous is None else vacuous
    t = vacuous.get(pi)
    if t is None:
        status = satisfiable(pi).status
        t = vacuous[pi] = {"unsat": "yes", "sat": "no"}.get(status, "unknown")
    return t


def _called_in_hypotheses(program: Program, stmt: QStatement) -> str:
    """Why stmt is outside the logic, or "": its hypotheses are primitive
    constraints, so they call no defined function of program.  The
    evaluator that decides them would take such a call for data."""
    calls = _defined(program.signature, stmt.hypotheses)
    return f"hypotheses call the defined function {min(calls)!r}" if calls else ""


class StatementError(ValueError):
    """A statement that holds cannot take (see _called_in_hypotheses)."""


# ======================================================================
# Statement entailment
# ======================================================================

def _match_upper(e: Expr, cap: Expr, uppers: dict) -> bool:
    """Constraints so that e instantiated stays below cap."""
    if isinstance(e, Bottom):
        return True
    if isinstance(e, Var):
        uppers.setdefault(e.name, []).append(cap)
        return True
    if isinstance(e, Basic):
        return isinstance(cap, Basic) and cap.value == e.value
    if isinstance(e, App):
        return isinstance(cap, App) and cap.symbol == e.symbol \
            and len(cap.args) == len(e.args) \
            and all(_match_upper(a, b, uppers) for a, b in zip(e.args, cap.args))
    return False


def _match_lower(t: Expr, floor: Expr, lowers: dict) -> bool:
    """Constraints so that t instantiated stays above floor."""
    if isinstance(floor, Bottom):
        return True
    if isinstance(t, Var):
        lowers.setdefault(t.name, []).append(floor)
        return True
    if isinstance(t, Bottom):
        return False
    if isinstance(t, Basic):
        return isinstance(floor, Basic) and floor.value == t.value
    if isinstance(t, App):
        return isinstance(floor, App) and floor.symbol == t.symbol \
            and len(floor.args) == len(t.args) \
            and all(_match_lower(a, b, lowers) for a, b in zip(t.args, floor.args))
    return False


def _prune(upper: Expr, lower: Expr) -> Expr:
    """Keep variables, keep structure the lower bound demands, drop the rest."""
    if isinstance(upper, (Var, Basic)):
        return upper
    if isinstance(lower, Bottom):
        return upper if isinstance(upper, Var) else BOTTOM
    if isinstance(upper, App) and isinstance(lower, App) \
            and upper.symbol == lower.symbol and len(upper.args) == len(lower.args):
        return App(upper.symbol, tuple(_prune(u, l)
                                       for u, l in zip(upper.args, lower.args)))
    return upper


def statement_entails(phi: QStatement, psi: QStatement,
                      dom: QualDomain = U) -> Optional[dict]:
    """A witness substitution under which phi subsumes psi, if one is found.

    The witness instantiates phi's variables so that the instantiated
    left side stays below psi's, the instantiated result stays above
    psi's, the qualification does not increase, and psi's hypotheses
    entail the instantiated hypotheses.  The search is structural and
    incomplete; None simply means no witness was found.
    """
    if phi.is_production() != psi.is_production():
        return None
    if phi.qual is not None:
        if psi.qual is None or not dom.leq(dom.coerce(psi.qual),
                                           dom.coerce(phi.qual), CHECK_TOL):
            return None
    uppers: dict = {}
    lowers: dict = {}
    if phi.is_production():
        if not _match_upper(phi.lhs, psi.lhs, uppers):
            return None
        if not _match_lower(phi.rhs, psi.rhs, lowers):
            return None
    else:
        a, b = phi.atom, psi.atom
        if a.symbol != b.symbol or len(a.args) != len(b.args):
            return None
        for x, y in zip((*a.args, a.result), (*b.args, b.result)):
            if not _match_upper(x, y, uppers):
                return None

    names = set(uppers) | set(lowers) | vars_of((phi.lhs, phi.rhs) if phi.is_production()
                                                else phi.atom)
    sigma_max: dict = {}
    sigma_pruned: dict = {}
    for name in sorted(names):
        cap: Optional[Expr] = None
        for u in uppers.get(name, []):
            cap = u if cap is None else term_glb(cap, u)
        floor: Expr = BOTTOM
        for l in lowers.get(name, []):
            joined = term_lub(floor, l)
            if joined is None:
                return None
            floor = joined
        if cap is None:
            sigma_max[name] = floor if not isinstance(floor, Bottom) else Var(name)
            sigma_pruned[name] = sigma_max[name]
            continue
        if not info_leq(floor, cap):
            return None
        sigma_max[name] = cap
        sigma_pruned[name] = _prune(cap, floor)
    for sigma in (sigma_pruned, sigma_max):
        if _verify_witness(phi, psi, sigma):
            return sigma
    return None


def _verify_witness(phi: QStatement, psi: QStatement, sigma: dict) -> bool:
    if phi.is_production():
        if not info_leq(apply_subst(phi.lhs, sigma), psi.lhs):
            return False
        if not info_leq(psi.rhs, apply_subst(phi.rhs, sigma)):
            return False
    else:
        if not constraint_info_leq(apply_subst(phi.atom, sigma), psi.atom):
            return False
    for c in phi.hypotheses:
        inst = apply_subst(c, sigma)
        if entails(psi.hypotheses, inst).status != "entailed":
            return False
    return True


# ======================================================================
# Proof trees and the checker
# ======================================================================

@dataclass(frozen=True)
class ProofTree:
    tag: str
    conclusion: QStatement
    children: tuple = ()
    rule_index: Optional[int] = None
    theta: tuple = ()            # sorted (name, Expr) pairs for fun nodes

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


def distinct_parts(trees) -> tuple:
    """(distinct ProofTree objects, distinct App objects in their
    statements and substitutions) reachable from trees.

    size() counts occurrences, so a subproof that several parents share
    counts once per parent; these are the objects the trees are made of,
    and serialize_proof writes one node line per ProofTree counted here.
    """
    seen_trees, seen_apps = set(), set()
    todo, terms = list(trees), []
    while todo:
        t = todo.pop()
        if id(t) in seen_trees:
            continue
        seen_trees.add(id(t))
        todo.extend(t.children)
        s = t.conclusion
        terms += [s.lhs, s.rhs] if s.atom is None else \
            [*s.atom.args, s.atom.result]
        terms += [v for _, v in t.theta]
    while terms:
        e = terms.pop()
        if isinstance(e, App) and id(e) not in seen_apps:
            seen_apps.add(id(e))
            terms.extend(e.args)
    return len(seen_trees), len(seen_apps)


@dataclass(frozen=True)
class CheckResult:
    status: str                  # "valid" | "invalid" | "unknown"
    reason: str = ""


def instantiate_rule(rule, theta: dict, closed: dict = None):
    """The rule instance under a substitution (may introduce bottoms).

    closed, a memo that the checker keeps per program, flags by id(rule)
    the parts of rule that have no variables, which are kept as they are.
    """
    parts = (*rule.patterns, rule.rhs, *rule.conditions)
    flags = [False] * len(parts) if closed is None else closed.get(id(rule))
    if flags is None:
        flags = closed[id(rule)] = [not vars_of(p) for p in parts]
    out = [p if c else apply_subst(p, theta) for p, c in zip(parts, flags)]
    n = len(rule.patterns)
    return tuple(out[:n]), rule.attenuation, out[n], tuple(out[n + 1:])


def check_proof(program: Program, dom: Optional[QualDomain],
                tree: ProofTree) -> CheckResult:
    """Validate a proof tree node by node against the program.

    dom None selects the qualification-free variant: statements carry no
    qualification and attenuation bounds are not checked.  A subtree
    found valid is checked once per program and domain while it lives
    (see _CheckState), so checking the trees of several answers costs
    their distinct subproofs, not their occurrences.  A tree nested too
    deeply for the recursion limit raises RecursionError, as every other
    layer does; any other failure on a malformed node makes it invalid.
    """
    outside = _called_in_hypotheses(program, tree.conclusion)
    if outside:  # every premise carries the root's hypotheses
        return CheckResult("invalid", f"root: {outside}")
    chk = _CheckState(program, dom)
    if chk.valid.get(id(tree)) is tree:
        return CheckResult("valid")
    try:
        with deep_recursion():
            r = _check_node(chk, tree, "root")
    except RecursionError:  # too deep to check is not invalid
        raise
    except Exception as exc:  # malformed nodes surface as invalid
        return CheckResult("invalid", f"malformed tree: {exc}")
    if r.status == "valid":
        chk.valid[id(tree)] = tree
    return r


class _CheckState:
    """What check_proof has decided for one program and domain.

    A node's verdict depends only on the program, the domain and the
    subtree, since each parent compares its premises' conclusions itself
    and trees, statements and terms are frozen.  So every subtree found
    valid is kept, by id, in a table that the program keeps per domain
    (Program.memo), and is not checked again while it lives: a hit needs
    the very object, and the table holds its subtrees weakly, so what it
    keeps follows the live trees.  An invalid verdict ends the check, and
    an unknown one is never kept and is recomputed under its own path,
    so reasons do not depend on the sharing.  Every premise carries its
    parent's hypotheses, whose vacuity is decided once per distinct tuple
    and call.  Which parts of a rule have no variables, and so need no
    substitution in a fun node's instance, is found once per program.
    """

    def __init__(self, program: Program, dom: Optional[QualDomain]):
        self.program = program
        self.dom = dom
        self.valid = program.memo(("checked", dom), weakref.WeakValueDictionary)
        self.closed = program.memo("closed parts", dict)  # see instantiate_rule
        self.vacuous: dict = {}  # see triviality


def _check_node(chk: _CheckState, tree: ProofTree, path: str) -> CheckResult:
    dom = chk.dom
    stmt = tree.conclusion
    if dom is not None:
        if stmt.qual is None:
            return CheckResult("invalid", f"{path}: missing qualification")
        if not dom.is_strict(dom.coerce(stmt.qual)):
            return CheckResult("invalid", f"{path}: qualification must be above bottom")
    elif stmt.qual is not None:
        return CheckResult("invalid", f"{path}: unexpected qualification")

    if tree.tag == "triv":
        if tree.children:
            return CheckResult("invalid", f"{path}: trivial nodes have no premises")
        t = triviality(stmt, chk.vacuous)
        if t == "yes":
            return CheckResult("valid")
        if t == "no":
            return CheckResult("invalid", f"{path}: statement is not trivial")
        return CheckResult("unknown", f"{path}: hypotheses satisfiability unknown")

    # the trivial rule is mandatory for trivial statements
    if triviality(stmt, chk.vacuous) == "yes":
        return CheckResult("invalid", f"{path}: trivial statement proved by {tree.tag}")

    wants = _wants(chk, tree)
    if isinstance(wants, str):
        return CheckResult("invalid", f"{path}: {wants}")
    premises, side = wants
    if len(tree.children) != len(premises):
        return CheckResult("invalid", f"{path}: premise count mismatch")
    pi = stmt.hypotheses
    d = None if dom is None else dom.coerce(stmt.qual)
    for i, (child, (lhs, rhs, atom, factor, what)) in enumerate(zip(tree.children,
                                                                   premises)):
        c = child.conclusion
        if c.lhs != lhs or (rhs is not None and c.rhs != rhs) or c.atom != atom \
                or c.hypotheses != pi:
            bad = f"{what} mismatch"
        elif d is None:
            continue
        else:
            e = dom.coerce(c.qual)
            if factor is not None:
                e = dom.attenuate(dom.coerce(factor), e)
            if dom.leq(d, e, CHECK_TOL):
                continue
            bad = "qualification bound violated" if factor is None \
                else "attenuation bound violated"
        if tree.tag == "cons":  # checks the premises before the malformed one first
            r = _premises(chk, tree.children[:i], path)
            if r is not None and r.status == "invalid":
                return r
        return CheckResult("invalid", f"{path}.{i}: {bad}")
    r = _premises(chk, tree.children, path)
    if side is not None and (r is None or r.status != "invalid"):
        reduced = tuple(child.conclusion.rhs for child in tree.children)
        status = entails(pi, AtomicConstraint(side[0], reduced, side[1])).status
        if status == "not_entailed":
            return CheckResult("invalid", f"{path}: hypotheses do not entail the evaluation")
        if status == "unknown":
            return CheckResult("unknown", f"{path}: entailment undecided")
    return r or CheckResult("valid")


def _wants(chk: _CheckState, tree: ProofTree):
    """(premises, side) for a node of the rule refl, cons, fun, prim or
    atom, or why its conclusion has the wrong shape for it.

    A premise is (lhs, rhs, atom, factor, what): the conclusion it must
    have under the node's hypotheses, rhs None leaving its result free;
    the rule's attenuation, which scales its qualification, or None; and
    its name in a mismatch's reason.  side is (symbol, result) for a prim
    or atom node, whose hypotheses must entail the symbol applied to the
    premises' results, else None.
    """
    program, stmt, tag = chk.program, tree.conclusion, tree.tag
    lhs, sig = stmt.lhs, program.signature
    if tag == "refl":
        if not stmt.is_production() or lhs != stmt.rhs \
                or not isinstance(lhs, (Var, Basic)):
            return "not a reflexivity statement"
        return "reflexivity has no premises" if tree.children else ((), None)
    if tag == "cons":
        if not stmt.is_production() or not isinstance(lhs, App) \
                or not isinstance(stmt.rhs, App) \
                or lhs.symbol != stmt.rhs.symbol \
                or len(lhs.args) != len(stmt.rhs.args) \
                or not sig.is_data(lhs.symbol):
            return "not a constructor decomposition"
        return [(e, t, None, None, "premise shape")
                for e, t in zip(lhs.args, stmt.rhs.args)], None
    if tag == "fun":
        if not stmt.is_production() or not isinstance(lhs, App) \
                or sig.kind(lhs.symbol) != "df":
            return "not a defined-function statement"
        if tree.rule_index is None or not (0 <= tree.rule_index < len(program.rules)):
            return "bad rule index"
        rule = program.rules[tree.rule_index]
        if rule.name != lhs.symbol:
            return f"rule is for {rule.name!r}"
        if len(lhs.args) != len(rule.patterns):
            return "call arity mismatch"
        pats, alpha, rhs, conds = instantiate_rule(rule, dict(tree.theta), chk.closed)
        return [(e, p, None, None, "argument premise") for e, p in zip(lhs.args, pats)] \
            + [(rhs, stmt.rhs, None, alpha, "right-hand side premise")] \
            + [(None, None, c, alpha, "condition premise") for c in conds], None
    if tag == "prim":
        if not stmt.is_production() or not isinstance(lhs, App) \
                or sig.kind(lhs.symbol) != "pf":
            return "not a primitive statement"
        if not (isinstance(stmt.rhs, (Var, Basic))
                or (isinstance(stmt.rhs, App) and not stmt.rhs.args)):
            return "result must be flat"
        args, side = lhs.args, (lhs.symbol, stmt.rhs)
    elif tag == "atom":
        if stmt.is_production():
            return "expected an atomic statement"
        args, side = stmt.atom.args, (stmt.atom.symbol, stmt.atom.result)
    else:
        return f"unknown tag {tag!r}"
    return [(e, None, None, None, "argument premise") for e in args], side


def _premises(chk: _CheckState, children, path: str) -> Optional[CheckResult]:
    """Check premises in order: the first invalid verdict, else the last
    unknown one, else None.  Premises found valid before are skipped."""
    unknown, valid = None, chk.valid
    for i, child in enumerate(children):
        if valid.get(id(child)) is child:
            continue
        r = _check_node(chk, child, f"{path}.{i}")
        if r.status == "invalid":
            return r
        if r.status == "unknown":
            unknown = r
        else:
            valid[id(child)] = child
    return unknown


# ======================================================================
# Derivability through the solver
# ======================================================================

@dataclass(frozen=True)
class HoldsResult:
    status: str                  # "derivable" | "not_found" | "unknown"
    tree: Optional[ProofTree] = None


def weaken_tree(tree: ProofTree, rhs: Optional[Expr], d, dom: QualDomain) -> Optional[ProofTree]:
    """Rebuild a production proof to conclude a smaller result or qualification."""
    stmt = tree.conclusion
    if stmt.is_production():
        target = stmt.rhs if rhs is None else rhs
        if isinstance(target, Bottom):
            return ProofTree("triv", production(stmt.lhs, BOTTOM, d, stmt.hypotheses))
        if tree.tag == "refl":
            if target != stmt.lhs:
                return None
            return ProofTree("refl", production(stmt.lhs, target, d, stmt.hypotheses))
        if tree.tag == "cons":
            if not (isinstance(target, App) and target.symbol == stmt.rhs.symbol
                    and len(target.args) == len(stmt.rhs.args)):
                return None
            kids = []
            for child, t2 in zip(tree.children, target.args):
                k = weaken_tree(child, t2, child.conclusion.qual, dom)
                if k is None:
                    return None
                kids.append(k)
            return ProofTree("cons", production(stmt.lhs, target, d, stmt.hypotheses),
                             tuple(kids))
        if tree.tag == "fun":
            n = len(stmt.lhs.args)
            rhs_child = weaken_tree(tree.children[n], target,
                                    tree.children[n].conclusion.qual, dom)
            if rhs_child is None:
                return None
            kids = tree.children[:n] + (rhs_child,) + tree.children[n + 1:]
            return ProofTree("fun", production(stmt.lhs, target, d, stmt.hypotheses),
                             kids, tree.rule_index, tree.theta)
        if tree.tag == "prim":
            if target != stmt.rhs:
                return None
            return ProofTree("prim", production(stmt.lhs, target, d, stmt.hypotheses),
                             tree.children)
        return None
    # atomic statements only weaken in qualification
    return ProofTree(tree.tag, stmt.with_qual(d), tree.children,
                     tree.rule_index, tree.theta)


@deep_recursion()
def holds(program: Program, dom: QualDomain, stmt: QStatement,
          depth: int = 8) -> HoldsResult:
    """Bounded derivability of a qualified statement, through the solver.

    A production (lhs -> rhs) # d is solved as the goal (R == lhs) # W,
    and an atomic statement c # d as c # W, with each component of W at
    least that of d less CHECK_TOL, against the translated program at the
    given depth; the translation is made once per program and domain
    (transform.translation).  Statement variables are rigid: an answer may bind each
    only to a variable of the search of its own, renamed back to it.  An
    answer whose residuals the hypotheses entail and whose result is
    above rhs is replayed, mapped back to the source program
    (transform.SourceProof) and weakened to the statement.  A bottom in
    the statement is a rigid variable that the mapping turns back into
    bottom.  With no such answer, the status is unknown when the search
    was cut, a residual undecided, or an answer dropped on a residual or
    result with a variable of the search (some value of it may do), and
    not_found otherwise.  A statement whose hypotheses call a defined
    function raises StatementError.
    """
    from .runtime import Limits, Solver, _Replay
    from .transform import FreshSupply, SourceProof, transform_goal, translation

    outside = _called_in_hypotheses(program, stmt)
    if outside:
        raise StatementError(outside)
    if triviality(stmt) == "yes":
        return HoldsResult("derivable", ProofTree("triv", stmt))
    tr = translation(program, dom)
    stated = vars_of((stmt.lhs, stmt.rhs, stmt.atom, stmt.hypotheses))
    supply = FreshSupply(stated | tr.avoid)
    bottoms: dict = {}

    def rigid(e: Expr) -> Expr:
        if isinstance(e, Bottom):
            e = Var(supply.fresh())
            bottoms[e.name] = BOTTOM
        elif isinstance(e, App) and e.args:
            e = App(e.symbol, tuple(map(rigid, e.args)))
        return e

    if stmt.is_production():
        target = AtomicConstraint("==", (Var(supply.fresh()), rigid(stmt.lhs)), TRUE)
    else:
        c = stmt.atom
        target = AtomicConstraint(c.symbol, tuple(map(rigid, c.args)), c.result)
    fixed = vars_of(target.args[1] if stmt.is_production() else target)
    d = dom.coerce(stmt.qual)
    floor = dom.join([max(0.0, x - CHECK_TOL) for x in dom.split(d)])
    goal = Goal((GoalItem(target, supply.fresh(), floor),))
    constraints, wvars, datavars = transform_goal(goal, program, dom)
    solver = Solver(tr.translated, dom, Limits(depth))
    undecided = False
    for ans in solver.solve(constraints, wvars, datavars):
        bound = {v: ans.subst[v] for v in fixed & ans.subst.keys()}
        names = {t.name: Var(v) for v, t in bound.items()
                 if type(t) is Var and t.name.startswith("~")}
        if len(names) < len(bound):  # bound otherwise, or two to one
            continue
        residual = apply_subst(ans.residual, names)
        verdicts = {entails(stmt.hypotheses, r).status for r in residual}
        if verdicts - {"entailed"}:
            undecided = undecided or "unknown" in verdicts \
                or any(n.startswith("~") for n in vars_of(residual))
            continue
        names = {**{k: bottoms.get(v.name, v) for k, v in names.items()}, **bottoms}
        back = SourceProof(tr, dom, stmt.hypotheses, names, supply)
        tree = _Replay(solver, ans.store).atom_tree(constraints[-1])
        tree = back.tree(tree.children[1] if stmt.is_production() else tree)
        out = weaken_tree(tree, stmt.rhs, stmt.qual, dom)
        if out is not None:
            return HoldsResult("derivable", out)
        undecided = undecided or not vars_of(tree.conclusion.rhs) <= stated
    return HoldsResult("unknown" if undecided or solver.cut else "not_found")


# ======================================================================
# Bounded immediate-consequence iteration
# ======================================================================

@dataclass
class Interpretation:
    """Finitely many non-trivial facts; closure is implicit at query time.

    Fact arguments and results are ground total terms.  A total term is
    below another in the information order only when the two are equal,
    so calls are looked up by key: results indexes the facts by call,
    (symbol, args) -> result terms, and add keeps it in step.
    """

    facts: dict = field(default_factory=dict)   # (f,args,result) -> [quals]
    partial: bool = False
    steps: int = 0      # the instances bounded_lfp evaluated
    results: dict = field(default_factory=dict, init=False, repr=False)

    def add(self, key, d, dom: QualDomain) -> bool:
        row = self.facts.get(key)
        if row is None:
            row = self.facts[key] = []
            self.results.setdefault(key[:2], []).append(key[2])
        for existing in row:
            if dom.leq(d, existing, CHECK_TOL):
                return False
        row[:] = [x for x in row if not dom.leq(x, d, CHECK_TOL)]
        row.append(d)
        return True

    def __eq__(self, other):
        return isinstance(other, Interpretation) and self.facts == other.facts

    def max_quals(self, fname: str, args: tuple, result: Expr,
                  dom: QualDomain) -> list:
        """Maximal qualifications for a fact, using entailment closure."""
        if is_total(result) and all(is_total(a) for a in args):
            rows = [self.facts.get((fname, args, result), ())]
        else:  # a partial query sits below every fact that refines it
            rows = [quals for (f, a, t), quals in self.facts.items()
                    if f == fname and len(a) == len(args)
                    and all(info_leq(x, y) for x, y in zip(args, a))
                    and info_leq(result, t)]
        out: list = []
        for quals in rows:
            for d in quals:
                if not any(dom.leq(d, o, CHECK_TOL) for o in out):
                    out = [o for o in out if not dom.leq(o, d, CHECK_TOL)]
                    out.append(d)
        return out


class _FactReducer:
    """Derivability of ground premises from an interpretation's facts.

    reduce gives the (result term, qualification) pairs of an expression
    under the rules triv, refl, cons and prim, with a call looked up in
    the indexed facts; atom_quals gives the qualifications of an atomic
    statement whose ground evaluated form is true.  A leaf returns its
    one pair directly and an application returns a generator, so no node
    pays for a generator it does not need.
    """

    def __init__(self, interp: Interpretation, program: Program, dom: QualDomain):
        self.interp = interp
        self.sig = program.signature
        self.dom = dom

    def reduce(self, e: Expr) -> Iterable[tuple]:
        if isinstance(e, Bottom):
            return ((BOTTOM, self.dom.top()),)
        if isinstance(e, (Var, Basic)):
            return ((e, self.dom.top()),)
        kind = self.sig.kind(e.symbol)
        if kind == "df":
            return self._call(e)
        return self._apply(e, kind == "pf")

    def _apply(self, e: App, primitive: bool) -> Iterator[tuple]:
        """The cons rule, or the prim rule when primitive."""
        for parts in self._seq(e.args):
            terms = tuple(p[0] for p in parts)
            d = self.dom.glb_all([p[1] for p in parts])
            if not primitive:
                yield App(e.symbol, terms), d
                continue
            try:
                v = eval_primitive(e.symbol, terms)
            except Exception:
                continue
            if v != BOTTOM:
                yield v, d

    def _call(self, e: App) -> Iterator[tuple]:
        dom = self.dom
        facts, results = self.interp.facts, self.interp.results
        for parts in self._seq(e.args):
            args = tuple(p[0] for p in parts)
            ts = results.get((e.symbol, args))
            if ts:
                d_args = dom.glb_all([p[1] for p in parts])
                for t in ts:
                    for d0 in facts[(e.symbol, args, t)]:
                        yield t, dom.glb(d0, d_args)

    def atom_quals(self, c: AtomicConstraint) -> Iterator:
        for parts in self._seq(c.args):
            form = AtomicConstraint(c.symbol, tuple(p[0] for p in parts), c.result)
            if holds_under(form, {}) is True:
                yield self.dom.glb_all([p[1] for p in parts])

    def _seq(self, items: tuple, i: int = 0) -> Iterator[list]:
        """Yield a list of reduce results, one per item, for each combination."""
        if i == len(items):
            yield []
            return
        for first in self.reduce(items[i]):
            for rest in self._seq(items, i + 1):
                yield [first, *rest]


class _RulePlan:
    """How bounded_lfp grounds one rule: steps that bind its variables
    and evaluate its conditions, in an order fixed once.

    ("check", j) evaluates condition j as soon as its variables are
    bound; an instance whose condition has no qualification stops there.
    ("bind", v, side) serves a condition v == side (or side == v) whose
    side has only bound variables: v takes the universe terms among the
    results of reducing side, and every universe term that is not a
    constructor term.  A constructor term outside those results cannot
    satisfy the equation, which holds only on equal totals.
    ("enum", v) lets v range over the whole universe.  Variables are
    taken in order of first occurrence in the conditions, so a chain of
    equations threads each value through to the next.

    calls holds the defined symbols whose facts the rule's instances
    read: those written in its right-hand side and conditions, and, for
    a rule with variables, those in universe_calls, the defined symbols
    of the universe terms a variable may take.
    """

    def __init__(self, rule, sig, universe_calls: set):
        self.rule = rule
        self.calls = _defined(sig, (rule.rhs, *rule.conditions))
        conds = rule.conditions
        cvars = [vars_of(c) for c in conds]
        order = [v for c in conds for x in constraint_exprs(c)
                 for v in _vars_in_order(x)]
        order += sorted(vars_of(rule.patterns) | vars_of(rule.rhs))
        if order:
            self.calls |= universe_calls
        bound, pending, self.steps = set(), list(range(len(conds))), []
        while True:
            for j in [j for j in pending if cvars[j] <= bound]:
                self.steps.append(("check", j))
                pending.remove(j)
            bind = next(((j, b) for j in pending
                         for b in [_bindable(conds[j], bound)] if b), None)
            if bind is not None:
                j, (v, side) = bind
                self.steps.append(("bind", v, side))
            else:
                v = next((v for v in order if v not in bound), None)
                if v is None:
                    return
                self.steps.append(("enum", v))
            bound.add(v)

    def instances(self, red: _FactReducer, universe: list, constructor: set):
        """Yield (theta, qualifications of each condition) per ground
        instance whose conditions all hold, and None per instance, or
        partial instance, ruled out by a condition."""
        conds, steps = self.rule.conditions, self.steps
        theta, cond_sets = {}, [None] * len(conds)

        def run(i):
            if i == len(steps):
                yield dict(theta), list(cond_sets)
                return
            step = steps[i]
            if step[0] == "check":
                ds = list(red.atom_quals(apply_subst(conds[step[1]], theta)))
                if not ds:
                    yield None
                    return
                cond_sets[step[1]] = ds
                yield from run(i + 1)
                return
            values = universe
            if step[0] == "bind":
                results = {t for t, _ in red.reduce(apply_subst(step[2], theta))}
                values = [u for u in universe
                          if u in results or u not in constructor]
                if not values:
                    yield None
                    return
            for u in values:
                theta[step[1]] = u
                yield from run(i + 1)
            theta.pop(step[1], None)

        return run(0)


def _bindable(c: AtomicConstraint, bound: set):
    """(v, side) when c is v == side or side == v with v unbound and
    every variable of side bound, else None."""
    if c.symbol != "==" or c.result != TRUE:
        return None
    for v, side in ((c.args[1], c.args[0]), (c.args[0], c.args[1])):
        if isinstance(v, Var) and v.name not in bound \
                and vars_of(side) <= bound:
            return v.name, side
    return None


def _defined(sig, exprs) -> set:
    """The defined symbols occurring in exprs."""
    out = set()
    todo = list(exprs)
    while todo:
        e = todo.pop()
        if isinstance(e, AtomicConstraint):
            todo += [*e.args, e.result]
        elif isinstance(e, App):
            if sig.kind(e.symbol) == "df":
                out.add(e.symbol)
            todo += e.args
    return out


def bounded_lfp(program: Program, dom: QualDomain, k: int, universe: list,
                budget: int = BUDGET) -> Interpretation:
    """Iterate the immediate-consequence step k times over a finite family.

    Round i computes interp_i = interp_{i-1} join T(interp_{i-1}), where T
    fires the rule instances whose variables take values in universe, a
    finite list of ground terms, so every instance is ground.  The
    iteration is semi-naive: from round 2 on, a rule fires only when a
    defined symbol it calls gained or improved a fact in the round
    before, since otherwise it derives what it derived then.  A variable
    bound to a universe term that is a call reads that call's facts, so
    a rule with variables also counts the defined symbols of the
    universe as called.  Condition variables are bound by joining with
    the indexed facts (_RulePlan), which skips only instances whose
    conditions cannot all hold.

    budget caps the rule instances evaluated: each ground instance, and
    each partial instance that a condition rules out, is one step that
    interp.steps counts.  A blown budget sets the partial flag.
    """
    interp = Interpretation()
    sig = program.signature
    constructor = {u for u in universe if is_value(u, sig)}
    universe_calls = _defined(sig, [u for u in universe if u not in constructor])
    plans = [_RulePlan(rule, sig, universe_calls) for rule in program.rules]
    changed = None              # symbols improved by the last round
    for _ in range(k):
        red = _FactReducer(interp, program, dom)
        derived = []            # (fact key, qualification), in order
        for plan in plans:
            if changed is not None and not plan.calls & changed:
                continue
            rule = plan.rule
            alpha = dom.coerce(rule.attenuation)
            for inst in plan.instances(red, universe, constructor):
                if interp.steps >= budget:
                    _extend(interp, derived, dom)
                    interp.partial = True
                    return interp
                interp.steps += 1
                if inst is None:
                    continue
                theta, cond_sets = inst
                head_args = tuple(apply_subst(p, theta) for p in rule.patterns)
                for t, d0 in red.reduce(apply_subst(rule.rhs, theta)):
                    if isinstance(t, Bottom):
                        continue
                    for cond_combo in itertools.product(*cond_sets):
                        d = dom.attenuate(alpha, dom.glb_all((d0, *cond_combo)))
                        if dom.is_strict(d):
                            derived.append(((rule.name, head_args, t), d))
        changed = _extend(interp, derived, dom)
        if not changed:
            break
    return interp


def _extend(interp: Interpretation, derived: list, dom: QualDomain) -> set:
    """Add the derived facts; the symbols whose facts grew or improved."""
    return {key[0] for key, d in derived if interp.add(key, d, dom)}


# ======================================================================
# Statement and certificate input/output
# ======================================================================

def parse_statement(text: str, sig: Optional[Signature] = None) -> QStatement:
    """The statement text reads; with a program's signature, its symbols
    must have their arities in it."""
    body, qual, hyps = parse_statement_parts(text, sig)
    if isinstance(body, tuple):
        return production(body[0], body[1], qual, hyps)
    return atom_statement(body, qual, hyps)


def serialize_proof(tree: ProofTree, domain_name: str, dom: Optional[QualDomain]) -> str:
    """qcflp-proof v2: a header, a line per distinct term (a leaf's token
    text, or a symbol and argument ids) after its arguments' lines, then a
    line per distinct ProofTree after its premises', naming terms by id.
    Both walks keep their own stacks, so a deep tree needs no recursion."""
    names: dict = {}             # id(term) -> its term id
    seen: dict = {}              # a term line's text after the id -> that id
    ids, nodes = {}, []          # id(node) -> its node id; node lines

    def name(e: Expr) -> str:
        todo = [e]
        while todo:
            t = todo.pop()
            if id(t) in names:
                continue
            args = t.args if type(t) is App else ()
            pending = [a for a in args if id(a) not in names]
            if pending:
                todo += [t, *reversed(pending)]
                continue
            text = f"{t.symbol}\t{','.join([names[id(a)] for a in args])}" if args \
                else print_expr(t)
            names[id(t)] = seen.setdefault(text, f"t{len(seen)}")
        return names[id(e)]

    def atom(c: AtomicConstraint) -> str:
        return " ".join([c.symbol, *map(name, c.args), name(c.result)])

    todo = [tree]
    while todo:
        t = todo.pop()
        if id(t) in ids:
            continue
        pending = [c for c in t.children if id(c) not in ids]
        if pending:
            todo += [t, *reversed(pending)]
            continue
        ids[id(t)] = len(nodes)
        s = t.conclusion
        text = f"{name(s.lhs)} -> {name(s.rhs)}" if s.atom is None else atom(s.atom)
        if s.qual is not None:
            text += " # " + (dom.format(dom.coerce(s.qual)) if dom
                             else format_attenuation(s.qual))
        if s.hypotheses:
            text += " <== " + ", ".join(map(atom, s.hypotheses))
        theta = "{" + "; ".join(f"{k} -> {name(v)}" for k, v in t.theta) + "}" \
            if t.theta else "-"
        rule = "-" if t.rule_index is None else str(t.rule_index)
        kids = ",".join(str(ids[id(c)]) for c in t.children) or "-"
        nodes.append(f"{len(nodes)}\t{t.tag}\t{rule}\t{theta}\t{kids}\t{text}")
    return "\n".join(["qcflp-proof v2", f"domain {domain_name}", f"nodes {len(nodes)}",
                      f"root {ids[id(tree)]}", *(f"{tid}\t{text}" for text, tid in seen.items()),
                      *nodes]) + "\n"


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def parse_proof(text: str) -> tuple:
    """Returns (domain name, ProofTree) of a qcflp-proof v2 certificate.

    The reader only splits lines and fields.  Each term line becomes one
    term of a terms.HashCons table, and each node line one ProofTree over
    the earlier lines it names: the tree shares what the certificate
    shares, and cannot be a cycle.  A leaf is a char ('...'), _|_, a
    number, a variable (from an upper-case letter, _ or ~) or a constant.
    Lines end at "\n" only: a char may be any other line break.
    """
    lines = [(no, ln) for no, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    head = [ln.split() for _, ln in lines[:4]]
    no, share, terms, built = 1, HashCons(), {}, {}

    def fail(message: str):
        raise ParseError([Diagnostic(no, 1, message)])

    def number(what: str, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            fail(f"{what} {text.strip()!r} is not an integer")

    def term(tid: str) -> Expr:
        e = terms.get(tid)
        if e is None:
            fail(f"term {tid!r} names no earlier term")
        return e

    def atom(text: str) -> AtomicConstraint:
        symbol, *args, result = text.split(" ") if " " in text else ("", "")
        if not symbol:
            fail(f"atom {text!r} is not a symbol and term ids")
        return AtomicConstraint(symbol, tuple(map(term, args)), term(result))

    if not head or head[0] != ["qcflp-proof", "v2"]:
        fail("a qcflp-proof v1 certificate: prove the statement again to write v2"
             if head and head[0] == ["qcflp-proof", "v1"] else "not a proof certificate")
    header = []
    for i, key in enumerate(("domain", "nodes", "root"), 1):
        no = lines[min(i, len(lines) - 1)][0]
        if i == len(lines):
            fail(f"certificate ends before its '{key}' line")
        if len(head[i]) != 2 or head[i][0] != key:
            fail(f"expected '{key} <value>', found {lines[i][1].strip()!r}")
        header.append((no, head[i][1] if i == 1 else number(key, head[i][1])))
    (_, domain_name), (count_no, count), (root_no, root) = header
    for no, ln in lines[4:]:
        fields = ln.split("\t")
        if ln[0] == "t":  # a term line
            tid, *rest = fields
            if tid in terms:
                fail(f"term {tid!r} is defined twice")
            if len(rest) == 2 and rest[0]:
                terms[tid] = share.app(rest[0], tuple(map(term, rest[1].split(","))))
                continue
            leaf = rest[0] if len(rest) == 1 else ""
            c = leaf[:1]
            if c == "'":
                ok, e = len(leaf) > 2 and leaf[-1] == "'", App(f"'{_unescape(leaf[1:-1])}'")
            elif c.isdigit() or c == "-":
                ok = _NUMBER.fullmatch(leaf)
                e = ok and Basic(float(leaf))
            else:
                ok = leaf and " " not in leaf
                e = BOTTOM if leaf == "_|_" else Var(leaf) \
                    if c.isupper() or c in "_~" else App(leaf)
            if not ok:
                fail(f"bad leaf {leaf!r}" if len(rest) == 1 else "a term line is an id "
                     "and a leaf, or an id, a symbol and argument ids")
            terms[tid] = share.leaf(e)
            continue
        if len(fields) != 6:
            fail(f"a node line has 6 tab-separated fields, not {len(fields)}")
        idx_s, tag, rule_s, theta_s, kids_s, concl_s = fields
        idx = number("node id", idx_s)
        if idx in built:
            fail(f"node {idx} is defined twice")
        kids = []
        for k in ([] if kids_s == "-" else kids_s.split(",")):
            kid = built.get(number("premise", k))
            if kid is None:
                fail(f"premise {k.strip()} names no earlier node")
            kids.append(kid)
        rule = None if rule_s == "-" else number("rule index", rule_s)
        binds = [b.partition(" -> ") for b in theta_s[1:-1].split("; ")]
        if theta_s != "-" and not (theta_s[:1] == "{" and theta_s[-1:] == "}"
                                   and all(k and arrow for k, arrow, _ in binds)):
            fail(f"substitution {theta_s!r} is not '-' or '{{...}}'")
        theta = () if theta_s == "-" else tuple([(k, term(v)) for k, _, v in binds])
        rest, _, hyps = concl_s.partition(" <== ")
        body, hashed, qual = rest.partition(" # ")
        pair = qual[:1] == "(" and qual[-1:] == ")"
        parts = qual[1:-1].split(",") if pair else [qual]
        if hashed and (len(parts) != 1 + pair or not all(map(_NUMBER.fullmatch, parts))):
            fail(f"bad qualification {qual!r}")
        qual = None if not hashed or domain_name == "-" else \
            tuple(map(float, parts)) if pair else float(qual)
        hyps = tuple(map(atom, hyps.split(", "))) if hyps else ()
        words = body.split(" ")
        stmt = production(term(words[0]), term(words[2]), qual, hyps) \
            if len(words) == 3 and words[1] == "->" else \
            atom_statement(atom(body), qual, hyps)
        built[idx] = ProofTree(tag, stmt, tuple(kids), rule, theta)
    for no, bad, message in (
            (count_no, count != len(built), f"nodes {count}, but {len(built)} node lines follow"),
            (root_no, root not in built, f"root {root} names no node")):
        if bad:
            fail(message)
    return domain_name, built[root]
