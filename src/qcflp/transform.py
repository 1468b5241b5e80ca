"""Translation into qualification-free constrained programs.

Every defined function f of arity n becomes a function f' of arity n+m
whose m extra arguments thread a qualification variable W, one argument
per leaf (see below): at most the qualification the call is derived
with.  Rules bound W by their attenuation; goals add the user threshold
as a lower bound.

A premise is a call in a rule's right-hand side or conditions (at the
rule's factor alpha), a call at the top of a goal item (at the top
factor) or a call nested in another call (at the top factor).  Each
component of a premise at factor 1 shares its parent's leaf: the goal
item's W, the rule's own leaf, or the leaf of the call it is nested
in.  Only a component at a factor k < 1 gets a fresh leaf V, declared
and bounded at the call site: qVal(V) and leaf <= k*V.  So a goal's calls all take
its W, as in qVal(W), W >= 0.65, search'(..., W) == R.

A rule's head declares, with qVal, only the leaves it bounds: the
components where alpha < 1.  A leaf that a rule only passes on is
declared by its caller.  A rule with no call bounds W by alpha itself,
W <= alpha.  No bound that qVal implies (a factor of 1) is emitted.  So
every qVal a rule emits is named by a later bound of the rule, and a
mutation that drops it leaves that bound on an undeclared qualification
variable, which the solver flags as malformed-qual.

Qualification bounds are lowered to real arithmetic at emission time.
For the certainty lattice a bound "x at most alpha times y" becomes the
constraint x <= alpha*y.  Product lattices are lowered by variable
splitting: a qualification variable W stands for component variables
W.1 and W.2, its leaves, each threaded through calls as an argument of
its own, with every bound emitted componentwise.  The certainty lattice
has one leaf, W itself, so m is 1 there.

The translation is undone on derivations: SourceProof maps a tree that
runtime replays for the translated program back to a derivation in the
source program, qualified by the replayed values of the leaf
arguments, which check_proof then validates against the source.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .domains import QualDomain, U
from .semantics import ProofTree, atom_statement, production
from .syntax import Goal, Program, ProgramRule
from .terms import (App, AtomicConstraint, Basic, Bottom, BOTTOM, Expr,
                    HashCons, Signature, TRUE, Var, post_order, vars_of)


class TransformError(ValueError):
    pass


class FreshSupply:
    """Deterministic stream of qualification variable names _W0, _W1, ...

    Names in avoid (those the source uses) are skipped, which keeps the
    introduced variables disjoint from program variables by construction.
    """

    def __init__(self, avoid=()):
        self.avoid = set(avoid)
        self._names = (f"_W{k}" for k in itertools.count())

    def fresh(self) -> str:
        return next(n for n in self._names if n not in self.avoid)


@dataclass
class Emitter:
    """Collects lowered qualification constraints.

    Every emitted constraint gets a site index; a seeded mutation can
    drop one site, which the oracle comparison must then detect.  The
    constraints emitted are kept, in order, in emitted.
    """

    dom: QualDomain
    drop_site: Optional[int] = None
    next_site: int = 0
    emitted: list = field(default_factory=list)

    def emit(self, constraints: list) -> list:
        out = [c for i, c in enumerate(constraints, self.next_site)
               if i != self.drop_site]
        self.next_site += len(constraints)
        self.emitted += out
        return out


# ======================================================================
# Lowering of qualification constraints to real arithmetic
# ======================================================================

def leaf_names(wname: str, dom: QualDomain) -> list:
    return [wname + suf for suf in dom.leaf_suffixes()]


def lower_qval(leaves: list) -> list:
    return [AtomicConstraint("qVal", (Var(n),), TRUE) for n in leaves]


def lower_upper_bound(leaf: str, k: float, premise: Optional[str] = None):
    """The constraint: leaf at most k, or at most k times the premise leaf."""
    rhs = Basic(k) if premise is None else App("*", (Basic(k), Var(premise)))
    return AtomicConstraint("<=", (Var(leaf), rhs), TRUE)


def lower_lower_bound(wname: str, bound, dom: QualDomain) -> list:
    """Constraints for: W at least the given value."""
    return [AtomicConstraint(">=", (Var(n), Basic(k)), TRUE)
            for n, k in zip(leaf_names(wname, dom), dom.split(bound))]


# ======================================================================
# Expression and constraint translation
# ======================================================================

def primed(symbol: str) -> str:
    return symbol + "'"


class GroundData(HashCons):
    """The canonical ground data of one program, and its proofs.

    Ground data is a literal or a constructor application whose
    arguments are ground data: no variable and no call.  The translation
    builds every piece of it in the program's rules and goals here
    (transform_expr), so from the translation on ground data is compared
    by identity: two canonical terms are equal exactly when they are one
    object.  Its terms are keyed as in every HashCons, never by the id of
    a search or goal term, so the table grows with the program's and its
    goals' distinct data and with the ground values that replay meets.
    Only literals, nullary constructor applications and constructor
    applications over its own terms enter it.

    The table is kept on the source program (Program.memo) and on each
    of its translations, so the solvers, replays and goals of a program
    share it.  proofs maps the id of every canonical term, registered as
    it enters (added), to its proof against itself (refl on a literal,
    cons on an application), or None until that is built; a book record
    of the library list is then proved once per program, and
    check_proof, which keeps its verdicts on the program, decides that
    proof once.
    """

    def __init__(self):
        super().__init__()
        self.proofs = {}
        self.nan = False  # whether a nan literal, not equal to itself, entered

    def added(self, e: Expr) -> None:
        self.proofs[id(e)] = None
        self.nan = self.nan or (type(e) is Basic and e.value != e.value)

    def proof(self, t: Expr, qual=None, proofs=None) -> ProofTree:
        """The proof of canonical ground data t against itself at qual,
        kept by id in proofs (by default the table's own, unqualified);
        built bottom up, without recursion, on first use."""
        proofs = self.proofs if proofs is None else proofs
        return proofs.get(id(t)) or post_order(t, "args", proofs, lambda e: ProofTree(
            "cons" if type(e) is App else "refl", production(e, e, qual),
            tuple([proofs[id(a)] for a in getattr(e, "args", ())])))


def transform_expr(e: Expr, sig: Signature, data: GroundData, call_arg) -> Expr:
    """e with every call to a defined function primed and given its
    leaf arguments, a tuple: call_arg() for a call at the top of e, and
    its caller's for a call nested in another call.  Its ground data is
    built canonical in data, one table lookup per node.  Keeps its own
    stack; call_arg() is called in pre-order, left to right."""
    proofs = data.proofs
    out, stack = [], [(e, None)]  # (term, leaf arguments of its caller)
    while stack:
        t, arg = stack.pop()
        if type(t) is tuple:  # (symbol, arity, extra args): build from out
            symbol, n, extra = t
            kids = tuple(out[len(out) - n:])
            if extra is None and all(id(k) in proofs for k in kids):
                out[len(out) - n:] = [data.app(symbol, kids)]
            else:
                out[len(out) - n:] = [App(symbol, kids + (extra or ()))]
        elif type(t) is Basic or (type(t) is App and not t.args
                                  and sig.is_data(t.symbol)):
            out.append(data.leaf(t))
        elif type(t) is not App:
            out.append(t)
        else:
            if sig.kind(t.symbol) == "df":
                arg = call_arg() if arg is None else arg
                build = (primed(t.symbol), len(t.args), arg)
            else:  # extra None: a constructor, canonical over canonical kids
                build = (t.symbol, len(t.args), None if sig.is_data(t.symbol) else ())
            stack += [(build, None), *[(a, arg) for a in reversed(t.args)]]
    return out[0]


def transform_constraint(c: AtomicConstraint, sig: Signature, data: GroundData,
                         call_arg) -> AtomicConstraint:
    return AtomicConstraint(c.symbol,
                            tuple(transform_expr(a, sig, data, call_arg)
                                  for a in c.args),
                            c.result)


# ======================================================================
# Rules, programs, goals
# ======================================================================

def transform_rule(rule: ProgramRule, sig: Signature, data: GroundData,
                   supply: FreshSupply, em: Emitter) -> tuple:
    """Translate one rule, its ground data canonical in data; returns
    (rule, introduced qualification vars)."""
    dom = em.dom
    w = supply.fresh()
    head = leaf_names(w, dom)
    alpha = dom.split(dom.coerce(rule.attenuation))
    bounded = {h: k for h, k in zip(head, alpha) if k != 1.0}
    declared = em.emit(lower_qval(list(bounded)))
    conditions = []
    introduced = [w]
    shared = tuple(map(Var, head))

    def premise() -> tuple:
        # the call's leaves: the head's where alpha is 1, else fresh ones
        if not bounded:
            return shared
        v = supply.fresh()
        introduced.append(v)
        fresh = {h: n for h, n in zip(head, leaf_names(v, dom)) if h in bounded}
        conditions.extend(em.emit(
            lower_qval(list(fresh.values()))
            + [lower_upper_bound(h, k, fresh[h]) for h, k in bounded.items()]))
        return tuple(Var(fresh.get(h, h)) for h in head)

    # head patterns are constructor terms: they hold no call
    patterns = tuple(transform_expr(p, sig, data, None) for p in rule.patterns)
    rhs = transform_expr(rule.rhs, sig, data, premise)
    for c in rule.conditions:
        conditions.append(transform_constraint(c, sig, data, premise))
    if len(introduced) == 1:
        # no bounded premise, so no site was emitted after the head's
        # qVal: alpha alone takes the sites that follow it
        declared += em.emit([lower_upper_bound(h, k) for h, k in bounded.items()])

    new_rule = ProgramRule(primed(rule.name),
                           patterns + shared,
                           1.0,
                           rhs,
                           tuple(declared + conditions),
                           line=rule.line)
    return new_rule, introduced


def transform_program(program: Program, dom: QualDomain = U, *,
                      drop_site: Optional[int] = None) -> tuple:
    """Translate a whole program; returns (Program, emit_map list).

    drop_site, when given, drops that emitted site (Emitter); one that
    is not in range(sites) raises TransformError.  The translated
    program records dom, so a Solver refuses to run it under another.

    The ground data of its rules is canonical in the program's
    GroundData, which the translated program shares.  The emit map
    records, per source rule, the translated rule index, the
    qualification variables introduced for it and the positions of its
    own conditions among the translated rule's.
    """
    for name in program.signature.df:
        if name.endswith("'"):
            raise TransformError(
                f"defined symbol {name!r} already lives in the primed namespace; "
                "the program appears to be translated already")
    avoid = set()
    for r in program.rules:
        avoid |= vars_of(r.patterns) | vars_of(r.rhs) | vars_of(r.conditions)
    supply = FreshSupply(avoid)
    em = Emitter(dom, drop_site)
    data = program.memo("ground data", GroundData)

    m = len(dom.leaf_suffixes())
    sig = Signature(dict(program.signature.dc), dict(program.signature.pf),
                    {primed(f): n + m for f, n in program.signature.df.items()})

    rules = []
    emit_map = []
    for i, r in enumerate(program.rules):
        start = len(em.emitted)
        new_rule, introduced = transform_rule(r, program.signature, data, supply, em)
        rules.append(new_rule)
        mine = {id(c) for c in em.emitted[start:]}
        own = [j for j, c in enumerate(new_rule.conditions) if id(c) not in mine]
        emit_map.append({"source_rule": i, "translated_rule": i,
                         "qual_vars": introduced, "source_conditions": own})
    if drop_site is not None and not 0 <= drop_site < em.next_site:
        raise TransformError(
            f"mutation site out of range (0..{em.next_site - 1})")
    out = Program(sig, rules)
    out.memo("ground data", lambda: data)
    out.memo("domain", lambda: dom)
    return out, emit_map


def _check_arities(c: AtomicConstraint, sig: Signature) -> None:
    """Raise TransformError on a symbol of sig in c applied to another
    number of arguments than its arity."""
    stack = [*c.args, c.result]
    while stack:
        e = stack.pop()
        if type(e) is App:
            if sig.kind(e.symbol) is not None and sig.arity(e.symbol) != len(e.args):
                raise TransformError(
                    f"{e.symbol!r} applied to {len(e.args)} argument(s), "
                    f"but its arity is {sig.arity(e.symbol)}")
            stack += e.args


def transform_goal(goal: Goal, program: Program, dom: QualDomain = U) -> tuple:
    """Translate a goal; returns (constraints, goal wvars, data vars).

    Each item declares its W and bounds it below by its threshold, and
    every call in the item takes the leaves of that W.  Its ground data
    is canonical in the program's GroundData, as that of the program's
    rules is.  A symbol of the program's signature applied to another
    number of arguments than its arity raises TransformError.
    """
    data = program.memo("ground data", GroundData)
    out = []
    for item in goal.items:
        _check_arities(item.constraint, program.signature)
        leaves = leaf_names(item.wvar, dom)
        arg = tuple(map(Var, leaves))
        out += lower_qval(leaves)
        if item.threshold is not None:
            out += lower_lower_bound(item.wvar, dom.coerce(item.threshold), dom)
        out.append(transform_constraint(item.constraint, program.signature,
                                        data, lambda: arg))
    datavars = sorted(vars_of(tuple(item.constraint for item in goal.items)))
    return out, [item.wvar for item in goal.items], datavars


# ======================================================================
# Back-translation of replayed derivations
# ======================================================================

class Translation:
    """A program translated under one domain, its emit map
    (transform_program), and what mapping its derivations back needs:
    the primed names of the source's defined functions, per source rule
    its arity, the positions of its own conditions (from the emit map)
    and its variables, every variable of the source rules, which fresh
    names avoid, the program's GroundData, and sourced: the source proof
    of canonical data against itself at top, made once (SourceProof).
    Made once per program and domain by translation().
    """

    def __init__(self, program: Program, dom: QualDomain):
        self.translated, self.emit_map = transform_program(program, dom)
        self.calls = {primed(f) for f in program.signature.df}
        self.layouts = [(len(r.patterns), e["source_conditions"],
                         vars_of((r.patterns, r.rhs, r.conditions)))
                        for r, e in zip(program.rules, self.emit_map)]
        self.avoid = set().union(*(names for _, _, names in self.layouts))
        self.data = program.memo("ground data")
        self.sourced = {}  # id(canonical data) -> its source proof, at top


def translation(program: Program, dom: QualDomain) -> Translation:
    """The Translation of program under dom, kept on the program."""
    return program.memo(("translation", dom), lambda: Translation(program, dom))


class SourceProof:
    """Maps trees that runtime replays back to the source program.

    A call f'(e1, ..., en, Q1, ..., Qm), whose last m arguments are the
    leaves of its qualification, becomes f(e1, ..., en).  A fun node
    keeps the premises of the source_conditions that emit_map records,
    drops the rest, those of the leaves and the qualification variables
    of its substitution, and is qualified by the join of the replayed
    values of the leaves.  A cons, prim or atom node takes the glb of its
    premises', a refl or triv node top.  Every node gets the hypotheses
    pi.  A variable is replaced as names says, maybe by bottom (a node
    rewriting to it becomes triv); any other variable of the search (~n,
    ~n~X) by a fresh name from supply.  Replayed nodes and terms are
    canonical per solver (ground data per program), so each is mapped
    once, memoized on identity; the tables keep their keys alive.
    Canonical data is its own source term, and with no pi its proof
    against itself (GroundData.proof) maps to one node per program and
    domain, in the Translation's sourced.
    """

    def __init__(self, tr: Translation, dom: QualDomain,
                 pi: tuple, names: dict, supply: FreshSupply):
        self.dom, self.pi, self.names, self.supply = dom, pi, names, supply
        self._calls, self._layouts = tr.calls, tr.layouts
        self._data, self._sourced = tr.data, tr.sourced
        self._m = len(dom.leaf_suffixes())  # a call's last arguments
        self._trees = {}      # id(replayed node) -> (node, source node)
        self._terms = {}      # id(App) -> (App, source term)

    def term(self, e: Expr) -> Expr:
        if type(e) is Var:
            out = self.names.get(e.name)
            if out is None and e.name.startswith("~"):
                out = self.names[e.name] = Var(self.supply.fresh())
            return e if out is None else out
        if type(e) is not App or not e.args or id(e) in self._data.proofs:
            return e
        hit = self._terms.get(id(e))
        if hit is not None:
            return hit[1]
        args = [self.term(a) for a in e.args]
        if e.symbol in self._calls:
            out = App(e.symbol[:-1], tuple(args[:-self._m]))
        elif all(a is b for a, b in zip(args, e.args)):
            out = e
        else:
            out = App(e.symbol, tuple(args))
        self._terms[id(e)] = (e, out)
        return out

    def tree(self, node: ProofTree) -> ProofTree:
        hit = self._trees.get(id(node))
        if hit is None:
            t = node.conclusion.lhs
            if not self.pi and self._data.proofs.get(id(t)) is node:
                return self._data.proof(t, self.dom.top(), self._sourced)
            hit = self._trees[id(node)] = (node, self._tree(node))
        return hit[1]

    def _tree(self, node: ProofTree) -> ProofTree:
        s, dom, pi, kids, m = node.conclusion, self.dom, self.pi, node.children, self._m
        if node.tag == "fun":
            n, conds, names = self._layouts[node.rule_index]
            kids = (*kids[:n], kids[n + m], *(kids[n + m + 1 + j] for j in conds))
        kids = tuple(map(self.tree, kids))
        q = dom.glb_all([k.conclusion.qual for k in kids])
        if s.atom is not None:
            c = s.atom
            atom = AtomicConstraint(c.symbol, tuple(map(self.term, c.args)),
                                    self.term(c.result))
            return ProofTree("atom", atom_statement(atom, q, pi), kids)
        lhs, rhs = self.term(s.lhs), self.term(s.rhs)
        if isinstance(rhs, Bottom):
            return ProofTree("triv", production(lhs, BOTTOM, dom.top(), pi))
        if node.tag != "fun":
            return ProofTree(node.tag, production(lhs, rhs, q, pi), kids)
        theta = tuple((v, self.term(t)) for v, t in node.theta if v in names)
        leaves = [a.value for a in s.lhs.args[-m:]]
        return ProofTree("fun", production(lhs, rhs, dom.join(leaves), pi),
                         kids, node.rule_index, theta)
