"""Goal solver for translated constraint programs.

The solver performs demand-driven conditional narrowing with chronological
backtracking.  Rules are tried in program order.  One head test
(Solver._match_head) matches a rule's head against the call, left to
right, as far as the call's arguments are already values, before the
rule is renamed, traced or counted: a head that clashes there is no try.
A head variable that meets a variable, a literal or ground data takes it
with no binding; from the first argument that needs evaluation,
unification takes over, and head patterns force the evaluation of
arguments only as far as it demands; conditions run left to right
before the right-hand side replaces the call.  A try builds
only what it uses, as a WAM puts a goal's arguments just before the call:
the head patterns that unification needs, at once; a condition's atom when
the general path first reaches it, and the right-hand side when the
conditions first hold, each once per instance (_Instance).  Bindings are
shared through the substitution and a call reached through a variable is
evaluated at most once per branch (call-time choice).  Ground data (literals
and constructors only) is canonical from the translation on
(transform.GroundData): it is bound whole, with no occurs check, and
compared by identity.  A strict equality whose one side already is a
literal or data demands that value of the other side's evaluation: a
rule whose rhs clashes with it cannot give it, so its try stops before
its rhs and shows only the reasons that cut it (Solver._hnf).  Such a
try is skipped when it can add no new reason to the run's cut: when
the cut holds the depth bound, and an undecided primitive too if the
run may raise one (_try_reasons), or when a static bound on its chains
of nested calls keeps them clear of the depth bound (_chains_clear): in
one component of the qualification, each attenuated call divides the
lower bound by its factor, and a bound above 1 ends the chain, so goals
with a positive threshold skip most of them, in every domain.

Qualification constraints are numeric and never enumerate their variables:
they feed a per-variable interval store, propagated after every post or
aliasing by the entailment checker's own worklist (constraints.py); an
empty interval prunes the branch, and a propagation that reaches the
step guard flags the run as incomplete.  The qVal and monomial-bound
conditions of a rule are compiled with its renaming template and posted
from the instance's slots, without reducing their arguments and without
building their atoms.  Disequations that cannot be decided
yet are parked and re-examined as bindings arrive; leftovers surface as
residual constraints and flag the answer as conditional.

Nondeterminism is implemented with generators over one mutable store per
solve.  Every store mutation logs the old value on an undo trail; a
generator takes a trail mark before it yields and undoes to that mark
when it resumes or finishes, so exhausted branches leave no traces (the
WAM discipline).  Each answer carries a snapshot: a copy of the store
without the trail, independent of the search that goes on.

Proof replay (replay_trees) rebuilds an answer's derivation in the
translated program from its snapshot, each qualification variable at the
upper bound of its interval; semantics.holds maps it back to the source
program, so the solver is the toolchain's one derivation engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .constraints import (ARITH, FULL, RELS, _numeric_expr, compile_bound,
                          compile_post, eval_primitive, narrow_bound, point,
                          propagate_from, walk_name, walk_side)
from .domains import QualDomain, U
from .semantics import ProofTree, atom_statement, production
from .syntax import Program, print_constraint, print_expr
from .terms import (App, AtomicConstraint, Basic, Bottom, BOTTOM, Expr,
                    FALSE, HashCons, TRUE, Var, apply_subst, compare_data,
                    deep_recursion, vars_of)
from .transform import GroundData, leaf_names


@dataclass
class Limits:
    depth: int = 64
    answers: Optional[int] = None


@dataclass
class EvalRec:
    """One recorded reduction of a call, for later proof replay."""
    call: Expr
    kind: str                      # "fun" | "prim"
    result: Expr
    rule_index: Optional[int] = None
    # the rule instance that reduced the call: its patterns (the walked
    # argument where the head matched), its rhs, its condition atoms,
    # built on first use, and its slots, the fresh Var or the value that
    # each rule variable took
    instance: Optional["_Instance"] = None


# undo-trail markers for entries that are not plain "table[key] = old"
_MISSING = object()    # the key was absent: delete it
_TRUNC = object()      # a list grew: cut it back to the logged length
_DISCARD = object()    # a set gained the key: discard it


@dataclass
class Store:
    subst: dict = field(default_factory=dict)
    ivals: dict = field(default_factory=dict)       # root var -> Interval
    qcons: list = field(default_factory=list)       # compiled posted constraints
    qindex: dict = field(default_factory=dict)      # var name -> constraint ids
    suspended: list = field(default_factory=list)   # parked disequations
    evals: dict = field(default_factory=dict)       # id(call expr) -> EvalRec
    declared: set = field(default_factory=set)      # qVal-introduced variables
    malformed: bool = False                         # bound on an undeclared one
    datavars: frozenset = frozenset()               # the goal's data variables
    data_bounds: list = field(default_factory=list)  # ids of bounds on data ones
    # (table, key, old) entries, newest last; see undo()
    trail: list = field(default_factory=list, repr=False, compare=False)

    def copy(self) -> "Store":
        """An independent snapshot, with an empty trail."""
        return Store(dict(self.subst), dict(self.ivals), list(self.qcons),
                     {k: list(v) for k, v in self.qindex.items()},
                     list(self.suspended), dict(self.evals),
                     set(self.declared), self.malformed, self.datavars,
                     list(self.data_bounds))

    # Every mutation goes through these, so undo() can reverse it.  The
    # scalar and replaced-list fields are logged through self.__dict__.

    def assign(self, table: dict, key, value) -> None:
        self.trail.append((table, key, table.get(key, _MISSING)))
        table[key] = value

    def set_interval(self, name: str, iv) -> None:
        """assign() on ivals, inlined: the propagator's write function."""
        ivals = self.ivals
        self.trail.append((ivals, name, ivals.get(name, _MISSING)))
        ivals[name] = iv

    def remove(self, table: dict, key):
        old = table.pop(key)
        self.trail.append((table, key, old))
        return old

    def push(self, lst: list, item) -> None:
        self.trail.append((lst, len(lst), _TRUNC))
        lst.append(item)

    def index(self, name: str, ids) -> None:
        """Add constraint ids to the watch list of a variable."""
        lst = self.qindex.get(name)
        if lst is None:
            self.assign(self.qindex, name, list(ids))
        else:
            self.trail.append((lst, len(lst), _TRUNC))
            lst.extend(ids)

    def declare(self, name: str) -> None:
        if name not in self.declared:
            self.declared.add(name)
            self.trail.append((self.declared, name, _DISCARD))

    def set_field(self, name: str, value) -> None:
        self.assign(self.__dict__, name, value)

    def undo(self, mark: int) -> None:
        """Reverse every mutation logged after trail position mark."""
        trail = self.trail
        while len(trail) > mark:
            table, key, old = trail.pop()
            if old is _MISSING:
                del table[key]
            elif old is _TRUNC:
                del table[key:]
            elif old is _DISCARD:
                table.discard(key)
            else:
                table[key] = old


@dataclass
class Answer:
    subst: dict                    # goal data variable -> resolved term
    qual: dict                     # qualification component -> Interval
    residual: list                 # unresolved constraints (pretty-printable)
    flags: list
    store: Store = field(repr=False, compare=False, default=None)


def _template(e: Expr, pos: dict, sig, ground: dict):
    """Rename template of an expression (see Solver._rename_rule).

    A variable becomes its position in the rule's variable list; an
    application that holds a variable or a function call becomes a
    (symbol, kid templates) pair to rebuild; anything else is shared.
    Canonical ground data (its id in ground, the program's
    GroundData.proofs) is shared as the translation built it, by one
    identity test, so a long list literal is not walked.  Call nodes are
    always rebuilt, because call-time choice is keyed by the identity of
    the call.
    """
    if id(e) in ground:
        return e
    if isinstance(e, Var):
        return pos[e.name]
    if isinstance(e, App) and e.args:
        kids = tuple(_template(a, pos, sig, ground) for a in e.args)
        if not sig.is_data(e.symbol) or any(type(k) in (int, tuple) for k in kids):
            return (e.symbol, kids)
    return e


def _value(e: Expr, sig):
    """e when it is a literal or a data application, else None."""
    if type(e) is Basic or (type(e) is App and sig.is_data(e.symbol)):
        return e
    return None


def _rules_by_symbol(program: Program) -> dict:
    """symbol -> [(index, rule, rhs value)] in program order; the rhs
    value is the rhs when it is a literal or data (_value)."""
    out = {}
    for i, r in enumerate(program.rules):
        out.setdefault(r.name, []).append((i, r, _value(r.rhs, program.signature)))
    return out


def _clash(result: Expr, demand: Expr, ground: dict) -> bool:
    """Whether _unify_heads rejects result against demand, two values
    (_value), without evaluating anything: a literal against another
    literal or against data, data against another constructor or arity,
    and canonical ground data (its id in ground) against other canonical
    ground data.  A value that holds a variable or a call compares by its
    head alone.  It tests a rule's rhs against a strict equality's demand;
    Solver._match_head tests the heads."""
    if type(result) is Basic or type(demand) is Basic:
        return type(result) is not type(demand) or result.value != demand.value
    return result.symbol != demand.symbol or len(result.args) != len(demand.args) \
        or (result is not demand and id(result) in ground and id(demand) in ground)


def _body_calls(rule, sig, ground: dict, k: int, m: int):
    """The calls of a rule's body, its uncompiled conditions and its rhs,
    as (symbol, factor) pairs in component k of a qualification of m
    leaves; None when the body is not readable there.

    The head and each call are read at their leaf k, the k-th of their
    last m arguments.  A call's factor is 1 when its leaf is the head's,
    and a when it is a variable V that earlier conditions declare by
    qVal(V) and bound by leaf <= a*V with a < 1: when the call runs, V's
    lower bound is the head leaf's divided by a.  Any other leaf, a head leaf that is not a
    variable, a primitive application (an undecided one cuts) or a call
    inside another call's arguments (bound lazily, evaluated deeper)
    makes the body unreadable.  Canonical ground data (its id in ground)
    holds no call, so it is not walked.
    """
    leaf = rule.patterns[k - m] if len(rule.patterns) >= m else None
    if type(leaf) is not Var:
        return None
    qvals, caps, calls = set(), {}, []
    for c in (*rule.conditions, None):  # None: the rhs, after them
        bound = None if c is None else compile_bound(c, str)
        if bound is None:
            stack = [(e, False) for e in ((rule.rhs,) if c is None else c.args)]
            while stack:
                e, inside = stack.pop()
                if type(e) is not App or id(e) in ground:
                    continue
                kind = sig.kind(e.symbol)
                if kind == "pf" or (kind == "df" and inside):
                    return None
                if kind == "df":
                    q = e.args[k - m] if len(e.args) >= m else None
                    a = 1.0 if q == leaf else caps.get(q.name) \
                        if type(q) is Var and q.name in qvals else None
                    if a is None:
                        return None
                    calls.append((e.symbol, a))
                    inside = True
                stack += [(x, inside) for x in e.args]
        elif bound[0] == "qval":
            qvals.add(bound[1])
        elif bound[2] == (1.0, leaf.name) and bound[3][1] is not None \
                and 0.0 < bound[3][0] < 1.0:
            caps.setdefault(bound[3][1], bound[3][0])
    return calls


def _chain_bounds(program: Program, k: int, m: int) -> list:
    """Per rule index, (run, a_max, a) for each call of its body in
    component k of m (_body_calls), or None; see _chains_clear.

    The triple bounds the chains of nested calls that the call (symbol
    g, factor a) starts: run is one more than the longest path of
    factor-1 calls among the functions reachable from g, and a_max the
    largest factor below 1 on their calls, None when there is none.  A
    body is None unless every rule of every function it reaches is
    readable and no cycle of factor-1 calls joins them.
    """
    sig, ground = program.signature, program.memo("ground data", GroundData).proofs
    calls = [_body_calls(r, sig, ground, k, m) for r in program.rules]
    out = {}  # function -> the calls of its rules, None when one is unreadable
    for r, cs in zip(program.rules, calls):
        known = out.get(r.name, ())
        out[r.name] = None if cs is None or known is None else [*known, *cs]
    flat, heights = {}, {}

    def flat_path(f, path=frozenset()):
        """The longest path of factor-1 calls from f; None on a cycle."""
        if f not in flat:
            n = None if f in path or out.get(f, ()) is None else 0
            for g, a in out.get(f) or ():
                if n is not None and a == 1.0:
                    m = flat_path(g, path | {f})
                    n = None if m is None else max(n, m + 1)
            flat[f] = n
        return flat[f]

    def height(g):
        if g not in heights:
            seen, todo, run, a_max = {g}, [g], 1, None
            while todo and run is not None:
                f = todo.pop()
                n = flat_path(f)
                run = None if n is None else max(run, n + 1)
                for h, a in out.get(f) or ():
                    if a < 1.0:
                        a_max = max(a_max or 0.0, a)
                    if h not in seen:
                        seen.add(h)
                        todo.append(h)
            heights[g] = None if run is None else (run, a_max)
        return heights[g]

    bounds = []
    for cs in calls:
        hs = None if cs is None else [(height(g), a) for g, a in cs]
        bounds.append(None if hs is None or any(h is None for h, _ in hs)
                      else tuple((*h, a) for h, a in hs))
    return bounds


# each division of the chain check (_chains_short) shrinks its
# lower bound by this factor, far more than the propagator's own
# division (constraints._div_down) can round it down
_ROUNDING = 1.0 - 1e-9


def _chains_short(body: tuple, lo: float, depth: int) -> bool:
    """Whether every chain that the calls of a body start (its chain
    bounds in one component, see _chain_bounds) is shorter than depth,
    from a call whose leaf in that component has the lower bound lo.
    The body call at factor a starts a chain with its leaf at lo/a or
    above; each later call at a factor below 1, at most a_max, divides
    that bound by its factor through the bound and qVal that its caller
    posts, and a bound above 1 empties that qVal, so the call does not
    run.  Each of these calls starts a run of at most run calls at
    factor 1.  With lo at 0, a chain that meets a factor below 1 has no
    bound."""
    for run, a_max, a in body:
        n, b = run, lo / a * _ROUNDING
        if a_max is not None:
            if not b > 0.0:
                return False
            b = b / a_max * _ROUNDING
            while b <= 1.0 and n < depth:
                n += run
                b = b / a_max * _ROUNDING
        if n >= depth:
            return False
    return True


def _qual_vars(rule, sig, m: int) -> set:
    """Names of the qualification variables of a translated rule: those
    of the leaves, the last m arguments, of its head and of each call,
    and those that a qVal condition names.  The rest are data variables."""
    out = vars_of(rule.patterns[-m:])
    stack = [rule.rhs]
    for c in rule.conditions:
        if c.symbol == "qVal":
            out |= vars_of(c.args)
        stack += [*c.args, c.result]
    while stack:
        e = stack.pop()
        if isinstance(e, App) and e.args:
            if sig.kind(e.symbol) == "df":
                out |= vars_of(e.args[-m:])
            stack.extend(e.args)
    return out


def _build(t, vs: list):
    kind = type(t)
    if kind is int:
        return vs[t]
    if kind is tuple:
        return App(t[0], tuple([_build(k, vs) for k in t[1]]))
    return t


class _Instance:
    """A rule instance, built as far as a try uses it (Solver._rename_rule).

    vs holds each rule variable's slot, pats the head patterns.  The atom
    of condition j (self[j]) is built on its first use and the rhs when
    the conditions first hold (Solver._hnf); each is kept, so its call
    nodes keep one identity for call-time choice and replay.
    """
    __slots__ = ("tpl", "vs", "prefix", "pats", "start", "conds", "rhs")

    def __init__(self, tpl: tuple, vs: list, prefix: str, pats: tuple, start: int):
        self.tpl, self.vs, self.prefix, self.pats, self.start = tpl, vs, prefix, pats, start
        self.conds, self.rhs = [None] * len(tpl[3]), None

    def __len__(self):
        return len(self.conds)

    def __getitem__(self, j: int) -> AtomicConstraint:
        c = self.conds[j]
        if c is None:
            sym, args, res = self.tpl[3][j]
            c = self.conds[j] = AtomicConstraint(
                sym, tuple([_build(a, self.vs) for a in args]), _build(res, self.vs))
        return c


def _posted(compiled) -> AtomicConstraint:
    """The constraint that a compiled post stands for (see compile_bound)."""
    if compiled[0] == "generic":
        return compiled[1]
    _, strict, L, R = compiled
    if L[1] is None and R[1] is not None:  # 0.1 < Y reads Y > 0.1
        return AtomicConstraint(">" if strict else ">=", (_side(R), _side(L)), TRUE)
    return AtomicConstraint("<" if strict else "<=", (_side(L), _side(R)), TRUE)


def _side(side) -> Expr:
    k, name = side
    if name is None:
        return Basic(k)
    return Var(name) if k == 1 else App("*", (Basic(k), Var(name)))


def _instance_side(side, vs: list):
    """A compiled side with its slot's value (see walk_side): the variable
    or literal that the slot took, else None."""
    k, p = side
    if p is None:
        return side
    v = vs[p]
    if type(v) is Var:
        return (k, v.name)
    return (k * v.value, None) if type(v) is Basic else None


def _chains_clear(solver: "Solver", store: Store, call: App, index: int,
                  depth: int) -> bool:
    """Whether a clashing try (Solver._hnf) of the rule with this index
    on call, whose head _match_head matched whole, at this depth, raises
    no cut reason, by the chain check.

    A whole head match evaluates and binds nothing, and one leaf of the
    call, one of its last m arguments (Solver.leaves), read through the
    rule's chain bounds in its component (_chain_bounds), keeps every
    chain of calls shorter than depth (_chains_short): the rule's body
    and every rule that it reaches raise no "primitive" reason, each call
    that they make runs one depth below its caller or higher, and a call
    runs only when the qVal of each of its components holds, so no call
    reaches depth 0.
    """
    m = solver.leaves
    for k, x in enumerate(call.args[-m:]):
        x = solver.walk(store, x)
        if type(x) is Var:
            lo = store.ivals.get(x.name, FULL).lo
        elif type(x) is Basic:
            lo = x.value
        else:
            continue
        chains = solver._chains.get(k)
        if chains is None:
            program = solver.program
            chains = solver._chains[k] = program.memo(
                ("chain bounds", k), lambda: _chain_bounds(program, k, m))
        if chains[index] is not None and _chains_short(chains[index], lo, depth):
            return True
    return False


def _applies_primitive(sig, conditions, *exprs) -> bool:
    """Whether a primitive application, which _hnf may find undecided,
    occurs in exprs or in conditions outside compiled bounds
    (compile_bound), whose monomial sides propagation reads and _hnf
    never does.  A search builds primitive applications only from these."""
    stack = [*exprs, *(x for c in conditions if compile_bound(c, str) is None
                       for x in (*c.args, c.result))]
    while stack:
        e = stack.pop()
        if type(e) is App:
            if sig.kind(e.symbol) == "pf":
                return True
            stack += e.args
    return False


def _try_reasons(program: Program, goal) -> frozenset:
    """The cut reasons that a clashing try may raise in a run of goal, a
    list of translated constraints, on program, step guard aside:
    "depth", and "primitive" when its rules (looked at once per program)
    or the goal apply a primitive (_applies_primitive)."""
    sig = program.signature
    rules = program.memo("applies primitive", lambda: any(
        _applies_primitive(sig, r.conditions, r.rhs)
        for r in program.rules))
    primitive = rules or _applies_primitive(sig, goal)
    return frozenset(("depth", "primitive") if primitive else ("depth",))


class Solver:
    def __init__(self, program: Program, dom: QualDomain = U,
                 limits: Limits = None, trace=None):
        # the domain that transform_program recorded; None for a
        # program that no translation made
        made = program.memo("domain", lambda: None)
        if made is not None and made.name != dom.name:
            raise ValueError(f"a program translated under {made.name} "
                             f"cannot be solved under {dom.name}")
        self.program = program
        self.sig = program.signature
        self.dom = dom
        # a call's qualification is its last arguments, one per leaf
        self.leaves = len(dom.leaf_suffixes())
        self.limits = limits or Limits()
        self.trace = trace
        # what depends on the program alone is shared by its solvers:
        # symbol -> [(index, rule, rhs value)], rule index -> rename
        # template, rule index -> its qualification variables
        self._rules, self._templates, self._quals = program.memo(
            "solver", lambda: (_rules_by_symbol(program), {}, {}))
        self._calls = self.sig.pf.keys() | self.sig.df.keys()  # not data
        self._fresh = itertools.count()
        self.cut = set()            # why it was cut: "depth", "guard", "primitive"
        self.guard_hits = 0         # propagations stopped by the step guard
        self.prop_steps = 0         # worklist steps over all propagations
        self.tries = 0              # rule tries: instances renamed
        # the clashing tries skipped (see _hnf); the cut reasons that one
        # may raise, set again for each goal; and component -> the
        # program's chain bounds in it, looked up on first use
        self.skips, self._reasons, self._chains = 0, _try_reasons(program, ()), {}
        # the program's canonical ground data, which its translation
        # built, and what replay shares across answers
        self._data = program.memo("ground data", GroundData)
        self.hashcons = _HashCons(self._data)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def walk(self, store: Store, e: Expr) -> Expr:
        while isinstance(e, Var) and e.name in store.subst:
            e = store.subst[e.name]
        return e

    def _fresh_var(self) -> Var:
        return Var(f"~{next(self._fresh)}")

    def _is_ground(self, t: Expr) -> bool:
        """Whether t is known ground data: a literal, or data that is
        canonical in the program's GroundData, as the translation builds
        the data of the rules and goals.  Other ground data, which the
        search builds or a program parsed from text holds, is not known
        ground: it takes the general paths, which decompose it."""
        return type(t) is Basic or id(t) in self._data.proofs

    def _rename_rule(self, tpl: tuple, pats: list, vs: list) -> _Instance:
        """A fresh instance of a rule from its template (_compile_rule),
        whose head _match_head matched: pats are the walked arguments of
        the matched positions and vs the slots that the match filled.

        The rule is compiled once into templates over its sorted variable
        list.  A try builds only the slots and the head patterns; a
        variable that the match gave a value stands for it, so it needs
        no fresh Var and no binding, and a matched position's pattern is
        its walked argument.  Fresh names share one prefix per instance.
        The compiled conditions read the slots (_post_condition); an atom
        or the rhs is built from the templates when it is first used (see
        _Instance), sharing every subterm with no variable or call.
        """
        self.tries += 1
        names, pats_t = tpl[0], tpl[1]
        prefix = f"~{next(self._fresh)}~"
        start = len(pats)
        vs = [Var(prefix + x) if v is None else v for x, v in zip(names, vs)]
        pats = (*pats, *[_build(p, vs) for p in pats_t[start:]])
        return _Instance(tpl, vs, prefix, pats, start)

    def _match_head(self, pats_t: tuple, args: tuple, store: Store, vs: list):
        """Match head pattern templates against a call's args, left to
        right, evaluating and binding nothing; the one head test, made
        before a rule is renamed: a variable slot takes a walked
        variable, literal or canonical ground data (heads are linear, so
        that is binding it), a pattern and an argument that both are
        canonical ground data (ids in the program's GroundData.proofs)
        match by identity, other patterns decompose against data.  Stops
        at a position that meets a call, a variable under a pattern or
        other data in a slot (_is_ground): _unify_pattern unifies from
        there.  Fills vs at the matched positions' slots and returns their
        walked arguments, or None when a literal or a data head clashes."""
        subst, ground = store.subst, self._data.proofs
        matched = []
        for t, a in zip(pats_t, args):
            while type(a) is Var and a.name in subst:
                a = subst[a.name]
            if type(t) is int:  # a variable slot: no decomposition
                if type(a) is not Var and type(a) is not Basic \
                        and id(a) not in ground:
                    return matched
                vs[t] = a
            elif id(t) in ground and id(a) in ground:
                if t is not a:  # canonical: equal data is one object
                    return None
            else:
                taken, stack = [], [(t, a)]
                while stack:
                    t, x = stack.pop()
                    while type(x) is Var and x.name in subst:
                        x = subst[x.name]
                    if type(t) is int:
                        if type(x) is not Var and type(x) is not Basic \
                                and id(x) not in ground:
                            return matched
                        taken.append((t, x))
                    elif type(x) is Basic:
                        if type(t) is not Basic or t.value != x.value:
                            return None
                    elif type(x) is not App or not self.sig.is_data(x.symbol):
                        return matched
                    elif type(t) is Basic:
                        return None
                    else:
                        symbol, kids = t if type(t) is tuple else (t.symbol, t.args)
                        if symbol != x.symbol or len(kids) != len(x.args):
                            return None
                        stack += reversed(list(zip(kids, x.args)))
                for slot, x in taken:
                    vs[slot] = x
            matched.append(a)
        return matched

    def _compile_rule(self, index: int, rule) -> tuple:
        """The rename template of a rule, made on its first use by any
        solver of the program: its sorted variable list, the templates of
        its patterns, rhs and conditions, and its compiled conditions."""
        names = sorted(vars_of(rule.patterns) | vars_of(rule.rhs)
                       | vars_of(rule.conditions))
        pos = {v: i for i, v in enumerate(names)}

        def template(e):
            return _template(e, pos, self.sig, self._data.proofs)

        tpl = self._templates[index] = (
            names, tuple(template(p) for p in rule.patterns), template(rule.rhs),
            tuple((c.symbol, tuple(template(a) for a in c.args), template(c.result))
                  for c in rule.conditions),
            tuple(compile_bound(c, pos.__getitem__) for c in rule.conditions))
        return tpl

    # ------------------------------------------------------------------
    # interval store: root variable -> constraints.Interval, narrowed by
    # constraints.propagate_from through store.set_interval.  A qVal post
    # narrows its root once and is never queued: _bind meets aliased
    # intervals and checks a bound literal, so the range keeps holding.
    # ------------------------------------------------------------------

    def _post_qval(self, store: Store, name: str) -> bool:
        """Narrow the root of name, which no literal or term is bound to
        (the callers post on a variable that walks to an unbound one), to
        (0, 1] and propagate what watches it."""
        v = walk_name(store.subst, name)
        r = narrow_bound(store.ivals, store.set_interval, v, 0.0, True, 1.0)
        if r == "fail":
            return False
        if r == "changed":
            seeds = store.qindex.get(v)
            if seeds:
                return self._propagate_from(store, seeds)
        return True

    def _propagate_from(self, store: Store, seeds) -> bool:
        """Run the worklist from seeds; False when some interval empties.

        A propagation that runs into the step guard stops where it is:
        the box may then violate a posted bound, so the run is flagged
        as cut and every later answer carries "incomplete".
        """
        ok, steps, guard_hit = propagate_from(
            store.qcons, store.qindex, store.ivals, store.subst,
            store.set_interval, seeds)
        self.prop_steps += steps
        if guard_hit:
            self.cut.add("guard")
            self.guard_hits += 1
        return ok

    def _post(self, store: Store, compiled, orig_names, declares: bool,
              names, rule=None) -> bool:
        """Post one compiled constraint and propagate it.

        orig_names are the variables of the constraint as written; a qVal
        (declares) declares them.  names are the roots it is posted on.
        rule is the index of the rule whose condition it is, None for a
        goal constraint.
        """
        # well-formed translations declare every qualification variable
        # before bounding it; a bound on a qualification variable that
        # was never declared marks the whole branch as malformed, and any
        # other bound on an undeclared variable bounds a data variable
        data = False
        if declares:
            for name in orig_names:
                store.declare(name)
        elif not store.malformed and not store.declared.issuperset(orig_names):
            if self._bounds_undeclared_qual(rule, orig_names, store):
                store.set_field("malformed", True)
            else:
                data = True
        if compiled[0] == "qval":
            return self._post_qval(store, compiled[1])
        idx = len(store.qcons)
        store.push(store.qcons, compiled)
        if data:
            store.push(store.data_bounds, idx)
        for name in names:
            store.index(name, (idx,))
        return self._propagate_from(store, (idx,))

    def _bounds_undeclared_qual(self, rule, names, store: Store) -> bool:
        """Whether names, the variables of a bound as written, hold a
        qualification variable that no qVal declared.  A bound may name
        data variables too, which are never declared.  The qualification
        variables of a rule are found once per program, on the first bound
        that names an undeclared variable, so well-formed posts never pay
        for it; a goal's are all of its variables but its data variables."""
        undeclared = [n for n in names if n not in store.declared]
        if rule is None:
            return any(n not in store.datavars for n in undeclared)
        quals = self._quals.get(rule)
        if quals is None:
            quals = self._quals[rule] = _qual_vars(self.program.rules[rule], self.sig,
                                                   self.leaves)
        # a renamed variable is "~<instance>~<name in the rule>"
        return any(n.rpartition("~")[2] in quals for n in undeclared)

    def _post_condition(self, store: Store, t: tuple, inst: _Instance, rule: int):
        """Post compiled condition template t of inst, an instance of the
        rule with index rule, from its slots (see _rename_rule).

        Returns None, having changed nothing, when the condition needs the
        general path: a side whose slot took or is bound to neither a
        variable nor a literal, or every side a literal (the general path
        evaluates those).  _post declares or checks the instance's names
        of its variables, as written."""
        subst, vs, names = store.subst, inst.vs, inst.tpl[0]
        if t[0] == "qval":
            v = vs[t[1]]
            if type(v) is not Var or type(walk_name(subst, v.name)) is not str:
                return None
            return self._post(store, ("qval", v.name), (inst.prefix + names[t[1]],),
                              True, ())
        _, strict, L, R = t
        Lw, Rw = _instance_side(L, vs), _instance_side(R, vs)
        if Lw is None or Rw is None:
            return None
        Lw, Rw = walk_side(subst, Lw), walk_side(subst, Rw)
        if Lw is None or Rw is None or (Lw[1] is None and Rw[1] is None):
            return None
        orig = [inst.prefix + names[p] for _, p in (L, R) if p is not None]
        return self._post(store, ("mono", strict, Lw, Rw), orig,
                          False, {n for n in (Lw[1], Rw[1]) if n is not None}, rule)

    def _bind(self, store: Store, name: str, value: Expr) -> bool:
        """Bind name to value and re-propagate; on False the caller undoes."""
        store.assign(store.subst, name, value)
        seeds = list(store.qindex.get(name, ()))
        if name in store.ivals:
            iv = store.remove(store.ivals, name)
            v = self.walk(store, value)
            if isinstance(v, Var):
                merged = iv.intersect(store.ivals.get(v.name, FULL))
                if merged.is_empty():
                    return False
                store.assign(store.ivals, v.name, merged)
                # constraints watching the old name now watch the new root
                seeds += store.qindex.get(v.name, ())
                if name in store.qindex:
                    store.index(v.name, store.qindex[name])
            elif isinstance(v, Basic):
                if not iv.contains(v.value):
                    return False
            else:
                return False  # an interval-carrying variable is numeric
        if seeds and not self._propagate_from(store, seeds):
            return False
        return True

    # ------------------------------------------------------------------
    # head normal forms
    #
    # The search generators below share one store.  Each one yields with
    # its own mutations in place and, on resumption or exhaustion, undoes
    # back to the trail mark it took before making them; a failed _bind
    # or _post is undone the same way.
    # ------------------------------------------------------------------

    def _hnf(self, e: Expr, store: Store, depth: int,
             demand: Expr = None) -> Iterator[Expr]:
        """The head normal forms of e.  demand is a value (_value) that a
        strict equality compares them with, or None.

        A rule whose rhs value clashes with the demand gives none, as
        _unify_heads would reject each result unevaluated: its try stops
        before its rhs, and only the reasons that cut it show.  Such a
        try is skipped when it can add no new reason to the run's cut:
        when the cut holds every reason that a clashing try of this run
        may raise (_try_reasons), or when its head matched the call whole
        and the chain check (_chains_clear) shows that it raises none.
        The skip is exact:
        - the try never yields, and it undoes what it binds;
        - each answer's "incomplete" flag reads whether the cut, a set
          that only grows, is non-empty when the answer is yielded;
        - so only the counters, the fresh numbers and the --trace lines
          change, and printed names do not depend on fresh numbers.
        A skipped try makes no propagation, so a step-guard hit inside
        it can no longer add "guard" to the cut.
        """
        e = self.walk(store, e)
        if isinstance(e, (Var, Basic)):
            yield e
            return
        if isinstance(e, Bottom):
            return
        kind = self.sig.kind(e.symbol)
        if kind == "dc" or kind is None:
            yield e
            return
        # call-time choice: a call already reduced in this branch keeps
        # its value; alternatives only arise by backtracking above it
        rec = store.evals.get(id(e))
        if rec is not None and rec.call is e:
            yield rec.result
            return
        trail = store.trail
        if kind == "pf":
            for args in self._reduce_args(e.args, store, depth):
                if not all(isinstance(a, (Basic, App)) for a in args):
                    self.cut.add("primitive")
                    continue
                try:
                    res = eval_primitive(e.symbol, list(args))
                except Exception:
                    continue
                if res == BOTTOM:
                    if any(vars_of(a) for a in args):
                        self.cut.add("primitive")  # undecided, not undefined
                    continue
                mark = len(trail)
                store.assign(store.evals, id(e), EvalRec(e, "prim", res))
                yield res
                store.undo(mark)
            return
        # defined function: try the rules in program order
        if depth <= 0:
            self.cut.add("depth")
            return
        ground = self._data.proofs
        for index, rule, result in self._rules.get(e.symbol, ()):
            tpl = self._templates.get(index) or self._compile_rule(index, rule)
            vs = [None] * len(tpl[0])
            pats = self._match_head(tpl[1], e.args, store, vs)
            if pats is None:
                continue  # the head cannot match: no try
            clashing = demand is not None and result is not None \
                and _clash(result, demand, ground)
            if clashing and (self._reasons <= self.cut
                             or len(pats) == len(e.args)
                             and _chains_clear(self, store, e, index, depth)):
                self.skips += 1
                continue
            inst = self._rename_rule(tpl, pats, vs)
            if self.trace:
                self.trace(f"try rule {index}: {rule.name}")
            # a head that matched whole has nothing left to unify
            unified = (None,) if inst.start == len(e.args) else self._pairwise(
                self._unify_pattern, inst.pats, e.args, store, depth, inst.start)
            for _ in unified:
                for _ in self._solve_all(inst, store, depth - 1, index):
                    if clashing:
                        continue  # its rhs cannot give the demand
                    if inst.rhs is None:
                        inst.rhs = _build(tpl[2], inst.vs)
                    for res in self._hnf(inst.rhs, store, depth - 1):
                        mark = len(trail)
                        store.assign(store.evals, id(e),
                                     EvalRec(e, "fun", res, index, inst))
                        yield res
                        store.undo(mark)

    def _reduce_args(self, args: tuple, store: Store, depth: int,
                     i: int = 0) -> Iterator[tuple]:
        if i == len(args):
            yield ()
            return
        for v in self._reduce_value(args[i], store, depth):
            for rest in self._reduce_args(args, store, depth, i + 1):
                yield (v,) + rest

    def _reduce_value(self, e: Expr, store: Store, depth: int) -> Iterator[Expr]:
        """Reduce to a value as deeply as possible, leaving free variables.

        Arithmetic nodes are reduced structurally rather than demanded, so
        expressions over unbound qualification variables survive and can be
        sent to the interval store; ground arithmetic folds to a literal.
        """
        e = self.walk(store, e)
        if isinstance(e, App) and e.symbol in ARITH and len(e.args) == 2:
            for parts in self._reduce_args(e.args, store, depth):
                if all(isinstance(p, Basic) for p in parts):
                    yield eval_primitive(e.symbol, list(parts))
                else:
                    yield App(e.symbol, parts)
            return
        for h in self._hnf(e, store, depth):
            if isinstance(h, App) and h.args and self.sig.kind(h.symbol) != "pf":
                for parts in self._reduce_args(h.args, store, depth):
                    yield App(h.symbol, parts)
            else:
                yield h

    # ------------------------------------------------------------------
    # unification
    # ------------------------------------------------------------------

    def _pairwise(self, step, xs: tuple, ys: tuple, store: Store, depth: int,
                  i: int = 0) -> Iterator[None]:
        """Run step on each pair (xs[k], ys[k]) in turn, backtracking
        through every combination of their solutions."""
        if i == len(xs):
            yield
            return
        last = i + 1 == len(xs)  # the last pair yields without one more frame
        for _ in step(xs[i], ys[i], store, depth):
            if last:
                yield
            else:
                yield from self._pairwise(step, xs, ys, store, depth, i + 1)

    def _unify_pattern(self, pat: Expr, arg: Expr, store: Store,
                       depth: int) -> Iterator[None]:
        pat = self.walk(store, pat)
        if isinstance(pat, Var):
            # bound to the end of arg's chain, so no chain grows through
            # the pattern variables of nested calls; heads are linear
            mark = len(store.trail)
            if self._bind(store, pat.name, self.walk(store, arg)):
                yield
            store.undo(mark)
            return
        for h in self._hnf(arg, store, depth):
            if isinstance(h, Var):
                mark = len(store.trail)
                if self._bind(store, h.name, pat):
                    yield
                store.undo(mark)
            elif isinstance(pat, Basic):
                if isinstance(h, Basic) and h.value == pat.value:
                    yield
            elif isinstance(pat, App) and isinstance(h, App) \
                    and pat.symbol == h.symbol and len(pat.args) == len(h.args):
                yield from self._pairwise(self._unify_pattern, pat.args, h.args,
                                          store, depth)

    def _occurs(self, store: Store, name: str, e: Expr) -> bool:
        e = self.walk(store, e)
        if isinstance(e, Var):
            return e.name == name
        if isinstance(e, App):
            return any(self._occurs(store, name, a) for a in e.args)
        return False

    def _unify_strict(self, a: Expr, b: Expr, store: Store, depth: int) -> Iterator[None]:
        """Strict equality: both sides evaluate to the same total value.
        A side that already walks to a literal or data is the demand of
        the other side's evaluation (see _hnf)."""
        a, b = self.walk(store, a), self.walk(store, b)
        demand_a, demand_b = _value(b, self.sig), _value(a, self.sig)
        for ha in self._hnf(a, store, depth, demand_a):
            for hb in self._hnf(b, store, depth, demand_b):
                yield from self._unify_heads(ha, hb, store, depth)

    def _unify_heads(self, ha: Expr, hb: Expr, store: Store, depth: int) -> Iterator[None]:
        if isinstance(ha, Var) and isinstance(hb, Var):
            mark = len(store.trail)
            if ha.name == hb.name or self._bind(store, ha.name, hb):
                yield
            store.undo(mark)
            return
        if isinstance(ha, Var) or isinstance(hb, Var):
            v, t = (ha, hb) if isinstance(ha, Var) else (hb, ha)
            mark = len(store.trail)
            if self._is_ground(t):
                # ground data is bound whole, with no occurs check
                if self._bind(store, v.name, t):
                    yield
                store.undo(mark)
                return
            # t is a constructor application: bind to a skeleton and force parts
            if self._occurs(store, v.name, t):
                return
            fresh = tuple(self._fresh_var() for _ in t.args)
            if self._bind(store, v.name, App(t.symbol, fresh)):
                yield from self._pairwise(self._unify_strict, fresh, t.args,
                                          store, depth)
            store.undo(mark)
            return
        if isinstance(ha, Basic) and isinstance(hb, Basic):
            if ha.value == hb.value:
                yield
            return
        if isinstance(ha, App) and isinstance(hb, App) \
                and ha.symbol == hb.symbol and len(ha.args) == len(hb.args):
            if self._is_ground(ha) and self._is_ground(hb):
                if ha is hb:  # canonical ground data: equal when one object
                    yield
                return
            yield from self._pairwise(self._unify_strict, ha.args, hb.args,
                                      store, depth)

    # ------------------------------------------------------------------
    # disequality
    # ------------------------------------------------------------------

    def _disequal(self, a: Expr, b: Expr, store: Store, depth: int) -> Iterator[None]:
        for ha in self._hnf(a, store, depth):
            for hb in self._hnf(b, store, depth):
                verdict = compare_data(ha, hb, self._calls, store.subst)
                if verdict == "diff":
                    yield
                elif verdict == "unknown":
                    mark = len(store.trail)
                    store.push(store.suspended, AtomicConstraint("==", (ha, hb), FALSE))
                    yield
                    store.undo(mark)

    def _check_suspended(self, store: Store) -> bool:
        """Re-examine parked disequations; False on refutation.

        Other parked constraints (outside the decidable fragment) are
        kept as they are, to surface as residuals.
        """
        keep = []
        for c in store.suspended:
            if c.symbol != "==" or c.result is not FALSE:
                keep.append(c)
                continue
            verdict = compare_data(*c.args, self._calls, store.subst)
            if verdict == "same":
                return False
            if verdict == "unknown":
                keep.append(c)
        if len(keep) != len(store.suspended):
            store.set_field("suspended", keep)
        return True

    # ------------------------------------------------------------------
    # constraint solving
    # ------------------------------------------------------------------

    def _solve_all(self, cs, store: Store, depth: int, rule,
                   i: int = 0) -> Iterator[None]:
        """Solve cs[i:] left to right: the conditions of an _Instance of
        the rule with index rule, whose compiled conditions are posted
        from its slots (see _post_condition), or the goal's constraints
        when rule is None (see _bounds_undeclared_qual)."""
        mark = len(store.trail)
        if rule is not None:
            # precompiled conditions are deterministic: post them in a row
            compiled = cs.tpl[4]
            while i < len(compiled) and compiled[i] is not None:
                ok = self._post_condition(store, compiled[i], cs, rule)
                if ok is None:
                    break
                if not (ok and (not store.suspended or self._check_suspended(store))):
                    store.undo(mark)
                    return
                i += 1
        if i == len(cs):
            yield
        else:
            for _ in self._solve_constraint(cs[i], store, depth, rule):
                m = len(store.trail)
                if not store.suspended or self._check_suspended(store):
                    yield from self._solve_all(cs, store, depth, rule, i + 1)
                store.undo(m)
        store.undo(mark)

    def _solve_constraint(self, c: AtomicConstraint, store: Store,
                          depth: int, rule) -> Iterator[None]:
        """Solve c on the general path; rule as in _solve_all."""
        want = self.walk(store, c.result)
        if c.symbol == "==":
            if want == TRUE:
                yield from self._unify_strict(c.args[0], c.args[1], store, depth)
                return
            if want == FALSE:
                yield from self._disequal(c.args[0], c.args[1], store, depth)
                return
            if isinstance(want, Var):
                for outcome, branch in ((TRUE, self._unify_strict),
                                        (FALSE, self._disequal)):
                    for _ in branch(c.args[0], c.args[1], store, depth):
                        mark = len(store.trail)
                        if self._bind(store, want.name, outcome):
                            yield
                        store.undo(mark)
            return
        # primitive constraints: arithmetic relations and qualification bounds
        for args in self._reduce_args(c.args, store, depth):
            names = vars_of(args)
            mark = len(store.trail)
            if not names and all(isinstance(a, (Basic, App)) for a in args):
                try:
                    res = eval_primitive(c.symbol, list(args))
                except Exception:
                    continue
                if res == BOTTOM:
                    continue
                w = self.walk(store, want)
                if isinstance(w, Var):
                    if self._bind(store, w.name, res):
                        yield
                    store.undo(mark)
                elif res == w:
                    yield
                continue
            if want in (TRUE, FALSE) and c.symbol in (*RELS, "qVal", "qBound", "==") \
                    and all(_numeric_expr(a) for a in args):
                compiled = compile_post(AtomicConstraint(c.symbol, args, want))
                declares = c.symbol == "qVal"
                if self._post(store, compiled, vars_of(c), declares, names,
                              rule):
                    yield
                store.undo(mark)
                continue
            # outside the decidable fragment: park it
            store.push(store.suspended, AtomicConstraint(c.symbol, args, want))
            yield
            store.undo(mark)

    # ------------------------------------------------------------------
    # answers
    # ------------------------------------------------------------------

    def solve(self, constraints: list, wvars: list, datavars: list) -> Iterator[Answer]:
        """Enumerate qualified answers for a translated goal conjunction.

        The search runs on one store; each answer gets a snapshot of it.
        It runs under deep_recursion; the caller gets each answer back
        under its own recursion limit.
        """
        search = self._search(tuple(constraints), wvars, datavars)
        try:
            while True:
                with deep_recursion():
                    ans = next(search, None)
                if ans is None:
                    return
                yield ans
        finally:
            with deep_recursion():
                search.close()

    def _search(self, constraints: tuple, wvars: list,
                datavars: list) -> Iterator[Answer]:
        self.cut, self._reasons = set(), _try_reasons(self.program, constraints)
        if self.limits.answers is not None and self.limits.answers < 1:
            return
        emitted = 0
        store = Store(datavars=frozenset(datavars))
        for _ in self._solve_all(constraints, store, self.limits.depth, None):
            mark = len(store.trail)
            ans = None
            if self._check_suspended(store):
                ans = self._answer(store.copy(), wvars, datavars)
            store.undo(mark)
            if ans is None:
                continue
            yield ans
            emitted += 1
            if self.limits.answers is not None and emitted >= self.limits.answers:
                return

    def _answer(self, store: Store, wvars: list, datavars: list) -> Answer:
        subst = {}
        for v in datavars:
            val = self.resolve_result(store, Var(v))
            if not (isinstance(val, Var) and val.name == v):
                subst[v] = val
        qual = {}
        for w in wvars:
            for leaf in leaf_names(w, self.dom):
                root = self.walk(store, Var(leaf))
                if isinstance(root, Var):
                    qual[leaf] = store.ivals.get(root.name, FULL)
                elif isinstance(root, Basic):
                    qual[leaf] = point(root.value)
                else:
                    qual[leaf] = FULL
        flags = []
        if self.cut:
            flags.append("incomplete")
        residual = [self._resolve_constraint(store, c) for c in store.suspended]
        if not store.malformed:  # a malformed answer is flagged as a whole
            residual += self._data_bounds(store)
        if residual:
            flags.append("conditional")
        if store.malformed:
            flags.append("malformed-qual")
        return Answer(subst, qual, residual, flags, store)

    def _data_bounds(self, store: Store) -> list:
        """The posted bounds on data variables that are still unbound,
        whether of the goal (Y <= 0.5) or local to a rule (X * X < 0).
        Interval narrowing does not refute every unsatisfiable set of
        such bounds, so without them the answer would claim that the goal
        holds for every value of the variable, or that some value exists.
        qVal-declared variables are qualification ones, not data."""
        out = []
        for i in store.data_bounds:
            c = self._resolve_constraint(store, _posted(store.qcons[i]))
            if not store.declared.issuperset(vars_of(c)):
                out.append(c)
        return out

    def resolve_result(self, store: Store, e: Expr) -> Expr:
        """Deep resolution through bindings and recorded evaluations."""
        e = self.walk(store, e)
        if isinstance(e, App):
            rec = store.evals.get(id(e))
            if rec is not None and rec.call is e:
                return self.resolve_result(store, rec.result)
            if e.args:
                return App(e.symbol, tuple(self.resolve_result(store, a) for a in e.args))
        return e

    def _resolve_constraint(self, store: Store, c: AtomicConstraint) -> AtomicConstraint:
        return AtomicConstraint(c.symbol,
                                tuple(self.resolve_result(store, a) for a in c.args),
                                self.resolve_result(store, c.result))


# ======================================================================
# Proof replay
# ======================================================================

class ReplayError(ValueError):
    pass


class _HashCons(HashCons):
    """The canonical terms and proof nodes of one solver's replays.

    Each term and node belongs to one table by its content: ground data
    and its proofs against itself to the program's GroundData, shared
    by every solver of the program; variables, bottom, calls, the
    applications that hold them and every other proof node to this one.
    A proof node is keyed by its tag, its rule index, the ids of its
    conclusion's terms, of its theta values (the rule fixes their names)
    and of its children.  Equal parts of the trees of every answer are
    then one object, in one of the two tables, which check_proof decides
    once per program and domain.  The ground data of the rules and goals
    is canonical from the translation on, so replay hands it out as it
    is; only the data that the search built is made canonical here.

    Every table keeps its key objects alive, in the canonical term or
    node it maps to, so no id is reused while the solver lives.
    """

    def __init__(self, data: GroundData):
        super().__init__()
        self.program_data = data
        self.nodes = {}

    def leaf(self, e: Expr) -> Expr:
        if type(e) is Basic or type(e) is App:
            return self.program_data.leaf(e)
        return super().leaf(e)

    def data(self, symbol: str, args: list) -> App:
        """The canonical constructor application of symbol to args: in
        the program's GroundData when every argument is canonical there."""
        program_data = self.program_data
        for a in args:
            if id(a) not in program_data.proofs:
                return self.app(symbol, args)
        return program_data.app(symbol, args)

    def node(self, tag: str, lhs: Expr, rhs: Expr, kids: tuple = (),
             rule_index: Optional[int] = None, theta: tuple = ()) -> ProofTree:
        key = (tag, rule_index, id(lhs), id(rhs), *map(id, kids),
               *[id(v) for _, v in theta])
        tree = self.nodes.get(key)
        if tree is None:
            tree = self.nodes[key] = ProofTree(
                tag, production(lhs, rhs), kids, rule_index, theta)
        return tree

    def atom(self, symbol: str, args: tuple, result: Expr,
             kids: tuple) -> ProofTree:
        key = ("atom", symbol, id(result), *map(id, args), *map(id, kids))
        tree = self.nodes.get(key)
        if tree is None:
            tree = self.nodes[key] = ProofTree(
                "atom", atom_statement(AtomicConstraint(symbol, args, result)),
                kids)
        return tree


class _Replay:
    """Rebuilds qualification-free proof trees from a solved store.

    Qualification variables, those a qVal declared, are instantiated at
    the upper bound of their interval (any point of the box is a
    solution, the bound is the best one); data variables resolve through
    the substitution and stay variables when unbound; calls resolve
    through the recorded reductions, and unevaluated calls denote the
    undefined value on result positions.

    Every term and proof node that replay hands out is canonical in the
    solver's _HashCons, or for ground data in the program's GroundData,
    so structurally equal parts of the trees of all the answers of one
    solver are one object, and replaying a goal again returns the same
    trees.  The ground data of the rules and goals is canonical from the
    translation on, so value and display return it as it is, by one
    identity test, and ground data is proved against itself once per
    program.

    What depends on the store is memoized per answer: value resolves each
    variable and each walked App node once, display each walked App node
    once, and production_tree builds the
    subtree for a walked node and a target once.  Replay is then linear
    in the size of the proof.  This is sound because the store is the
    answer's own snapshot, which replay only reads, and trees and terms
    are immutable.  Each memo is keyed on node identity and keeps its key
    nodes alive next to the result, so an id cannot be reused; keying on
    the terms themselves would hash and compare them structurally, which
    is quadratic again.
    """

    def __init__(self, solver: Solver, store: Store):
        self.solver = solver
        self.store = store
        self.sig = solver.sig
        self.share = solver.hashcons
        self._data = self.share.program_data
        self._values = {}     # id(Var or App) -> (term, value)
        self._shown = {}      # id(App) -> (App, display)
        self._trees = {}      # (id(e), id(target)) -> (e, target, tree)

    def _walk(self, e: Expr) -> Expr:
        return self.solver.walk(self.store, e)

    def value(self, e: Expr) -> Expr:
        """Result-side resolution: a term, with unevaluated calls as bottom."""
        if id(e) in self._data.proofs:
            return e  # canonical ground data is its own value
        hit = self._values.get(id(e))
        if hit is not None:
            return hit[1]
        w = self._walk(e)
        rec = self.store.evals.get(id(w))
        if type(w) is Var:
            iv = self.store.ivals.get(w.name)
            out = self.share.leaf(w if iv is None or w.name not in self.store.declared
                                  else Basic(iv.hi))
        elif w is not e:
            out = self.value(w)
        elif type(e) is not App:
            return self.share.leaf(e)
        elif rec is not None and rec.call is e:
            out = self.value(rec.result)
        elif self.sig.is_data(e.symbol):
            out = self.share.data(e.symbol, [self.value(a) for a in e.args])
        elif self.sig.kind(e.symbol) == "pf":
            try:
                out = self.share.leaf(eval_primitive(
                    e.symbol, [self.value(a) for a in e.args]))
            except Exception:
                out = BOTTOM
        else:
            out = BOTTOM
        self._values[id(e)] = (e, out)
        return out

    def display(self, e: Expr) -> Expr:
        """Left-side resolution: keeps call structure in place, except
        that a variable shows its value, as a rule's theta records it."""
        if id(e) in self._data.proofs:
            return e
        if isinstance(e, Var):
            return self.value(e)
        if not isinstance(e, App):
            return self.share.leaf(e)
        hit = self._shown.get(id(e))
        if hit is not None:
            return hit[1]
        args = [self.display(a) for a in e.args]
        if self.sig.is_data(e.symbol):
            out = self.share.data(e.symbol, args)
        else:
            out = self.share.app(e.symbol, args)
        self._shown[id(e)] = (e, out)
        return out

    def production_tree(self, e: Expr, target: Expr) -> ProofTree:
        # a variable is proved at its value, as it is displayed
        ew = self.value(e) if isinstance(e, Var) else e
        if id(target) in self._data.proofs and self.display(ew) is target:
            return self._data.proof(target)  # ground data, proved per program
        key = (id(ew), id(target))
        hit = self._trees.get(key)
        if hit is not None:
            return hit[2]
        tree = self._production_tree(ew, target)
        self._trees[key] = (ew, target, tree)
        return tree

    def _production_tree(self, ew: Expr, target: Expr) -> ProofTree:
        node = self.share.node
        shown = self.display(ew)
        if isinstance(target, Bottom):
            return node("triv", shown, BOTTOM)
        if isinstance(shown, (Var, Basic)):
            if shown != target:
                raise ReplayError(f"cannot replay {shown!r} to {target!r}")
            return node("refl", shown, target)
        rec = self.store.evals.get(id(ew))
        rec = rec if rec is not None and rec.call is ew else None
        if rec is not None and rec.kind == "fun":
            inst = rec.instance  # its rule variables are sorted, as theta is
            theta = tuple([(orig, self.value(v)) for orig, v in zip(inst.tpl[0], inst.vs)])
            kids = [self.production_tree(arg, self.value(pat))
                    for arg, pat in zip(ew.args, inst.pats)]
            kids.append(self.production_tree(inst.rhs, target))
            kids += [self.atom_tree(inst[j]) for j in range(len(inst))]
            return node("fun", shown, target, tuple(kids), rec.rule_index, theta)
        if ew.symbol in self.sig.pf:
            kids = tuple(self.production_tree(a, self.value(a)) for a in ew.args)
            return node("prim", shown, target, kids)
        if self.sig.is_data(ew.symbol):
            if not (isinstance(target, App) and target.symbol == ew.symbol
                    and len(target.args) == len(ew.args)):
                raise ReplayError(f"constructor mismatch replaying {shown!r}")
            kids = tuple(self.production_tree(a, t)
                         for a, t in zip(ew.args, target.args))
            return node("cons", shown, target, kids)
        raise ReplayError(f"no recorded reduction for {shown!r}")

    def atom_tree(self, c: AtomicConstraint) -> ProofTree:
        kids = tuple(self.production_tree(a, self.value(a)) for a in c.args)
        return self.share.atom(c.symbol, tuple(self.display(a) for a in c.args),
                               self.value(c.result), kids)


def replay_trees(solver: Solver, answer: Answer, constraints: list) -> list:
    """Qualification-free proof trees for every goal constraint of an answer.

    Only meaningful for answers without residual constraints; the trees
    are checkable against the translated program.
    """
    if answer.residual:
        raise ReplayError("conditional answers cannot be replayed")
    r = _Replay(solver, answer.store)
    with deep_recursion():
        return [r.atom_tree(c) for c in constraints]


# ======================================================================
# Rendering
# ======================================================================

# An answer's terms are as deep as the search went, so rendering one
# raises the recursion limit as the search does.

def _printed(ans: Answer) -> tuple:
    """The sorted bindings and the residuals of an answer as they print.

    An answer is defined up to renaming of the variables that the search
    introduced, ~n and ~n~X (variable X of rule instance n).  Each n is
    renumbered by its first occurrence, in the bindings and then in the
    residuals, so no printed name depends on how many fresh numbers the
    search used.  The answer keeps the raw names, which its store knows.
    """
    subst = sorted(ans.subst.items())
    numbers, renamed = {}, {}
    stack = [*reversed(ans.residual), *[t for _, t in reversed(subst)]]
    while stack:  # pre-order, left to right
        e = stack.pop()
        if type(e) is Var and e.name.startswith("~") and e.name not in renamed:
            n, sep, rest = e.name[1:].partition("~")
            renamed[e.name] = Var(f"~{numbers.setdefault(n, len(numbers))}{sep}{rest}")
        elif type(e) is App:
            stack += reversed(e.args)
        elif type(e) is AtomicConstraint:
            stack += reversed((*e.args, e.result))
    if not renamed:
        return subst, ans.residual
    return ([(v, apply_subst(t, renamed)) for v, t in subst],
            apply_subst(ans.residual, renamed))


@deep_recursion()
def render_answer(ans: Answer) -> str:
    subst, residual = _printed(ans)
    parts = []
    if subst:
        inner = ", ".join(f"{v} -> {print_expr(t)}" for v, t in subst)
        parts.append("{ " + inner + " }")
    else:
        parts.append("{ }")
    quals = ", ".join(f"{w} in {iv!r}" for w, iv in sorted(ans.qual.items()))
    parts.append("{ " + quals + " }" if quals else "{ }")
    if residual:
        parts.append("<< " + ", ".join(print_constraint(c) for c in residual) + " >>")
    if ans.flags:
        parts.append("[" + ", ".join(ans.flags) + "]")
    return " ".join(parts)


@deep_recursion()
def answer_record(ans: Answer) -> dict:
    subst, residual = _printed(ans)
    return {
        "subst": {v: print_expr(t) for v, t in subst},
        "qual": {w: {"lo": iv.lo, "hi": iv.hi,
                     "lo_open": iv.lo_open, "hi_open": iv.hi_open}
                 for w, iv in sorted(ans.qual.items())},
        "residual": [print_constraint(c) for c in residual],
        "flags": list(ans.flags),
    }
