"""Translation into qualification-free constrained programs.

Every defined function f of arity n becomes a function f' of arity n+1
whose extra argument threads a qualification variable.  Each call to a
defined function introduces a fresh qualification variable W together
with constraints stating that W is a proper qualification value and
that it cannot exceed the qualification of any nested call.  Rules add
the attenuation factor as an upper bound; goals add the user threshold
as a lower bound.

Every upper bound follows one rule: W gets one bound W <= alpha*Wi per
qualified premise Wi (a call in the rule's right-hand side or
conditions, or nested in a call), and the constant bound W <= alpha
only where there is no premise at all.  No bound that qVal implies is
emitted: qVal(Wi) makes Wi <= 1, so a premise bound already implies
the constant one, and a constant at the top (W <= 1) is left out.

Qualification bounds are lowered to real arithmetic at emission time.
For the certainty lattice a bound "x at most alpha times y" becomes the
constraint x <= alpha*y (the factor is dropped when it is the top).
Product lattices are lowered by variable splitting: a qualification
variable W stands for component variables W.1, W.2, ..., threaded
through calls as a constructor tuple, with every bound emitted
componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .domains import ProductDomain, QualDomain, U
from .syntax import Goal, Program, ProgramRule
from .terms import (App, AtomicConstraint, BUILTIN_PF, Basic, Expr, Signature,
                    TRUE, Var, apply_subst, vars_of)

PAIR_CTOR = "qpair"


class TransformError(ValueError):
    pass


@dataclass
class FreshSupply:
    """Deterministic stream of qualification variable names.

    Names follow the pattern _W<k>; the seed offsets the counter so that
    distinct seeds give distinct streams.  Names already used by the
    source are skipped, which keeps the introduced variables disjoint
    from program variables by construction.
    """

    seed: int = 0
    avoid: set = field(default_factory=set)

    def __post_init__(self):
        self._counter = self.seed

    def fresh(self) -> str:
        while True:
            name = f"_W{self._counter}"
            self._counter += 1
            if name not in self.avoid:
                return name


@dataclass(frozen=True)
class TransformOutput:
    expr: Expr
    constraints: tuple       # qualification constraints, already lowered
    wvars: tuple             # outermost qualification variables of expr


@dataclass
class Emitter:
    """Collects lowered qualification constraints.

    Every emitted constraint gets a site index; a seeded mutation can
    drop one site, which the oracle comparison must then detect.
    """

    dom: QualDomain
    drop_site: Optional[int] = None
    next_site: int = 0
    dropped: bool = False

    def emit(self, constraints: list) -> list:
        out = []
        for c in constraints:
            if self.next_site == self.drop_site:
                self.dropped = True
            else:
                out.append(c)
            self.next_site += 1
        return out


# ======================================================================
# Lowering of qualification constraints to real arithmetic
# ======================================================================

def qual_arg_expr(wname: str, dom: QualDomain) -> Expr:
    """The expression that threads W through a translated call."""
    if isinstance(dom, ProductDomain):
        return App(PAIR_CTOR, (qual_arg_expr(f"{wname}.1", dom.left),
                               qual_arg_expr(f"{wname}.2", dom.right)))
    return Var(wname)


def leaf_names(wname: str, dom: QualDomain) -> list:
    return [wname + suf for suf in dom.leaf_suffixes()]


def lower_qval(wname: str, dom: QualDomain) -> list:
    return [AtomicConstraint("qVal", (Var(n),), TRUE) for n in leaf_names(wname, dom)]


def lower_upper_bound(wname: str, factor, dom: QualDomain, upper: Optional[str]) -> list:
    """Constraints for: W at most factor attenuated with upper.

    upper None means the top value, and then a component at the top
    gives no constraint, as qVal(W) implies it; the factor is a checked
    domain value.
    """
    out = []
    comps = dom.split(factor)
    for name, comp, k in zip(leaf_names(wname, dom),
                             leaf_names(upper, dom) if upper else [None] * len(comps),
                             comps):
        if comp is None:
            if k != 1.0:
                out.append(AtomicConstraint("<=", (Var(name), Basic(k)), TRUE))
        elif k == 1.0:
            out.append(AtomicConstraint("<=", (Var(name), Var(comp)), TRUE))
        else:
            out.append(AtomicConstraint("<=", (Var(name), App("*", (Basic(k), Var(comp)))), TRUE))
    return out


def lower_lower_bound(wname: str, bound, dom: QualDomain) -> list:
    """Constraints for: W at least the given value."""
    return [AtomicConstraint(">=", (Var(n), Basic(k)), TRUE)
            for n, k in zip(leaf_names(wname, dom), dom.split(bound))]


def premise_bounds(wname: str, factor, premises, dom: QualDomain) -> list:
    """Constraints for: W at most factor attenuated with each premise."""
    return [c for w2 in premises for c in lower_upper_bound(wname, factor, dom, w2)]


# ======================================================================
# Expression and constraint translation
# ======================================================================

def primed(symbol: str) -> str:
    return symbol + "'"


def transform_expr(e: Expr, sig: Signature, supply: FreshSupply,
                   em: Emitter) -> TransformOutput:
    dom = em.dom
    if isinstance(e, App):
        kind = sig.kind(e.symbol)
        parts = [transform_expr(a, sig, supply, em) for a in e.args]
        args = tuple(p.expr for p in parts)
        omega = [c for p in parts for c in p.constraints]
        inner = [w for p in parts for w in p.wvars]
        if kind == "df":
            w = supply.fresh()
            omega += em.emit(lower_qval(w, dom) + premise_bounds(w, dom.top(), inner, dom))
            return TransformOutput(App(primed(e.symbol), args + (qual_arg_expr(w, dom),)),
                                   tuple(omega), (w,))
        return TransformOutput(App(e.symbol, args), tuple(omega), tuple(inner))
    return TransformOutput(e, (), ())


def transform_constraint(c: AtomicConstraint, sig: Signature, supply: FreshSupply,
                         em: Emitter) -> tuple:
    """Translate an atomic constraint; returns (constraint, omega, wvars)."""
    parts = [transform_expr(a, sig, supply, em) for a in c.args]
    omega = [x for p in parts for x in p.constraints]
    wvars = [w for p in parts for w in p.wvars]
    return (AtomicConstraint(c.symbol, tuple(p.expr for p in parts), c.result),
            omega, wvars)


# ======================================================================
# Rules, programs, goals
# ======================================================================

def transform_rule(rule: ProgramRule, sig: Signature, supply: FreshSupply,
                   em: Emitter) -> tuple:
    """Translate one rule; returns (rule, introduced qualification vars)."""
    dom = em.dom
    alpha = dom.coerce(rule.attenuation)
    w = supply.fresh()
    head = em.emit(lower_qval(w, dom))
    rhs_out = transform_expr(rule.rhs, sig, supply, em)
    conditions = [*rhs_out.constraints,
                  *em.emit(premise_bounds(w, alpha, rhs_out.wvars, dom))]
    introduced = [w, *rhs_out.wvars]
    for c in rule.conditions:
        c2, omega, wvars = transform_constraint(c, sig, supply, em)
        conditions += [*omega, *em.emit(premise_bounds(w, alpha, wvars, dom)), c2]
        introduced += wvars
    if len(introduced) == 1:
        # no premise, so no site was emitted after qVal(W): alpha alone
        # takes the sites that follow it
        head += em.emit(lower_upper_bound(w, alpha, dom, None))

    new_rule = ProgramRule(primed(rule.name),
                           rule.patterns + (qual_arg_expr(w, dom),),
                           1.0,
                           rhs_out.expr,
                           tuple(head + conditions),
                           line=rule.line)
    return new_rule, introduced


def transform_program(program: Program, dom: QualDomain = U, seed: int = 0,
                      drop_site: Optional[int] = None) -> tuple:
    """Translate a whole program; returns (Program, emit_map list).

    The emit map records, per source rule, the translated rule index and
    the qualification variables introduced for it.
    """
    for name in program.signature.df:
        if name.endswith("'"):
            raise TransformError(
                f"defined symbol {name!r} already lives in the primed namespace; "
                "the program appears to be translated already")
    avoid = set()
    for r in program.rules:
        avoid |= vars_of(r.patterns) | vars_of(r.rhs) | vars_of(r.conditions)
    supply = FreshSupply(seed, avoid)
    em = Emitter(dom, drop_site)

    sig = Signature(dict(program.signature.dc), dict(program.signature.pf),
                    {primed(f): n + 1 for f, n in program.signature.df.items()})
    if isinstance(dom, ProductDomain):
        sig.register_dc(PAIR_CTOR, 2)

    rules = []
    emit_map = []
    for i, r in enumerate(program.rules):
        new_rule, introduced = transform_rule(r, program.signature, supply, em)
        rules.append(new_rule)
        emit_map.append({"source_rule": i, "translated_rule": i,
                         "qual_vars": introduced})
    return Program(sig, rules), emit_map


def transform_goal(goal: Goal, program: Program, dom: QualDomain = U,
                   seed: int = 0) -> tuple:
    """Translate a goal; returns (constraints, goal wvars, data vars)."""
    avoid = set()
    for item in goal.items:
        avoid |= vars_of(item.constraint) | {item.wvar}
    supply = FreshSupply(seed, avoid)
    em = Emitter(dom)
    out = []
    wnames = []
    for item in goal.items:
        c2, omega, wvars = transform_constraint(item.constraint,
                                                program.signature, supply, em)
        out += omega
        out += em.emit(lower_qval(item.wvar, dom)
                       + premise_bounds(item.wvar, dom.top(), wvars, dom))
        if item.threshold is not None:
            out += em.emit(lower_lower_bound(item.wvar, dom.coerce(item.threshold), dom))
        out.append(c2)
        wnames.append(item.wvar)
    datavars = sorted(vars_of(tuple(item.constraint for item in goal.items)))
    return out, wnames, datavars


# ======================================================================
# Constraint simplification (chain collapsing)
# ======================================================================

def _is_qval(c: AtomicConstraint) -> bool:
    return c.symbol == "qVal" and len(c.args) == 1 and isinstance(c.args[0], Var)


def _chain_of(c: AtomicConstraint):
    """For u <= v with both variables, return (u, v)."""
    if c.symbol == "<=" and c.result == TRUE and len(c.args) == 2 \
            and isinstance(c.args[0], Var) and isinstance(c.args[1], Var):
        return (c.args[0].name, c.args[1].name)
    return None


def _occurrences(name: str, obj, acc: list, in_call: bool = False):
    """Collect (in_call,) flags for each occurrence of the variable.

    An occurrence counts as a call argument when the path to it passes
    through an application of a non-primitive symbol.
    """
    if isinstance(obj, Var) and obj.name == name:
        acc.append(in_call)
    elif isinstance(obj, App):
        deeper = in_call or obj.symbol not in BUILTIN_PF
        for a in obj.args:
            _occurrences(name, a, acc, deeper)
    elif isinstance(obj, AtomicConstraint):
        for a in obj.args:
            _occurrences(name, a, acc, in_call)
        _occurrences(name, obj.result, acc, in_call)


def simplify_constraints(constraints: list) -> list:
    """Collapse single-use qualification chains.

    A variable v is eliminated when its only occurrences are one qVal(v),
    one chain u <= v with no factor, and one call argument position; v is
    then renamed to u and the now-trivial constraints are dropped.  The
    pass runs to a fixpoint and is the identity elsewhere.
    """
    items = list(constraints)
    changed = True
    while changed:
        changed = False
        chains = {}
        for idx, c in enumerate(items):
            ch = _chain_of(c)
            if ch:
                chains.setdefault(ch[1], []).append((idx, ch[0]))
        for v, uses in chains.items():
            if len(uses) != 1:
                continue
            chain_idx, u = uses[0]
            qval_idx = [i for i, c in enumerate(items)
                        if _is_qval(c) and c.args[0].name == v]
            if len(qval_idx) != 1:
                continue
            other = []
            for i, c in enumerate(items):
                if i in (chain_idx, qval_idx[0]):
                    continue
                occ: list = []
                _occurrences(v, c, occ)
                other += occ
            if len(other) != 1 or other[0] is not True:
                continue
            items = [c for i, c in enumerate(items) if i != chain_idx]
            items = [apply_subst(c, {v: Var(u)}) for c in items]
            # the renamed qVal may now duplicate an existing one
            seen = set()
            deduped = []
            for c in items:
                if _is_qval(c):
                    key = c.args[0].name
                    if key in seen:
                        continue
                    seen.add(key)
                deduped.append(c)
            items = deduped
            changed = True
            break
    return items


def simplify_rule(rule: ProgramRule) -> ProgramRule:
    """Chain collapsing inside one translated rule."""
    carrier = AtomicConstraint("==", (rule.rhs, TRUE), TRUE)
    items = simplify_constraints(list(rule.conditions) + [carrier])
    new_rhs = items[-1].args[0]
    return ProgramRule(rule.name, rule.patterns, rule.attenuation,
                       new_rhs, tuple(items[:-1]), line=rule.line)
