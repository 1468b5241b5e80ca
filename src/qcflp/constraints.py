"""Primitive constraint solving over the reals.

The engine is deliberately incomplete but sound: it decides conjunctions
of arithmetic comparison constraints by interval propagation over a box
of per-variable intervals (with open/closed bounds); an atom with no
variable, such as a (dis)equality of constructor data, is decided by
evaluating it.  Everything outside that fragment answers "unknown".

satisfiable is the one decision procedure: unsat comes from a false
ground atom or from propagation, and sampling points of the propagated
box only finds witnesses for sat.  entails(H, c) asks it whether H
together with the negation of c is satisfiable (the CLP(R) reduction):
unsat for every atom of the negation means entailed, and a sat witness
is a counterexample.

Interval is the package's one interval type, and propagate_from is its
one propagator: a worklist over compiled constraints that both the
solver's interval store and propagate run, until nothing changes or for
at most PROPAGATION_GUARD steps.  Narrowing rounds outward: a derived
bound is exact in floats or moved an ulp away from the solutions.

Primitive evaluation follows the usual strictness discipline: a result
is undefined (bottom) whenever a demanded argument is undefined, and any
defined result is a literal or a nullary constructor.  Strict equality
(terms.compare_data) returns false as soon as a constructor clash is
detectable, true only on identical total values.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .terms import (App, AtomicConstraint, Basic, Bottom, Expr, FALSE, TRUE,
                    Var, BOTTOM, BUILTIN_PF, compare_data, format_real, vars_of)

INF = math.inf

ARITH = {"+", "-", "*"}
RELS = {"<=", "<", ">=", ">"}
# the comparison that holds exactly when the key does not
FLIP = {"<=": ">", "<": ">=", ">=": "<", ">": "<="}

# narrowing steps after which one propagation gives up; the box it stops
# at is still an over-approximation of the solutions
PROPAGATION_GUARD = 20000
# satisfiable tries at most SEARCH_TRIES candidate valuations,
# drawn with a fixed seed so that their verdicts and witnesses repeat
SEARCH_SEED = 0
SEARCH_TRIES = 400


# strict equality's value for each verdict of terms.compare_data
_TRUTH = {"same": TRUE, "diff": FALSE, "unknown": BOTTOM}


class PrimitiveError(ValueError):
    """A non-primitive symbol was handed to the primitive evaluator."""


# ======================================================================
# Ground evaluation of primitives
# ======================================================================

def eval_primitive(symbol: str, args: list) -> Expr:
    """Interpretation of a primitive symbol on ground arguments.

    Arguments may contain bottoms; the result is then bottom unless the
    constraint is decidable regardless (a detectable clash under strict
    equality).  Ill-sorted applications also denote bottom.
    """
    if symbol not in BUILTIN_PF:
        raise PrimitiveError(f"not a primitive symbol: {symbol!r}")
    if symbol == "==":
        # the arguments are evaluated, so only a primitive application,
        # such as X + 1 over an unbound X, is not data in them
        return _TRUTH[compare_data(args[0], args[1], BUILTIN_PF)]
    if symbol == "qVal":
        a = args[0]
        if isinstance(a, Basic):
            return TRUE if 0.0 < a.value <= 1.0 else FALSE
        return BOTTOM
    if symbol == "qBound":
        if all(isinstance(a, Basic) for a in args):
            x, y, z = (a.value for a in args)
            return TRUE if x <= y * z else FALSE
        return BOTTOM
    # arithmetic and comparisons need numeric arguments
    if not all(isinstance(a, Basic) for a in args):
        return BOTTOM
    x, y = args[0].value, args[1].value
    if symbol == "+":
        return Basic(x + y)
    if symbol == "-":
        return Basic(x - y)
    if symbol == "*":
        return Basic(x * y)
    if symbol == "<=":
        return TRUE if x <= y else FALSE
    if symbol == "<":
        return TRUE if x < y else FALSE
    if symbol == ">=":
        return TRUE if x >= y else FALSE
    if symbol == ">":
        return TRUE if x > y else FALSE
    raise PrimitiveError(symbol)


# ======================================================================
# Intervals with open/closed bounds
# ======================================================================

class Interval(NamedTuple):
    lo: float = -INF
    hi: float = INF
    lo_open: bool = False
    hi_open: bool = False

    def is_empty(self) -> bool:
        return self.lo > self.hi or (self.lo == self.hi and (self.lo_open or self.hi_open))

    def contains(self, x: float) -> bool:
        if x < self.lo or (x == self.lo and self.lo_open):
            return False
        if x > self.hi or (x == self.hi and self.hi_open):
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        if other.lo > self.lo or (other.lo == self.lo and other.lo_open):
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open
        if other.hi < self.hi or (other.hi == self.hi and other.hi_open):
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def __repr__(self):
        """A closed point prints as its number; an infinite bound prints open."""
        if self.lo == self.hi and not (self.lo_open or self.hi_open):
            return format_real(self.lo)
        l = "(" if self.lo_open or self.lo == -INF else "["
        r = ")" if self.hi_open or self.hi == INF else "]"
        return f"{l}{format_real(self.lo)}, {format_real(self.hi)}{r}"


FULL = Interval()
_new_tuple = tuple.__new__   # builds an Interval from its 4 fields directly


def point(x: float) -> Interval:
    return Interval(x, x)


def iv_add(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo + b.lo, a.hi + b.hi,
                    a.lo_open or b.lo_open, a.hi_open or b.hi_open)


def iv_sub(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo - b.hi, a.hi - b.lo,
                    a.lo_open or b.hi_open, a.hi_open or b.lo_open)


def _mul_bound(x: float, xo: bool, y: float, yo: bool):
    # a closed zero factor attains 0 whatever the other factor is
    if (x == 0.0 and not xo) or (y == 0.0 and not yo):
        return (0.0, False)
    # 0 * inf reads as 0 for bound candidates
    if (x == 0.0 and math.isinf(y)) or (y == 0.0 and math.isinf(x)):
        return (0.0, True)
    return (x * y, xo or yo)


def iv_mul(a: Interval, b: Interval) -> Interval:
    cands = [_mul_bound(x, xo, y, yo)
             for (x, xo) in ((a.lo, a.lo_open), (a.hi, a.hi_open))
             for (y, yo) in ((b.lo, b.lo_open), (b.hi, b.hi_open))]
    lo = min(v for v, _ in cands)
    hi = max(v for v, _ in cands)
    # a bound is open only when every candidate achieving it is open
    lo_open = all(o for v, o in cands if v == lo)
    hi_open = all(o for v, o in cands if v == hi)
    return Interval(lo, hi, lo_open, hi_open)


def iv_div(a: Interval, b: Interval) -> Optional[Interval]:
    """a / b, or None when b straddles zero (no sound single interval)."""
    if b.contains(0.0) or b.lo < 0.0 < b.hi:
        return None
    inv_cands = []
    for (y, yo) in ((b.lo, b.lo_open), (b.hi, b.hi_open)):
        if y == 0.0:
            inv_cands.append((math.copysign(INF, b.lo + b.hi), True))
        elif math.isinf(y):
            inv_cands.append((0.0, True))
        else:
            inv_cands.append((1.0 / y, yo))
    lo = min(v for v, _ in inv_cands)
    hi = max(v for v, _ in inv_cands)
    inv = Interval(lo, hi,
                   all(o for v, o in inv_cands if v == lo),
                   all(o for v, o in inv_cands if v == hi))
    return iv_mul(a, inv)


# ======================================================================
# Boxes: forward evaluation, backward narrowing
# ======================================================================

Box = dict  # var name -> Interval


def _numeric_expr(e: Expr) -> bool:
    if isinstance(e, (Basic, Var)):
        return True
    if isinstance(e, App) and e.symbol in ARITH and len(e.args) == 2:
        return all(_numeric_expr(a) for a in e.args)
    return False


def eval_box(e: Expr, box: Box) -> Optional[Interval]:
    """Interval enclosing the values of a numeric expression over the box."""
    if isinstance(e, Basic):
        return point(e.value)
    if isinstance(e, Var):
        return box.get(e.name, FULL)
    if isinstance(e, App) and e.symbol in ARITH and len(e.args) == 2:
        a = eval_box(e.args[0], box)
        b = eval_box(e.args[1], box)
        if a is None or b is None:
            return None
        if e.symbol == "+":
            return iv_add(a, b)
        if e.symbol == "-":
            return iv_sub(a, b)
        return iv_mul(a, b)
    return None


def _widen(iv: Interval) -> Interval:
    """iv one ulp wider on each finite side.

    A target derived by float arithmetic may have rounded inward past a
    solution; the widened one keeps it.
    """
    return Interval(math.nextafter(iv.lo, -INF), math.nextafter(iv.hi, INF),
                    iv.lo_open, iv.hi_open)


def narrow(e: Expr, target: Interval, box: Box) -> bool:
    """Intersect the values of e with target, narrowing box variables.

    Returns False when the constraint is certainly unsatisfiable over the
    box.  Narrowing descends only through single paths, which is sound
    regardless of repeated variables; the target of an operation and each
    one derived from it for an argument are rounded outward.
    """
    cur = eval_box(e, box)
    if cur is None:
        return True  # not a numeric expression here; nothing to do
    new = cur.intersect(target)
    if new.is_empty():
        return False
    if isinstance(e, Var):
        box[e.name] = new
        return True
    if isinstance(e, App) and e.symbol in ARITH:
        a, b = e.args
        ib = eval_box(b, box) or FULL
        new = _widen(new)  # e's float value may have rounded into it
        if e.symbol == "+":
            return narrow(a, _widen(iv_sub(new, ib)), box) and \
                narrow(b, _widen(iv_sub(new, eval_box(a, box) or FULL)), box)
        if e.symbol == "-":
            return narrow(a, _widen(iv_add(new, ib)), box) and \
                narrow(b, _widen(iv_sub(eval_box(a, box) or FULL, new)), box)
        ta = iv_div(new, ib)
        if ta is not None and not narrow(a, _widen(ta), box):
            return False
        tb = iv_div(new, eval_box(a, box) or FULL)
        return tb is None or narrow(b, _widen(tb), box)
    return True


def _rel_enforce(symbol: str, lhs: Expr, rhs: Expr, box: Box) -> Optional[bool]:
    """Narrow box so that lhs symbol rhs holds; None means inconsistent."""
    if symbol in (">=", ">"):
        lhs, rhs = rhs, lhs
        symbol = "<=" if symbol == ">=" else "<"
    il = eval_box(lhs, box)
    ir = eval_box(rhs, box)
    if il is None or ir is None:
        return False  # outside the fragment, no narrowing
    strict = symbol == "<"
    if not narrow(lhs, Interval(-INF, ir.hi, False, ir.hi_open or strict), box):
        return None
    il = eval_box(lhs, box) or FULL
    if not narrow(rhs, Interval(il.lo, INF, il.lo_open or strict, False), box):
        return None
    return True


def _constraint_step(c: AtomicConstraint, box: Box) -> Optional[bool]:
    """One propagation pass for c over box.

    Returns None on detected inconsistency, True if the constraint was
    handled by the box fragment, False if it is outside the fragment.
    """
    want = c.result
    if c.symbol == "qVal" and want == TRUE:
        return None if not narrow(c.args[0], Interval(0.0, 1.0, True, False), box) else True
    if c.symbol == "qBound" and want == TRUE:
        x, y, z = c.args
        return _rel_enforce("<=", x, App("*", (y, z)), box)
    if c.symbol in RELS:
        if want == TRUE:
            return _rel_enforce(c.symbol, c.args[0], c.args[1], box)
        if want == FALSE:
            return _rel_enforce(FLIP[c.symbol], c.args[0], c.args[1], box)
        return False
    if c.symbol == "==" and want in (TRUE, FALSE) \
            and _numeric_expr(c.args[0]) and _numeric_expr(c.args[1]):
        a, b = c.args
        ia, ib = eval_box(a, box), eval_box(b, box)
        if want == TRUE:
            both = ia.intersect(ib)
            if both.is_empty():
                return None
            if not narrow(a, both, box) or not narrow(b, both, box):
                return None
            return True
        # disequality: refuted only by two equal closed points
        if ia.lo == ia.hi == ib.lo == ib.hi and not (ia.lo_open or ib.lo_open):
            return None
        return True
    return False


# ======================================================================
# Compiled constraints and the worklist propagator
# ======================================================================
#
# A constraint compiles to ("qval", x), to a monomial bound
# ("mono", strict, L, R) meaning L < R or L <= R with each side (k, var
# name) or (value, None), or else to ("generic", c), one step of the box
# engine above.  Steps walk names through a substitution and write each
# narrowed interval through the caller's write function, so the solver
# can log it on its undo trail.

def _div_down(x: float, k: float) -> float:
    """x / k, rounded one step toward minus infinity.

    Derived lower bounds must not exceed their exact real value, or a
    threshold equal to a representable product of factors would cut the
    very branch that produced it.
    """
    if k == 1.0:
        return x
    out = x / k
    if out in (INF, -INF):
        return out
    return math.nextafter(out, -INF)


def _monomial(e: Expr, key):
    """(coefficient, key(var name)), or (value, None) for a constant; or None."""
    if isinstance(e, Basic):
        return (e.value, None)
    if isinstance(e, Var):
        return (1.0, key(e.name))
    if isinstance(e, App) and e.symbol == "*" and len(e.args) == 2:
        a, b = e.args
        if isinstance(a, Basic) and isinstance(b, Var) and a.value > 0:
            return (a.value, key(b.name))
        if isinstance(b, Basic) and isinstance(a, Var) and b.value > 0:
            return (b.value, key(a.name))
    return None


def compile_bound(c: AtomicConstraint, key):
    """("qval", x) or ("mono", strict, L, R) for c, with each variable
    name mapped through key; None for anything else."""
    sym, want = c.symbol, c.result
    if sym == "qVal":
        if want == TRUE and isinstance(c.args[0], Var):
            return ("qval", key(c.args[0].name))
        return None
    if sym not in RELS or want not in (TRUE, FALSE):
        return None
    if want == FALSE:
        sym = FLIP[sym]
    lhs, rhs = c.args
    if sym in (">=", ">"):
        lhs, rhs = rhs, lhs
    L, R = _monomial(lhs, key), _monomial(rhs, key)
    if L is None or R is None:
        return None
    return ("mono", sym in ("<", ">"), L, R)


def compile_post(c: AtomicConstraint):
    """The compiled form of c, ("generic", c) outside the bound shapes."""
    return compile_bound(c, str) or ("generic", c)  # str: names as they are


def walk_name(subst: dict, name: str):
    """The root name a variable name is bound through, or its non-variable value."""
    v = subst.get(name)
    while v is not None:
        if type(v) is not Var:
            return v
        name = v.name
        v = subst.get(name)
    return name


def walk_side(subst: dict, side):
    """A compiled monomial side (k, name) with name walked to its root.

    A side whose variable is bound to a literal becomes the constant
    (k * value, None); None when it is bound to anything else.  A side
    already at its root is returned as is.
    """
    name = side[1]
    if name is None or name not in subst:
        return side
    v = walk_name(subst, name)
    if type(v) is str:
        return (side[0], v)
    if type(v) is Basic:
        return (side[0] * v.value, None)
    return None


def _resolve(subst: dict, e: Expr) -> Expr:
    """Deep substitution walk; keeps unevaluated calls in place."""
    while isinstance(e, Var) and e.name in subst:
        e = subst[e.name]
    if isinstance(e, App) and e.args:
        return App(e.symbol, tuple(_resolve(subst, a) for a in e.args))
    return e


def tighten(iv: Interval, lo=None, lo_open=False, hi=None, hi_open=False):
    """iv with the given bounds put in where they are tighter than its
    own, which may leave it empty; None when neither is tighter.

    No tolerance is applied: runaway ulp chains are cut by the
    propagation step guard instead.
    """
    clo, chi, clo_o, chi_o = iv
    changed = False
    if lo is not None:
        if lo > clo:
            clo, clo_o = lo, lo_open
            changed = True
        elif lo == clo and lo_open and not clo_o:
            clo_o = True
            changed = True
    if hi is not None:
        if hi < chi:
            chi, chi_o = hi, hi_open
            changed = True
        elif hi == chi and hi_open and not chi_o:
            chi_o = True
            changed = True
    if not changed:
        return None
    return _new_tuple(Interval, (clo, chi, clo_o, chi_o))


def narrow_bound(ivals: dict, write, name: str, lo=None, lo_open=False,
                 hi=None, hi_open=False):
    """Tighten one bound of name to the given value (see tighten);
    'fail', 'changed' or 'same'."""
    iv = tighten(ivals.get(name, FULL), lo, lo_open, hi, hi_open)
    if iv is None:
        return "same"
    if iv.is_empty():
        return "fail"
    write(name, iv)
    return "changed"


_ONE = Interval(1.0, 1.0)


def _step(con, ivals: dict, subst: dict, write):
    """One propagation step; None on failure, else the changed roots."""
    if con[0] == "mono":
        _, strict, L, R = con
        L = walk_side(subst, L)
        R = walk_side(subst, R)
        if L is None or R is None:
            return None
        kl, lx = L
        kr, ry = R
        if lx is None and ry is None:
            return () if (kl < kr if strict else kl <= kr) else None
        # a constant side k reads as k times the point 1
        xlo, _, xlo_o, _ = _ONE if lx is None else ivals.get(lx, FULL)
        _, yhi, _, yhi_o = _ONE if ry is None else ivals.get(ry, FULL)
        changed = ()
        if lx is not None and yhi != INF:
            # x <= kr*y/kl: exact in floats for kl == 1, else rounded up
            hi = kr * yhi if kl == 1.0 else math.nextafter(kr * yhi / kl, INF)
            r = narrow_bound(ivals, write, lx, hi=hi, hi_open=yhi_o or strict)
            if r == "fail":
                return None
            if r == "changed":
                changed = (lx,)
        if ry is not None and xlo != -INF:
            r = narrow_bound(ivals, write, ry, lo=_div_down(kl * xlo, kr),
                             lo_open=xlo_o or strict)
            if r == "fail":
                return None
            if r == "changed" and ry not in changed:
                changed += (ry,)
        return changed
    c = con[1]
    resolved = AtomicConstraint(
        c.symbol, tuple(_resolve(subst, a) for a in c.args),
        _resolve(subst, c.result))
    box = {n: ivals[n] for n in vars_of(resolved) if n in ivals}
    if _constraint_step(resolved, box) is None:
        return None
    changed = []
    for n, iv in box.items():
        if iv.is_empty():
            return None
        if ivals.get(n, FULL) != iv:
            write(n, iv)
            changed.append(n)
    return changed


def propagate_from(cons: list, index: dict, ivals: dict, subst: dict,
                   write, seeds) -> tuple:
    """Worklist propagation of compiled constraints from the seed ids.

    index maps a root name to the ids of the constraints that watch it.
    Returns (ok, steps, guard_hit): ok is False when some interval
    empties; a run that reaches PROPAGATION_GUARD steps stops where it
    is, and its intervals may still violate a constraint.
    """
    queue = list(seeds)
    steps = 0
    while queue:
        if steps == PROPAGATION_GUARD:
            return True, steps, True
        steps += 1
        idx = queue.pop()
        changed = _step(cons[idx], ivals, subst, write)
        if changed is None:
            return False, steps, False
        for name in changed:
            for j in index.get(name, ()):
                if j != idx:
                    queue.append(j)
    return True, steps, False


def propagate(constraints, box: Box) -> Optional[Box]:
    """Narrow box by all constraints; None means unsatisfiable.

    Each qVal(X) narrows X to (0, 1] on the spot; every other constraint
    is compiled, indexed by its variables and seeded once.  Every
    variable of a numeric constraint gets an entry.
    """
    cons, index = [], {}
    write = box.__setitem__
    for c in constraints:
        names = vars_of(c)
        if all(_numeric_expr(a) for a in c.args):
            for n in names:
                box.setdefault(n, FULL)
        con = compile_post(c)
        if con[0] == "qval":
            if narrow_bound(box, write, con[1], 0.0, True, 1.0) == "fail":
                return None
            continue
        for n in names:
            index.setdefault(n, []).append(len(cons))
        cons.append(con)
    ok, _, _ = propagate_from(cons, index, box, {}, write, range(len(cons)))
    return box if ok else None


# ======================================================================
# Ground truth of a constraint under a valuation
# ======================================================================

def _eval_ground_expr(e: Expr, val: dict) -> Expr:
    if isinstance(e, Var):
        if e.name not in val:
            return BOTTOM
        v = val[e.name]
        return Basic(v) if isinstance(v, float) else v
    if isinstance(e, App) and e.symbol in BUILTIN_PF:
        return eval_primitive(e.symbol, [_eval_ground_expr(a, val) for a in e.args])
    if isinstance(e, App) and e.args:
        return App(e.symbol, tuple(_eval_ground_expr(a, val) for a in e.args))
    return e


def holds_under(c: AtomicConstraint, val: dict) -> Optional[bool]:
    """Truth of the constraint under a (possibly partial) valuation."""
    args = [_eval_ground_expr(a, val) for a in c.args]
    res = eval_primitive(c.symbol, args) if c.symbol in BUILTIN_PF else None
    if res is None:
        return None
    want = _eval_ground_expr(c.result, val)
    if res == BOTTOM or isinstance(want, (Bottom, Var)):
        return None
    return res == want


# ======================================================================
# Satisfiability and entailment verdicts
# ======================================================================

@dataclass(frozen=True)
class SatResult:
    """unsat is proved by propagation; sat carries a witness under which
    every constraint holds; unknown is neither."""
    status: str                      # "sat" | "unsat" | "unknown"
    witness: Optional[dict] = None   # var -> float (or Expr for data)


@dataclass(frozen=True)
class EntailResult:
    status: str                      # "entailed" | "not_entailed" | "unknown"
    witness: Optional[dict] = None


def _pick_point(iv: Interval) -> float:
    if iv.hi != INF and not iv.hi_open:
        return iv.hi
    if iv.lo != -INF and not iv.lo_open:
        return iv.lo
    if iv.lo != -INF and iv.hi != INF:
        return (iv.lo + iv.hi) / 2.0
    if iv.hi != INF:
        return iv.hi - 1.0
    if iv.lo != -INF:
        return iv.lo + 1.0
    return 0.0


def _candidate_points(iv: Interval, rng: random.Random, n: int = 3):
    cands = [_pick_point(iv)]
    if iv.lo != -INF and iv.hi != INF:
        cands.append((iv.lo + iv.hi) / 2.0)
        if not iv.lo_open:
            cands.append(iv.lo)
        if not iv.hi_open:
            cands.append(iv.hi)
        for _ in range(n):
            cands.append(rng.uniform(iv.lo, iv.hi))
    elif iv.hi != INF:
        cands += [iv.hi - 1.0, iv.hi - 0.5, iv.hi - rng.uniform(1.0, 10.0)]
        if not iv.hi_open:
            cands.append(iv.hi)
    elif iv.lo != -INF:
        cands += [iv.lo + 1.0, iv.lo + 0.5, iv.lo + rng.uniform(1.0, 10.0)]
        if not iv.lo_open:
            cands.append(iv.lo)
    else:
        cands += [0.0, 1.0, -1.0, rng.uniform(-10.0, 10.0)]
    return [c for c in cands if iv.contains(c)]


def satisfiable(constraints) -> SatResult:
    """Sound three-valued satisfiability of a primitive constraint set.

    unsat when a ground constraint fails or propagation empties an
    interval.  Otherwise the first of at most SEARCH_TRIES valuations,
    each drawing every variable from candidate points of its propagated
    interval, under which every constraint holds is a sat witness; with
    none, the verdict is unknown.  Sampling only finds witnesses: it
    never decides unsat.
    """
    constraints = list(constraints)
    if any(not vars_of(c) and holds_under(c, {}) is False for c in constraints):
        return SatResult("unsat")
    box = propagate(constraints, {})
    if box is None:
        return SatResult("unsat")
    names = sorted(set().union(*map(vars_of, constraints)))
    rng = random.Random(SEARCH_SEED)
    columns = [_candidate_points(box.get(n, FULL), rng) or [0.0] for n in names]
    for combo in itertools.islice(itertools.product(*columns), SEARCH_TRIES):
        val = dict(zip(names, combo))
        if all(holds_under(c, val) is True for c in constraints):
            return SatResult("sat", val)
    return SatResult("unknown")


def _data(exprs) -> bool:
    """Whether exprs hold no bottom, no primitive application and no
    variable: then each is its own value."""
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if type(e) is App:
            if e.args:
                if e.symbol in BUILTIN_PF:
                    return False
                stack += e.args
        elif type(e) is not Basic:
            return False
    return True


def _negation(c: AtomicConstraint) -> list:
    """Atoms one of which holds under a valuation exactly when c fails."""
    if c.symbol == "qVal" and c.result == TRUE:
        x = c.args[0]
        return [AtomicConstraint("<=", (x, Basic(0.0)), TRUE),
                AtomicConstraint(">", (x, Basic(1.0)), TRUE)]
    if c.symbol not in ARITH and c.result in (TRUE, FALSE):
        return [AtomicConstraint(c.symbol, c.args,
                                 FALSE if c.result == TRUE else TRUE)]
    return [AtomicConstraint("==", (App(c.symbol, c.args), c.result), FALSE)]


def entails(constraints, c: AtomicConstraint) -> EntailResult:
    """Sound three-valued entailment of one constraint by a set.

    An identity t == t over data, variables allowed (compare_data says
    same), is entailed at once.  An atom over ground data, such as the
    checker's comparison of two records, is decided first by one
    evaluation: it is entailed when it holds.  Otherwise the hypotheses entail c exactly
    when they are unsatisfiable together with each atom of c's negation:
    one sat verdict is a counterexample, and any unknown one leaves the
    entailment unknown.
    """
    constraints = list(constraints)
    if BUILTIN_PF.get(c.symbol) == len(c.args):
        if c.symbol == "==" and c.result == TRUE \
                and compare_data(*c.args, BUILTIN_PF) == "same":
            return EntailResult("entailed")
        if _data((*c.args, c.result)):
            res = eval_primitive(c.symbol, list(c.args))
            if res == c.result:
                return EntailResult("entailed")
            if not constraints:
                return EntailResult("unknown") if res == BOTTOM \
                    else EntailResult("not_entailed", {})
    verdicts = set()
    for neg in _negation(c):
        res = satisfiable([*constraints, neg])
        if res.status == "sat":
            return EntailResult("not_entailed", res.witness)
        verdicts.add(res.status)
    return EntailResult("entailed" if verdicts == {"unsat"} else "unknown")
