"""Core term language: expressions, signatures, substitutions, constraints.

Expressions are applicative first-order terms over a signature of data
constructors, primitive functions and defined functions, extended with a
distinguished undefined value (bottom) and real-valued literals.  A
(constructor) term is an expression whose applications use constructors
only; patterns and computed results are terms.

The information ordering makes bottom the least element and compares
everything else structurally; it is the ordering in which partial results
approximate total ones.

Atomic constraints pair a primitive symbol with argument expressions and
an expected result (a variable, a nullary constructor or a literal).
Constraint sets are finite conjunctions of atomic constraints.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union


# ======================================================================
# Expressions
# ======================================================================

@dataclass(frozen=True)
class Bottom:
    def __repr__(self):
        return "_|_"


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Basic:
    value: float

    def __repr__(self):
        return format_real(self.value)


@dataclass(frozen=True, slots=True)
class App:
    symbol: str
    args: tuple = ()

    def __repr__(self):
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(map(repr, self.args))})"


Expr = Union[Bottom, Var, Basic, App]

BOTTOM = Bottom()
TRUE = App("true")
FALSE = App("false")
NIL = App("[]")


def cons(head: Expr, tail: Expr) -> App:
    return App(":", (head, tail))


def mklist(items: Iterable[Expr]) -> Expr:
    out: Expr = NIL
    for item in reversed(list(items)):
        out = cons(item, out)
    return out


def mkstring(text: str) -> Expr:
    return mklist([char_atom(c) for c in text])


def char_atom(c: str) -> App:
    return App(f"'{c}'")


def is_char_atom(e: Expr) -> bool:
    return isinstance(e, App) and not e.args and len(e.symbol) >= 3 \
        and e.symbol[0] == "'" and e.symbol[-1] == "'"


def format_real(x: float) -> str:
    if abs(x) < 1e15 and x == int(x):
        return str(int(x))
    return repr(x)


class HashCons:
    """A table of canonical terms: one object per distinct term.

    A term is canonical when it is the one object of its structure in
    the table: an application is keyed by its symbol and the ids of its
    canonical arguments, a literal by its value, as the solver compares
    literals (1 and 1.0 are one term; the parser reads every number as a
    float), a nullary application, a variable or bottom by its value.
    Equality tests on canonical terms of one table then stop at
    identity.  The table keeps every key object alive, in the canonical
    term it maps to, so no id is reused while the table lives
    (Filliâtre & Conchon, "Type-safe modular hash-consing", 2006).
    """

    def __init__(self):
        self.terms = {}

    def added(self, e: Expr) -> None:
        """Called once with each canonical term as it enters the table,
        for a subclass that keeps something per term."""

    def leaf(self, e: Expr) -> Expr:
        """The canonical literal, variable, bottom or nullary application."""
        key = (Basic, e.value) if type(e) is Basic \
            else (e.symbol,) if type(e) is App else e
        out = self.terms.get(key)
        if out is None:
            out = self.terms[key] = e
            self.added(e)
        return out

    def app(self, symbol: str, args=()) -> App:
        """The canonical application of symbol to canonical args."""
        key = (symbol, *map(id, args))
        out = self.terms.get(key)
        if out is None:
            out = self.terms[key] = App(symbol, tuple(args))
            self.added(out)
        return out


# ======================================================================
# Signatures
# ======================================================================

BUILTIN_DC = {"true": 0, "false": 0, "[]": 0, ":": 2}
BUILTIN_PF = {"+": 2, "-": 2, "*": 2,
              "<=": 2, "<": 2, ">=": 2, ">": 2,
              "==": 2, "qVal": 1, "qBound": 3}


class SignatureError(ValueError):
    pass


@dataclass
class Signature:
    """Symbol table: constructor, primitive and defined-function arities.

    The three families are kept disjoint.  Character atoms (quoted single
    characters) are implicitly nullary constructors and need not be
    registered.
    """

    dc: dict = field(default_factory=lambda: dict(BUILTIN_DC))
    pf: dict = field(default_factory=lambda: dict(BUILTIN_PF))
    df: dict = field(default_factory=dict)

    def kind(self, symbol: str) -> Optional[str]:
        if symbol in self.dc or (len(symbol) >= 3 and symbol[0] == "'"):
            return "dc"
        if symbol in self.pf:
            return "pf"
        if symbol in self.df:
            return "df"
        return None

    def is_data(self, symbol: str) -> bool:
        """Whether symbol builds data: it is neither primitive nor
        defined, so a declared or an undeclared constructor."""
        return symbol not in self.pf and symbol not in self.df

    def arity(self, symbol: str) -> int:
        for table in (self.dc, self.pf, self.df):
            if symbol in table:
                return table[symbol]
        if len(symbol) >= 3 and symbol[0] == "'":
            return 0
        raise SignatureError(f"unknown symbol {symbol!r}")

    def register_dc(self, symbol: str, arity: int) -> None:
        if symbol in self.pf or symbol in self.df:
            raise SignatureError(f"symbol {symbol!r} already used with a different role")
        old = self.dc.get(symbol)
        if old is not None and old != arity:
            raise SignatureError(f"constructor {symbol!r} used with arities {old} and {arity}")
        self.dc[symbol] = arity

    def register_df(self, symbol: str, arity: int) -> None:
        if symbol in self.pf or symbol in self.dc:
            raise SignatureError(f"symbol {symbol!r} already used with a different role")
        old = self.df.get(symbol)
        if old is not None and old != arity:
            raise SignatureError(f"function {symbol!r} defined with arities {old} and {arity}")
        self.df[symbol] = arity

    def __eq__(self, other):
        return isinstance(other, Signature) and self.dc == other.dc \
            and self.pf == other.pf and self.df == other.df


# ======================================================================
# Constraints
# ======================================================================

@dataclass(frozen=True, slots=True)
class AtomicConstraint:
    """p(args) == result, with result a variable, nullary constructor or literal.

    The bare form p(args) abbreviates result true; e1 /= e2 abbreviates
    (e1 == e2) == false.
    """

    symbol: str
    args: tuple
    result: Expr = TRUE

    def __repr__(self):
        return f"{self.symbol}({', '.join(map(repr, self.args))}) == {self.result!r}"


def constraint_exprs(c: AtomicConstraint) -> Iterator[Expr]:
    yield from c.args
    yield c.result


# ======================================================================
# Substitutions
# ======================================================================

Subst = dict  # var name -> Expr


def apply_subst(obj, sigma: Subst):
    """Capture-free simultaneous replacement of variables in obj.

    Works over expressions, atomic constraints, and tuples/lists of such.
    """
    if isinstance(obj, Var):
        return sigma.get(obj.name, obj)
    if isinstance(obj, App):
        if not obj.args:
            return obj
        return App(obj.symbol, tuple(apply_subst(a, sigma) for a in obj.args))
    if isinstance(obj, (Bottom, Basic)):
        return obj
    if isinstance(obj, AtomicConstraint):
        return AtomicConstraint(obj.symbol,
                                tuple(apply_subst(a, sigma) for a in obj.args),
                                apply_subst(obj.result, sigma))
    if isinstance(obj, tuple):
        return tuple(apply_subst(x, sigma) for x in obj)
    if isinstance(obj, list):
        return [apply_subst(x, sigma) for x in obj]
    raise TypeError(f"cannot substitute in {obj!r}")


def vars_of(obj) -> set:
    """Names of the variables in an expression, constraint, or tuple/list
    of such; iterative, so arbitrarily deep terms are fine."""
    acc: set = set()
    stack = [obj]
    while stack:
        obj = stack.pop()
        if isinstance(obj, Var):
            acc.add(obj.name)
        elif isinstance(obj, App):
            stack.extend(obj.args)
        elif isinstance(obj, AtomicConstraint):
            stack.extend(obj.args)
            stack.append(obj.result)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return acc


# ======================================================================
# Classification and orderings
# ======================================================================

def is_term(e: Expr, sig: Signature) -> bool:
    """Constructor terms: no primitive or defined function applications."""
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, App):
            if sig.kind(e.symbol) != "dc":
                return False
            stack.extend(e.args)
    return True


def is_ground(e: Expr) -> bool:
    return not vars_of(e)


def is_total(obj) -> bool:
    """No undefined value in an expression, constraint, or tuple/list of
    such; iterative, like vars_of."""
    stack = [obj]
    while stack:
        obj = stack.pop()
        if isinstance(obj, Bottom):
            return False
        if isinstance(obj, App):
            stack.extend(obj.args)
        elif isinstance(obj, AtomicConstraint):
            stack.extend(obj.args)
            stack.append(obj.result)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return True


def is_value(e: Expr, sig: Signature) -> bool:
    """A ground, total constructor term: what a call can rewrite to."""
    return is_term(e, sig) and is_ground(e) and is_total(e)


def compare_data(a: Expr, b: Expr, calls, subst: Optional[Subst] = None) -> str:
    """Strict equality of a and b as far as it is decided without
    evaluating anything: "diff" when two data heads differ somewhere
    (value, symbol or arity), else "unknown" when some pair is not
    data, else "same".

    A literal is data, and so is an application whose symbol is not in
    calls.  A call, bottom or an unbound variable is unknown, except
    that a variable is the same as itself.  Variables are walked through
    subst when it is given.  Keeps its own stack.
    """
    verdict = "same"
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if subst is not None:
            while type(x) is Var and x.name in subst:
                x = subst[x.name]
            while type(y) is Var and y.name in subst:
                y = subst[y.name]
        tx, ty = type(x), type(y)
        x_data = tx is Basic or (tx is App and x.symbol not in calls)
        y_data = ty is Basic or (ty is App and y.symbol not in calls)
        if x_data and y_data:
            if tx is not ty:
                return "diff"
            if tx is Basic:
                if x.value != y.value:
                    return "diff"
            elif x.symbol != y.symbol or len(x.args) != len(y.args):
                return "diff"
            else:
                stack += zip(x.args, y.args)
        elif not (tx is Var and ty is Var and x.name == y.name):
            verdict = "unknown"
    return verdict


def info_leq(e1: Expr, e2: Expr) -> bool:
    """Information ordering: bottom below everything, else structural."""
    if isinstance(e1, Bottom):
        return True
    if isinstance(e1, Var):
        return isinstance(e2, Var) and e1.name == e2.name
    if isinstance(e1, Basic):
        return isinstance(e2, Basic) and e1.value == e2.value
    if isinstance(e1, App):
        return isinstance(e2, App) and e1.symbol == e2.symbol \
            and len(e1.args) == len(e2.args) \
            and all(info_leq(a, b) for a, b in zip(e1.args, e2.args))
    return False


def constraint_info_leq(c1: AtomicConstraint, c2: AtomicConstraint) -> bool:
    return c1.symbol == c2.symbol and len(c1.args) == len(c2.args) \
        and all(info_leq(a, b) for a, b in zip(c1.args, c2.args)) \
        and info_leq(c1.result, c2.result)


def term_glb(e1: Expr, e2: Expr) -> Expr:
    """Greatest lower bound in the information ordering (always exists)."""
    if isinstance(e1, Bottom) or isinstance(e2, Bottom):
        return BOTTOM
    if isinstance(e1, Var) and isinstance(e2, Var) and e1.name == e2.name:
        return e1
    if isinstance(e1, Basic) and isinstance(e2, Basic) and e1.value == e2.value:
        return e1
    if isinstance(e1, App) and isinstance(e2, App) and e1.symbol == e2.symbol \
            and len(e1.args) == len(e2.args):
        return App(e1.symbol, tuple(term_glb(a, b) for a, b in zip(e1.args, e2.args)))
    return BOTTOM


def term_lub(e1: Expr, e2: Expr) -> Optional[Expr]:
    """Least upper bound, or None when the two conflict."""
    if isinstance(e1, Bottom):
        return e2
    if isinstance(e2, Bottom):
        return e1
    if isinstance(e1, Var) and isinstance(e2, Var) and e1.name == e2.name:
        return e1
    if isinstance(e1, Basic) and isinstance(e2, Basic) and e1.value == e2.value:
        return e1
    if isinstance(e1, App) and isinstance(e2, App) and e1.symbol == e2.symbol \
            and len(e1.args) == len(e2.args):
        parts = []
        for a, b in zip(e1.args, e2.args):
            j = term_lub(a, b)
            if j is None:
                return None
            parts.append(j)
        return App(e1.symbol, tuple(parts))
    return None


# ======================================================================
# Recursion depth
# ======================================================================

DEEP_RECURSION_LIMIT = 100000


@contextmanager
def deep_recursion():
    """Raise the interpreter's recursion limit to DEEP_RECURSION_LIMIT in
    the block and restore the old limit when it exits.

    The solver, proof replay, the proof checker and answer rendering
    recurse once per nested term, call or proof node.  The limit is
    process-wide, so it is raised only while they run.  It also serves
    as a decorator.
    """
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, DEEP_RECURSION_LIMIT))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# Calls that pass through C (a generator that tuple() drives, a dataclass
# ==) use the C stack at every level, and a main thread's 8 MB overflows,
# crashing the interpreter, near 20,000 nested terms; 64 MB held every
# deep input tried.  Only the pages that a run reaches are used.
DEEP_STACK_BYTES = 256 * 1024 * 1024


def run_deep(fn, *args):
    """fn(*args) under deep_recursion, on a thread with a C stack of
    DEEP_STACK_BYTES, so that input nested too deeply ends in a
    RecursionError and not in a crash."""
    out = []

    def body():
        with deep_recursion():
            try:
                out.append((fn(*args), None))
            except BaseException as exc:
                out.append((None, exc))

    old = threading.stack_size(DEEP_STACK_BYTES)
    try:
        worker = threading.Thread(target=body, daemon=True)
        worker.start()
    finally:
        threading.stack_size(old)
    worker.join()
    value, exc = out[0]
    if exc is not None:
        raise exc
    return value
