"""Concrete syntax: lexer, parser, pretty-printer and validation.

Source programs are lists of declarations and rewrite rules:

    type pages, id = int
    data level = easy | medium | difficult
    f(X, c(Y)) -0.9-> rhs <== cond1, cond2

Rules may carry an attenuation factor between the dashes of the arrow;
a plain ``-->`` means the top factor.  Uppercase or underscore-initial
identifiers are variables, lowercase identifiers are symbols, strings
are character lists, ``[a, b]`` and ``H:T`` are list sugar.  Line
comments start with ``--``.

Goals are threshold-annotated constraint conjunctions:

    (search("German", "Essay", intermediate) == R) # W | W >= 0.65

The printer emits canonical text that parses back to a structurally
equal syntax tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .domains import MalformedValueError, QualDomain, U
from .terms import (App, AtomicConstraint, Basic, Bottom, BOTTOM, BUILTIN_PF,
                    Expr, FALSE, NIL, Signature, SignatureError,
                    TRUE, Var, char_atom, format_real, is_char_atom, is_term,
                    is_total, vars_of)

RESERVED = {"type", "data"}


# ======================================================================
# Diagnostics
# ======================================================================

@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(map(str, self.diagnostics)))


def _fail(line: int, col: int, message: str):
    raise ParseError([Diagnostic(line, col, message)])


# ======================================================================
# Lexer
# ======================================================================

class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


# One alternative per token kind, tried in this order at each position;
# punctuation longest first.
_TOKEN = re.compile("|".join([
    r"(?P<NEWLINE>\n)",
    r"(?P<SPACE>[ \t\r]+)",
    r"(?P<COMMENT>--(?!>)[^\n]*)",
    r"(?P<BOTTOM>_\|_)",
    r"(?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)",
    r'(?P<STRING>"(?:\\.|[^"\\])*")',
    r"(?P<CHAR>'(?:\\.|[^'\\])')",
    r"(?P<IDENT>[a-z][A-Za-z0-9_']*)",
    r"(?P<VAR>[A-Z_][A-Za-z0-9_']*(?:\.[0-9]+)*)",
    r"(?P<PUNCT><==|-->|->|::|==|/=|<=|>=|[-<>+*:=|#()\[\],;])",
]))


def lex(text: str) -> list:
    """The tokens of text and an EOF token: one match of _TOKEN each, of
    the kind its group names, or for punctuation of its text.  A column
    counts the characters before it since the last newline, whether a
    newline token or a raw newline in a string, and comments count
    nothing.  A number too large for a float, such as 1e400, is refused."""
    tokens = []
    match = _TOKEN.match
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        m = match(text, i)
        if m is None:
            _fail(line, col, f"unexpected character {text[i]!r}")
        kind = m.lastgroup
        end = m.end()
        if kind == "NEWLINE":
            line += 1
            col = 1
        elif kind != "COMMENT":
            if kind != "SPACE":
                tok = m.group()
                if kind == "NUMBER" and float(tok) == float("inf"):
                    _fail(line, col, f"number {tok} is out of range")
                tokens.append(Token(tok if kind == "PUNCT" else kind, tok, line, col))
            if kind == "STRING" and "\n" in tok:
                line += tok.count("\n")
                col = len(tok) - tok.rindex("\n")
            else:
                col += end - i
        i = end
    tokens.append(Token("EOF", "", line, col))
    return tokens


_UNESCAPE = re.compile(r"\\(.)", re.S)
_UNESCAPES = {"n": "\n", "t": "\t"}
_ESCAPES = {q: str.maketrans({"\\": "\\\\", q: "\\" + q, "\n": "\\n", "\t": "\\t"})
            for q in "'\""}


def _unescape(body: str) -> str:
    return _UNESCAPE.sub(lambda m: _UNESCAPES.get(m[1], m[1]), body)


def _escape(body: str, quote: str) -> str:
    return body.translate(_ESCAPES[quote])


# ======================================================================
# Syntax trees for programs and goals
# ======================================================================

@dataclass(frozen=True)
class ProgramRule:
    name: str
    patterns: tuple
    attenuation: object          # float or nested pair, validated per domain
    rhs: Expr
    conditions: tuple            # of AtomicConstraint
    line: int = field(default=0, compare=False)


@dataclass
class Program:
    """A signature and its rules, never changed once built.

    What is derived from them alone (a translation, compiled rule
    templates, checker verdicts) is kept once per program object in
    memo, which equality and repr leave out.
    """

    signature: Signature
    rules: list
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __eq__(self, other):
        return isinstance(other, Program) and self.signature == other.signature \
            and self.rules == other.rules

    def memo(self, key, make=None):
        """make() for key, made on the first call for this program; with
        no make, what was made for key, or None."""
        out = self._memo.get(key)
        if out is None and make is not None:
            out = self._memo[key] = make()
        return out


@dataclass(frozen=True)
class GoalItem:
    constraint: AtomicConstraint
    wvar: str
    threshold: object = None     # raw qualification literal, or None
    # (line, col) of the wvar after '#' and of the threshold's variable
    wvar_at: tuple = field(default=(0, 0), compare=False)
    threshold_at: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Goal:
    items: tuple


# ======================================================================
# Parser
# ======================================================================

class _Parser:
    """Recursive descent over the tokens of one text.

    Programs and goals are read as plain terms: the solver keys
    call-time choice on the identity of a call.  With a program's
    signature, a symbol of it applied to another number of arguments is
    a diagnostic.
    """

    def __init__(self, text: str, sig: Optional[Signature] = None):
        self.tokens = lex(text)
        self.pos = 0
        self.anon = 0
        self.sig = sig

    # -- token plumbing ------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.tokens[min(self.pos + k, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            _fail(t.line, t.col, f"expected {kind!r}, found {t.text!r}")
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def parse_sep_list(self, parse_item, sep: str = ",") -> list:
        """One or more parse_item() results separated by sep."""
        out = [parse_item()]
        while self.at(sep):
            self.next()
            out.append(parse_item())
        return out

    # -- expressions -----------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_cmp()

    def parse_cmp(self) -> Expr:
        lhs = self.parse_cons()
        t = self.peek()
        if t.kind in ("==", "/=", "<=", "<", ">=", ">"):
            self.next()
            rhs = self.parse_cons()
            if t.kind == "/=":
                return App("==", (App("==", (lhs, rhs)), FALSE))
            return App(t.kind, (lhs, rhs))
        return lhs

    def parse_cons(self) -> Expr:
        head = self.parse_add()
        if self.at(":"):
            self.next()
            tail = self.parse_cons()
            return App(":", (head, tail))
        return head

    def parse_add(self) -> Expr:
        e = self.parse_mul()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            e = App(op, (e, self.parse_mul()))
        return e

    def parse_mul(self) -> Expr:
        e = self.parse_atom()
        while self.at("*"):
            self.next()
            e = App("*", (e, self.parse_atom()))
        return e

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "NUMBER":
            self.next()
            return Basic(float(t.text))
        if t.kind == "-" and self.peek(1).kind == "NUMBER":
            self.next()
            num = self.next()
            return Basic(-float(num.text))
        if t.kind == "STRING":
            self.next()
            return self.cons_list([char_atom(c) for c in _unescape(t.text[1:-1])])
        if t.kind == "CHAR":
            self.next()
            return char_atom(_unescape(t.text[1:-1]))
        if t.kind == "BOTTOM":
            self.next()
            return BOTTOM
        if t.kind == "VAR":
            self.next()
            if t.text == "_":
                self.anon += 1
                return Var(f"_u{self.anon}")
            return Var(t.text)
        if t.kind == "IDENT":
            if t.text in RESERVED:
                _fail(t.line, t.col, f"reserved word {t.text!r} cannot be used in an expression")
            self.next()
            args = ()
            if self.at("("):
                self.next()
                args = tuple(self.parse_sep_list(self.parse_expr))
                self.expect(")")
            sig = self.sig
            if sig is not None and sig.kind(t.text) is not None \
                    and sig.arity(t.text) != len(args):
                _fail(t.line, t.col, f"{t.text!r} used with {len(args)} argument(s), "
                                     f"expected {sig.arity(t.text)}")
            return App(t.text, args)
        if t.kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "[":
            self.next()
            items = [] if self.at("]") else self.parse_sep_list(self.parse_expr)
            self.expect("]")
            return self.cons_list(items)
        _fail(t.line, t.col, f"unexpected token {t.text!r}")

    def cons_list(self, items: list) -> Expr:
        out = NIL
        for item in reversed(items):
            out = App(":", (item, out))
        return out

    # -- constraints -----------------------------------------------------

    def parse_constraint(self) -> AtomicConstraint:
        t = self.peek()
        e = self.parse_cmp()
        c = classify_constraint(e)
        if c is None:
            _fail(t.line, t.col, "expected an atomic constraint")
        return c

    # -- qualification literals -------------------------------------------

    def parse_qual_literal(self):
        t = self.peek()
        if t.kind == "NUMBER":
            self.next()
            return float(t.text)
        if t.kind == "(":
            self.next()
            left = self.parse_qual_literal()
            self.expect(",")
            right = self.parse_qual_literal()
            self.expect(")")
            return (left, right)
        _fail(t.line, t.col, f"expected a qualification value, found {t.text!r}")

    # -- declarations and rules ---------------------------------------------

    def parse_type_expr(self):
        t = self.peek()
        if t.kind in ("IDENT", "VAR"):
            self.next()
        elif t.kind == "[":
            self.next()
            self.parse_type_expr()
            self.expect("]")
        elif t.kind == "(":
            self.next()
            self.parse_sep_list(self.parse_type_expr)
            self.expect(")")
        else:
            _fail(t.line, t.col, f"expected a type, found {t.text!r}")
        if self.at("->"):
            self.next()
            self.parse_type_expr()

    def parse_program_items(self):
        decls = []  # (ctor, arity)
        rules = []
        while not self.at("EOF"):
            t = self.peek()
            if t.kind == "IDENT" and t.text == "type":
                self.next()
                self.parse_sep_list(lambda: self.expect("IDENT"))
                self.expect("=")
                self.parse_type_expr()
                continue
            if t.kind == "IDENT" and t.text == "data":
                self.next()
                self.expect("IDENT")
                self.expect("=")
                while True:
                    ctor = self.expect("IDENT")
                    arity = 0
                    if self.at("("):
                        self.next()
                        arity = len(self.parse_sep_list(self.parse_type_expr))
                        self.expect(")")
                    decls.append((ctor.text, arity, ctor.line, ctor.col))
                    if self.at("|"):
                        self.next()
                        continue
                    break
                continue
            if t.kind == "IDENT" and self.peek(1).kind == "::":
                self.next()
                self.next()
                self.parse_type_expr()
                continue
            if t.kind == "IDENT":
                rules.append(self.parse_rule())
                continue
            _fail(t.line, t.col, f"expected a declaration or rule, found {t.text!r}")
        return decls, rules

    def parse_rule(self) -> ProgramRule:
        head = self.expect("IDENT")
        patterns = []
        if self.at("("):
            self.next()
            patterns = self.parse_sep_list(self.parse_expr)
            self.expect(")")
        t = self.peek()
        if t.kind == "-->":
            self.next()
            atten = 1.0
        elif t.kind == "-":
            self.next()
            atten = self.parse_qual_literal()
            self.expect("->")
        else:
            _fail(t.line, t.col, f"expected an arrow, found {t.text!r}")
        rhs = self.parse_expr()
        conditions = []
        if self.at("<=="):
            self.next()
            conditions = self.parse_sep_list(self.parse_constraint)
        return ProgramRule(head.text, tuple(patterns), atten, rhs,
                           tuple(conditions), line=head.line)

    # -- goals ----------------------------------------------------------------

    def parse_goal_entry(self) -> tuple:
        c = self.parse_constraint()
        self.expect("#")
        return c, self.expect("VAR")

    def parse_goal(self) -> Goal:
        entries = self.parse_sep_list(self.parse_goal_entry)
        thresholds = {}          # name -> (its VAR token, literal)
        if self.at("|"):
            self.next()
            while True:
                w = self.expect("VAR")
                self.expect(">=")
                beta = self.parse_qual_literal()
                if w.text in thresholds:
                    _fail(w.line, w.col, f"duplicate threshold for {w.text}")
                thresholds[w.text] = w, beta
                if self.at(","):
                    self.next()
                    continue
                break
        seen = set()
        items = []
        for c, w in entries:
            if w.text in seen:
                _fail(w.line, w.col, f"duplicate qualification variable {w.text}")
            seen.add(w.text)
            tw, beta = thresholds.pop(w.text, (w, None))
            items.append(GoalItem(c, w.text, beta, (w.line, w.col),
                                  (tw.line, tw.col)))
        for w, _ in thresholds.values():
            _fail(w.line, w.col, f"threshold for undeclared qualification variable {w.text}")
        self.expect("EOF")
        return Goal(tuple(items))

    # -- certificate statements and substitutions ------------------------------

    def parse_statement(self) -> tuple:
        """A whole statement text: (body, qualification literal or None,
        hypotheses), where body is a (lhs, rhs) pair for a production and
        an atomic constraint otherwise."""
        save = self.pos
        body = None
        if self.at("("):
            try:
                self.next()
                lhs = self.parse_expr()
                if self.peek().kind in ("->", "-->"):
                    self.next()
                    rhs = self.parse_expr()
                    self.expect(")")
                    body = (lhs, rhs)
                else:
                    self.pos = save
            except ParseError:
                self.pos = save
        if body is None:
            body = self.parse_constraint()
        qual = None
        if self.at("#"):
            self.next()
            qual = self.parse_qual_literal()
        hyps = ()
        if self.at("<=="):
            self.next()
            hyps = tuple(self.parse_sep_list(self.parse_constraint))
        self.expect("EOF")
        return body, qual, hyps


def classify_constraint(e: Expr) -> Optional[AtomicConstraint]:
    """Canonical atomic-constraint form of a parsed condition expression."""
    if not isinstance(e, App):
        return None
    if e.symbol == "==" and len(e.args) == 2:
        lhs, rhs = e.args
        if isinstance(lhs, App) and lhs.symbol in BUILTIN_PF and _is_vform(rhs):
            return AtomicConstraint(lhs.symbol, lhs.args, rhs)
        return AtomicConstraint("==", (lhs, rhs), TRUE)
    if e.symbol in BUILTIN_PF:
        return AtomicConstraint(e.symbol, e.args, TRUE)
    # bare application of a non-primitive symbol abbreviates equality to true
    return AtomicConstraint("==", (e, TRUE), TRUE)


def _is_vform(e: Expr) -> bool:
    return isinstance(e, (Var, Basic)) or (isinstance(e, App) and not e.args)


# ======================================================================
# Signature assembly and validation
# ======================================================================

def _register_use_sites(e: Expr, sig: Signature, diags: list, line: int) -> None:
    """Register the undeclared symbols of e as constructors and check the
    arity of the others, in pre-order: print_program numbers the data
    lines by this order."""
    todo = [e]
    while todo:
        e = todo.pop()
        if isinstance(e, App):
            kind = sig.kind(e.symbol)
            if kind is None:
                try:
                    sig.register_dc(e.symbol, len(e.args))
                except SignatureError as exc:
                    diags.append(Diagnostic(line, 0, str(exc)))
            else:
                try:
                    if sig.arity(e.symbol) != len(e.args):
                        diags.append(Diagnostic(
                            line, 0,
                            f"{e.symbol!r} used with {len(e.args)} argument(s), "
                            f"expected {sig.arity(e.symbol)}"))
                except SignatureError as exc:
                    diags.append(Diagnostic(line, 0, str(exc)))
            todo.extend(reversed(e.args))
        elif isinstance(e, AtomicConstraint):
            todo.append(e.result)
            todo.extend(reversed(e.args))


def build_program(decls, rules, dom: QualDomain = U) -> tuple:
    """Assemble the signature and run the validator; returns (Program, diags)."""
    sig = Signature()
    diags = []
    for r in rules:
        try:
            sig.register_df(r.name, len(r.patterns))
        except SignatureError as exc:
            diags.append(Diagnostic(r.line, 0, str(exc)))
    for entry in decls:
        name, arity, line, col = entry
        try:
            sig.register_dc(name, arity)
        except SignatureError as exc:
            diags.append(Diagnostic(line, col, str(exc)))
    for r in rules:
        for p in r.patterns:
            _register_use_sites(p, sig, diags, r.line)
        _register_use_sites(r.rhs, sig, diags, r.line)
        for c in r.conditions:
            _register_use_sites(c, sig, diags, r.line)
    program = Program(sig, list(rules))
    diags.extend(validate_program(program, dom))
    return program, diags


def validate_program(program: Program, dom: QualDomain = U) -> list:
    diags = []
    sig = program.signature
    for r in program.rules:
        seen = set()
        for p in r.patterns:
            if not is_term(p, sig):
                diags.append(Diagnostic(r.line, 0,
                                        f"rule for {r.name!r}: head patterns must be constructor terms"))
            for v in _vars_in_order(p):
                if v in seen:
                    diags.append(Diagnostic(r.line, 0,
                                            f"rule for {r.name!r}: non-linear head (variable {v} repeats)"))
                seen.add(v)
        if not is_total((r.patterns, r.rhs, r.conditions)):
            diags.append(Diagnostic(r.line, 0,
                                    f"rule for {r.name!r}: the undefined value cannot occur in rules"))
        try:
            a = dom.coerce(r.attenuation)
            if not dom.is_strict(a):
                diags.append(Diagnostic(r.line, 0,
                                        f"rule for {r.name!r}: attenuation factor must be above bottom"))
        except MalformedValueError as exc:
            diags.append(Diagnostic(r.line, 0, f"rule for {r.name!r}: {exc}"))
    return diags


def _vars_in_order(e: Expr):
    """The variable names of e, left to right, repeats included."""
    todo = [e]
    while todo:
        e = todo.pop()
        if isinstance(e, Var):
            yield e.name
        elif isinstance(e, App):
            todo.extend(reversed(e.args))


def validate_goal(goal: Goal, dom: QualDomain = U) -> list:
    diags = []
    for item in goal.items:
        if item.wvar in vars_of(item.constraint):
            diags.append(Diagnostic(*item.wvar_at,
                                    f"qualification variable {item.wvar} occurs inside its constraint"))
        if item.threshold is not None:
            try:
                b = dom.coerce(item.threshold)
                if not dom.is_strict(b):
                    diags.append(Diagnostic(*item.threshold_at,
                                            f"threshold for {item.wvar} must be above bottom"))
            except MalformedValueError as exc:
                diags.append(Diagnostic(*item.threshold_at, f"threshold for {item.wvar}: {exc}"))
    return diags


# ======================================================================
# Public parse entry points
# ======================================================================

def parse_program(text: str, dom: QualDomain = U) -> Program:
    p = _Parser(text)
    decls, rules = p.parse_program_items()
    program, diags = build_program(decls, rules, dom)
    if diags:
        raise ParseError(diags)
    return program


def parse_goal(text: str, dom: QualDomain = U,
               sig: Optional[Signature] = None) -> Goal:
    """The goal text reads; with a program's signature, its symbols must
    have their arities in it."""
    p = _Parser(text, sig=sig)
    goal = p.parse_goal()
    diags = validate_goal(goal, dom)
    if diags:
        raise ParseError(diags)
    return goal


def parse_constraints(text: str) -> list:
    """A bare comma-separated constraint conjunction (translated goals)."""
    p = _Parser(text)
    out = p.parse_sep_list(p.parse_constraint)
    p.expect("EOF")
    return out


def parse_statement_parts(text: str, sig: Optional[Signature] = None) -> tuple:
    """_Parser.parse_statement of text, its symbols of sig applied to
    their arities."""
    return _Parser(text, sig).parse_statement()


def parse_expr(text: str) -> Expr:
    p = _Parser(text)
    e = p.parse_expr()
    p.expect("EOF")
    return e


def parse_expr_list(text: str, sig: Optional[Signature] = None) -> list:
    """A comma-separated list of expressions (oracle --universe), the
    symbols of sig applied to their arities."""
    p = _Parser(text, sig=sig)
    out = p.parse_sep_list(p.parse_expr)
    p.expect("EOF")
    return out


# ======================================================================
# Printer
# ======================================================================

_PREC_CMP, _PREC_CONS, _PREC_ADD, _PREC_MUL, _PREC_ATOM = 1, 2, 3, 4, 5


def _spine(e: Expr):
    """Decompose a cons spine; returns (items, tail) with tail None for nil."""
    items = []
    while isinstance(e, App) and e.symbol == ":" and len(e.args) == 2:
        items.append(e.args[0])
        e = e.args[1]
    if isinstance(e, App) and e.symbol == "[]" and not e.args:
        return items, None
    return items, e


def print_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, Bottom):
        return "_|_"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Basic):
        return format_real(e.value)
    if isinstance(e, App):
        if is_char_atom(e):
            return f"'{_escape(e.symbol[1:-1], chr(39))}'"
        if e.symbol == "==" and len(e.args) == 2 and e.args[1] == FALSE \
                and isinstance(e.args[0], App) and e.args[0].symbol == "==":
            inner = e.args[0]
            s = f"{print_expr(inner.args[0], _PREC_CONS)} /= {print_expr(inner.args[1], _PREC_CONS)}"
            return f"({s})" if prec > _PREC_CMP else s
        if e.symbol == ":" and len(e.args) == 2:
            items, tail = _spine(e)
            if tail is None:
                if items and all(is_char_atom(x) for x in items):
                    return '"' + _escape("".join(x.symbol[1:-1] for x in items), '"') + '"'
                return "[" + ", ".join(print_expr(x) for x in items) + "]"
            s = f"{print_expr(e.args[0], _PREC_ADD)}:{print_expr(e.args[1], _PREC_CONS)}"
            return f"({s})" if prec > _PREC_CONS else s
        if e.symbol == "[]" and not e.args:
            return "[]"
        if e.symbol in ("==", "<=", "<", ">=", ">") and len(e.args) == 2:
            s = f"{print_expr(e.args[0], _PREC_CONS)} {e.symbol} {print_expr(e.args[1], _PREC_CONS)}"
            return f"({s})" if prec > _PREC_CMP else s
        if e.symbol in ("+", "-") and len(e.args) == 2:
            s = f"{print_expr(e.args[0], _PREC_ADD)} {e.symbol} {print_expr(e.args[1], _PREC_MUL)}"
            return f"({s})" if prec > _PREC_ADD else s
        if e.symbol == "*" and len(e.args) == 2:
            s = f"{print_expr(e.args[0], _PREC_MUL)}*{print_expr(e.args[1], _PREC_ATOM)}"
            return f"({s})" if prec > _PREC_MUL else s
        if not e.args:
            return e.symbol
        return f"{e.symbol}({', '.join(print_expr(a) for a in e.args)})"
    raise TypeError(f"cannot print {e!r}")


def print_constraint(c: AtomicConstraint) -> str:
    """The expression that classify_constraint reads back as c: the
    application p(args) when the result is true and it reads back so,
    with the bare call f(args) for f(args) == true; else
    (p(args)) == result."""
    e = App(c.symbol, c.args)
    if c.result != TRUE or classify_constraint(e) != c:
        return print_expr(App("==", (e, c.result)))
    lhs = c.args[0]
    if c.symbol == "==" and c.args[1] == TRUE and isinstance(lhs, App) \
            and lhs.args and lhs.symbol not in BUILTIN_PF:
        return print_expr(lhs)
    return print_expr(e)


def format_attenuation(raw) -> str:
    if isinstance(raw, tuple):
        return "(" + ",".join(format_attenuation(x) for x in raw) + ")"
    return format_real(float(raw))


def print_rule(r: ProgramRule) -> str:
    head = r.name if not r.patterns else \
        f"{r.name}({', '.join(print_expr(p) for p in r.patterns)})"
    if isinstance(r.attenuation, tuple) or float(r.attenuation) != 1.0:
        arrow = f"-{format_attenuation(r.attenuation)}->"
    else:
        arrow = "-->"
    text = f"{head} {arrow} {print_expr(r.rhs)}"
    if r.conditions:
        text += " <== " + ", ".join(print_constraint(c) for c in r.conditions)
    return text


def print_program(program: Program) -> str:
    lines = []
    i = 0
    for name, arity in program.signature.dc.items():
        if name in ("true", "false", "[]", ":") or name.startswith("'"):
            continue
        params = ", ".join(["t"] * arity)
        lines.append(f"data t{i} = {name}({params})" if arity else f"data t{i} = {name}")
        i += 1
    for r in program.rules:
        lines.append(print_rule(r))
    return "\n".join(lines) + ("\n" if lines else "")


def print_goal(goal: Goal) -> str:
    left = ", ".join(f"{print_constraint(it.constraint)} # {it.wvar}" for it in goal.items)
    bounds = [f"{it.wvar} >= {format_attenuation(it.threshold)}"
              for it in goal.items if it.threshold is not None]
    return left + (" | " + ", ".join(bounds) if bounds else "")


def print_constraints(constraints) -> str:
    return ", ".join(print_constraint(c) for c in constraints)
