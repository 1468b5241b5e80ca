import gc
import itertools
import random
import sys
import time

import pytest
from hypothesis import given, strategies as st

from conftest import BOOK4, print_statement
from qcflp.domains import U, domain_from_name
import qcflp.semantics
import qcflp.syntax
import qcflp.terms
import qcflp.transform
from qcflp.semantics import (CheckResult, ProofTree, QStatement, atom_statement,
                             bounded_lfp,
                             check_proof, distinct_parts, holds,
                             instantiate_rule, parse_proof, parse_statement,
                             production, serialize_proof,
                             statement_entails, weaken_tree)
from qcflp.runtime import Limits, Solver, replay_trees
from qcflp.syntax import (ParseError, parse_constraints, parse_expr,
                          parse_goal, parse_program)
from qcflp.terms import (App, AtomicConstraint, Basic, BOTTOM, TRUE,
                         Var, apply_subst, char_atom, info_leq, mkstring)
from qcflp.transform import (transform_goal, transform_program,
                              translation)


def stmt(text):
    return parse_statement(text)


# ----------------------------------------------------------------------
# statement entailment
# ----------------------------------------------------------------------

def test_entailment_example_witness():
    phi = stmt("(f(X:Xs) -> Xs) # 0.8 <== X*X /= 0")
    psi = stmt("(f(A:(B:[])) -> _|_ : _|_) # 0.7 <== A < 0")
    sigma = statement_entails(phi, psi, U)
    assert sigma is not None
    assert sigma["X"] == Var("A")
    assert sigma["Xs"] == parse_expr("B:_|_")


def test_entailment_reflexive():
    phi = stmt("(f(X) -> X) # 0.5 <== X > 0")
    sigma = statement_entails(phi, phi, U)
    assert sigma == {"X": Var("X")}


def test_entailment_needs_qualification_order():
    phi = stmt("(f(X) -> X) # 0.7")
    psi = stmt("(f(X) -> X) # 0.8")
    assert statement_entails(phi, psi, U) is None
    assert statement_entails(psi, phi, U) is not None


def test_entailment_atoms():
    phi = stmt("p(X) # 0.9")
    psi = stmt("p(c(1)) # 0.5")
    sigma = statement_entails(phi, psi, U)
    assert sigma is not None
    assert info_leq(apply_subst(parse_expr("p(X)"), sigma), parse_expr("p(c(1))"))


# ----------------------------------------------------------------------
# the proof checker
# ----------------------------------------------------------------------

def test_trivial_node_accepts_bottom_result(library):
    tree = ProofTree("triv", production(parse_expr("guessGenre(B)"), BOTTOM,
                                        0.5, ()))
    assert check_proof(library, U, tree).status == "valid"


def test_trivial_node_accepts_unsat_hypotheses(library):
    pi = tuple(parse_constraints("X < 0, X > 1"))
    tree = ProofTree("triv", atom_statement(parse_constraints("X == 5")[0],
                                            0.9, pi))
    assert check_proof(library, U, tree).status == "valid"


def test_refl_node(library):
    tree = ProofTree("refl", production(Var("X"), Var("X"), 0.5, ()))
    assert check_proof(library, U, tree).status == "valid"
    bad = ProofTree("refl", production(parse_expr("c(1)"), parse_expr("c(1)"),
                                       0.5, ()))
    assert check_proof(library, U, bad).status == "invalid"


def test_cons_bound_violation(library):
    child = ProofTree("refl", production(Var("X"), Var("X"), 0.5, ()))
    # concluding a higher qualification than the premise carries
    bad = ProofTree("cons",
                    production(parse_expr("c(X)"), parse_expr("c(X)"), 0.9, ()),
                    (child,))
    p = parse_program("f(X) --> c(X)")
    res = check_proof(p, U, bad)
    assert res.status == "invalid" and "bound" in res.reason


BIN = "data bin = leaf | node(bin, bin)\nf(X) --> X"
X, Y = Var("X"), Var("Y")


def refl(e, q=0.5, pi=()):
    return ProofTree("refl", production(e, e, q, pi))


def cons(e, premises, q=0.5, pi=()):
    return ProofTree("cons", production(e, e, q, pi), tuple(premises))


def node(a, b):
    return App("node", (a, b))


def test_shared_subtree_is_checked_once():
    # 64 levels whose two premises are one object: 2^64 occurrences of
    # the leaf, 65 distinct subtrees
    e, tree = X, refl(X)
    for _ in range(64):
        e = node(e, e)
        tree = cons(e, (tree, tree))
    t0 = time.perf_counter()
    assert check_proof(parse_program(BIN), U, tree) == CheckResult("valid")
    assert time.perf_counter() - t0 < 1.0


def _invalid_below_shared():
    bad = ProofTree("refl", production(Y, Y, 0.5, ()), (refl(Y),))
    shared = cons(node(X, Y), (refl(X), bad))
    return cons(node(node(X, Y), node(X, Y)), (shared, shared))


def _invalid_after_shared_valid():
    ok = cons(node(X, X), (refl(X), refl(X)))
    nxx = node(X, X)
    high = cons(node(nxx, nxx), (ok, ok), q=0.9)
    return cons(node(nxx, node(nxx, nxx)), (ok, high))


UNDECIDED = tuple(parse_constraints("X*X == 2"))


def _unknown_twice():
    t = ProofTree("triv", production(X, X, 0.5, UNDECIDED))
    return cons(node(X, X), (t, t), pi=UNDECIDED)


def _unknown_below_shared():
    u = _unknown_twice()
    return cons(node(node(X, X), node(X, X)), (u, u), pi=UNDECIDED)


# reasons pinned from the checker that walked every occurrence
@pytest.mark.parametrize("build, expected", [
    (_invalid_below_shared,
     CheckResult("invalid", "root.0.1: reflexivity has no premises")),
    (_invalid_after_shared_valid,
     CheckResult("invalid", "root.1.0: qualification bound violated")),
    (_unknown_twice,
     CheckResult("unknown", "root.1: hypotheses satisfiability unknown")),
    (_unknown_below_shared,
     CheckResult("unknown", "root.1.1: hypotheses satisfiability unknown")),
], ids=["invalid-below-shared", "invalid-after-shared", "unknown-twice",
        "unknown-below-shared"])
def test_shared_subtree_reasons(build, expected):
    assert check_proof(parse_program(BIN), U, build()) == expected


# One malformed certificate per reason the checker gives: f's one rule
# has a pattern, an attenuated right-hand side and a condition, so its
# node needs three premises
REASONS = parse_program("data t = a | b | c(t) | d(t, t)\n"
                        "f(X) -0.5-> c(X) <== X == a\ng --> a\n")
THETA = (("X", App("a")),)


def pt(tag, text, *premises, rule=None, theta=()):
    return ProofTree(tag, parse_statement(text), premises, rule, theta)


def a_node(q="0.8"):
    return pt("cons", f"(a -> a) # {q}")


def f_of_a(q="0.4", call="f(a)", premises=None, rule=0):
    """f(a) -> c(a) through f's rule, valid as it stands."""
    if premises is None:
        premises = (a_node(), rhs_node(), cond_node())
    return pt("fun", f"({call} -> c(a)) # {q}", *premises, rule=rule, theta=THETA)


def one_plus_two(result="3", q="0.5", left="(1 -> 1) # 0.5"):
    return pt("prim", f"(1 + 2 -> {result}) # {q}", pt("refl", left),
              pt("refl", "(2 -> 2) # 0.5"))


def rhs_node(q="0.8", rhs="c(a)"):
    return pt("cons", f"({rhs} -> {rhs}) # {q}", a_node())


def cond_node(q="0.8", atom="a == a"):
    return pt("atom", f"{atom} # {q}", a_node(), a_node())


def invalid(reason):
    return CheckResult("invalid", reason)


UNSURE = "<== X*X == 2"  # hypotheses whose satisfiability is undecided


@pytest.mark.parametrize("tree,dom,expected", [
    (f_of_a(), U, CheckResult("valid")),
    (one_plus_two(), U, CheckResult("valid")),
    (pt("refl", "(X -> X) # 0.5 <== f(X) == a"), U,
     invalid("root: hypotheses call the defined function 'f'")),
    # a call short of the argument that the rule's pattern matches, or
    # with one more
    (f_of_a(call="f"), U, invalid("root: call arity mismatch")),
    (f_of_a(call="f(a, b)"), U, invalid("root: call arity mismatch")),
    (pt("refl", "(X -> X)"), U, invalid("root: missing qualification")),
    (pt("refl", "(X -> X) # 0"), U,
     invalid("root: qualification must be above bottom")),
    (pt("refl", "(X -> X) # 0.5"), None, invalid("root: unexpected qualification")),
    (pt("triv", "(X -> _|_) # 0.5", a_node()), U,
     invalid("root: trivial nodes have no premises")),
    (pt("triv", "(X -> X) # 0.5"), U, invalid("root: statement is not trivial")),
    (pt("triv", f"(X -> X) # 0.5 {UNSURE}"), U,
     CheckResult("unknown", "root: hypotheses satisfiability unknown")),
    (pt("refl", "(X -> _|_) # 0.5"), U,
     invalid("root: trivial statement proved by refl")),
    (pt("refl", "(a -> a) # 0.5"), U, invalid("root: not a reflexivity statement")),
    (pt("refl", "(X -> X) # 0.5", pt("refl", "(X -> X) # 0.5")), U,
     invalid("root: reflexivity has no premises")),
    (pt("cons", "(f(a) -> f(a)) # 0.5", a_node()), U,
     invalid("root: not a constructor decomposition")),
    (pt("cons", "(c(a) -> c(a)) # 0.5"), U, invalid("root: premise count mismatch")),
    (pt("cons", "(c(a) -> c(a)) # 0.5", pt("cons", "(b -> b) # 0.5")), U,
     invalid("root.0: premise shape mismatch")),
    (pt("cons", "(c(a) -> c(a)) # 0.9", a_node()), U,
     invalid("root.0: qualification bound violated")),
    # a cons node checks the premises before its first malformed one first
    (pt("cons", "(d(a, a) -> d(a, a)) # 0.5", pt("cons", "(a -> a) # 0.5", a_node()),
        pt("cons", "(b -> b) # 0.5")), U, invalid("root.0: premise count mismatch")),
    (pt("fun", "(c(a) -> c(a)) # 0.5", rule=0), U,
     invalid("root: not a defined-function statement")),
    (f_of_a(rule=None), U, invalid("root: bad rule index")),
    (f_of_a(rule=2), U, invalid("root: bad rule index")),
    (f_of_a(rule=1), U, invalid("root: rule is for 'g'")),
    (f_of_a(premises=(a_node(),)), U, invalid("root: premise count mismatch")),
    (f_of_a(premises=(pt("cons", "(b -> b) # 0.8"), rhs_node(), cond_node())), U,
     invalid("root.0: argument premise mismatch")),
    (f_of_a(premises=(a_node("0.3"), rhs_node(), cond_node())), U,
     invalid("root.0: qualification bound violated")),
    (f_of_a(premises=(a_node(), rhs_node(rhs="c(b)"), cond_node())), U,
     invalid("root.1: right-hand side premise mismatch")),
    (f_of_a(premises=(a_node(), rhs_node("0.7"), cond_node())), U,
     invalid("root.1: attenuation bound violated")),
    (f_of_a(premises=(a_node(), rhs_node(), cond_node(atom="a == b"))), U,
     invalid("root.2: condition premise mismatch")),
    (f_of_a(premises=(a_node(), rhs_node(), cond_node("0.7"))), U,
     invalid("root.2: attenuation bound violated")),
    (pt("prim", "(f(a) -> c(a)) # 0.5"), U, invalid("root: not a primitive statement")),
    (one_plus_two(result="c(a)"), U, invalid("root: result must be flat")),
    (pt("atom", "(1 + 2 -> 3) # 0.5"), U, invalid("root: expected an atomic statement")),
    (pt("prim", "(1 + 2 -> 3) # 0.5"), U, invalid("root: premise count mismatch")),
    (one_plus_two(left="(2 -> 2) # 0.5"), U,
     invalid("root.0: argument premise mismatch")),
    (one_plus_two(q="0.6"), U, invalid("root.0: qualification bound violated")),
    (one_plus_two(result="4"), U,
     invalid("root: hypotheses do not entail the evaluation")),
    (pt("prim", f"(X * X -> 3) # 0.5 {UNSURE}", pt("refl", f"(X -> X) # 0.5 {UNSURE}"),
        pt("refl", f"(X -> X) # 0.5 {UNSURE}")), U,
     CheckResult("unknown", "root: entailment undecided")),
    (pt("step", "(X -> X) # 0.5"), U, invalid("root: unknown tag 'step'")),
], ids=lambda x: x.tag if isinstance(x, ProofTree) else
    "plain" if x is None else "u" if x is U else x.reason.split(": ", 1)[-1] or x.status)
def test_each_checker_reason(tree, dom, expected):
    assert check_proof(REASONS, dom, tree) == expected


def test_vacuity_decided_once_per_check(monkeypatch):
    p = parse_program("f(X) --> g(s(X), X)\ng(A, X) --> true <== X >= 0")
    r = holds(p, U, stmt("(f(Y) -> true) # 1 <== Y >= 1"))
    assert r.status == "derivable" and r.tree.size() == 10
    calls = []
    satisfiable = qcflp.semantics.satisfiable

    def counting(hypotheses, *args):
        calls.append(hypotheses)
        return satisfiable(hypotheses, *args)

    monkeypatch.setattr(qcflp.semantics, "satisfiable", counting)
    assert check_proof(p, U, r.tree).status == "valid"
    assert len(calls) == 1


# Valid verdicts are kept on the program, per domain, for the subtree
# objects that live; invalid and unknown ones are not kept.

PAPER = '(search("German", "Essay", intermediate) -> 4) # 0.65'


def _counting_checks(monkeypatch) -> list:
    checked = []
    check_node = qcflp.semantics._check_node

    def counting(chk, tree, path):
        checked.append(tree)
        return check_node(chk, tree, path)

    monkeypatch.setattr(qcflp.semantics, "_check_node", counting)
    return checked


def _levels(n):
    e, tree = X, refl(X)
    for _ in range(n):
        e = node(e, e)
        tree = cons(e, (tree, tree))
    return tree


def test_kept_verdict_needs_the_same_tree(library):
    r = holds(library, U, stmt(PAPER))
    assert r.status == "derivable"
    assert check_proof(library, U, r.tree) == CheckResult("valid")
    t = r.tree
    raised = ProofTree(t.tag, t.conclusion.with_qual(0.71), t.children,
                       t.rule_index, t.theta)
    res = check_proof(library, U, raised)
    assert res.status == "invalid" and "attenuation bound violated" in res.reason
    assert check_proof(library, U, t) == CheckResult("valid")


def test_kept_verdict_per_program_and_domain(monkeypatch):
    p = parse_program(BIN)
    tree = _levels(3)
    checked = _counting_checks(monkeypatch)
    assert check_proof(p, U, tree) == CheckResult("valid")
    assert len(checked) == 4
    assert check_proof(p, U, tree) == CheckResult("valid")
    assert len(checked) == 4
    # an equal program is another object, and so is another domain
    assert check_proof(parse_program(BIN), U, tree) == CheckResult("valid")
    assert len(checked) == 8
    assert check_proof(p, domain_from_name("uxu"), tree) == CheckResult("valid")
    assert len(checked) == 12
    assert check_proof(p, None, tree).status == "invalid"
    assert len(checked) == 13


def test_unknown_verdict_keeps_its_reason(monkeypatch):
    p = parse_program(BIN)
    u = _unknown_twice()
    expected = CheckResult("unknown", "root.1: hypotheses satisfiability unknown")
    checked = _counting_checks(monkeypatch)
    assert check_proof(p, U, u) == expected
    first = len(checked)
    assert check_proof(p, U, u) == expected
    assert len(checked) == 2 * first
    # under a parent, the same subtree is undecided at the parent's path
    above = cons(node(node(X, X), X), (u, refl(X, pi=UNDECIDED)), pi=UNDECIDED)
    assert check_proof(p, U, above) == \
        CheckResult("unknown", "root.0.1: hypotheses satisfiability unknown")


def test_kept_verdicts_follow_the_live_trees():
    p = parse_program(BIN)
    trees = [_levels(8), cons(node(X, X), (refl(X), refl(X)))]
    assert all(check_proof(p, U, t) == CheckResult("valid") for t in trees)
    table = qcflp.semantics._CheckState(p, U).valid
    assert len(table) == distinct_parts(trees)[0] == 12
    del trees
    gc.collect()
    assert len(table) == 0


def test_holds_translates_once_per_domain(monkeypatch):
    p = parse_program("f -0.9-> true")
    uxu = domain_from_name("uxu")
    statements = [(U, stmt("(f -> true) # 0.9")),
                  (uxu, stmt("(f -> true) # (0.9,0.8)"))]
    translations = []
    transform_program = qcflp.transform.transform_program

    def counting(program, dom=U, **kw):
        translations.append(dom)
        return transform_program(program, dom, **kw)

    monkeypatch.setattr(qcflp.transform, "transform_program", counting)
    for _ in range(2):
        for dom, s in statements:
            r = holds(p, dom, s, depth=2)
            assert r.status == "derivable" and r.tree.conclusion.qual == s.qual
            assert check_proof(p, dom, r.tree) == CheckResult("valid")
    assert translations == [U, uxu]
    # one argument per leaf of the domain, and no constructor of its own
    for dom, arity in ((U, 1), (uxu, 2)):
        sig = translation(p, dom).translated.signature
        assert sig.df == {"f'": arity} and sig.dc == p.signature.dc


def test_instantiate_rule(library):
    rule = library.rules[1]
    pats, alpha, rhs, conds = instantiate_rule(rule, {})
    assert pats == rule.patterns and rhs == rule.rhs
    theta = {"B": BOTTOM}
    pats2, _, _, _ = instantiate_rule(rule, theta)
    assert pats2[0] == BOTTOM  # instances range over partial terms


# ----------------------------------------------------------------------
# derivability search
# ----------------------------------------------------------------------

def test_holds_reflexive_statement(library):
    r = holds(library, U, stmt("(X -> X) # 0.99"), depth=2)
    assert r.status == "derivable"
    assert check_proof(library, U, r.tree).status == "valid"


def test_holds_trivial_statement(library):
    r = holds(library, U, stmt("(guessGenre(B) -> _|_) # 0.5"), depth=2)
    assert r.status == "derivable" and r.tree.tag == "triv"


def test_holds_undefined_symbol():
    p = parse_program("g -0.9-> true")
    r = holds(p, U, stmt("(f -> true) # 0.95"), depth=4)
    assert r.status == "not_found"


def test_holds_genre_statement(library):
    good = stmt(f"(guessGenre({BOOK4}) -> \"Essay\") # 0.7")
    r = holds(library, U, good, depth=5)
    assert r.status == "derivable"
    assert check_proof(library, U, r.tree).status == "valid"
    # the witness instance comes from the fourth genre rule
    fun_nodes = _collect(r.tree, "fun")
    assert any(library.rules[n.rule_index].attenuation == 0.7 for n in fun_nodes)

    beyond = stmt(f"(guessGenre({BOOK4}) -> \"Essay\") # 0.75")
    assert holds(library, U, beyond, depth=6).status == "not_found"


def test_holds_chain_within_tolerance():
    # the solver's bound on the product of the factors sits an ulp below
    # 0.336, so the exact threshold has no answer; holds poses it less
    # CHECK_TOL and weakens the root to 0.336
    p = parse_program("r -0.6-> s\ns -0.7-> t\nt -0.8-> true")
    translated, _ = transform_program(p)
    goal = transform_goal(parse_goal("(r == true) # W | W >= 0.336"), p)
    assert list(Solver(translated).solve(*goal)) == []
    r = holds(p, U, stmt("(r -> true) # 0.336"))
    assert r.status == "derivable" and r.tree.conclusion.qual == 0.336
    assert check_proof(p, U, r.tree).status == "valid"


def test_holds_statement_variables_are_rigid():
    # the solver's answer binds Y to a, which does not prove f(Y) -> true
    # for every Y
    p = parse_program("f(a) --> true")
    assert holds(p, U, stmt("(f(Y) -> true) # 1")).status == "not_found"


@pytest.mark.parametrize("hypothesis, status", [
    ("Y >= 1", "derivable"), ("Y >= -1", "not_found")])
def test_holds_hypotheses_decide_residuals(hypothesis, status):
    # the answer's residual Y >= 0 is accepted only where the
    # hypotheses entail it
    p = parse_program("f(X) --> true <== X >= 0")
    s = stmt(f"(f(Y) -> true) # 1 <== {hypothesis}")
    r = holds(p, U, s)
    assert r.status == status
    if r.tree is not None:
        # Y has an interval in the answer, but replay shows it as Y
        assert r.tree.conclusion == s
        assert check_proof(p, U, r.tree).status == "valid"


@pytest.mark.parametrize("rules, text, status", [
    # X is the rule's own: a residual on it, ~0~X*~0~X < 1, is refuted
    # by X = 2 but met by X = 0, so it does not refute the statement
    ("f(Z) --> true <== X * X < Z", "(f(1) -> true) # 1", "unknown"),
    ("g(Y) --> h(Y, Z)\nh(X, Z) --> true <== X * X < Z",
     "(g(Y) -> true) # 1", "unknown"),
    # the result is the rule's free Y, which some value makes 3
    ("f(X) --> Y <== Y >= 0", "(f(a) -> 3) # 1", "unknown"),
    ("f(X) --> Y", "(f(a) -> 3) # 1", "unknown"),
    # X == Z binds the statement's Y to the rule's Z, which is renamed
    # back to Y: the residual Z >= 1 is Y >= 1
    ("g(Y) --> h(Y, Z)\nh(X, Z) --> true <== X == Z, Z >= 1",
     "(g(Y) -> true) # 1 <== Y >= 0", "not_found"),
    ("g(Y) --> h(Y, Z)\nh(X, Z) --> true <== X == Z, Z >= 1",
     "(g(Y) -> true) # 1 <== Y >= 2", "derivable"),
])
def test_holds_variables_of_the_search(rules, text, status):
    p, s = parse_program(rules), stmt(text)
    r = holds(p, U, s)
    assert r.status == status
    if r.tree is not None:
        assert r.tree.conclusion == s
        assert "~" not in serialize_proof(r.tree, "u", U)


def test_holds_through_an_identity_checks_valid():
    # the tree's atom node Y == Y holds under any valuation of Y
    p = parse_program("g(Y) --> h(Y, Z)\nh(X, Z) --> true <== X == Z, Z >= 1")
    r = holds(p, U, stmt("(g(Y) -> true) # 1 <== Y >= 2"))
    assert r.status == "derivable"
    assert check_proof(p, U, r.tree).status == "valid"


@pytest.mark.parametrize("rules", [
    "g --> h(Z)\nh(X) --> true",
    "g --> h(Z, Z)\nh(X, Y) --> true",
])
def test_holds_free_rule_variable_round_trips(rules):
    # Z is bound to nothing: the certificate names it in source syntax,
    # so it reads back to an equal tree, which checks valid
    p = parse_program(rules)
    r = holds(p, U, stmt("(g -> true) # 1"))
    assert r.status == "derivable"
    cert = serialize_proof(r.tree, "u", U)
    _, parsed = parse_proof(cert)
    assert parsed == r.tree
    assert check_proof(p, U, parsed).status == "valid"
    theta = dict(parsed.theta)
    assert theta["Z"] == Var("_W2") and "~" not in cert


def _collect(tree, tag):
    out = [tree] if tree.tag == tag else []
    for child in tree.children:
        out += _collect(child, tag)
    return out


def test_holds_downward_closure():
    p = parse_program("f -0.9-> true\ng -0.8-> f")
    for d in (0.72, 0.5, 0.1, 0.72 / 2):
        r = holds(p, U, production(App("g"), TRUE, d, ()), depth=4)
        assert r.status == "derivable", d
    assert holds(p, U, production(App("g"), TRUE, 0.73, ()),
                 depth=4).status == "not_found"


def _approximation_cases():
    # plain terms over the undeclared constructors c and a
    atoms = [BOTTOM, Var("X"), Basic(1.0), App("a")]
    terms = list(atoms)
    for x, y in itertools.product(atoms, repeat=2):
        terms.append(App("c", (x, y)))
    return itertools.product(terms, repeat=2)


APPROXIMATION = parse_program("f --> true")
PRESERVATION = parse_program("f(X) -0.9-> c(X)")
PHI = production(parse_expr("f(d(Y))"), parse_expr("c(d(Y))"), 0.9, ())
PSI = production(parse_expr("f(d(a))"), parse_expr("c(_|_)"), 0.5, ())


def test_approximation_property_exhaustive():
    # rewriting between plain terms holds exactly for information-weakening
    for t1, t2 in _approximation_cases():
        r = holds(APPROXIMATION, U, production(t1, t2, 0.5, ()), depth=3)
        assert (r.status == "derivable") == info_leq(t2, t1), (t1, t2)


def test_entailment_preservation():
    assert holds(PRESERVATION, U, PHI, depth=3).status == "derivable"
    assert statement_entails(PHI, PSI, U) is not None
    assert holds(PRESERVATION, U, PSI, depth=3).status == "derivable"


def test_derivable_trees_on_undeclared_constructors_check():
    # the solver takes a symbol the program does not declare for data,
    # and so does the checker's cons rule
    cases = [(APPROXIMATION, production(t1, t2, 0.5, ()))
             for t1, t2 in _approximation_cases()]
    cases += [(PRESERVATION, PHI), (PRESERVATION, PSI)]
    derivable = 0
    for p, s in cases:
        r = holds(p, U, s, depth=3)
        if r.status == "derivable":
            derivable += 1
            assert check_proof(p, U, r.tree) == CheckResult("valid"), s
    assert derivable == 74
    # a declared function is still no constructor
    call = production(App("f"), App("f"), 0.5, ())
    tree = ProofTree("cons", call)
    assert check_proof(APPROXIMATION, U, tree).reason == \
        "root: not a constructor decomposition"


def _prune_rng(term, rng):
    from qcflp.terms import App
    if isinstance(term, App) and term.args and rng.random() < 0.4:
        return BOTTOM
    if isinstance(term, App) and term.args:
        return App(term.symbol, tuple(_prune_rng(a, rng) for a in term.args))
    return term


def test_entailment_preservation_sampled():
    # weakened consequences of derivable facts stay derivable
    from conftest import random_layered_program
    rng = random.Random(77)
    exercised = 0
    for _ in range(5):
        p = random_layered_program(rng)
        interp = bounded_lfp(p, U, 5, _universe(p))
        for (f, args, result), quals in list(interp.facts.items())[:4]:
            phi = production(App(f, args), result, max(quals), ())
            weaker = production(App(f, args), _prune_rng(result, rng),
                                max(quals) * rng.uniform(0.3, 1.0), ())
            sigma = statement_entails(phi, weaker, U)
            assert sigma is not None
            assert holds(p, U, weaker, depth=8).status == "derivable"
            exercised += 1
    assert exercised > 0


def test_conservation_property_desk_scale():
    # a fact is derivable from the iterate's facts exactly when the
    # closure already contains it
    from qcflp.semantics import _FactReducer
    p = parse_program("f --> true\ng -0.8-> f\nh(X) -0.5-> g <== X == a")
    universe = [TRUE, parse_expr("a"), parse_expr("b")]
    interp = bounded_lfp(p, U, 6, universe)
    red = _FactReducer(interp, p, U)
    for fname, arity in p.signature.df.items():
        from itertools import product as cartesian
        for args in cartesian(universe, repeat=arity):
            for target in universe:
                derivable = [d for t, d in red.reduce(App(fname, tuple(args)))
                             if info_leq(target, t)]
                closure = interp.max_quals(fname, tuple(args), target, U)
                if closure:
                    assert derivable
                    assert max(derivable) == pytest.approx(max(closure))
                else:
                    assert not derivable


def test_proof_search_emits_checkable_trees_randomly():
    from conftest import random_layered_program
    rng = random.Random(31)
    for _ in range(5):
        p = random_layered_program(rng)
        interp = bounded_lfp(p, U, 5, _universe(p))
        for (f, args, result), quals in list(interp.facts.items())[:6]:
            d = max(quals)
            r = holds(p, U, production(App(f, args), result, d, ()), depth=7)
            assert r.status == "derivable", (f, result, d)
            assert check_proof(p, U, r.tree).status == "valid"


def _universe(p):
    from qcflp.oracle import default_universe
    return default_universe(p)


# ----------------------------------------------------------------------
# bounded fixpoint iteration
# ----------------------------------------------------------------------

def test_lfp_plain_fact():
    p = parse_program("f --> true")
    interp = bounded_lfp(p, U, 1, [])
    assert interp.max_quals("f", (), TRUE, U) == [1.0]


def test_lfp_attenuated_fact_excludes_higher():
    p = parse_program("g -0.9-> true")
    interp = bounded_lfp(p, U, 1, [])
    (d,) = interp.max_quals("g", (), TRUE, U)
    assert d == pytest.approx(0.9)
    # nothing in the closure reaches 0.95
    assert all(q <= 0.95 for q in interp.max_quals("g", (), TRUE, U))


def test_lfp_zero_iterations_only_trivial():
    p = parse_program("g -0.9-> true")
    interp = bounded_lfp(p, U, 0, [])
    assert interp.facts == {}


def test_lfp_conservation_desk_scale():
    # facts of the iterate are exactly the facts derivable from it
    p = parse_program("f --> true\ng -0.8-> f")
    universe = [TRUE, App("ff")]
    interp = bounded_lfp(p, U, 4, universe)
    again = bounded_lfp(p, U, 5, universe)
    assert interp == again  # fixpoint reached, closure adds nothing new


def test_lfp_canonicity_desk_scale():
    p = parse_program("f --> true\ng -0.8-> f\nh(X) -0.5-> g <== X == a")
    universe = [TRUE, App("a"), App("b")]
    interp = bounded_lfp(p, U, 6, universe)
    for (f, args, result), quals in interp.facts.items():
        for d in quals:
            r = holds(p, U, production(App(f, args), result, d, ()), depth=8)
            assert r.status == "derivable"
    # and conversely, a derivable fact shows up in the iterate
    assert interp.max_quals("h", (App("a"),), TRUE, U) == [pytest.approx(0.4)]
    assert interp.max_quals("h", (App("b"),), TRUE, U) == []


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------

def test_statement_roundtrip():
    texts = [
        "(f(X:Xs) -> Xs) # 0.8 <== X*X /= 0",
        "p(X, 3) # 0.5",
        f"(guessGenre({BOOK4}) -> \"Essay\") # 0.7",
    ]
    for text in texts:
        s = stmt(text)
        assert parse_statement(print_statement(s, U)) == s


def test_certificate_roundtrip(library):
    r = holds(library, U, stmt(f"(guessGenre({BOOK4}) -> \"Essay\") # 0.7"),
              depth=5)
    cert = serialize_proof(r.tree, "u", U)
    name, tree = parse_proof(cert)
    assert name == "u"
    assert tree == r.tree
    assert check_proof(library, U, tree).status == "valid"


def test_shared_child_is_one_line_and_one_object():
    # a premise that two parents share is written on one line and read
    # back as one object; two equal but distinct premises are two lines
    leaf = refl(X)
    shared = cons(node(X, X), (leaf, leaf))
    twins = cons(node(X, X), (refl(X), refl(X)))
    assert shared == twins
    for tree, lines in ((shared, 2), (twins, 3)):
        cert = serialize_proof(tree, "u", U)
        assert cert.split("\n")[2] == f"nodes {lines}"
        _, parsed = parse_proof(cert)
        assert parsed == tree
        assert (parsed.children[0] is parsed.children[1]) == (tree is shared)


def test_deep_certificate_at_the_default_recursion_limit():
    # the writer and the reader keep their own stacks, so a chain far
    # deeper than the recursion limit is written and read back as it is
    depth = 20_000
    assert sys.getrecursionlimit() < depth
    tree = refl(X)
    for i in range(depth):
        tree = cons(App("s", (Basic(i),)), (tree,))
    cert = serialize_proof(tree, "u", U)
    # a node line per level and one for the leaf; a term line for X and
    # for each level's i and s(i)
    assert cert.split("\n")[2] == f"nodes {depth + 1}"
    assert cert.count("\n") == 4 + 2 * depth + 1 + depth + 1
    _, parsed = parse_proof(cert)
    a, b = tree, parsed
    while a.children:
        assert (a.tag, a.conclusion) == (b.tag, b.conclusion)
        (a,), (b,) = a.children, b.children
    assert a == b and not b.children


def test_check_proof_raises_on_a_tree_too_deep_to_check(monkeypatch):
    # a valid tree nested deeper than the recursion limit is not invalid:
    # the checker raises RecursionError, which prove --check reports as
    # exit 5 ("term nested too deeply"), as every other layer does
    monkeypatch.setattr(qcflp.terms, "DEEP_RECURSION_LIMIT", 3000)
    program = parse_program("data t = a\nbig --> [" + ", ".join(["a"] * 5000)
                            + "]\nhd(X:_T) --> X\n")
    translated, _ = transform_program(program)
    constraints, wvars, datavars = transform_goal(parse_goal("(hd(big) == X) # W"),
                                                  program)

    def check():
        solver = Solver(translated, limits=Limits(depth=8))
        answer = next(iter(solver.solve(constraints, wvars, datavars)))
        *_, tree = replay_trees(solver, answer, constraints)
        assert tree.conclusion.atom.symbol == "=="
        with pytest.raises(RecursionError):
            check_proof(translated, None, tree)

    qcflp.terms.run_deep(check)


def _unshared(tree):
    """A copy of tree that shares no subtree, statement or term."""
    def term(e):
        if isinstance(e, App):
            return App(e.symbol, tuple(term(a) for a in e.args))
        if isinstance(e, Basic):
            return Basic(e.value)
        if isinstance(e, Var):
            return Var(e.name)
        return e

    def constraint(c):
        return None if c is None else \
            AtomicConstraint(c.symbol, tuple(map(term, c.args)), term(c.result))

    s = tree.conclusion
    return ProofTree(tree.tag,
                     QStatement(None if s.lhs is None else term(s.lhs),
                                None if s.rhs is None else term(s.rhs),
                                constraint(s.atom), s.qual,
                                tuple(map(constraint, s.hypotheses))),
                     tuple(map(_unshared, tree.children)), tree.rule_index,
                     tuple((n, term(v)) for n, v in tree.theta))


def test_certificate_terms_are_shared(library_text):
    # equal terms of a certificate parse into one object: at most as
    # many App objects as in the tree holds built, whose terms the
    # solver's replay shares (a parse that shared only lines made 2,773).
    # The program is this test's own, so what other tests leave in a
    # program's memos does not change the count.
    library = parse_program(library_text)
    r = holds(library, U, stmt(f"(guessGenre({BOOK4}) -> \"Essay\") # 0.7"),
              depth=6)
    cert = serialize_proof(r.tree, "u", U)
    _, parsed = parse_proof(cert)
    assert parsed == r.tree
    assert distinct_parts([parsed])[1] <= distinct_parts([r.tree])[1] == 95
    s = parsed.conclusion
    assert parsed.children[0].conclusion.lhs is s.lhs.args[0]
    # every verdict and reason is that of the same tree without sharing
    assert check_proof(library, U, parsed).status == "valid"
    rng = random.Random(3)
    lines = cert.splitlines()
    first = next(i for i, ln in enumerate(lines) if i > 3 and ln[0] != "t")
    words = ["0.7", "0.5", "1", "->", "-", "0", "cons", "refl",
             *(lines[i].split("\t")[0] for i in range(4, first, 9))]
    statuses = set()
    for n in range(61):
        tampered = list(lines)
        if n:  # round 0 reads the certificate as written
            i = rng.randrange(first, len(lines))
            parts = tampered[i].split("\t")
            j = rng.choice((3, 5, 5))  # the substitution or the conclusion
            toks = parts[j].split(" ")
            toks[rng.randrange(len(toks))] = rng.choice(words)
            parts[j] = " ".join(toks)
            tampered[i] = "\t".join(parts)
        try:
            _, tree = parse_proof("\n".join(tampered) + "\n")
        except (ParseError, ValueError):
            continue
        verdict = check_proof(library, U, tree)
        assert verdict == check_proof(library, U, _unshared(tree))
        statuses.add(verdict.status)
    assert statuses == {"valid", "invalid"}


def _subterms(e):
    """Every subterm occurrence of e, e first."""
    yield e
    for a in e.args if isinstance(e, App) else ():
        yield from _subterms(a)


def test_certificate_terms_are_canonical_in_one_table():
    # the writer writes each distinct term once, and the reader reads
    # each term line into one object, across the lines of a certificate:
    # strings, lists, chars, numbers and variables alike
    s = parse_statement('(f("ab", ["ab", \'a\', 1, X], \'a\':"b", g(X, 1.0, -2))'
                        ' -> g(X, 1, "ab":[[]], [])) # 0.5')
    again = parse_statement('("b" -> [X, 1]) # 0.5')
    tree = ProofTree("fun", s, (ProofTree("refl", again),))
    cert = serialize_proof(tree, "u", U)
    _, parsed = parse_proof(cert)
    assert parsed == tree
    p, q = parsed.conclusion, parsed.children[0].conclusion
    apps = [t for e in (p.lhs, p.rhs) for t in _subterms(e) if isinstance(t, App)]
    structural = len(set(apps))
    assert distinct_parts([ProofTree("refl", p)])[1] == structural < len(apps)
    assert q.lhs is p.lhs.args[2].args[1]
    assert q.rhs.args[0] is p.lhs.args[3].args[0]  # X
    assert q.rhs.args[1].args[0] is p.lhs.args[3].args[1]  # 1
    terms = {t for e in (p.lhs, p.rhs, q.lhs, q.rhs) for t in _subterms(e)}
    assert sum(ln[0] == "t" for ln in cert.split("\n")[4:] if ln) == len(terms) == 19
    # parse_statement shares nothing
    plain = parse_statement('(f("ab", "ab") -> [])')
    assert plain.lhs.args[0] == plain.lhs.args[1]
    assert plain.lhs.args[0] is not plain.lhs.args[1]


F_ID = parse_program("f(X) --> X")
# characters that break lines for str.splitlines, the certificate's own
# separators, and the quotes and escapes of string and char literals
TRICKY = [";", '"', "'", "\\", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
          "\x1e", "\x85", "\u2028", "\u2029", "{", "}", "#", "-", ">", " ", "a"]


@given(st.one_of(
    st.lists(st.sampled_from(TRICKY + ["->"]), max_size=6).map("".join).map(mkstring),
    st.sampled_from(TRICKY).map(char_atom)))
def test_certificates_round_trip_any_string_or_char(term):
    r = holds(F_ID, U, production(App("f", (term,)), term, 1.0))
    assert r.status == "derivable"
    cert = serialize_proof(r.tree, "u", U)
    _, parsed = parse_proof(cert)
    assert parsed == r.tree
    assert check_proof(F_ID, U, parsed).status == "valid"


# a certificate's header, then its T term lines: X and node(X, X)
HEAD = "qcflp-proof v2\ndomain u\nnodes {}\nroot {}\nt0\tX\nt1\tnode\tt0,t0\n"
T = 2
LEAF = "\trefl\t-\t-\t-\tt0 -> t0 # 0.5"
PAIR = "\tcons\t-\t-\t{}\tt1 -> t1 # 0.5"


@pytest.mark.parametrize("lines, count, root, line, message", [
    (["0" + LEAF, "1" + PAIR.format("0,5")], 2, 1,
     6 + T, "premise 5 names no earlier node"),
    (["0" + PAIR.format("1,1"), "1" + LEAF], 2, 0,
     5 + T, "premise 1 names no earlier node"),
    (["0" + LEAF, "0" + LEAF], 2, 0, 6 + T, "node 0 is defined twice"),
    (["0" + LEAF, "1" + PAIR.format("0,0")], 2, 3, 4, "root 3 names no node"),
    (["0" + LEAF], 2, 0, 3, "nodes 2, but 1 node lines follow"),
], ids=["dangling", "forward", "repeated-id", "root", "count"])
def test_bad_certificate_references(lines, count, root, line, message):
    text = HEAD.format(count, root) + "\n".join(lines) + "\n"
    with pytest.raises(ParseError) as err:
        parse_proof(text)
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.message) == (line, message)


def header(count=1, root=0):
    """The four header lines, with no term line."""
    return HEAD.format(count, root).split("t0", 1)[0]


@pytest.mark.parametrize("text, line, message", [
    (HEAD.format(1, 0) + "a1" + LEAF, 5 + T, "node id 'a1' is not an integer"),
    (HEAD.format(1, 0) + "0\tfun\tx\t-\t-\tt0 -> t0 # 0.5", 5 + T,
     "rule index 'x' is not an integer"),
    (HEAD.format(2, 1) + "0" + LEAF + "\n1" + PAIR.format("0,b"), 6 + T,
     "premise 'b' is not an integer"),
    (HEAD.format(1, 0) + "0\trefl\t-\t-\tt0 -> t0 # 0.5", 5 + T,
     "a node line has 6 tab-separated fields, not 5"),
    (HEAD.format(1, 0) + "0\trefl\t-\t-\t-\tt0 -> ", 5 + T,
     "term '' names no earlier term"),
    ("qcflp-proof v2\ndomain\nnodes 1\nroot 0\n0" + LEAF, 2,
     "expected 'domain <value>', found 'domain'"),
    ("qcflp-proof v2\ndomain u\nnodes x\nroot 0\n0" + LEAF, 3,
     "nodes 'x' is not an integer"),
    ("qcflp-proof v2\ndomain u\nnodes 1\nroot 0.5\n0" + LEAF, 4,
     "root '0.5' is not an integer"),
    ("qcflp-proof v2\ndomain u\n", 2,
     "certificate ends before its 'nodes' line"),
    (HEAD.format(1, 0) + "0\trefl\t-\tX\t-\tt0 -> t0 # 0.5", 5 + T,
     "substitution 'X' is not '-' or '{...}'"),
    (HEAD.format(1, 0) + "0\trefl\t-\t0\t-\tt0 -> t0 # 0.5", 5 + T,
     "substitution '0' is not '-' or '{...}'"),
    (HEAD.format(1, 0) + "0\trefl\t-\t{X t0}\t-\tt0 -> t0 # 0.5", 5 + T,
     "substitution '{X t0}' is not '-' or '{...}'"),
    (HEAD.format(1, 0) + "0\tatom\t-\t-\t-\t== # 0.5", 5 + T,
     "atom '==' is not a symbol and term ids"),
    # term lines
    (header() + "t0\tnode\tt1,t1\nt1\tX\n0" + LEAF, 5,
     "term 't1' names no earlier term"),
    (header() + "t0\tX\nt1\tnode\tt0,t7\n0" + LEAF, 6,
     "term 't7' names no earlier term"),
    (HEAD.format(1, 0) + "0\trefl\t-\t-\t-\tt0 -> t9 # 0.5", 5 + T,
     "term 't9' names no earlier term"),
    (HEAD.format(1, 0) + "0\trefl\t-\t{X -> t9}\t-\tt0 -> t0 # 0.5", 5 + T,
     "term 't9' names no earlier term"),
    (header() + "t0\tX\nt0\tY\n0" + LEAF, 6, "term 't0' is defined twice"),
    (header() + "t0\t'a\n0" + LEAF, 5, "bad leaf \"'a\""),
    (header() + "t0\t''\n0" + LEAF, 5, "bad leaf \"''\""),
    (header() + "t0\t1.5.2\n0" + LEAF, 5, "bad leaf '1.5.2'"),
    (header() + "t0\t-x\n0" + LEAF, 5, "bad leaf '-x'"),
    (header() + "t0\tfoo bar\n0" + LEAF, 5, "bad leaf 'foo bar'"),
    (header() + "t0\t\n0" + LEAF, 5, "bad leaf ''"),
    (header() + "t0\tf\tt1\tt2\n0" + LEAF, 5,
     "a term line is an id and a leaf, or an id, a symbol and argument ids"),
    (HEAD.format(1, 0) + "0\trefl\t-\t-\t-\tt0 -> t0 # high", 5 + T,
     "bad qualification 'high'"),
    (HEAD.format(1, 0) + "0\trefl\t-\t-\t-\tt0 -> t0 # (0.5)", 5 + T,
     "bad qualification '(0.5)'"),
    (HEAD.format(1, 0) + "0\trefl\t-\t-\t-\tt0 -> t0 # (0.5,0.5,0.5)", 5 + T,
     "bad qualification '(0.5,0.5,0.5)'"),
    ("qcflp-proof v1\ndomain u\nnodes 1\nroot 0\n0\trefl\t-\t-\t-\t(X -> X) # 0.5",
     1, "a qcflp-proof v1 certificate: prove the statement again to write v2"),
    ("", 1, "not a proof certificate"),
], ids=["node-id", "rule-index", "premise", "fields", "conclusion",
        "domain", "nodes", "root", "short", "theta-var", "theta-number",
        "theta-binding", "atom", "forward-term", "dangling-term",
        "dangling-conclusion-term", "dangling-theta-term", "repeated-term",
        "open-char", "empty-char", "number", "minus", "spaced-constant",
        "empty-leaf", "term-fields", "qualification", "short-pair",
        "long-pair", "v1", "empty"])
def test_malformed_certificate_lines(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_proof(text + "\n")
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.col, diag.message) == (line, 1, message)


def test_certificate_cannot_express_a_cycle():
    # each node may only name earlier lines, so in a cycle the first
    # line written names one that is not yet defined
    for lines in (["0" + PAIR.format("0,0")],
                  ["0" + PAIR.format("1,1"), "1" + PAIR.format("0,0")]):
        text = HEAD.format(len(lines), 0) + "\n".join(lines) + "\n"
        with pytest.raises(ParseError, match=f"{5 + T}:1: premise"):
            parse_proof(text)


def test_mutated_certificates_parse_or_get_a_verdict(library):
    # every certificate one edit away from the paper statement's, with a
    # line deleted or two neighbouring fields of a line swapped (split at
    # tabs, at spaces or at commas, so ids swap too), is refused by the
    # reader with a ParseError, or read and given a verdict by the
    # checker; none raises anything else
    r = holds(library, U, stmt('(search("German","Essay",intermediate) -> 4) # 0.65'))
    lines = serialize_proof(r.tree, "u", U).splitlines()
    mutants = set()
    for i, ln in enumerate(lines):
        mutants.add(tuple(lines[:i] + lines[i + 1:]))
        for sep in "\t ,":
            fields = ln.split(sep)
            for j in range(len(fields) - 1):
                swapped = fields[:j] + [fields[j + 1], fields[j]] + fields[j + 2:]
                mutants.add(tuple(lines[:i] + [sep.join(swapped)] + lines[i + 1:]))
    mutants.discard(tuple(lines))
    outcomes = {"ParseError": 0, "valid": 0, "invalid": 0, "unknown": 0}
    for mutant in mutants:
        try:
            name, tree = parse_proof("\n".join(mutant) + "\n")
        except ParseError:
            outcomes["ParseError"] += 1
            continue
        outcomes[check_proof(library, domain_from_name(name), tree).status] += 1
    assert sum(outcomes.values()) == len(mutants) > 1000
    assert outcomes["ParseError"] > 0 and outcomes["invalid"] > 0


@pytest.mark.parametrize("dom_name", ["u", "uxu", "-"])
def test_certificates_round_trip_awkward_leaves(monkeypatch, dom_name):
    # leaves whose token text the certificate's separators, escapes and
    # leaf classes could confuse, in statements with qualifications of
    # every domain, hypotheses, atoms and substitutions; the reader
    # never runs the program lexer
    monkeypatch.setattr(qcflp.syntax, "lex", None)
    dom = None if dom_name == "-" else domain_from_name(dom_name)
    qual = None if dom is None else (0.5, 0.25) if dom_name == "uxu" else 0.625
    leaves = [*map(char_atom, ["\t", "\n", "\r", "\u2028", "#", " ", "'", "\\", ","]),
              Basic(-2.0), Basic(-0.5), Basic(0.1), Basic(1e-7), Basic(-1e20),
              BOTTOM, Var("~3~X"), Var("_W0.1"), Var("~7"), App("[]"), App("a"),
              App("t0"), App("f'"), App("-", (Basic(3.0), Basic(-3.0)))]
    X = Var("X")
    hyps = (AtomicConstraint(">=", (X, Basic(-0.5)), TRUE),
            AtomicConstraint("+", (X, Basic(1.5)), Var("~3~X")),
            AtomicConstraint("==", (X, char_atom("\t")), App("false")))
    trees = [ProofTree("refl", production(e, e, qual)) for e in leaves]
    big = App("f", tuple(leaves))
    trees.append(ProofTree("fun", production(big, mkstring("a#b -> c"), qual, hyps),
                           tuple(trees), 3, (("X", big), ("_W0.1", BOTTOM))))
    trees.append(ProofTree("atom", atom_statement(hyps[1], qual, hyps[:1]),
                           (trees[-1], trees[0])))
    for tree in trees:
        name, parsed = parse_proof(serialize_proof(tree, dom_name, dom))
        assert (name, parsed) == (dom_name, tree)


def test_weaken_tree(library):
    r = holds(library, U, stmt(f"(guessGenre({BOOK4}) -> \"Essay\") # 0.7"),
              depth=5)
    weaker = weaken_tree(r.tree, parse_expr('"Essay"'), 0.3, U)
    assert weaker.conclusion.qual == 0.3
    assert check_proof(library, U, weaker).status == "valid"
