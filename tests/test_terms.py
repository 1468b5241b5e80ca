import random
import sys

from hypothesis import example, given, strategies as st

import pytest

from qcflp.constraints import holds_under
from qcflp.semantics import production
from qcflp.syntax import parse_expr
from qcflp.terms import (App, AtomicConstraint, Basic, BOTTOM, BUILTIN_PF,
                         HashCons, Signature, TRUE, Var, apply_subst, compare_data,
                         info_leq, is_ground, is_term, is_total,
                         term_glb, term_lub, vars_of)
from qcflp.transform import GroundData, transform_expr


def e(text):
    return parse_expr(text)


def test_info_leq_examples():
    assert info_leq(BOTTOM, e("f(A, 3)"))
    # deepening a partial list stays below the completed one
    assert info_leq(e("f(A:(B:_|_))"), e("f(A:(B:[]))"))
    assert not info_leq(e("c(1)"), e("c(2)"))
    assert info_leq(e("X"), e("X"))
    assert not info_leq(e("X"), e("Y"))


def test_apply_subst_examples():
    sigma = {"X": e("A"), "Xs": e("B:_|_")}
    assert apply_subst(e("f(X:Xs)"), sigma) == e("f(A:(B:_|_))")
    assert apply_subst(e("f(X:Xs)"), {}) == e("f(X:Xs)")


def _random_expr(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice([Var("X"), Var("Y"), Var("Z"), Basic(1.0),
                           App("a"), BOTTOM])
    sym = rng.choice(["c", "d"])
    return App(sym, tuple(_random_expr(rng, depth - 1)
                          for _ in range(rng.randint(1, 2))))


def test_info_leq_partial_order_sampled():
    rng = random.Random(11)
    samples = [_random_expr(rng, 3) for _ in range(60)]
    for x in samples:
        assert info_leq(x, x)
    for x in samples:
        for y in samples:
            if info_leq(x, y) and info_leq(y, x):
                assert x == y
            for z in samples:
                if info_leq(x, y) and info_leq(y, z):
                    assert info_leq(x, z)


def test_term_glb_lub():
    a, b = e("c(1, _|_)"), e("c(_|_, d(2))")
    assert term_glb(a, b) == e("c(_|_, _|_)")
    assert term_lub(a, b) == e("c(1, d(2))")
    assert term_lub(e("c(1)"), e("c(2)")) is None
    # glb and lub bracket their arguments
    assert info_leq(term_glb(a, b), a)
    assert info_leq(a, term_lub(a, b))


def test_classification():
    sig = Signature()
    sig.register_df("f", 1)
    sig.register_dc("c", 2)
    assert is_term(e("c(X, 1)"), sig)
    assert not is_term(App("f", (Var("X"),)), sig)
    assert is_ground(e("c(1)")) and not is_ground(e("c(X)"))
    assert is_total(e("c(1)")) and not is_total(e("c(_|_)"))


def test_signature_disjointness():
    sig = Signature()
    sig.register_dc("c", 2)
    import pytest
    from qcflp.terms import SignatureError
    with pytest.raises(SignatureError):
        sig.register_df("c", 1)
    with pytest.raises(SignatureError):
        sig.register_dc("c", 3)


def test_vars_of_deep_terms():
    # deeper than the default recursion limit, which an earlier solve in
    # this process may have raised
    deep = Var("X")
    for i in range(5000):
        deep = App("s", (deep, Basic(i)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        found = vars_of(deep)
    finally:
        sys.setrecursionlimit(limit)
    assert found == {"X"}
    assert vars_of([App("c", (Var("A"), Var("B"))), (Var("A"),)]) == {"A", "B"}


def test_terms_statements_and_constraints_are_slotted():
    # the canonical ground data that a program keeps is made of these,
    # so none of them carries a per-instance __dict__
    objects = [Var("X"), Basic(1.0), App("f", (Basic(1.0),)),
               AtomicConstraint("==", (Var("X"), Basic(1.0)), TRUE),
               production(App("f"), TRUE)]
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        assert obj == type(obj)(*(getattr(obj, s) for s in type(obj).__slots__))


def test_is_data():
    sig = Signature()
    sig.register_df("f", 1)
    sig.register_dc("c", 2)
    # declared and undeclared constructors and characters build data
    assert all(sig.is_data(x) for x in ("c", "true", ":", "'x'", "undeclared"))
    assert not any(sig.is_data(x) for x in ("f", "+", "==", "qVal"))


@pytest.mark.parametrize("a, b, verdict", [
    ('c(1, "ab")', 'c(1, "ab")', "same"),
    ("c(X, [a])", "c(X, [a])", "same"),
    ("c(1, a)", "c(1.0, a)", "same"),
    ("1", "2", "diff"),
    ("a", "1", "diff"),
    ("c(a)", "c(a, a)", "diff"),
    ("c(a)", "d(a)", "diff"),
    # a clash decides, wherever the unknown parts are
    ("c(X, _|_, f(X), a)", "c(Y, 1, 2, b)", "diff"),
    ("X", "Y", "unknown"),
    ("X", "a", "unknown"),
    ("_|_", "_|_", "unknown"),
    # a call is not data, even against itself
    ("f(X)", "f(X)", "unknown"),
    ("c(X + 1)", "c(3)", "unknown"),
    ("c(f(a), a)", "c(b, a)", "unknown"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_compare_data_examples(a, b, verdict):
    assert compare_data(e(a), e(b), {"f", *BUILTIN_PF}) == verdict
    assert compare_data(e(b), e(a), {"f", *BUILTIN_PF}) == verdict


def test_compare_data_walks_the_substitution():
    subst = {"X": Var("Y"), "Y": e("c(Z)"), "V": e("c(b)")}
    calls = BUILTIN_PF
    assert compare_data(e("X"), e("c(Z)"), calls, subst) == "same"
    assert compare_data(e("X"), e("Y"), calls, subst) == "same"
    assert compare_data(e("c(V)"), e("c(c(a))"), calls, subst) == "diff"
    assert compare_data(e("X"), e("c(a)"), calls, subst) == "unknown"
    assert compare_data(e("X"), e("c(a)"), calls) == "unknown"


def test_compare_data_and_is_ground_keep_their_own_stacks():
    deep = Var("X")
    for i in range(5000):
        deep = App("s", (deep, Basic(i)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        verdict = compare_data(deep, deep, BUILTIN_PF)
        ground = is_ground(deep)
    finally:
        sys.setrecursionlimit(limit)
    assert verdict == "same" and not ground


DATA_LEAVES = [App("a"), App("b"), Basic(0.0), Basic(1.0)]
DATA_VALUES = st.recursive(
    st.sampled_from(DATA_LEAVES),
    lambda kids: st.builds(lambda x, y: App("c", (x, y)), kids, kids),
    max_leaves=4)
TERMS = st.recursive(
    st.sampled_from([*DATA_LEAVES, Var("X"), Var("Y"), BOTTOM]),
    lambda kids: st.builds(lambda f, x, y: App(f, (x, y)),
                           st.sampled_from(["c", "+"]), kids, kids),
    max_leaves=8)


@given(TERMS, TERMS, DATA_VALUES, DATA_VALUES)
def test_compare_data_agrees_with_evaluation(s, t, x, y):
    # under every total valuation, same means that s == t evaluates to
    # true and diff that it evaluates to false
    verdict = compare_data(s, t, BUILTIN_PF)
    truth = holds_under(AtomicConstraint("==", (s, t), TRUE), {"X": x, "Y": y})
    assert {"same": truth is True, "diff": truth is False,
            "unknown": True}[verdict]


@given(DATA_VALUES, DATA_VALUES)
@example(Basic(1), Basic(1.0))
@example(Basic(0.0), Basic(-0.0))
@example(App("c", (Basic(1), App("a"))), App("c", (Basic(1.0), App("a"))))
def test_canonical_data_is_one_object_exactly_when_same(x, y):
    # the solver compares canonical ground data by identity, so it must
    # be one object exactly when compare_data decides it the same
    data, sig = GroundData(), Signature()
    cx, cy = (transform_expr(t, sig, data, None) for t in (x, y))
    assert (cx is cy) == (compare_data(x, y, BUILTIN_PF) == "same")


@pytest.mark.parametrize("table", [HashCons, GroundData])
def test_one_literal_key_rule(table):
    # every table keys a literal by its value: 1 and 1.0 are one term,
    # the first one met, and so are the applications over it
    share = table()
    one = Basic(1)
    assert share.leaf(one) is one and share.leaf(Basic(1.0)) is one
    assert share.app("c", (one,)) is share.app("c", (share.leaf(Basic(1.0)),))
    if table is GroundData:
        # each canonical term is registered once, as it enters
        assert len(share.proofs) == len(share.terms) == 2
