import itertools
import math
import random

import pytest

import qcflp.constraints
from qcflp.constraints import (Interval, SatResult, entails, eval_primitive,
                               holds_under, iv_mul, propagate, satisfiable)
from qcflp.syntax import parse_constraints, parse_expr, print_constraint
from qcflp.terms import App, AtomicConstraint, Basic, BOTTOM, FALSE, TRUE, Var


def c(text):
    (out,) = parse_constraints(text)
    return out


def cs(text):
    return parse_constraints(text)


def test_eval_primitive_examples():
    out = eval_primitive("*", [Basic(0.9), Basic(0.8)])
    assert isinstance(out, Basic) and out.value == pytest.approx(0.72, abs=1e-9)
    assert eval_primitive("==", [Basic(65.0), Basic(65.0)]) == TRUE
    assert eval_primitive("<", [BOTTOM, Basic(200.0)]) == BOTTOM


def test_eval_primitive_strict_equality():
    assert eval_primitive("==", [parse_expr('"ab"'), parse_expr('"ab"')]) == TRUE
    assert eval_primitive("==", [parse_expr('"ab"'), parse_expr('"ax"')]) == FALSE
    # a clash at one position decides even when another is undefined
    assert eval_primitive("==", [parse_expr("c(_|_, 1)"), parse_expr("c(_|_, 2)")]) == FALSE
    assert eval_primitive("==", [parse_expr("c(_|_)"), parse_expr("c(_|_)")]) == BOTTOM


def test_eval_primitive_radicality():
    rng = random.Random(3)
    for _ in range(300):
        sym = rng.choice(["+", "-", "*", "<=", "<", ">=", ">", "=="])
        args = [Basic(rng.uniform(-5, 5)), Basic(rng.uniform(-5, 5))]
        out = eval_primitive(sym, args)
        assert out == BOTTOM or isinstance(out, Basic) \
            or (isinstance(out, App) and not out.args)


def test_eval_primitive_monotonicity_sampled():
    # undefined arguments never give more information than defined ones
    rng = random.Random(4)
    for _ in range(300):
        sym = rng.choice(["+", "*", "<=", "=="])
        full = [Basic(rng.uniform(-3, 3)), Basic(rng.uniform(-3, 3))]
        out = eval_primitive(sym, full)
        for i in range(2):
            partial = list(full)
            partial[i] = BOTTOM
            weaker = eval_primitive(sym, partial)
            assert weaker == BOTTOM or weaker == out


def test_eval_primitive_rejects_unknown_symbol():
    with pytest.raises(Exception):
        eval_primitive("frobnicate", [Basic(1.0)])


def test_satisfiable_examples():
    res = satisfiable(cs("W <= 0.7, W >= 0.65"))
    assert res.status == "sat"
    assert res.witness["W"] == pytest.approx(0.7)

    assert satisfiable(cs("W <= 0.3, W >= 0.5")).status == "unsat"

    res = satisfiable(cs("0 < W, W <= 1"))
    assert res.status == "sat"
    assert res.witness["W"] == pytest.approx(1.0)


def test_satisfiable_witness_is_pointwise_solution():
    rng = random.Random(9)
    for _ in range(50):
        lo = rng.uniform(0, 0.5)
        hi = lo + rng.uniform(0, 0.5)
        k = rng.uniform(0.1, 1.0)
        constraints = cs(f"W >= {lo}, W <= {hi}, V <= {k}*W, V >= 0")
        res = satisfiable(constraints)
        assert res.status == "sat"
        for item in constraints:
            assert holds_under(item, res.witness) is True


def test_entails_examples():
    assert entails(cs("A < 0"), c("A*A /= 0")).status == "entailed"
    assert entails([], c("3 == 3")).status == "entailed"

    res = entails(cs("A < 0"), c("A > 0"))
    assert res.status == "not_entailed"
    w = res.witness["A"]
    assert w < 0  # the counterexample satisfies the hypotheses, refutes the claim
    # the negated atom is propagated together with the hypotheses
    assert entails(cs("X + Y >= 2, X <= 1"), c("Y >= 1")).status == "entailed"
    assert entails(cs("X == 2"), c("X + 1 == 3")).status == "entailed"
    assert entails(cs("0 < W, W <= 1"), c("qVal(W)")).status == "entailed"
    res = entails([], c("qVal(W)"))
    assert (res.status, res.witness) == ("not_entailed", {"W": 0.0})


def test_identity_is_entailed():
    # t == t holds under any valuation of t's variables, unless t holds
    # a bottom or a primitive application
    assert entails([], c("Y == Y")).status == "entailed"
    assert entails(cs("Y >= 2"), c("f(Y, a) == f(Y, a)")).status == "entailed"
    undefined = parse_expr("c(_|_)")
    assert entails([], AtomicConstraint("==", (undefined, undefined), TRUE)).status \
        == "unknown"


def test_closed_zero_factor_attains_zero():
    # X * 0 is 0 for every X, however X's interval is bounded
    assert iv_mul(Interval(0.0, 1.0, True, True), Interval(0.0, 0.0)) == Interval(0.0, 0.0)
    assert iv_mul(Interval(0.0, 1.0), Interval(2.0, 3.0, True, True)) \
        == Interval(0.0, 3.0, False, True)
    hyps = cs("X > 0, X < 1, X * 0 >= 0")
    res = satisfiable(hyps)
    assert res.status == "sat" and holds_all(hyps, res.witness)
    res = entails(hyps, c("X >= 7"))
    assert res.status == "not_entailed" and holds_all(hyps, res.witness)


def test_satisfiable_draws_data_variables():
    # X /= a holds for any number X
    assert satisfiable(cs("X /= a")) == SatResult("sat", {"X": 0.0})


def test_entails_unsat_hypotheses():
    assert entails(cs("A < 0, A > 1"), c("A == 5")).status == "entailed"


def test_ground_false_hypothesis_entails_anything():
    # 2*2 - 0.5 == -1 is the arithmetic atom -(2*2, 0.5) -> -1, false
    hyps = cs("2*2 - 0.5 == -1")
    assert hyps[0].symbol == "-"
    assert entails(hyps, c("1 >= 1.5")).status == "entailed"


def test_entails_not_entailed_witness_valid():
    res = entails(cs("0 < W, W <= 1"), c("W >= 0.5"))
    assert res.status == "not_entailed"
    assert holds_under(c("W >= 0.5"), res.witness) is False
    assert all(holds_under(x, res.witness) for x in cs("0 < W, W <= 1"))


def test_entails_soundness_mass_sampling():
    # every valuation drawn from the propagated box must satisfy the claim
    rng = random.Random(17)
    cases = [
        (cs("A < 0"), c("A*A /= 0")),
        (cs("qVal(W), W <= 0.9"), c("W <= 1")),
        (cs("X >= 2, X <= 3"), c("X > 1")),
    ]
    for hyps, claim in cases:
        assert entails(hyps, claim).status == "entailed"
        box = propagate(hyps, {})
        names = sorted(set().union(*[_vars(h) for h in hyps]) | _vars(claim))
        for _ in range(10000):
            val = {}
            for n in names:
                iv = box.get(n, Interval())
                lo = iv.lo if iv.lo != float("-inf") else iv.hi - 100.0
                hi = iv.hi if iv.hi != float("inf") else iv.lo + 100.0
                val[n] = rng.uniform(lo, hi)
            if not all(holds_under(h, val) for h in hyps):
                continue
            assert holds_under(claim, val) is True


def _vars(x):
    from qcflp.terms import vars_of
    return vars_of(x)


def test_qval_shapes():
    assert eval_primitive("qVal", [Basic(0.5)]) == TRUE
    assert eval_primitive("qVal", [Basic(0.0)]) == FALSE
    assert eval_primitive("qBound", [Basic(0.5), Basic(0.9), Basic(0.6)]) == TRUE
    assert eval_primitive("qBound", [Basic(0.9), Basic(0.9), Basic(0.6)]) == FALSE


def test_propagation_chain():
    box = propagate(cs("qVal(W), qVal(V), W <= 0.9*V, W >= 0.65"), {})
    assert box is not None
    w, v = box["W"], box["V"]
    assert w.hi == pytest.approx(0.9)
    assert w.lo == pytest.approx(0.65)
    # the lower bound pushes through the factor onto the inner variable
    assert v.lo == pytest.approx(0.65 / 0.9)


def test_propagation_empty():
    assert propagate(cs("W >= 0.8, W <= 0.7"), {}) is None


def test_halving_chase_is_unsat():
    # A <= B/2 <= A/2 drives both upper bounds down through the
    # subnormals to 0, where qVal's open lower bound empties them
    assert satisfiable(cs("qVal(A), qVal(B), A <= 0.5*B, B <= A")).status \
        == "unsat"


def test_slow_chase_stops_at_the_guard():
    # a factor of 0.99 needs far more steps than the guard allows; the
    # unfinished box is still an over-approximation, so it stays non-empty
    box = propagate(cs("qVal(A), qVal(B), A <= 0.99*B, B <= A"), {})
    assert box is not None and set(box) == {"A", "B"}
    for iv in box.values():
        assert not iv.is_empty()
        assert (iv.lo, iv.lo_open) == (0.0, True) and iv.hi < 1e-3


def test_interval_multiplication_strictness():
    a = Interval(float("-inf"), 0.0, False, True)
    prod = iv_mul(a, a)
    assert prod.lo == 0.0 and prod.lo_open  # strictly negative reals square positive


ROUNDING_HYPS = "X >= 0.18986, X <= 0.22*Y, Y <= 0.863"


def test_rounding_repro_is_satisfiable():
    # X = 0.18986, Y = 0.863 satisfies all three in floats
    res = satisfiable(cs(ROUNDING_HYPS))
    assert res.status == "sat"
    assert all(holds_under(h, res.witness) for h in cs(ROUNDING_HYPS))
    assert entails(cs(ROUNDING_HYPS), c("Y >= 5")).status == "not_entailed"


# lhs of lhs <= k*Y: its template, its float value at X = x, and the x
# at which its real value is t
FLOAT_SHAPES = {
    "monomial": ("X", lambda x, m: x, lambda t, m: t),
    "generic": ("X + 0", lambda x, m: x + 0.0, lambda t, m: t),
    "coefficient": ("{m}*X", lambda x, m: m * x, lambda t, m: t / m),
    "sum": ("X + {m}", lambda x, m: x + m, lambda t, m: t - m),
}


@pytest.mark.parametrize("shape", sorted(FLOAT_SHAPES))
def test_no_false_unsat_on_float_witness(shape):
    # X = the largest float with value(X) <= k*b and Y = b lie on the
    # boundary of lhs <= k*Y; whenever that point satisfies the
    # constraints in floats, narrowing must not empty the box
    lhs, value, solve = FLOAT_SHAPES[shape]
    rng = random.Random(6)
    tested = false_unsat = 0
    for _ in range(1000):
        k, b, m = rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0), rng.uniform(0.1, 3.0)
        x = solve(k * b, m)
        while value(x, m) > k * b:
            x = math.nextafter(x, -math.inf)
        while value(math.nextafter(x, math.inf), m) <= k * b:
            x = math.nextafter(x, math.inf)
        hyps = cs(f"X >= {x!r}, {lhs.format(m=repr(m))} <= {k!r}*Y, Y <= {b!r}")
        if all(holds_under(h, {"X": x, "Y": b}) for h in hyps):
            tested += 1
            false_unsat += satisfiable(hyps).status == "unsat"
    assert tested > 300 and false_unsat == 0


# ----------------------------------------------------------------------
# Atoms over ground data are decided by one evaluation
# ----------------------------------------------------------------------

BOOK = 'book(2, "Dune", "F. P. Herbert", "English", "SciFi", medium, 345)'


def general_path_runs(monkeypatch) -> list:
    """A list that grows by one for each evaluation the general path of
    entails makes (holds_under evaluates through _eval_ground_expr)."""
    import qcflp.constraints
    calls = []
    inner = qcflp.constraints._eval_ground_expr

    def counting(e, val):
        calls.append(e)
        return inner(e, val)

    monkeypatch.setattr(qcflp.constraints, "_eval_ground_expr", counting)
    return calls


def test_ground_records_are_decided_at_once(monkeypatch):
    calls = general_path_runs(monkeypatch)
    book, again = parse_expr(BOOK), parse_expr(BOOK)
    other = parse_expr(BOOK.replace("345", "346"))
    eq = lambda a, b, want=TRUE: AtomicConstraint("==", (a, b), want)
    assert entails([], eq(book, book)).status == "entailed"
    assert entails([], eq(book, again)).status == "entailed"
    assert entails([], eq(book, other, FALSE)).status == "entailed"
    res = entails([], eq(book, other))
    assert (res.status, res.witness) == ("not_entailed", {})
    assert entails([], eq(book, again, FALSE)).status == "not_entailed"
    # an order on records is undefined, as on the general path
    assert entails([], AtomicConstraint("<=", (book, book), TRUE)).status == "unknown"
    assert calls == []
    # under hypotheses a true atom is entailed at once; a false one is
    # entailed only when the hypotheses are unsatisfiable
    assert entails(cs("A < 0"), eq(book, again)).status == "entailed"
    assert calls == []
    assert entails(cs("A < 0, A > 1"), eq(book, other)).status == "entailed"


def test_primitive_applications_and_bottoms_take_the_general_path(monkeypatch):
    calls = general_path_runs(monkeypatch)
    # (1 + 1) == 2 reads as the atom +(1, 1) == 2, which is ground data
    two = App("+", (Basic(1.0), Basic(1.0)))
    assert entails([], AtomicConstraint("==", (two, Basic(2.0)), TRUE)).status \
        == "entailed"
    assert calls
    calls.clear()
    assert entails([], c("(1 + 1) == 2")).status == "entailed"
    assert calls == []
    calls.clear()
    undefined = parse_expr("c(_|_)")
    res = entails([], AtomicConstraint("==", (undefined, undefined), TRUE))
    assert res.status == "unknown"
    assert calls


@pytest.mark.parametrize("seed", range(3))
def test_ground_atoms_agree_with_holds_under(seed):
    # entailed exactly when the atom holds, not_entailed when it fails
    rng = random.Random(seed)
    leaves = [parse_expr(t) for t in ("1", "2", "a", "[]", '"x"')]

    def term(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(leaves)
        return App(rng.choice(["f", ":"]), (term(depth - 1), term(depth - 1)))

    for _ in range(200):
        symbol = rng.choice(["==", "==", "<=", ">", "qVal"])
        args = (term(3),) if symbol == "qVal" else (term(3), term(3))
        atom = AtomicConstraint(symbol, args, rng.choice([TRUE, FALSE]))
        truth = holds_under(atom, {})
        want = {True: "entailed", False: "not_entailed", None: "unknown"}[truth]
        assert entails([], atom).status == want


# ----------------------------------------------------------------------
# Verdicts on random atoms checked against their witnesses and a grid
# ----------------------------------------------------------------------

NAMES = ("X", "Y", "Z")
GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
GRID_POINTS = [dict(zip(NAMES, p)) for p in itertools.product(GRID, repeat=3)]
LITERALS = (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


def random_term(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.6:
            return Var(rng.choice(NAMES))
        return Basic(rng.choice(LITERALS))
    return App(rng.choice("+-*"),
               (random_term(rng, depth - 1), random_term(rng, depth - 1)))


def random_atom(rng):
    """A comparison, ==, /=, qVal or arithmetic atom over X, Y and Z."""
    kind = rng.random()
    if kind < 0.1:
        return AtomicConstraint("qVal", (random_term(rng, 1),), TRUE)
    if kind < 0.2:
        return AtomicConstraint(rng.choice("+-*"), (random_term(rng, 1),
                                random_term(rng, 1)), Basic(rng.choice(LITERALS)))
    symbol = rng.choice(("<=", "<", ">=", ">", "==", "=="))
    return AtomicConstraint(symbol, (random_term(rng), random_term(rng)),
                            rng.choice((TRUE, FALSE)))


def random_case(rng):
    """Zero to three hypotheses and one atom."""
    return [random_atom(rng) for _ in range(rng.randrange(4))], random_atom(rng)


def holds_all(constraints, val) -> bool:
    """Whether val is a real valuation under which every constraint holds."""
    return all(math.isfinite(v) for v in val.values()) \
        and all(holds_under(x, val) is True for x in constraints)


def test_primitive_application_in_data_is_not_a_clash():
    # c(1 + 2) evaluates to c(3): the atom holds, though 1 + 2 is no literal
    assert satisfiable(cs("c(1 + 2) == c(3)")) == SatResult("sat", {})
    res = entails([], c("c(1 + 2) /= c(3)"))
    assert (res.status, res.witness) == ("not_entailed", {})
    assert eval_primitive("==", [parse_expr("X + 1"), Basic(3.0)]) == BOTTOM


@pytest.mark.parametrize("seed", range(1, 4))
def test_printed_atoms_read_back(seed):
    rng = random.Random(seed)
    for _ in range(300):
        atom = random_atom(rng)
        assert parse_constraints(print_constraint(atom)) == [atom]


@pytest.mark.parametrize("seed", range(1, 4))
def test_random_verdicts_are_sound(seed):
    # every witness checks, and no grid point satisfies a set called
    # unsat or refutes an atom called entailed
    rng = random.Random(seed)
    for _ in range(500):
        hyps, atom = random_case(rng)
        sat, res = satisfiable(hyps), entails(hyps, atom)
        if sat.status == "sat":
            assert holds_all(hyps, sat.witness)
        if res.status == "not_entailed":
            assert holds_all(hyps, res.witness)
            assert holds_under(atom, res.witness) is False
        if sat.status == "unsat" or res.status == "entailed":
            models = [p for p in GRID_POINTS if holds_all(hyps, p)]
            assert sat.status != "unsat" or not models, hyps
            assert res.status != "entailed" or all(
                holds_under(atom, p) is not False for p in models), (hyps, atom)
