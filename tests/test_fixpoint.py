"""The bounded fixpoint: golden facts, semi-naive rounds and indexed joins."""

import hashlib
import random

import pytest

from conftest import random_layered_program
from qcflp import semantics
from qcflp.domains import U, domain_from_name
from qcflp.oracle import default_universe
from qcflp.semantics import Interpretation, bounded_lfp
from qcflp.syntax import parse_expr, parse_program, print_expr
from qcflp.terms import App, BOTTOM, Basic

# scripts/oracle_sweep.py's samples: (name, source, domain, extra universe)
SWEEP_SAMPLES = [
    ("chain", "f -0.9-> true\ng -0.8-> f\nh -0.7-> g", "u", []),
    ("branching",
     "a -0.9-> true\np(z) -0.95-> true\np(s(N)) -0.5-> p(N)\n"
     "c(X) -0.7-> a <== p(X)", "u", ["s(z)", "s(s(z))"]),
    ("pairs", "m -(0.9,0.8)-> true\nn -(0.7,1)-> m", "uxu", []),
    ("sweep-join",
     "succ(c0) -0.7-> c1\nsucc(c1) -0.9-> c2\nsucc(c2) -0.8-> c3\n"
     "hop2(X) -0.6-> succ(Y) <== succ(X) == Y", "u", []),
]

# benchmark/workloads.py's join0 and dag0 at oracle seed 0
JOIN = """
succ(c0) -0.8-> c1
succ(c1) -0.5-> c6
succ(c6) -0.6-> c4
succ(c4) -0.9-> c5
succ(c5) -0.5-> c3
succ(c3) -0.7-> c2
succ(c2) -0.7-> c7
hop2(X) -0.9-> Z <== succ(X) == Y, succ(Y) == Z
hop3(X) -0.6-> V <== succ(X) == Y, succ(Y) == Z, succ(Z) == V
"""

DAG = """
r(n1) --> true
r(n6) -0.7-> true <== r(n1) == true
s(n1) -0.7-> n6
r(n9) -0.9-> true <== r(n1) == true
s(n1) -0.9-> n9
r(n5) -0.9-> true <== r(n6) == true
s(n6) -0.9-> n5
r(n5) -0.7-> true <== r(n9) == true
s(n9) -0.7-> n5
r(n4) -0.8-> true <== r(n6) == true
s(n6) -0.8-> n4
r(n4) -0.5-> true <== r(n9) == true
s(n9) -0.5-> n4
r(n8) -0.5-> true <== r(n6) == true
s(n6) -0.5-> n8
r(n8) -0.8-> true <== r(n9) == true
s(n9) -0.8-> n8
r(n3) -0.7-> true <== r(n4) == true
s(n4) -0.7-> n3
r(n3) -0.8-> true <== r(n5) == true
s(n5) -0.8-> n3
r(n2) -0.7-> true <== r(n4) == true
s(n4) -0.7-> n2
r(n2) -0.5-> true <== r(n8) == true
s(n8) -0.5-> n2
r(n7) -0.5-> true <== r(n5) == true
s(n5) -0.5-> n7
r(n7) -0.6-> true <== r(n8) == true
s(n8) -0.6-> n7
r(n0) -0.9-> true <== r(n4) == true
s(n4) -0.9-> n0
r(n0) -0.5-> true <== r(n5) == true
s(n5) -0.5-> n0
"""

# condition variables on the left of ==, behind a constructor, in a
# disequation and in arithmetic, a universe term that is a call, and a
# rule that calls nothing yet reads succ's facts through that term
MIXED = """
data nat = z | s(nat)
succ(z) -0.9-> s(z)
succ(s(z)) -0.8-> s(s(z))
back(Y) -0.7-> X <== X == succ(Y)
wrap(X) -0.9-> pair(X, Y) <== Y == succ(X), Y /= s(z)
two(X) --> Z <== s(Z) == succ(X)
num(X) -0.5-> N <== N == 1 + 1, N >= 2, succ(X) == s(s(z))
at(X) -0.5-> true <== X == succ(z)
id(X) --> X
"""


def _programs():
    out = []
    for name, source, dom_name, extra in SWEEP_SAMPLES:
        dom = domain_from_name(dom_name)
        p = parse_program(source, dom)
        out.append((name, p, dom,
                    default_universe(p) + [parse_expr(t) for t in extra]))
    for name, source, extra in (("join", JOIN, []), ("dag", DAG, []),
                                ("mixed", MIXED, ["2", "succ(z)"])):
        p = parse_program(source)
        out.append((name, p, U, default_universe(p) + [parse_expr(t) for t in extra]))
    for seed in (5, 11):
        p = random_layered_program(random.Random(seed))
        out.append((f"layered-{seed}", p, U, default_universe(p)))
    return out


def _qual(q) -> str:
    if isinstance(q, tuple):
        return "(" + ",".join(_qual(x) for x in q) + ")"
    return format(q, ".12g")


def canonical(interp: Interpretation) -> str:
    """The facts as sorted text lines, each row's qualifications sorted."""
    return "\n".join(sorted(
        f"{print_expr(App(f, args))} -> {print_expr(t)} # "
        + " ".join(sorted(_qual(q) for q in quals))
        for (f, args, t), quals in interp.facts.items()))


def fingerprint(interp: Interpretation) -> tuple:
    text = canonical(interp)
    return len(interp.facts), hashlib.sha256(text.encode()).hexdigest()[:16]


# (fact count, digest of canonical()) for k = 0..6, recorded with the
# naive iteration that grounded every rule over the whole universe
GOLDEN = {'branching': [(0, 'e3b0c44298fc1c14'),
                         (2, '26cac70fe92d6b21'),
                         (4, '8fd50eb6b8ba97ae'),
                         (6, '7a7ab272c058262a'),
                         (8, '73523c9518066e8a'),
                         (8, '73523c9518066e8a'),
                         (8, '73523c9518066e8a')],
           'chain': [(0, 'e3b0c44298fc1c14'),
                     (1, 'cca1fd67f62f86a0'),
                     (2, '8cc47508cdaca2c9'),
                     (3, 'e9ce6ec4da97e76a'),
                     (3, 'e9ce6ec4da97e76a'),
                     (3, 'e9ce6ec4da97e76a'),
                     (3, 'e9ce6ec4da97e76a')],
           'dag': [(0, 'e3b0c44298fc1c14'),
                   (17, 'f3c7a83decf9a62b'),
                   (19, '44b052d76fe52019'),
                   (22, '45099591afd578f3'),
                   (26, 'bd6fa8ac97eca7c5'),
                   (26, 'bd6fa8ac97eca7c5'),
                   (26, 'bd6fa8ac97eca7c5')],
           'join': [(0, 'e3b0c44298fc1c14'),
                    (7, '897f29367404fbc4'),
                    (18, 'a5df1fdd03dad8f0'),
                    (18, 'a5df1fdd03dad8f0'),
                    (18, 'a5df1fdd03dad8f0'),
                    (18, 'a5df1fdd03dad8f0'),
                    (18, 'a5df1fdd03dad8f0')],
           'layered-11': [(0, 'e3b0c44298fc1c14'),
                          (5, 'd50e6442db19a57d'),
                          (8, '207ac091d1b77714'),
                          (9, '499cd836606613db'),
                          (9, '499cd836606613db'),
                          (9, '499cd836606613db'),
                          (9, '499cd836606613db')],
           'layered-5': [(0, 'e3b0c44298fc1c14'),
                         (4, '2772344ca2c6d326'),
                         (10, '08caa363116bbb0d'),
                         (12, '567e6ebcd9ba9ecf'),
                         (12, '567e6ebcd9ba9ecf'),
                         (12, '567e6ebcd9ba9ecf'),
                         (12, '567e6ebcd9ba9ecf')],
           'mixed': [(0, 'e3b0c44298fc1c14'),
                     (9, '0d08c9180fd5338e'),
                     (22, '1c5161e85f65bd2e'),
                     (22, '1c5161e85f65bd2e'),
                     (22, '1c5161e85f65bd2e'),
                     (22, '1c5161e85f65bd2e'),
                     (22, '1c5161e85f65bd2e')],
           'pairs': [(0, 'e3b0c44298fc1c14'),
                     (1, 'f1de9391fda3e7d8'),
                     (2, '8151672a0df97568'),
                     (2, '8151672a0df97568'),
                     (2, '8151672a0df97568'),
                     (2, '8151672a0df97568'),
                     (2, '8151672a0df97568')],
           'sweep-join': [(0, 'e3b0c44298fc1c14'),
                          (3, 'af05d609057ec27a'),
                          (5, 'a0e7820f7f6f5823'),
                          (5, 'a0e7820f7f6f5823'),
                          (5, 'a0e7820f7f6f5823'),
                          (5, 'a0e7820f7f6f5823'),
                          (5, 'a0e7820f7f6f5823')]}


PROGRAMS = _programs()


@pytest.mark.parametrize("name,program,dom,universe", PROGRAMS,
                         ids=[p[0] for p in PROGRAMS])
def test_lfp_matches_golden_facts(name, program, dom, universe):
    got = [fingerprint(bounded_lfp(program, dom, k, universe)) for k in range(7)]
    assert got == GOLDEN[name]


def _program(name):
    return next(p[1:] for p in PROGRAMS if p[0] == name)


def test_join_evaluates_few_instances():
    # grounding every variable over the nine universe terms takes 7,297
    # instances a round; joining with the succ facts takes 43 in all
    program, dom, universe = _program("join")
    full = bounded_lfp(program, dom, 6, universe)
    assert full.steps == 43
    assert not bounded_lfp(program, dom, 6, universe, budget=50).partial
    cut = bounded_lfp(program, dom, 6, universe, budget=20)
    assert cut.partial
    assert 0 < len(cut.facts) < len(full.facts)
    assert all(key in full.facts for key in cut.facts)


def test_rules_fire_only_after_their_callees_change(monkeypatch):
    fired = []
    instances = semantics._RulePlan.instances

    def counted(self, *args):
        fired.append(self.rule.name)
        return instances(self, *args)
    monkeypatch.setattr(semantics._RulePlan, "instances", counted)
    program, dom, universe = _program("chain")
    bounded_lfp(program, dom, 6, universe)
    # round 1 fires every rule, round 2 the caller of f, round 3 the
    # caller of g; nothing calls h, so round 4 fires none and stops
    assert fired == ["f", "g", "h", "g", "h"]


def test_max_quals_looks_up_total_keys_and_scans_partial_ones():
    program, dom, universe = _program("mixed")
    interp = bounded_lfp(program, dom, 6, universe)
    sz, ssz = parse_expr("s(z)"), parse_expr("s(s(z))")
    full = App("pair", (sz, ssz))
    assert interp.max_quals("wrap", (sz,), full, U) == [pytest.approx(0.72)]
    assert interp.max_quals("wrap", (sz,), App("pair", (sz, BOTTOM)), U) \
        == [pytest.approx(0.72)]
    assert interp.max_quals("wrap", (BOTTOM,), BOTTOM, U) == [pytest.approx(0.72)]
    assert interp.max_quals("wrap", (sz,), App("pair", (sz, sz)), U) == []
    assert interp.max_quals("num", (sz,), Basic(2), U) == [pytest.approx(0.4)]


def test_budget_counts_ruled_out_instances():
    # every instance of q fails its condition, and still counts one
    program = parse_program("q(X) --> true <== X /= X")
    universe = [parse_expr(t) for t in ("a", "b", "c")]
    cut = bounded_lfp(program, U, 1, universe, budget=2)
    assert (cut.partial, cut.steps) == (True, 2)
    done = bounded_lfp(program, U, 1, universe, budget=3)
    assert (done.partial, done.steps, done.facts) == (False, 3, {})
