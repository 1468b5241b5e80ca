"""Acceptance suite: one test per criterion, one printed line per outcome.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import random
import time
from contextlib import contextmanager

from conftest import BOOK4, random_layered_program
from qcflp.constraints import entails
from qcflp.domains import U, domain_from_name
from qcflp.oracle import compare, count_qual_sites, default_universe
from qcflp.runtime import Limits, Solver
from qcflp.semantics import (ProofTree, check_proof, holds, parse_proof,
                             parse_statement, serialize_proof,
                             statement_entails)
from qcflp.syntax import (parse_expr, parse_goal, parse_program,
                          print_program)
from qcflp.terms import apply_subst, info_leq, vars_of
from qcflp.transform import transform_goal, transform_program

UXU = domain_from_name("uxu")
TOL = 1e-9


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description}")


def _solve(program, goal_text, depth=64, dom=U):
    translated, _ = transform_program(program, dom)
    goal = parse_goal(goal_text, dom)
    constraints, wvars, datavars = transform_goal(goal, program, dom)
    solver = Solver(translated, dom, Limits(depth=depth))
    return list(solver.solve(constraints, wvars, datavars))


def test_criterion_1_library_reproduction(library):
    with criterion(1, "library goal answers {R -> 4} with W in [0.65, 0.7]"):
        started = time.monotonic()
        answers = _solve(
            library,
            '(search("German","Essay",intermediate) == R) # W | W >= 0.65')
        elapsed = time.monotonic() - started
        assert answers, "no answer found"
        first = answers[0]
        assert first.subst["R"] == parse_expr("4")
        iv = first.qual["W"]
        assert abs(iv.lo - 0.65) <= TOL
        assert abs(iv.hi - 0.7) <= TOL
        assert not iv.hi_open
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_sub_inference_qualifications(library):
    with criterion(2, "genre inference reaches 0.7, reader level reaches 0.8"):
        answers = _solve(library, f'(guessGenre({BOOK4}) == "Essay") # W',
                         depth=6)
        assert answers
        best = max(a.qual["W"].hi for a in answers)
        assert abs(best - 0.7) <= TOL

        answers = _solve(library,
                         f'(guessReaderLevel({BOOK4}) == intermediate) # W',
                         depth=6)
        assert answers
        best = max(a.qual["W"].hi for a in answers)
        assert abs(best - 0.8) <= TOL


def _sample(dom, rng):
    if dom is U:
        return rng.uniform(0.0, 1.0)
    return (_sample(dom.left, rng), _sample(dom.right, rng))


def _sample_interior(dom, rng):
    if dom is U:
        return rng.uniform(1e-6, 1.0 - 1e-6)
    return (_sample_interior(dom.left, rng), _sample_interior(dom.right, rng))


def test_criterion_3_axiom_suite():
    with criterion(3, "1000-sample axiom suite holds on both lattices"):
        violations = 0
        for dom in (U, UXU):
            rng = random.Random(42)
            att, glb, lub = dom.attenuate, dom.glb, dom.lub
            top, bot = dom.top(), dom.bottom()
            for _ in range(1000):
                d = _sample(dom, rng)
                e1 = _sample(dom, rng)
                e2 = _sample(dom, rng)
                ok = (
                    dom.eq(att(d, e1), att(e1, d), TOL)
                    and dom.eq(att(att(d, e1), e2), att(d, att(e1, e2)), TOL)
                    and dom.eq(att(d, glb(e1, e2)),
                               glb(att(d, e1), att(d, e2)), TOL)
                    and dom.eq(att(d, top), d, TOL)
                    # monotonicity on a comparable pair
                    and dom.leq(att(glb(d, e1), glb(e1, e2)),
                                att(e1, e1), TOL)
                    # consequences: attenuation never gains, bottom absorbs
                    and dom.leq(att(d, e1), e1, TOL)
                    and dom.eq(att(d, bot), bot, TOL)
                    # lattice laws
                    and dom.eq(glb(d, d), d, TOL)
                    and dom.eq(glb(d, e1), glb(e1, d), TOL)
                    and dom.eq(glb(glb(d, e1), e2), glb(d, glb(e1, e2)), TOL)
                    and dom.eq(lub(lub(d, e1), e2), lub(d, lub(e1, e2)), TOL)
                    and dom.leq(glb(d, e1), d, TOL)
                    and dom.leq(d, lub(d, e1), TOL)
                )
                if not ok:
                    violations += 1
                # proper attenuation away from the extremes
                di = _sample_interior(dom, rng)
                ei = _sample_interior(dom, rng)
                v = att(di, ei)
                if not (dom.leq(v, ei, TOL) and not dom.eq(v, ei, 0.0)):
                    violations += 1
        assert violations == 0


def test_criterion_4_entailment_example():
    with criterion(4, "the list-tail entailment example returns the expected witness"):
        phi = parse_statement("(f(X:Xs) -> Xs) # 0.8 <== X*X /= 0")
        psi = parse_statement("(f(A:(B:[])) -> _|_ : _|_) # 0.7 <== A < 0")
        sigma = statement_entails(phi, psi, U)
        assert sigma is not None
        assert sigma["X"] == parse_expr("A")
        assert sigma["Xs"] == parse_expr("B:_|_")
        # the three sub-checks, separately
        inst = apply_subst(phi.hypotheses[0], sigma)
        assert entails(psi.hypotheses, inst).status == "entailed"
        assert U.leq(psi.qual, phi.qual, TOL)
        assert info_leq(apply_subst(phi.lhs, sigma), psi.lhs)
        assert info_leq(psi.rhs, apply_subst(phi.rhs, sigma))


ORACLE_PROGRAMS = [
    ("f -0.9-> true\ng -0.8-> f\nh -0.7-> g", U, []),
    ("a -0.9-> true\np(z) -0.95-> true\np(s(N)) -0.5-> p(N)\n"
     "c(X) -0.7-> a <== p(X)", U, ["s(z)", "s(s(z))"]),
    ("m -(0.9,0.8)-> true\nn -(0.7,1)-> m", UXU, []),
]


def test_criterion_5_oracle_and_mutations():
    with criterion(5, "fixpoint facts agree with solver answers; every dropped "
                      "condition is caught"):
        for source, dom, extra in ORACLE_PROGRAMS:
            program = parse_program(source, dom)
            assert len(program.rules) <= 5
            universe = default_universe(program) + [parse_expr(t) for t in extra]
            assert len(universe) <= 20
            report = compare(program, dom, k=6, universe=universe, depth=6)
            assert not report.partial
            assert report.mismatches == [], report.mismatches
            for site in range(count_qual_sites(program, dom)):
                mutated = compare(program, dom, k=6, universe=universe,
                                  depth=6, drop_site=site)
                assert mutated.mismatches, f"undetected mutation at site {site}"


def test_criterion_6_transformation_structure(library):
    with criterion(6, "24 translated rules, arities +1, fresh variables, "
                      "reproducible bytes"):
        t1, emit_map = transform_program(library)
        t2, _ = transform_program(library)
        assert len(t1.rules) == 24
        for f, n in library.signature.df.items():
            assert t1.signature.df[f + "'"] == n + 1
        source_vars = set()
        for r in library.rules:
            source_vars |= vars_of(r.patterns) | vars_of(r.rhs) \
                | vars_of(r.conditions)
        introduced = [w for e in emit_map for w in e["qual_vars"]]
        assert len(introduced) == len(set(introduced))
        assert not set(introduced) & source_vars
        assert print_program(t1).encode() == print_program(t2).encode()


def test_criterion_7_downward_closure():
    with criterion(7, "thresholds at, below, and above an answer bound behave "
                      "monotonically on 100 random cases"):
        rng = random.Random(99)
        checked = 0
        while checked < 100:
            program = random_layered_program(rng)
            translated, _ = transform_program(program)
            names = sorted({r.name for r in program.rules})
            for name in names[-4:]:
                goal_text = f"{name} == V # W"
                answers = _solve(program, goal_text, depth=14)
                clean = [a for a in answers if not a.flags]
                if not clean:
                    continue
                h = max(a.qual["W"].hi for a in clean)
                assert _solve(program, f"{goal_text} | W >= {h!r}", depth=14)
                assert _solve(program, f"{goal_text} | W >= {h / 2!r}", depth=14)
                if h < 1.0:
                    above = min(1.0, h + 0.01)
                    assert not _solve(program,
                                      f"{goal_text} | W >= {above!r}", depth=14)
                checked += 1
                if checked >= 100:
                    break
        assert checked >= 100


def _eligible_nodes(tree, path=()):
    yield path, tree
    for i, child in enumerate(tree.children):
        yield from _eligible_nodes(child, path + (i,))


def _rebuild(tree, path, fn):
    if not path:
        return fn(tree)
    i = path[0]
    kids = list(tree.children)
    kids[i] = _rebuild(kids[i], path[1:], fn)
    return ProofTree(tree.tag, tree.conclusion, tuple(kids),
                     tree.rule_index, tree.theta)


def _qual_headroom(node, program, dom):
    """The tightest premise bound at a node, or None when untamperable."""
    stmt = node.conclusion
    bounds = []
    if node.tag in ("cons", "prim", "atom"):
        bounds = [c.conclusion.qual for c in node.children]
    elif node.tag == "fun":
        rule = program.rules[node.rule_index]
        n = len(rule.patterns)
        alpha = dom.coerce(rule.attenuation)
        bounds = [c.conclusion.qual for c in node.children[:n]]
        bounds += [dom.attenuate(alpha, dom.coerce(c.conclusion.qual))
                   for c in node.children[n:]]
    else:
        return None
    if not bounds:
        return None
    tight = dom.glb_all(bounds)
    return None if dom.eq(tight, dom.top(), 0.0) else tight


def test_criterion_8_proof_roundtrip(library):
    with criterion(8, "certificates re-check; 100 random tamperings rejected"):
        statements = [
            f'(guessGenre({BOOK4}) -> "Essay") # 0.7',
            f'(guessGenre({BOOK4}) -> "Biography") # 1.0',
            f'(guessReaderLevel({BOOK4}) -> intermediate) # 0.8',
            f'(getPages({BOOK4}) -> 432) # 0.9',
        ]
        trees = []
        for text in statements:
            result = holds(library, U, parse_statement(text), depth=6)
            assert result.status == "derivable", text
            cert = serialize_proof(result.tree, "u", U)
            _, parsed = parse_proof(cert)
            assert parsed == result.tree
            assert check_proof(library, U, parsed).status == "valid"
            trees.append(result.tree)

        rng = random.Random(123)
        sites = {"qual": [], "rule": [], "theta": []}
        for t_idx, tree in enumerate(trees):
            for path, node in _eligible_nodes(tree):
                headroom = _qual_headroom(node, library, U)
                if headroom is not None and headroom < 1.0 - 1e-9:
                    sites["qual"].append((t_idx, path, headroom))
                if node.tag == "fun":
                    sites["rule"].append((t_idx, path, node.rule_index))
                    if node.theta:
                        sites["theta"].append((t_idx, path, len(node.theta)))
        assert all(sites.values()), "tamper sites of every kind exist"

        rejected = 0
        while rejected < 100:
            kind = rng.choice(["qual", "rule", "theta"])
            t_idx, path, info = rng.choice(sites[kind])
            tree = trees[t_idx]
            if kind == "qual":
                lifted = min(1.0, info + rng.uniform(0.05, 0.3))

                def mutate(n, d=lifted):
                    return ProofTree(n.tag, n.conclusion.with_qual(d),
                                     n.children, n.rule_index, n.theta)
            elif kind == "rule":
                other = (info + 1 + rng.randrange(len(library.rules) - 1)) \
                    % len(library.rules)

                def mutate(n, r=other):
                    return ProofTree(n.tag, n.conclusion, n.children, r, n.theta)
            else:
                i = rng.randrange(info)

                def mutate(n, i=i):
                    patched = list(n.theta)
                    patched[i] = (patched[i][0], parse_expr("tampered"))
                    return ProofTree(n.tag, n.conclusion, n.children,
                                     n.rule_index, tuple(patched))
            tampered = _rebuild(tree, path, mutate)
            cert = serialize_proof(tampered, "u", U)
            _, reparsed = parse_proof(cert)
            verdict = check_proof(library, U, reparsed)
            assert verdict.status == "invalid", (kind, path, verdict)
            rejected += 1
        assert rejected == 100
