import dataclasses
import os
import random
from pathlib import Path

import pytest
from hypothesis import settings

from qcflp import runtime
from qcflp.semantics import (check_proof, distinct_parts, parse_proof,
                             serialize_proof)
from qcflp.syntax import (Program, ProgramRule, format_attenuation, parse_program,
                          print_constraint, print_expr)
from qcflp.terms import App, AtomicConstraint, TRUE

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "programs" / "library.qcflp"

BOOK4 = ('book(4, "Beim Hauten der Zwiebel", "Gunter Grass", "German", '
         '"Biography", medium, 432)')
BOOK2 = 'book(2, "Dune", "F. P. Herbert", "English", "SciFi", medium, 345)'

# Property tests draw the same examples on every run; a manual sweep
# draws fresh ones: QCFLP_HYPOTHESIS_PROFILE=sweep python -m pytest tests
settings.register_profile("tier1", derandomize=True, max_examples=100,
                          deadline=None)
settings.register_profile("sweep", max_examples=5000, deadline=None)
settings.load_profile(os.environ.get("QCFLP_HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture(scope="session")
def library_text():
    return LIBRARY.read_text()


@pytest.fixture(scope="session")
def library(library_text):
    return parse_program(library_text)


@pytest.fixture
def no_cut_skips(monkeypatch):
    """The solver with its cut check off: the reasons that a clashing
    try may raise include one that no run raises, so no cut holds them
    all."""
    monkeypatch.setattr(runtime, "_try_reasons", lambda *args: frozenset({"none"}))


@pytest.fixture
def no_clash_skips(monkeypatch):
    """The solver with its chain check off: every clashing try runs."""
    monkeypatch.setattr(runtime, "_chains_short", lambda *args: False)


def random_layered_program(rng: random.Random, layers: int = 3,
                           per_layer: int = 2) -> Program:
    """A terminating program: each function calls only earlier layers.

    Rules are nullary facts or unary projections with attenuation factors
    drawn from a small palette, plus occasional conditions on earlier
    functions, so answer enumeration is finite and qualifications vary.
    """
    palette = [1.0, 0.9, 0.8, 0.75, 0.5]
    values = [App("tt"), App("ff"), App("mk", (App("tt"),))]
    rules = []
    names = []
    for layer in range(layers):
        for j in range(per_layer):
            name = f"f{layer}_{j}"
            for _ in range(rng.randint(1, 2)):
                alpha = rng.choice(palette)
                if layer == 0 or rng.random() < 0.3:
                    rhs = rng.choice(values)
                    conds = ()
                else:
                    callee = rng.choice([n for n in names])
                    rhs = App(callee)
                    conds = ()
                    if rng.random() < 0.5:
                        other = rng.choice(names)
                        conds = (AtomicConstraint(
                            "==", (App(other), rng.choice(values)), TRUE),)
                rules.append(ProgramRule(name, (), alpha, rhs, conds))
            names.append(name)
    text = "\n".join(_rule_text(r) for r in rules)
    return parse_program(text)


def _rule_text(r: ProgramRule) -> str:
    from qcflp.syntax import print_rule
    return print_rule(r)


def print_statement(stmt, dom=None) -> str:
    """A statement in source syntax, which parse_statement reads back."""
    if stmt.is_production():
        body = f"({print_expr(stmt.lhs)} -> {print_expr(stmt.rhs)})"
    else:
        body = print_constraint(stmt.atom)
    if stmt.qual is not None:
        d = dom.format(dom.coerce(stmt.qual)) if dom else format_attenuation(stmt.qual)
        body += f" # {d}"
    if stmt.hypotheses:
        body += " <== " + ", ".join(print_constraint(c) for c in stmt.hypotheses)
    return body


def pinned_form(tree, domain_name: str, dom) -> str:
    """tree in the pinned form: the qcflp-proof v1 layout, a header and
    one line per distinct ProofTree object, after its premises' lines,
    each printing its whole statement and substitution in source syntax.
    Pinned digests hash this form, which depends on the tree alone, not
    on how the certificate format shares terms: a pin that moves is a
    tree that changed."""
    ids: dict = {}               # id(node) -> its line id
    lines = []
    todo = [tree]
    while todo:
        t = todo.pop()
        if id(t) in ids:
            continue
        pending = [c for c in t.children if id(c) not in ids]
        if pending:
            todo += [t, *reversed(pending)]
            continue
        ids[id(t)] = idx = len(lines)
        rule = "-" if t.rule_index is None else str(t.rule_index)
        theta = "{" + "; ".join(f"{k} -> {print_expr(v)}" for k, v in t.theta) + "}" \
            if t.theta else "-"
        kids = ",".join(str(ids[id(c)]) for c in t.children) or "-"
        lines.append(f"{idx}\t{t.tag}\t{rule}\t{theta}\t{kids}\t"
                     + print_statement(t.conclusion, dom))
    return "\n".join(["qcflp-proof v1", f"domain {domain_name}",
                      f"nodes {len(lines)}", f"root {ids[id(tree)]}", *lines]) + "\n"


def unshared_copy(tree):
    """A copy of tree in which no two parents share a subproof: a node
    per occurrence, built in post-order without recursion."""
    built, todo = [], [(tree, False)]
    while todo:
        t, ready = todo.pop()
        if not ready:
            todo += [(t, True)] + [(c, False) for c in reversed(t.children)]
            continue
        at = len(built) - len(t.children)
        kids, built[at:] = tuple(built[at:]), []
        built.append(dataclasses.replace(t, children=kids))
    return built[0]


def expanded_certificate(tree, domain_name: str, dom) -> str:
    """tree in the pinned form with a line per occurrence of each
    subproof: the form certificates took before the writer put each
    shared subproof on one line.  Pinned digests hash it, so they pin
    the tree a certificate denotes, not how much of it is shared."""
    return pinned_form(unshared_copy(tree), domain_name, dom)


def read_back(program, dom_name: str, dom, tree):
    """tree's certificate, read back: asserts that it has a line per
    distinct subproof, and that it denotes tree and gets tree's verdict
    and reason from the checker.  Returns the tree read."""
    cert = serialize_proof(tree, dom_name, dom)
    assert cert.split("\n")[2] == f"nodes {distinct_parts([tree])[0]}"
    name, parsed = parse_proof(cert)
    assert name == dom_name and parsed == tree
    assert check_proof(program, dom, parsed) == check_proof(program, dom, tree)
    return parsed
