#!/usr/bin/env python3
"""Mutation sweep: cross-check the solver against the fixpoint oracle.

For each sample program, first verifies that the two engines agree, then
drops every emitted qualification condition in turn and reports whether
the disagreement is caught.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qcflp.domains import U, domain_from_name
from qcflp.oracle import compare, count_qual_sites, default_universe
from qcflp.syntax import parse_expr, parse_program

SAMPLES = [
    ("chain", "f -0.9-> true\ng -0.8-> f\nh -0.7-> g", "u", []),
    ("branching",
     "a -0.9-> true\np(z) -0.95-> true\np(s(N)) -0.5-> p(N)\n"
     "c(X) -0.7-> a <== p(X)", "u", ["s(z)", "s(s(z))"]),
    ("pairs", "m -(0.9,0.8)-> true\nn -(0.7,1)-> m", "uxu", []),
    ("join",
     "succ(c0) -0.7-> c1\nsucc(c1) -0.9-> c2\nsucc(c2) -0.8-> c3\n"
     "hop2(X) -0.6-> succ(Y) <== succ(X) == Y", "u", []),
    ("hop2",
     "succ(c0) -0.7-> c1\nsucc(c1) -0.9-> c2\nsucc(c2) -0.8-> c3\n"
     "hop2(X) -0.6-> Z <== succ(X) == Y, succ(Y) == Z", "u", []),
]


def main():
    failures = 0
    for name, source, dom_name, extra in SAMPLES:
        dom = domain_from_name(dom_name)
        program = parse_program(source, dom)
        universe = default_universe(program) + [parse_expr(t) for t in extra]
        clean = compare(program, dom, k=6, universe=universe, depth=6)
        status = "agree" if not clean.mismatches else "DISAGREE"
        print(f"[{name}] engines {status} on {len(clean.records)} goals")
        failures += bool(clean.mismatches)

        sites = count_qual_sites(program, dom)
        caught = 0
        for site in range(sites):
            mutated = compare(program, dom, k=6, universe=universe,
                              depth=6, drop_site=site)
            if mutated.mismatches:
                caught += 1
            else:
                print(f"[{name}]   mutation at site {site} NOT caught")
        print(f"[{name}] {caught}/{sites} dropped conditions caught")
        failures += caught != sites
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
