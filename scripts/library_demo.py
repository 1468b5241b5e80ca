#!/usr/bin/env python3
"""End-to-end walk through the library example.

Parses the catalogue program, shows a slice of the translated rules,
solves the flagship query at a few thresholds, replays the first
answer as a machine-checked derivation, replays every answer of an
open query on one solver, which shares equal subproofs across answers,
and proves the flagship statement against the source program through
a certificate that it writes, reads back and checks.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qcflp.runtime import Limits, Solver, render_answer, replay_trees
from qcflp.domains import U
from qcflp.semantics import (check_proof, distinct_parts, holds, parse_proof,
                             parse_statement, serialize_proof)
from qcflp.syntax import parse_goal, parse_program, print_rule
from qcflp.transform import transform_goal, transform_program

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOAL = '(search("German","Essay",intermediate) == R) # W | W >= %s'
OPEN = "(search(L,G,V) == R) # W | W >= 0.6"
STATEMENT = '(search("German","Essay",intermediate) -> 4) # 0.65'


def main():
    program = parse_program((ROOT / "programs" / "library.qcflp").read_text())
    print(f"parsed {len(program.rules)} rules, "
          f"{len(program.signature.df)} defined functions")

    translated, emit_map = transform_program(program)
    print("\nfirst translated rules:")
    for rule in translated.rules[1:4]:
        print("  " + print_rule(rule))
    introduced = sum(len(e["qual_vars"]) for e in emit_map)
    print(f"  ... ({len(translated.rules)} rules, "
          f"{introduced} qualification variables)\n")

    for threshold in ("0.65", "0.5", "0.71"):
        goal = parse_goal(GOAL % threshold)
        constraints, wvars, datavars = transform_goal(goal, program)
        solver = Solver(translated, limits=Limits(depth=64))
        started = time.monotonic()
        answers = list(solver.solve(constraints, wvars, datavars))
        ms = (time.monotonic() - started) * 1000
        shown = "; ".join(render_answer(a) for a in answers) or "no answer"
        print(f"threshold {threshold}: {shown}   ({ms:.0f} ms)")

    goal = parse_goal(GOAL % "0.65")
    constraints, wvars, datavars = transform_goal(goal, program)
    solver = Solver(translated, limits=Limits(depth=64))
    answer = next(iter(solver.solve(constraints, wvars, datavars)))
    trees = replay_trees(solver, answer, constraints)
    sizes = [t.size() for t in trees]
    verdicts = {check_proof(translated, None, t).status for t in trees}
    print(f"\nreplayed the first answer as {len(trees)} derivations "
          f"(sizes {sizes}); checker says: {sorted(verdicts)}")

    constraints, wvars, datavars = transform_goal(parse_goal(OPEN), program)
    solver = Solver(translated, limits=Limits(depth=64))
    answers = [a for a in solver.solve(constraints, wvars, datavars)
               if not a.flags]
    trees = [t for a in answers for t in replay_trees(solver, a, constraints)]
    occurrences = sum(t.size() for t in trees)
    subproofs, _ = distinct_parts(trees)
    print(f"replayed {len(answers)} answers of {OPEN} on one solver: "
          f"{occurrences} proof nodes, {subproofs} distinct subproofs")

    proved = holds(program, U, parse_statement(STATEMENT), depth=64)
    cert = serialize_proof(proved.tree, "u", U)
    _, tree = parse_proof(cert)
    print(f"\nholds {STATEMENT}: {proved.status}; its certificate has "
          f"{distinct_parts([tree])[0]} nodes; source checker says: "
          f"{check_proof(program, U, tree).status}")


if __name__ == "__main__":
    main()
