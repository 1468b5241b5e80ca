#!/usr/bin/env python3
"""Search counters of the paper goal down its threshold family, and
certificate sizes down a list family.

    python3 scripts/growth.py

Solves programs/library.qcflp's paper goal,
(search("German","Essay",intermediate) == R) # W | W >= t, for each
threshold t from 0.9 down to 0.1, then three threshold-free goals, the
paper goal, the open search (search(L,G,V) == R) # W and
(guessGenre(B) == G) # W, and then the paper goal under the product
domain uxu at each threshold (t,t), each on a fresh solver at depth 64,
and prints one line per goal: the rule tries (Solver.tries), propagation
steps, clashing tries skipped as unable to add a cut reason
(Solver.skips), the process time of the solve and a digest of the
rendered answers.  Then, for a list big of n a's with n from 250 to
2,000, it proves (hd(big) -> a) # 1 and prints the bytes, term lines and
node lines of the statement's certificate.  The counters are
deterministic; the time is for information.  The last line is the JSON
of every row.
"""

import hashlib
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qcflp.domains import U, domain_from_name
from qcflp.runtime import Limits, Solver, render_answer
from qcflp.semantics import holds, parse_statement, serialize_proof
from qcflp.syntax import parse_goal, parse_program
from qcflp.transform import transform_goal, transform_program

PAPER = '(search("German","Essay",intermediate) == R) # W'
GOAL = PAPER + " | W >= %s"
THRESHOLDS = ("0.9", "0.8", "0.7", "0.6", "0.5", "0.4", "0.3", "0.2", "0.15", "0.1")
FREE = (PAPER, "(search(L,G,V) == R) # W", "(guessGenre(B) == G) # W")
DEPTH = 64
LIST = "data t = a\nbig --> [{}]\nhd(X:_T) --> X\n"
LENGTHS = (250, 500, 1000, 2000)


def measure(program, translated, goal: str, dom=U) -> dict:
    constraints, wvars, datavars = transform_goal(parse_goal(goal, dom), program, dom)
    solver = Solver(translated, dom, Limits(depth=DEPTH))
    started = time.process_time()
    answers = [render_answer(a) for a in solver.solve(constraints, wvars, datavars)]
    ms = (time.process_time() - started) * 1000
    return {"tries": solver.tries,
            "steps": solver.prop_steps, "skips": solver.skips,
            "answers": len(answers), "cut": sorted(solver.cut),
            "digest": hashlib.sha256("\n".join(answers).encode()).hexdigest()[:16],
            "ms": round(ms, 1)}


def certificate(n: int) -> dict:
    """The size of the certificate of (hd(big) -> a) # 1, big a list of
    n a's."""
    program = parse_program(LIST.format(", ".join(["a"] * n)))
    tree = holds(program, U, parse_statement("(hd(big) -> a) # 1")).tree
    cert = serialize_proof(tree, "u", U)
    lines = cert.split("\n")[4:-1]
    terms = sum(ln[0] == "t" for ln in lines)
    return {"n": n, "bytes": len(cert.encode()), "terms": terms,
            "nodes": len(lines) - terms}


def show(label: str, row: dict):
    print(f"{label:<20} tries {row['tries']:>6}  steps {row['steps']:>7}"
          f"  skips {row['skips']:>4}"
          f"  answers {row['answers']} {row['digest']}  {row['ms']:.0f} ms")


def main():
    text = (ROOT / "programs" / "library.qcflp").read_text()
    program = parse_program(text)
    translated, _ = transform_program(program)
    rows, free, uxu_rows = [], [], []
    for threshold in THRESHOLDS:
        rows.append({"threshold": float(threshold),
                     **measure(program, translated, GOAL % threshold)})
        show(f"W >= {threshold}", rows[-1])
    for goal in FREE:
        free.append({"goal": goal, **measure(program, translated, goal)})
        show("free", free[-1])
    uxu = domain_from_name("uxu")
    program = parse_program(text, uxu)
    translated, _ = transform_program(program, uxu)
    for threshold in THRESHOLDS:
        pair = f"({threshold},{threshold})"
        uxu_rows.append({"threshold": float(threshold),
                         **measure(program, translated, GOAL % pair, uxu)})
        show(f"uxu W >= {pair}", uxu_rows[-1])
    certificates = [certificate(n) for n in LENGTHS]
    for row in certificates:
        print(f"certificate n={row['n']:<5} bytes {row['bytes']:>7}"
              f"  term lines {row['terms']:>5}  node lines {row['nodes']:>5}")
    print(json.dumps({"family": "threshold", "goal": GOAL % "t",
                      "depth": DEPTH, "rows": rows, "free": free,
                      "uxu": uxu_rows, "certificates": certificates}))

if __name__ == "__main__":
    main()
