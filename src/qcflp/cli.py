"""Command-line front end.

Subcommands: check, transform, solve, prove, oracle.  Exit codes follow
a small contract so scripts can rely on them:

* check/transform: 0 clean, 1 diagnostics, 2 I/O failure
* solve: 0 at least one clean answer, 1 none, 3 only flagged answers
* prove: 0 certificate produced or valid, 1 not found or invalid,
  3 undecided
* oracle: 0 no mismatches, 1 mismatches, 4 budget or guardrail exceeded
* any command: 5 input nested too deeply for the interpreter's recursion
  limit
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .domains import domain_from_name
from .oracle import compare, count_qual_sites, default_universe
from .runtime import Limits, Solver, answer_record, render_answer
from .semantics import (check_proof, holds, parse_proof, parse_statement,
                        serialize_proof)
from .syntax import (ParseError, parse_expr, parse_goal, parse_program,
                     print_constraints, print_program)
from .transform import (TransformError, simplify_constraints, simplify_rule,
                        transform_goal, transform_program)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _report_diags(path: str, exc: ParseError) -> None:
    for d in exc.diagnostics:
        print(f"{path}:{d}", file=sys.stderr)


def _env_seed() -> int:
    try:
        return int(os.environ.get("QCFLP_SEED", "0"))
    except ValueError:
        return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qcflp",
                                 description="attenuated rewrite programs: "
                                             "check, translate, solve, prove")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--qdom", default="u", help="qualification domain (u, uxu)")
        p.add_argument("--seed", type=int, default=None,
                       help="fresh-variable seed (default: QCFLP_SEED or 0)")

    p = sub.add_parser("check", help="parse and validate a program")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("transform", help="translate away qualifications")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the translated program here")
    p.add_argument("--goal", help="also translate this goal")
    p.add_argument("--simplify", action="store_true",
                   help="collapse single-use qualification chains")
    p.add_argument("--emit-map", action="store_true",
                   help="write a rule/variable map next to the output")
    common(p)

    p = sub.add_parser("solve", help="solve a goal against a program")
    p.add_argument("file")
    p.add_argument("--goal", required=True)
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--answers", type=int, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--trace", action="store_true")
    common(p)

    p = sub.add_parser("prove", help="search for or re-check a derivation")
    p.add_argument("file")
    p.add_argument("--statement", help="statement to derive")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("-o", "--output", help="certificate output path")
    p.add_argument("--check", help="re-check this certificate instead")
    common(p)

    p = sub.add_parser("oracle", help="cross-check solver against fixpoint facts")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=6, help="fixpoint iterations")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--universe", help="comma-separated extra ground terms")
    p.add_argument("--max-rules", type=int, default=8)
    p.add_argument("--max-universe", type=int, default=24)
    p.add_argument("--mutate", type=int, default=None,
                   help="drop the n-th emitted qualification condition")
    common(p)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except RecursionError:
        print(f"{args.command}: term nested too deeply "
              f"(recursion limit {sys.getrecursionlimit()})", file=sys.stderr)
        return 5


def _run(args) -> int:
    try:
        dom = domain_from_name(args.qdom)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else _env_seed()
    try:
        text = _read(args.file)
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        try:
            parse_program(text, dom)
        except ParseError as exc:
            _report_diags(args.file, exc)
            return 1
        print("ok")
        return 0

    if args.command == "transform":
        try:
            program = parse_program(text, dom)
            translated, emit_map = transform_program(program, dom, seed=seed)
        except (ParseError, TransformError) as exc:
            if isinstance(exc, ParseError):
                _report_diags(args.file, exc)
            else:
                print(f"{args.file}: {exc}", file=sys.stderr)
            return 1
        if args.simplify:
            translated.rules = [simplify_rule(r) for r in translated.rules]
        out_text = print_program(translated)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(out_text)
            except OSError as exc:
                print(f"cannot write {args.output}: {exc}", file=sys.stderr)
                return 2
            if args.emit_map:
                with open(args.output + ".map", "w", encoding="utf-8") as fh:
                    for entry in emit_map:
                        fh.write(json.dumps(entry) + "\n")
        else:
            sys.stdout.write(out_text)
            if args.emit_map:
                for entry in emit_map:
                    print(json.dumps(entry))
        if args.goal:
            try:
                goal = parse_goal(args.goal, dom)
            except ParseError as exc:
                _report_diags("<goal>", exc)
                return 1
            constraints, _, _ = transform_goal(goal, program, dom, seed=seed)
            if args.simplify:
                constraints = simplify_constraints(constraints)
            print(print_constraints(constraints))
        return 0

    if args.command == "solve":
        try:
            program = parse_program(text, dom)
            goal = parse_goal(args.goal, dom)
            translated, _ = transform_program(program, dom, seed=seed)
        except (ParseError, TransformError) as exc:
            if isinstance(exc, ParseError):
                _report_diags(args.file, exc)
            else:
                print(f"{args.file}: {exc}", file=sys.stderr)
            return 1
        constraints, wvars, datavars = transform_goal(goal, program, dom, seed=seed)
        if args.simplify:
            constraints = simplify_constraints(constraints)
        trace = (lambda msg: print(f"-- {msg}", file=sys.stderr)) if args.trace else None
        solver = Solver(translated, dom, Limits(args.depth, args.answers), trace)
        clean = flagged = 0
        for ans in solver.solve(constraints, wvars, datavars):
            if args.json:
                print(json.dumps(answer_record(ans)))
            else:
                print(render_answer(ans))
            if ans.flags:
                flagged += 1
            else:
                clean += 1
        if clean:
            return 0
        return 3 if flagged else 1

    if args.command == "prove":
        try:
            program = parse_program(text, dom)
        except ParseError as exc:
            _report_diags(args.file, exc)
            return 1
        if args.check:
            try:
                cert_text = _read(args.check)
            except OSError as exc:
                print(f"cannot read {args.check}: {exc}", file=sys.stderr)
                return 2
            try:
                dom_name, tree = parse_proof(cert_text)
            except (ParseError, ValueError, KeyError, IndexError) as exc:
                print(f"{args.check}: malformed certificate: {exc}", file=sys.stderr)
                return 1
            cdom = None if dom_name == "-" else domain_from_name(dom_name)
            verdict = check_proof(program, cdom, tree)
            print(verdict.status + (f": {verdict.reason}" if verdict.reason else ""))
            return {"valid": 0, "invalid": 1, "unknown": 3}[verdict.status]
        if not args.statement:
            print("prove needs --statement or --check", file=sys.stderr)
            return 2
        try:
            stmt = parse_statement(args.statement)
        except ParseError as exc:
            _report_diags("<statement>", exc)
            return 1
        result = holds(program, dom, stmt, depth=args.depth)
        if result.status == "derivable":
            cert = serialize_proof(result.tree, dom.name, dom)
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(cert)
                print("derivable")
            else:
                sys.stdout.write(cert)
            return 0
        print(result.status, file=sys.stderr)
        return 1 if result.status == "not_found" else 3

    if args.command == "oracle":
        try:
            program = parse_program(text, dom)
        except ParseError as exc:
            _report_diags(args.file, exc)
            return 1
        universe = default_universe(program)
        if args.universe:
            for part in args.universe.split(","):
                term = parse_expr(part.strip())
                if term not in universe:
                    universe.append(term)
        if len(program.rules) > args.max_rules or len(universe) > args.max_universe:
            print(f"guardrail exceeded: {len(program.rules)} rules, "
                  f"{len(universe)} universe terms", file=sys.stderr)
            return 4
        try:
            if args.mutate is not None:
                total = count_qual_sites(program, dom)
                if not (0 <= args.mutate < total):
                    print(f"mutation site out of range (0..{total - 1})", file=sys.stderr)
                    return 2
            report = compare(program, dom, k=args.k, universe=universe,
                             depth=args.depth, drop_site=args.mutate)
        except TransformError as exc:
            print(f"{args.file}: {exc}", file=sys.stderr)
            return 1
        for rec in report.records:
            status = "ok" if rec.match else "MISMATCH"
            extra = f" ({rec.note})" if rec.note else ""
            print(f"{status:8s} {rec.goal}  fixpoint={rec.fixpoint} solver={rec.solver}{extra}")
        print(f"{len(report.records)} goals, {len(report.mismatches)} mismatches"
              + (", partial" if report.partial else ""))
        if report.partial:
            return 4
        return 1 if report.mismatches else 0

    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
