"""Command-line front end.

Subcommands: check, transform, solve, prove, oracle.  Each one reads and
parses all its inputs (_load) before it prints anything, and writes its
files through one guarded writer (_write).  Exit codes:

* 0: check parsed the program, transform translated it, solve found a
  clean answer, prove derived the statement or found the certificate
  valid, oracle found no mismatch
* 1: an input diagnostic, as <label>:<line>:<col>: message with the
  file's path, <goal>, <statement> or <universe> as label, or a malformed
  certificate; a program the translation rejects; a statement whose
  hypotheses call a defined function; no answer, no
  derivation in a search that was not cut, an invalid certificate or an
  oracle mismatch
* 2: a usage error, including a numeric limit out of range (--answers
  and --k below 1, --depth below 0), an unknown --qdom, an input file
  that cannot be read or an output file that cannot be written, prove
  without --statement or --check, an oracle --mutate site out of range
* 3: solve found only flagged answers, or none in a search that was cut;
  prove found no derivation in a search that was cut or left a residual
  undecided, or could not decide the certificate
* 4: oracle ran out of its step budget (oracle.compare) before it
  compared every goal
* 5: input nested too deeply for the raised recursion limit that every
  command runs under (terms.run_deep)

solve reports a cut search on stderr, naming the limits that cut it,
when no answer it printed is flagged incomplete.  It stops quietly when
the reader closes stdout, and exits with the code of the answers it has
written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .domains import domain_from_name
from .oracle import BUDGET, compare, count_qual_sites, default_universe
from .runtime import Limits, Solver, answer_record, render_answer
from .semantics import (StatementError, check_proof, holds, parse_proof,
                        parse_statement, serialize_proof)
from .syntax import (ParseError, parse_expr_list, parse_goal, parse_program,
                     print_constraints, print_program)
from .terms import run_deep
from .transform import TransformError, transform_goal, translation


def _at_least(least: int):
    """An argparse type: an integer no smaller than least."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {n}")
        return n
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qcflp",
                                 description="attenuated rewrite programs: "
                                             "check, translate, solve, prove")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--qdom", default="u", help="qualification domain (u, uxu)")

    p = sub.add_parser("check", help="parse and validate a program")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("transform", help="translate away qualifications")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the translated program here")
    p.add_argument("--goal", help="also translate this goal")
    p.add_argument("--emit-map", action="store_true",
                   help="write a rule/variable map next to the output")
    common(p)

    p = sub.add_parser("solve", help="solve a goal against a program")
    p.add_argument("file")
    p.add_argument("--goal", required=True)
    p.add_argument("--depth", type=_at_least(0), default=64)
    p.add_argument("--answers", type=_at_least(1), default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--trace", action="store_true")
    common(p)

    p = sub.add_parser("prove", help="search for or re-check a derivation")
    p.add_argument("file")
    p.add_argument("--statement", help="statement to derive")
    p.add_argument("--depth", type=_at_least(0), default=8)
    p.add_argument("-o", "--output", help="certificate output path")
    p.add_argument("--check", help="re-check this certificate instead")
    common(p)

    p = sub.add_parser("oracle", help="cross-check solver against fixpoint facts")
    p.add_argument("file")
    p.add_argument("--k", type=_at_least(1), default=6, help="fixpoint iterations")
    p.add_argument("--depth", type=_at_least(0), default=8)
    p.add_argument("--universe", help="comma-separated extra ground terms")
    p.add_argument("--mutate", type=int, default=None,
                   help="drop the n-th emitted qualification condition")
    common(p)
    return ap


class _Exit(Exception):
    """Ends a command with an exit code and the lines it prints to stderr."""

    def __init__(self, code: int, *lines: str):
        super().__init__(code)
        self.code, self.lines = code, lines


def main(argv=None) -> int:
    # the parser, the translation, the solver and the printers all
    # recurse once per nested term, so one raised limit covers the command
    return run_deep(_run, build_parser().parse_args(argv))


def _run(args) -> int:
    try:
        return COMMANDS[args.command](_load(args))
    except _Exit as exc:
        for line in exc.lines:
            print(line, file=sys.stderr)
        return exc.code
    except TransformError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print(f"{args.command}: term nested too deeply "
              f"(recursion limit {sys.getrecursionlimit()})", file=sys.stderr)
        return 5


def _load(args):
    """Reads and parses every input the command was given, and returns
    args with each input option replaced by what it parses to: the
    program (as args.program, with args.dom), then --goal,
    --statement, each --universe term, and the --check certificate with
    its domain line (as args.certificate, a (domain or None, tree) pair)."""
    try:
        args.dom = domain_from_name(args.qdom)
    except ValueError as exc:
        raise _Exit(2, str(exc))
    args.program = _parsed(args.file, parse_program, _read(args.file), args.dom)
    sig = args.program.signature
    given = vars(args)
    if given.get("goal") is not None:
        args.goal = _parsed("<goal>", parse_goal, args.goal, args.dom, sig)
    if given.get("statement") is not None:
        args.statement = _parsed("<statement>", parse_statement, args.statement, sig)
    if given.get("universe") is not None:
        args.universe = _parsed("<universe>", parse_expr_list, args.universe, sig)
    if given.get("check") is not None:
        # a certificate's lines end at "\n" only; a string in it may hold "\r"
        text = _read(args.check, newline="")
        try:
            name, tree = parse_proof(text)
            args.certificate = (None if name == "-" else domain_from_name(name),
                                tree)
        except (ParseError, ValueError) as exc:
            raise _Exit(1, f"{args.check}: malformed certificate: {exc}")
    return args


def _read(path: str, newline=None) -> str:
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except OSError as exc:
        raise _Exit(2, f"cannot read {path}: {exc}")


def _parsed(label: str, parse, text: str, *rest):
    try:
        return parse(text, *rest)
    except ParseError as exc:
        raise _Exit(1, *(f"{label}:{d}" for d in exc.diagnostics))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Exit(2, f"cannot write {path}: {exc}")


def _print_now(line: str) -> bool:
    """Prints line and flushes it; False when the reader has closed
    stdout, which then points at os.devnull so that no later flush fails."""
    try:
        print(line, flush=True)
        return True
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False


def _check(args) -> int:
    print("ok")
    return 0


def _transform(args) -> int:
    program, dom = args.program, args.dom
    tr = translation(program, dom)
    out_text = print_program(tr.translated)
    map_text = "".join(json.dumps(entry) + "\n" for entry in tr.emit_map) \
        if args.emit_map else ""
    if args.output:
        _write(args.output, out_text)
        if args.emit_map:
            _write(args.output + ".map", map_text)
    else:
        sys.stdout.write(out_text + map_text)
    if args.goal is not None:
        constraints, _, _ = transform_goal(args.goal, program, dom)
        print(print_constraints(constraints))
    return 0


def _solve(args) -> int:
    program, dom = args.program, args.dom
    translated = translation(program, dom).translated
    constraints, wvars, datavars = transform_goal(args.goal, program, dom)
    trace = (lambda msg: print(f"-- {msg}", file=sys.stderr)) if args.trace else None
    solver = Solver(translated, dom, Limits(args.depth, args.answers), trace)
    clean = flagged = 0
    flagged_cut = silent_cut = False
    for ans in solver.solve(constraints, wvars, datavars):
        if not _print_now(json.dumps(answer_record(ans)) if args.json
                          else render_answer(ans)):
            break  # no one reads on: stop, as --answers does
        if ans.flags:
            flagged += 1
            flagged_cut = flagged_cut or "incomplete" in ans.flags
        else:
            clean += 1
    else:
        # a cut after the last answer, or with none, flags no answer
        silent_cut = solver.cut and not flagged_cut
        if silent_cut:
            causes = [text for reason, text in (
                ("depth", f"--depth {args.depth}"),
                ("guard", "the propagation guard"),
                ("primitive", "an undecided primitive")) if reason in solver.cut]
            print(f"solve: search cut by {' and '.join(causes)}; answers "
                  f"may be missing", file=sys.stderr)
    if clean:
        return 0
    return 3 if flagged or silent_cut else 1


def _prove(args) -> int:
    if args.check is not None:
        verdict = check_proof(args.program, *args.certificate)
        print(verdict.status + (f": {verdict.reason}" if verdict.reason else ""))
        return {"valid": 0, "invalid": 1, "unknown": 3}[verdict.status]
    if args.statement is None:
        raise _Exit(2, "prove needs --statement or --check")
    dom = args.dom
    try:
        result = holds(args.program, dom, args.statement, depth=args.depth)
    except StatementError as exc:
        raise _Exit(1, f"<statement>: {exc}")
    if result.status != "derivable":
        raise _Exit(1 if result.status == "not_found" else 3, result.status)
    cert = serialize_proof(result.tree, dom.name, dom)
    if args.output:
        _write(args.output, cert)
        print("derivable")
    else:
        sys.stdout.write(cert)
    return 0


def _oracle(args) -> int:
    program, dom = args.program, args.dom
    universe = default_universe(program)
    for term in args.universe or ():
        if term not in universe:
            universe.append(term)
    if args.mutate is not None:
        total = count_qual_sites(program, dom)
        if not 0 <= args.mutate < total:
            raise _Exit(2, f"mutation site out of range (0..{total - 1})")
    report = compare(program, dom, k=args.k, universe=universe,
                     depth=args.depth, drop_site=args.mutate)
    for rec in report.records:
        status = "ok" if rec.match else "MISMATCH"
        extra = f" ({rec.note})" if rec.note else ""
        print(f"{status:8s} {rec.goal}  fixpoint={rec.fixpoint} solver={rec.solver}{extra}")
    partial = f", partial: the budget of {BUDGET} steps ran out" if report.partial else ""
    print(f"{len(report.records)} goals, {len(report.mismatches)} mismatches{partial}")
    if report.partial:
        return 4
    return 1 if report.mismatches else 0


COMMANDS = {"check": _check, "transform": _transform, "solve": _solve,
            "prove": _prove, "oracle": _oracle}


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
