#!/usr/bin/env python3
"""qcflp benchmark: certified-answer latency, one op at a time.

    python3 benchmark/run.py --workload threshold-sweep --seed 1 \
        --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/` directory.  One process, one client, no threads: a closed
loop that starts the next op when the previous one returns.  An op is
one user request (a certified solve, a prove round trip or an oracle
cross-check), run under a time limit and checked against an expectation
computed without qcflp (reference.py).  The loop runs passes over the
workload's ops, in a seeded order, for about --seconds.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 the same ops run with spans around
every qcflp entry point and the JSON carries the per-layer metrics.
Op latencies are reported at a reference interpreter speed (see
SpeedProbe); set-up time is wall-clock seconds.  Earlier lines are for
people: the set-up times, each op's status and median latency, the
metrics with their sample counts, a digest of the rendered answers and,
when traced, each op group's self time by span.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing                      # noqa: E402
import workloads as wl              # noqa: E402
from reference import TOL           # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIBRARY = ROOT / "programs" / "library.qcflp"

# Far from every op: the slowest (paper@0.3, closed-books32) take 3 to
# 5 s on a 2-vCPU 2.1 GHz VM.
OP_TIME_LIMIT_S = 30.0
# Set-ups per run, spread evenly over it; setup_s is their median.
SETUPS = 12
# In a pass, an op runs, interleaved with the other ops, until its runs
# in the pass add up to RUN_BUDGET_S, and MAX_RUNS times in a whole run:
# light ops get all their samples in the first pass, and later passes
# give the time left to the heavy ops, one run per pass.
MAX_RUNS = 6
RUN_BUDGET_S = 1.0
PROVE_DEPTH = 8                     # qcflp prove's default

# Latency and throughput are reported at a reference interpreter speed
# (units ref_ms, 1/ref_s).  On a shared host the interpreter's speed moves
# by up to 50% within seconds, with the load on the host.
# SpeedProbe samples it around and during every op, with a fixed piece of
# work that uses no qcflp, and an op's time is multiplied by CAL_REF_S over
# the median sample; nothing in qcflp can move the scale.
CAL_REF_S = 0.0003
PROBE_EVERY_S = 0.02                # CPU seconds between samples inside an op
E2E_METRICS = {
    "setup_s": "s", "ops_per_s": "1/ref_s", "op_p50_ms": "ref_ms",
    "op_p90_ms": "ref_ms", "first_answer_p50_ms": "ref_ms",
    "ok_share": "ratio", "agree_share": "ratio", "peak_rss_mb": "MB",
}

MODULES = ("domains", "syntax", "transform", "runtime", "semantics", "oracle")


class OpTimeout(BaseException):
    """Raised by the op alarm.  Not an Exception, so that the package's own
    `except Exception` handlers cannot swallow it."""


def _alarm(_signum, _frame):
    raise OpTimeout()


# ----------------------------------------------------------------------
# Set-up: import the package and prepare the workload's programs
# ----------------------------------------------------------------------

def import_qcflp() -> SimpleNamespace:
    """A fresh import of the package from this checkout's src/."""
    for name in [m for m in sys.modules if m == "qcflp" or m.startswith("qcflp.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"qcflp.{m}")
                              for m in MODULES})
    origin = Path(mods.syntax.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"qcflp was imported from {origin}, not from {SRC}")
    return mods


def make_api(mods, tracer: Optional[tracing.Tracer]) -> SimpleNamespace:
    """The entry points ops call; the traced run wraps them in spans."""
    api = SimpleNamespace(
        domain_from_name=mods.domains.domain_from_name,
        parse_program=mods.syntax.parse_program,
        parse_goal=mods.syntax.parse_goal,
        parse_expr=mods.syntax.parse_expr,
        print_expr=mods.syntax.print_expr,
        transform_program=mods.transform.transform_program,
        transform_goal=mods.transform.transform_goal,
        Solver=mods.runtime.Solver, Limits=mods.runtime.Limits,
        replay_trees=mods.runtime.replay_trees,
        render_answer=mods.runtime.render_answer,
        check_proof=mods.semantics.check_proof, holds=mods.semantics.holds,
        parse_statement=mods.semantics.parse_statement,
        serialize_proof=mods.semantics.serialize_proof,
        parse_proof=mods.semantics.parse_proof,
        compare=mods.oracle.compare, count_qual_sites=mods.oracle.count_qual_sites,
        default_universe=mods.oracle.default_universe)
    if tracer is not None:
        tracing.install(api, mods, tracer)
    return api


@dataclass
class Prepared:
    dom: object
    program: object
    translated: object


def setup(workload: wl.Workload, tracer) -> tuple:
    """Import qcflp, then parse, validate and transform every program."""
    if tracer is not None:
        tracer.op = "setup"
    mods = import_qcflp()
    api = make_api(mods, tracer)
    progs = {}
    for spec in workload.programs:
        dom = api.domain_from_name(spec.dom)
        program = api.parse_program(spec.text, dom)
        translated, _ = api.transform_program(program, dom)
        progs[spec.key] = Prepared(dom, program, translated)
    return api, progs


# ----------------------------------------------------------------------
# Ops
# ----------------------------------------------------------------------

def run_solve(api, progs, op: wl.SolveOp, clock) -> dict:
    """clock() is the op's time so far, at the reference speed."""
    p = progs[op.program]
    goal = api.parse_goal(op.goal, p.dom)
    constraints, wvars, datavars = api.transform_goal(goal, p.program, p.dom)
    solver = api.Solver(p.translated, p.dom, api.Limits(depth=op.depth))
    answers, first = [], None
    for ans in solver.solve(constraints, wvars, datavars):
        if first is None:
            first = clock()
        answers.append(ans)
    if first is None:
        first = clock()
    verdicts = []
    for ans in answers:
        if not ans.flags:
            for tree in api.replay_trees(solver, ans, constraints):
                verdicts.append(api.check_proof(p.translated, None, tree).status)
    return {"answers": answers, "verdicts": verdicts, "first": first}


def tamper(cert: str, qual: str) -> str:
    """Raise the qualification in the root node's conclusion."""
    lines = cert.splitlines()
    root = lines[3].split()[1]
    for i, line in enumerate(lines[4:], start=4):
        if line.split("\t", 1)[0] == root:
            head, sep, _old = line.rpartition(" # ")
            if not sep:
                break
            lines[i] = f"{head} # {qual}"
            return "\n".join(lines) + "\n"
    raise ValueError("certificate root has no qualification")


def run_prove(api, progs, op: wl.ProveOp, _clock) -> dict:
    p = progs[op.program]
    stmt = api.parse_statement(op.statement)
    res = api.holds(p.program, p.dom, stmt, depth=PROVE_DEPTH)
    if res.status != "derivable":
        return {"holds": res.status, "check": None}
    cert = api.serialize_proof(res.tree, p.dom.name, p.dom)
    if op.tamper is not None:
        cert = tamper(cert, op.tamper)
    dom_name, tree = api.parse_proof(cert)
    verdict = api.check_proof(p.program, api.domain_from_name(dom_name), tree)
    return {"holds": res.status, "check": verdict.status}


def run_oracle(api, progs, op: wl.OracleOp, _clock) -> dict:
    p = progs[op.program]
    universe = api.default_universe(p.program) + \
        [api.parse_expr(t) for t in op.extra_universe]
    report = api.compare(p.program, p.dom, k=op.k, universe=universe, depth=op.depth)
    out = {"report": report, "sites": 0, "caught": 0}
    if op.sweep:
        out["sites"] = api.count_qual_sites(p.program, p.dom)
        out["caught"] = sum(
            bool(api.compare(p.program, p.dom, k=op.k, universe=universe,
                             depth=op.depth, drop_site=site).mismatches)
            for site in range(out["sites"]))
    return out


EXECUTORS = {wl.SolveOp: run_solve, wl.ProveOp: run_prove, wl.OracleOp: run_oracle}


# ----------------------------------------------------------------------
# Checking against the reference
# ----------------------------------------------------------------------

def judge_solve(api, op: wl.SolveOp, out: dict) -> str:
    """'' when the answers match op.expect, else why not."""
    groups: dict = {}
    for ans in out["answers"]:
        if ans.residual or tuple(ans.flags) != op.flags:
            return f"answer flagged {ans.flags}, residual {len(ans.residual)}"
        key = tuple(sorted((v, api.print_expr(t)) for v, t in ans.subst.items()))
        groups.setdefault(key, []).append(ans)
    if set(groups) != set(op.expect):
        return f"substitutions {sorted(groups)} != expected {sorted(op.expect)}"
    for key, box in op.expect.items():
        for leaf, (lo, lo_open, hi) in box.items():
            ivs = [ans.qual[leaf] for ans in groups[key]]
            for iv in ivs:
                if abs(iv.lo - lo) > TOL or iv.lo_open != lo_open or iv.hi_open \
                        or iv.hi > hi + TOL:
                    return f"{key} {leaf}: interval {iv} outside ({lo}, {hi})"
            if abs(max(iv.hi for iv in ivs) - hi) > TOL:
                return f"{key} {leaf}: best {max(iv.hi for iv in ivs)} != {hi}"
    clean = sum(not ans.flags for ans in out["answers"])
    if len(out["verdicts"]) < clean or any(v != "valid" for v in out["verdicts"]):
        return f"certificate verdicts {sorted(set(out['verdicts']))}"
    return ""


def judge_prove(_api, op: wl.ProveOp, out: dict) -> str:
    if not op.derivable:
        expected = ("not_found", None)
    else:
        expected = ("derivable", "valid" if op.tamper is None else "invalid")
    got = (out["holds"], out["check"])
    return "" if got == expected else f"got {got}, expected {expected}"


def _close(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        len(p) == len(q) and all(abs(x - y) <= TOL for x, y in zip(p, q))
        for p, q in zip(sorted(a), sorted(b)))


def judge_oracle(_api, op: wl.OracleOp, out: dict) -> str:
    report = out["report"]
    if report.partial:
        return "partial report"
    if report.mismatches:
        return f"{len(report.mismatches)} mismatches, first {report.mismatches[0]}"
    if op.expect is not None:
        got = {r.goal: r for r in report.records}
        if set(got) != set(op.expect):
            return f"goals {sorted(got)} != expected {sorted(op.expect)}"
        for goal, maxima in op.expect.items():
            if not (_close(got[goal].fixpoint, maxima)
                    and _close(got[goal].solver, maxima)):
                return f"{goal}: {got[goal]} != expected {maxima}"
    if op.sweep and not (out["sites"] > 0 and out["caught"] == out["sites"]):
        return f"{out['caught']}/{out['sites']} mutants caught"
    return ""


JUDGES = {wl.SolveOp: judge_solve, wl.ProveOp: judge_prove, wl.OracleOp: judge_oracle}


def rendered(api, op, out: dict) -> str:
    """What a user would see, for the information-only digest."""
    if isinstance(op, wl.SolveOp):
        return "; ".join(api.render_answer(a) for a in out["answers"])
    if isinstance(op, wl.ProveOp):
        return f"{out['holds']} {out['check']}"
    report = out["report"]
    return f"{len(report.records)} goals {len(report.mismatches)} mismatches " \
           f"{out['caught']}/{out['sites']} caught"


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------

class _Node:
    __slots__ = ("tag", "kids")

    def __init__(self, tag, kids):
        self.tag = tag
        self.kids = kids


def _substitute(node, env: dict):
    if isinstance(node, _Node):
        return _Node(node.tag, tuple(_substitute(k, env) for k in node.kids))
    return env.get(node, node)


_TERM = _Node("f", (_Node("g", ("X", "Y", 1)), _Node("h", ("Z", _Node("k", ("X", 2.5))))))


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work that uses no qcflp.

    Half of it substitutes into a small term, building objects, tuples
    and dict entries as qcflp's term code does; half is arithmetic.  On a
    shared 2-vCPU VM the first half's speed followed that of qcflp's
    prove ops more closely, the second half's that of its long solves;
    the sum followed both nearly as closely as the better of the two.
    """
    t0 = time.perf_counter()
    env: dict = {}
    for i in range(25):
        env["X"] = i
        env["Y"] = (i, "a")
        _substitute(_TERM, env)
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """calibrate() samples taken around one op and, when `inside`, during it.

    Samples inside the op come from a profiling-timer signal every
    PROBE_EVERY_S of CPU time; `spent` is the time they took, which the op
    does not count.  Set-up and the traced run take no samples inside.
    """

    def __init__(self, inside: bool):
        self.inside = inside
        self.samples: list = []
        self.spent = 0.0
        self.started = 0.0
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = [calibrate(), calibrate()]
        self.spent = 0.0
        if self.inside:
            signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since start(), less the samples taken inside."""
        return time.perf_counter() - self.started - self.spent

    def ref_elapsed(self) -> float:
        """elapsed() at the reference speed, by the samples so far."""
        return self.elapsed() * CAL_REF_S / statistics.median(self.samples)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self) -> float:
        """Measured seconds x scale() = seconds at the reference speed."""
        self.samples += [calibrate(), calibrate()]
        return CAL_REF_S / statistics.median(self.samples)


@dataclass
class OpRecord:
    label: str
    kind: str
    status: str                     # ok | timeout | error
    seconds: float                  # wall clock; if ok, less the probe's samples
    scale: float = 1.0              # seconds x scale = reference seconds
    first: Optional[float] = None   # solve ops: reference seconds to the first answer
    wrong: str = ""                 # why the result differs from the reference
    shown: str = ""

    def ref_seconds(self) -> float:
        """Time at the reference speed; a failed op's wall-clock time."""
        return self.seconds * self.scale if self.status == "ok" else self.seconds


def group_of(label: str) -> str:
    return label.split("-")[0].split("@")[0]


def run_op(api, progs, op, tracer, probe: SpeedProbe) -> OpRecord:
    # Each op starts from a collected heap, so that the garbage of the ops
    # before it is not collected on its time.
    gc.collect()
    probe.start()
    if tracer is not None:
        tracer.op = op.label
        root = tracer.open("op")
    out, status, error = None, "ok", ""
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
            out = EXECUTORS[type(op)](api, progs, op, probe.ref_elapsed)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            probe.stop()
    except OpTimeout:
        status = "timeout"
    except Exception as exc:        # an op that raises, RecursionError too, failed
        status, error = "error", f"{type(exc).__name__}: {exc}"
    seconds = probe.elapsed() + (0.0 if status == "ok" else probe.spent)
    if tracer is not None:
        tracer.close(root)
        tracer.end_op()
    kind = type(op).__name__.replace("Op", "").lower()
    rec = OpRecord(op.label, kind, status, seconds, probe.scale())
    if error:
        print(f"op {op.label}: {error}", file=sys.stderr)
    if status == "ok":
        rec.first = out.get("first")
        rec.wrong = JUDGES[type(op)](api, op, out)
        rec.shown = rendered(api, op, out)
        if tracer is not None and isinstance(op, wl.OracleOp) and op.sweep:
            tracer.add("oracle.mutants", out["sites"])
            tracer.add("oracle.mutants_caught", out["caught"])
    return rec


def measure(api, progs, workload: wl.Workload, seed: int, seconds: float,
            tracer, resetup) -> tuple:
    """Passes over the ops in a seeded order until `seconds`.

    A pass holds MAX_RUNS copies of every op, shuffled; a copy is
    skipped once the op's runs in the pass add up to RUN_BUDGET_S, or
    one failed, or the op has run MAX_RUNS times.  The first pass runs
    every op; after it, an op runs only if its last run should still end
    within `seconds`, and the loop ends with a pass that runs nothing.
    resetup() is called between ops every seconds / SETUPS, so that
    set-up is timed across the whole run.  Returns the op records of
    each pass and the peak resident memory
    before the first op that failed, so that how far a timed-out op got
    does not show up as memory.
    """
    rng = random.Random(f"order:{workload.name}:{seed}")
    end = time.perf_counter() + seconds
    probe = SpeedProbe(inside=tracer is None)
    records, last, runs, peak = [], {}, Counter(), None
    last_setup = time.perf_counter()

    def run(op, into: list) -> None:
        nonlocal peak, last_setup
        before = _peak_rss_mb()
        into.append(run_op(api, progs, op, tracer, probe))
        last[op.label] = into[-1].seconds
        runs[op.label] += 1
        if peak is None and into[-1].status != "ok":
            peak = before
        if time.perf_counter() - last_setup >= seconds / SETUPS:
            resetup()
            last_setup = time.perf_counter()

    while not records or records[-1]:
        ops = [op for op in workload.ops for _ in range(MAX_RUNS)]
        rng.shuffle(ops)
        first_pass = not records
        records.append([])
        spent = Counter()
        for op in ops:
            if spent[op.label] < RUN_BUDGET_S and runs[op.label] < MAX_RUNS and (
                    first_pass or time.perf_counter() + last[op.label] <= end):
                run(op, records[-1])
                ok = records[-1][-1].status == "ok"
                spent[op.label] += records[-1][-1].seconds if ok else RUN_BUDGET_S
    if len(records) > 1:
        records.pop()
    return records, _peak_rss_mb() if peak is None else peak


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def op_medians(records: list, kind: Optional[str] = None, first=False,
               ok_only=True) -> dict:
    """label -> the op's median reference time over its runs.

    Percentiles are taken over ops, not over runs, so that they do not
    depend on how many passes fitted in the run or on which ops repeat.
    """
    by_label: dict = {}
    for r in (r for rs in records for r in rs):
        if (r.status == "ok" or not ok_only) and kind in (None, r.kind):
            by_label.setdefault(r.label, []).append(
                r.first if first else r.ref_seconds())
    return {label: statistics.median(v) for label, v in by_label.items()}


def e2e_metrics(setup_times: list, records: list, peak_rss: float) -> dict:
    flat = [r for rs in records for r in rs]
    lat = sorted(op_medians(records).values())
    # Over the workload's ops, not over runs, so that the numbers do not
    # depend on how many passes fitted in the run: ops_per_s is one round
    # of every op at its median latency, and a failed op at the wall-clock
    # time it took, which the host's speed does not change for a timeout.
    labels = {r.label for r in flat}
    ok = labels - {r.label for r in flat if r.status != "ok"}
    agree = ok - {r.label for r in flat if r.wrong}
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(ok) / sum(op_medians(records, ok_only=False).values()),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "first_answer_p50_ms": 1000 * statistics.median(
            op_medians(records, "solve", first=True).values()),
        "ok_share": len(ok) / len(labels),
        "agree_share": len(agree) / len(ok),
        "peak_rss_mb": peak_rss,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in E2E_METRICS.items()}


def report(workload: wl.Workload, records: list, metrics: dict, tracer) -> None:
    print(f"workload {workload.name}: {len(records)} pass(es) of "
          f"{len(workload.ops)} ops; op time limit {OP_TIME_LIMIT_S:g} s; per op, runs and median "
          "wall-clock and reference latency:")
    first, seconds = {}, {}
    flat = [r for rs in records for r in rs]
    for r in flat:
        first.setdefault(r.label, r)
        seconds.setdefault(r.label, []).append(r.seconds)
    ref = op_medians(records, ok_only=False)
    for label, r in sorted(first.items()):
        verdict = "WRONG: " + r.wrong if r.wrong else ""
        print(f"  {label:36s} {r.status:8s} {len(seconds[label]):3d} "
              f"{1000 * statistics.median(seconds[label]):10.1f} ms "
              f"{1000 * ref[label]:10.1f} ref_ms  {verdict}")
    n_ops = f"over {len(op_medians(records))} ops' medians of {len(flat)} runs"
    n_solve = f"over {len(op_medians(records, 'solve'))} solve ops"
    samples = {"op_p50_ms": n_ops, "op_p90_ms": n_ops, "first_answer_p50_ms": n_solve}
    for name, m in metrics.items():
        extra = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}{extra}")
    digest = hashlib.sha256("\n".join(
        f"{label}: {r.status} {r.shown}"
        for label, r in sorted(first.items())).encode()).hexdigest()
    print(f"  answers digest (information only): {digest[:16]}")
    if tracer is not None:
        print("  self time by op group and span (s, whole run):")
        groups = tracing.group_breakdown(tracer, group_of)
        groups["(all ops)"] = sum(groups.values(), Counter())
        for group, row in sorted(groups.items()):
            total = sum(row.values())
            shares = ", ".join(f"{name} {v / total:.0%}" for name, v in
                               row.most_common(5))
            print(f"    {group:10s} {total:8.3f}  {shares}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qcflp" / "__init__.py").is_file() or not LIBRARY.is_file():
        print(f"benchmark: no qcflp sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = wl.build(args.workload, args.seed, LIBRARY.read_text(encoding="utf-8"))
    tracer = tracing.Tracer() if args.trace else None
    per_span = tracing.span_cost() if tracer else 0.0

    setup_times = []

    def timed_setup() -> tuple:
        gc.collect()
        t0 = time.perf_counter()
        prepared = setup(workload, tracer)
        setup_times.append(time.perf_counter() - t0)
        return prepared

    def resetup() -> None:
        """Time another set-up, then put back the modules the ops use:
        qcflp imports some names at call time, from sys.modules."""
        in_use = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "qcflp"}
        timed_setup()
        sys.modules.update(in_use)

    api, progs = timed_setup()
    signal.signal(signal.SIGALRM, _alarm)
    records, peak_rss = measure(api, progs, workload, args.seed, args.seconds,
                                tracer, resetup)
    flat = [r for rs in records for r in rs]
    if tracer is None:
        metrics = e2e_metrics(setup_times, records, peak_rss)
    else:
        runs = Counter(r.label for r in flat)
        runs["setup"] = len(setup_times)
        metrics = tracing.layer_metrics(tracer, runs, sum(r.seconds for r in flat),
                                        per_span)
    print("set-up times (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    report(workload, records, metrics, tracer)

    wrong = [r for r in flat if r.wrong]
    for r in wrong[:5]:
        print(f"benchmark: {r.label} differs from the reference: {r.wrong}",
              file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": len(flat),
                      "failed": sum(r.status != "ok" for r in flat),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
