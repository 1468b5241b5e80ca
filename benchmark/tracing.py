"""Spans and counters around qcflp's public calls, for the traced run.

Spans are kept in memory as [name, start, end, parent, op].  A span's
self time is its duration minus the time its child spans cover, so the
layers' self times add up to the ops' wall time.  The package is not
modified: the traced run wraps the entry points the benchmark calls, and
the names `qcflp.oracle`, `qcflp.semantics` and `qcflp.syntax` import,
so that oracle.compare splits into fixpoint, transform and solve.
"""

from __future__ import annotations

import time
from collections import Counter

# name -> unit, in the order printed.  Times and counts are totals for
# one set-up plus one run of every op of the workload.
LAYER_METRICS = {
    "syntax.parse_program_s": "s", "syntax.parse_goal_s": "s",
    "syntax.tokens": "count", "syntax.tokens_per_s": "1/s",
    "transform.program_s": "s", "transform.goal_s": "s",
    "transform.rules_out": "count", "transform.qual_vars": "count",
    "transform.goal_constraints": "count",
    "solve.s": "s", "solve.first_answer_s": "s", "solve.answers": "count",
    "solve.clean_ratio": "ratio", "solve.incomplete": "count",
    "solve.evals_per_answer": "count",
    "replay.s": "s", "replay.nodes": "count", "replay.us_per_node": "us",
    "check.s": "s", "check.nodes": "count", "check.us_per_node": "us",
    "check.valid_ratio": "ratio",
    "prove.s": "s", "prove.nodes": "count", "prove.derivable_ratio": "ratio",
    "cert.serialize_s": "s", "cert.parse_s": "s", "cert.bytes": "count",
    "fixpoint.s": "s", "fixpoint.facts": "count", "fixpoint.partial": "count",
    "constraints.entails_calls": "count", "constraints.entails_s": "s",
    "oracle.self_s": "s", "oracle.solve_s": "s", "oracle.solver_runs": "count",
    "oracle.goals": "count", "oracle.mismatches": "count",
    "oracle.mutants_caught_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = "setup"
        self.counts: Counter = Counter()   # (op label or "setup", name) -> total
        self.extra = 0.0                   # seconds spent counting for the trace

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        if idx in self.stack:
            del self.stack[self.stack.index(idx):]

    def end_op(self) -> None:
        """Close what an interrupted op left open (a timed-out generator)."""
        now = time.perf_counter()
        for idx in self.stack:
            self.spans[idx][END] = now
        self.stack.clear()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][NAME] == name for i in self.stack)

    def add(self, name: str, value=1) -> None:
        self.counts[(self.op, name)] += value

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(result, args, kwargs) adds counters, timed
        as tracing overhead."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                t0 = time.perf_counter()
                for key, value in count(result, args, kwargs).items():
                    self.add(key, value)
                self.extra += time.perf_counter() - t0
            return result
        return traced


def span_cost() -> float:
    """Seconds one wrapped call adds over a plain call, on this machine."""
    probe = Tracer()
    plain = lambda: None            # noqa: E731
    wrapped = probe.wrap("probe", plain)
    n = 20000
    t0 = time.perf_counter()
    for _ in range(n):
        plain()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def traced_solver_class(tracer: Tracer, solver_cls):
    class TracedSolver(solver_cls):
        def __init__(self, *args, **kwargs):
            idx = tracer.open("solve")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(idx)
            if tracer.inside("oracle"):
                tracer.add("oracle.solver_runs")

        def solve(self, *args, **kwargs):
            idx = tracer.open("solve")
            start = tracer.spans[idx][START]
            first = None
            try:
                for ans in solver_cls.solve(self, *args, **kwargs):
                    if first is None:
                        first = time.perf_counter() - start
                    tracer.add("solve.answers")
                    tracer.add("solve.clean", not ans.flags)
                    tracer.add("solve.incomplete", "incomplete" in ans.flags)
                    tracer.add("solve.evals", len(ans.store.evals))
                    yield ans
            finally:
                tracer.close(idx)
                tracer.add("solve.first_answer_s",
                           time.perf_counter() - start if first is None else first)
    return TracedSolver


def install(api, mods, tracer: Tracer) -> None:
    """Route the api's entry points, and the oracle's imports, through spans."""
    w = tracer.wrap
    api.parse_program = w("syntax.parse_program", api.parse_program)
    api.parse_goal = w("syntax.parse_goal", api.parse_goal)
    api.parse_statement = w("syntax.parse_goal", api.parse_statement)
    api.transform_program = w(
        "transform.program", api.transform_program,
        lambda r, *_: {"transform.rules_out": len(r[0].rules),
                   "transform.qual_vars": sum(len(e["qual_vars"]) for e in r[1])})
    api.transform_goal = w("transform.goal", api.transform_goal,
                           lambda r, *_: {"transform.goal_constraints": len(r[0])})
    api.Solver = traced_solver_class(tracer, api.Solver)
    api.replay_trees = w("replay", api.replay_trees,
                         lambda trees, *_: {"replay.nodes": sum(t.size() for t in trees)})
    api.check_proof = w("check", api.check_proof,
                        lambda r, a, _k: {"check.calls": 1,
                                      "check.valid": r.status == "valid",
                                      "check.nodes": a[2].size()})
    api.holds = w("prove", api.holds,
                  lambda r, *_: {"prove.calls": 1,
                             "prove.derivable": r.status == "derivable",
                             "prove.nodes": r.tree.size() if r.tree else 0})
    api.serialize_proof = w("cert.serialize", api.serialize_proof,
                            lambda text, *_: {"cert.bytes": len(text.encode())})
    api.parse_proof = w("cert.parse", api.parse_proof)
    # Mutants are meant to mismatch: count goals and mismatches of the
    # unmutated comparisons only.
    api.compare = w("oracle", api.compare,
                    lambda rep, _a, kw: {} if kw.get("drop_site") is not None else
                    {"oracle.goals": len(rep.records),
                     "oracle.mismatches": len(rep.mismatches)})
    api.count_qual_sites = w("oracle", api.count_qual_sites)

    mods.oracle.bounded_lfp = w(
        "fixpoint", mods.oracle.bounded_lfp,
        lambda interp, *_: {"fixpoint.facts": sum(map(len, interp.facts.values())),
                        "fixpoint.partial": interp.partial})
    mods.oracle.transform_program = api.transform_program
    mods.oracle.transform_goal = api.transform_goal
    mods.oracle.Solver = api.Solver
    mods.semantics.entails = w("constraints.entails", mods.semantics.entails,
                               lambda *_: {"constraints.entails_calls": 1})
    lex = mods.syntax.lex

    def counting_lex(text):
        tokens = lex(text)
        if tracer.stack and tracer.spans[tracer.stack[-1]][NAME].startswith("syntax."):
            tracer.add("syntax.tokens", len(tokens))
        return tokens
    mods.syntax.lex = counting_lex


def _child_time(spans: list) -> list:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return child


def self_times(tracer: Tracer) -> Counter:
    """(op, span name) -> self seconds; oracle.solve for solves in compare."""
    child = _child_time(tracer.spans)
    out: Counter = Counter()
    for i, s in enumerate(tracer.spans):
        own = s[END] - s[START] - child[i]
        out[(s[OP], s[NAME])] += own
        if s[NAME] == "solve" and _has_ancestor(tracer.spans, i, "oracle"):
            out[(s[OP], "oracle.solve")] += own
    return out


def _has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def group_breakdown(tracer: Tracer, group_of) -> dict:
    """op group -> span name -> self seconds, over every op of the run."""
    out: dict = {}
    for (op, name), own in self_times(tracer).items():
        if op != "setup" and name != "oracle.solve":
            out.setdefault(group_of(op), Counter())[name] += own
    return out


def layer_metrics(tracer: Tracer, runs: dict, wall: float,
                  per_span: float) -> dict:
    """Every LAYER_METRICS value, per one set-up plus one run of every op.

    runs maps "setup" and each op label to how often it ran.
    """
    own = self_times(tracer)

    def per(table, name):
        return sum(table[(op, name)] / n for op, n in runs.items())

    def t(name):
        return per(own, name)

    def c(name):
        return per(tracer.counts, name)

    def ratio(a, b):
        return a / b if b else 0.0

    parse_s = t("syntax.parse_program") + t("syntax.parse_goal")
    overhead = len(tracer.spans) * per_span + tracer.extra
    values = {
        "syntax.parse_program_s": t("syntax.parse_program"),
        "syntax.parse_goal_s": t("syntax.parse_goal"),
        "syntax.tokens": c("syntax.tokens"),
        "syntax.tokens_per_s": ratio(c("syntax.tokens"), parse_s),
        "transform.program_s": t("transform.program"),
        "transform.goal_s": t("transform.goal"),
        "transform.rules_out": c("transform.rules_out"),
        "transform.qual_vars": c("transform.qual_vars"),
        "transform.goal_constraints": c("transform.goal_constraints"),
        "solve.s": t("solve"),
        "solve.first_answer_s": c("solve.first_answer_s"),
        "solve.answers": c("solve.answers"),
        "solve.clean_ratio": ratio(c("solve.clean"), c("solve.answers")),
        "solve.incomplete": c("solve.incomplete"),
        "solve.evals_per_answer": ratio(c("solve.evals"), c("solve.answers")),
        "replay.s": t("replay"),
        "replay.nodes": c("replay.nodes"),
        "replay.us_per_node": 1e6 * ratio(t("replay"), c("replay.nodes")),
        "check.s": t("check"),
        "check.nodes": c("check.nodes"),
        "check.us_per_node": 1e6 * ratio(t("check"), c("check.nodes")),
        "check.valid_ratio": ratio(c("check.valid"), c("check.calls")),
        "prove.s": t("prove"),
        "prove.nodes": c("prove.nodes"),
        "prove.derivable_ratio": ratio(c("prove.derivable"), c("prove.calls")),
        "cert.serialize_s": t("cert.serialize"),
        "cert.parse_s": t("cert.parse"),
        "cert.bytes": c("cert.bytes"),
        "fixpoint.s": t("fixpoint"),
        "fixpoint.facts": c("fixpoint.facts"),
        "fixpoint.partial": c("fixpoint.partial"),
        "constraints.entails_calls": c("constraints.entails_calls"),
        "constraints.entails_s": t("constraints.entails"),
        "oracle.self_s": t("oracle"),
        "oracle.solve_s": t("oracle.solve"),
        "oracle.solver_runs": c("oracle.solver_runs"),
        "oracle.goals": c("oracle.goals"),
        "oracle.mismatches": c("oracle.mismatches"),
        "oracle.mutants_caught_ratio": ratio(c("oracle.mutants_caught"),
                                             c("oracle.mutants")),
        "trace.overhead_ratio": ratio(wall, wall - overhead),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS.items()}
