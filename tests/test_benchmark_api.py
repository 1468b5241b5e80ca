"""Smoke test of the package surface the benchmark under benchmark/ uses.

The benchmark imports qcflp afresh from src/ and, when traced, wraps
names inside the package's modules, so it runs in a subprocess: neither
the fresh import nor the wrapping can leak into this process.
"""

import json
import subprocess
import sys

from conftest import ROOT

SCRIPT = r"""
import json, sys
sys.path.insert(0, "benchmark")
import run, tracing, workloads as wl
sys.path.insert(0, str(run.SRC))

workload = wl.build("oracle", 0, run.LIBRARY.read_text())
tracer = tracing.Tracer()
api, progs = run.setup(workload, tracer)
ops = [next(o for o in workload.ops if isinstance(o, wl.SolveOp)),
       next(o for o in workload.ops if isinstance(o, wl.ProveOp)),
       next(o for o in workload.ops if isinstance(o, wl.OracleOp) and o.sweep)]
verdicts = {}
for op in ops:
    tracer.op = op.label
    out = run.EXECUTORS[type(op)](api, progs, op, lambda: 0.0)
    verdicts[op.label] = run.JUDGES[type(op)](api, op, out)
names = sorted({name for _op, name in tracer.counts})
print(json.dumps({"verdicts": verdicts, "counts": names}))
"""


def test_benchmark_ops_run_and_agree():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    verdicts = result["verdicts"]
    assert len(verdicts) == 3
    assert all(v == "" for v in verdicts.values()), verdicts
    # the wrapped fixpoint and entailment names were reached
    assert {"fixpoint.facts", "constraints.entails_calls"} <= set(result["counts"])
