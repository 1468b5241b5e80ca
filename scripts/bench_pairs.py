#!/usr/bin/env python3
"""Parent/change benchmark pairs, summarised into a BENCH_*.json file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload catalogue \
        --seeds 1001-1010 --out BENCH_name.json --claim ops_per_s

Runs benchmark/run.py on the committed files of the parent revision,
exported with `git archive` into a temporary directory, and on the
working tree, one run at a time, each with a fresh bytecode cache
(PYTHONPYCACHEPREFIX), in alternating pairs: the parent runs first in
even pairs and second in odd ones, and both runs of a pair use the same
seed.  Per metric, the output holds each side's median and
quartiles (inclusive method), every run's value, and in how many pairs
the change is better; per pair, the failed ops of each side; per
workload, whether the answers digests agree on every pair, and the
command its runs used.  A workload already in --out is replaced and the
others are kept, so one file can collect several invocations.  Each
end-to-end metric gets a verdict against its BENCHMARK.json bound:
"within" when the change's median is no worse than the parent's by more
than the bound (relative to the parent's median), "worse" when it is,
and "unresolved" when the parent's interquartile range, relative to its
median, exceeds the bound, unless every change run is better than every
parent run.  --claim names a metric whose gain is judged: the change
must win at least nine pairs in ten, and the median of the pairwise
gains must exceed the parent's interquartile range.
--trace 1 runs traced and summarises the per-layer metrics instead.
Nothing under benchmark/ is written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"answers digest \(information only\): (\w+)")
RUN_TIMEOUT_S = 1800


def parse_run(stdout: str) -> dict:
    """Metric values, failed ops and answers digest of one run's stdout."""
    last = json.loads(stdout.strip().splitlines()[-1])
    digest = DIGEST.search(stdout)
    return {"metrics": {k: m["value"] for k, m in last["metrics"].items()},
            "units": {k: m["unit"] for k, m in last["metrics"].items()},
            "failed": last["failed"], "correct": last["correct"],
            "digest": digest.group(1) if digest else None}


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def gain(parent: float, change: float, better: str) -> float:
    """How much better the change is, in the metric's unit."""
    return change - parent if better == "higher" else parent - change


def bound_verdict(m: dict, bound: float) -> str:
    """"within", "worse" or "unresolved": whether a metric entry of
    summarise got worse than the parent by more than bound, a fraction
    of the parent's median (see the module docstring)."""
    runs, better, parent = m["runs"], m["better"], m["parent"]
    if all(gain(p, c, better) > 0 for p in runs["parent"] for c in runs["change"]):
        return "within"
    scale = abs(parent["median"])
    if parent["q3"] - parent["q1"] > bound * scale:
        return "unresolved"
    loss = -gain(parent["median"], m["change"]["median"], better)
    return "worse" if loss > bound * scale else "within"


def summarise(seeds: list, pairs: list, better: dict, bounds: dict = None) -> dict:
    """The workload entry for (parent run, change run) pairs of parse_run
    results; better maps a metric to "higher" or "lower", bounds an
    end-to-end metric to its bound, which gives it a verdict."""
    n, bounds = len(pairs), bounds or {}
    metrics = {}
    for name, unit in pairs[0][0]["units"].items():
        runs = {side: [pair[i]["metrics"][name] for pair in pairs]
                for i, side in enumerate(("parent", "change"))}
        entry = {"unit": unit, "better": better.get(name)}
        entry.update({side: quartiles(v) for side, v in runs.items()})
        if entry["better"]:
            wins = sum(gain(p, c, entry["better"]) > 0
                       for p, c in zip(runs["parent"], runs["change"]))
            entry["change_wins"] = f"{wins}/{n}"
        entry["runs"] = runs
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["verdict"] = bound_verdict(entry, bounds[name])
        metrics[name] = entry
    return {"pairs": n, "seeds": list(seeds),
            "answers_digest_identical": all(
                p["digest"] is not None and p["digest"] == c["digest"]
                for p, c in pairs),
            "all_correct": all(p["correct"] and c["correct"] for p, c in pairs),
            "failed_ops": [[p["failed"], c["failed"]] for p, c in pairs],
            "metrics": metrics}


def judge_claim(entry: dict, metric: str) -> dict:
    """Whether the change wins 9 pairs in 10 and its median pairwise gain
    exceeds the parent's interquartile range."""
    m = entry["metrics"][metric]
    runs = m["runs"]
    gains = [gain(p, c, m["better"]) for p, c in zip(runs["parent"], runs["change"])]
    wins = sum(g > 0 for g in gains)
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    median_gain = statistics.median(gains)
    return {"metric": metric, "change_wins": f"{wins}/{len(gains)}",
            "median_gain": median_gain, "parent_iqr": iqr,
            "relative_gain": median_gain / m["parent"]["median"],
            "holds": wins >= 0.9 * len(gains) and median_gain > iqr}


def metric_specs() -> tuple:
    """Each metric's direction, and each end-to-end metric's bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["better"]
             for m in spec["end_to_end"] + spec.get("per_layer", [])},
            {m["name"]: m["bound"] for m in spec["end_to_end"]})


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def export_revision(rev: str, into: Path) -> str:
    """Write the committed files of rev under into; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return sha


def run_benchmark(root: Path, workload: str, seed: int, seconds: float,
                  trace: int, log: Path = None) -> dict:
    """One run in root.  Its bytecode cache is a fresh directory, so no
    __pycache__ left in root, or by an earlier run, is read: every run
    compiles its sources, as the parent's fresh export would once."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="bench_pycache_") as cache:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPYCACHEPREFIX": cache},
                              timeout=RUN_TIMEOUT_S)
    if log is not None:
        log.write_text(proc.stdout + proc.stderr, encoding="utf-8")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_pairs: run failed in {root}: {' '.join(cmd)}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="one seed per pair: 1001-1010 or 7,11,12")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--claim", help="a metric whose gain is judged")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--what", help="what the change is, for the output file")
    ap.add_argument("--logs", type=Path, help="directory for each run's output")
    args = ap.parse_args(argv)

    if args.logs:
        args.logs.mkdir(parents=True, exist_ok=True)
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_root = Path(tmp)
        sha = export_revision(args.parent, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                log = args.logs / f"{side}_{args.workload}_{seed}.txt" if args.logs else None
                got[side] = run_benchmark(sides[side], args.workload, seed,
                                          args.seconds, args.trace, log)
            pairs.append((got["parent"], got["change"]))
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed} done", file=sys.stderr)

    entry = summarise(args.seeds, pairs, *metric_specs())
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("what", args.what or f"benchmark/run.py metrics, parent {sha[:7]} "
                   "against the working tree")
    doc["parent"] = sha
    doc.pop("command", None)     # each workload names its own
    entry["command"] = (f"python3 benchmark/run.py --workload {args.workload} --seed S "
                        f"--seconds {args.seconds:g} --trace {args.trace}, one run at a "
                        "time, parent and change alternating which runs first")
    doc["machine"] = (f"{os.cpu_count()} CPUs, {platform.system()}, "
                      f"Python {platform.python_version()}")
    doc["statistics"] = ("median and quartiles (inclusive method) over the runs of "
                         "each side; change_wins counts pairs where the change is better")
    key = args.workload + (" (traced)" if args.trace else "")
    doc.setdefault("workloads", {})[key] = entry
    claims = doc.get("claimed_gain") or {}
    if args.claim:
        claims[key] = judge_claim(entry, args.claim)
    doc["claimed_gain"] = claims or None
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({name: m["verdict"] for name, m in entry["metrics"].items()
                      if "verdict" in m}))
    if args.claim:
        print(json.dumps(claims[key]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
