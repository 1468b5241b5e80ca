"""Smoke tests of the example scripts under scripts/."""

import hashlib
import importlib.util
import json
import os
import py_compile
import re
import subprocess
import sys

from conftest import ROOT


def run_script(name: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          capture_output=True, text=True, timeout=120)


def test_library_demo():
    proc = run_script("library_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "checker says: ['valid']" in proc.stdout
    # the answers one solver replays share their equal subproofs
    (answers, nodes, distinct), = re.findall(
        r"replayed (\d+) answers of .* on one solver: "
        r"(\d+) proof nodes, (\d+) distinct subproofs", proc.stdout)
    assert int(answers) == 13
    assert 0 < int(distinct) < int(nodes) // 10
    # the flagship statement, proved and checked through its certificate
    assert "derivable; its certificate has" in proc.stdout
    assert "source checker says: valid" in proc.stdout


def test_oracle_sweep():
    proc = run_script("oracle_sweep.py")
    assert proc.returncode == 0, proc.stderr
    counts = re.findall(r"(\d+)/(\d+) dropped conditions caught", proc.stdout)
    assert counts
    assert all(caught == sites for caught, sites in counts)


def ladder_answer(threshold: str, leaves=("W",)) -> str:
    """The paper goal's answer at W >= threshold, or at (threshold,
    threshold) under uxu with leaves W.1 and W.2."""
    if float(threshold) > 0.7:
        return ""
    interval = "0.7" if threshold == "0.7" else f"[{threshold}, 0.7]"
    return "{ R -> 4 } { " + ", ".join(f"{w} in {interval}" for w in leaves) + " }"


LADDER = ("0.9", "0.8", "0.7", "0.6", "0.5", "0.4", "0.3", "0.2", "0.15", "0.1")


def assert_flat(rows, leaves=("W",)):
    """Each ladder row has the paper goal's answer, no cut and skips;
    from 0.7 down the tries are the same, at most 40."""
    tries = {}
    for threshold, row in zip(LADDER, rows, strict=True):
        assert row["threshold"] == float(threshold)
        answer = ladder_answer(threshold, leaves)
        assert row["answers"] == (1 if answer else 0), threshold
        assert row["digest"] == hashlib.sha256(answer.encode()).hexdigest()[:16], threshold
        assert row["cut"] == [], threshold
        tries[threshold] = row["tries"]
        assert row["skips"] > 0, threshold
    assert tries["0.9"] < tries["0.8"] < tries["0.7"]
    assert {tries[t] for t in LADDER[2:]} == {tries["0.7"]}
    assert tries["0.7"] <= 40


def test_growth():
    # a guard on growth: with exact memo keys only, the paper goal took
    # 2,059 tries at 0.3 and 42,163 at 0.1, and with the memo on demands
    # 637 and 2,673; without the memo on rule tries, the threshold-free
    # paper goal took 68,165 tries and the open search did not finish.
    # With every clashing try run under the memo on rule tries, the
    # ladder grew from 83 tries at 0.7 to 620 at 0.1; skipping those that
    # cannot cut makes it flat
    proc = run_script("growth.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 28 and lines[6].startswith("W >= 0.3 ")
    assert lines[19].startswith("uxu W >= (0.3,0.3) ")
    doc = json.loads(lines[-1])
    assert (doc["family"], doc["depth"]) == ("threshold", 64)
    assert_flat(doc["rows"])
    # under uxu the chain check reads each component, so the ladder is
    # flat there too (89 tries at (0.65,0.65) to 620 at (0.1,0.1), with
    # 489 memo hits, when it read no product-domain rule)
    assert_flat(doc["uxu"], ("W.1", "W.2"))
    # the threshold-free goals at the default depth: with a failure memo
    # in place of the cut check, 1,874 and 3,845 tries, and guessGenre(B)
    # did not finish
    paper, search, guess = doc["free"]
    assert paper["goal"] == '(search("German","Essay",intermediate) == R) # W'
    answer = "{ R -> 4 } { W in (0, 0.7] } [incomplete]"
    assert paper["digest"] == hashlib.sha256(answer.encode()).hexdigest()[:16]
    assert (paper["answers"], paper["cut"]) == (1, ["depth"])
    assert paper["tries"] <= 250
    assert search["goal"] == "(search(L,G,V) == R) # W"
    assert search["answers"] == 13 and search["tries"] <= 400
    assert guess["goal"] == "(guessGenre(B) == G) # W"
    assert (guess["answers"], guess["cut"]) == (6, ["depth"])
    # certificates of (hd(big) -> a) # 1 grow linearly with the list:
    # with each statement printed whole, bytes grew 15.4 times from 250
    # to 1,000 (197,242 to 3,039,003)
    sizes = {row["n"]: row for row in doc["certificates"]}
    assert list(sizes) == [250, 500, 1000, 2000]
    assert sizes[1000]["bytes"] / sizes[250]["bytes"] < 5
    assert sizes[1000]["bytes"] < 100_000


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(ops_per_s: float, p50: float, failed: int = 0,
               digest: str = "230545bfecae47ca") -> str:
    """The tail of a benchmark/run.py stdout, as the summariser reads it."""
    metrics = {"ops_per_s": {"value": ops_per_s, "unit": "1/ref_s"},
               "op_p50_ms": {"value": p50, "unit": "ref_ms"}}
    return (f"workload catalogue: 1 pass(es) of 15 ops\n"
            f"  answers digest (information only): {digest}\n"
            + json.dumps({"correct": True, "attempted": 90, "failed": failed,
                          "metrics": metrics}) + "\n")


def test_bench_pairs_aggregation():
    bp = load_script("bench_pairs")
    assert bp.parse_seeds("7,11-13") == [7, 11, 12, 13]
    parent = [7.0, 7.2, 7.4, 7.1, 7.3, 7.2, 7.0, 7.4, 7.3, 7.1]
    change = [11.0, 11.5, 11.2, 7.0, 11.1, 11.3, 11.6, 11.4, 11.2, 11.0]
    pairs = [(bp.parse_run(canned_run(p, 40.0)),
              bp.parse_run(canned_run(c, 40.0 if i else 30.0, failed=int(i == 9),
                                      digest="ffff" if i == 5 else "230545bfecae47ca")))
             for i, (p, c) in enumerate(zip(parent, change))]
    better = {"ops_per_s": "higher", "op_p50_ms": "lower"}
    bounds = {"ops_per_s": 0.25, "op_p50_ms": 0.25}
    entry = bp.summarise(range(1, 11), pairs, better, bounds)
    assert entry["pairs"] == 10 and entry["seeds"] == list(range(1, 11))
    assert entry["answers_digest_identical"] is False
    assert entry["failed_ops"][9] == [0, 1] and entry["failed_ops"][0] == [0, 0]
    ops = entry["metrics"]["ops_per_s"]
    assert ops["unit"] == "1/ref_s" and ops["better"] == "higher"
    assert ops["change_wins"] == "9/10"
    assert ops["parent"] == {"median": 7.2, "q1": 7.1, "q3": 7.3}
    assert ops["runs"]["change"] == change
    # a tie is not a win; lower is better for latency
    assert entry["metrics"]["op_p50_ms"]["change_wins"] == "1/10"
    claim = bp.judge_claim(entry, "ops_per_s")
    assert claim["change_wins"] == "9/10" and claim["holds"] is True
    assert abs(claim["parent_iqr"] - 0.2) < 1e-9
    # every metric with a bound gets a verdict: a gain, and a loss that
    # the bound covers (p50 40 -> 40 in the median), are within it
    assert ops["bound"] == 0.25 and ops["verdict"] == "within"
    assert entry["metrics"]["op_p50_ms"]["verdict"] == "within"
    # the same gains without a ninth win do not hold
    pairs[0] = (pairs[0][0], bp.parse_run(canned_run(6.0, 40.0)))
    entry = bp.summarise(range(1, 11), pairs, {"ops_per_s": "higher"})
    assert bp.judge_claim(entry, "ops_per_s")["holds"] is False
    assert "verdict" not in entry["metrics"]["ops_per_s"]

    def verdicts(parent, change, p50s=(40.0, 40.0)):
        runs = [(bp.parse_run(canned_run(p, p50s[0])),
                 bp.parse_run(canned_run(c, p50s[1]))) for p, c in zip(parent, change)]
        metrics = bp.summarise(range(len(runs)), runs, better, bounds)["metrics"]
        return metrics["ops_per_s"]["verdict"], metrics["op_p50_ms"]["verdict"]
    steady = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.1, 9.9, 10.0, 10.2]
    # worse by more than the bound: a third fewer ops, a p50 half again
    assert verdicts(steady, [x * 2 / 3 for x in steady], (40.0, 60.0)) \
        == ("worse", "worse")
    # worse by less than the bound
    assert verdicts(steady, [x * 0.8 for x in steady], (40.0, 49.0)) \
        == ("within", "within")
    # a parent that spreads by more than the bound cannot tell
    wide = [6.0, 14.0, 6.5, 13.5, 7.0, 13.0, 6.0, 14.0, 6.5, 13.5]
    assert verdicts(wide, wide)[0] == "unresolved"
    assert verdicts(wide, [x * 0.5 for x in wide])[0] == "unresolved"
    # unless every change run is better than every parent run
    assert verdicts(wide, [x + 10.0 for x in wide])[0] == "within"


def test_bench_pairs_workloads_keep_their_commands(monkeypatch, tmp_path):
    # two invocations into one file: each workload names the --seconds
    # and --trace its own runs used
    bp = load_script("bench_pairs")
    monkeypatch.setattr(bp, "export_revision", lambda rev, into: "0" * 40)
    monkeypatch.setattr(bp, "run_benchmark",
                        lambda root, workload, seed, seconds, trace, log:
                        bp.parse_run(canned_run(7.0 + trace, 40.0)))
    out = tmp_path / "BENCH.json"
    for trace, seconds in ((0, 20), (1, 5)):
        assert bp.main(["--parent", "HEAD", "--workload", "catalogue",
                        "--seeds", "1-2", "--seconds", str(seconds),
                        "--trace", str(trace), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "command" not in doc
    for key, flags in (("catalogue", "--seconds 20 --trace 0"),
                       ("catalogue (traced)", "--seconds 5 --trace 1")):
        assert f"--workload catalogue --seed S {flags}," in doc["workloads"][key]["command"]


def test_bench_pairs_runs_read_no_stale_bytecode(tmp_path):
    # a stale __pycache__ in the run's root, valid by its source's size
    # and mtime, is not read: every run compiles the sources it is given
    bp = load_script("bench_pairs")
    bench = tmp_path / "benchmark"
    bench.mkdir()
    mod = bench / "stale.py"
    mod.write_text("VALUE = 1.0\n")
    py_compile.compile(str(mod), cfile=str(
        bench / "__pycache__" / f"stale.{sys.implementation.cache_tag}.pyc"),
        invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
    stat = mod.stat()
    mod.write_text("VALUE = 2.0\n")
    os.utime(mod, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    (bench / "run.py").write_text(
        "import json, stale\n"
        "print(json.dumps({'metrics': {'ops_per_s': {'value': stale.VALUE,"
        " 'unit': '1/ref_s'}}, 'failed': 0, 'correct': True}))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    plain = subprocess.run([sys.executable, "-B", "benchmark/run.py"], cwd=tmp_path,
                           env=env, capture_output=True, text=True, timeout=60)
    assert bp.parse_run(plain.stdout)["metrics"]["ops_per_s"] == 1.0
    for _ in range(2):
        run = bp.run_benchmark(tmp_path, "w", 1, 1.0, 0)
        assert run["metrics"]["ops_per_s"] == 2.0
