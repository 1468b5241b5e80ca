import json
import os
import subprocess
import sys
import time

import pytest

from conftest import BOOK4, LIBRARY, ROOT, unshared_copy
from qcflp.cli import main
from qcflp.domains import U
from qcflp.semantics import (BUDGET, ProofTree, check_proof, distinct_parts,
                             holds, parse_proof, parse_statement, serialize_proof)

GOAL = '(search("German","Essay",intermediate) == R) # W | W >= 0.65'
GENRE_STMT = f'(guessGenre({BOOK4}) -> "Essay") # 0.7'


def run(*argv):
    return main(list(argv))


def triv_certificate(stmt: str) -> str:
    """A one-node certificate calling stmt vacuous."""
    return serialize_proof(ProofTree("triv", parse_statement(stmt)), "u", U)


def test_check_ok():
    assert run("check", str(LIBRARY)) == 0


def test_check_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.qcflp"
    bad.write_text("f(X, X) --> X\n")
    assert run("check", str(bad)) == 1
    err = capsys.readouterr().err
    assert "non-linear" in err and "bad.qcflp" in err


def test_missing_file_exit_2():
    assert run("check", "/nonexistent/path.qcflp") == 2


def test_transform_writes_output_and_map(tmp_path):
    out = tmp_path / "library.cflp"
    assert run("transform", str(LIBRARY), "-o", str(out), "--emit-map") == 0
    text = out.read_text()
    assert "search'" in text
    entries = [json.loads(line) for line in
               (tmp_path / "library.cflp.map").read_text().splitlines()]
    assert len(entries) == 24
    assert entries[0]["qual_vars"]


@pytest.mark.parametrize("flag", [["--simplify"], ["--seed", "3"]])
@pytest.mark.parametrize("command", ["transform", "solve"])
def test_removed_options_are_usage_errors(command, flag):
    with pytest.raises(SystemExit) as exc:
        run(command, str(LIBRARY), "--goal", GOAL, *flag)
    assert exc.value.code == 2


def test_transform_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.cflp", tmp_path / "b.cflp"
    assert run("transform", str(LIBRARY), "-o", str(a)) == 0
    assert run("transform", str(LIBRARY), "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_transform_of_transformed_rejected(tmp_path, capsys):
    out = tmp_path / "library.cflp"
    assert run("transform", str(LIBRARY), "-o", str(out)) == 0
    assert run("transform", str(out)) == 1
    assert "primed" in capsys.readouterr().err


def test_transform_goal_session_form(capsys):
    assert run("transform", str(LIBRARY), "--goal", GOAL,
               "-o", os.devnull) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert out == 'qVal(W), W >= 0.65, search\'("German", "Essay", intermediate, W) == R'


def test_solve_library(capsys):
    assert run("solve", str(LIBRARY), "--goal", GOAL) == 0
    out = capsys.readouterr().out
    assert "{ R -> 4 } { W in [0.65, 0.7] }" in out


def test_solve_json(capsys):
    assert run("solve", str(LIBRARY), "--goal", GOAL, "--json") == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert rec["subst"] == {"R": "4"}
    assert rec["qual"]["W"]["lo"] == pytest.approx(0.65)
    assert rec["qual"]["W"]["hi"] == pytest.approx(0.7)


def test_solve_threshold_too_high():
    goal = '(search("German","Essay",intermediate) == R) # W | W >= 0.71'
    assert run("solve", str(LIBRARY), "--goal", goal) == 1


def test_undeclared_threshold_reports_its_position(capsys):
    assert run("solve", str(LIBRARY), "--goal", "g == a # W | V >= 0.5") == 1
    assert capsys.readouterr().err == \
        "<goal>:1:14: threshold for undeclared qualification variable V\n"


def test_solve_answer_limit(capsys):
    goal = f'(guessGenre({BOOK4}) == G) # W'
    assert run("solve", str(LIBRARY), "--goal", goal,
               "--answers", "1", "--depth", "6") == 0
    out = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(out) == 1


@pytest.mark.parametrize("command, flag, value, least", [
    ("solve", "--answers", "0", 1), ("solve", "--answers", "-2", 1),
    ("solve", "--depth", "-1", 0), ("prove", "--depth", "-3", 0),
    ("oracle", "--k", "0", 1), ("oracle", "--k", "-1", 1),
    ("oracle", "--depth", "-1", 0)])
def test_numeric_limit_out_of_range_is_a_usage_error(tmp_path, capsys, command,
                                                       flag, value, least):
    src = tmp_path / "f.qcflp"
    src.write_text("f --> true\n")
    rest = {"solve": ["--goal", "(f == R) # W"],
            "prove": ["--statement", "(f -> true) # 1"], "oracle": []}[command]
    with pytest.raises(SystemExit) as exc:
        run(command, str(src), *rest, flag, value)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least {least}, not {value}" in captured.err


def test_numeric_limits_at_their_least_run(tmp_path, capsys):
    src = tmp_path / "f.qcflp"
    src.write_text("f --> true\n")
    assert run("solve", str(src), "--goal", "(f == R) # W", "--answers", "1") == 0
    assert run("solve", str(src), "--goal", "(f == R) # W", "--depth", "0") == 3
    assert run("oracle", str(src), "--k", "1") == 0
    # a depth of 0 runs, and the solver it cuts misses the fact
    assert run("oracle", str(src), "--depth", "0") == 1


def test_solve_flagged_only(tmp_path):
    src = tmp_path / "resid.qcflp"
    src.write_text("f(X) --> true <== X /= a\n")
    assert run("solve", str(src), "--goal", "f(Y) == true # W") == 3


@pytest.mark.parametrize("condition, residual", [
    ("qVal(X)", "qVal(s(Y))"),
    ("X <= 0.5", "s(Y) <= 0.5"),
], ids=["qval", "bound"])
def test_parked_condition_is_kept(tmp_path, capsys, condition, residual):
    # a condition parked outside the decidable fragment is not a
    # disequation: re-examining bindings must keep it, not crash on it
    # or drop it
    src = tmp_path / "nat.qcflp"
    src.write_text(f"data nat = z | s(nat)\nh(X) --> true <== {condition}\n")
    assert run("solve", str(src), "--goal", "(h(s(Y)) == true) # W") == 3
    assert capsys.readouterr().out == \
        f"{{ }} {{ W in (0, 1] }} << {residual} >> [conditional]\n"


def test_prove_and_check_certificate(tmp_path, capsys):
    cert = tmp_path / "genre.proof"
    assert run("prove", str(LIBRARY), "--statement", GENRE_STMT,
               "--depth", "5", "-o", str(cert)) == 0
    assert run("prove", str(LIBRARY), "--check", str(cert)) == 0
    assert "valid" in capsys.readouterr().out


def test_prove_not_found():
    beyond = f'(guessGenre({BOOK4}) -> "Essay") # 0.75'
    assert run("prove", str(LIBRARY), "--statement", beyond, "--depth", "6") == 1


PAPER_STMT = '(search("German","Essay",intermediate) -> 4) # {}'


def test_prove_paper_statement(tmp_path, capsys):
    # search has a variable (B) that its head does not bind; the
    # solver binds it, so the paper's statement is derivable up to the
    # answer's 0.7 and its certificate checks
    cert = tmp_path / "p.proof"
    assert run("prove", str(LIBRARY), "--statement", PAPER_STMT.format("0.65"),
               "-o", str(cert)) == 0
    assert capsys.readouterr().out == "derivable\n"
    assert run("prove", str(LIBRARY), "--check", str(cert)) == 0
    assert capsys.readouterr().out == "valid\n"
    assert run("prove", str(LIBRARY), "--statement", PAPER_STMT.format("0.71")) == 1
    assert capsys.readouterr().err == "not_found\n"
    # the certificate with its root raised to 0.71 is refused
    lines = cert.read_text().splitlines()
    root = lines[3].split()[1]
    (i,) = [i for i, line in enumerate(lines) if line.split("\t")[0] == root]
    assert lines[i].endswith(" # 0.65")
    lines[i] = lines[i][:-len("0.65")] + "0.71"
    bad = tmp_path / "raised.proof"
    bad.write_text("\n".join(lines) + "\n")
    assert run("prove", str(LIBRARY), "--check", str(bad)) == 1
    assert capsys.readouterr().out.startswith("invalid: ")


def test_certificate_with_repeated_lines_still_checks(library, tmp_path, capsys):
    # the paper statement's certificate writes each of its distinct
    # subproofs once; written with a line per occurrence, as certificates
    # were before, it reads (one object per line) to the same tree and
    # checks valid, in process and through prove --check
    tree = holds(library, U, parse_statement(PAPER_STMT.format("0.65"))).tree
    dag = serialize_proof(tree, "u", U)
    expanded = serialize_proof(unshared_copy(tree), "u", U)
    distinct = distinct_parts([tree])[0]
    assert dag.split("\n")[2] == f"nodes {distinct}" and distinct <= 250
    assert expanded.split("\n")[2] == f"nodes {tree.size()}"
    assert tree.size() > 10 * distinct
    _, old = parse_proof(expanded)
    assert old == parse_proof(dag)[1]
    assert check_proof(library, U, old).status == "valid"
    cert = tmp_path / "expanded.proof"
    cert.write_text(expanded)
    assert run("prove", str(LIBRARY), "--check", str(cert)) == 0
    assert capsys.readouterr().out == "valid\n"


def test_tampered_certificate_rejected(tmp_path):
    cert = tmp_path / "genre.proof"
    run("prove", str(LIBRARY), "--statement", GENRE_STMT,
        "--depth", "5", "-o", str(cert))
    tampered = cert.read_text().replace("# 0.7", "# 0.95")
    bad = tmp_path / "tampered.proof"
    bad.write_text(tampered)
    assert run("prove", str(LIBRARY), "--check", str(bad)) == 1


def test_dangling_certificate_reference(tmp_path, capsys):
    cert = tmp_path / "dangling.proof"
    cert.write_text("qcflp-proof v2\ndomain u\nnodes 1\nroot 0\nt0\tX\nt1\tc\tt0\n"
                    "0\tcons\t-\t-\t5\tt1 -> t1 # 0.5\n")
    assert run("prove", str(LIBRARY), "--check", str(cert)) == 1
    assert capsys.readouterr().err == \
        f"{cert}: malformed certificate: 7:1: premise 5 names no earlier node\n"


def test_malformed_certificate_line(tmp_path, capsys):
    cert = tmp_path / "bad-id.proof"
    cert.write_text("qcflp-proof v2\ndomain u\nnodes 1\nroot 0\nt0\tX\n"
                    "a1\trefl\t-\t-\t-\tt0 -> t0 # 0.5\n")
    assert run("prove", str(LIBRARY), "--check", str(cert)) == 1
    assert capsys.readouterr().err == \
        f"{cert}: malformed certificate: 6:1: node id 'a1' is not an integer\n"


def test_prove_rounding_repro_not_found(tmp_path, capsys):
    # X = 0.18986, Y = 0.863 satisfies the hypotheses, so they are not
    # vacuous and f(Y) -> true has no derivation
    src = tmp_path / "f.qcflp"
    src.write_text("f(X) --> false\n")
    stmt = "(f(Y) -> true) # 1 <== X >= 0.18986, X <= 0.22*Y, Y <= 0.863"
    assert run("prove", str(src), "--statement", stmt) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "not_found\n"
    # a one-node certificate calling the statement vacuous is rejected
    cert = tmp_path / "triv.proof"
    cert.write_text(triv_certificate(stmt))
    assert run("prove", str(src), "--check", str(cert)) == 1


def test_solve_keeps_a_closed_zero_product(tmp_path, capsys):
    # Y * 0 >= 0 holds for every Y in (0, 1)
    src = tmp_path / "f.qcflp"
    src.write_text("f(X) --> true <== X > 0, X < 1, X * 0 >= 0\n")
    assert run("solve", str(src), "--goal", "(f(Y) == true) # W") == 3
    assert capsys.readouterr().out == \
        "{ } { W in (0, 1] } << Y > 0, Y < 1, Y*0 >= 0 >> [conditional]\n"


def test_prove_refuses_hypotheses_met_through_a_zero_product(tmp_path, capsys):
    # X = 0, Y = 0, Z = 2 satisfies the hypotheses, so they are not vacuous
    src = tmp_path / "t.qcflp"
    src.write_text("data t = a | b\nf --> a\n")
    stmt = "(f -> b) # 1 <== Z - X - 2 < Z, Y <= (X + Z)*0"
    assert run("prove", str(src), "--statement", stmt) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "not_found\n"
    cert = tmp_path / "triv.proof"
    cert.write_text(triv_certificate(stmt))
    assert run("prove", str(src), "--check", str(cert)) == 1
    assert capsys.readouterr().out == "invalid: root: statement is not trivial\n"


def test_oracle_roundtrip(tmp_path, capsys):
    src = tmp_path / "chain.qcflp"
    src.write_text("f -0.9-> true\ng -0.8-> f\n")
    assert run("oracle", str(src), "--k", "4", "--depth", "6") == 0
    assert "0 mismatches" in capsys.readouterr().out
    # dropping the first declared qualification bound is caught
    assert run("oracle", str(src), "--k", "4", "--depth", "6",
               "--mutate", "0") == 1
    # dropping a chained factor is caught too
    assert run("oracle", str(src), "--k", "4", "--depth", "6",
               "--mutate", "4") == 1
    capsys.readouterr()
    for site in ("5", "-1"):
        assert run("oracle", str(src), "--k", "4", "--mutate", site) == 2
        assert "mutation site out of range (0..4)" in capsys.readouterr().err


def test_oracle_call_in_universe(tmp_path, capsys):
    # a call in the universe is an argument, never a target: a call
    # rewrites only to constructor terms, so `id(c1) == succ(c0)` is no
    # goal, while `id(succ(c0)) == c1` is
    src = tmp_path / "id.qcflp"
    src.write_text("succ(c0) --> c1\nid(X) --> X\n")
    assert run("oracle", str(src), "--universe", "succ(c0)", "--k", "3") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "4 goals, 0 mismatches"
    assert "MISMATCH" not in out and "== succ(c0)" not in out
    assert "ok       id(succ(c0)) == c1  fixpoint=[(1.0,)] solver=[(1.0,)]" in out


def test_oracle_universe_term_with_two_arguments(tmp_path, capsys):
    # --universe is one comma-separated term list: the comma inside
    # pair(a,b) separates arguments, not terms
    src = tmp_path / "pair.qcflp"
    src.write_text("data d = a | b | pair(d, d)\nf(X) --> X\n")
    assert run("oracle", str(src), "--universe", "pair(a,b)") == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "ok       f(pair(a, b)) == pair(a, b)  fixpoint=[(1.0,)] solver=[(1.0,)]",
        "1 goals, 0 mismatches"]


@pytest.mark.parametrize("text", ['"a;b"', "';'", '"a\rb"', '"a\u2028b"'],
                         ids=["semicolon", "semicolon-char", "cr", "line-separator"])
def test_prove_certificate_with_separators_in_strings(tmp_path, capsys, text):
    # a certificate that prove writes checks valid, whatever characters
    # its strings and substitutions hold
    src = tmp_path / "f.qcflp"
    src.write_text("f(X) --> X\n")
    cert = tmp_path / "c.proof"
    assert run("prove", str(src), "--statement", f"(f({text}) -> {text}) # 1",
               "-o", str(cert)) == 0
    assert capsys.readouterr().out == "derivable\n"
    assert run("prove", str(src), "--check", str(cert)) == 0
    assert capsys.readouterr().out == "valid\n"


def test_oracle_data_bound_is_no_mismatch(tmp_path, capsys):
    # Y <= 0.5 bounds a data variable: the solver's answer for
    # h(z) == 0.5 is clean and agrees with the fixpoint
    src = tmp_path / "bounded.qcflp"
    src.write_text("data nat = z | s(nat)\nh(z) --> Y <== Y <= 0.5\n")
    assert run("oracle", str(src)) == 0
    assert capsys.readouterr().out == (
        "ok       h(z) == 0.5  fixpoint=[(1.0,)] solver=[(1.0,)]\n"
        "1 goals, 0 mismatches\n")


def test_oracle_conditional_answer_with_a_witness(tmp_path, capsys):
    # X is local to the rule; X = 0.5 satisfies the answer's residual
    # X <= 0.5, so the conditional answer agrees with the fixpoint
    src = tmp_path / "local.qcflp"
    src.write_text("f --> true <== X <= 0.5\n")
    assert run("oracle", str(src)) == 0
    assert capsys.readouterr().out == (
        "ok       f == true  fixpoint=[(1.0,)] solver=[(1.0,)]\n"
        "1 goals, 0 mismatches\n")


def test_oracle_transform_error(tmp_path, capsys):
    # a program the translation rejects ends in one line, as with solve
    src = tmp_path / "primed.qcflp"
    src.write_text("f' --> true\n")
    for extra in ((), ("--mutate", "0")):
        assert run("oracle", str(src), *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{src}: defined symbol")
        assert err.count("\n") == 1


def test_oracle_has_no_rule_count_limit(tmp_path, capsys):
    # 30 rule instances and 30 goals: well within the step budget
    src = tmp_path / "big.qcflp"
    src.write_text("\n".join(f"f{i} --> true" for i in range(30)))
    assert run("oracle", str(src)) == 0
    out = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("ok ") for line in out) == 30
    assert out[-1] == "30 goals, 0 mismatches"


def test_oracle_budget_runs_out_on_the_library(capsys):
    # the fixpoint over the library's 24 universe terms spends the
    # whole budget, so no goal is asked
    started = time.perf_counter()
    assert run("oracle", str(LIBRARY)) == 4
    assert time.perf_counter() - started < 2
    out = capsys.readouterr().out.splitlines()
    assert out == [f"0 goals, 0 mismatches, partial: the budget of {BUDGET} "
                   "steps ran out"]


def test_unknown_domain():
    assert run("check", str(LIBRARY), "--qdom", "zzz") == 2


def test_solve_product_domain(tmp_path, capsys):
    src = tmp_path / "pairs.qcflp"
    src.write_text("m -(0.9,0.8)-> true\nn -(0.7,1)-> m\n")
    assert run("solve", str(src), "--qdom", "uxu",
               "--goal", "n == true # W | W >= (0.5,0.5)") == 0
    out = capsys.readouterr().out
    assert "W.1 in [0.5, 0.63]" in out and "W.2 in [0.5, 0.8]" in out


# reach(a) finds b, a and c again on each lap of the a-b cycle, 0.9 times
# lower, until --depth cuts the search after its last answer.
REACH = """data node = a | b | c
edge(a) --> b
edge(b) --> a
edge(b) --> c
reach(X) --> Y <== edge(X) == Y
reach(X) -0.9-> Y <== edge(X) == Z, reach(Z) == Y
"""
# The bounds of tests/test_runtime.py's test_propagation_guard_flags_run
# chase each other past the step guard; f == true then fails, so there
# is no answer to flag.
GUARD_GOAL = ("(A > 0) # W3, (A <= 1) # W4, (A <= 0.99*B) # W1, (B <= A) # W2, "
              "(f == true) # W5")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
@pytest.mark.parametrize("source, goal, depth, answers, code, cause", [
    (REACH, "(reach(a) == Y) # W", 12, 16, 0, "--depth 12"),
    ("loop --> loop\n", "(loop == true) # W", 5, 0, 3, "--depth 5"),
    ("f --> false\n", GUARD_GOAL, 64, 0, 3, "the propagation guard"),
], ids=["reach-clean-answers", "loop-no-answer", "guard-no-answer"])
def test_cut_after_the_last_answer_is_reported(tmp_path, capsys, json_flag,
                                               source, goal, depth, answers,
                                               code, cause):
    # no answer is flagged incomplete, so the cut is reported on its own,
    # with the one limit that cut it
    src = tmp_path / "cut.qcflp"
    src.write_text(source)
    assert run("solve", str(src), "--goal", goal, "--depth", str(depth),
               *json_flag) == code
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == answers
    assert "incomplete" not in out
    assert err == f"solve: search cut by {cause}; answers may be missing\n"


def test_cut_flagged_on_an_answer_is_not_repeated(capsys):
    goal = '(search("German","Essay",intermediate) == R) # W'
    assert run("solve", str(LIBRARY), "--goal", goal, "--depth", "5") == 3
    out, err = capsys.readouterr()
    assert out == "{ R -> 4 } { W in (0, 0.7] } [incomplete]\n"
    assert err == ""


@pytest.mark.parametrize("module", ["qcflp", "qcflp.cli"])
def test_python_dash_m_runs_cli(module):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", module, "solve", str(LIBRARY), "--goal", GOAL],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "{ R -> 4 } { W in [0.65, 0.7] }\n"


# 10,000 answers, more than a pipe buffer holds
DIGITS = "\n".join(f"d --> {i}" for i in range(10)) + "\nn --> q(d, d, d, d)\n"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_solve_stops_quietly_when_stdout_closes(tmp_path, unbuffered):
    src = tmp_path / "digits.qcflp"
    src.write_text(DIGITS)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src")
               + (os.pathsep + path if path else ""),
               PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcflp", "solve", str(src), "--goal", "n == X # W"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{ X -> q(0, 0, 0, 0) } { W in (0, 1] }\n"
    proc.stdout.close()
    # the answers written were clean, and nothing is reported
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


NAT = "data nat = z | s(nat)\nf(X) --> X\n"


def nested_s(n):
    return "s(" * n + "z" + ")" * n


def solve_fresh(tmp_path, program, goal):
    """solve in a fresh interpreter, so the recursion limit starts at the
    default one."""
    path = LIBRARY
    if program is not None:
        path = tmp_path / "nat.qcflp"
        path.write_text(program)
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    return subprocess.run(
        [sys.executable, "-m", "qcflp", "solve", str(path), "--goal", goal],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("program, goal, answer", [
    (None, "(member(7,[" + ",".join(str(i) for i in range(1500))
     + "]) == true) # W | W >= 0.5", "{ } { W in [0.5, 1] }"),
    (NAT, f"(f({nested_s(200)}) == R) # W",
     f"{{ R -> {nested_s(200)} }} {{ W in (0, 1] }}"),
    (None, "(member(7,[" + ",".join(str(i) for i in range(20000))
     + "]) == true) # W | W >= 0.5", "{ } { W in [0.5, 1] }"),
    ("data t = a\nbig --> [" + ", ".join(["a"] * 60000) + "]\nhd(X:_T) --> X\n",
     "(hd(big) == X) # W", "{ X -> a } { W in (0, 1] }"),
], ids=["list-1500", "nested-200", "list-20000", "rule-list-60000"])
def test_deep_input_solves(tmp_path, program, goal, answer):
    # the parser and the translation run under the solver's raised limit;
    # 20,000 cells overflow the C stack of a main thread; a rule's ground
    # list is shared whole by its rename template, not walked
    proc = solve_fresh(tmp_path, program, goal)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, answer + "\n", "")


def test_deep_term_exit_5(tmp_path):
    proc = solve_fresh(tmp_path, NAT, f"(f({nested_s(20000)}) == R) # W")
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert proc.stderr.startswith("solve: term nested too deeply")
    assert proc.stderr.count("\n") == 1


BAD_GOAL = "(f == true # W"


@pytest.mark.parametrize("argv, code, label", [
    (["oracle", "{p}", "--universe", "a(,"], 1, "<universe>:1:"),
    (["prove", "{p}", "--check", "{cert}"], 1, "{cert}: malformed certificate: "),
    (["prove", "{p}", "--statement", "(f -> true) # 0.5",
      "-o", "/nonexistent/dir/x.proof"], 2, "cannot write /nonexistent/dir/x.proof: "),
    (["transform", "{p}", "-o", "{out}", "--emit-map"], 2, "cannot write {out}.map: "),
    (["solve", "{p}", "--goal", BAD_GOAL], 1, "<goal>:1:"),
    (["transform", "{p}", "--goal", BAD_GOAL], 1, "<goal>:1:"),
], ids=["bad-universe", "unknown-cert-domain", "unwritable-prove-output",
        "unwritable-map", "bad-solve-goal", "bad-transform-goal"])
def test_input_and_output_errors_end_in_one_line(tmp_path, argv, code, label):
    # a bad input or an unwritable output ends in its documented exit
    # code and one labelled stderr line, with nothing on stdout
    paths = {"p": tmp_path / "p.qcflp", "cert": tmp_path / "c.proof",
             "out": tmp_path / "x.cflp"}
    paths["p"].write_text("f -0.9-> true\n")
    paths["cert"].write_text("qcflp-proof v2\ndomain zzz\nnodes 1\nroot 0\nt0\tX\n"
                             "0\trefl\t-\t-\t-\tt0 -> t0 # 0.5\n")
    (tmp_path / "x.cflp.map").mkdir()
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "qcflp", *(a.format(**paths) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(label.format(**paths))


DATA_T = "data t = a | b\nk(X) --> X\n"


@pytest.mark.parametrize("goal, out, code", [
    # a disequation between a term and itself has no solution
    ("(X /= X) # W", "", 1),
    ("(c(X) /= c(X)) # W", "", 1),
    ("(k(X) /= X) # W", "", 1),
    ("((X == X) == R) # W", "{ R -> true } { W in (0, 1] }\n", 0),
    # reified strict equality
    ("((c(a) == c(b)) == R) # W", "{ R -> false } { W in (0, 1] }\n", 0),
    ("((c(a) == c(a)) == R) # W", "{ R -> true } { W in (0, 1] }\n", 0),
    ("((X == a) == R) # W", "{ R -> true, X -> a } { W in (0, 1] }\n"
     "{ R -> false } { W in (0, 1] } << X /= a >> [conditional]\n", 0),
    # a ground primitive binds its result variable; an open one is parked
    ("(1 + 2 == R) # W", "{ R -> 3 } { W in (0, 1] }\n", 0),
    ("(X + 2 == R) # W", "{ } { W in (0, 1] } << X + 2 == R >> [conditional]\n", 3),
], ids=["self-diseq", "cons-self-diseq", "call-self-diseq", "reified-self",
        "reified-clash", "reified-same", "reified-open", "ground-primitive",
        "open-primitive"])
def test_strict_equality_goals(tmp_path, capsys, goal, out, code):
    src = tmp_path / "t.qcflp"
    src.write_text(DATA_T)
    assert run("solve", str(src), "--goal", goal) == code
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("goal", ["(f(X) == false) # W", "(f(X) == true) # W"])
def test_open_primitive_equality_is_undecided(tmp_path, capsys, goal):
    # f(2) is true and f(0) false: (X + 1) == 3 is no clash of data
    src = tmp_path / "f.qcflp"
    src.write_text("f(X) --> (X + 1) == 3\n")
    assert run("solve", str(src), "--goal", goal) == 3
    assert capsys.readouterr() == (
        "", "solve: search cut by an undecided primitive; answers may be missing\n")


@pytest.mark.parametrize("stmt, refusal, verdict", [
    # c(1 + 2) evaluates to c(3), so the hypothesis holds and is no clash
    ("(f -> b) # 1 <== c(1 + 2) == c(3)", "not_found",
     "invalid: root: statement is not trivial"),
    # hypotheses are primitive constraints: f is a call, not data
    ("(f -> b) # 1 <== f == a",
     "<statement>: hypotheses call the defined function 'f'",
     "invalid: root: hypotheses call the defined function 'f'"),
], ids=["primitive-in-data", "defined-call"])
def test_false_statement_with_true_hypotheses(tmp_path, capsys, stmt, refusal,
                                              verdict):
    src = tmp_path / "f.qcflp"
    src.write_text("f --> a\n")
    cert = tmp_path / "f.proof"
    assert run("prove", str(src), "--statement", stmt, "-o", str(cert)) == 1
    assert capsys.readouterr() == ("", refusal + "\n")
    assert not cert.exists()
    cert.write_text(triv_certificate(stmt))
    assert run("prove", str(src), "--check", str(cert)) == 1
    assert capsys.readouterr().out == verdict + "\n"


def test_arithmetic_atoms_print_as_they_parse(tmp_path, capsys):
    src = tmp_path / "f.qcflp"
    src.write_text("f(X) --> true <== X + 1 == 3\n")
    cert = tmp_path / "f.proof"
    assert run("prove", str(src), "--statement", "(f(2) -> true) # 1",
               "-o", str(cert)) == 0
    text = cert.read_text()
    assert "\nt0\t2\nt1\ttrue\nt2\t1\nt3\t3\n" in text
    assert "\n3\tatom\t-\t-\t0,2\t+ t0 t2 t3 # 1\n" in text
    assert run("prove", str(src), "--check", str(cert)) == 0
    out = tmp_path / "f.cflp"
    assert run("transform", str(src), "-o", str(out)) == 0
    assert out.read_text() == "f'(X, _W0) --> true <== X + 1 == 3\n"
    assert run("check", str(out)) == 0
    assert capsys.readouterr().out == "derivable\nvalid\nok\n"


@pytest.mark.parametrize("goal, diagnostic", [
    ("f(W) == true # W",
     "<goal>:1:16: qualification variable W occurs inside its constraint"),
    ("f(a) == true # W | W >= 0", "<goal>:1:20: threshold for W must be above bottom"),
], ids=["wvar-inside", "threshold-at-bottom"])
def test_goal_diagnostics_report_their_position(tmp_path, capsys, goal, diagnostic):
    src = tmp_path / "f.qcflp"
    src.write_text("f(X) --> true\n")
    assert run("solve", str(src), "--goal", goal) == 1
    assert capsys.readouterr().err == diagnostic + "\n"


WRONG_BOOK = 'getId(book(1, "a", "b", "c", "d", easy, 65), 7)'


@pytest.mark.parametrize("argv, diagnostic", [
    # the head match would zip the call's two arguments with one pattern
    (["solve", "--goal", f"({WRONG_BOOK} == R) # W"],
     "<goal>:1:2: 'getId' used with 2 argument(s), expected 1"),
    (["prove", "--statement", f"({WRONG_BOOK} -> 1) # 0.5"],
     "<statement>:1:2: 'getId' used with 2 argument(s), expected 1"),
    (["solve", "--goal", '(search("German","Essay",easy(1)) == R) # W | W >= 0.5'],
     "<goal>:1:26: 'easy' used with 1 argument(s), expected 0"),
    (["oracle", "--universe", "medium, easy(1)"],
     "<universe>:1:9: 'easy' used with 1 argument(s), expected 0"),
], ids=["goal-call", "statement-call", "goal-constructor", "universe-constructor"])
def test_wrong_arity_is_a_diagnostic(capsys, argv, diagnostic):
    assert run(argv[0], str(LIBRARY), *argv[1:]) == 1
    assert capsys.readouterr() == ("", diagnostic + "\n")
