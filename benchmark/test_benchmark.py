"""Self-tests of the benchmark, without running qcflp.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import json
from pathlib import Path

import pytest

import reference as ref
import run
import tracing
import workloads as wl

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text())


def test_generators_are_deterministic_per_seed():
    text = run.LIBRARY.read_text()
    for name in wl.WORKLOADS:
        assert wl.build(name, 7, text) == wl.build(name, 7, text)
        assert wl.build(name, 7, text) != wl.build(name, 8, text)


def test_seeds_keep_the_shape_of_the_work():
    text = run.LIBRARY.read_text()
    for name in wl.WORKLOADS:
        a, b = wl.build(name, 1, text), wl.build(name, 2, text)
        assert [op.label for op in a.ops] == [op.label for op in b.ops]
        assert [len(p.text.splitlines()) for p in a.programs] == \
            [len(p.text.splitlines()) for p in b.programs]


def test_reference_reproduces_the_hand_written_library_answers():
    books = ref.LIBRARY_BOOKS
    assert ref.search_best(books, "German", "Essay", "intermediate") == \
        pytest.approx(ref.PAPER_BEST)
    for bid, genres in ref.LIBRARY_GENRES.items():
        assert ref.genre_answers(ref.genre_quals(books[bid - 1].genre)) == \
            pytest.approx(ref.genre_answers(genres))
    assert ref.threshold_box(ref.PAPER_BEST, 0.65) == \
        {(("R", "4"),): {"W": (0.65, False, 0.7)}}
    assert ref.threshold_box(ref.PAPER_BEST, 0.71) == {}


def test_catalogue_keeps_the_library_rules():
    text = run.LIBRARY.read_text()
    books = wl.make_catalogue(wl._rng("catalogue", 0), 8)
    out = wl.catalogue_text(text, books)
    assert out.count("book(") == text.count("book(") - 4 + 8
    assert out.split("member(B,[])")[1] == text.split("member(B,[])")[1]


def test_every_workload_has_every_op_kind():
    text = run.LIBRARY.read_text()
    for name in wl.WORKLOADS:
        kinds = {type(op) for op in wl.build(name, 0, text).ops}
        assert kinds == {wl.SolveOp, wl.ProveOp, wl.OracleOp}


def test_tamper_raises_the_root_qualification():
    cert = ("qcflp-proof v1\ndomain u\nnodes 2\nroot 1\n"
            "0\trefl\t-\t-\t-\t(x -> x) # 0.6\n"
            "1\tfun\t3\t-\t0\t(f(x) -> x) # 0.6\n")
    out = run.tamper(cert, "0.7").splitlines()
    assert out[4].endswith("# 0.6") and out[5].endswith("# 0.7")


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert run.E2E_METRICS == e2e
    assert tracing.LAYER_METRICS == layers
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)

    records = [[run.OpRecord("a", "solve", "ok", 0.2, first=0.1),
                run.OpRecord("b", "prove", "ok", 0.1),
                run.OpRecord("c", "oracle", "timeout", 15.0)]]
    printed = run.e2e_metrics([0.1, 0.2], records, 15.3)
    assert {k: v["unit"] for k, v in printed.items()} == e2e
    printed = tracing.layer_metrics(tracing.Tracer(), {"setup": 1, "a": 2}, 1.0, 0.0)
    assert {k: v["unit"] for k, v in printed.items()} == layers
