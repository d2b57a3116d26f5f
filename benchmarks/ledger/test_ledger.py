"""Checks of the ledger itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/ledger`` (outside the tier-1 ``testpaths``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import corpus as C
import loadgen
from quantiles import percentile
from spans import Recorder, covered_ns, overhead_frac, span_cost_ns
from workloads import apply_mods, build_pair, schema

from repro import CastValidator, CastWithModificationsValidator, UpdateSession, parse
from repro.core.cast import cast_text
from repro.core.validator import validate_document
from repro.schema.chain import SchemaChain
from repro.service.registry import PairSpec, ServiceRegistry
from repro.service.server import ServiceConfig, ValidationService

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _inputs(seed: int) -> str:
    """Every seeded input the ledger builds, as one string."""
    parts = [doc.text for _, doc in C.flawed_corpus(
        C.seeded(seed, "t"), "exp1", 30, 2, 100, "no-billto")]
    rng = C.seeded(seed, "edit")
    orders = [C.make_order(rng, n) for n in C.stratified_counts(rng, 5, 5, 30)]
    parts.append(json.dumps([vars(t) for t in C.edit_script(
        rng, orders, C.PAIRS["exp2"][1], 50)]))
    parts += [r.body().decode() for r in C.serve_pool(seed, size=40)]
    parts.append(json.dumps(C.poisson_schedule(C.seeded(seed, "s"), 25, 100, 40)))
    return "\n".join(parts)


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert _inputs(7) == _inputs(7)
    assert _inputs(7) != _inputs(8)


def test_stratified_sizes_are_seed_independent_in_shape():
    low = [sorted(C.stratified_counts(C.seeded(s, "n"), 50, 2, 1000))
           for s in (1, 2)]
    for a, b in zip(*low):
        assert abs(a - b) <= max(2, 0.15 * a)


@pytest.fixture(scope="module")
def pairs():
    return {key: build_pair(key) for key in C.PAIRS}


def test_ground_truth_agrees_with_casts(pairs):
    for key, flaw in (("exp1", "no-billto"), ("exp2", "bad-qty"),
                      ("zero-sub", "bad-qty")):
        pair = pairs[key]
        corpus = C.flawed_corpus(C.seeded(3, key), key, 30, 2, 60, flaw)
        assert any(not doc.valid for _, doc in corpus)
        for _, doc in corpus:
            for report in (
                cast_text(pair, doc.text),
                cast_text(pair, doc.text, stream_skip=False),
                CastValidator(pair).validate(parse(doc.text, symbols=pair.symbols)),
                validate_document(pair.target, parse(doc.text)),
            ):
                assert (report.valid, report.path) == (doc.valid, doc.path)


def test_ground_truth_agrees_with_chain_casts():
    chain = SchemaChain([schema(spec) for spec in C.CHAIN])
    requests = [r for r in C.serve_pool(3) if r.kind == "cast-chain"]
    assert {r.valid for r in requests} == {True, False}
    for request in requests:
        for report in (chain.sequential_cast_text(request.xml),
                       chain.cast_text(request.xml)):
            assert (report.valid, report.path) == (request.valid, request.path)


@pytest.mark.parametrize("key", sorted(C.PAIRS))
def test_ground_truth_agrees_with_castmods(pairs, key):
    pair = pairs[key]
    target = C.PAIRS[key][1]
    rng = C.seeded(4, key)
    # Only the exp1 source lets a document omit billTo.
    orders = [C.make_order(rng, n, with_billto=key != "exp1" or i != 0)
              for i, n in enumerate(C.stratified_counts(rng, 6, 5, 40))]
    script = C.edit_script(rng, orders, target, 150)
    assert {t.valid for t in script} == {True, False}
    sessions = [UpdateSession(parse(C.to_xml(o), symbols=pair.symbols))
                for o in orders]
    validator = CastWithModificationsValidator(pair, collect_stats=False)
    for txn in script:
        session = sessions[txn.doc]
        apply_mods(session, txn.mods)
        report = validator.validate(session)
        assert (report.valid, report.path) == (txn.valid, txn.path)
        full = validate_document(pair.target, session.result_document())
        assert full.valid == txn.valid


def test_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(1, 201)]
    assert percentile(values, 95) == 190.0
    assert percentile(values, 50) == 100.0
    with pytest.raises(ValueError):
        percentile(values[:199], 95)
    with pytest.raises(ValueError):
        percentile(values, 99)
    assert percentile([3.0], 50) == 3.0


def test_self_time_nested_and_overlapping():
    assert covered_ns(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
    assert covered_ns(0, 100, []) == 0
    rec = Recorder("w")
    root = rec.add("root", 0, 100)
    child = rec.add("child", 10, 60, parent=root)
    rec.add("grandchild", 20, 30, parent=child)
    rec.add("thread-a", 40, 80, parent=root)  # overlaps child and thread-b
    rec.add("thread-b", 70, 95, parent=root)
    by_id = rec.self_ns()
    self_ns = {span.name: by_id[span.id] for span in rec.spans}
    assert self_ns == {"root": 100 - 85, "child": 50 - 10,
                       "grandchild": 10, "thread-a": 40, "thread-b": 25}
    with rec.span("outer") as outer:
        with rec.span("inner"):
            pass
    (inner,) = rec.under(outer)
    assert inner.name == "inner" and inner.workload == "w"


def test_overhead_is_spans_times_their_measured_cost():
    assert 0 < span_cost_ns(count=1000, repeats=3) < 1e6
    assert overhead_frac(2.0, 1000, 4000.0) == pytest.approx(0.002)


def test_loadgen_step_against_in_process_service():
    target = C.PAIRS["exp2"]
    registry = ServiceRegistry([PairSpec("exp2", schema(target[0]),
                                         schema(target[1]))])
    # A small keep-alive cap makes the server close connections often,
    # so the step also covers reconnecting.
    service = ValidationService(registry,
                                ServiceConfig(max_requests_per_connection=7))
    host, port = service.start()
    try:
        assert service.wait_ready(timeout=30)
        pool = [r for r in C.serve_pool(5) if r.pair == "exp2"]
        encoded = [loadgen.encode(f"/{r.kind}", r.body()) for r in pool]
        schedule = C.poisson_schedule(C.seeded(5, "t"), 25, 50, len(pool))
        run = loadgen.open_loop(host, port, encoded, schedule, connections=2)
    finally:
        service.close()
    assert run.unsent == 0 and len(run.samples) == 50
    for sample in run.samples:
        assert not sample.error and sample.status == 200
        payload = json.loads(sample.body)
        request = pool[sample.request]
        assert payload["valid"] == request.valid
        if not request.valid:
            assert payload["diagnostics"][0].get("path", "") == request.path
    assert all(s.lag < 0.5 for s in run.samples)


def test_compare_verdicts_and_claim():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.verdict(base, [v * 1.02 for v in base], "lower", 0.1) == "no worse"
    assert compare.verdict(base, [v * 1.3 for v in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, [v * 0.7 for v in base], "lower", 0.1) == "better"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    assert compare.claim(base, [v * 0.9 for v in base], "lower")[0]
    assert not compare.claim(base, base, "lower")[0]


def test_benchmark_json_shape():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "skim-heavy", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert "correct" not in child.stdout
