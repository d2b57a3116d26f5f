"""Compiled schema-pair artifacts: the numbers behind the optimisation.

Two measurements, printed as a small table and checked against
thresholds so CI can run this as a smoke test:

1. **micro** — immediate-decision content scans, dict rows
   (``transitions[q][label]``) versus compiled dense rows
   (``flat[q * width + sid]``) on Experiment-2 content words;
2. **artifacts** — cold ``SchemaPair`` construction + ``warm()``
   versus loading the pickled artifact back, on the A4 random-schema
   family used by ``bench_precompute.py``.

Every DOM walk now runs on the compiled tables, counted or not, so
there is no dict-row walk left to time end to end.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_compiled_pair.py [--quick]

Both modes require the compiled scan to not be *slower* than the dict
scan (ratio > 1.0); artifact load must be >= 2x a cold build with
``--quick`` (smaller workloads, for CI) and >= 10x in the full run.
Exit status 1 if any check fails.

Results are also merged into ``BENCH_cast.json`` at the repo root
(``--json`` overrides), alongside the ``bench_memo_cast.py`` records.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
import time
from typing import Callable

from repro.automata.compiled import CompiledImmediate
from repro.automata.immediate import ImmediateDecisionAutomaton
from repro.bench.reporting import update_bench_json
from repro.schema import artifacts
from repro.schema.registry import SchemaPair
from repro.workloads.generators import random_schema
from repro.workloads.purchase_orders import (
    source_schema_experiment2,
    target_schema_experiment2,
)


def best_of(fn: Callable[[], object], reps: int, rounds: int = 3) -> float:
    """Best-of-``rounds`` wall-clock for ``reps`` calls (noise floor)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_micro(pair: SchemaPair, reps: int) -> tuple[float, float]:
    """Dict-row ``scan`` vs compiled ``decide`` on Items content: the
    Definition 6 automaton of the target's ``Items`` model and its
    dense-table compilation over the pair's symbols."""
    word = ["item"] * 200
    immed = ImmediateDecisionAutomaton.from_dfa(
        pair.target.content_dfa("Items")
    )
    compiled = CompiledImmediate.from_immediate(immed, pair.symbols)
    ids = pair.symbols.encode(word)
    assert immed.scan(word).accepted == compiled.decide(ids)
    dict_time = best_of(lambda: immed.scan(word), reps)
    compiled_time = best_of(lambda: compiled.decide(ids), reps)
    return dict_time, compiled_time


def bench_artifacts(
    sizes: list[int], seed: int = 5
) -> tuple[float, float]:
    """Cold build+warm vs artifact load over the A4 schema family."""
    rng = random.Random(seed)
    schema_pairs = []
    for size in sizes:
        while True:
            try:
                source = random_schema(
                    rng,
                    num_labels=size,
                    num_complex=size,
                    num_simple=max(2, size // 4),
                )
                target = random_schema(
                    rng,
                    num_labels=size,
                    num_complex=size,
                    num_simple=max(2, size // 4),
                )
            except Exception:
                continue
            schema_pairs.append((source, target))
            break
    cold_total = load_total = 0.0
    with tempfile.TemporaryDirectory() as cache_dir:
        for index, (source, target) in enumerate(schema_pairs):
            start = time.perf_counter()
            pair = SchemaPair(source, target)
            pair.warm()
            cold_total += time.perf_counter() - start
            path = os.path.join(cache_dir, f"pair{index}.pkl")
            artifacts.save(pair, path)
            load_total += best_of(lambda p=path: artifacts.load(p), 1)
    return cold_total, load_total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI smoke run; only requires compiled >= dict",
    )
    parser.add_argument(
        "--json",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..",
            "BENCH_cast.json",
        ),
        help="where to merge the machine-readable results",
    )
    args = parser.parse_args(argv)

    if args.quick:
        micro_reps = 200
        sizes = [6, 8]
        artifact_floor = 2.0
    else:
        micro_reps = 2000
        sizes = [6, 8, 10, 12]
        artifact_floor = 10.0

    pair = SchemaPair(
        source_schema_experiment2(), target_schema_experiment2()
    )
    pair.warm()

    dict_time, compiled_time = bench_micro(pair, micro_reps)
    cold_time, load_time = bench_artifacts(sizes)

    rows = [
        (
            "micro: Items content scan",
            f"dict {dict_time * 1e3:8.2f} ms",
            f"compiled {compiled_time * 1e3:8.2f} ms",
            dict_time / compiled_time,
        ),
        (
            f"artifacts: A4 sizes {sizes}",
            f"cold {cold_time * 1e3:8.2f} ms",
            f"load {load_time * 1e3:8.2f} ms",
            cold_time / load_time,
        ),
    ]
    for name, left, right, speedup in rows:
        print(f"{name:<34} {left}  {right}  {speedup:6.2f}x")

    update_bench_json(
        args.json,
        {
            "compiled_micro_scan": {
                "corpus": "exp2-items-word-x200",
                "reps": micro_reps,
                "dict_seconds": dict_time,
                "compiled_seconds": compiled_time,
                "speedup": dict_time / compiled_time,
            },
            "artifact_load": {
                "corpus": f"a4-random-schemas-{sizes}",
                "cold_seconds": cold_time,
                "load_seconds": load_time,
                "speedup": cold_time / load_time,
            },
        },
        source="bench_compiled_pair.py",
        quick=args.quick,
    )
    print(f"wrote {os.path.normpath(args.json)}")

    failures = []
    micro_speedup = dict_time / compiled_time
    artifact_speedup = cold_time / load_time
    if micro_speedup <= 1.0:
        failures.append(
            f"compiled scan slower than dict rows ({micro_speedup:.2f}x)"
        )
    if artifact_speedup < artifact_floor:
        failures.append(
            f"artifact load speedup {artifact_speedup:.2f}x "
            f"< {artifact_floor}x"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: compiled pair meets thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
