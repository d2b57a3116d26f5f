"""Resident worker fleet: scaling curve, warm reuse, zero-copy, resume.

Benchmarks the :class:`~repro.core.fleet.WorkerFleet` scheduler behind
``validate_batch`` on an Experiment-2 purchase-order corpus:

1. **scaling curve** — batch throughput at ``jobs`` ∈ {1, 2, 4, 8}
   over one resident fleet per point (documents/second, speedup over
   the ``jobs=1`` serial baseline).  Parallel speedup is bounded by the
   machine, so the scaling gate is enforced only when ``os.cpu_count()``
   provides the cores to scale onto — but the whole curve is always
   recorded, stamped with ``cpu_count``, so numbers from a 1-core CI
   runner can never masquerade as a 8-core result.
2. **warm vs cold pool** — a short batch validated over one resident
   fleet (pool and transported pair paid for once) versus spinning up
   a fresh pool for every call.  This is the amortization the fleet
   exists for and it holds on any hardware, so it is always gated.
3. **zero-copy transport** — a ``spawn`` fleet (which cannot inherit
   the pair by fork, so its workers load a pair artifact) runs several
   batches; the pair must have been pickled at most once for the whole
   fleet
   (:attr:`~repro.core.fleet.PairTransport.pickle_count`), regardless
   of worker count or batch count.
4. **resume identity** — a checkpointed run interrupted halfway and
   resumed must produce verdicts and merged stats identical to an
   uninterrupted run.

Every record lands in ``BENCH_cast.json`` at the repo root via
:func:`repro.bench.reporting.update_bench_json` (which stamps
``cpu_count``); scaling records also carry their ``jobs`` metadata.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]

``--quick`` shrinks the corpus for CI, limits the curve to
``jobs`` ∈ {1, 2}, and gates only warm reuse (>= 1.0x), zero-copy, and
resume identity; the full run additionally requires >= 2.5x at
``jobs=4`` when the machine has >= 4 CPUs.  Exit status 1 if any
enforced check fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from repro.bench.reporting import update_bench_json
from repro.core.batch import validate_batch
from repro.core.fleet import FleetConfig, WorkerFleet
from repro.schema.registry import SchemaPair
from repro.workloads.purchase_orders import (
    make_purchase_order,
    source_schema_experiment2,
    target_schema_experiment2,
)
from repro.xmltree.serializer import write_file

DEFAULT_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_cast.json"
)


def build_corpus(directory: str, docs: int, items: int) -> list[str]:
    """Write ``docs`` purchase orders and return their sorted paths."""
    paths = []
    for index in range(docs):
        path = os.path.join(directory, f"po_{index:05d}.xml")
        write_file(make_purchase_order(items), path)
        paths.append(path)
    return paths


def make_pair() -> SchemaPair:
    pair = SchemaPair(
        source_schema_experiment2(), target_schema_experiment2()
    )
    pair.warm()
    return pair


def timed_batch(pair, paths, *, jobs, fleet=None, rounds=3) -> float:
    """Best-of-``rounds`` wall-clock seconds for one full batch."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = validate_batch(pair, paths, jobs=jobs, fleet=fleet)
        best = min(best, time.perf_counter() - start)
        assert result.all_valid, "bench corpus must validate cleanly"
    return best


def bench_scaling(
    pair, paths, jobs_curve, rounds
) -> dict[int, float]:
    """``jobs -> best seconds`` over one resident fleet per point.

    Each fleet gets an untimed warm-up batch first, so the curve
    measures steady-state throughput, not pool spin-up (that cost is
    measured — not hidden — by the warm-vs-cold record).
    """
    curve: dict[int, float] = {}
    for jobs in jobs_curve:
        if jobs == 1:
            timed_batch(pair, paths, jobs=1, rounds=1)  # warm-up
            curve[1] = timed_batch(pair, paths, jobs=1, rounds=rounds)
            continue
        with WorkerFleet(pair, jobs, warm=False) as fleet:
            timed_batch(pair, paths, jobs=jobs, fleet=fleet, rounds=1)
            curve[jobs] = timed_batch(
                pair, paths, jobs=jobs, fleet=fleet, rounds=rounds
            )
    return curve


def bench_warm_vs_cold(pair, paths, jobs, rounds) -> tuple[float, float]:
    """``(cold_seconds, warm_seconds)`` for one short batch.

    Cold pays pool spin-up and pair transport on every call (what
    ``validate_batch`` without a fleet does); warm pays them once and
    reuses the resident pool.
    """
    def cold() -> float:
        start = time.perf_counter()
        result = validate_batch(pair, paths, jobs=jobs)
        assert result.all_valid
        return time.perf_counter() - start

    cold_best = min(cold() for _ in range(rounds))
    with WorkerFleet(pair, jobs, warm=False) as fleet:
        timed_batch(pair, paths, jobs=jobs, fleet=fleet, rounds=1)
        warm_best = timed_batch(
            pair, paths, jobs=jobs, fleet=fleet, rounds=rounds
        )
    return cold_best, warm_best


def bench_zero_copy(pair, paths, jobs) -> dict[str, object]:
    """Run several batches over a ``spawn`` fleet and report transport
    accounting.  Spawn has no fork copy-on-write shortcut, so it
    exercises the artifact route on every platform."""
    with WorkerFleet(pair, jobs, start_method="spawn",
                     warm=False) as fleet:
        for _ in range(2):
            result = validate_batch(pair, paths, jobs=jobs, fleet=fleet)
            assert result.all_valid
        return {
            "start_method": "spawn",
            "transport_kind": fleet.transport.kind,
            "pickle_count": fleet.transport.pickle_count,
            "blob_bytes": fleet.transport.blob_bytes,
            "batches_run": fleet.batches_run,
        }


def bench_resume(pair, paths, checkpoint_dir) -> dict[str, object]:
    """Interrupt a checkpointed run halfway, resume, and compare to an
    uninterrupted run."""
    journal = os.path.join(checkpoint_dir, "bench_fleet.ckpt.jsonl")
    half = paths[: len(paths) // 2]
    validate_batch(pair, half, collect_stats=True, checkpoint=journal)
    resumed = validate_batch(
        pair, paths, collect_stats=True, checkpoint=journal, resume=True
    )
    baseline = validate_batch(pair, paths, collect_stats=True)
    identical = (
        resumed.results == baseline.results
        and resumed.stats == baseline.stats
    )
    return {
        "documents": len(paths),
        "restored": resumed.resumed,
        "identical_to_uninterrupted": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI smoke run: jobs in {1, 2}, conservative gates",
    )
    parser.add_argument(
        "--json",
        default=DEFAULT_JSON,
        help="where to write the machine-readable results "
        "(default: BENCH_cast.json at the repo root)",
    )
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    if args.quick:
        docs, items, rounds = 60, 4, 2
        short_docs = 20
        jobs_curve = [1, 2]
        warm_floor = 1.0
        scaling_floor = None  # smoke: record, don't gate scaling
    else:
        docs, items, rounds = 400, 6, 3
        short_docs = 40
        jobs_curve = [1, 2, 4, 8]
        warm_floor = 1.2
        # The jobs=4 gate needs 4 cores to be physically meaningful.
        scaling_floor = (4, 2.5) if cpu_count >= 4 else None

    pair = make_pair()
    with tempfile.TemporaryDirectory(prefix="bench_fleet") as corpus_dir:
        paths = build_corpus(corpus_dir, docs, items)
        short = paths[:short_docs]

        curve = bench_scaling(pair, paths, jobs_curve, rounds)
        cold_time, warm_time = bench_warm_vs_cold(pair, short, 2, rounds)
        zero_copy = bench_zero_copy(pair, short, 2)
        resume = bench_resume(pair, short, corpus_dir)

    serial = curve[1]
    print(f"fleet scaling curve ({docs} docs, cpu_count={cpu_count}):")
    for jobs, seconds in sorted(curve.items()):
        print(
            f"  jobs={jobs}: {seconds * 1e3:8.1f} ms  "
            f"{docs / seconds:8.1f} docs/s  "
            f"{serial / seconds:5.2f}x vs serial"
        )
    warm_speedup = cold_time / warm_time
    print(
        f"warm vs cold pool ({short_docs} docs, jobs=2): "
        f"cold {cold_time * 1e3:.1f} ms, warm {warm_time * 1e3:.1f} ms, "
        f"{warm_speedup:.2f}x"
    )
    print(
        f"zero-copy transport: kind={zero_copy['transport_kind']}, "
        f"pickles={zero_copy['pickle_count']}, "
        f"blob={zero_copy['blob_bytes']} bytes over "
        f"{zero_copy['batches_run']} batches"
    )
    print(
        f"resume identity: {resume['restored']}/{resume['documents']} "
        f"restored, identical={resume['identical_to_uninterrupted']}"
    )

    update_bench_json(
        args.json,
        {
            "fleet_scaling": {
                "corpus": "exp2-po-batch",
                "corpus_docs": docs,
                "corpus_items": items,
                "rounds": rounds,
                "jobs": sorted(curve),
                "seconds": {str(j): curve[j] for j in sorted(curve)},
                "docs_per_second": {
                    str(j): docs / curve[j] for j in sorted(curve)
                },
                "speedup_vs_serial": {
                    str(j): serial / curve[j] for j in sorted(curve)
                },
            },
            "fleet_warm_reuse": {
                "corpus": "exp2-po-batch-short",
                "corpus_docs": short_docs,
                "jobs": 2,
                "rounds": rounds,
                "cold_seconds": cold_time,
                "warm_seconds": warm_time,
                "speedup": warm_speedup,
            },
            "fleet_zero_copy": {
                "corpus": "exp2-po-batch-short",
                "jobs": 2,
                **zero_copy,
            },
            "fleet_resume": {
                "corpus": "exp2-po-batch-short",
                "jobs": 1,
                **resume,
            },
        },
        source="bench_fleet.py",
        quick=args.quick,
    )
    print(f"wrote {os.path.normpath(args.json)}")

    failures = []
    if scaling_floor is not None:
        gate_jobs, floor = scaling_floor
        speedup = serial / curve[gate_jobs]
        if speedup < floor:
            failures.append(
                f"jobs={gate_jobs} speedup {speedup:.2f}x < {floor}x "
                f"(cpu_count={cpu_count})"
            )
    if warm_speedup < warm_floor:
        failures.append(
            f"warm-pool speedup {warm_speedup:.2f}x < {warm_floor}x"
        )
    if zero_copy["pickle_count"] > 1:
        failures.append(
            f"pair pickled {zero_copy['pickle_count']} times on a "
            "spawn fleet (zero-copy contract allows at most 1)"
        )
    if not resume["identical_to_uninterrupted"]:
        failures.append("resumed run differs from uninterrupted run")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: fleet meets thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
