"""Pre-fork on the ledger's ``serve-mix`` traffic: ``repro serve
--processes 1`` against ``--processes 2``, closed loop.

The bar, set before measuring: two processes must reach at least
:data:`BAR` times the closed-loop operations per second of one.  Each
side is a fresh ``repro serve`` at default settings (so connections
close and rehash every 100 requests) over the ledger's ``ServeMix``
request pool for :data:`SEED`, driven by the ledger's load generator
from two keep-alive connections for :data:`SECONDS` per run.
:data:`ROUNDS` rounds interleave the two sides, alternating which goes
first.  Every answer is checked against the pool's ground truth, as
the ledger checks it.

The record lands in ``BENCH_cast.json`` as ``service_prefork_mix``.
Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_prefork_mix.py [--json PATH]

Exit status 1 on a wrong or failed answer, or when the bar is missed
on a machine with at least two CPUs (one CPU cannot express it, so
there the result is recorded only).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "ledger"))

import corpus as C  # noqa: E402
import loadgen  # noqa: E402
import workloads as W  # noqa: E402
from quantiles import percentile  # noqa: E402

from repro.bench.reporting import update_bench_json  # noqa: E402

DEFAULT_JSON = os.path.join(HERE, "..", "BENCH_cast.json")
#: Closed-loop ops/s of ``--processes 2`` over ``--processes 1``.
BAR = 1.2
CONNECTIONS = 2
SEED = 1
ROUNDS = 6
#: Closed-loop seconds per run.
SECONDS = 10.0


def measure(workload, processes: int, order: list[int], tally) -> dict:
    """One closed-loop run against a fresh server of ``processes``."""
    ctx = workload.ctx
    server = W.Server(
        workload.server_args() + ["--processes", str(processes)],
        ctx.work, ctx.env,
    )
    server.start()
    try:
        warm = loadgen.closed_loop("127.0.0.1", server.port,
                                   workload.encoded, order,
                                   connections=CONNECTIONS, seconds=1.0)
        run = loadgen.closed_loop("127.0.0.1", server.port,
                                  workload.encoded, order,
                                  connections=CONNECTIONS, seconds=SECONDS)
    finally:
        server.stop()
    workload._check(warm.samples + run.samples, tally,
                    f"{processes} processes")
    latencies = [sample.latency for sample in run.samples]
    # The ledger's serve-mix metrics, over this run's closed loop.
    return {
        "ops_per_s": len(run.samples) / max(s.done for s in run.samples),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p95_ms": percentile(latencies, 95) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default=DEFAULT_JSON)
    args = parser.parse_args(argv)

    work = tempfile.mkdtemp(prefix="prefork-mix-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(HERE, "..", "src"),
                    env.get("PYTHONPATH", "")) if p
    )
    ctx = W.Context(run_py=__file__, work=work, env=env,
                    connections=CONNECTIONS)
    tally = W.Tally()
    runs: dict[int, list[dict]] = {1: [], 2: []}
    try:
        workload = W.ServeMix(SEED, ctx)
        W.write_schemas(workload, work)
        order = list(range(len(workload.pool)))
        C.seeded(SEED, "serve-schedule").shuffle(order)
        for round_ in range(ROUNDS):
            for processes in (1, 2) if round_ % 2 == 0 else (2, 1):
                point = measure(workload, processes, order, tally)
                runs[processes].append(point)
                print(f"round {round_ + 1}: {processes} processes "
                      f"{point['ops_per_s']:.1f} ops/s, "
                      f"p50 {point['p50_ms']:.2f} ms, "
                      f"p95 {point['p95_ms']:.2f} ms", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sides = {}
    for processes, points in runs.items():
        sides[processes] = {
            name: round(median(point[name] for point in points), 3)
            for name in ("ops_per_s", "p50_ms", "p95_ms")
        }
        sides[processes]["ops_per_s_runs"] = [
            round(point["ops_per_s"], 1) for point in points
        ]
    speedup = round(sides[2]["ops_per_s"] / sides[1]["ops_per_s"], 3)
    cpu_count = os.cpu_count() or 1
    met = speedup >= BAR
    update_bench_json(args.json, {"service_prefork_mix": {
        "workload": "serve-mix",
        "seed": SEED,
        "rounds": ROUNDS,
        "seconds": SECONDS,
        "connections": CONNECTIONS,
        "processes_1": sides[1],
        "processes_2": sides[2],
        "speedup": speedup,
        "bar": BAR,
        "bar_met": met,
        "gate_enforced": cpu_count >= 2,
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }}, source="bench_prefork_mix.py", quick=False)
    print(f"speedup {speedup}x at 2 processes (bar {BAR}x, "
          f"cpu_count={cpu_count}); {tally.attempted} answers checked, "
          f"{tally.failed} failed")
    print(f"wrote {os.path.normpath(args.json)}")
    failures = [f"wrong or failed answer: {problem}"
                for problem in tally.wrong[:20]]
    if cpu_count >= 2 and not met:
        failures.append(f"{speedup}x at 2 processes is below the {BAR}x bar")
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
