"""Layer ledger: end-to-end and per-layer measurements of the
revalidator, from one seeded command.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py --workload skim-heavy --seed 1 \\
        --seconds 20 --trace 0
    python3 benchmarks/ledger/run.py --seed 1            # all workloads
    python3 benchmarks/ledger/run.py --seed 1 --repeat 5 --out A.json

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing; ``--trace 1`` is a separate run that records spans around every
layer, writes them to ``benchmarks/ledger/out/`` and reports the
per-layer metrics.  Each run prints one ``workload metric value unit
n=<samples>`` line per metric under a header stamped with the seed,
``cpu_count`` and ``kernel_backend``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Every verdict (and
the Dewey position of every rejection) is checked against the ground
truth the inputs were built with; any mismatch exits with status 1.

The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
#: A single-workload run must finish well inside three minutes.
RUN_ALARM_S = 170


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program at {SRC}/repro; run from a checkout of "
              "the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _stamp(args) -> dict:
    from repro.kernel import backend_name

    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "kernel_backend": backend_name(),
        "python": platform.python_version(),
    }


def _line(workload: str, name: str, value: float, unit: str, n: int) -> str:
    return f"{workload} {name} {value!r} {unit} n={n}"


def _append_results(path: str, record: dict) -> None:
    data = {"runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    data["runs"].append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)


def _on_alarm(signum, frame):  # noqa: ARG001
    raise TimeoutError(f"run exceeded {RUN_ALARM_S}s")


def run_one(args) -> int:
    import workloads as W
    from spans import Recorder

    spec = _benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    stamp = _stamp(args)
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_ALARM_S)
    ctx = W.Context(run_py=str(Path(__file__).resolve()), work=work,
                    env=_env(), connections=min(2, os.cpu_count() or 1))
    tally = W.Tally()
    try:
        workload = W.WORKLOADS[args.workload](args.seed, ctx)
        if args.trace:
            recorder = Recorder(args.workload)
            outcome = W.trace_run(workload, args.seconds, tally, recorder)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            recorder.dump(str(trace_path), **stamp)
        else:
            outcome = W.measure(workload, args.seconds, tally)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    header = " ".join(f"{k}={v}" for k, v in stamp.items())
    print(f"# ledger workload={args.workload} {header}")
    if args.trace:
        print(f"# trace: {trace_path.relative_to(ROOT)}")
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in outcome.metrics:
            print(f"error: {args.workload} did not measure {name}",
                  file=sys.stderr)
            return 2
        value, n = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(_line(args.workload, name, value, entry["unit"], n))
    if outcome.extras:
        print("# not gated:")
        for name, (value, unit, n) in outcome.extras.items():
            print(_line(args.workload, name, value, unit, n))
    for problem in tally.wrong[:20]:
        print(f"mismatch: {problem}", file=sys.stderr)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.out:
        _append_results(args.out, {
            "workload": args.workload, **stamp,
            "correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {**metrics[name], "n": outcome.metrics[name][1]}
                        for name in metrics},
            "extras": {name: {"value": v, "unit": u, "n": n}
                       for name, (v, u, n) in outcome.extras.items()},
        })
    print(json.dumps(result))
    return 0 if tally.correct else 1


def run_all(args) -> int:
    """Every workload, each in its own interpreter, ``--repeat`` times."""
    import workloads as W

    status = 0
    correct, attempted, failed = True, 0, 0
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for _ in range(args.repeat):
        for name in W.WORKLOADS:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if args.out:
                command += ["--out", args.out]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status = status or child.returncode
            if child.returncode not in (0, 1) or not lines:
                correct = False
                continue
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(f"{name}/{metric}", []).append(entry["value"])
                units[f"{name}/{metric}"] = entry["unit"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": median(v), "unit": units[key]}
                    for key, v in values.items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="skim-heavy, skip-free, edit-revalidate, "
                             "serve-mix, or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append run records to this JSON file")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of every workload (with --workload all)")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_program()
    if args.setup_probe:
        import workloads as W

        print(repr(W.setup_seconds(args.setup_probe)))
        return 0
    if args.out:
        args.out = os.path.abspath(args.out)
    if args.workload == "all":
        return run_all(args)
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
