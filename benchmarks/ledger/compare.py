"""Compare two sets of ledger runs.

Usage (from the repository root)::

    python3 benchmarks/ledger/compare.py A.json B.json [--claim p50_ms@serve-mix]

``A.json`` and ``B.json`` are files written by ``run.py --out`` (A is
the base, B the change).  One row per workload and end-to-end metric
gives each side's median and quartiles and a verdict against the
metric's bound from BENCHMARK.json:

* ``better`` — every B run beats every A run, or B's median beats A's
  by more than A's own interquartile distance;
* ``no worse`` — B's median is not worse than A's by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — either side's spread (interquartile distance over
  median) exceeds the bound, so the runs cannot tell.

``--claim METRIC@WORKLOAD`` applies the pair-win rule to one named
metric: runs are paired in order, and the claim holds only if B wins at
least nine tenths of the pairs (ties count for neither side) and the
medians differ by more than A's interquartile distance.

Exit status 1 when any row is ``worse`` or a claim is not met.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from quantiles import quartiles

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: str) -> dict[str, dict[str, list[float]]]:
    """workload → metric → values, over the untraced runs in order."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    out: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        if run.get("trace"):
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def _beats(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    if all(_beats(y, x, better) for x in a for y in b):
        return "better"
    if (a3 - a1) / abs(a2) > bound or (b3 - b1) / abs(b2) > bound:
        return "unresolved"
    worse_by = (b2 - a2) / abs(a2) if better == "lower" else (a2 - b2) / abs(a2)
    if worse_by > bound:
        return "worse"
    if _beats(b2, a2, better) and abs(b2 - a2) > a3 - a1:
        return "better"
    return "no worse"


def claim(a: list[float], b: list[float], better: str) -> tuple[bool, str]:
    """The pair-win rule over runs paired in order."""
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if _beats(y, x, better))
    a1, a2, a3 = quartiles(a)
    _, b2, _ = quartiles(b)
    met = (
        bool(pairs)
        and wins >= 0.9 * len(pairs)
        and _beats(b2, a2, better)
        and abs(b2 - a2) > a3 - a1
    )
    return met, (f"B wins {wins}/{len(pairs)} pairs; medians {a2:.6g} -> "
                 f"{b2:.6g}; A interquartile distance {a3 - a1:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    base, change = load_runs(args.base), load_runs(args.change)
    status = 0
    print(f"{'workload':16} {'metric':10} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8}  verdict")
    for workload in sorted(set(base) & set(change)):
        for metric in metrics:
            name = metric["name"]
            a = base[workload].get(name)
            b = change[workload].get(name)
            if not a or not b:
                continue
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            row = verdict(a, b, metric["better"], metric["bound"])
            status = status or int(row == "worse")
            print(f"{workload:16} {name:10} "
                  f"{f'{a2:.5g} [{a1:.5g}, {a3:.5g}]':>30} "
                  f"{f'{b2:.5g} [{b1:.5g}, {b3:.5g}]':>30} "
                  f"{(b2 - a2) / abs(a2):+8.1%}  {row}")
    for spec in args.claim:
        name, _, workload = spec.partition("@")
        metric = next((m for m in metrics if m["name"] == name), None)
        if metric is None or workload not in base or workload not in change:
            print(f"claim {spec}: no such metric or workload in both sets")
            status = 1
            continue
        met, detail = claim(base[workload][name], change[workload][name],
                            metric["better"])
        print(f"claim {spec}: {'MET' if met else 'NOT MET'} ({detail})")
        status = status or int(not met)
    return status


if __name__ == "__main__":
    sys.exit(main())
