"""Memoized pair-validation: hash-consing + verdict-cache speedups.

Measures the :class:`~repro.core.memo.ValidationMemo` layer against the
PR-1 compiled fast path (``collect_stats=False``, no memo) on two
Experiment-2 purchase-order corpora:

1. **repetitive** — items cycle through K=8 distinct shapes, so over
   50% of the item subtrees are structural duplicates and the memo
   should collapse them to O(1) hash lookups;
2. **zero-dup** — the default generator gives every item a unique
   ``productName``, so the memo can only miss at the item level; the
   memoized run must stay within a few percent of the plain fast path
   (the overhead bound).

Every record lands in ``BENCH_cast.json`` at the repo root (see
``docs/PERFORMANCE.md`` for the format) via
:func:`repro.bench.reporting.update_bench_json`.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_memo_cast.py [--quick]

``--quick`` shrinks the corpora for CI and only requires the memoized
run to not be slower than the plain fast path on the repetitive corpus
(ratio >= 1.0); the full run enforces the acceptance thresholds:
repetitive >= 2.0x and zero-dup ratio >= 0.95.  Exit status 1 if any
check fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable

from repro.bench.reporting import update_bench_json
from repro.core.cast import CastValidator
from repro.core.memo import ValidationMemo
from repro.schema.registry import SchemaPair
from repro.workloads.purchase_orders import (
    make_item,
    make_purchase_order,
    source_schema_experiment2,
    target_schema_experiment2,
)
from repro.xmltree.dom import Document

DEFAULT_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_cast.json"
)

#: Distinct item shapes in the repetitive corpus; with hundreds of
#: items, all but K of the item subtrees are structural duplicates.
REPETITIVE_SHAPES = 8


def make_repetitive_po(item_count: int) -> Document:
    """A purchase order whose items cycle through K distinct shapes.

    ``make_item`` derives every field from its index, so reducing the
    index modulo K yields exactly K distinct item subtrees repeated
    ``item_count / K`` times each — the >= 50% duplicate-subtree corpus
    of the acceptance criteria.
    """
    base = make_purchase_order(0)
    items = base.root.find("items")
    assert items is not None
    for index in range(item_count):
        items.append(
            make_item(
                index % REPETITIVE_SHAPES,
                quantity=1 + (index % REPETITIVE_SHAPES),
            )
        )
    return base


def best_of(fn: Callable[[], object], reps: int, rounds: int = 3) -> float:
    """Best-of-``rounds`` wall-clock for ``reps`` calls (noise floor)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_corpus(
    pair: SchemaPair, document: Document, reps: int
) -> tuple[float, float, float, int]:
    """``(plain_time, memo_time, hit_rate, nodes)`` for one corpus.

    The memoized runner clears its memo before every repetition, so the
    measured speedup comes from duplication *within* the document — a
    rep-2 whole-document root hit would be trivially fast and dishonest.
    Structural hashes are sealed by the first validation and reused by
    all later reps in both configurations, mirroring a parsed document.
    """
    plain = CastValidator(pair, collect_stats=False)
    memo = ValidationMemo()
    memoized = CastValidator(pair, collect_stats=False, memo=memo)
    assert plain.validate(document).valid
    assert memoized.validate(document).valid

    def run_memoized() -> None:
        memo.clear()
        report = memoized.validate(document)
        assert report.valid

    plain_time = best_of(lambda: plain.validate(document), reps)
    base_hits, base_lookups = memo.hits, memo.lookups
    memo_time = best_of(run_memoized, reps)
    lookups = memo.lookups - base_lookups
    hits = memo.hits - base_hits
    hit_rate = hits / lookups if lookups else 0.0
    return plain_time, memo_time, hit_rate, document.size()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI smoke run; only requires memoized >= plain "
        "on the repetitive corpus",
    )
    parser.add_argument(
        "--json",
        default=DEFAULT_JSON,
        help="where to write the machine-readable results "
        "(default: BENCH_cast.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        items, reps = 120, 5
        repetitive_floor, zero_dup_floor = 1.0, None
    else:
        items, reps = 600, 20
        repetitive_floor, zero_dup_floor = 2.0, 0.95

    pair = SchemaPair(
        source_schema_experiment2(), target_schema_experiment2()
    )
    pair.warm()

    repetitive = make_repetitive_po(items)
    zero_dup = make_purchase_order(items)
    rep_plain, rep_memo, rep_hit_rate, rep_nodes = bench_corpus(
        pair, repetitive, reps
    )
    zd_plain, zd_memo, zd_hit_rate, zd_nodes = bench_corpus(
        pair, zero_dup, reps
    )

    def ns_per_node(total: float, nodes: int) -> float:
        return total / reps / nodes * 1e9

    rows = [
        (
            f"repetitive PO x{items} (K={REPETITIVE_SHAPES})",
            rep_plain,
            rep_memo,
            rep_hit_rate,
            rep_nodes,
        ),
        (f"zero-dup PO x{items}", zd_plain, zd_memo, zd_hit_rate, zd_nodes),
    ]
    for name, plain_time, memo_time, hit_rate, nodes in rows:
        print(
            f"{name:<34} plain {plain_time * 1e3:8.2f} ms  "
            f"memo {memo_time * 1e3:8.2f} ms  "
            f"{plain_time / memo_time:5.2f}x  "
            f"hit rate {hit_rate:6.1%}  "
            f"({ns_per_node(memo_time, nodes):6.0f} ns/node)"
        )

    update_bench_json(
        args.json,
        {
            "memo_cast_repetitive": {
                "corpus": "exp2-po-repetitive",
                "corpus_items": items,
                "corpus_nodes": rep_nodes,
                "reps": reps,
                "plain_seconds": rep_plain,
                "memo_seconds": rep_memo,
                "speedup": rep_plain / rep_memo,
                "memo_hit_rate": rep_hit_rate,
                "plain_ns_per_node": ns_per_node(rep_plain, rep_nodes),
                "memo_ns_per_node": ns_per_node(rep_memo, rep_nodes),
            },
            "memo_cast_zero_dup": {
                "corpus": "exp2-po-unique",
                "corpus_items": items,
                "corpus_nodes": zd_nodes,
                "reps": reps,
                "plain_seconds": zd_plain,
                "memo_seconds": zd_memo,
                "speedup": zd_plain / zd_memo,
                "memo_hit_rate": zd_hit_rate,
                "plain_ns_per_node": ns_per_node(zd_plain, zd_nodes),
                "memo_ns_per_node": ns_per_node(zd_memo, zd_nodes),
            },
        },
        source="bench_memo_cast.py",
        quick=args.quick,
    )
    print(f"wrote {os.path.normpath(args.json)}")

    failures = []
    rep_speedup = rep_plain / rep_memo
    zd_ratio = zd_plain / zd_memo
    if rep_speedup < repetitive_floor:
        failures.append(
            f"repetitive-corpus speedup {rep_speedup:.2f}x "
            f"< {repetitive_floor}x"
        )
    if zero_dup_floor is not None and zd_ratio < zero_dup_floor:
        failures.append(
            f"zero-dup corpus ratio {zd_ratio:.2f} < {zero_dup_floor} "
            "(memo overhead above the 5% budget)"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: memoized cast meets thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
