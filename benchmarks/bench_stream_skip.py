"""Skip-scan: what the subsumed subtrees of a streaming cast cost.

The corpus is an Experiment-1 purchase order (Section 6 of the paper):
the pair (billTo optional → required) subsumes every address and the
whole ``items`` subtree, so the cast validates almost nothing.  Three
executions of that cast are timed:

* the event-level reference cast (:func:`repro.core.reference
  .reference_cast`, the pipeline the first gate was calibrated against
  when skip-scan landed, now kept as the kernel's reference oracle),
  which drains the subsumed subtrees event by event;
* the default cast (:func:`repro.core.cast.cast_text`): the fused
  kernel drains them token by token with every well-formedness check;
* the trusted cast (``trusted=True``, the paper's source-validity
  premise): a byte search for each subsumed subtree's close tag.

Gates: the default cast must be **≥ 3×** the event pipeline end to end
(the fused kernel has its own gate in ``bench_parse.py``), and the
trusted search **≥ 3×** the default cast's drain.

Before timing anything, every benchmark document is cross-checked
against the char-level reference pipeline
(:mod:`repro.xmltree.reference`): token streams must match
token-for-token, the DOM cast on the reference parse and the default
and trusted casts must agree on the verdict, and the default cast's
report must equal the event-level reference cast's.  The run also
asserts that subtrees were skipped at all.

Records merge into ``BENCH_cast.json`` at the repo root via
:func:`repro.bench.reporting.update_bench_json`.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_stream_skip.py [--quick]

``--quick`` shrinks the corpus for CI and relaxes both floors to 1.5x;
the full run enforces 3.0x.  Exit status 1 if any check fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable

from repro.bench.reporting import update_bench_json
from repro.core.cast import CastValidator, cast_text
from repro.core.reference import reference_cast
from repro.schema.registry import SchemaPair
from repro.workloads.purchase_orders import (
    make_purchase_order,
    source_schema_experiment1,
    target_schema_experiment1,
)
from repro.xmltree.lexer import iter_tokens
from repro.xmltree.reference import reference_parse, reference_tokens
from repro.xmltree.serializer import serialize

DEFAULT_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_cast.json"
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


def check_equivalence(pair: SchemaPair, texts: list[str]) -> None:
    """Refuse to publish numbers for pipelines that disagree.

    Token streams must match the char-level reference lexer exactly,
    the verdict must be identical across the DOM cast on the reference
    parse and the default and trusted casts, and the default cast's
    report must equal the event-level reference cast's, for every
    corpus document.
    """
    dom = CastValidator(pair, collect_stats=False)
    for text in texts:
        assert list(reference_tokens(text)) == list(iter_tokens(text)), (
            "token streams diverged from the reference lexer"
        )
        reference_verdict = dom.validate(reference_parse(text))
        oracle = reference_cast(pair, text)
        drain = cast_text(pair, text)
        trusted = cast_text(pair, text, trusted=True)
        verdicts = {
            report.valid for report in (reference_verdict, drain, trusted)
        }
        assert len(verdicts) == 1, "cast verdicts diverged across modes"
        assert (drain.valid, drain.reason, drain.path, drain.stats) == (
            oracle.valid,
            oracle.reason,
            oracle.path,
            oracle.stats,
        ), "the default cast diverged from the event-level cast"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI smoke run with relaxed floors (1.5x)",
    )
    parser.add_argument(
        "--json",
        default=DEFAULT_JSON,
        help="where to write the machine-readable results "
        "(default: BENCH_cast.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        items, reps, floor = 150, 5, 1.5
    else:
        items, reps, floor = 800, 10, 3.0

    pair = SchemaPair(source_schema_experiment1(), target_schema_experiment1())
    pair.warm()

    text = serialize(make_purchase_order(items), indent="  ")
    small = serialize(make_purchase_order(max(2, items // 50)), indent="  ")
    corpus_bytes = len(text.encode("utf-8"))
    mb = corpus_bytes / 1e6
    check_equivalence(pair, [text, small])

    # The corpus must be what it claims: the pair skips subtrees.
    stats = cast_text(pair, text, trusted=True).stats
    assert stats.subtrees_skipped > 0, (
        "subsumption-heavy corpus skipped no subtrees"
    )

    event_s = best_of(lambda: reference_cast(pair, text), reps)
    drain_s = best_of(lambda: cast_text(pair, text), reps)
    trusted_s = best_of(lambda: cast_text(pair, text, trusted=True), reps)
    speedup = event_s / drain_s
    trusted_vs_drain = drain_s / trusted_s

    skipped_fraction = stats.bytes_skipped / len(text)
    print(f"{'event pipeline':<24} {event_s * 1e3:8.2f} ms")
    print(
        f"{'default cast (drain)':<24} {drain_s * 1e3:8.2f} ms  "
        f"{speedup:6.2f}x  ({mb * reps / drain_s:7.1f} MB/s)"
    )
    print(
        f"{'trusted byte search':<24} {trusted_s * 1e3:8.2f} ms  "
        f"{trusted_vs_drain:6.2f}x the drain  "
        f"({mb * reps / trusted_s:7.1f} MB/s, "
        f"{skipped_fraction:.0%} of bytes searched past)"
    )

    update_bench_json(
        args.json,
        {
            "stream_skip_subsumption_heavy": {
                "corpus": "exp1-po",
                "corpus_items": items,
                "corpus_bytes": corpus_bytes,
                "reps": reps,
                "event_seconds": event_s,
                "drain_seconds": drain_s,
                "trusted_seconds": trusted_s,
                "speedup": speedup,
                "trusted_speedup_vs_drain": trusted_vs_drain,
                "subtrees_skipped": stats.subtrees_skipped,
                "bytes_skipped": stats.bytes_skipped,
                "event_mb_per_s": mb * reps / event_s,
                "drain_mb_per_s": mb * reps / drain_s,
                "trusted_mb_per_s": mb * reps / trusted_s,
            },
        },
        source="bench_stream_skip.py",
        quick=args.quick,
    )
    print(f"wrote {os.path.normpath(args.json)}")

    failures = []
    if speedup < floor:
        failures.append(
            f"default cast speedup over the event pipeline "
            f"{speedup:.2f}x < {floor}x"
        )
    if trusted_vs_drain < floor:
        failures.append(
            f"trusted search speedup over the drain "
            f"{trusted_vs_drain:.2f}x < {floor}x"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: skip-scan meets thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
