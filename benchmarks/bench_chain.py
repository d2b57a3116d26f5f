"""Evolution-chain composition: one fused cast for S₁→…→Sₙ, and the
static update-safety verdict that skips revalidation entirely.

Two gates, both over the k-hop purchase-order drift workload
(:mod:`repro.workloads.evolution`):

1. **composed vs sequential** — a 3-hop monotone tighten history
   (quantity bound 256→128→64→32).  The hop analysis absorbs the two
   intermediate checks into the final one, so the composed pair casts
   the document *once* where the baseline casts it n−1 = 3 times.
   Gate: the composed single pass must be **≥ 2×** the sequential
   per-hop pipeline end to end on premise-valid documents.
2. **always-safe skip** — a parametric update program (delete the
   optional ship-date element) statically classified ``always-safe``
   for its pair, so :func:`cast_text_with_program` answers without
   touching the document.  Gate: the zero-traversal verdict must be
   **≥ 100×** faster per call than applying the program and running
   the full cast-with-modifications revalidation.

Before timing anything, the composed cast and the sequential pipeline
are cross-checked document by document — verdict, reason, and error
position must match exactly on conforming documents *and* on documents
built to trip each individual hop — and the static always-safe verdict
is cross-checked against actually applying the program and
revalidating.  Numbers are refused if anything disagrees.

Records merge into ``BENCH_cast.json`` at the repo root via
:func:`repro.bench.reporting.update_bench_json`; chain records are
stamped with ``chain_length`` so a speedup is never read without n.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_chain.py [--quick]

``--quick`` shrinks the corpora for CI and relaxes the floors to 1.3x
(composed) / 20x (always-safe); the full run enforces the acceptance
thresholds: composed >= 2.0x, always-safe >= 100x.  Exit status 1 if
any check fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable

from repro.bench.reporting import update_bench_json
from repro.core.castmods import CastWithModificationsValidator
from repro.core.cast import cast_text
from repro.core.updateprog import (
    Classification,
    DeleteRule,
    UpdateProgram,
    apply_program,
    cast_text_with_program,
    classify,
)
from repro.core.updates import UpdateSession
from repro.schema.chain import SchemaChain
from repro.schema.registry import SchemaPair
from repro.workloads.evolution import (
    conforming_document,
    drift_chain,
    po_variant,
    violating_document,
)
from repro.xmltree.parser import parse

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


def check_chain_equivalence(chain: SchemaChain, texts: list[str]) -> None:
    """Refuse to publish numbers for pipelines that disagree.

    ``chain.cast_text`` (fused composed pass with sequential fallback)
    must match ``chain.sequential_cast_text`` on verdict, reason, and
    error position for every corpus document, and a raw composed accept
    must imply a sequential accept (soundness of the composition).
    """
    for text in texts:
        fused = chain.cast_text(text)
        sequential = chain.sequential_cast_text(text)
        assert (fused.valid, fused.reason, fused.path) == (
            sequential.valid,
            sequential.reason,
            sequential.path,
        ), "composed chain cast diverged from the per-hop pipeline"
        composed = chain.cast_composed_text(text)
        assert not composed.valid or sequential.valid, (
            "raw composed pass accepted a document a hop rejects"
        )


def apply_and_revalidate(pair: SchemaPair, program: UpdateProgram,
                         text: str):
    """The baseline the always-safe verdict skips: parse, replay the
    program as instance deltas, run the full cast-with-modifications
    revalidation."""
    document = parse(text, symbols=pair.symbols)
    session = UpdateSession(document)
    apply_program(session, program)
    return CastWithModificationsValidator(
        pair, collect_stats=False
    ).validate(session)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI smoke run with relaxed floors "
        "(composed >= 1.3x, always-safe >= 20x)",
    )
    parser.add_argument(
        "--json",
        default=DEFAULT_JSON,
        help="where to write the machine-readable results "
        "(default: BENCH_cast.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        items, reps, static_reps = 60, 5, 500
        composed_floor, skip_floor = 1.3, 20.0
    else:
        items, reps, static_reps = 300, 10, 2000
        composed_floor, skip_floor = 2.0, 100.0

    # -- gate 1: composed single pass vs sequential 3-hop casts -------------
    schemas, kinds = drift_chain(3)
    chain = SchemaChain(schemas, name="po-tighten-3hop")
    chain.warm()
    for hop in chain.hops:
        hop.warm()
    analysis = chain.analysis()
    assert len(analysis["checked"]) == 1, (
        "monotone tighten history did not absorb to one residual check: "
        f"{analysis!r}"
    )

    text = conforming_document(schemas, item_count=items)
    corpus_bytes = len(text.encode("utf-8"))
    mb = corpus_bytes / 1e6
    trip_texts = [
        violating_document(schemas, kinds, hop, item_count=items)
        for hop in range(len(kinds))
    ]
    check_chain_equivalence(chain, [text] + trip_texts)
    assert chain.cast_text(text).valid, (
        "conforming corpus document rejected by the chain"
    )

    composed_s = best_of(lambda: chain.cast_text(text), reps)
    sequential_s = best_of(
        lambda: chain.sequential_cast_text(text), reps
    )
    composed_speedup = sequential_s / composed_s

    print(
        f"{'sequential (3 hop casts)':<28} {sequential_s * 1e3:8.2f} ms  "
        f"({mb * reps / sequential_s:7.1f} MB/s)"
    )
    print(
        f"{'composed (1 fused cast)':<28} {composed_s * 1e3:8.2f} ms  "
        f"{composed_speedup:6.2f}x  ({mb * reps / composed_s:7.1f} MB/s)"
    )

    # -- gate 2: always-safe classification vs full revalidation -----------
    schema = po_variant()
    pair = SchemaPair(schema, po_variant())
    pair.warm()
    program = UpdateProgram((DeleteRule("shipDate"),))
    classification = classify(pair, program)
    assert classification is Classification.ALWAYS_SAFE, (
        f"delete-optional program classified {classification.value!r}, "
        "not always-safe"
    )

    safe_text = conforming_document([schema], item_count=items)
    replayed = apply_and_revalidate(pair, program, safe_text)
    static_report, _ = cast_text_with_program(pair, program, safe_text)
    assert replayed.valid and static_report.valid, (
        "always-safe verdict diverged from apply-and-revalidate"
    )

    revalidate_s = best_of(
        lambda: apply_and_revalidate(pair, program, safe_text), reps
    )
    static_s = best_of(
        lambda: cast_text_with_program(pair, program, safe_text),
        static_reps,
    )
    revalidate_per_call = revalidate_s / reps
    static_per_call = static_s / static_reps
    skip_speedup = revalidate_per_call / static_per_call

    print(
        f"{'apply + full revalidation':<28} "
        f"{revalidate_per_call * 1e3:8.3f} ms/call"
    )
    print(
        f"{'always-safe static verdict':<28} "
        f"{static_per_call * 1e3:8.3f} ms/call  {skip_speedup:6.0f}x"
    )

    update_bench_json(
        args.json,
        {
            "chain_composed_vs_sequential": {
                "corpus": "po-drift-tighten",
                "corpus_items": items,
                "corpus_bytes": corpus_bytes,
                "reps": reps,
                "hops": chain.hop_count,
                "residual_checks": len(analysis["checked"]),
                "absorbed_checks": len(analysis["absorbed"]),
                "sequential_seconds": sequential_s,
                "composed_seconds": composed_s,
                "speedup": composed_speedup,
                "sequential_mb_per_s": mb * reps / sequential_s,
                "composed_mb_per_s": mb * reps / composed_s,
            },
        },
        source="bench_chain.py",
        quick=args.quick,
        chain_length=len(chain.schemas),
    )
    update_bench_json(
        args.json,
        {
            "chain_always_safe_skip": {
                "corpus": "po-drift-tighten",
                "corpus_items": items,
                "corpus_bytes": len(safe_text.encode("utf-8")),
                "program": "delete shipDate (optional)",
                "classification": classification.value,
                "revalidate_seconds_per_call": revalidate_per_call,
                "static_seconds_per_call": static_per_call,
                "speedup": skip_speedup,
            },
        },
        source="bench_chain.py",
        quick=args.quick,
    )
    print(f"wrote {os.path.normpath(args.json)}")

    failures = []
    if composed_speedup < composed_floor:
        failures.append(
            f"composed-chain speedup {composed_speedup:.2f}x "
            f"< {composed_floor}x"
        )
    if skip_speedup < skip_floor:
        failures.append(
            f"always-safe skip speedup {skip_speedup:.0f}x "
            f"< {skip_floor:.0f}x"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: chain composition meets thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
