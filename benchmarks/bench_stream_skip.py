"""Byte-level skip-scan: streaming-cast speedup from never tokenizing
subsumed subtrees.

Two corpora, both purchase orders (Section 6 of the paper):

1. **subsumption-heavy** — the Experiment-1 pair (billTo optional →
   required): every address and the whole ``items`` subtree sit under
   subsumed ``(τ, τ')`` pairs, so byte-skimming covers almost the whole
   document.  Gate: the skip-scan streaming cast must be **≥ 3×** the
   event-level streaming cast (:func:`repro.core.reference
   .reference_cast` — the pipeline this gate was calibrated against
   when skip-scan landed, now kept as the kernel's reference oracle;
   the fused kernel has its own gate in ``bench_parse.py``) end to
   end.  The
   fused kernel's no-skip time is measured alongside, so the *marginal*
   value of skipping stays visible: the hardened skim must still beat
   it, and the trusted byte-search variant (the paper's source-validity
   premise) must beat it **≥ 3×**.
2. **zero-subsumption** — the Experiment-2 source against a target
   whose every leaf simple type is strictly tightened
   (:func:`target_schema_zero_subsumption`), so ``R_sub`` is empty over
   the reachable pairs and *nothing* can be skipped.  Gate: the
   skip-scan path must stay within **10 %** of the token-draining
   kernel pass (ratio ≥ 0.90) — the skim channel may not tax corpora
   it cannot help.

Before timing anything, every benchmark document is cross-checked
against the char-level reference pipeline
(:mod:`repro.xmltree.reference`): token streams must match
token-for-token, and the DOM cast on the reference parse, the
event-level reference cast, the kernel's token-draining, skip-scan and
trusted skip-scan casts must all agree on the verdict.  The zero-subsumption
run additionally asserts ``subtrees_skipped == 0`` (the corpus really
is skip-free) and the heavy run asserts byte skips actually happened.

Records merge into ``BENCH_cast.json`` at the repo root via
:func:`repro.bench.reporting.update_bench_json`.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_stream_skip.py [--quick]

``--quick`` shrinks the corpora for CI and relaxes the floors to 1.5x
(heavy) / 0.80 (zero-subsumption); the full run enforces the
acceptance thresholds: heavy >= 3.0x, zero-subsumption ratio >= 0.90.
Exit status 1 if any check fails.
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
    source_schema_zero_subsumption,
    target_schema_experiment1,
    target_schema_zero_subsumption,
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
    and the verdict must be identical across the DOM cast on the
    reference parse, the event-level reference cast, and the kernel's
    token-draining, skip-scan and trusted skip-scan casts, for every
    corpus document.
    """
    dom = CastValidator(pair, collect_stats=False)
    for text in texts:
        assert list(reference_tokens(text)) == list(iter_tokens(text)), (
            "token streams diverged from the reference lexer"
        )
        reference_verdict = dom.validate(reference_parse(text))
        oracle = reference_cast(pair, text)
        event = cast_text(pair, text, stream_skip=False)
        skim = cast_text(pair, text)
        trusted = cast_text(pair, text, trusted=True)
        verdicts = {
            report.valid
            for report in (reference_verdict, oracle, event, skim, trusted)
        }
        assert len(verdicts) == 1, "cast verdicts diverged across modes"
        assert (skim.valid, skim.reason, skim.path) == (
            event.valid,
            event.reason,
            event.path,
        ), "skip-scan report diverged from the event-level cast"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI smoke run with relaxed floors "
        "(heavy >= 1.5x, zero-subsumption ratio >= 0.80)",
    )
    parser.add_argument(
        "--json",
        default=DEFAULT_JSON,
        help="where to write the machine-readable results "
        "(default: BENCH_cast.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        items, reps = 150, 5
        heavy_floor, parity_floor = 1.5, 0.80
    else:
        items, reps = 800, 10
        heavy_floor, parity_floor = 3.0, 0.90

    heavy_pair = SchemaPair(
        source_schema_experiment1(), target_schema_experiment1()
    )
    heavy_pair.warm()
    zero_pair = SchemaPair(
        source_schema_zero_subsumption(), target_schema_zero_subsumption()
    )
    zero_pair.warm()

    text = serialize(make_purchase_order(items), indent="  ")
    small = serialize(make_purchase_order(max(2, items // 50)), indent="  ")
    corpus_bytes = len(text.encode("utf-8"))
    mb = corpus_bytes / 1e6
    check_equivalence(heavy_pair, [text, small])
    check_equivalence(zero_pair, [text, small])

    # The corpora must be what they claim: the heavy pair byte-skips
    # subtrees, the zero pair skips nothing at all.
    heavy_stats = cast_text(heavy_pair, text).stats
    assert heavy_stats.subtrees_byte_skipped > 0, (
        "subsumption-heavy corpus produced no byte skips"
    )
    zero_stats = cast_text(zero_pair, text).stats
    assert zero_stats.subtrees_skipped == 0, (
        "zero-subsumption corpus skipped subtrees"
    )

    # -- gate 1: subsumption-heavy speedup ----------------------------------
    event_s = best_of(lambda: reference_cast(heavy_pair, text), reps)
    fused_s = best_of(
        lambda: cast_text(heavy_pair, text, stream_skip=False), reps
    )
    skim_s = best_of(lambda: cast_text(heavy_pair, text), reps)
    trusted_s = best_of(
        lambda: cast_text(heavy_pair, text, trusted=True), reps
    )
    heavy_speedup = event_s / skim_s
    trusted_speedup = event_s / trusted_s
    # Marginal value of skipping over the fused kernel's plain pass:
    # the hardened skim must not lose to just validating everything,
    # and the trusted byte search must clearly win.
    skim_vs_fused = fused_s / skim_s
    trusted_vs_fused = fused_s / trusted_s

    # -- gate 2: zero-subsumption parity ------------------------------------
    zero_event_s = best_of(
        lambda: cast_text(zero_pair, text, stream_skip=False), reps
    )
    zero_skim_s = best_of(lambda: cast_text(zero_pair, text), reps)
    parity = zero_event_s / zero_skim_s

    skipped_fraction = heavy_stats.bytes_skipped / len(text)
    print(
        f"{'heavy (event pipeline)':<28} {event_s * 1e3:8.2f} ms"
    )
    print(
        f"{'heavy (fused, no skips)':<28} {fused_s * 1e3:8.2f} ms  "
        f"{event_s / fused_s:6.2f}x"
    )
    print(
        f"{'heavy (byte skim)':<28} {skim_s * 1e3:8.2f} ms  "
        f"{heavy_speedup:6.2f}x  ({mb * reps / skim_s:7.1f} MB/s, "
        f"{skipped_fraction:.0%} of bytes skimmed)"
    )
    print(
        f"{'heavy (trusted byte search)':<28} {trusted_s * 1e3:8.2f} ms  "
        f"{trusted_speedup:6.2f}x  ({mb * reps / trusted_s:7.1f} MB/s)"
    )
    print(
        f"{'zero-sub (event-level)':<28} {zero_event_s * 1e3:8.2f} ms"
    )
    print(
        f"{'zero-sub (byte skim)':<28} {zero_skim_s * 1e3:8.2f} ms  "
        f"ratio {parity:5.3f}"
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
                "fused_seconds": fused_s,
                "skim_seconds": skim_s,
                "trusted_seconds": trusted_s,
                "speedup": heavy_speedup,
                "trusted_speedup": trusted_speedup,
                "skim_speedup_vs_fused": skim_vs_fused,
                "trusted_speedup_vs_fused": trusted_vs_fused,
                "subtrees_byte_skipped": heavy_stats.subtrees_byte_skipped,
                "bytes_skipped": heavy_stats.bytes_skipped,
                "event_mb_per_s": mb * reps / event_s,
                "skim_mb_per_s": mb * reps / skim_s,
                "trusted_mb_per_s": mb * reps / trusted_s,
            },
            "stream_skip_zero_subsumption": {
                "corpus": "po-zero-subsumption",
                "corpus_items": items,
                "corpus_bytes": corpus_bytes,
                "reps": reps,
                "event_seconds": zero_event_s,
                "skim_seconds": zero_skim_s,
                "ratio": parity,
                "event_mb_per_s": mb * reps / zero_event_s,
                "skim_mb_per_s": mb * reps / zero_skim_s,
            },
        },
        source="bench_stream_skip.py",
    )
    print(f"wrote {os.path.normpath(args.json)}")

    failures = []
    if heavy_speedup < heavy_floor:
        failures.append(
            f"subsumption-heavy speedup {heavy_speedup:.2f}x "
            f"< {heavy_floor}x"
        )
    if skim_vs_fused < 1.0:
        failures.append(
            f"hardened skim loses to the fused no-skip pass "
            f"({skim_vs_fused:.2f}x)"
        )
    if trusted_vs_fused < heavy_floor:
        failures.append(
            f"trusted skim speedup over the fused pass "
            f"{trusted_vs_fused:.2f}x < {heavy_floor}x"
        )
    if parity < parity_floor:
        failures.append(
            f"zero-subsumption ratio {parity:.3f} < {parity_floor}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: skip-scan meets thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
