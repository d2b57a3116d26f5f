"""A7 — plain validation of text vs parse-then-validate.

The paper's memory argument carried to its conclusion: plain validation
of text (:func:`repro.core.validator.validate_text`, the fused kernel
over the schema's own tables) holds only a stack of open elements, so
its peak memory is O(document depth) while the DOM pipeline holds the
whole tree.  This bench measures wall-clock for both pipelines and peak
allocations (tracemalloc) as the document grows.  Expected shape: both
linear in time; kernel peak memory flat, DOM peak linear.

A rejected document is settled in the same kernel pass, so it keeps the
flat peak, and it costs about what its valid twin costs.  The twins
differ in one quantity, raised past the Experiment-2 target's bound at
the first or at the last item.  The table's twin rows time the three
texts in interleaved rounds, rotating which runs first, and report the
median and quartiles of each rejected text's per-round time ratio to
the valid one.

Run: ``PYTHONPATH=src python -m pytest -q --benchmark-disable
benchmarks/bench_streaming.py`` (checks only), or ``PYTHONPATH=src
python benchmarks/bench_streaming.py`` for the tables.
"""

import statistics
import tracemalloc

import pytest

from repro.core.validator import validate_document, validate_text
from repro.workloads.purchase_orders import (
    make_purchase_order,
    target_schema_experiment2,
)
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize

SIZES = (50, 200, 1000)
#: Item counts and interleaved rounds of the rejected-twin rows.
TWIN_SIZES = (100, 1000)
TWIN_ROUNDS = 9
REJECTED_AT = ("first", "last")

TEXTS = {}


def _text(count):
    if count not in TEXTS:
        TEXTS[count] = serialize(make_purchase_order(count), indent="  ")
    return TEXTS[count]


def _rejected(count, where):
    """The valid order of ``count`` items with its first or last
    quantity raised to 500, past the target's bound of 100."""
    text = _text(count)
    find = text.find if where == "first" else text.rfind
    start = find("<quantity>") + len("<quantity>")
    return text[:start] + "500" + text[text.index("</quantity>", start):]


@pytest.fixture(scope="module")
def schema():
    return target_schema_experiment2()


@pytest.mark.parametrize("items", SIZES)
def test_streaming_pipeline(benchmark, schema, items):
    text = _text(items)
    report = benchmark(validate_text, schema, text)
    assert report.valid


@pytest.mark.parametrize("items", SIZES)
def test_dom_pipeline(benchmark, schema, items):
    text = _text(items)

    def run():
        return validate_document(schema, parse(text))

    report = benchmark(run)
    assert report.valid


@pytest.mark.parametrize("where", REJECTED_AT)
@pytest.mark.parametrize("items", SIZES)
def test_rejected_pipeline(benchmark, schema, items, where):
    text = _rejected(items, where)
    report = benchmark(validate_text, schema, text)
    dom = validate_document(schema, parse(text))
    assert not dom.valid and "does not conform" in dom.reason
    assert (report.valid, report.reason, report.path) == (
        dom.valid, dom.reason, dom.path
    )


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_streaming_memory_is_document_independent(schema):
    small, large = _text(50), _text(1000)
    validate_text(schema, small)  # build the kernel tables first
    stream_small = _peak_bytes(lambda: validate_text(schema, small))
    stream_large = _peak_bytes(lambda: validate_text(schema, large))
    dom_small = _peak_bytes(lambda: validate_document(schema, parse(small)))
    dom_large = _peak_bytes(lambda: validate_document(schema, parse(large)))
    # DOM peak grows roughly with the document; the kernel stays flat
    # (both pipelines hold the input text itself, already allocated).
    assert dom_large > dom_small * 5
    assert stream_large < stream_small * 3


@pytest.mark.parametrize("where", REJECTED_AT)
def test_rejected_memory_is_document_independent(schema, where):
    small, large = _rejected(50, where), _rejected(1000, where)
    validate_text(schema, small)  # build the kernel tables first
    rejected_small = _peak_bytes(lambda: validate_text(schema, small))
    rejected_large = _peak_bytes(lambda: validate_text(schema, large))
    dom_large = _peak_bytes(lambda: validate_document(schema, parse(large)))
    # The settle drains the text the kernel has not read: no tree, no
    # second parse, so the peak stays flat like a valid document's.
    assert rejected_large < rejected_small * 3
    assert rejected_large * 20 < dom_large


def twin_rows(schema, *, rounds=TWIN_ROUNDS):
    """Per item count: the median times of the valid order and of its
    twins rejected at the first and the last item, and the median and
    quartiles of each round's rejected-to-valid ratio.  Each round
    times each text as the best of three calls, in an order rotated
    per round, so a ratio compares texts timed moments apart."""
    from repro.bench.harness import time_call

    rows = []
    for items in TWIN_SIZES:
        texts = {"valid": _text(items)}
        for where in REJECTED_AT:
            texts[where] = _rejected(items, where)
        kinds = list(texts)
        times = {kind: [] for kind in kinds}
        for round_ in range(rounds):
            shift = round_ % len(kinds)
            for kind in kinds[shift:] + kinds[:shift]:
                text = texts[kind]
                times[kind].append(
                    time_call(lambda: validate_text(schema, text), repeat=3)
                )
        ratios = []
        for where in REJECTED_AT:
            per_round = [
                rejected / valid
                for rejected, valid in zip(times[where], times["valid"])
            ]
            q1, median, q3 = statistics.quantiles(per_round, n=4)
            ratios += [median, f"{q1:.2f}-{q3:.2f}"]
        rows.append(
            [items]
            + [statistics.median(times[kind]) * 1e3 for kind in kinds]
            + ratios
        )
    return rows


if __name__ == "__main__":
    schema_ = target_schema_experiment2()
    from repro.bench.harness import time_call
    from repro.bench.reporting import render_table

    rows = []
    for items in SIZES:
        text = _text(items)
        first, last = (_rejected(items, where) for where in REJECTED_AT)
        rows.append(
            [
                items,
                time_call(lambda: validate_text(schema_, text),
                          repeat=3) * 1e3,
                time_call(
                    lambda: validate_document(schema_, parse(text)),
                    repeat=3,
                ) * 1e3,
                _peak_bytes(lambda: validate_text(schema_, text)),
                _peak_bytes(lambda: validate_text(schema_, first)),
                _peak_bytes(lambda: validate_text(schema_, last)),
                _peak_bytes(
                    lambda: validate_document(schema_, parse(text))
                ),
            ]
        )
    print(
        render_table(
            "A7 — validate_text vs parse-then-validate",
            ["items", "kernel ms", "dom ms", "kernel peak B",
             "rejected-first peak B", "rejected-last peak B",
             "dom peak B"],
            rows,
            note="kernel peak is O(depth), rejected or not; DOM peak "
                 "grows with the tree",
        )
    )
    print()
    print(
        render_table(
            f"A7 — rejected twins, medians of {TWIN_ROUNDS} interleaved "
            "rounds",
            ["items", "valid ms", "rejected-first ms", "rejected-last ms",
             "first / valid", "q1-q3", "last / valid", "q1-q3"],
            twin_rows(schema_),
            note="a rejection is settled in the kernel's one pass",
        )
    )
