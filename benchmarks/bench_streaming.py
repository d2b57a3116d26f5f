"""A7 — plain validation of text vs parse-then-validate.

The paper's memory argument carried to its conclusion: plain validation
of text (:func:`repro.core.validator.validate_text`, the fused kernel
over the schema's own tables) holds only a stack of open elements, so
its peak memory is O(document depth) while the DOM pipeline holds the
whole tree.  This bench measures wall-clock for both pipelines and peak
allocations (tracemalloc) as the document grows.  Expected shape: both
linear in time; kernel peak memory flat, DOM peak linear.

Run: ``PYTHONPATH=src python -m pytest -q --benchmark-disable
benchmarks/bench_streaming.py`` (checks only), or ``PYTHONPATH=src
python benchmarks/bench_streaming.py`` for the table.
"""

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

TEXTS = {}


def _text(count):
    if count not in TEXTS:
        TEXTS[count] = serialize(make_purchase_order(count), indent="  ")
    return TEXTS[count]


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


if __name__ == "__main__":
    schema_ = target_schema_experiment2()
    from repro.bench.harness import time_call
    from repro.bench.reporting import render_table

    rows = []
    for items in SIZES:
        text = _text(items)
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
                _peak_bytes(
                    lambda: validate_document(schema_, parse(text))
                ),
            ]
        )
    print(
        render_table(
            "A7 — validate_text vs parse-then-validate",
            ["items", "kernel ms", "dom ms", "kernel peak B",
             "dom peak B"],
            rows,
            note="kernel peak is O(depth); DOM peak grows with the tree",
        )
    )
