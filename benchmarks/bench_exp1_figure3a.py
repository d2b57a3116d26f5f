"""Figure 3a — Experiment 1: billTo optional → required.

Regenerates the paper's first plot: validation time versus the number
of ``item`` elements, for the schema cast validator and the full
(Xerces-style) validator.  Expected shape: the cast validator's time is
**constant** in document size (it decides at the purchaseOrder content
model), the full validator's time is **linear**.

On text, the product's route, the default ``cast_text`` validates the
root alone and drains the three subsumed subtrees (both addresses and
``items``) at every size; ``test_text_cast_constant`` checks that
untimed, and CI runs it with ``--benchmark-disable``.

Run ``python benchmarks/bench_exp1_figure3a.py`` for the printed series
(DOM walks and text routes), or
``pytest benchmarks/bench_exp1_figure3a.py --benchmark-only`` for
statistics per point.
"""

import pytest

from repro.core.cast import cast_text
from repro.core.validator import validate_text
from repro.workloads.purchase_orders import PAPER_ITEM_COUNTS, make_purchase_order
from repro.xmltree.serializer import serialize

DOCS = {}


def _doc(count):
    if count not in DOCS:
        DOCS[count] = make_purchase_order(count)
    return DOCS[count]


@pytest.mark.parametrize("items", PAPER_ITEM_COUNTS)
def test_cast_validator(benchmark, exp1_cast, items):
    doc = _doc(items)
    report = benchmark(exp1_cast.validate, doc)
    assert report.valid
    # The headline claim: constant work regardless of document size.
    assert report.stats.nodes_visited <= 2


@pytest.mark.parametrize("items", PAPER_ITEM_COUNTS)
def test_full_validator(benchmark, exp1_full, items):
    doc = _doc(items)
    report = benchmark(exp1_full.validate, doc)
    assert report.valid
    assert report.stats.nodes_visited == doc.size()


@pytest.mark.parametrize("items", PAPER_ITEM_COUNTS)
def test_text_cast_constant(exp1_pair, items):
    """Untimed: the text cast visits one element and drains three
    subtrees whatever the size, and agrees with ``validate_text``."""
    text = serialize(_doc(items), indent="  ")
    report = cast_text(exp1_pair, text)
    assert report.valid
    assert report.stats.elements_visited == 1
    assert report.stats.subtrees_skipped == 3
    assert validate_text(exp1_pair.target, text).valid == report.valid


if __name__ == "__main__":
    from repro.bench.harness import report_experiment1, run_experiment1

    print(report_experiment1(run_experiment1()))
