"""Table 3 — nodes traversed during validation in Experiment 2.

Regenerates the paper's node-count table: for each document size, how
many nodes the schema cast validator touches versus the full validator.
Expected shape: both linear in item count; cast strictly below full for
every size; the per-item delta constant.  (The paper's absolute counts
include DOM-navigation nodes Xerces touches; our counters count
validation visits only, so our ratio is lower — see EXPERIMENTS.md.)
The kernel's counts on the serialized order (``cast_text``,
``validate_text``) must equal the DOM walks' at every size; CI checks
that untimed, with ``--benchmark-disable``.
"""

import pytest

from repro.bench.harness import run_table3
from repro.workloads.purchase_orders import (
    PAPER_ITEM_COUNTS,
    PAPER_TABLE3_NODES,
    make_purchase_order,
)


@pytest.mark.parametrize("items", PAPER_ITEM_COUNTS)
def test_node_counts(benchmark, exp2_cast, exp2_full, items):
    doc = make_purchase_order(items)

    def both():
        return (
            exp2_cast.validate(doc).stats.nodes_visited,
            exp2_full.validate(doc).stats.nodes_visited,
        )

    cast_nodes, full_nodes = benchmark(both)
    paper_cast, paper_full = PAPER_TABLE3_NODES[items]
    assert cast_nodes < full_nodes                  # same ordering
    assert paper_cast < paper_full


@pytest.mark.parametrize("items", PAPER_ITEM_COUNTS)
def test_kernel_counts_equal_the_dom_walks(items):
    """Untimed: Table 3's text columns equal its DOM columns."""
    (row,) = run_table3([items])
    assert row["cast_text_nodes"] == row["cast_nodes"]
    assert row["validate_text_nodes"] == row["full_nodes"]


def test_per_item_costs_are_constant(exp2_cast, exp2_full):
    """Linear-in-items shape: the per-item node cost must not drift."""

    def per_item(validator):
        small = validator.validate(make_purchase_order(100))
        large = validator.validate(make_purchase_order(1000))
        return (
            large.stats.nodes_visited - small.stats.nodes_visited
        ) / 900

    cast_slope = per_item(exp2_cast)
    full_slope = per_item(exp2_full)
    assert cast_slope == pytest.approx(round(cast_slope))
    assert full_slope == pytest.approx(round(full_slope))
    assert cast_slope < full_slope
    # Paper slopes: 12 cast nodes/item vs 15 Xerces nodes/item.
    paper_cast_slope = (12011 - 1211) / 900
    paper_full_slope = (15044 - 1544) / 900
    assert paper_cast_slope < paper_full_slope


if __name__ == "__main__":
    from repro.bench.harness import report_table3

    print(report_table3(run_table3()))
