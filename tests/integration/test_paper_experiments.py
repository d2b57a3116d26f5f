"""Integration tests pinning the paper's Section 6 experiments.

These are the executable versions of EXPERIMENTS.md: each test asserts
the *shape* the paper reports (constant vs linear, orderings, per-item
slopes), at small scale so the suite stays fast.
"""

import pytest

from repro.baselines.full import FullValidator
from repro.bench.harness import (
    report_experiment1,
    report_experiment2,
    run_dtd_index,
    run_experiment1,
    run_experiment2,
    run_table2,
    run_table3,
    run_tree_modifications,
)
from repro.core.cast import CastValidator
from repro.workloads.purchase_orders import make_purchase_order

SIZES = (2, 50, 100)


class TestExperiment1Shape:
    def test_cast_constant_full_linear(self, exp1_pair):
        cast = CastValidator(exp1_pair)
        full = FullValidator(exp1_pair.target)
        cast_nodes = []
        full_nodes = []
        for count in SIZES:
            doc = make_purchase_order(count)
            cast_nodes.append(cast.validate(doc).stats.nodes_visited)
            full_nodes.append(full.validate(doc).stats.nodes_visited)
        # Constant vs linear.
        assert len(set(cast_nodes)) == 1
        slope_low = (full_nodes[1] - full_nodes[0]) / (SIZES[1] - SIZES[0])
        slope_high = (full_nodes[2] - full_nodes[1]) / (SIZES[2] - SIZES[1])
        assert slope_low == pytest.approx(slope_high)
        assert slope_low == 9  # 5 elements + 4 text nodes per item

    def test_invalid_documents_detected_in_constant_work(self, exp1_pair):
        cast = CastValidator(exp1_pair)
        reports = [
            cast.validate(make_purchase_order(count, with_billto=False))
            for count in SIZES
        ]
        assert not any(report.valid for report in reports)
        visited = {report.stats.nodes_visited for report in reports}
        assert len(visited) == 1


class TestExperiment2Shape:
    def test_both_linear_cast_below_full(self, exp2_pair):
        cast = CastValidator(exp2_pair)
        full = FullValidator(exp2_pair.target)
        rows = []
        for count in SIZES:
            doc = make_purchase_order(count)
            rows.append(
                (
                    cast.validate(doc).stats.nodes_visited,
                    full.validate(doc).stats.nodes_visited,
                )
            )
        for cast_nodes, full_nodes in rows:
            assert cast_nodes < full_nodes
        cast_slope = (rows[2][0] - rows[1][0]) / (SIZES[2] - SIZES[1])
        full_slope = (rows[2][1] - rows[1][1]) / (SIZES[2] - SIZES[1])
        assert cast_slope == 3  # item + quantity + its text
        assert full_slope == 9

    def test_paper_slopes_are_what_we_encode(self):
        from repro.workloads.purchase_orders import PAPER_TABLE3_NODES

        paper_cast_slope = (
            PAPER_TABLE3_NODES[1000][0] - PAPER_TABLE3_NODES[100][0]
        ) / 900
        paper_full_slope = (
            PAPER_TABLE3_NODES[1000][1] - PAPER_TABLE3_NODES[100][1]
        ) / 900
        assert paper_cast_slope == 12
        assert paper_full_slope == 15


class TestHarnessRunners:
    def test_table2_rows(self):
        rows = run_table2(item_counts=(2, 50))
        assert [row["items"] for row in rows] == [2, 50]
        assert all(row["bytes"] > 0 for row in rows)

    def test_table3_rows(self):
        rows = run_table3(item_counts=(2, 50))
        for row in rows:
            assert row["cast_nodes"] < row["full_nodes"]
            assert row["paper_cast"] < row["paper_full"]

    def test_tree_modifications_rows(self):
        rows = run_tree_modifications(
            item_count=20, edit_counts=(1, 5), repeat=1
        )
        assert rows[0]["cast_nodes"] < rows[1]["cast_nodes"]
        assert all(
            row["cast_nodes"] < row["full_nodes"] for row in rows
        )
        assert all(
            row["pair_state"] < row["preproc_cells"] for row in rows
        )

    def test_figure3_rows_time_the_text_routes(self):
        for run, report in ((run_experiment1, report_experiment1),
                            (run_experiment2, report_experiment2)):
            rows = run(item_counts=(2,), repeat=1)
            assert {"cast_ms", "full_ms", "cast_text_ms", "trusted_ms",
                    "validate_text_ms"} <= set(rows[0])
            assert "on text" in report(rows)

    def test_dtd_index_rows(self):
        rows = run_dtd_index(sizes=(5, 50), repeat=1)
        for row in rows:
            assert row["index_nodes"] <= row["tree_nodes"]
            assert row["tree_nodes"] < row["full_nodes"]

    def test_reports_render(self):
        from repro.bench.harness import (
            report_dtd_index,
            report_table2,
            report_table3,
            report_tree_modifications,
        )

        assert "Table 2" in report_table2(run_table2(item_counts=(2,)))
        assert "Table 3" in report_table3(run_table3(item_counts=(2,)))
        assert "A5" in report_tree_modifications(
            run_tree_modifications(item_count=5, edit_counts=(1,), repeat=1)
        )
        assert "A3" in report_dtd_index(run_dtd_index(sizes=(5,), repeat=1))


class TestAblationRunners:
    def test_string_cast_rows(self):
        from repro.bench.ablations import run_string_cast

        rows = run_string_cast(lengths=(10, 100))
        for row in rows:
            assert row["cast_symbols"] <= row["plain_symbols"] or (
                # disjoint case: plain rejects on symbol 1, cast at 0
                row["cast_symbols"] <= 1
            )

    def test_mods_position_rows(self):
        from repro.bench.ablations import run_mods_position

        rows = run_mods_position(length=200, positions=(0.0, 1.0))
        front, back = rows
        assert front["forward_symbols"] < front["reverse_symbols"]
        assert back["reverse_symbols"] < back["forward_symbols"]
        assert front["auto_choice"] == "forward"
        assert back["auto_choice"] == "reverse"

    def test_precompute_rows(self):
        from repro.bench.ablations import run_precompute

        rows = run_precompute(sizes=(4,), repeat=1)
        assert rows[0]["build_ms"] > 0
        assert rows[0]["r_sub"] >= 0
