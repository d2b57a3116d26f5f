"""Tests for the bench table renderer and result types."""

import json
import os

from repro.bench.reporting import (
    render_csv,
    render_table,
    update_bench_json,
)
from repro.core.result import ValidationReport, ValidationStats


class TestRenderTable:
    def test_title_and_alignment(self):
        table = render_table(
            "Demo", ["col", "value"], [["a", 1], ["bb", 22]]
        )
        lines = table.splitlines()
        assert lines[0] == "== Demo =="
        assert "col" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_number_formatting(self):
        table = render_table(
            "N", ["v"], [[1234567], [3.14159], [0.00123], [250.0]]
        )
        assert "1,234,567" in table
        assert "3.14" in table
        assert "0.0012" in table
        assert "250" in table

    def test_note_appended(self):
        table = render_table("T", ["a"], [[1]], note="context")
        assert table.endswith("note: context")

    def test_empty_rows(self):
        table = render_table("T", ["a", "b"], [])
        assert "== T ==" in table


class TestRenderCsv:
    def test_csv_shape(self):
        csv = render_csv(["x", "y"], [[1, 2], [3, 4]])
        assert csv.splitlines() == ["x,y", "1,2", "3,4"]


class TestValidationStats:
    def test_merge_accumulates_all_counters(self):
        left = ValidationStats(
            elements_visited=1,
            text_nodes_visited=2,
            content_symbols_scanned=3,
            simple_values_checked=4,
            subtrees_skipped=5,
            disjoint_rejections=6,
            early_content_decisions=7,
            deltas_seen=8,
        )
        right = ValidationStats(elements_visited=10, deltas_seen=1)
        left.merge(right)
        assert left.elements_visited == 11
        assert left.deltas_seen == 9
        assert left.nodes_visited == 11 + 2

    def test_report_truthiness(self):
        assert ValidationReport.success()
        assert not ValidationReport.failure("boom")

    def test_failure_carries_path_and_reason(self):
        report = ValidationReport.failure("broken", path="1.2")
        assert report.reason == "broken"
        assert report.path == "1.2"
        assert "invalid" in repr(report)

    def test_success_repr(self):
        assert "valid" in repr(ValidationReport.success())

    def test_merge_accumulates_memo_counters(self):
        left = ValidationStats(memo_hits=3, memo_misses=1)
        left.merge(ValidationStats(memo_hits=2, memo_misses=4,
                                   memo_evictions=5))
        assert left.memo_hits == 5
        assert left.memo_misses == 5
        assert left.memo_evictions == 5
        assert left.memo_lookups == 10
        assert left.memo_hit_rate == 0.5

    def test_as_dict_covers_every_counter(self):
        stats = ValidationStats(elements_visited=2, memo_hits=1)
        data = stats.as_dict()
        assert data["elements_visited"] == 2
        assert data["memo_hits"] == 1
        assert set(data) >= {"memo_misses", "memo_evictions"}


class TestUpdateBenchJson:
    def test_creates_fresh_file(self, tmp_path):
        path = tmp_path / "bench.json"
        update_bench_json(
            str(path), {"a": {"speedup": 2.0}}, source="s.py"
        )
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert data["results"]["a"] == {
            "speedup": 2.0,
            "source": "s.py",
            "cpu_count": os.cpu_count(),
            "kernel_backend": "py",
        }

    def test_every_record_carries_provenance_stamps(self, tmp_path):
        # Scaling numbers are meaningless without the core count they
        # were measured on; the writer stamps it, and the kernel
        # backend, unconditionally.
        path = tmp_path / "bench.json"
        update_bench_json(
            str(path), {"a": {"x": 1}, "b": {"y": 2}}, source="s.py"
        )
        results = json.loads(path.read_text())["results"]
        for record in results.values():
            assert record["cpu_count"] == os.cpu_count()
            assert record["kernel_backend"] == "py"

    def test_merge_preserves_other_records(self, tmp_path):
        path = tmp_path / "bench.json"
        update_bench_json(str(path), {"a": {"x": 1}}, source="one.py")
        update_bench_json(str(path), {"b": {"y": 2}}, source="two.py")
        results = json.loads(path.read_text())["results"]
        assert results["a"]["x"] == 1
        assert results["a"]["source"] == "one.py"
        assert results["b"]["y"] == 2
        assert results["b"]["source"] == "two.py"

    def test_rewrite_overwrites_same_record(self, tmp_path):
        path = tmp_path / "bench.json"
        update_bench_json(str(path), {"a": {"x": 1}}, source="s.py")
        update_bench_json(str(path), {"a": {"x": 9}}, source="s.py")
        results = json.loads(path.read_text())["results"]
        assert results["a"]["x"] == 9

    def test_corrupt_file_started_fresh(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        update_bench_json(str(path), {"a": {"x": 1}}, source="s.py")
        data = json.loads(path.read_text())
        assert data["results"]["a"]["x"] == 1

    def test_wrong_shape_started_fresh(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(["not", "a", "dict"]))
        update_bench_json(str(path), {"a": {"x": 1}}, source="s.py")
        assert json.loads(path.read_text())["results"]["a"]["x"] == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "bench.json"
        update_bench_json(str(path), {"a": {"x": 1}}, source="s.py")
        assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]
