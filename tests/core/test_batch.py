"""Parallel batch validation: verdicts and stats must not depend on jobs."""

import os

import pytest

from repro.core.batch import validate_batch, validate_directory
from repro.core.cast import cast_file
from repro.core.result import ValidationStats
from repro.errors import XMLSyntaxError
from repro.schema.registry import SchemaPair
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.serializer import write_file


@pytest.fixture()
def po_corpus(tmp_path, exp2_source):
    """A directory of purchase orders, two of which are invalid."""
    paths = []
    for index, items in enumerate([1, 2, 3, 5, 8, 13]):
        document = make_purchase_order(items)
        path = str(tmp_path / f"po{index}.xml")
        write_file(document, path)
        paths.append(path)
    # Two broken documents: one violating the target quantity facet
    # (valid under the source schema — the interesting cast failure),
    # one cut short after a promise-keeping prefix (not well-formed).
    bad = make_purchase_order(2)
    for item in bad.root.children[-1].children:
        for child in item.children:
            if child.label == "quantity":
                child.children[0].value = "150"  # >= exp2 target bound
    bad_path = str(tmp_path / "po_bad.xml")
    write_file(bad, bad_path)
    paths.append(bad_path)
    broken_path = str(tmp_path / "po_broken.xml")
    with open(broken_path, "w", encoding="utf-8") as handle:
        handle.write("<purchaseOrder><shipTo>")
    paths.append(broken_path)
    return sorted(paths)


@pytest.fixture()
def exp2_fresh_pair(exp2_source, exp2_target):
    # A fresh pair per test: session-scoped fixtures must not leak
    # warmed caches between parallel and sequential runs.
    return SchemaPair(exp2_source, exp2_target)


class TestJobsEquivalence:
    def test_parallel_verdicts_match_sequential(
        self, exp2_fresh_pair, po_corpus
    ):
        sequential = validate_batch(exp2_fresh_pair, po_corpus, jobs=1)
        parallel = validate_batch(exp2_fresh_pair, po_corpus, jobs=4)
        assert [
            (result.path, result.valid, bool(result.error))
            for result in sequential.results
        ] == [
            (result.path, result.valid, bool(result.error))
            for result in parallel.results
        ]
        assert sequential.valid_count == parallel.valid_count == 6
        assert not sequential.all_valid

    def test_merged_stats_equal_sequential_sum(
        self, exp2_fresh_pair, po_corpus
    ):
        batch = validate_batch(
            exp2_fresh_pair, po_corpus, jobs=4, collect_stats=True
        )
        # The ground truth: cast each well-formed document one at a
        # time and merge by hand.
        expected = ValidationStats()
        for path in po_corpus:
            try:
                expected.merge(cast_file(exp2_fresh_pair, path).stats)
            except XMLSyntaxError:
                continue
        assert batch.stats == expected

    def test_stats_off_by_default(self, exp2_fresh_pair, po_corpus):
        batch = validate_batch(exp2_fresh_pair, po_corpus, jobs=1)
        assert batch.stats is None


class TestBatchSemantics:
    def test_parse_failure_is_reported_not_fatal(
        self, exp2_fresh_pair, po_corpus
    ):
        batch = validate_batch(exp2_fresh_pair, po_corpus, jobs=1)
        by_name = {
            os.path.basename(result.path): result for result in batch.results
        }
        assert by_name["po_broken.xml"].error
        assert not by_name["po_broken.xml"].ok
        assert by_name["po_bad.xml"].reason  # cast failure, not an error
        assert batch.total == len(po_corpus)

    def test_results_sorted_by_path(self, exp2_fresh_pair, po_corpus):
        batch = validate_batch(
            exp2_fresh_pair, list(reversed(po_corpus)), jobs=4
        )
        assert [result.path for result in batch.results] == po_corpus

    def test_validate_directory_filters_by_pattern(
        self, exp2_fresh_pair, po_corpus, tmp_path
    ):
        (tmp_path / "notes.txt").write_text("not xml")
        batch = validate_directory(
            exp2_fresh_pair, str(tmp_path), jobs=1
        )
        assert [result.path for result in batch.results] == po_corpus

    def test_jobs_must_be_positive(self, exp2_fresh_pair):
        with pytest.raises(ValueError):
            validate_batch(exp2_fresh_pair, [], jobs=0)

    def test_empty_batch(self, exp2_fresh_pair):
        batch = validate_batch(exp2_fresh_pair, [], jobs=4)
        assert batch.total == 0 and batch.all_valid


class TestRecursiveDiscovery:
    @pytest.fixture()
    def nested_corpus(self, tmp_path):
        """Documents sharded over nested directories, plus decoys."""
        layout = {
            "top.xml": 1,
            "shard_b/doc1.xml": 2,
            "shard_b/doc2.xml": 3,
            "shard_a/deep/leaf.xml": 2,
        }
        paths = []
        for relative, items in layout.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            write_file(make_purchase_order(items), str(path))
            paths.append(str(path))
        (tmp_path / "shard_b" / "notes.txt").write_text("not xml")
        (tmp_path / "dir.xml").mkdir()  # directory with a matching name
        return sorted(paths)

    def test_default_stays_top_level(
        self, exp2_fresh_pair, nested_corpus, tmp_path
    ):
        batch = validate_directory(exp2_fresh_pair, str(tmp_path))
        assert [os.path.basename(r.path) for r in batch.results] == [
            "top.xml"
        ]

    def test_recursive_finds_the_whole_tree(
        self, exp2_fresh_pair, nested_corpus, tmp_path
    ):
        batch = validate_directory(
            exp2_fresh_pair, str(tmp_path), recursive=True
        )
        assert [r.path for r in batch.results] == nested_corpus
        assert batch.all_valid

    def test_recursive_ordering_is_deterministic(
        self, exp2_fresh_pair, nested_corpus, tmp_path
    ):
        from repro.core.batch import discover_documents

        first = discover_documents(str(tmp_path), recursive=True)
        second = discover_documents(str(tmp_path), recursive=True)
        assert first == second == nested_corpus

    def test_recursive_respects_pattern(
        self, exp2_fresh_pair, nested_corpus, tmp_path
    ):
        from repro.core.batch import discover_documents

        assert discover_documents(
            str(tmp_path), pattern="leaf.*", recursive=True
        ) == [str(tmp_path / "shard_a" / "deep" / "leaf.xml")]

    def test_recursive_parallel_matches_serial(
        self, exp2_fresh_pair, nested_corpus, tmp_path
    ):
        serial = validate_directory(
            exp2_fresh_pair, str(tmp_path), recursive=True, jobs=1
        )
        parallel = validate_directory(
            exp2_fresh_pair, str(tmp_path), recursive=True, jobs=3
        )
        assert serial.results == parallel.results
