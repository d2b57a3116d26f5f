"""Memoized pair-validation: correctness of the verdict cache.

The load-bearing claim is equivalence: with or without a
:class:`~repro.core.memo.ValidationMemo`, the cast must return the same
verdict on every document.  That edits invalidate the structural hashes
the memo keys on is tested with the update session
(``tests/core/test_updates.py``).
"""

import random

import pytest

from repro.core.batch import validate_batch
from repro.core.cast import CastValidator
from repro.core.memo import DEFAULT_MEMO_SIZE, ValidationMemo
from repro.errors import SchemaError
from repro.guards import Limits
from repro.schema import artifacts
from repro.schema.registry import SchemaPair
from repro.workloads.generators import random_schema, sample_document
from repro.workloads.purchase_orders import (
    make_item,
    make_purchase_order,
    source_schema_experiment2,
    target_schema_experiment2,
)
from repro.xmltree.serializer import write_file


class TestValidationMemo:
    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError):
            ValidationMemo(0)
        with pytest.raises(ValueError):
            ValidationMemo(-5)

    def test_default_capacity(self):
        assert ValidationMemo().capacity == DEFAULT_MEMO_SIZE

    def test_limits_clamp_capacity(self):
        limits = Limits(max_memo_entries=3)
        assert ValidationMemo(100, limits=limits).capacity == 3
        assert ValidationMemo(2, limits=limits).capacity == 2

    def test_hit_miss_counters(self):
        memo = ValidationMemo(4)
        assert not memo.contains("a")
        memo.add("a")
        assert memo.contains("a")
        assert (memo.hits, memo.misses) == (1, 1)
        assert memo.lookups == 2
        assert memo.hit_rate == 0.5

    def test_eviction_is_lru_ordered(self):
        memo = ValidationMemo(2)
        memo.add("a")
        memo.add("b")
        memo.add("c")  # evicts a, the least recently used
        assert memo.evictions == 1
        assert not memo.contains("a")
        assert memo.contains("b")
        assert memo.contains("c")

    def test_contains_refreshes_lru_order(self):
        memo = ValidationMemo(2)
        memo.add("a")
        memo.add("b")
        assert memo.contains("a")  # a becomes most recently used
        memo.add("c")  # now b is the eviction victim
        assert memo.contains("a")
        assert not memo.contains("b")

    def test_re_adding_does_not_evict(self):
        memo = ValidationMemo(2)
        memo.add("a")
        memo.add("b")
        memo.add("a")
        assert memo.evictions == 0
        assert memo.contains("a")
        assert memo.contains("b")

    def test_bind_first_caller_wins(self):
        memo = ValidationMemo(4)
        pair = object()
        assert memo.bind(pair) is memo
        assert memo.bind(pair) is memo
        with pytest.raises(ValueError):
            memo.bind(object())

    def test_clear_drops_entries_keeps_counters(self):
        memo = ValidationMemo(4)
        memo.add("a")
        assert memo.contains("a")
        memo.clear()
        assert not memo.contains("a")
        assert (memo.hits, memo.misses) == (1, 1)

    def test_snapshot(self):
        memo = ValidationMemo(1)
        memo.add("a")
        memo.contains("a")
        memo.contains("b")
        memo.add("b")  # evicts a
        assert memo.snapshot() == (1, 1, 1)


def repetitive_po(item_count: int = 40, shapes: int = 4):
    document = make_purchase_order(0)
    items = document.root.find("items")
    for index in range(item_count):
        items.append(
            make_item(index % shapes, quantity=1 + index % shapes)
        )
    return document


class TestMemoizedCast:
    @pytest.fixture()
    def pair(self, exp2_pair):
        return exp2_pair

    def test_duplicate_subtrees_hit(self, pair):
        memo = ValidationMemo()
        validator = CastValidator(pair, collect_stats=True, memo=memo)
        report = validator.validate(repetitive_po())
        assert report.valid
        assert report.stats.memo_hits > 0
        assert report.stats.memo_misses > 0
        assert memo.hits == report.stats.memo_hits

    def test_memo_reduces_elements_visited(self, pair):
        document = repetitive_po()
        plain = CastValidator(pair, collect_stats=True).validate(document)
        memoized = CastValidator(
            pair, collect_stats=True, memo=ValidationMemo()
        ).validate(document)
        assert plain.valid and memoized.valid
        assert (
            memoized.stats.elements_visited < plain.stats.elements_visited
        )

    def test_fast_path_reports_memo_stats(self, pair):
        memo = ValidationMemo()
        validator = CastValidator(pair, collect_stats=False, memo=memo)
        report = validator.validate(repetitive_po())
        assert report.valid
        assert report.stats is not None
        assert report.stats.memo_hits > 0

    def test_per_document_stats_are_deltas(self, pair):
        memo = ValidationMemo()
        validator = CastValidator(pair, collect_stats=True, memo=memo)
        first = validator.validate(repetitive_po())
        second = validator.validate(repetitive_po())
        # The second document is structurally identical, so its root
        # subtree hits immediately; its counters must not include the
        # first document's misses.
        assert second.stats.memo_hits >= 1
        assert second.stats.memo_misses < first.stats.memo_misses
        total = first.stats.memo_lookups + second.stats.memo_lookups
        assert memo.lookups == total

    def test_failure_not_cached(self, exp1_pair):
        memo = ValidationMemo()
        validator = CastValidator(
            exp1_pair, collect_stats=True, memo=memo
        )
        bad = make_purchase_order(3, with_billto=False)
        first = validator.validate(bad)
        second = validator.validate(bad)
        assert not first.valid and not second.valid
        assert first.reason == second.reason
        assert first.path == second.path

    def test_tiny_capacity_still_correct(self, pair):
        document = repetitive_po()
        plain = CastValidator(pair, collect_stats=True).validate(document)
        memoized = CastValidator(
            pair, collect_stats=True, memo=ValidationMemo(2)
        ).validate(document)
        assert plain.valid == memoized.valid

    def test_memo_binds_to_validator_pair(self, pair):
        memo = ValidationMemo()
        CastValidator(pair, memo=memo)
        other = SchemaPair(
            source_schema_experiment2(), target_schema_experiment2()
        )
        with pytest.raises(ValueError):
            CastValidator(other, memo=memo)


class TestPropertyEquivalence:
    """Memoized == unmemoized on generated schema pairs and corpora."""

    def sample_corpus(self, seed: int, documents: int = 6):
        rng = random.Random(seed)
        while True:
            try:
                source = random_schema(rng, name="src")
                target = random_schema(rng, name="tgt")
                break
            except SchemaError:
                continue
        corpus = []
        attempts = 0
        while len(corpus) < documents and attempts < documents * 20:
            attempts += 1
            document = sample_document(rng, source)
            if document is not None:
                corpus.append(document)
        return SchemaPair(source, target), corpus

    @pytest.mark.parametrize("seed", [11, 23, 37, 59])
    def test_verdicts_identical(self, seed):
        pair, corpus = self.sample_corpus(seed)
        plain = CastValidator(pair, collect_stats=True)
        fast = CastValidator(pair, collect_stats=False)
        memo = ValidationMemo()
        memoized = CastValidator(pair, collect_stats=True, memo=memo)
        memo_fast = CastValidator(
            pair, collect_stats=False, memo=ValidationMemo()
        )
        for document in corpus:
            expected = plain.validate(document)
            for validator in (fast, memoized, memo_fast):
                report = validator.validate(document)
                assert report.valid == expected.valid
                if not expected.valid:
                    assert report.path == expected.path


class TestBatchMemo:
    @pytest.fixture()
    def fresh_pair(self):
        return SchemaPair(
            source_schema_experiment2(), target_schema_experiment2()
        )

    @pytest.fixture()
    def corpus(self, tmp_path):
        paths = []
        for index in range(6):
            document = make_purchase_order(4)
            path = tmp_path / f"po{index}.xml"
            write_file(document, str(path))
            paths.append(str(path))
        return paths

    def test_memoized_batch_matches_plain(self, fresh_pair, corpus):
        plain = validate_batch(fresh_pair, corpus, jobs=1)
        memoized = validate_batch(
            fresh_pair, corpus, jobs=1, memo_size=1024
        )
        assert [r.valid for r in plain.results] == [
            r.valid for r in memoized.results
        ]
        assert memoized.stats is not None
        # Documents 2..6 are structural duplicates of document 1.
        assert memoized.stats.memo_hits >= len(corpus) - 1

    def test_memoized_parallel_batch(self, fresh_pair, corpus):
        memoized = validate_batch(
            fresh_pair, corpus, jobs=2, memo_size=1024
        )
        assert memoized.all_valid
        assert memoized.stats is not None
        assert memoized.stats.memo_lookups > 0

    def test_artifact_path_batch(self, fresh_pair, corpus, tmp_path):
        fresh_pair.warm()
        artifact = tmp_path / "pair.pkl"
        artifacts.save(fresh_pair, str(artifact))
        batch = validate_batch(
            fresh_pair,
            corpus,
            jobs=2,
            memo_size=1024,
            artifact_path=str(artifact),
        )
        assert batch.all_valid
        assert batch.stats is not None and batch.stats.memo_hits > 0
