"""Checkpoint journal: resumable batch runs with identical results.

The contract under test (:mod:`repro.core.checkpoint` plus the
``checkpoint=``/``resume=`` arguments of ``validate_batch``):

* a resumed run restores journaled verdicts without revalidating and
  its :class:`BatchResult` — verdicts, order, merged stats — equals an
  uninterrupted run's;
* restoration is keyed by path + mtime + size, so an edited document
  is revalidated, never served a stale verdict;
* a journal is bound to its schema pair and version; mismatches raise
  :class:`~repro.errors.BatchError`;
* a torn tail (interrupted mid-write) costs only the torn entry.
"""

import json
import os

import pytest

from repro.core.batch import validate_batch
from repro.core.checkpoint import (
    JOURNAL_MAGIC,
    JOURNAL_VERSION,
    CheckpointJournal,
)
from repro.errors import BatchError
from repro.schema.registry import SchemaPair
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.serializer import write_file


@pytest.fixture()
def exp2_fresh_pair(exp2_source, exp2_target):
    return SchemaPair(exp2_source, exp2_target)


def write_corpus(directory, count):
    paths = []
    for index in range(count):
        path = os.path.join(str(directory), f"doc{index:03d}.xml")
        write_file(make_purchase_order(1 + index % 3), path)
        paths.append(path)
    return paths


def journal_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


class TestJournalFile:
    def test_fresh_writes_header(self, tmp_path):
        journal_path = str(tmp_path / "ck.jsonl")
        with CheckpointJournal.fresh(journal_path, "pairkey") as journal:
            assert journal.restored == {}
        header = json.loads(journal_lines(journal_path)[0])
        assert header["journal"] == JOURNAL_MAGIC
        assert header["version"] == JOURNAL_VERSION
        assert header["pair_key"] == "pairkey"

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        journal_path = str(tmp_path / "absent.jsonl")
        with CheckpointJournal.resume(journal_path, "pairkey") as journal:
            assert journal.restored == {}
        assert os.path.exists(journal_path)

    def test_resume_rejects_foreign_file(self, tmp_path):
        journal_path = tmp_path / "not_a_journal.jsonl"
        journal_path.write_text("<xml>definitely not</xml>\n")
        with pytest.raises(BatchError, match="not a batch journal"):
            CheckpointJournal.resume(str(journal_path), "pairkey")

    def test_resume_rejects_pair_mismatch(self, tmp_path):
        journal_path = str(tmp_path / "ck.jsonl")
        CheckpointJournal.fresh(journal_path, "key-A").close()
        with pytest.raises(BatchError, match="different schema pair"):
            CheckpointJournal.resume(journal_path, "key-B")

    def test_resume_rejects_version_mismatch(self, tmp_path):
        journal_path = tmp_path / "ck.jsonl"
        journal_path.write_text(
            json.dumps(
                {
                    "journal": JOURNAL_MAGIC,
                    "version": JOURNAL_VERSION + 1,
                    "pair_key": "pairkey",
                }
            )
            + "\n"
        )
        with pytest.raises(BatchError, match="version"):
            CheckpointJournal.resume(str(journal_path), "pairkey")

    def test_torn_tail_is_tolerated(self, tmp_path):
        doc = tmp_path / "doc.xml"
        doc.write_text("<a/>")
        journal_path = str(tmp_path / "ck.jsonl")
        with CheckpointJournal.fresh(journal_path, "pairkey") as journal:
            journal.record(str(doc), {"path": str(doc), "valid": True}, None)
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"path": "torn-en')  # interrupted mid-write
        journal = CheckpointJournal.resume(journal_path, "pairkey")
        assert list(journal.restored) == [str(doc)]
        journal.close()

    def test_last_entry_wins(self, tmp_path):
        doc = tmp_path / "doc.xml"
        doc.write_text("<a/>")
        journal_path = str(tmp_path / "ck.jsonl")
        with CheckpointJournal.fresh(journal_path, "pairkey") as journal:
            journal.record(str(doc), {"valid": False}, None)
            journal.record(str(doc), {"valid": True}, None)
        journal = CheckpointJournal.resume(journal_path, "pairkey")
        assert journal.restored[str(doc)]["result"]["valid"] is True
        journal.close()

    def test_entry_for_edited_file_is_stale(self, tmp_path):
        doc = tmp_path / "doc.xml"
        doc.write_text("<a/>")
        journal_path = str(tmp_path / "ck.jsonl")
        with CheckpointJournal.fresh(journal_path, "pairkey") as journal:
            journal.record(str(doc), {"valid": True}, None)
        journal = CheckpointJournal.resume(journal_path, "pairkey")
        entry = journal.restored[str(doc)]
        assert journal.entry_is_current(entry)
        doc.write_text("<a>changed and longer</a>")
        assert not journal.entry_is_current(entry)
        journal.close()


class TestBatchResume:
    def test_resume_matches_uninterrupted_run(
        self, exp2_fresh_pair, tmp_path
    ):
        paths = write_corpus(tmp_path, 8)
        journal = str(tmp_path / "ck.jsonl")
        # "Interrupted" run: only half the corpus got validated.
        validate_batch(
            exp2_fresh_pair, paths[:4], collect_stats=True,
            checkpoint=journal,
        )
        resumed = validate_batch(
            exp2_fresh_pair, paths, collect_stats=True,
            checkpoint=journal, resume=True,
        )
        baseline = validate_batch(
            exp2_fresh_pair, paths, collect_stats=True
        )
        assert resumed.resumed == 4
        assert resumed.results == baseline.results
        assert resumed.stats == baseline.stats

    def test_resume_restores_error_verdicts_too(
        self, exp2_fresh_pair, tmp_path
    ):
        paths = write_corpus(tmp_path, 2)
        broken = str(tmp_path / "broken.xml")
        with open(broken, "w", encoding="utf-8") as handle:
            handle.write("<purchaseOrder><shipTo>")
        all_paths = sorted(paths + [broken])
        journal = str(tmp_path / "ck.jsonl")
        first = validate_batch(
            exp2_fresh_pair, all_paths, checkpoint=journal
        )
        again = validate_batch(
            exp2_fresh_pair, all_paths, checkpoint=journal, resume=True
        )
        assert again.resumed == 3
        assert again.results == first.results
        assert any(
            r.error_type == "XMLSyntaxError" for r in again.results
        )

    def test_edited_document_is_revalidated(
        self, exp2_fresh_pair, tmp_path
    ):
        paths = write_corpus(tmp_path, 3)
        journal = str(tmp_path / "ck.jsonl")
        validate_batch(exp2_fresh_pair, paths, checkpoint=journal)
        # Replace one document with new (still valid) content; force a
        # different size so the signature changes even on coarse mtime.
        write_file(make_purchase_order(7), paths[1])
        resumed = validate_batch(
            exp2_fresh_pair, paths, checkpoint=journal, resume=True
        )
        assert resumed.resumed == 2
        assert resumed.all_valid

    def test_without_resume_journal_starts_fresh(
        self, exp2_fresh_pair, tmp_path
    ):
        paths = write_corpus(tmp_path, 2)
        journal = str(tmp_path / "ck.jsonl")
        validate_batch(exp2_fresh_pair, paths, checkpoint=journal)
        rerun = validate_batch(exp2_fresh_pair, paths, checkpoint=journal)
        assert rerun.resumed == 0
        # Header + one line per document, no stale entries kept.
        assert len(journal_lines(journal)) == 1 + len(paths)

    def test_resume_requires_checkpoint(self, exp2_fresh_pair):
        with pytest.raises(ValueError, match="checkpoint"):
            validate_batch(exp2_fresh_pair, [], resume=True)

    def test_resume_with_parallel_completion(
        self, exp2_fresh_pair, tmp_path
    ):
        paths = write_corpus(tmp_path, 10)
        journal = str(tmp_path / "ck.jsonl")
        validate_batch(
            exp2_fresh_pair, paths[:5], collect_stats=True,
            checkpoint=journal,
        )
        resumed = validate_batch(
            exp2_fresh_pair, paths, jobs=3, collect_stats=True,
            checkpoint=journal, resume=True, chunk_size=1,
        )
        baseline = validate_batch(
            exp2_fresh_pair, paths, collect_stats=True
        )
        assert resumed.resumed == 5
        assert resumed.results == baseline.results
        assert resumed.stats == baseline.stats

    def test_journal_records_survive_for_next_resume(
        self, exp2_fresh_pair, tmp_path
    ):
        # Resume twice: entries restored by one resumed run are still
        # journaled for the next (restored entries are re-recorded or
        # retained — either way the journal stays complete).
        paths = write_corpus(tmp_path, 4)
        journal = str(tmp_path / "ck.jsonl")
        validate_batch(exp2_fresh_pair, paths[:2], checkpoint=journal)
        validate_batch(
            exp2_fresh_pair, paths, checkpoint=journal, resume=True
        )
        third = validate_batch(
            exp2_fresh_pair, paths, checkpoint=journal, resume=True
        )
        assert third.resumed == 4
