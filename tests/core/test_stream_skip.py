"""End-to-end skip-scan cast: byte skips through the full stack.

The skip-scan path (``cast_text(stream_skip=True)``, and every file
cast: ``cast_file``, ``repro cast`` and batches) must be a pure
performance move: identical
verdicts, identical failure reasons, identical Dewey paths and
line/column positions — it only changes *how much of the document is
ever tokenized*.  Under test:

* verdict/reason/path identity against the token-draining cast
  (``stream_skip=False``) and the DOM cast, on the paper's experiment
  pairs and random pairs;
* error reporting *after* a skimmed region (the satellite regression:
  positions must not drift when the newline index is consulted past
  bytes the lexer never tokenized);
* the new ``subtrees_byte_skipped`` / ``bytes_skipped`` counters;
* resource guards (depth, size, deadline) firing inside a byte skim
  through the ``cast_text`` entry point;
* the zero-subsumption worst case: nothing skips, verdict unchanged;
* batch and module-level ``cast_text``/``cast_file`` routing.
"""

import random

import pytest

from repro.core.batch import (
    discover_documents,
    validate_batch,
    validate_directory,
)
from repro.core.cast import CastValidator, cast_file, cast_text
from repro.core.memo import DEFAULT_MEMO_SIZE
from repro.errors import (
    DeadlineExceededError,
    DocumentTooDeepError,
    DocumentTooLargeError,
)
from repro.guards import Limits
from repro.schema.dtd import parse_dtd
from repro.schema.registry import SchemaPair
from repro.workloads.adversarial import deep_document, wide_document
from repro.workloads.generators import random_schema, sample_document
from repro.workloads.mutations import perturb_schema
from repro.workloads.purchase_orders import (
    make_purchase_order,
    source_schema_zero_subsumption,
    target_schema_zero_subsumption,
)
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize

MODES = [
    pytest.param(False, id="hardened"),
    pytest.param(True, id="trusted"),
]


def po_text(items: int = 5, **kwargs) -> str:
    return serialize(make_purchase_order(items, **kwargs), indent="  ")


class TestVerdictEquivalence:
    @pytest.mark.parametrize("trusted", MODES)
    def test_exp1_valid(self, exp1_pair, trusted):
        text = po_text(10)
        event = cast_text(exp1_pair, text, stream_skip=False)
        skim = cast_text(exp1_pair, text, trusted=trusted)
        assert event.valid and skim.valid
        # Same skip decisions, only executed at the byte level.
        assert (
            skim.stats.subtrees_skipped == event.stats.subtrees_skipped
        )
        assert (
            skim.stats.subtrees_byte_skipped
            == skim.stats.subtrees_skipped
        )
        assert skim.stats.bytes_skipped > 0
        assert event.stats.subtrees_byte_skipped == 0
        assert event.stats.bytes_skipped == 0

    @pytest.mark.parametrize("trusted", MODES)
    def test_exp2_value_failure_identical(self, exp2_pair, trusted):
        # quantity 150 is valid under the source (<200) but not the
        # target (<100): the cast fails at a simple value *after*
        # both address subtrees were byte-skipped.
        text = po_text(4, quantity_of=lambda index: 150)
        dom = CastValidator(exp2_pair).validate(parse(text))
        event = cast_text(exp2_pair, text, stream_skip=False)
        skim = cast_text(exp2_pair, text, trusted=trusted)
        assert not dom.valid
        assert (skim.valid, skim.reason, skim.path) == (
            event.valid,
            event.reason,
            event.path,
        )
        assert (dom.valid, dom.reason, dom.path) == (
            event.valid,
            event.reason,
            event.path,
        )
        assert skim.stats.subtrees_byte_skipped > 0

    def test_identical_schemas_byte_skip_root(self, exp2_pair):
        pair = SchemaPair(exp2_pair.target, exp2_pair.target)
        text = po_text(50)
        report = cast_text(pair, text)
        assert report.valid
        assert report.stats.elements_visited == 0
        assert report.stats.subtrees_byte_skipped == 1
        # Everything but the root's own start tag was skimmed.
        assert report.stats.bytes_skipped >= len(text) - len(
            "<purchaseOrder>\n"
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_random_agreement(self, seed):
        rng = random.Random(75_000 + seed)
        for _ in range(40):
            try:
                source = random_schema(rng)
            except Exception:
                continue
            doc = sample_document(rng, source, max_depth=6)
            if doc is None:
                continue
            try:
                target = (
                    perturb_schema(rng, source)
                    if rng.random() < 0.5
                    else random_schema(rng)
                )
                pair = SchemaPair(source, target)
            except Exception:
                continue
            text = serialize(doc, indent="  ")
            event = cast_text(pair, text, stream_skip=False)
            skim = cast_text(pair, text)
            assert (skim.valid, skim.reason, skim.path) == (
                event.valid,
                event.reason,
                event.path,
            ), seed
            dom_verdict = CastValidator(pair).validate(parse(text))
            assert dom_verdict.valid == skim.valid, seed
            return
        pytest.skip("no usable pair")


class TestErrorReportingAfterSkip:
    """Satellite regression: positions must not drift past a skim."""

    @pytest.mark.parametrize("trusted", MODES)
    def test_dewey_path_after_skimmed_siblings(self, exp2_pair, trusted):
        # Items 0..2 fine, item 3 has the bad quantity: its Dewey path
        # is computed after skimming shipTo and billTo (positions 0, 1)
        # and three full item subtrees.
        text = po_text(
            6, quantity_of=lambda index: 150 if index == 3 else 7
        )
        event = cast_text(exp2_pair, text, stream_skip=False)
        skim = cast_text(exp2_pair, text, trusted=trusted)
        assert not event.valid
        assert skim.path == event.path
        assert skim.reason == event.reason
        # The path's leading steps index *past* the skimmed regions.
        assert event.path.startswith("2.3.")

    @pytest.mark.parametrize("trusted", MODES)
    def test_syntax_error_line_column_after_skim(self, exp1_pair, trusted):
        # Corrupt the root's close tag: the skip-scan path reaches it
        # having byte-skimmed every child subtree, yet must report the
        # identical line/column (the newline index covers the whole
        # document, tokenized or not).
        text = po_text(8).replace("</purchaseOrder>", "</purchaseOrderX>")
        event = cast_text(exp1_pair, text, stream_skip=False)
        skim = cast_text(exp1_pair, text, trusted=trusted)
        assert not event.valid and not skim.valid
        assert "mismatched close tag </purchaseOrderX>" in event.reason
        assert "line" in event.reason and "column" in event.reason
        assert skim.reason == event.reason

    def test_malformed_inside_skim_reports_position(self, exp1_pair):
        # Malformed markup *inside* a skimmed region: the hardened skim
        # still reports a typed, positioned syntax failure.
        text = po_text(3).replace("<city>", "<city <", 1)
        skim = cast_text(exp1_pair, text)
        assert not skim.valid
        assert skim.reason.startswith("not well-formed:")
        assert "line" in skim.reason and "column" in skim.reason


class TestZeroSubsumption:
    def test_nothing_skips_but_verdict_holds(self):
        pair = SchemaPair(
            source_schema_zero_subsumption(),
            target_schema_zero_subsumption(),
        )
        text = po_text(10)
        event = cast_text(pair, text, stream_skip=False)
        skim = cast_text(pair, text)
        assert event.valid and skim.valid
        assert skim.stats.subtrees_skipped == 0
        assert skim.stats.subtrees_byte_skipped == 0
        assert skim.stats.bytes_skipped == 0
        assert (
            skim.stats.simple_values_checked
            == event.stats.simple_values_checked
        )


def _identical_dtd_pair(dtd: str, root: str) -> SchemaPair:
    return SchemaPair(
        parse_dtd(dtd, roots=[root]), parse_dtd(dtd, roots=[root])
    )


class TestGuardsThroughTheStack:
    """Limits must fire *inside* a byte skim via the entry points."""

    @pytest.mark.parametrize("trusted", MODES)
    def test_depth_limit(self, trusted):
        pair = _identical_dtd_pair("<!ELEMENT a (a?)>", "a")
        limits = Limits(max_tree_depth=50)
        text = deep_document(200)
        with pytest.raises(DocumentTooDeepError):
            cast_text(pair, text, limits=limits, trusted=trusted)
        # Parity: the token-draining path trips the same guard.
        with pytest.raises(DocumentTooDeepError):
            cast_text(pair, text, limits=limits, stream_skip=False)

    def test_document_size_limit(self):
        pair = _identical_dtd_pair(
            "<!ELEMENT a (b*)><!ELEMENT b (#PCDATA)>", "a"
        )
        with pytest.raises(DocumentTooLargeError):
            cast_text(pair, wide_document(50),
                      limits=Limits(max_document_bytes=64))

    @pytest.mark.parametrize("trusted", MODES)
    def test_deadline_fires_during_root_skim(self, trusted):
        # The whole document is one skim (identical pair, subsumed
        # root); only the per-skimmed-tag deadline ticks can stop it.
        pair = _identical_dtd_pair("<!ELEMENT a (a?)>", "a")
        with pytest.raises(DeadlineExceededError):
            cast_text(pair, deep_document(600),
                      limits=Limits(deadline_seconds=1e-9),
                      trusted=trusted)


class TestModuleEntryPoints:
    def test_cast_text_defaults_to_skip_scan(self, exp1_pair):
        report = cast_text(exp1_pair, po_text())
        assert report.valid
        assert report.stats.subtrees_byte_skipped > 0

    def test_cast_text_event_mode(self, exp1_pair):
        report = cast_text(exp1_pair, po_text(), stream_skip=False)
        assert report.valid
        assert report.stats.subtrees_byte_skipped == 0

    def test_cast_file(self, exp1_pair, tmp_path):
        path = tmp_path / "po.xml"
        path.write_text(po_text(), encoding="utf-8")
        report = cast_file(exp1_pair, str(path))
        assert report.valid
        assert report.stats.bytes_skipped > 0

    def test_cast_file_trusted(self, exp1_pair, tmp_path):
        path = tmp_path / "po.xml"
        path.write_text(po_text(), encoding="utf-8")
        report = cast_file(exp1_pair, str(path), trusted=True)
        assert report.valid


class TestBatchStreamSkip:
    @pytest.fixture()
    def corpus(self, tmp_path):
        for index in range(3):
            (tmp_path / f"ok{index}.xml").write_text(
                po_text(2 + index), encoding="utf-8"
            )
        (tmp_path / "nobill.xml").write_text(
            po_text(2, with_billto=False), encoding="utf-8"
        )
        (tmp_path / "broken.xml").write_text(
            "<purchaseOrder><shipTo>", encoding="utf-8"
        )
        return tmp_path

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_verdicts_match_dom_batch(self, exp1_pair, corpus, jobs):
        # The default batch runs the kernel; memo_size opts into the
        # DOM route (parse, then CastValidator with the memo).
        skip = validate_directory(
            exp1_pair, str(corpus), jobs=jobs, collect_stats=True,
        )
        dom = validate_batch(
            exp1_pair, discover_documents(str(corpus)), jobs=jobs,
            memo_size=DEFAULT_MEMO_SIZE,
        )
        assert [
            (r.path, r.ok, r.reason, r.error_code) for r in skip.results
        ] == [(r.path, r.ok, r.reason, r.error_code) for r in dom.results]
        assert skip.valid_count == 3
        assert skip.stats.subtrees_byte_skipped > 0

    def test_broken_document_is_a_per_document_error(
        self, exp1_pair, corpus
    ):
        result = validate_directory(exp1_pair, str(corpus))
        by_name = {r.path.rsplit("/", 1)[-1]: r for r in result.results}
        broken = by_name["broken.xml"]
        assert not broken.ok
        assert broken.error_type  # typed error, not a crash
        assert by_name["ok0.xml"].ok  # neighbours unaffected
