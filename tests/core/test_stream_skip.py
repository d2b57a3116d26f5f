"""End-to-end skip-scan cast: subsumed subtrees through the full stack.

Every text cast (``cast_text``, and every file cast: ``cast_file``,
``repro cast`` and batches) skips *validating* subsumed subtrees and
drains them through the lexer; ``trusted=True`` byte-searches past
them instead.  Both must answer alike on well-formed text: identical
verdicts, failure reasons, Dewey paths and line/column positions.
Under test:

* verdict/reason/path identity between the default cast, the trusted
  byte search, ``stream_skip=False`` and the DOM cast, on the paper's
  experiment pairs and random pairs;
* error reporting *after* a skipped region (positions must not drift
  when the newline index is consulted past bytes the lexer never
  tokenized);
* the ``subtrees_skipped`` / ``bytes_skipped`` counters;
* resource guards (depth, size, deadline) firing inside a skipped
  subtree through the ``cast_text`` entry point;
* the zero-subsumption worst case: nothing skips, verdict unchanged;
* batch and module-level ``cast_text``/``cast_file`` routing;
* well-formedness faults hidden in the subtrees the cast never
  validates (:mod:`tests.skipfaults`): ``not well-formed`` from every
  entry point.
"""

import random
from dataclasses import replace

import pytest

from repro.core.batch import (
    discover_documents,
    validate_batch,
    validate_directory,
)
from repro.core.cast import CastValidator, cast_file, cast_text
from repro.core.validator import validate_text
from repro.core.memo import DEFAULT_MEMO_SIZE
from repro.errors import (
    DeadlineExceededError,
    DocumentTooDeepError,
    DocumentTooLargeError,
    XMLSyntaxError,
    error_code,
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
from repro.xmltree.events import iterparse
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize

from tests.skipfaults import faulty_orders

#: ``trusted`` — "hardened" is the default cast, which drains subsumed
#: subtrees with every well-formedness check.
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
        # Same skip decisions and the same counted work; only the
        # trusted search passes bytes by unread.
        assert skim.stats.subtrees_skipped == 3
        assert replace(skim.stats, bytes_skipped=0) == event.stats
        assert (skim.stats.bytes_skipped > 0) == trusted
        assert event.stats.bytes_skipped == 0

    @pytest.mark.parametrize("trusted", MODES)
    def test_exp2_value_failure_identical(self, exp2_pair, trusted):
        # quantity 150 is valid under the source (<200) but not the
        # target (<100): the cast fails at a simple value *after*
        # both address subtrees were skipped.
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
        assert skim.stats.subtrees_skipped > 0

    def test_identical_schemas_byte_skip_root(self, exp2_pair):
        pair = SchemaPair(exp2_pair.target, exp2_pair.target)
        text = po_text(50)
        report = cast_text(pair, text, trusted=True)
        assert report.valid
        assert report.stats.elements_visited == 0
        assert report.stats.subtrees_skipped == 1
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
    """Positions must not drift past a skipped subtree."""

    @pytest.mark.parametrize("trusted", MODES)
    def test_dewey_path_after_skimmed_siblings(self, exp2_pair, trusted):
        # Items 0..2 fine, item 3 has the bad quantity: its Dewey path
        # is computed after skipping shipTo and billTo (positions 0, 1)
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
        # Corrupt the root's close tag: the cast reaches it having
        # skipped every child subtree, yet must report the identical
        # line/column (the newline index covers the whole document,
        # tokenized or not).
        text = po_text(8).replace("</purchaseOrder>", "</purchaseOrderX>")
        event = cast_text(exp1_pair, text, stream_skip=False)
        skim = cast_text(exp1_pair, text, trusted=trusted)
        assert not event.valid and not skim.valid
        assert "mismatched close tag </purchaseOrderX>" in event.reason
        assert "line" in event.reason and "column" in event.reason
        assert skim.reason == event.reason

    def test_malformed_inside_skim_reports_position(self, exp1_pair):
        # Malformed markup *inside* a subsumed region: the drain
        # reports parse's typed, positioned syntax failure.
        text = po_text(3).replace("<city>", "<city <", 1)
        skim = cast_text(exp1_pair, text)
        assert not skim.valid
        assert skim.reason.startswith("not well-formed:")
        assert "line" in skim.reason and "column" in skim.reason
        with pytest.raises(XMLSyntaxError) as raised:
            parse(text)
        assert skim.reason == f"not well-formed: {raised.value}"


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
    """Limits must fire *inside* a skipped subtree via the entry
    points."""

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
        # The whole document is one skipped subtree (identical pair,
        # subsumed root); only the ticks inside it can stop it.
        pair = _identical_dtd_pair("<!ELEMENT a (a?)>", "a")
        with pytest.raises(DeadlineExceededError):
            cast_text(pair, deep_document(600),
                      limits=Limits(deadline_seconds=1e-9),
                      trusted=trusted)


class TestModuleEntryPoints:
    def test_cast_text_defaults_to_skip_scan(self, exp1_pair):
        # Skipped, not validated — and drained, not byte-searched.
        report = cast_text(exp1_pair, po_text())
        assert report.valid
        assert report.stats.subtrees_skipped == 3
        assert report.stats.bytes_skipped == 0

    def test_cast_text_event_mode(self, exp1_pair):
        # stream_skip=False turns the trusted byte search off.
        report = cast_text(exp1_pair, po_text(), stream_skip=False,
                           trusted=True)
        assert report.valid
        assert report.stats.subtrees_skipped == 3
        assert report.stats.bytes_skipped == 0

    def test_cast_file(self, exp1_pair, tmp_path):
        path = tmp_path / "po.xml"
        path.write_text(po_text(), encoding="utf-8")
        report = cast_file(exp1_pair, str(path))
        assert report.valid
        assert report.stats.subtrees_skipped == 3
        assert report.stats.bytes_skipped == 0

    def test_cast_file_trusted(self, exp1_pair, tmp_path):
        path = tmp_path / "po.xml"
        path.write_text(po_text(), encoding="utf-8")
        report = cast_file(exp1_pair, str(path), trusted=True)
        assert report.valid
        assert report.stats.bytes_skipped > 0


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
        assert skip.stats.subtrees_skipped > 0

    def test_broken_document_is_a_per_document_error(
        self, exp1_pair, corpus
    ):
        result = validate_directory(exp1_pair, str(corpus))
        by_name = {r.path.rsplit("/", 1)[-1]: r for r in result.results}
        broken = by_name["broken.xml"]
        assert not broken.ok
        assert broken.error_type  # typed error, not a crash
        assert by_name["ok0.xml"].ok  # neighbours unaffected


FAULTY = faulty_orders()


def parse_error(text: str) -> XMLSyntaxError:
    with pytest.raises(XMLSyntaxError) as raised:
        parse(text)
    return raised.value


class TestFaultsInSkippedSubtrees:
    """A subsumed subtree is skipped, not trusted: a fault ``parse``
    rejects is ``not well-formed`` wherever it hides."""

    @pytest.mark.parametrize("name", sorted(FAULTY))
    def test_cast_text_answers_as_parse(self, exp1_pair, name):
        text = FAULTY[name]
        report = cast_text(exp1_pair, text)
        assert not report.valid
        assert report.reason == f"not well-formed: {parse_error(text)}"

    @pytest.mark.parametrize("name", sorted(FAULTY))
    def test_cast_file_raises(self, exp1_pair, tmp_path, name):
        path = tmp_path / "po.xml"
        path.write_text(FAULTY[name], encoding="utf-8")
        with pytest.raises(XMLSyntaxError) as raised:
            cast_file(exp1_pair, str(path))
        expected = parse_error(FAULTY[name])
        assert type(raised.value) is type(expected)
        assert str(raised.value) == str(expected)

    def test_validate_batch_records_typed_errors(self, exp1_pair, tmp_path):
        for name, text in FAULTY.items():
            (tmp_path / f"{name}.xml").write_text(text, encoding="utf-8")
        result = validate_batch(
            exp1_pair, discover_documents(str(tmp_path))
        )
        assert len(result.results) == len(FAULTY)
        for entry in result.results:
            name = entry.path.rsplit("/", 1)[-1][: -len(".xml")]
            assert not entry.ok, name
            assert entry.error_code == error_code(
                parse_error(FAULTY[name])
            ), name


#: Markup that breaks a document wherever it is spliced in.
SPLICES = ["<", "</", "</x>", "&", "&bogus;", "&#xZZ;", "]]>",
           "<!-- -- -->", "<a b='1' b='2'>", "<![CDATA[", "<?pi", ">",
           "</item>", "<item>"]


class TestDrainDiagnostics:
    def test_kernel_and_events_report_as_parse(self, exp2_pair):
        """Truncated and spliced orders: drained whole under an
        identical pair (its root is subsumed), validated plainly, or
        read by the event parser, each is answered with parse's message
        at parse's line and column — a mismatched close tag names the
        element it fails to close, an unterminated element is reported
        where it starts."""
        pair = SchemaPair(exp2_pair.target, exp2_pair.target)
        rng = random.Random(0x5E7)
        orders = [po_text(1), po_text(4)]
        compared = 0
        for _ in range(600):
            text = rng.choice(orders)
            cut = rng.randrange(1, len(text))
            if rng.random() < 0.4:
                text = text[:cut]
            else:
                text = text[:cut] + rng.choice(SPLICES) + text[cut:]
            try:
                parse(text)
                continue
            except XMLSyntaxError as error:
                expected = str(error)
            drained = cast_text(pair, text)
            assert drained.reason == f"not well-formed: {expected}", text
            with pytest.raises(XMLSyntaxError) as plain:
                validate_text(exp2_pair.target, text)
            with pytest.raises(XMLSyntaxError) as events:
                list(iterparse(text))
            assert str(plain.value) == str(events.value) == expected, text
            compared += 1
        assert compared > 300
