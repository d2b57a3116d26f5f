"""Uncounted runs (``collect_stats=False``) must agree with counted runs
on every verdict — the counters are the only permitted difference.

Each semantics has one walk that counts only when handed a
``ValidationStats``, so these tests pin the two modes of the same code:
the tree cast, plain validation, the DTD cast and the cast with
modifications."""

import random

import pytest

from repro.core.cast import CastValidator
from repro.core.castmods import CastWithModificationsValidator
from repro.core.dtdcast import DTDCastValidator
from repro.core.updates import UpdateSession
from repro.core.validator import validate_document
from repro.schema.dtd import parse_dtd
from repro.schema.registry import SchemaPair
from repro.workloads.generators import random_schema, sample_document
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.dom import Text
from repro.xmltree.parser import parse


def mutate_quantities(document, value):
    """Set every quantity leaf to ``value`` (drives facet failures)."""
    for item in document.root.find("items").children:
        for child in item.children:
            if child.label == "quantity":
                child.children[0].value = value
    return document


def sampled_pair_corpus(seed, pairs=4, docs_per_pair=4):
    """Random (pair, documents) workloads; documents are valid under the
    source schema, so the cast promise holds."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < pairs:
        try:
            source = random_schema(rng, num_labels=5, num_complex=4)
            target = random_schema(rng, num_labels=5, num_complex=4)
        except Exception:
            continue
        documents = []
        for _ in range(docs_per_pair):
            document = sample_document(rng, source, max_depth=6)
            if document is not None:
                documents.append(document)
        if documents:
            corpus.append((SchemaPair(source, target), documents))
    return corpus


class TestCastFastPath:
    def test_po_workload_verdicts_match(self, exp2_pair):
        instrumented = CastValidator(exp2_pair, collect_stats=True)
        fast = CastValidator(exp2_pair, collect_stats=False)
        for items in (1, 5, 20):
            valid_doc = make_purchase_order(items)
            invalid_doc = mutate_quantities(
                make_purchase_order(items), "150"
            )
            for document in (valid_doc, invalid_doc):
                slow_report = instrumented.validate(document)
                fast_report = fast.validate(document)
                assert slow_report.valid == fast_report.valid
                if not fast_report.valid:
                    assert fast_report.reason

    @pytest.mark.parametrize("use_string_cast", [True, False])
    def test_random_pairs_verdicts_match(self, use_string_cast):
        for pair, documents in sampled_pair_corpus(seed=23):
            instrumented = CastValidator(
                pair, use_string_cast=use_string_cast, collect_stats=True
            )
            fast = CastValidator(
                pair, use_string_cast=use_string_cast, collect_stats=False
            )
            for document in documents:
                assert (
                    instrumented.validate(document).valid
                    == fast.validate(document).valid
                )

    def test_fast_failure_reports_carry_paths(self, exp2_pair):
        document = mutate_quantities(make_purchase_order(3), "150")
        report = CastValidator(exp2_pair, collect_stats=False).validate(
            document
        )
        assert not report.valid
        assert report.path  # Dewey path of the offending node


class TestValidatorFastPath:
    def test_full_validation_verdicts_match(self, exp1_source):
        for items in (1, 7):
            document = make_purchase_order(items)
            assert validate_document(
                exp1_source, document, collect_stats=False
            ).valid == validate_document(exp1_source, document).valid

    def test_random_schema_verdicts_match(self):
        rng = random.Random(41)
        checked = 0
        while checked < 8:
            try:
                schema = random_schema(rng, num_labels=5, num_complex=4)
            except Exception:
                continue
            document = sample_document(rng, schema, max_depth=6)
            if document is None:
                continue
            slow = validate_document(schema, document)
            fast = validate_document(schema, document, collect_stats=False)
            assert slow.valid == fast.valid
            assert slow.valid  # sampled documents are valid by design
            checked += 1

    def test_invalid_document_same_verdict(self, exp1_source):
        document = make_purchase_order(3)
        document.root.find("items").append(
            parse("<bogus/>").root
        )
        slow = validate_document(exp1_source, document)
        fast = validate_document(exp1_source, document, collect_stats=False)
        assert not slow.valid and not fast.valid


class TestDTDFastPath:
    SOURCE_DTD = """
    <!ELEMENT po (shipTo, billTo?, items)>
    <!ELEMENT shipTo (name)>
    <!ELEMENT billTo (name)>
    <!ELEMENT items (item*)>
    <!ELEMENT item (#PCDATA)>
    <!ELEMENT name (#PCDATA)>
    """
    TARGET_DTD = """
    <!ELEMENT po (shipTo, billTo, items)>
    <!ELEMENT shipTo (name)>
    <!ELEMENT billTo (name)>
    <!ELEMENT items (item+)>
    <!ELEMENT item (#PCDATA)>
    <!ELEMENT name (#PCDATA)>
    """

    DOCS = [
        "<po><shipTo><name>a</name></shipTo>"
        "<billTo><name>b</name></billTo>"
        "<items><item>1</item></items></po>",
        "<po><shipTo><name>a</name></shipTo>"
        "<items><item>1</item></items></po>",
        "<po><shipTo><name>a</name></shipTo>"
        "<billTo><name>b</name></billTo><items/></po>",
    ]

    @pytest.mark.parametrize("use_string_cast", [True, False])
    def test_verdicts_match(self, use_string_cast):
        pair = SchemaPair(
            parse_dtd(self.SOURCE_DTD, roots=["po"]),
            parse_dtd(self.TARGET_DTD, roots=["po"]),
        )
        instrumented = DTDCastValidator(
            pair, use_string_cast=use_string_cast, collect_stats=True
        )
        fast = DTDCastValidator(
            pair, use_string_cast=use_string_cast, collect_stats=False
        )
        for text in self.DOCS:
            document = parse(text)
            assert (
                instrumented.validate(document).valid
                == fast.validate(document).valid
            )


class TestCastModsFastPath:
    def make_session(self, with_billto):
        document = make_purchase_order(4, with_billto=with_billto)
        session = UpdateSession(document)
        # Touch a quantity so the modified walk actually runs.
        items = session.document.root.find("items")
        quantity = items.children[0].find("quantity")
        old_text = quantity.children[0]
        assert isinstance(old_text, Text)
        session.replace_text(old_text, "7")
        return session

    @pytest.mark.parametrize("with_billto", [True, False])
    def test_verdicts_match(self, exp1_pair, with_billto):
        instrumented = CastWithModificationsValidator(
            exp1_pair, collect_stats=True
        )
        fast = CastWithModificationsValidator(
            exp1_pair, collect_stats=False
        )
        slow_report = instrumented.validate(self.make_session(with_billto))
        fast_report = fast.validate(self.make_session(with_billto))
        assert slow_report.valid == fast_report.valid
