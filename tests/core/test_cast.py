"""Tests for schema cast validation without modifications (Section 3.2)."""

import pytest

from repro.core.cast import CastValidator
from repro.core.validator import validate_document
from repro.errors import DocumentTooDeepError
from repro.guards import Limits
from repro.schema.dtd import parse_dtd
from repro.schema.model import Schema, complex_type
from repro.schema.registry import SchemaPair
from repro.schema.simple import builtin, restrict
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.dom import Document, Element
from repro.xmltree.parser import parse


class TestPaperExperiment1:
    def test_document_with_billto_accepted_in_constant_work(self, exp1_pair):
        validator = CastValidator(exp1_pair)
        small = validator.validate(make_purchase_order(2))
        large = validator.validate(make_purchase_order(500))
        assert small.valid and large.valid
        # The headline property: work independent of document size.
        assert small.stats.nodes_visited == large.stats.nodes_visited
        assert large.stats.nodes_visited <= 2

    def test_document_without_billto_rejected(self, exp1_pair):
        validator = CastValidator(exp1_pair)
        report = validator.validate(
            make_purchase_order(50, with_billto=False)
        )
        assert not report.valid

    def test_subtrees_skipped_by_subsumption(self, exp1_pair):
        validator = CastValidator(exp1_pair)
        report = validator.validate(make_purchase_order(10))
        assert report.stats.subtrees_skipped >= 1


class TestPaperExperiment2:
    def test_quantities_rechecked(self, exp2_pair):
        validator = CastValidator(exp2_pair)
        report = validator.validate(make_purchase_order(20))
        assert report.valid
        assert report.stats.simple_values_checked == 20

    def test_out_of_range_quantity_rejected(self, exp2_pair):
        validator = CastValidator(exp2_pair)
        doc = make_purchase_order(
            10, quantity_of=lambda i: 150 if i == 7 else 5
        )
        report = validator.validate(doc)
        assert not report.valid
        assert "does not conform" in report.reason

    def test_work_scales_linearly_but_below_full(self, exp2_pair, exp2_target):
        validator = CastValidator(exp2_pair)
        for count in (10, 50):
            doc = make_purchase_order(count)
            cast = validator.validate(doc)
            full = validate_document(exp2_target, doc)
            assert cast.valid and full.valid
            assert cast.stats.nodes_visited < full.stats.nodes_visited


class TestDisjointFailFast:
    def test_disjoint_types_reject_without_descending(self):
        source = Schema(
            {
                "T": complex_type("T", "(x)", {"x": "Date"}),
                "Date": builtin("date"),
            },
            {"t": "T"},
        )
        target = Schema(
            {
                "T": complex_type("T", "(x)", {"x": "Int"}),
                "Int": builtin("integer"),
            },
            {"t": "T"},
        )
        validator = CastValidator(SchemaPair(source, target))
        report = validator.validate(parse("<t><x>2004-01-01</x></t>"))
        assert not report.valid
        assert report.stats.disjoint_rejections == 1
        assert report.stats.nodes_visited == 0


class TestRootHandling:
    def test_root_unknown_to_target(self, exp1_pair):
        report = CastValidator(exp1_pair).validate(parse("<unknown/>"))
        assert not report.valid
        assert "target schema" in report.reason

    def test_root_unknown_to_source_falls_back_to_full(self):
        source = Schema({"S": builtin("string")}, {"s": "S"})
        target = Schema(
            {
                "T": complex_type("T", "(s)", {"s": "Str"}),
                "Str": builtin("string"),
            },
            {"t": "T", "s": "Str"},
        )
        validator = CastValidator(SchemaPair(source, target))
        assert validator.validate(parse("<t><s>x</s></t>")).valid
        assert not validator.validate(parse("<t><t/></t>")).valid


class TestContentChecking:
    @pytest.fixture()
    def reorder_pair(self):
        source = Schema(
            {
                "T": complex_type("T", "((a,b)|(b,a))", {"a": "S", "b": "S"}),
                "S": builtin("string"),
            },
            {"t": "T"},
        )
        target = Schema(
            {
                "T": complex_type("T", "(a,b)", {"a": "S", "b": "S"}),
                "S": builtin("string"),
            },
            {"t": "T"},
        )
        return SchemaPair(source, target)

    def test_string_cast_mode_decides_early(self, reorder_pair):
        validator = CastValidator(reorder_pair, use_string_cast=True)
        report = validator.validate(parse("<t><b/><a/></t>"))
        assert not report.valid
        # Rejected after scanning the first child label only.
        assert report.stats.content_symbols_scanned == 1
        assert report.stats.early_content_decisions == 1

    def test_plain_mode_matches_paper_prototype(self, reorder_pair):
        validator = CastValidator(reorder_pair, use_string_cast=False)
        good = validator.validate(parse("<t><a/><b/></t>"))
        assert good.valid
        bad = validator.validate(parse("<t><b/><a/></t>"))
        assert not bad.valid

    def test_both_modes_agree(self, reorder_pair):
        fast = CastValidator(reorder_pair, use_string_cast=True)
        plain = CastValidator(reorder_pair, use_string_cast=False)
        for doc_text in ("<t><a/><b/></t>", "<t><b/><a/></t>"):
            doc = parse(doc_text)
            assert fast.validate(doc).valid == plain.validate(doc).valid


class TestSimpleComplexBoundary:
    def test_empty_element_crosses_kinds(self):
        source = Schema({"S": builtin("string")}, {"e": "S"})
        target = Schema({"C": complex_type("C", "()", {})}, {"e": "C"})
        validator = CastValidator(SchemaPair(source, target))
        assert validator.validate(parse("<e/>")).valid
        assert validator.validate(parse("<e></e>")).valid
        assert not validator.validate(parse("<e>text</e>")).valid

    def test_complex_to_simple(self):
        source = Schema({"C": complex_type("C", "()", {})}, {"e": "C"})
        target = Schema({"S": builtin("string")}, {"e": "S"})
        validator = CastValidator(SchemaPair(source, target))
        assert validator.validate(parse("<e/>")).valid

    def test_complex_to_integer_rejected(self):
        source = Schema({"C": complex_type("C", "()", {})}, {"e": "C"})
        target = Schema({"I": builtin("integer")}, {"e": "I"})
        validator = CastValidator(SchemaPair(source, target))
        assert not validator.validate(parse("<e/>")).valid


class TestGuardsWithoutSourceKnowledge:
    """Where the cast falls back to full target validation (element
    children of a simple-source element, or a root the source does not
    declare), that validation runs under the cast's own limits."""

    SOURCE = "<!ELEMENT r (x)> <!ELEMENT x (#PCDATA)>"
    TARGET = "<!ELEMENT r (x)> <!ELEMENT x (x?)>"

    def pair(self, source_root="r"):
        return SchemaPair(
            parse_dtd(self.SOURCE, roots=[source_root]),
            parse_dtd(self.TARGET, roots=["r"]),
        )

    @staticmethod
    def nested(depth):
        """``<r>`` over ``depth`` nested ``<x>``, built without the
        parser's own depth guard."""
        root = node = Element("r")
        for _ in range(depth):
            child = Element("x")
            node.append(child)
            node = child
        return Document(root)

    @pytest.mark.parametrize("collect_stats", [True, False])
    def test_depth_limit_below_simple_source(self, collect_stats):
        pair = self.pair()
        limits = Limits(max_tree_depth=5)
        document = self.nested(8)
        with pytest.raises(DocumentTooDeepError):
            validate_document(pair.target, document, limits=limits)
        validator = CastValidator(
            pair, collect_stats=collect_stats, limits=limits
        )
        with pytest.raises(DocumentTooDeepError):
            validator.validate(document)

    @pytest.mark.parametrize("collect_stats", [True, False])
    def test_depth_limit_below_root_unknown_to_source(self, collect_stats):
        validator = CastValidator(
            self.pair(source_root="x"), collect_stats=collect_stats,
            limits=Limits(max_tree_depth=5),
        )
        with pytest.raises(DocumentTooDeepError):
            validator.validate(self.nested(8))

    def test_counts_below_simple_source(self):
        pair = self.pair()
        counted = CastValidator(pair).validate(self.nested(3))
        assert counted.valid
        # r and the outer x by the cast, the two x below by full
        # validation, all into one set of counters.
        assert counted.stats.elements_visited == 4
        uncounted = CastValidator(pair, collect_stats=False)
        assert uncounted.validate(self.nested(3)).stats.nodes_visited == 0


class TestIdenticalSchemas:
    def test_whole_document_skipped(self, exp2_target):
        pair = SchemaPair(exp2_target, exp2_target)
        validator = CastValidator(pair)
        report = validator.validate(make_purchase_order(100))
        assert report.valid
        assert report.stats.nodes_visited == 0
        assert report.stats.subtrees_skipped == 1
