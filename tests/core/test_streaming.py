"""Tests for streaming validation (O(depth) memory)."""

import random

import pytest

from repro.core.streaming import StreamingValidator, validate_stream
from repro.core.validator import validate_document
from repro.schema.model import Schema, attribute, complex_type
from repro.schema.simple import builtin, restrict
from repro.workloads.generators import random_schema, sample_document
from repro.workloads.purchase_orders import (
    make_purchase_order,
    target_schema_experiment2,
)
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize


@pytest.fixture(scope="module")
def po_schema():
    return target_schema_experiment2()


class TestVerdicts:
    def test_valid_purchase_order(self, po_schema):
        text = serialize(make_purchase_order(10), indent="  ")
        report = validate_stream(po_schema, text)
        assert report.valid

    def test_structural_failure(self, po_schema):
        text = "<purchaseOrder><items/></purchaseOrder>"
        report = validate_stream(po_schema, text)
        assert not report.valid
        assert "content model" in report.reason

    def test_value_failure(self, po_schema):
        doc = make_purchase_order(3, quantity_of=lambda i: 500)
        report = validate_stream(po_schema, serialize(doc))
        assert not report.valid
        assert "does not conform" in report.reason

    def test_unknown_root(self, po_schema):
        assert not validate_stream(po_schema, "<mystery/>").valid

    def test_unexpected_element(self, po_schema):
        text = "<purchaseOrder><surprise/></purchaseOrder>"
        report = validate_stream(po_schema, text)
        assert not report.valid
        assert "unexpected element" in report.reason

    def test_malformed_input_reported(self, po_schema):
        report = validate_stream(po_schema, "<purchaseOrder><oops")
        assert not report.valid
        assert "not well-formed" in report.reason

    def test_character_data_in_element_content(self, po_schema):
        text = "<purchaseOrder>stray</purchaseOrder>"
        report = validate_stream(po_schema, text)
        assert not report.valid
        assert "character data" in report.reason


class TestAttributeChecks:
    def test_attributes_validated_at_start_tag(self):
        schema = Schema(
            {
                "T": complex_type("T", "()", {}, {
                    "id": attribute("id", "xsd:string", required=True),
                }),
                "xsd:string": builtin("string"),
            },
            {"t": "T"},
        )
        assert validate_stream(schema, '<t id="a"/>').valid
        report = validate_stream(schema, "<t/>")
        assert not report.valid
        assert "missing required" in report.reason


#: One schema and a document per failure the DOM validator reports at
#: the offending node rather than at its parent.
OFFENDING_NODE_SCHEMA = Schema(
    {
        "R": complex_type("R", "(a, b)", {"a": "S", "b": "B"}),
        "B": complex_type("B", "(q*)", {"q": "I"},
                          {"k": attribute("k", "I")}),
        "S": builtin("string"),
        "I": builtin("integer"),
    },
    {"r": "R"},
)
OFFENDING_NODE_DOCUMENTS = [
    pytest.param('<r><a>x</a><b k="zz"/></r>', "1", id="attribute"),
    pytest.param("<r><a>x</a><b><q>1</q>stray</b></r>", "1.1",
                 id="character-data"),
    pytest.param("<r><a>x</a><b><q>5</q><zz/></b></r>", "1.1",
                 id="unexpected-element"),
]


class TestAgreementWithDom:
    @pytest.mark.parametrize("text, path", OFFENDING_NODE_DOCUMENTS)
    def test_failure_reported_at_offending_node(self, text, path):
        streamed = validate_stream(OFFENDING_NODE_SCHEMA, text)
        dom = validate_document(OFFENDING_NODE_SCHEMA, parse(text))
        assert not dom.valid and dom.path == path
        assert (streamed.valid, streamed.reason, streamed.path) == (
            dom.valid, dom.reason, dom.path
        )

    def test_failure_paths_match(self, po_schema):
        doc = make_purchase_order(5, quantity_of=lambda i: 500 if i == 3
                                  else 7)
        text = serialize(doc, indent="  ")
        streamed = validate_stream(po_schema, text)
        dom = validate_document(po_schema, parse(text))
        assert streamed.valid == dom.valid is False
        assert streamed.path == dom.path

    @pytest.mark.parametrize("seed", range(12))
    def test_random_agreement(self, seed):
        rng = random.Random(4242 + seed)
        schema = None
        for _ in range(20):
            try:
                schema = random_schema(rng)
                break
            except Exception:
                continue
        if schema is None:
            pytest.skip("no schema")
        validator = StreamingValidator(schema)
        for _ in range(4):
            doc = sample_document(rng, schema, max_depth=6)
            if doc is None:
                continue
            text = serialize(doc, indent="  ")
            streamed = validator.validate_text(text)
            dom = validate_document(schema, parse(text))
            assert streamed.valid == dom.valid
            assert streamed.valid  # sampled docs are valid

    @pytest.mark.parametrize("seed", range(8))
    def test_random_agreement_on_corrupted_documents(self, seed):
        """Mutate serialized text-level values/labels and compare."""
        rng = random.Random(8800 + seed)
        schema = None
        doc = None
        for _ in range(30):
            try:
                schema = random_schema(rng)
            except Exception:
                continue
            doc = sample_document(rng, schema, max_depth=5)
            if doc is not None:
                break
        if doc is None:
            pytest.skip("no document")
        validator = StreamingValidator(schema)
        from repro.core.updates import UpdateSession
        from repro.workloads.mutations import random_edits

        session = UpdateSession(doc)
        random_edits(rng, session, 4, labels=sorted(schema.alphabet))
        text = serialize(session.result_document(), indent="  ")
        streamed = validator.validate_text(text)
        dom = validate_document(schema, parse(text))
        assert streamed.valid == dom.valid, (streamed.reason, dom.reason)


class TestCounters:
    def test_stats_match_dom_validator(self, po_schema):
        doc = make_purchase_order(8)
        text = serialize(doc)
        streamed = validate_stream(po_schema, text)
        dom = validate_document(po_schema, parse(text))
        assert streamed.stats.elements_visited == dom.stats.elements_visited
        assert (
            streamed.stats.simple_values_checked
            == dom.stats.simple_values_checked
        )
        assert (
            streamed.stats.content_symbols_scanned
            == dom.stats.content_symbols_scanned
        )
