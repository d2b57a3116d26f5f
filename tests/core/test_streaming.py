"""Tests for plain validation of text (O(depth) memory, no tree).

:func:`repro.core.validator.validate_text` runs the fused kernel over
the schema-only tables of :meth:`Schema.kernel` and must answer as
``validate_document(schema, parse(text))`` does: the same verdict,
reason and Dewey path, the same counters on a valid document, and the
same typed error on malformed input.
"""

import random

import pytest

from repro.core.validator import validate_document, validate_text
from repro.errors import DocumentTooDeepError, ReproError, XMLSyntaxError
from repro.guards import Limits
from repro.schema.model import Schema, attribute, complex_type
from repro.schema.pairkernel import K_PLAIN, K_SIMPLE
from repro.schema.simple import builtin
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
        report = validate_text(po_schema, text)
        assert report.valid

    def test_structural_failure(self, po_schema):
        text = "<purchaseOrder><items/></purchaseOrder>"
        report = validate_text(po_schema, text)
        assert not report.valid
        assert "content model" in report.reason

    def test_value_failure(self, po_schema):
        doc = make_purchase_order(3, quantity_of=lambda i: 500)
        report = validate_text(po_schema, serialize(doc))
        assert not report.valid
        assert "does not conform" in report.reason

    def test_unknown_root(self, po_schema):
        assert not validate_text(po_schema, "<mystery/>").valid

    def test_unexpected_element(self, po_schema):
        text = "<purchaseOrder><surprise/></purchaseOrder>"
        report = validate_text(po_schema, text)
        assert not report.valid
        assert "unexpected element" in report.reason

    def test_malformed_input_reported(self, po_schema):
        # Malformed text is a typed error, as it is for parse().
        with pytest.raises(XMLSyntaxError):
            validate_text(po_schema, "<purchaseOrder><oops")

    def test_character_data_in_element_content(self, po_schema):
        text = "<purchaseOrder>stray</purchaseOrder>"
        report = validate_text(po_schema, text)
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
        assert validate_text(schema, '<t id="a"/>').valid
        report = validate_text(schema, "<t/>")
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

#: ``R = (a, b?)``, ``B = (a*)``: the schema knows label ``b``, but
#: ``B``'s content model does not allow it.
PARITY_SCHEMA = Schema(
    {
        "R": complex_type("R", "(a, b?)", {"a": "S", "b": "B"},
                          {"n": attribute("n", "I")}),
        "B": complex_type("B", "(a*)", {"a": "S"}),
        "S": builtin("string"),
        "I": builtin("integer"),
    },
    {"r": "R", "a": "S"},
)

#: (document, the DOM validator's path) — one per kind of report, each
#: compared with ``validate_document(schema, parse(text))`` on verdict,
#: reason and path.
PARITY_FIXTURES = [
    pytest.param("<r><a>x</a><b><a>y</a></b></r>", None, id="valid"),
    pytest.param("<a>lone</a>", None, id="valid-simple-root"),
    pytest.param("<q/>", "", id="root-not-permitted"),
    pytest.param("<r><a>x</a><b><b/></b></r>", "1",
                 id="known-label-outside-content-model"),
    pytest.param("<r><a>x</a><zz/></r>", "1", id="unexpected-element"),
    pytest.param("<r><a>x</a><zz>1</zz></r>", "1",
                 id="unexpected-leaf"),
    pytest.param("<r><a>x</a>stray</r>", "1", id="character-data"),
    pytest.param("<r><a>x</a><b>text</b></r>", "1.0",
                 id="character-data-leaf"),
    pytest.param("<r><a>x<a/></a></r>", "0",
                 id="simple-with-child-elements"),
    pytest.param('<r n="x"><a>x</a></r>', "", id="attribute-value"),
    pytest.param('<r><a k="1">x</a></r>', "0",
                 id="attribute-on-simple"),
    pytest.param("<r><b/></r>", "", id="content-model-at-end"),
    pytest.param("<r><a>x</a><a>y</a></r>", "", id="content-model-early"),
    pytest.param('<r n="7"><a>fish &amp; chips</a></r>', None,
                 id="valid-entity-in-value"),
    # Two faults: the tree walk checks the root's whole child string
    # before it descends, so the root's fault further on wins over the
    # one the kernel meets first, inside the first child.
    pytest.param("<r><a>x<a/></a><zz/></r>", "1",
                 id="content-first-unexpected-element"),
    pytest.param("<r><b><b/></b>stray</r>", "1",
                 id="content-first-character-data"),
    pytest.param("<r><b><b/></b><a>x</a></r>", "",
                 id="content-first-content-model"),
]


class TestAgreementWithDom:
    @pytest.mark.parametrize("text, path", OFFENDING_NODE_DOCUMENTS)
    def test_failure_reported_at_offending_node(self, text, path):
        streamed = validate_text(OFFENDING_NODE_SCHEMA, text)
        dom = validate_document(OFFENDING_NODE_SCHEMA, parse(text))
        assert not dom.valid and dom.path == path
        assert (streamed.valid, streamed.reason, streamed.path) == (
            dom.valid, dom.reason, dom.path
        )

    @pytest.mark.parametrize("text, path", PARITY_FIXTURES)
    def test_parity_fixture(self, text, path):
        dom = validate_document(PARITY_SCHEMA, parse(text))
        assert dom.valid == (path is None)
        if path is not None:
            assert dom.path == path
        kernel = validate_text(PARITY_SCHEMA, text)
        assert (kernel.valid, kernel.reason, kernel.path) == (
            dom.valid, dom.reason, dom.path
        )

    def test_failure_paths_match(self, po_schema):
        doc = make_purchase_order(5, quantity_of=lambda i: 500 if i == 3
                                  else 7)
        text = serialize(doc, indent="  ")
        streamed = validate_text(po_schema, text)
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
        for _ in range(4):
            doc = sample_document(rng, schema, max_depth=6)
            if doc is None:
                continue
            text = serialize(doc, indent="  ")
            streamed = validate_text(schema, text)
            dom = validate_document(schema, parse(text))
            assert streamed.valid == dom.valid
            assert streamed.valid  # sampled docs are valid
            assert streamed.stats == dom.stats

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
        from repro.core.updates import UpdateSession
        from repro.workloads.mutations import random_edits

        session = UpdateSession(doc)
        random_edits(rng, session, 4, labels=sorted(schema.alphabet))
        text = serialize(session.result_document(), indent="  ")
        streamed = validate_text(schema, text)
        dom = validate_document(schema, parse(text))
        assert streamed.valid == dom.valid, (streamed.reason, dom.reason)


class TestWellFormednessWins:
    """Parse-then-validate raises on malformed input even when the
    document is also invalid; the kernel stops at the first failure, so
    its drain must find the error further on."""

    def test_syntax_error_after_failure(self):
        text = "<q><a>x</a></b>"
        with pytest.raises(XMLSyntaxError):
            parse(text)
        with pytest.raises(XMLSyntaxError):
            validate_text(PARITY_SCHEMA, text)

    @pytest.mark.parametrize("text", [
        "<r><a>x</a></r><!-- a -- b -->",
        "<!-- a -- b --><r><a>x</a></r>",
        "<!DOCTYPE><r><a>x</a></r>",
    ], ids=["trailing-comment", "prolog-comment", "nameless-doctype"])
    def test_prolog_and_trailing_checks_match_parse(self, text):
        # The kernel shares the tree parser's prolog and trailing-misc
        # checks, so a valid root does not hide them.
        with pytest.raises(XMLSyntaxError):
            parse(text)
        with pytest.raises(XMLSyntaxError):
            validate_text(PARITY_SCHEMA, text)

    def test_limit_error_after_failure(self):
        limits = Limits(max_tree_depth=10)
        text = "<r><zz/>" + "<b>" * 20 + "</b>" * 20 + "</r>"
        with pytest.raises(DocumentTooDeepError):
            parse(text, limits=limits)
        with pytest.raises(DocumentTooDeepError):
            validate_text(PARITY_SCHEMA, text, limits=limits)


#: ``R = (a, b*)``, ``B = (a, c?)``, ``C = (a*)`` over integer leaves.
SETTLE_SCHEMA = Schema(
    {
        "R": complex_type("R", "(a, b*)", {"a": "I", "b": "B"}),
        "B": complex_type("B", "(a, c?)", {"a": "I", "c": "C"}),
        "C": complex_type("C", "(a*)", {"a": "I"}),
        "I": builtin("integer"),
    },
    {"r": "R"},
)
DEEP = "<c>" * 12 + "</c>" * 12
#: Faults after the kernel's first failure.  ``<b/>`` as the first
#: child of ``b`` fails ``b``'s content while ``b`` is still open (the
#: faults then sit in the failing element); ``<a>x</a>`` fails a value
#: and closes (the faults then sit in an ancestor).  Each id names the
#: fault and the answer both pipelines must give: a typed error, or a
#: report at a Dewey path.
SETTLE_FIXTURES = [
    pytest.param("<r><a>1</a><b><b/><oops</b></r>", "XMLSyntaxError",
                 id="element-syntax-error"),
    pytest.param(f"<r><a>1</a><b><b/>{DEEP}</b></r>",
                 "DocumentTooDeepError", id="element-depth-limit"),
    pytest.param("<r><a>1</a><b><b/><c><b/></c></b></r>", "1",
                 id="element-content-failure-below"),
    pytest.param("<r><a>1</a><b><b/><zz/></b></r>", "1.1",
                 id="element-unknown-label"),
    pytest.param("<r><a>1</a><b><b/>stray</b></r>", "1.1",
                 id="element-stray-text"),
    pytest.param("<r><a>1</a><b><a>x</a></b><oops</r>", "XMLSyntaxError",
                 id="ancestor-syntax-error"),
    pytest.param(f"<r><a>1</a><b><a>x</a></b><b>{DEEP}</b></r>",
                 "DocumentTooDeepError", id="ancestor-depth-limit"),
    pytest.param("<r><a>1</a><b><a>x</a></b><a>2</a></r>", "",
                 id="ancestor-content-failure"),
    pytest.param("<r><a>1</a><b><a>x</a></b><zz/></r>", "2",
                 id="ancestor-unknown-label"),
    pytest.param("<r><a>1</a><b><a>x</a></b>stray</r>", "2",
                 id="ancestor-stray-text"),
    pytest.param("<r><a>1</a><b><b/>stray</b>stray</r>", "2",
                 id="outer-fault-wins"),
    pytest.param("<r><a>1</a><b><a>1</a><c><a>x</a></c>stray</b></r>",
                 "1.2", id="middle-ancestor-stray-text"),
    pytest.param("<r><a>1</a><b><a>x</a></b><b><a>y</a></b></r>", "1.0",
                 id="later-value-failure-is-not-read"),
]


class TestSettle:
    """The kernel settles its first failure in the same pass: what
    follows it can still change the answer, and both pipelines agree
    on it."""

    @staticmethod
    def outcome(validate):
        try:
            report = validate()
        except ReproError as error:
            return type(error).__name__
        assert not report.valid
        return report.path, report.reason

    @pytest.mark.parametrize("text, expected", SETTLE_FIXTURES)
    def test_fault_after_first_failure(self, text, expected):
        limits = Limits(max_tree_depth=8)
        dom = self.outcome(lambda: validate_document(
            SETTLE_SCHEMA, parse(text, limits=limits), limits=limits))
        kernel = self.outcome(
            lambda: validate_text(SETTLE_SCHEMA, text, limits=limits))
        assert kernel == dom
        assert (dom if isinstance(dom, str) else dom[0]) == expected


class TestSchemaKernel:
    def test_kernel_is_cached_and_plain(self, po_schema):
        kernel = po_schema.kernel()
        assert po_schema.kernel() is kernel
        assert kernel.pair is None and kernel.target is po_schema
        assert kernel.symbols is po_schema.symbols
        kernel.warm()
        kinds = {record.kind for record in kernel.records}
        assert kinds == {K_PLAIN, K_SIMPLE}
        actions = {
            act for record in kernel.records if record.action is not None
            for act in record.action
        } | set(kernel.root_actions.values())
        assert min(actions) == -1  # only A_NO_TARGET among sentinels


class TestCounters:
    def test_stats_match_dom_validator(self, po_schema):
        doc = make_purchase_order(8)
        text = serialize(doc)
        streamed = validate_text(po_schema, text)
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
