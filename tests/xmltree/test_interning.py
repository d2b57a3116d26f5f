"""Lex-time symbol interning: ``Element.sym`` and its fallbacks.

Parsing with ``symbols=`` interns element names into the given
:class:`~repro.automata.compiled.SymbolTable` as they are lexed;
validators then run content scans and child-type descent on the dense
ids.  The contract under test: interning never changes a verdict —
wrong tables, post-parse mutations, and labels outside the alphabet
all fall back to string lookups.
"""

from repro.automata.compiled import SymbolTable
from repro.core import reference
from repro.core.cast import CastValidator, cast_text
from repro.core.dtdcast import DTDCastValidator
from repro.core.validator import validate_document, validate_text
from repro.schema.dtd import parse_dtd
from repro.schema.registry import SchemaPair
from repro.workloads.purchase_orders import (
    make_purchase_order,
    source_schema_experiment2,
    target_schema_experiment2,
)
from repro.xmltree.dom import Element
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize


def po_text(items: int = 5) -> str:
    return serialize(make_purchase_order(items), indent=" ")


class _BufferRecorder(list):
    """Wraps a frame dataclass to record each frame's text buffer as
    constructed (None for complex-typed frames, a list for simple)."""

    def __init__(self, module, name):
        super().__init__()
        self.real = getattr(module, name)

    def __call__(self, *args, **kwargs):
        frame = self.real(*args, **kwargs)
        self.append(frame.text_parts)
        return frame


def _record_frame_buffers(module, name) -> _BufferRecorder:
    recorder = _BufferRecorder(module, name)
    setattr(module, name, recorder)
    return recorder


class TestSymAssignment:
    def test_parse_interns_known_labels(self):
        table = SymbolTable(["a", "b"])
        document = parse("<a><b/><c/></a>", symbols=table)
        assert document.symbols is table
        root = document.root
        assert root.sym == table.ids["a"]
        b, c = root.children
        assert b.sym == table.ids["b"]
        assert c.sym == -1  # outside the table: fallback marker

    def test_parse_without_symbols(self):
        document = parse("<a><b/></a>")
        assert document.symbols is None
        assert document.root.sym == -1

    def test_relabel_resets_sym(self):
        table = SymbolTable(["a", "b"])
        document = parse("<a><b/></a>", symbols=table)
        child = document.root.children[0]
        assert child.sym >= 0
        child.label = "b"  # even a same-name relabel invalidates
        assert child.sym == -1

    def test_inserted_element_has_no_sym(self):
        table = SymbolTable(["a", "b"])
        document = parse("<a/>", symbols=table)
        document.root.append(Element("b"))
        assert document.root.children[0].sym == -1

    def test_copy_preserves_sym_and_table(self):
        table = SymbolTable(["a"])
        document = parse("<a/>", symbols=table)
        duplicate = document.copy()
        assert duplicate.symbols is table
        assert duplicate.root.sym == document.root.sym


class TestVerdictIdentity:
    def test_plain_validation_interned_vs_not(self):
        schema = source_schema_experiment2()
        text = po_text()
        plain = parse(text)
        interned = parse(text, symbols=schema.symbols)
        for collect_stats in (True, False):
            a = validate_document(schema, plain,
                                  collect_stats=collect_stats)
            b = validate_document(schema, interned,
                                  collect_stats=collect_stats)
            assert (a.valid, a.reason) == (b.valid, b.reason)
            assert a.valid

    def test_cast_interned_vs_not(self):
        pair = SchemaPair(
            source_schema_experiment2(), target_schema_experiment2()
        )
        text = po_text()
        validator = CastValidator(pair, collect_stats=False)
        a = validator.validate(parse(text))
        b = validator.validate(parse(text, symbols=pair.symbols))
        assert (a.valid, a.reason) == (b.valid, b.reason)

    def test_cast_failure_reason_identical(self):
        pair = SchemaPair(
            source_schema_experiment2(), target_schema_experiment2()
        )
        document = make_purchase_order(3)
        items = document.root.find("items")
        items.append(Element("bogus"))
        text = serialize(document)
        validator = CastValidator(pair, collect_stats=False)
        a = validator.validate(parse(text))
        b = validator.validate(parse(text, symbols=pair.symbols))
        assert not a.valid and not b.valid
        assert (a.reason, a.path) == (b.reason, b.path)

    def test_wrong_table_is_safe(self):
        # A document interned against some unrelated table must
        # validate exactly as an uninterned one: validators gate the
        # sym fast path on table identity, never on sym values.
        schema = source_schema_experiment2()
        text = po_text()
        alien = SymbolTable(sorted(schema.alphabet, reverse=True))
        mis_interned = parse(text, symbols=alien)
        report = validate_document(schema, mis_interned,
                                   collect_stats=False)
        assert report.valid

    def test_mutated_document_falls_back_per_node(self):
        schema = source_schema_experiment2()
        document = parse(po_text(), symbols=schema.symbols)
        item = document.root.find("items").children[0]
        item.label = item.label  # resets sym to -1, keeps validity
        report = validate_document(schema, document, collect_stats=False)
        assert report.valid

    def test_streaming_matches_dom_interned(self):
        pair = SchemaPair(
            source_schema_experiment2(), target_schema_experiment2()
        )
        text = po_text()
        dom = CastValidator(pair, collect_stats=False).validate(
            parse(text, symbols=pair.symbols)
        )
        stream = cast_text(pair, text, stream_skip=False)
        assert (dom.valid, stream.valid) == (True, True)
        plain_schema = source_schema_experiment2()
        assert validate_text(plain_schema, text).valid

    def test_text_buffer_only_for_simple_frames_cast(self):
        pair = SchemaPair(
            source_schema_experiment2(), target_schema_experiment2()
        )
        # The fused kernel allocates no _CastFrame at all; the
        # buffer-discipline contract applies to the event walk kept as
        # its reference, so instrument that walk explicitly.
        buffers = _record_frame_buffers(reference, "_CastFrame")
        try:
            report = reference.reference_cast(pair, po_text())
            assert report.valid
            lists = [p for p in buffers if p is not None]
            assert len(lists) == report.stats.simple_values_checked
            assert len(buffers) == report.stats.elements_visited
        finally:
            reference._CastFrame = buffers.real

    def test_dtd_cast_interned_vs_not(self):
        dtd = (
            "<!ELEMENT r (x, y*)>"
            "<!ELEMENT x (#PCDATA)>"
            "<!ELEMENT y (#PCDATA)>"
        )
        dtd_relaxed = (
            "<!ELEMENT r (x, y*, z?)>"
            "<!ELEMENT x (#PCDATA)>"
            "<!ELEMENT y (#PCDATA)>"
            "<!ELEMENT z (#PCDATA)>"
        )
        source = parse_dtd(dtd, roots=["r"])
        target = parse_dtd(dtd_relaxed, roots=["r"])
        pair = SchemaPair(source, target)
        validator = DTDCastValidator(pair, collect_stats=False)
        text = "<r><x>1</x><y>2</y><y>3</y></r>"
        a = validator.validate(parse(text))
        b = validator.validate(parse(text, symbols=pair.symbols))
        assert (a.valid, a.reason) == (b.valid, b.reason)
        assert a.valid
