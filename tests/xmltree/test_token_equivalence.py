"""Bulk lexer vs. reference scanner: identical token streams.

The regex-bulk tokenizer (:func:`repro.xmltree.lexer.iter_tokens`) and
the retired char-at-a-time implementation preserved in
:mod:`repro.xmltree.reference` are two independent lexers for the same
language.  On every corpus — generated documents, the paper's purchase
orders, adversarial shapes, and a malformed gallery — they must either
produce element-for-element identical token streams or raise the same
typed error with the same message (which embeds line and column).
"""

import random

import pytest

from repro.errors import XMLSyntaxError
from repro.workloads.adversarial import (
    deep_document,
    entity_bomb,
    garbage_tail_document,
    truncated_document,
    wide_document,
)
from repro.workloads.generators import random_schema, sample_document
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.lexer import iter_tokens
from repro.xmltree.parser import parse
from repro.xmltree.reference import (
    reference_parse,
    reference_tokens,
)
from repro.xmltree.serializer import serialize


def collect(token_fn, text):
    """``("ok", tokens)`` or ``("err", type, message)``."""
    try:
        return ("ok", list(token_fn(text)))
    except Exception as error:  # noqa: BLE001 — comparing failure modes
        return ("err", type(error), str(error))


def assert_same_stream(text):
    old = collect(reference_tokens, text)
    new = collect(iter_tokens, text)
    assert old == new, f"token streams diverged on {text[:80]!r}"


def assert_same_tree(text):
    """The new parser and the reference parser agree on the whole DOM
    (structural hash covers labels, attributes, text, and shape)."""
    old = reference_parse(text)
    new = parse(text)
    assert old.root.structural_hash() == new.root.structural_hash()
    assert old.doctype_name == new.doctype_name


WELL_FORMED = [
    "<a/>",
    "<a></a>",
    "<a>text</a>",
    "<a x='1' y=\"2\"><b/>tail</a>",
    "<a><!-- comment --><b>x</b><?pi data?></a>",
    "<a><![CDATA[<raw>&amp;]]></a>",
    "<a>one<!-- split -->two</a>",
    "<a>&lt;&amp;&gt;&#65;&#x42;</a>",
    "<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>",
    "<?xml version='1.0'?>\n<a>\n  <b>x</b>\n</a>\n<!-- tail -->",
    "<a>\n\n  spaced\n</a>",
    "<!----><a/>",
    "<a><!-----></a>",  # comment body "-": lazy-match termination
    "<ns:a ns:x='1'><ns:b/></ns:a>",
]

MALFORMED = [
    "",
    "   ",
    "<",
    "<a",
    "<a x>",
    "<a x=>",
    "<a x='1' x='2'>",
    "<a><b></a></b>",
    "<a></b>",
    "<a>",
    "<a><b>",
    "</a>",
    "<a>unclosed",
    "<a><!-- never closed </a>",
    "<a><![CDATA[never closed</a>",
    "<a><?never closed</a>",
    "<a>]]></a>",
    "<a>&amp</a>",
    "<a>&nbsp;</a>",
    "<a>&#xZZ;</a>",
    "<a x='&amp'/>",
    "<a/><b/>",
    "<a/>trailing",
    "<9bad/>",
    "<a><9bad/></a>",
    "<a>&amp &lt;</a>",
    "<a -->",
    truncated_document(),
    garbage_tail_document(),
]


#: Misc after the root element that the tree parser rejects.
BAD_TRAILING_MISC = [
    "<a/><!-- -- -->",
    "<a></a>\n<!-- a -- b -->\n",
    "<a/><?pi?>\n<!-- - - -- -->",
    "<a/><!-- unterminated",
    "<a/> x",
]


class TestFixedCorpora:
    @pytest.mark.parametrize("text", BAD_TRAILING_MISC)
    def test_trailing_misc_raises_where_parse_does(self, text):
        with pytest.raises(XMLSyntaxError) as parsed:
            parse(text)
        for token_fn in (iter_tokens, reference_tokens):
            with pytest.raises(XMLSyntaxError) as lexed:
                list(token_fn(text))
            assert str(lexed.value) == str(parsed.value), token_fn


    @pytest.mark.parametrize("text", WELL_FORMED)
    def test_well_formed(self, text):
        assert_same_stream(text)

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_same_error(self, text):
        assert_same_stream(text)

    @pytest.mark.parametrize("text", WELL_FORMED)
    def test_parsers_agree_structurally(self, text):
        assert_same_tree(text)


class TestWorkloadCorpora:
    def test_purchase_orders(self):
        for items in (0, 1, 7, 40):
            document = make_purchase_order(items)
            for indent in ("", "  "):
                text = serialize(document, indent=indent)
                assert_same_stream(text)
                assert_same_tree(text)

    def test_adversarial_shapes_in_budget(self):
        # Small instances of the adversarial shapes: both tokenizers
        # must walk them identically (guard-tripping sizes are covered
        # by the guards tests; token equivalence needs the shape, not
        # the scale).
        for text in (
            deep_document(60),
            wide_document(200),
            entity_bomb(50),
        ):
            assert_same_stream(text)

    def test_generated_documents(self):
        streams_checked = 0
        for seed in range(12):
            try:
                schema = random_schema(random.Random(seed))
            except Exception:
                continue  # rare unproductive draw, documented by the API
            document = sample_document(random.Random(seed * 7 + 1), schema)
            if document is None:
                continue
            for indent in ("", " "):
                text = serialize(document, indent=indent)
                assert_same_stream(text)
                assert_same_tree(text)
                streams_checked += 1
        assert streams_checked >= 10  # the corpus actually exercised us

    def test_random_text_mutations_fail_identically(self):
        # Chop and splice well-formed documents at random: most results
        # are malformed in interesting ways; both lexers must agree on
        # every single one (verdict, message, and position).
        rng = random.Random(99)
        base = serialize(make_purchase_order(3), indent=" ")
        for _ in range(200):
            cut = rng.randrange(len(base))
            mutated = base[:cut] + rng.choice(
                ["", "<", ">", "&", "]]>", "<!--", "<x", "</x>", "'"]
            ) + base[cut + rng.randrange(3):]
            assert_same_stream(mutated)
