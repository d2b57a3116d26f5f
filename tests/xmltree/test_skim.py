"""The two ways past a subsumed subtree: the kernel's drain and the
trusted byte search (``Scanner.skim_subtree``, ``PullParser``).

A cast never *validates* a subtree whose type pair is subsumed
(Section 3.2), but by default the fused kernel still drains it through
the full lexer, so every well-formedness check holds there too; only
``trusted=True`` byte-searches for the close tag instead.  Under test:

* bodies hiding ``<``/``>``/``</label`` inside comments, CDATA
  sections, processing instructions and quoted attribute values,
  placed inside an Experiment 1 order's subsumed ``items``: the drain
  answers exactly as parse-then-cast and as the event loop does;
* syntax errors inside ``items``: the same message and line/column as
  :func:`~repro.xmltree.parser.parse`;
* resource guards — nesting depth and the wall-clock deadline — keep
  firing inside a subsumed subtree, drained or byte-searched;
* the trusted byte search: name-boundary handling and the
  well-formedness contract it assumes, against the drain;
* the :class:`PullParser` skip channel: event parity, skip semantics
  for ordinary/self-closing/root elements, misuse errors, counters.
"""

from dataclasses import replace

import pytest

from repro.core.cast import CastValidator, cast_text
from repro.core.reference import reference_cast
from repro.errors import (
    DeadlineExceededError,
    DocumentTooDeepError,
    XMLSyntaxError,
)
from repro.guards import Deadline, Limits, resolve_limits
from repro.schema.dtd import parse_dtd
from repro.schema.registry import SchemaPair
from repro.workloads.adversarial import (
    deep_document,
    garbage_tail_document,
    truncated_document,
    wide_document,
)
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.events import (
    Characters,
    EndElement,
    PullParser,
    StartElement,
    iterparse,
)
from repro.xmltree.lexer import Scanner
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize


def skim(
    text: str,
    label: str = "a",
    *,
    limits: Limits = None,
    deadline: Deadline = None,
) -> int:
    """Byte-search past the first ``<label …>`` element's subtree;
    return the end offset (first character after the matching close
    tag)."""
    scanner = Scanner(
        text, limits=resolve_limits(limits), deadline=deadline
    )
    start = text.index(">", text.index("<" + label)) + 1
    end = scanner.skim_subtree(start, label=label, base_depth=1)
    assert end == scanner.pos
    return end


#: An Experiment 1 order: ``shipTo``, ``billTo`` and ``items`` are
#: subsumed, so the cast validates none of them.
ORDER = serialize(make_purchase_order(3), indent="  ")
#: Just after the first ``</item>``: a middle of the subsumed ``items``.
IN_ITEMS = ORDER.index("</item>") + len("</item>")


def in_items(fragment: str, *, truncate: bool = False) -> str:
    """``ORDER`` with ``fragment`` inside its subsumed ``items`` (and
    nothing after it when ``truncate``)."""
    tail = "" if truncate else ORDER[IN_ITEMS:]
    return ORDER[:IN_ITEMS] + fragment + tail


def kernel_answer(pair, text, **options):
    report = cast_text(pair, text, **options)
    return report.valid, report.reason, report.path


def dom_answer(pair, text):
    """Parse-then-cast, a syntax error worded as ``cast_text`` words
    it."""
    try:
        report = CastValidator(pair).validate(parse(text))
    except XMLSyntaxError as error:
        return False, f"not well-formed: {error}", ""
    return report.valid, report.reason, report.path


#: Subtree bodies that hide markup delimiters where a naive depth
#: counter would trip; each is well-formed.
HARDENED_BODIES = [
    ("plain-children", "<b>x</b><c>y</c>"),
    ("close-tag-in-comment", "<!-- a fake </a> close --><b/>"),
    ("angles-in-comment", "<!-- 1 < 2 > 0 <b> -->"),
    ("close-tag-in-cdata", "<![CDATA[</a> and < and > and <a>]]>"),
    ("cdata-bracket-run", "<![CDATA[x]] ]]>"),
    ("close-tag-in-pi", "<?pi data </a> <a> ?>"),
    ("xmlish-pi", "<?target attr='</a>'?>"),
    ("gt-in-attribute", '<b x="1 > 0">t</b>'),
    ("close-tag-in-attribute", "<b x='</a>'/>"),
    ("lt-is-illegal-but-gt-ok", '<b x="a>b" y=\'c>d\'/>'),
    ("same-name-nesting", "<a><a>deep</a></a>mid<a/>"),
    ("entity-references", "text &lt;&amp;&#60; more"),
    ("self-closing-run", "<b/><b />ww<b/>"),
    ("mixed-everything", "t1<b p='>'/><!--<x>--><![CDATA[<y>]]>t2"),
]


class TestHardenedSkim:
    """The checked way past a subsumed subtree is the kernel's drain:
    each body, wrapped in ``<a>`` inside the subsumed ``items``."""

    @pytest.mark.parametrize(
        "body", [b for _, b in HARDENED_BODIES],
        ids=[name for name, _ in HARDENED_BODIES],
    )
    def test_skims_to_the_matching_close(self, exp1_pair, body):
        text = in_items(f"<a>{body}</a>")
        assert kernel_answer(exp1_pair, text) == dom_answer(
            exp1_pair, text
        ) == (True, "", "")

    @pytest.mark.parametrize(
        "body", [b for _, b in HARDENED_BODIES],
        ids=[name for name, _ in HARDENED_BODIES],
    )
    def test_agrees_with_the_full_event_loop(self, exp1_pair, body):
        """The kernel's drain and the event loop's drain answer and
        count alike."""
        text = in_items(f"<a>{body}</a>")
        kernel = cast_text(exp1_pair, text)
        events = reference_cast(exp1_pair, text)
        assert kernel.valid and events.valid
        assert kernel.stats == events.stats


class TestSkimErrors:
    """Syntax errors inside the subsumed ``items``: the drain answers
    with parse's message and line/column."""

    @staticmethod
    def assert_parse_answer(pair, text, match):
        answer = kernel_answer(pair, text)
        assert answer == dom_answer(pair, text)
        valid, reason, _ = answer
        assert not valid and reason.startswith("not well-formed: ")
        assert match in reason and "line" in reason

    def test_truncated_subtree(self, exp1_pair):
        self.assert_parse_answer(
            exp1_pair, in_items("<a><b>never closed", truncate=True),
            "unterminated element <b>",
        )

    def test_truncated_adversarial_document(self, exp1_pair):
        # The corpus document is cut mid-tag.
        self.assert_parse_answer(
            exp1_pair, in_items(truncated_document(depth=4), truncate=True),
            "expected",
        )

    def test_mismatched_final_close(self, exp1_pair):
        self.assert_parse_answer(
            exp1_pair, in_items("<a><b></b></x>"),
            "mismatched close tag </x> for <a>",
        )

    def test_cdata_end_in_character_data(self, exp1_pair):
        self.assert_parse_answer(
            exp1_pair, in_items("<a>text ]]> more</a>"), "']]>' is not allowed"
        )

    def test_double_hyphen_in_comment(self, exp1_pair):
        self.assert_parse_answer(
            exp1_pair, in_items("<a><!-- bad -- comment --></a>"),
            "'--' is not allowed",
        )

    def test_malformed_markup(self, exp1_pair):
        self.assert_parse_answer(
            exp1_pair, in_items("<a><b <c></a>"), "expected an XML name"
        )

    def test_errors_carry_line_and_column(self, exp1_pair):
        text = in_items("<a>\n<b/>\n</x>")
        line = text[: text.index("</x>")].count("\n") + 1
        self.assert_parse_answer(
            exp1_pair, text, f"(line {line}, column 4)"
        )


class TestTrustedSkim:
    @pytest.mark.parametrize(
        "body",
        [
            "<b>x</b><c>y</c>",
            "<a><a>deep</a></a>mid<a/>",
            "text &lt;&amp; more",
            "<a attr='v'>nested</a>",
        ],
    )
    def test_agrees_with_hardened_mode(self, exp1_pair, body):
        # On well-formed text the byte search answers as the drain
        # does and counts the same work, bytes skipped aside.
        text = in_items(f"<a>{body}</a>")
        drained = cast_text(exp1_pair, text)
        trusted = cast_text(exp1_pair, text, trusted=True)
        assert kernel_answer(exp1_pair, text, trusted=True) == (
            kernel_answer(exp1_pair, text)
        ) == (True, "", "")
        assert drained.stats.bytes_skipped == 0
        assert trusted.stats.bytes_skipped > 0
        assert replace(trusted.stats, bytes_skipped=0) == drained.stats

    def test_name_boundary_longer_close(self):
        # </items> must not close <item>.
        text = "<item><items><item/></items></item>rest"
        end = skim(text, "item")
        assert text[end:] == "rest"

    def test_name_boundary_longer_open(self):
        # <items …> must not count as a nested <item>.
        text = "<item><items>x</items></item>rest"
        end = skim(text, "item")
        assert text[end:] == "rest"

    def test_self_closing_same_name(self):
        text = "<a><a/><a />t</a>rest"
        end = skim(text)
        assert text[end:] == "rest"

    def test_unterminated(self):
        with pytest.raises(XMLSyntaxError, match="unterminated element"):
            skim("<a><a>never")

    def test_contract_violation_is_the_callers_problem(self, exp1_pair):
        # A same-name close hidden in a comment is exactly what the
        # byte search does NOT defend against (its documented
        # contract): it stops at the hidden close, while the drain
        # reads on to the real one.  This is why trusted is opt-in.
        text = "<r><a><!-- </a> --><b/></a><tail/></r>"
        assert text[skim(text):] == " --><b/></a><tail/></r>"
        hidden = in_items("<!-- </items> -->")
        assert kernel_answer(exp1_pair, hidden) == (True, "", "")
        assert not cast_text(exp1_pair, hidden, trusted=True).valid


def _dtd_pair(source: str, target: str) -> SchemaPair:
    return SchemaPair(parse_dtd(source, roots=["a"]),
                      parse_dtd(target, roots=["a"]))


#: ``a`` nests itself on both sides: the pair subsumes the root, so a
#: whole ``deep_document`` is one subsumed subtree.
NESTED = _dtd_pair("<!ELEMENT a (a?)>", "<!ELEMENT a (a?)>")
#: The same for ``wide_document``'s flat fan-out.
FLAT = _dtd_pair("<!ELEMENT a (b*)><!ELEMENT b (#PCDATA)>",
                 "<!ELEMENT a (b*)><!ELEMENT b (#PCDATA)>")
#: ``a`` loses ``c`` in the target, so the cast checks every ``a``;
#: ``b`` chains are subsumed.
CHECKED_ABOVE_SUBSUMED = _dtd_pair(
    "<!ELEMENT a (a|b|c)><!ELEMENT b (b?)><!ELEMENT c EMPTY>",
    "<!ELEMENT a (a|b)><!ELEMENT b (b?)>",
)


class TestGuardsDuringSkim:
    """Guards fire inside a subsumed subtree, drained (``trusted``
    false) or byte-searched."""

    @pytest.mark.parametrize("trusted", [False, True])
    def test_depth_limit_fires_inside_a_skim(self, trusted):
        with pytest.raises(DocumentTooDeepError):
            cast_text(NESTED, deep_document(300),
                      limits=Limits(max_tree_depth=50), trusted=trusted)

    @pytest.mark.parametrize("trusted", [False, True])
    def test_depth_limit_counts_from_base_depth(self, trusted):
        # Depth is absolute: a shallow subsumed subtree under a deep
        # checked ancestor chain must still trip.
        text = "<a>" * 20 + deep_document(25, "b") + "</a>" * 20
        with pytest.raises(DocumentTooDeepError):
            cast_text(CHECKED_ABOVE_SUBSUMED, text,
                      limits=Limits(max_tree_depth=40), trusted=trusted)
        assert cast_text(CHECKED_ABOVE_SUBSUMED, text,
                         limits=Limits(max_tree_depth=45),
                         trusted=trusted).valid

    @pytest.mark.parametrize("trusted", [False, True])
    def test_deadline_fires_inside_a_skim(self, trusted):
        # >2x the tick stride of same-name tags, so even the byte
        # search (which only sees same-name nesting) reads the clock.
        with pytest.raises(DeadlineExceededError):
            cast_text(NESTED, deep_document(2 * Deadline.stride + 10),
                      limits=Limits(deadline_seconds=1e-9),
                      trusted=trusted)

    def test_deadline_fires_on_flat_fanout(self):
        with pytest.raises(DeadlineExceededError):
            cast_text(FLAT, wide_document(2 * Deadline.stride + 10),
                      limits=Limits(deadline_seconds=1e-9))


class TestPullParser:
    @pytest.mark.parametrize(
        "text",
        [
            "<a><b>x</b><c/>tail</a>",
            "<?xml version='1.0'?><!-- head --><a>t<b/></a><!-- tail -->",
            "<a>one<![CDATA[<raw>]]>two</a>",
        ],
    )
    def test_event_parity_with_iterparse(self, text):
        assert list(PullParser(text)) == list(iterparse(text))

    def test_skip_returns_byte_count(self):
        text = "<r><a><b>x</b></a><c/></r>"
        pull = PullParser(text)
        next(pull)  # <r>
        next(pull)  # <a>
        subtree = "<b>x</b></a>"  # from after <a> through </a>
        assert pull.skip_subtree() == len(subtree)
        assert pull.bytes_skipped == len(subtree)
        assert pull.subtrees_skipped == 1
        assert list(pull) == [
            StartElement("c", {}),
            EndElement("c"),
            EndElement("r"),
        ]

    def test_skip_self_closing_is_zero_bytes(self):
        pull = PullParser("<r><a/><b>x</b></r>")
        next(pull)  # <r>
        next(pull)  # <a/>
        assert pull.skip_subtree() == 0
        assert pull.subtrees_skipped == 1
        assert pull.bytes_skipped == 0
        # The queued EndElement was drained: next event is <b>.
        assert next(pull) == StartElement("b", {})

    def test_skip_root_ends_iteration(self):
        pull = PullParser("<a><b>x</b></a><!-- trailing -->")
        next(pull)  # <a>
        assert pull.skip_subtree() > 0
        assert list(pull) == []

    def test_skip_root_still_rejects_garbage_tail(self):
        pull = PullParser(garbage_tail_document())
        next(pull)
        pull.skip_subtree()
        with pytest.raises(XMLSyntaxError, match="after the root"):
            list(pull)

    def test_skip_before_any_event_is_an_error(self):
        pull = PullParser("<a/>")
        with pytest.raises(ValueError, match="StartElement"):
            pull.skip_subtree()

    def test_skip_after_end_element_is_an_error(self):
        pull = PullParser("<a><b/></a>")
        next(pull)  # <a>
        next(pull)  # <b/> start
        next(pull)  # </b>
        with pytest.raises(ValueError, match="StartElement"):
            pull.skip_subtree()

    def test_skip_after_characters_is_an_error(self):
        pull = PullParser("<a>text<b/></a>")
        next(pull)
        event = next(pull)
        assert event == Characters("text")
        with pytest.raises(ValueError, match="StartElement"):
            pull.skip_subtree()

    def test_double_skip_is_an_error(self):
        pull = PullParser("<r><a>x</a><b>y</b></r>")
        next(pull)
        next(pull)
        pull.skip_subtree()
        with pytest.raises(ValueError, match="StartElement"):
            pull.skip_subtree()

    def test_skip_on_truncated_document_raises(self):
        pull = PullParser(truncated_document(depth=4))
        next(pull)  # outer <a>
        with pytest.raises(
            XMLSyntaxError, match="unterminated|malformed"
        ):
            pull.skip_subtree()

    def test_interleaved_skips_and_events(self):
        text = "<r><a>one</a><b>two</b><c>three</c></r>"
        pull = PullParser(text)
        events = []
        for event in pull:
            if isinstance(event, StartElement) and event.label in ("a", "c"):
                pull.skip_subtree()
                continue
            events.append(event)
        assert events == [
            StartElement("r", {}),
            StartElement("b", {}),
            Characters("two"),
            EndElement("b"),
            EndElement("r"),
        ]
        assert pull.subtrees_skipped == 2
