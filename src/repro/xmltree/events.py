"""Streaming (SAX-style) XML parsing.

:func:`iterparse` yields start/text/end events without ever building a
tree — the substrate of the reference event-walk cast
(:func:`repro.core.reference.reference_cast`, the fused kernel's
oracle).  It stays public as ``repro.xmltree.iterparse``, but the
product validates text with the fused kernel
(:mod:`repro.core.castkernel`): no module of ``repro.core``,
``repro.service`` or ``repro.cli`` but the oracle imports this one
(``tests/test_oracle_isolation.py``).  The event stream matches
the DOM parser's semantics exactly: same entity handling, same
whitespace-only text suppression (unless ``keep_whitespace``), same
error positions; a tree built from the events equals :func:`parse`'s.

Like the tree parser, the event loop runs on the bulk master regex
(:data:`repro.xmltree.lexer.MASTER_RE`) — one C-level match per tag or
text run — and replays malformed markup through the tree parser's
character-level replay (:func:`repro.xmltree.lexer.fail_at_markup`),
after the pending text's event when the replay reads a tag, so
diagnostics and event order are unchanged from the historical
implementation.  Pass ``symbols=`` to intern element labels as they are
lexed: ``StartElement.sym`` then carries the label's dense id in that
table (``-1`` otherwise), so an event consumer can skip per-event
string hashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Union

from repro.guards import (
    Deadline,
    Limits,
    check_depth,
    check_document_size,
    resolve_limits,
)
from repro.xmltree.lexer import (
    TOK_CDATA,
    TOK_COMMENT,
    TOK_END,
    TOK_START,
    TOK_TEXT,
    Scanner,
    at_tag,
    expect_root,
    fail_at_markup,
    skip_prolog,
    trailing_misc,
)

#: Shared empty attribute mapping for the (dominant) no-attribute case —
#: read-only so sharing is safe.
_NO_ATTRIBUTES: Mapping[str, str] = MappingProxyType({})


@dataclass(frozen=True)
class StartElement:
    label: str
    attributes: Mapping[str, str]
    #: dense id of ``label`` in the symbol table ``iterparse`` was given
    #: (-1 without a table or for out-of-alphabet labels).  Not part of
    #: equality: the same document yields equal events whether or not it
    #: was lexed with interning.
    sym: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Characters:
    value: str


@dataclass(frozen=True)
class EndElement:
    label: str


Event = Union[StartElement, Characters, EndElement]


def iterparse(
    text: str,
    *,
    keep_whitespace: bool = False,
    limits: Optional[Limits] = None,
    deadline: Optional[Deadline] = None,
    symbols=None,
) -> Iterator[Event]:
    """Yield parse events for a whole XML document.

    The same resource guards as :func:`repro.xmltree.parser.parse`
    apply: document size up front, nesting depth as elements open,
    entity expansions inside the scanner, and the optional wall-clock
    deadline ticked once per start tag.
    """
    limits = resolve_limits(limits)
    check_document_size(len(text), limits)
    if deadline is None:
        deadline = limits.deadline()
    scanner = Scanner(text, limits=limits, deadline=deadline)
    skip_prolog(scanner)
    expect_root(scanner)
    yield from _element_events(scanner, keep_whitespace, symbols)
    trailing_misc(scanner)


def _element_events(
    scanner: Scanner,
    keep_whitespace: bool,
    symbols=None,
    stack: Optional[list[tuple[str, int]]] = None,
    pull: "Optional[PullParser]" = None,
) -> Iterator[Event]:
    """Iterative traversal: yields events for the root element's
    subtree, from its start tag at the cursor
    (:func:`~repro.xmltree.lexer.expect_root`).

    ``stack``/``pull`` wire the :class:`PullParser` skip channel in:
    the open-element stack of ``(label, start-tag offset)`` entries is
    shared with the pull handle (so a mid-stream byte skim can pop the
    element it just fast-forwarded past), ``pull._skippable`` is raised
    exactly while the generator is suspended on a ``StartElement``, and
    a skim that closes the root sets ``pull._root_done`` so the loop
    ends without ever seeing the root's close tag.
    """
    ids = symbols.ids if symbols is not None else None
    deadline = scanner.deadline
    if stack is None:
        stack = []
    text_parts: list[str] = []

    def flush_text() -> Iterator[Event]:
        if not text_parts:
            return
        value = "".join(text_parts)
        text_parts.clear()
        if value.strip() == "" and not keep_whitespace:
            return
        yield Characters(value)

    while True:
        if pull is not None and pull._root_done:
            return
        pos = scanner.pos
        hit = scanner.next_content_match()
        if hit is None:  # EOF or malformed markup: diagnose, raise
            if at_tag(scanner):  # text flushes before a tag is read
                yield from flush_text()
            label, start = stack[-1]
            fail_at_markup(scanner, label, start)
        kind, m = hit

        if kind == TOK_TEXT:
            raw = m.group("text")
            scanner.pos = m.end()
            bad = raw.find("]]>")
            if bad >= 0:
                raise scanner.error(
                    "']]>' is not allowed in character data", pos + bad
                )
            if "&" in raw:
                raw = scanner.decode_entities(raw, pos)
            text_parts.append(raw)

        elif kind == TOK_START:
            yield from flush_text()
            check_depth(len(stack) + 1, scanner.limits)
            if deadline is not None:
                deadline.tick()
            name, attributes, self_closing = scanner.start_tag_parts(m)
            sym = ids.get(name, -1) if ids is not None else -1
            event_attrs: Mapping[str, str] = (
                attributes if attributes is not None else _NO_ATTRIBUTES
            )
            if self_closing:
                if pull is not None:
                    pull._skippable = True
                    pull._pending_self_close = True
                yield StartElement(name, event_attrs, sym)
                if pull is not None:
                    pull._skippable = False
                    pull._pending_self_close = False
                yield EndElement(name)
                if not stack:
                    return
            else:
                stack.append((name, pos))
                if pull is not None:
                    pull._skippable = True
                yield StartElement(name, event_attrs, sym)
                if pull is not None:
                    pull._skippable = False

        elif kind == TOK_END:
            yield from flush_text()
            close_name = m.group("ename")
            scanner.pos = m.end()
            if stack[-1][0] != close_name:
                raise scanner.error(
                    f"mismatched close tag </{close_name}> for "
                    f"<{stack[-1][0]}>",
                    m.end("ename"),
                )
            stack.pop()
            yield EndElement(close_name)
            if not stack:
                return

        elif kind == TOK_COMMENT:
            scanner.pos = m.end()
            if "--" in m.group("comment"):
                raise scanner.error("'--' is not allowed inside a comment")

        elif kind == TOK_CDATA:
            scanner.pos = m.end()
            text_parts.append(m.group("cdata"))

        else:  # TOK_PI
            scanner.pos = m.end()


class PullParser:
    """A pull-style handle over :func:`iterparse` with a skip channel.

    Iterating a ``PullParser`` yields exactly the events ``iterparse``
    would (same guards, same diagnostics).  The extra capability is
    :meth:`skip_subtree`: immediately after consuming a
    :class:`StartElement`, the consumer may declare the whole subtree
    uninteresting — the underlying :class:`~repro.xmltree.lexer.Scanner`
    then byte-searches straight to the matching end tag
    (:meth:`Scanner.skim_subtree`, which trusts the subtree to be
    well-formed) without tokenizing, entity-decoding, or interning
    anything in between, and iteration resumes after the close tag.  No
    events are delivered for the skipped region, not even the element's
    own :class:`EndElement`.

    This is the validator→lexer control channel of the reference
    cast's trusted mode: a subsumed ``(source, target)`` pair's subtree
    needs no checks, so under the source-validity premise it need not
    be parsed either.

    Attributes:
        bytes_skipped: source characters fast-forwarded over so far.
        subtrees_skipped: completed :meth:`skip_subtree` calls.
    """

    def __init__(
        self,
        text: str,
        *,
        keep_whitespace: bool = False,
        limits: Optional[Limits] = None,
        deadline: Optional[Deadline] = None,
        symbols=None,
    ):
        limits = resolve_limits(limits)
        check_document_size(len(text), limits)
        if deadline is None:
            deadline = limits.deadline()
        self.scanner = Scanner(text, limits=limits, deadline=deadline)
        self.bytes_skipped = 0
        self.subtrees_skipped = 0
        #: Open elements as ``(label, start-tag offset)``, shared with
        #: the event generator.
        self._stack: list[tuple[str, int]] = []
        #: True exactly while the generator is suspended on a
        #: StartElement — the only moment a skip is well-defined.
        self._skippable = False
        #: The suspended StartElement came from a self-closing tag (its
        #: EndElement is already queued; there is nothing to skim).
        self._pending_self_close = False
        #: A skim consumed the root's close tag; the generator must not
        #: scan for further element content.
        self._root_done = False
        self._keep_whitespace = keep_whitespace
        self._symbols = symbols
        self._events = self._run()

    def __iter__(self) -> "PullParser":
        return self

    def __next__(self) -> Event:
        return next(self._events)

    def _run(self) -> Iterator[Event]:
        scanner = self.scanner
        skip_prolog(scanner)
        expect_root(scanner)
        yield from _element_events(
            scanner,
            self._keep_whitespace,
            self._symbols,
            stack=self._stack,
            pull=self,
        )
        trailing_misc(scanner)

    def skip_subtree(self) -> int:
        """Byte-skim past the element whose ``StartElement`` was just
        consumed; returns the number of characters skipped.

        Legal only immediately after ``next()``/iteration returned a
        :class:`StartElement` (otherwise raises ``ValueError`` — there
        is no well-defined subtree to skip).  For a self-closing tag
        the pending :class:`EndElement` is silently drained and the
        skip is trivially 0 bytes.  See :meth:`Scanner.skim_subtree` for
        the well-formedness contract the skim assumes.
        """
        if not self._skippable:
            raise ValueError(
                "skip_subtree() is only legal immediately after a "
                "StartElement event"
            )
        if self._pending_self_close:
            event = next(self._events)
            assert isinstance(event, EndElement)
            self.subtrees_skipped += 1
            return 0
        self._skippable = False
        scanner = self.scanner
        start = scanner.pos
        end = scanner.skim_subtree(
            label=self._stack[-1][0], base_depth=len(self._stack)
        )
        self._stack.pop()
        if not self._stack:
            self._root_done = True
        skipped = end - start
        self.bytes_skipped += skipped
        self.subtrees_skipped += 1
        return skipped

