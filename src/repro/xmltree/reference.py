"""Character-at-a-time reference lexer/parser — the executable spec.

This module preserves the pre-regex implementation of the scanner and
the recursive-descent parser as an *oracle*: the bulk-regex lexer in
:mod:`repro.xmltree.lexer` and the parser built on it must produce
token-for-token (and node-for-node) identical output, including error
messages and positions on malformed input.
``tests/xmltree/test_token_equivalence.py`` checks that across the
generated workloads and the adversarial corpus; ``bench_parse.py`` uses
this module as the speedup baseline.

Two deliberate deviations from the historical code, both part of the
specification rather than drift:

* Entity decoding follows the hardened rule — a reference whose ``;``
  does not appear before the next ``&`` or the token boundary raises
  the typed :class:`~repro.errors.UnterminatedEntityError` at the
  offending ``&`` (the old code scanned past intervening ``&`` looking
  for any later ``;``).
* ``line_column`` keeps the old ``count`` + ``rfind`` computation —
  that is the point: it is the independent implementation the indexed
  version is tested against.

Nothing in the production code path imports this module.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import (
    EntityExpansionError,
    UnterminatedEntityError,
    XMLSyntaxError,
)
from repro.guards import (
    Deadline,
    Limits,
    check_depth,
    check_document_size,
    resolve_limits,
)
from repro.xmltree.dom import Document, Element, Text
from repro.xmltree.lexer import (
    PREDEFINED_ENTITIES,
    TOK_CDATA,
    TOK_COMMENT,
    TOK_END,
    TOK_PI,
    TOK_START,
    TOK_TEXT,
)

_NAME_START = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:"
)
_NAME_CHARS = _NAME_START | set("0123456789-.")

_WHITESPACE = set(" \t\r\n")


class ReferenceScanner:
    """The pre-regex character-level scanner, kept verbatim (modulo the
    hardened entity rule documented in the module docstring)."""

    def __init__(
        self,
        text: str,
        *,
        limits: Optional[Limits] = None,
        deadline: Optional[Deadline] = None,
    ):
        self.text = text
        self.pos = 0
        self.limits = resolve_limits(limits)
        self.deadline = deadline
        self.entity_expansions = 0
        self._max_expansions = self.limits.max_entity_expansions

    # -- position reporting -------------------------------------------------

    def line_column(self, pos: int | None = None) -> tuple[int, int]:
        """O(pos) per request — the historical implementation the
        newline-indexed version must agree with."""
        if pos is None:
            pos = self.pos
        pos = min(pos, len(self.text))
        line = self.text.count("\n", 0, pos) + 1
        last_newline = self.text.rfind("\n", 0, pos)
        return line, pos - last_newline

    def error(self, message: str, pos: int | None = None,
              kind: type = XMLSyntaxError) -> XMLSyntaxError:
        line, column = self.line_column(pos)
        return kind(message, line, column)

    # -- basic cursor operations --------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, ahead: int = 0) -> str:
        index = self.pos + ahead
        if index < len(self.text):
            return self.text[index]
        return ""

    def starts_with(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def expect(self, literal: str) -> None:
        if not self.starts_with(literal):
            found = self.text[self.pos : self.pos + len(literal)] or "<EOF>"
            raise self.error(f"expected {literal!r}, found {found!r}")
        self.pos += len(literal)

    def match(self, literal: str) -> bool:
        if self.starts_with(literal):
            self.pos += len(literal)
            return True
        return False

    # -- token-level helpers ------------------------------------------------

    def skip_whitespace(self) -> bool:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _WHITESPACE:
            self.pos += 1
        return self.pos > start

    def read_name(self) -> str:
        start = self.pos
        if self.at_end() or self.text[self.pos] not in _NAME_START:
            raise self.error("expected an XML name")
        self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        return self.text[start : self.pos]

    def read_until(self, delimiter: str, *, what: str) -> str:
        end = self.text.find(delimiter, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}: missing {delimiter!r}")
        chunk = self.text[self.pos : end]
        self.pos = end + len(delimiter)
        return chunk

    def read_quoted(self) -> str:
        quote = self.peek()
        if quote not in ("'", '"'):
            raise self.error("expected a quoted literal")
        self.advance()
        return self.read_until(quote, what="quoted literal")

    # -- entity decoding ----------------------------------------------------

    def decode_entities(self, raw: str, start_pos: int) -> str:
        """Character-loop entity decoder with the hardened unterminated
        rule (see module docstring)."""
        if "&" not in raw:
            return raw
        out: list[str] = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch != "&":
                out.append(ch)
                i += 1
                continue
            semi = raw.find(";", i + 1)
            next_amp = raw.find("&", i + 1)
            if semi < 0 or (0 <= next_amp < semi):
                raise self.error(
                    "unterminated entity reference",
                    start_pos + i,
                    UnterminatedEntityError,
                )
            body = raw[i + 1 : semi]
            out.append(self._expand_entity(body, start_pos + i))
            i = semi + 1
        return "".join(out)

    def _expand_entity(self, body: str, pos: int) -> str:
        self.entity_expansions += 1
        if (
            self._max_expansions is not None
            and self.entity_expansions > self._max_expansions
        ):
            line, column = self.line_column(pos)
            raise EntityExpansionError(
                f"more than {self._max_expansions} entity expansions "
                f"(line {line}, column {column})"
            )
        if body.startswith("#x") or body.startswith("#X"):
            try:
                return chr(int(body[2:], 16))
            except (ValueError, OverflowError):
                raise self.error(f"bad character reference &{body};", pos)
        if body.startswith("#"):
            try:
                return chr(int(body[1:]))
            except (ValueError, OverflowError):
                raise self.error(f"bad character reference &{body};", pos)
        try:
            return PREDEFINED_ENTITIES[body]
        except KeyError:
            raise self.error(f"unknown entity &{body};", pos) from None


# -- reference token stream ---------------------------------------------------


def _skip_prolog(scanner: ReferenceScanner) -> tuple[str, str]:
    doctype_name = ""
    internal_subset = ""
    scanner.skip_whitespace()
    if scanner.starts_with("<?xml"):
        scanner.advance(2)
        scanner.read_until("?>", what="XML declaration")
    while True:
        scanner.skip_whitespace()
        if scanner.starts_with("<!--"):
            _skip_comment(scanner)
        elif scanner.starts_with("<?"):
            scanner.advance(2)
            scanner.read_until("?>", what="processing instruction")
        elif scanner.starts_with("<!DOCTYPE"):
            doctype_name, internal_subset = _read_doctype(scanner)
        else:
            return doctype_name, internal_subset


def _skip_comment(scanner: ReferenceScanner) -> str:
    scanner.expect("<!--")
    body = scanner.read_until("-->", what="comment")
    if "--" in body:
        raise scanner.error("'--' is not allowed inside a comment")
    return body


def _read_doctype(scanner: ReferenceScanner) -> tuple[str, str]:
    scanner.expect("<!DOCTYPE")
    scanner.skip_whitespace()
    name = scanner.read_name()
    scanner.skip_whitespace()
    if scanner.match("SYSTEM"):
        scanner.skip_whitespace()
        scanner.read_quoted()
        scanner.skip_whitespace()
    elif scanner.match("PUBLIC"):
        scanner.skip_whitespace()
        scanner.read_quoted()
        scanner.skip_whitespace()
        scanner.read_quoted()
        scanner.skip_whitespace()
    subset = ""
    if scanner.match("["):
        subset = _read_internal_subset(scanner)
        scanner.skip_whitespace()
    scanner.expect(">")
    return name, subset


def _read_internal_subset(scanner: ReferenceScanner) -> str:
    start = scanner.pos
    while True:
        ch = scanner.peek()
        if ch == "":
            raise scanner.error("unterminated DOCTYPE internal subset")
        if ch == "]":
            subset = scanner.text[start : scanner.pos]
            scanner.advance()
            return subset
        if ch in ("'", '"'):
            scanner.read_quoted()
        elif scanner.starts_with("<!--"):
            scanner.advance(4)
            scanner.read_until("-->", what="comment")
        else:
            scanner.advance()


def _read_attributes(
    scanner: ReferenceScanner, element_name: str
) -> list[tuple[str, str]]:
    attributes: list[tuple[str, str]] = []
    seen: set[str] = set()
    while True:
        had_space = scanner.skip_whitespace()
        ch = scanner.peek()
        if ch in (">", "/") or ch == "":
            return attributes
        if not had_space:
            raise scanner.error(
                f"expected whitespace before attribute in <{element_name}>"
            )
        attr_pos = scanner.pos
        attr_name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        value_pos = scanner.pos + 1
        raw_value = scanner.read_quoted()
        if attr_name in seen:
            raise scanner.error(
                f"duplicate attribute {attr_name!r} in <{element_name}>",
                attr_pos,
            )
        seen.add(attr_name)
        attributes.append(
            (attr_name, scanner.decode_entities(raw_value, value_pos))
        )


def reference_tokens(
    text: str,
    *,
    limits: Optional[Limits] = None,
    deadline: Optional[Deadline] = None,
) -> Iterator[tuple]:
    """Character-at-a-time token stream; the specification that
    :func:`repro.xmltree.lexer.iter_tokens` must reproduce exactly."""
    scanner = ReferenceScanner(text, limits=limits, deadline=deadline)
    _skip_prolog(scanner)
    if not scanner.starts_with("<"):
        raise scanner.error("expected the root element")
    if scanner.peek(1) not in _NAME_START:
        # No start tag (a close tag or CDATA section, say): the root
        # must be an element, and reading one fails on its name.
        scanner.advance(1)
        scanner.read_name()
    depth = 0
    open_labels = [""]
    open_positions = [0]
    while True:
        pos = scanner.pos
        if scanner.at_end():
            raise scanner.error(
                f"unterminated element <{open_labels[-1]}>", open_positions[-1]
            )
        if scanner.starts_with("</"):
            scanner.advance(2)
            close_name = scanner.read_name()
            if close_name != open_labels[-1]:
                raise scanner.error(
                    f"mismatched close tag </{close_name}> for "
                    f"<{open_labels[-1]}>"
                )
            scanner.skip_whitespace()
            scanner.expect(">")
            yield TOK_END, close_name, pos
            depth -= 1
            open_labels.pop()
            open_positions.pop()
            if depth == 0:
                break
        elif scanner.starts_with("<!--"):
            body = _skip_comment(scanner)
            yield TOK_COMMENT, body, pos
        elif scanner.starts_with("<![CDATA["):
            scanner.advance(len("<![CDATA["))
            yield (
                TOK_CDATA,
                scanner.read_until("]]>", what="CDATA section"),
                pos,
            )
        elif scanner.starts_with("<?"):
            scanner.advance(2)
            yield (
                TOK_PI,
                scanner.read_until("?>", what="processing instruction"),
                pos,
            )
        elif scanner.starts_with("<"):
            if scanner.deadline is not None:
                scanner.deadline.tick()
            scanner.advance(1)
            name = scanner.read_name()
            attributes = _read_attributes(scanner, name)
            if scanner.match("/>"):
                self_closing = True
            else:
                scanner.expect(">")
                self_closing = False
            yield TOK_START, name, tuple(attributes), self_closing, pos
            if not self_closing:
                depth += 1
                open_labels.append(name)
                open_positions.append(pos)
            elif depth == 0:
                break
        else:
            chunk_start = scanner.pos
            while not scanner.at_end() and scanner.peek() != "<":
                scanner.advance()
            raw = scanner.text[chunk_start : scanner.pos]
            if "]]>" in raw:
                raise scanner.error(
                    "']]>' is not allowed in character data",
                    chunk_start + raw.find("]]>"),
                )
            yield (
                TOK_TEXT,
                scanner.decode_entities(raw, chunk_start),
                chunk_start,
            )
    while not scanner.at_end():
        scanner.skip_whitespace()
        if scanner.at_end():
            break
        if scanner.starts_with("<!--"):
            _skip_comment(scanner)
        elif scanner.starts_with("<?"):
            scanner.advance(2)
            scanner.read_until("?>", what="processing instruction")
        else:
            raise scanner.error("content after the root element")


# -- reference parser ---------------------------------------------------------


def reference_parse(
    text: str,
    *,
    keep_whitespace: bool = False,
    limits: Optional[Limits] = None,
    deadline: Optional[Deadline] = None,
) -> Document:
    """The historical recursive-descent parser, producing the same
    :class:`Document` (the same tree) as the production
    :func:`repro.xmltree.parser.parse`."""
    limits = resolve_limits(limits)
    check_document_size(len(text), limits)
    if deadline is None:
        deadline = limits.deadline()
    return _ReferenceParser(
        text, keep_whitespace, limits, deadline
    ).parse_document()


class _ReferenceParser:
    def __init__(
        self,
        text: str,
        keep_whitespace: bool,
        limits: Optional[Limits] = None,
        deadline: Optional[Deadline] = None,
    ):
        self.limits = resolve_limits(limits)
        self.scanner = ReferenceScanner(
            text, limits=self.limits, deadline=deadline
        )
        self.keep_whitespace = keep_whitespace

    def parse_document(self) -> Document:
        scanner = self.scanner
        doctype_name, internal_subset = _skip_prolog(scanner)
        if not scanner.starts_with("<"):
            raise scanner.error("expected the root element")
        root = self._parse_element(1)
        while not scanner.at_end():
            scanner.skip_whitespace()
            if scanner.at_end():
                break
            if scanner.starts_with("<!--"):
                _skip_comment(scanner)
            elif scanner.starts_with("<?"):
                scanner.advance(2)
                scanner.read_until("?>", what="processing instruction")
            else:
                raise scanner.error("content after the root element")
        return Document(root, doctype_name, internal_subset)

    def _parse_element(self, depth: int) -> Element:
        scanner = self.scanner
        check_depth(depth, self.limits)
        if scanner.deadline is not None:
            scanner.deadline.tick()
        open_pos = scanner.pos
        scanner.expect("<")
        name = scanner.read_name()
        attributes = dict(_read_attributes(scanner, name))
        if scanner.match("/>"):
            return Element(name, attributes)
        scanner.expect(">")
        node = Element(name, attributes)
        self._parse_content(node, open_pos, depth)
        return node

    def _parse_content(self, node: Element, open_pos: int, depth: int) -> None:
        scanner = self.scanner
        text_parts: list[str] = []

        def flush_text() -> None:
            if not text_parts:
                return
            value = "".join(text_parts)
            text_parts.clear()
            if value.strip() == "" and not self.keep_whitespace:
                return
            node.append(Text(value))

        while True:
            if scanner.at_end():
                raise scanner.error(
                    f"unterminated element <{node.label}>", open_pos
                )
            if scanner.starts_with("</"):
                flush_text()
                scanner.advance(2)
                close_name = scanner.read_name()
                if close_name != node.label:
                    raise scanner.error(
                        f"mismatched close tag </{close_name}> for "
                        f"<{node.label}>"
                    )
                scanner.skip_whitespace()
                scanner.expect(">")
                return
            if scanner.starts_with("<!--"):
                _skip_comment(scanner)
                continue
            if scanner.starts_with("<![CDATA["):
                scanner.advance(len("<![CDATA["))
                text_parts.append(
                    scanner.read_until("]]>", what="CDATA section")
                )
                continue
            if scanner.starts_with("<?"):
                scanner.advance(2)
                scanner.read_until("?>", what="processing instruction")
                continue
            if scanner.starts_with("<"):
                flush_text()
                node.append(self._parse_element(depth + 1))
                continue
            chunk_start = scanner.pos
            while not scanner.at_end() and scanner.peek() != "<":
                scanner.advance()
            raw = scanner.text[chunk_start : scanner.pos]
            if "]]>" in raw:
                raise scanner.error(
                    "']]>' is not allowed in character data",
                    chunk_start + raw.find("]]>"),
                )
            text_parts.append(scanner.decode_entities(raw, chunk_start))
