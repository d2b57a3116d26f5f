"""Bulk-lexing XML parser producing :class:`~repro.xmltree.dom.Document`.

Supports the XML 1.0 constructs the reproduction needs: prolog, DOCTYPE
(with internal subset captured verbatim for the DTD front-end), elements,
attributes, character data with entity references, CDATA sections,
comments and processing instructions.  Namespace prefixes are kept as part
of names (no expansion), matching the paper's label-based tree model.

By default whitespace-only text between elements is dropped — the paper's
ordered labelled trees have χ leaves only for genuine simple content, and
Xerces-style validators likewise treat such runs as ignorable in element
content.  Pass ``keep_whitespace=True`` to retain them.

The implementation is a single iterative loop over the master content
regex (:data:`repro.xmltree.lexer.MASTER_RE`) with an explicit
open-element stack: one C-level match consumes a whole tag (attributes
included) or text run, and children are attached without going through
the mutation-tracked DOM API (the tree under construction has no cached
hashes to invalidate; a structural hash is computed on first use).
Malformed markup makes the master regex decline, and the
character-level scanner primitives replay the input for a diagnostic
identical to the historical recursive-descent parser's (which survives
as the oracle in :mod:`repro.xmltree.reference`).

Pass ``symbols=`` (a :class:`~repro.automata.compiled.SymbolTable`, e.g.
``pair.symbols``) to intern element labels at parse time: every
``Element.sym`` is then the label's dense id in that table (or ``-1``
for labels outside its alphabet) and ``Document.symbols`` records the
table, letting the validators run their transition lookups on ints
without re-hashing label strings per node.
"""

from __future__ import annotations

from typing import Optional

from repro.guards import (
    Deadline,
    Limits,
    check_depth,
    check_document_size,
    read_document,
    resolve_limits,
)
from repro.xmltree.dom import Document, Element, Text
from repro.xmltree.lexer import (
    TOK_CDATA,
    TOK_COMMENT,
    TOK_END,
    TOK_START,
    TOK_TEXT,
    Scanner,
    expect_root,
    fail_at_markup,
    skip_prolog,
    trailing_misc,
)


def parse(
    text: str,
    *,
    keep_whitespace: bool = False,
    limits: Optional[Limits] = None,
    deadline: Optional[Deadline] = None,
    symbols=None,
) -> Document:
    """Parse an XML document from a string.

    ``limits`` (ambient defaults when ``None``) bounds document size,
    nesting depth, and entity expansions; ``deadline`` is an optional
    caller-owned wall-clock token (one is started from
    ``limits.deadline_seconds`` otherwise).  ``symbols`` enables
    lex-time label interning (see module docstring).
    """
    limits = resolve_limits(limits)
    check_document_size(len(text), limits)
    if deadline is None:
        deadline = limits.deadline()
    scanner = Scanner(text, limits=limits, deadline=deadline)
    doctype_name, internal_subset = skip_prolog(scanner)
    expect_root(scanner)
    root = _parse_tree(scanner, keep_whitespace, limits, symbols)
    trailing_misc(scanner)
    return Document(root, doctype_name, internal_subset, symbols=symbols)


def parse_file(
    path: str,
    *,
    keep_whitespace: bool = False,
    limits: Optional[Limits] = None,
    deadline: Optional[Deadline] = None,
    symbols=None,
) -> Document:
    """Parse an XML document from a file path (UTF-8).

    The size guard runs against the on-disk byte size *before* the file
    is read, so an oversized document is rejected without buffering it.
    """
    limits = resolve_limits(limits)
    return parse(
        read_document(path, limits),
        keep_whitespace=keep_whitespace,
        limits=limits,
        deadline=deadline,
        symbols=symbols,
    )


def parse_fragment(
    text: str,
    *,
    keep_whitespace: bool = False,
    limits: Optional[Limits] = None,
    symbols=None,
) -> Element:
    """Parse a single element (no prolog/doctype) and return it."""
    return parse(
        text, keep_whitespace=keep_whitespace, limits=limits, symbols=symbols
    ).root


def _parse_tree(
    scanner: Scanner,
    keep_whitespace: bool,
    limits: Limits,
    symbols,
) -> Element:
    """Parse the root element and its subtree at the cursor.

    The cursor holds the root's start tag (:func:`~repro.xmltree.lexer
    .expect_root`), and the function returns as soon as the root
    closes, so the open-element stack is never empty inside the loop.
    """
    ids = symbols.ids if symbols is not None else None
    deadline = scanner.deadline

    # Parallel stacks for the open elements: the node, the offset of its
    # ``<`` (for unterminated-element diagnostics), and its pending text
    # buffer (text runs merge across comments/PIs/CDATA, so a buffer
    # flushes only at a child element or the close tag).
    elements: list[Element] = []
    open_positions: list[int] = []
    text_buffers: list[list[str]] = []

    while True:
        pos = scanner.pos
        hit = scanner.next_content_match()
        if hit is None:
            fail_at_markup(scanner, elements[-1]._label, open_positions[-1])
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
            text_buffers[-1].append(raw)

        elif kind == TOK_START:
            check_depth(len(elements) + 1, limits)
            if deadline is not None:
                deadline.tick()
            name, attributes, self_closing = scanner.start_tag_parts(m)
            sym = ids.get(name, -1) if ids is not None else -1
            node = Element._sealed(name, attributes, sym)
            if self_closing:
                if not elements:
                    return node
                _flush_text(elements[-1], text_buffers[-1], keep_whitespace)
                _attach(elements[-1], node)
            else:
                elements.append(node)
                open_positions.append(pos)
                text_buffers.append([])

        elif kind == TOK_END:
            node = elements[-1]
            name = m.group("ename")
            if name != node._label:
                raise scanner.error(
                    f"mismatched close tag </{name}> for <{node._label}>",
                    m.end("ename"),
                )
            scanner.pos = m.end()
            _flush_text(node, text_buffers[-1], keep_whitespace)
            elements.pop()
            open_positions.pop()
            text_buffers.pop()
            if not elements:
                return node
            _flush_text(elements[-1], text_buffers[-1], keep_whitespace)
            _attach(elements[-1], node)

        elif kind == TOK_COMMENT:
            scanner.pos = m.end()
            if "--" in m.group("comment"):
                raise scanner.error("'--' is not allowed inside a comment")

        elif kind == TOK_CDATA:
            scanner.pos = m.end()
            text_buffers[-1].append(m.group("cdata"))

        else:  # TOK_PI
            scanner.pos = m.end()


def _attach(parent: Element, child) -> None:
    """Append without the mutation-tracked API: the tree under
    construction carries no stale cached state to invalidate."""
    child.parent = parent
    child.index = len(parent.children)
    parent.children.append(child)


def _flush_text(
    parent: Element, parts: list[str], keep_whitespace: bool
) -> None:
    if not parts:
        return
    value = "".join(parts)
    parts.clear()
    if not keep_whitespace and value.strip() == "":
        return
    _attach(parent, Text(value))
