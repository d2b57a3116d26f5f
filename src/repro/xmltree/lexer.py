"""Regex-bulk scanner for the XML parser.

The scanner owns the raw text and the position bookkeeping and exposes
the primitives the parsing front-ends (:mod:`repro.xmltree.parser` and
:mod:`repro.xmltree.events`) are built from.  Since the parse path is
the dominant cost of every validation mode, the primitives are built on
compiled regular expressions that consume input in bulk slices instead
of character-at-a-time Python loops:

* :data:`MASTER_RE` — one compiled alternation over the content-level
  constructs (text run, start tag *including its attributes*, close
  tag, comment, CDATA section, processing instruction).  A whole start
  tag — name, attribute list, self-closing slash — is consumed by a
  single C-level match.
* Malformed input falls back to the character-level primitives
  (:meth:`Scanner.read_name`, :meth:`Scanner.expect`, ...), which
  produce exactly the diagnostics the pre-regex implementation did —
  the bulk path never has to report an error itself, it just declines
  to match.
* Line/column reporting is backed by a newline index built once per
  document on the first request (errors are rare) and answered in
  O(log #lines) thereafter, instead of an O(document) ``rfind`` per
  request.
* Entity decoding runs only when a ``&`` was actually seen and raises
  the typed :class:`~repro.errors.UnterminatedEntityError` when a
  reference has no ``;`` before the next ``&`` or the end of the token.

:func:`iter_tokens` exposes the lexical layer directly as a token
stream; ``tests/xmltree/test_token_equivalence.py`` holds it equal to
the character-at-a-time executable specification in
:mod:`repro.xmltree.reference`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Iterator, Optional

from repro.errors import (
    EntityExpansionError,
    UnterminatedEntityError,
    XMLSyntaxError,
)
from repro.guards import Deadline, Limits, check_depth, resolve_limits

# Simplified XML 1.0 name characters.  Colons are accepted so qualified
# names like ``xsd:element`` pass through verbatim (we do not expand
# namespaces; see DESIGN.md section 6).
_NAME_START = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:"
)
_NAME_CHARS = _NAME_START | set("0123456789-.")

_WHITESPACE = set(" \t\r\n")

#: The name production as a regex fragment (same character set as the
#: ``_NAME_START``/``_NAME_CHARS`` tables the fallback path scans with).
NAME_PATTERN = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"

_NAME_RE = re.compile(NAME_PATTERN)
_WS_RE = re.compile(r"[ \t\r\n]+")

#: One attribute: mandatory leading whitespace, name, ``=`` with
#: optional surrounding whitespace, quoted value (either quote kind).
_ATTR_PATTERN = (
    r"[ \t\r\n]+" + NAME_PATTERN +
    r"[ \t\r\n]*=[ \t\r\n]*(?:\"[^\"]*\"|'[^']*')"
)

#: The master content-level alternation.  Arms are ordered by expected
#: frequency (text and start tags dominate every corpus); they are
#: mutually exclusive at any position, so order affects only speed.
#: A failure to match at a non-EOF position means malformed markup —
#: the caller re-diagnoses with the character-level primitives.
MASTER_RE = re.compile(
    r"(?P<text>[^<]+)"
    r"|<(?P<sname>" + NAME_PATTERN + r")(?P<attrs>(?:" + _ATTR_PATTERN +
    r")*)[ \t\r\n]*(?P<selfclose>/?)>"
    r"|</(?P<ename>" + NAME_PATTERN + r")[ \t\r\n]*>"
    r"|<!--(?P<comment>.*?)-->"
    r"|<!\[CDATA\[(?P<cdata>.*?)\]\]>"
    r"|<\?(?P<pi>.*?)\?>",
    re.DOTALL,
)

#: Single-construct compilations of the master arms, byte-for-byte the
#: same patterns (same group names, same acceptance), for callers that
#: already dispatched on the construct kind — the fused validation
#: kernel (:mod:`repro.core.castkernel`) branches on the character
#: after ``<`` and then matches only the one arm that can apply,
#: instead of running the full alternation.
START_TAG_RE = re.compile(
    r"<(?P<sname>" + NAME_PATTERN + r")(?P<attrs>(?:" + _ATTR_PATTERN +
    r")*)[ \t\r\n]*(?P<selfclose>/?)>"
)
END_TAG_RE = re.compile(r"</(?P<ename>" + NAME_PATTERN + r")[ \t\r\n]*>")
COMMENT_RE = re.compile(r"<!--(?P<comment>.*?)-->", re.DOTALL)
CDATA_RE = re.compile(r"<!\[CDATA\[(?P<cdata>.*?)\]\]>", re.DOTALL)
PI_RE = re.compile(r"<\?(?P<pi>.*?)\?>", re.DOTALL)

#: Leaf fast path: an attribute-free start tag, entity-free and
#: bracket-free text, and the matching close tag — one C-level match
#: consumes a whole leaf element.  ``]`` is excluded from the text so
#: the ``]]>``-in-character-data check stays on the general path; a
#: declined match costs one failed anchor and falls through.
LEAF_RE = re.compile(
    r"<(" + NAME_PATTERN + r")>([^<&\]]*)</\1[ \t\r\n]*>"
)

#: An XML whitespace run.  The fused kernel lets indentation ride along
#: with its fast paths: whitespace-only character data between markup
#: is dropped (or drained) without ever becoming a text token.
XML_WS_RE = re.compile(r"[ \t\r\n]+")

#: The *skim* alternation: markup shapes only, no content capture.  The
#: byte-level skip path (:meth:`Scanner.skim_subtree`) needs to know
#: just four things about each construct — is it an open tag, a close
#: tag, self-closing, or opaque (comment/CDATA/PI)?  Names are matched
#: but never extracted (dispatch reads group *spans*, not strings), the
#: attribute list is validated as a block without capturing pairs, and
#: text between markup is jumped over with ``str.find('<')`` rather
#: than matched at all.  The comment/CDATA/PI arms are the hardening
#: against ``<``/``>`` inside those constructs: their lazy bodies
#: consume to the real terminator, exactly like :data:`MASTER_RE`; a
#: ``>`` inside an attribute value is covered by the quoted-value
#: pattern in the open-tag arm.
_SKIM_RE = re.compile(
    r"<(?:"
    r"(?P<skopen>" + NAME_PATTERN + r")(?:" + _ATTR_PATTERN +
    r")*[ \t\r\n]*(?P<skself>/?)>"
    r"|/(?P<skclose>" + NAME_PATTERN + r")[ \t\r\n]*>"
    r"|!--(?P<skcomment>.*?)-->"
    r"|!\[CDATA\[.*?\]\]>"
    r"|\?.*?\?>"
    r")",
    re.DOTALL,
)

#: Capturing sub-regex used to pull the attributes out of a start tag
#: that the master regex already validated in bulk.
_ATTR_RE = re.compile(
    r"[ \t\r\n]+(" + NAME_PATTERN +
    r")[ \t\r\n]*=[ \t\r\n]*(?:\"([^\"]*)\"|'([^']*)')"
)

#: Token kinds, dense ints so dispatch is an integer compare.
TOK_TEXT = 0
TOK_START = 1
TOK_END = 2
TOK_COMMENT = 3
TOK_CDATA = 4
TOK_PI = 5

#: Map ``Match.lastindex`` of a master match to its token kind.  Each
#: arm's last-closing capture group identifies it: the text arm closes
#: ``text`` last, the start arm ``selfclose``, and so on.  Verified by
#: a unit test against every arm.
_KIND_BY_LASTINDEX = {
    MASTER_RE.groupindex["text"]: TOK_TEXT,
    MASTER_RE.groupindex["selfclose"]: TOK_START,
    MASTER_RE.groupindex["ename"]: TOK_END,
    MASTER_RE.groupindex["comment"]: TOK_COMMENT,
    MASTER_RE.groupindex["cdata"]: TOK_CDATA,
    MASTER_RE.groupindex["pi"]: TOK_PI,
}

# The five predefined XML entities.
PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}


def is_name(text: str) -> bool:
    """True iff ``text`` is a valid (simplified) XML name."""
    if not text or text[0] not in _NAME_START:
        return False
    return all(ch in _NAME_CHARS for ch in text)


class Scanner:
    """Cursor over XML source text with line/column tracking.

    The scanner also hosts the per-document resource guards shared by
    both parsing front-ends (tree and events): the entity-expansion
    counter and the optional wall-clock :class:`Deadline`.  Both are
    off the hot path — one integer compare per expansion, one
    ``is not None`` test per tick site.
    """

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
        #: offsets of every ``\n``, built lazily on the first
        #: line/column request (errors are rare; token scanning never
        #: touches it).
        self._newline_index: Optional[list[int]] = None
        #: Cached master-regex ``finditer`` sweep and the position its
        #: next match is expected at (see :meth:`next_content_match`).
        self._finditer: Optional[Iterator["re.Match[str]"]] = None
        self._finditer_pos = -1

    # -- position reporting -------------------------------------------------

    def line_column(self, pos: int | None = None) -> tuple[int, int]:
        """1-based (line, column) of ``pos`` (default: current position).

        The first request builds a newline index for the whole document
        (one bulk ``finditer`` pass); every request — including the
        first — is then an O(log #lines) bisection instead of the old
        O(document) ``count`` + ``rfind`` pair per call.
        """
        if pos is None:
            pos = self.pos
        pos = min(pos, len(self.text))
        index = self._newline_index
        if index is None:
            index = self._newline_index = [
                m.start() for m in re.finditer("\n", self.text)
            ]
        line = bisect_right(index, pos - 1)
        last_newline = index[line - 1] if line else -1
        return line + 1, pos - last_newline

    def error(self, message: str, pos: int | None = None,
              kind: type = XMLSyntaxError) -> XMLSyntaxError:
        line, column = self.line_column(pos)
        return kind(message, line, column)

    # -- basic cursor operations --------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, ahead: int = 0) -> str:
        """The character ``ahead`` positions past the cursor, or ``""``."""
        index = self.pos + ahead
        if index < len(self.text):
            return self.text[index]
        return ""

    def starts_with(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def expect(self, literal: str) -> None:
        """Consume ``literal`` or raise a syntax error."""
        if not self.starts_with(literal):
            found = self.text[self.pos : self.pos + len(literal)] or "<EOF>"
            raise self.error(f"expected {literal!r}, found {found!r}")
        self.pos += len(literal)

    def match(self, literal: str) -> bool:
        """Consume ``literal`` if present; report whether it was."""
        if self.starts_with(literal):
            self.pos += len(literal)
            return True
        return False

    # -- token-level helpers ------------------------------------------------

    def skip_whitespace(self) -> bool:
        """Skip over whitespace; report whether any was skipped."""
        m = _WS_RE.match(self.text, self.pos)
        if m is None:
            return False
        self.pos = m.end()
        return True

    def read_name(self) -> str:
        """Read an XML name at the cursor or raise."""
        m = _NAME_RE.match(self.text, self.pos)
        if m is None:
            raise self.error("expected an XML name")
        self.pos = m.end()
        return m.group()

    def read_until(self, delimiter: str, *, what: str) -> str:
        """Read up to (not including) ``delimiter``, consuming it.

        ``what`` names the construct for error messages (e.g. "comment").
        """
        end = self.text.find(delimiter, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}: missing {delimiter!r}")
        chunk = self.text[self.pos : end]
        self.pos = end + len(delimiter)
        return chunk

    def read_quoted(self) -> str:
        """Read a single- or double-quoted literal, returning its body."""
        quote = self.peek()
        if quote not in ("'", '"'):
            raise self.error("expected a quoted literal")
        self.advance()
        return self.read_until(quote, what="quoted literal")

    # -- bulk scanning ------------------------------------------------------

    def next_content_match(self) -> Optional[tuple[int, "re.Match[str]"]]:
        """Match the master regex at the cursor.

        Returns ``(kind, match)`` without advancing, or ``None`` when no
        arm matches — EOF or malformed markup; the caller re-diagnoses
        with the character-level primitives for an exact error.

        Matches come from one ``finditer`` sweep over the document
        rather than a fresh anchored ``match`` per token: while the
        consumer advances token-to-token (``pos == m.end()`` of the
        previous match), successive tokens are successive hits of the
        same C-level iterator.  Correctness is guarded by *gap
        detection* — ``finditer`` has search semantics, so a hit that
        does not start exactly at the cursor means the master declined
        at the cursor (malformed markup); the sweep is discarded and
        ``None`` returned, exactly as the anchored ``match`` would
        have.  Any out-of-band cursor move (byte-level skims, slow-path
        replays) simply reseeds the sweep on the next call.
        """
        pos = self.pos
        if self._finditer_pos != pos or self._finditer is None:
            self._finditer = MASTER_RE.finditer(self.text, pos)
        m = next(self._finditer, None)
        if m is None or m.start() != pos:
            # EOF, or the master declined at the cursor (the next hit,
            # if any, starts past a malformed region).  Drop the sweep:
            # the caller repositions or raises.
            self._finditer = None
            self._finditer_pos = -1
            return None
        self._finditer_pos = m.end()
        return _KIND_BY_LASTINDEX[m.lastindex], m

    def start_tag_parts(
        self, m: "re.Match[str]"
    ) -> tuple[str, Optional[dict[str, str]], bool]:
        """``(name, attributes, self_closing)`` of a bulk-matched start
        tag; advances the cursor past the tag.

        ``attributes`` is ``None`` for the (common) attribute-less tag,
        so the DOM layer can share one empty sentinel instead of
        allocating a dict per element.  Entity references in values are
        decoded only when a ``&`` is present; duplicate names raise
        with the position of the second occurrence.
        """
        attrs_src = m.group("attrs")
        attributes: Optional[dict[str, str]] = None
        if attrs_src:
            attributes = {}
            base = m.start("attrs")
            for am in _ATTR_RE.finditer(attrs_src):
                name = am.group(1)
                value = am.group(2)
                value_group = 2
                if value is None:
                    value = am.group(3)
                    value_group = 3
                if name in attributes:
                    raise self.error(
                        f"duplicate attribute {name!r} in "
                        f"<{m.group('sname')}>",
                        base + am.start(1),
                    )
                if "&" in value:
                    value = self.decode_entities(
                        value, base + am.start(value_group)
                    )
                attributes[name] = value
        self.pos = m.end()
        return m.group("sname"), attributes, m.group("selfclose") == "/"

    # -- byte-level subtree skimming ----------------------------------------

    def skim_subtree(
        self,
        pos: Optional[int] = None,
        *,
        label: str,
        base_depth: int = 1,
        trusted: bool = False,
    ) -> int:
        """Fast-forward past the rest of an open element's subtree.

        The cursor (or ``pos``) must sit on the first content byte after
        the start tag of ``label``, which is still open; on return the
        cursor sits on the first byte after the matching ``</label>``
        and the new position is also returned.  Nothing in between is
        tokenized: no token or event objects are allocated, no entities
        are decoded, no names are interned — the subtree's *verdict* is
        already known (a subsumed pair in the cast), so only its extent
        matters.

        The default scanner runs :data:`_SKIM_RE` — markup shapes only —
        over every tag, jumping across text with ``str.find('<')`` and
        counting depth.  It is hardened against ``<``/``>`` inside
        comments, CDATA sections, PIs, and quoted attribute values (each
        has a dedicated arm or pattern), and it still rejects ``]]>`` in
        character data, ``--`` in comments, malformed tags, truncation,
        and a final close tag whose name differs from ``label``.  It
        does **not** match up intermediate open/close tag *names* (that
        would mean extracting them) and never sees entity references,
        so a malformed-but-balanced subtree can skim cleanly where the
        full lexer would raise — acceptable under the paper's premise
        that the input is valid w.r.t. the source schema.

        ``trusted=True`` asserts well-formedness outright and
        byte-searches for ``</label`` / ``<label`` occurrences (with a
        name-boundary check so ``<items`` never matches while skimming
        ``<item>``), tracking same-name nesting only.  It assumes the
        skimmed region hides no ``</label`` inside comments, CDATA,
        PIs, or attribute values — the caller's contract.

        Resource guards stay live in both modes, advanced per skimmed
        tag rather than per byte: the wall-clock deadline ticks on every
        tag, and ``Limits.max_tree_depth`` is checked as depth grows
        (``base_depth`` is the absolute depth of the skim root; trusted
        mode can only see — and therefore only guards — same-name
        nesting).  The document byte budget was enforced before any
        scanning began.
        """
        if pos is None:
            pos = self.pos
        if trusted:
            return self._skim_trusted(pos, label, base_depth)
        text = self.text
        limits = self.limits
        deadline = self.deadline
        depth = 1
        while True:
            lt = text.find("<", pos)
            if lt < 0:
                self.pos = len(text)
                raise self.error(f"unterminated element <{label}>", pos)
            bad = text.find("]]>", pos, lt)
            if bad >= 0:
                raise self.error(
                    "']]>' is not allowed in character data", bad
                )
            m = _SKIM_RE.match(text, lt)
            if m is None:
                raise self.error(
                    "malformed markup inside byte-skipped subtree", lt
                )
            pos = m.end()
            open_start = m.start("skopen")
            if open_start >= 0:
                if deadline is not None:
                    deadline.tick()
                if m.start("skself") == m.end("skself"):
                    depth += 1
                    check_depth(base_depth + depth - 1, limits)
                continue
            close_start = m.start("skclose")
            if close_start >= 0:
                if deadline is not None:
                    deadline.tick()
                depth -= 1
                if depth == 0:
                    close_end = m.end("skclose")
                    if close_end - close_start != len(
                        label
                    ) or not text.startswith(label, close_start):
                        raise self.error(
                            "mismatched close tag "
                            f"</{text[close_start:close_end]}> "
                            f"for <{label}>",
                            close_end,
                        )
                    self.pos = pos
                    return pos
                continue
            body_start = m.start("skcomment")
            if body_start >= 0 and text.find(
                "--", body_start, m.end("skcomment")
            ) >= 0:
                raise self.error(
                    "'--' is not allowed inside a comment", body_start
                )
            # CDATA / PI: opaque, fully consumed by their lazy arms.

    def _skim_trusted(self, pos: int, label: str, base_depth: int) -> int:
        """Byte-search skim: find ``</label``/``<label`` occurrences and
        track same-name nesting.  See :meth:`skim_subtree`."""
        text = self.text
        n = len(text)
        close_pat = "</" + label
        open_pat = "<" + label
        deadline = self.deadline
        limits = self.limits
        depth = 1
        counted = pos  # opens below this offset are already counted
        search = pos
        while True:
            close = text.find(close_pat, search)
            if close < 0:
                self.pos = n
                raise self.error(f"unterminated element <{label}>", pos)
            boundary = close + len(close_pat)
            if boundary < n and text[boundary] in _NAME_CHARS:
                # A longer name (e.g. </items> while skimming <item>).
                search = boundary
                continue
            scan = counted
            while True:
                opened = text.find(open_pat, scan, close)
                if opened < 0:
                    break
                after = opened + len(open_pat)
                scan = after
                if after < close and text[after] in _NAME_CHARS:
                    continue  # longer name, e.g. <items>
                gt = text.find(">", after)
                if gt < 0:
                    self.pos = n
                    raise self.error(
                        f"unterminated element <{label}>", opened
                    )
                if deadline is not None:
                    deadline.tick()
                if text[gt - 1] != "/":
                    depth += 1
                    check_depth(base_depth + depth - 1, limits)
            counted = close
            if deadline is not None:
                deadline.tick()
            depth -= 1
            if depth == 0:
                gt = text.find(">", boundary)
                if gt < 0:
                    self.pos = n
                    raise self.error(
                        f"unterminated element <{label}>", close
                    )
                self.pos = gt + 1
                return self.pos
            search = close + 1

    # -- entity decoding ----------------------------------------------------

    def decode_entities(self, raw: str, start_pos: int) -> str:
        """Expand character and predefined entity references in ``raw``.

        ``start_pos`` is the offset of ``raw`` within the source text
        and is used only for error positions.  Literal runs between
        references are appended as bulk slices.  A reference whose
        ``;`` does not appear before the next ``&`` (or the end of
        ``raw`` — the token boundary) raises the typed
        :class:`UnterminatedEntityError` at the offending ``&``; the
        decoder never scans past either boundary hunting for a
        terminator.
        """
        amp = raw.find("&")
        if amp < 0:
            return raw
        out: list[str] = [raw[:amp]]
        while amp >= 0:
            semi = raw.find(";", amp + 1)
            next_amp = raw.find("&", amp + 1)
            if semi < 0 or (0 <= next_amp < semi):
                raise self.error(
                    "unterminated entity reference",
                    start_pos + amp,
                    UnterminatedEntityError,
                )
            out.append(self._expand_entity(raw[amp + 1 : semi], start_pos + amp))
            if next_amp < 0:
                out.append(raw[semi + 1 :])
                break
            out.append(raw[semi + 1 : next_amp])
            amp = next_amp
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


# -- document-level token stream ---------------------------------------------


def skip_prolog(scanner: Scanner) -> tuple[str, str]:
    """Consume the prolog (XML declaration, misc, DOCTYPE) up to the
    root element; returns ``(doctype_name, internal_subset)``.

    Shared by the tree parser, the event parser, and the token stream
    so all three agree on prolog structure and diagnostics.  Runs on
    the character-level primitives — the prolog is a few constructs per
    document, never a hot path.
    """
    doctype_name = ""
    internal_subset = ""
    scanner.skip_whitespace()
    if scanner.starts_with("<?xml"):
        scanner.advance(2)
        scanner.read_until("?>", what="XML declaration")
    while True:
        scanner.skip_whitespace()
        if scanner.starts_with("<!--"):
            scanner.advance(4)
            body = scanner.read_until("-->", what="comment")
            if "--" in body:
                raise scanner.error("'--' is not allowed inside a comment")
        elif scanner.starts_with("<?"):
            scanner.advance(2)
            scanner.read_until("?>", what="processing instruction")
        elif scanner.starts_with("<!DOCTYPE"):
            doctype_name, internal_subset = _read_doctype(scanner)
        else:
            return doctype_name, internal_subset


def _read_doctype(scanner: Scanner) -> tuple[str, str]:
    scanner.expect("<!DOCTYPE")
    scanner.skip_whitespace()
    name = scanner.read_name()
    scanner.skip_whitespace()
    # External identifier (ignored beyond syntax).
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


def _read_internal_subset(scanner: Scanner) -> str:
    """Capture the internal subset verbatim up to the matching ``]``.

    Quoted literals and comments may contain ``]``, so we scan rather
    than string-find.
    """
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


def fail_at_markup(scanner: Scanner, open_label: str, open_pos: int) -> None:
    """Diagnose a master-regex mismatch inside element content.

    The bulk arms decline to match malformed markup; this routine
    re-scans the cursor position with the character-level primitives,
    reproducing exactly the diagnostics of the pre-regex
    implementation.  It always raises.
    """
    if scanner.at_end():
        raise scanner.error(f"unterminated element <{open_label}>", open_pos)
    if scanner.starts_with("</"):
        scanner.advance(2)
        close_name = scanner.read_name()
        if close_name != open_label:
            raise scanner.error(
                f"mismatched close tag </{close_name}> for <{open_label}>"
            )
        scanner.skip_whitespace()
        scanner.expect(">")
    elif scanner.starts_with("<!--"):
        scanner.advance(4)
        scanner.read_until("-->", what="comment")
    elif scanner.starts_with("<![CDATA["):
        scanner.advance(len("<![CDATA["))
        scanner.read_until("]]>", what="CDATA section")
    elif scanner.starts_with("<?"):
        scanner.advance(2)
        scanner.read_until("?>", what="processing instruction")
    else:
        # A malformed start tag: replay the character-level attribute
        # scan for its exact diagnostic.
        scanner.advance(1)
        element_name = scanner.read_name()
        scan_attributes_slow(scanner, element_name)
        if not scanner.match("/>"):
            scanner.expect(">")
    # Every construct the primitives accept, the master regex accepts;
    # reaching here would mean the two lexers disagree.
    raise AssertionError(
        "master regex rejected markup the character-level scanner accepts "
        f"at offset {scanner.pos}"
    )


def scan_attributes_slow(
    scanner: Scanner, element_name: str
) -> dict[str, str]:
    """Character-level attribute scan (the pre-regex implementation),
    kept for exact diagnostics on tags the bulk regex declines."""
    attributes: dict[str, str] = {}
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
        if attr_name in attributes:
            raise scanner.error(
                f"duplicate attribute {attr_name!r} in <{element_name}>",
                attr_pos,
            )
        attributes[attr_name] = scanner.decode_entities(raw_value, value_pos)


def iter_tokens(
    text: str,
    *,
    limits: Optional[Limits] = None,
    deadline: Optional[Deadline] = None,
) -> Iterator[tuple]:
    """The raw lexical token stream of a whole document.

    Yields, in document order:

    * ``(TOK_START, name, attrs_tuple, self_closing, pos)`` — attrs as
      an ordered tuple of (name, decoded value) pairs;
    * ``(TOK_END, name, pos)``;
    * ``(TOK_TEXT, decoded_text, pos)`` / ``(TOK_CDATA, body, pos)``;
    * ``(TOK_COMMENT, body, pos)`` / ``(TOK_PI, body, pos)``.

    Prolog constructs and trailing misc are consumed but not emitted
    (they never reach the document model); whitespace policy is the
    consumer's business, so whitespace-only text runs inside the root
    *are* emitted.  This is the lexer-equivalence surface: the
    character-level reference implementation
    (:func:`repro.xmltree.reference.reference_tokens`) must yield an
    identical stream, including error positions on malformed input.
    """
    scanner = Scanner(text, limits=limits, deadline=deadline)
    skip_prolog(scanner)
    if not scanner.starts_with("<"):
        raise scanner.error("expected the root element")
    depth = 0
    open_labels = [""]
    open_positions = [0]
    # The master sweep runs in generator locals: one C-level
    # ``finditer`` drives the whole token stream, with gap detection (a
    # hit that does not start at the cursor means the master declined
    # there — malformed markup, re-diagnosed by ``fail_at_markup``)
    # standing in for the per-token anchored match.  Every arm below
    # leaves ``scanner.pos == m.end()``, so the sweep never desyncs and
    # no per-token scanner-state bookkeeping is needed.
    kind_of = _KIND_BY_LASTINDEX
    deadline_ = scanner.deadline
    pos = scanner.pos
    sweep = MASTER_RE.finditer(text, pos)
    while True:
        m = next(sweep, None)
        if m is None or m.start() != pos:
            fail_at_markup(scanner, open_labels[-1], open_positions[-1])
        tok_pos, pos = pos, m.end()
        kind = kind_of[m.lastindex]
        if kind == TOK_TEXT:
            raw = m.group("text")
            scanner.pos = pos
            bad = raw.find("]]>")
            if bad >= 0:
                raise scanner.error(
                    "']]>' is not allowed in character data", tok_pos + bad
                )
            yield TOK_TEXT, scanner.decode_entities(raw, tok_pos), tok_pos
        elif kind == TOK_START:
            if deadline_ is not None:
                deadline_.tick()
            name, attributes, self_closing = scanner.start_tag_parts(m)
            yield (
                TOK_START,
                name,
                tuple(attributes.items()) if attributes else (),
                self_closing,
                tok_pos,
            )
            if not self_closing:
                depth += 1
                open_labels.append(name)
                open_positions.append(tok_pos)
            elif depth == 0:
                break
        elif kind == TOK_END:
            name = m.group("ename")
            if name != open_labels[-1]:
                raise scanner.error(
                    f"mismatched close tag </{name}> for "
                    f"<{open_labels[-1]}>",
                    m.end("ename"),
                )
            scanner.pos = pos
            yield TOK_END, name, tok_pos
            depth -= 1
            open_labels.pop()
            open_positions.pop()
            if depth == 0:
                break
        elif kind == TOK_COMMENT:
            body = m.group("comment")
            scanner.pos = pos
            if "--" in body:
                raise scanner.error("'--' is not allowed inside a comment")
            yield TOK_COMMENT, body, tok_pos
        elif kind == TOK_CDATA:
            scanner.pos = pos
            yield TOK_CDATA, m.group("cdata"), tok_pos
        else:
            scanner.pos = pos
            yield TOK_PI, m.group("pi"), tok_pos
    # Trailing misc after the root element.
    while not scanner.at_end():
        scanner.skip_whitespace()
        if scanner.at_end():
            break
        if scanner.starts_with("<!--"):
            scanner.advance(4)
            scanner.read_until("-->", what="comment")
        elif scanner.starts_with("<?"):
            scanner.advance(2)
            scanner.read_until("?>", what="processing instruction")
        else:
            raise scanner.error("content after the root element")
