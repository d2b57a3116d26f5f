"""The fused parse+validate loop of the streaming schema cast.

This is the engine behind every text cast
(:func:`repro.core.cast.cast_text`, evolution chains, and
:func:`~repro.core.cast.cast_file`, which ``repro cast`` and batch
workers run) and behind plain
validation of text (:func:`repro.core.validator.validate_text`), which
runs the same loop over the schema-only tables of
:meth:`repro.schema.model.Schema.kernel`.  One loop owns the
:class:`~repro.xmltree.lexer.Scanner` cursor directly and validates
each construct the moment the lexer matches it, against the flat
:class:`~repro.schema.pairkernel.PairKernel` tables — no event objects,
no generator suspension, no ``isinstance`` dispatch per event.  Per
child element the hot path is: one dict lookup (label → symbol id),
one flat-table load (parent content step), one action-row load (child
record / skip / fail), and a list push.

On top of the fused walk sits the *record path*: at a ``<`` in a
complex frame with no pending text and no drain, the parent record's
flat-record table (:meth:`~repro.schema.pairkernel.PairKernel.flatten`,
built on the record's first frame) tries one match over a whole *flat*
child — an attribute-free element of text-only leaves, such as a
purchase order's ``item``, from its start tag to its close tag.  A hit
names the word of leaves it read, whose plan holds the loop's own work
on it (the child's content steps, each leaf's action, the counters), so
the record costs the parent's content step, its value checks and one
cursor move.  The guards stay exact: the match is taken only when its
deepest elements, the leaves at the open depth plus two, fit under
``max_tree_depth`` (so none of its elements could fail the per-element
depth check), and the deadline ticks once per start tag it consumed,
as the per-tag loop ticks.  Anything else — no hit, a failing parent
step, a failing value — changes nothing and falls through, at the
record's start tag, to the per-tag loop, so every failure report,
syntax error and guard error still comes from it.

A drain has a fast path of its own, with the record path's shape: a
whole flat element is read by one C-level match
(:data:`~repro.xmltree.lexer.DRAIN_FLAT_RE`), and failing that an
attribute-free leaf holding only entity- and bracket-free text
(:data:`~repro.xmltree.lexer.LEAF_RE`), with nothing in either
validated.  A drain checks well-formedness alone, so the match needs
no type, and a hit is well-formed by construction.  The flat match
keeps the record path's guards: it is tried only when its leaves fit
under ``max_tree_depth``, the deadline ticks once per element it
consumed, and a settle feeds its watched frame the outer element
alone.  Anything else falls through to the leaf match and the per-tag
branches.  A record hit or a drained element leaves the lexer's master
sweep behind, so the tag after it is matched by its own arm of the
master (:data:`~repro.xmltree.lexer.START_TAG_RE`,
:data:`~repro.xmltree.lexer.END_TAG_RE`) instead of a reseeded sweep
and goes on to the general start- or end-tag branch.  Markup the
master declines is replayed by the tree parser's
:func:`~repro.xmltree.lexer.fail_at_markup`, once the pending text is
delivered where the replay reads a tag: in a cast a failure on that
text beats the syntax error, as in the event path.

Failure reports carry the DOM cast's reason and Dewey path (the
offending node: an element for attribute, disjointness and value
failures, the text node for stray character data, the parent for a
content-model failure); over a schema-only kernel a foreign root is
:func:`~repro.core.validator.validate_document`'s "is not a permitted
root".  Semantics are byte-identical to the event
pipeline kept as the reference oracle
(:func:`repro.core.reference.reference_cast`) — same verdicts,
reasons, paths, :class:`~repro.core.result.ValidationStats` counters
and guard behaviour (document size, depth, entities, deadline ticks
once per start tag) — asserted by
``tests/core/test_kernel_equivalence.py``.  The only tolerated
divergence is wall-clock deadline *granularity* on skipped regions
under ``trusted`` (the byte search ticks per same-name tag, the record
path once per start tag).  Syntax errors inside the root element carry
the tree parser's messages and positions.

A subsumed subtree (Section 3.2) is never *validated*, but by default
it is still *drained*: the loop reads its tokens with every
well-formedness check and the depth, entity and deadline guards, and
validates nothing, so malformed text is ``not well-formed`` wherever it
sits.  ``trusted`` instead byte-searches for the subtree's close tag
(:meth:`~repro.xmltree.lexer.Scanner.skim_subtree`), assuming the
document is well-formed — the paper's source-validity premise.  Tables
materialize on first touch, so an unwarmed pair works (it just pays
for the records a document reaches).

A cast stops at its first failure: a document that fails there breaks
the source promise, so a later syntax error may go unreported.  Plain
validation instead *settles* its first failure in the same pass, so it
answers exactly as ``validate_document(schema, parse(text))``.  The
tree walk checks an element's whole child string before it descends,
where the loop reads in document order, so the checks the loop has not
finished at its failure are the content checks of the elements on the
failure's path: its ancestors, and the failing element itself while
its content is still open.  Those frames stay *watched*, and the rest
of the text runs through the drain branches, which feed the innermost
watched frame its direct children: the first non-whitespace text or
label outside the schema's alphabet fails the frame, otherwise its
final state decides, and the outermost failing frame wins.  A syntax,
depth, entity or deadline error anywhere in the text still raises.
"""

from __future__ import annotations

from repro.core.result import ValidationReport, ValidationStats
from repro.core.validator import attribute_violation_parts
from repro.guards import check_depth, check_document_size
from repro.schema.pairkernel import (
    A_DISJOINT,
    A_NO_SOURCE,
    A_NO_TARGET,
    A_SUBSUME,
    K_SIMPLE,
)
from repro.xmltree.lexer import (
    DRAIN_FLAT_RE,
    END_TAG_RE,
    LEAF_RE,
    START_TAG_RE,
    TOK_CDATA,
    TOK_COMMENT,
    TOK_END,
    TOK_START,
    TOK_TEXT,
    XML_WS_RE,
    Scanner,
    at_tag,
    expect_root,
    fail_at_markup,
    skip_prolog,
    trailing_misc,
)

# Frame layout (plain lists — cheaper than dataclass instances in the
# hot loop): [record, state, decided, text_parts, child_index, label,
# position].  While plain validation settles, ``decided`` marks a
# watched frame whose first bad child has already failed it.
_REC = 0
_STATE = 1
_DECIDED = 2
_TEXT = 3
_CHILDREN = 4
_LABEL = 5
_POS = 6


def run(kernel, limits, text, trusted):
    """The fused cast of ``text`` over ``kernel`` (a pair's
    :meth:`~repro.schema.registry.SchemaPair.kernel`, or a schema's
    :meth:`~repro.schema.model.Schema.kernel` for plain validation)
    under ``limits``.  ``trusted`` byte-searches past subsumed subtrees
    instead of draining them (see the module docstring).

    A malformed document raises :class:`~repro.errors.XMLSyntaxError`
    (batch workers record it as a typed per-document error;
    :func:`repro.core.cast.cast_text` turns it into a failure report).
    A cast returns its first failure; plain validation settles it (see
    the module docstring) and raises on a later syntax or limit error.
    """
    stats = ValidationStats()
    check_document_size(len(text), limits)
    deadline = limits.deadline()
    scanner = Scanner(text, limits=limits, deadline=deadline)
    skip_prolog(scanner)
    expect_root(scanner)

    # Locals-hoisted lookups: every per-token attribute access the loop
    # would repeat is bound once here.
    src = scanner.text
    n = len(src)
    ids = kernel.symbols.ids
    records = kernel.records
    materialize = kernel.materialize
    flatten = kernel.flatten
    root_actions = kernel.root_actions
    target_schema = kernel.target
    plain = kernel.pair is None
    limits_ = scanner.limits
    next_content_match = scanner.next_content_match
    start_tag_parts = scanner.start_tag_parts
    leaf_match = LEAF_RE.match
    drain_flat_match = DRAIN_FLAT_RE.match
    ws_match = XML_WS_RE.match
    start_match = START_TAG_RE.match
    end_match = END_TAG_RE.match
    # Depth guard, inlined to one compare per element: the full check
    # (with its exact error message) only runs once the bound is hit.
    depth_limit = limits_.max_tree_depth
    if depth_limit is None:
        depth_limit = n + 2  # unreachable: depth is bounded by len(src)

    vstack = []          # validator frames (excludes skipped subtrees)
    parse_stack = []     # open labels for well-formedness and depth
    open_at = []         # their start-tag offsets, for diagnostics
    text_parts = []      # pending character data, decoded
    drain = 0            # drain depth (a subsumed subtree, or a settle)
    failure = None       # the first failure; then the settled answer

    def _path(stack):
        return ".".join(str(frame[_POS]) for frame in stack[1:])

    def _content_fail(rec, label, path):
        return ValidationReport.failure(
            f"children of {label!r} do not match content model "
            f"{rec.target_decl.content.to_source()} of type "
            f"{rec.target_type!r}",
            path=path,
        )

    def _label_fail(top, name, sid, position):
        """A child label the open frame's content cannot read.  Plain
        validation reports a label outside the schema's alphabet at the
        child, as the tree walk does; it is the frame's first bad
        child, so it also decides the frame."""
        if sid < 0 and plain:
            top[_DECIDED] = True
            return ValidationReport.failure(
                f"unexpected element {name!r} in content of "
                f"{top[_REC].target_type!r}",
                path=_child_path(position),
            )
        return _content_fail(top[_REC], top[_LABEL], _path(vstack))

    def _text_fail(top):
        """Character data in complex frame ``top``: its first bad child,
        so it also decides the frame."""
        top[_DECIDED] = True
        return ValidationReport.failure(
            f"complex type {top[_REC].target_type!r} does not allow "
            "character data",
            path=_child_path(top[_CHILDREN]),
        )

    def flush():
        """Deliver pending character data to the open frame (the event
        path's merged ``Characters``); returns a failure report or
        ``None``.  Whitespace-only runs are dropped; in a drain, other
        text is left to the drain branches, which discard or settle it."""
        value = "".join(text_parts)
        if not value.strip():
            del text_parts[:]
            return None
        if drain:
            return None
        del text_parts[:]
        top = vstack[-1]
        if top[_REC].kind == K_SIMPLE:
            top[_TEXT].append(value)
            return None
        stats.text_nodes_visited += 1
        return _text_fail(top)

    def settle_text(top, answer):
        """Settle: the innermost watched frame ``top`` reads its pending
        character data; returns the answer so far, which non-whitespace
        text replaces when it is the frame's first bad child."""
        value = "".join(text_parts)
        del text_parts[:]
        if value.strip() and not top[_DECIDED]:
            return _text_fail(top)
        return answer

    def feed(name, answer):
        """Settle: the innermost watched frame reads its pending text,
        then child element ``name``, over its complete content table;
        returns the answer so far."""
        top = vstack[-1]
        answer = settle_text(top, answer)
        position = top[_CHILDREN]
        top[_CHILDREN] = position + 1
        if top[_DECIDED]:
            return answer
        sid = kernel.symbols.ids.get(name, -1)
        if sid < 0:
            return _label_fail(top, name, sid, position)
        rec = top[_REC]
        top[_STATE] = rec.table[top[_STATE] * rec.width + sid]
        return answer

    def close_watched(answer):
        """Settle: the innermost watched frame reads its pending text
        and closes.  Its failure replaces the answer so far: it closes
        after every frame inside it, so the outermost failing frame
        wins."""
        frame = vstack[-1]
        answer = settle_text(frame, answer)
        vstack.pop()
        fault = end_frame(frame, vstack)
        return answer if fault is None else fault

    def end_frame(frame, below):
        """The event path's ``_end`` on a popped frame; ``below`` is the
        stack without it."""
        rec = frame[_REC]
        if rec.kind == K_SIMPLE:
            parts = frame[_TEXT]
            if parts:
                stats.text_nodes_visited += 1
            stats.simple_values_checked += 1
            value = "".join(parts)
            if not value.strip():
                value = ""
            if not rec.check(value):
                return ValidationReport.failure(
                    f"value {value!r} does not conform to simple type "
                    f"{rec.simple_decl.name!r}",
                    path=_path(below + [frame]),
                )
            return None
        if frame[_DECIDED]:
            return None
        bits = rec.flags[frame[_STATE]]
        if bits & 2:  # IA (machine records only; plain flags lack it)
            # Reached after the last child: accepted, but not early.
            return None
        if not bits & 1:
            return _content_fail(rec, frame[_LABEL],
                                 _path(below + [frame]))
        return None

    def _child_path(position):
        """Dewey path of the node at ``position`` under the open frame
        (the root's empty path when no frame is open) — where the DOM
        cast reports an element's own failures."""
        if not vstack:
            return ""
        parent_path = _path(vstack)
        return (
            f"{parent_path}.{position}" if parent_path else str(position)
        )

    # The inner loop validates until the root closes or a check fails
    # (``failure`` set, ``break``); the outer loop runs it once more,
    # as a drain, to settle a plain validation's failure.
    while True:
        while True:
            pos = scanner.pos
            hit = None

            # -- drained element, record path and one-arm tag matches ----
            if (vstack or drain) and pos < n:
                lpos = pos
                if src[pos] != "<" and (
                    drain or vstack[-1][_REC].kind != K_SIMPLE
                ):
                    # Indentation rides along with the fast paths:
                    # alone, a whitespace run is a dropped (or drained)
                    # text node, and merged with pending text it
                    # changes neither the merge's strippedness nor any
                    # failure message.  Simple content keeps its
                    # whitespace (part of the value), so those frames
                    # opt out.
                    wm = ws_match(src, pos)
                    if wm is not None:
                        wend = wm.end()
                        if wend < n and src[wend] == "<":
                            lpos = wend
                if src[lpos] == "<":
                    if drain:
                        # -- drained flat element or leaf: one match,
                        # nothing validated; the flat match only where
                        # its leaves fit under the depth bound
                        if (
                            len(parse_stack) + 2 <= depth_limit
                            and (dm := drain_flat_match(src, lpos))
                            is not None
                        ) or (dm := leaf_match(src, lpos)) is not None:
                            if len(parse_stack) >= depth_limit:
                                check_depth(len(parse_stack) + 1, limits_)
                            if deadline is not None:
                                # One tick per element consumed.
                                for _ in range(src.count("</", lpos,
                                                         dm.end())):
                                    deadline.tick()
                            if len(parse_stack) == len(vstack):  # settling
                                failure = feed(dm.group(1), failure)
                            else:
                                del text_parts[:]
                            scanner.pos = dm.end()
                            continue
                    elif (
                        not text_parts
                        and (flat := vstack[-1][_REC].flat) is not None
                        and len(parse_stack) + 2 <= depth_limit
                        and (rm := flat(src, lpos)) is not None
                    ):
                        # -- record path: a flat child in one match ----
                        top = vstack[-1]
                        rec_p = top[_REC]
                        (sid, checks, skips, visited, scanned, early,
                         skipped, ticks) = rec_p.plans[rm.lastindex]
                        # The parent's content step, unapplied: 0 none
                        # (decided), 1 IA, 2 a transition, -1 a failure.
                        step = 0
                        if not top[_DECIDED]:
                            state = top[_STATE]
                            bits = rec_p.flags[state]
                            if bits & 2:  # IA
                                step = 1
                            elif bits & 4:  # IR
                                step = -1
                            else:
                                ns = rec_p.table[state * rec_p.width + sid]
                                step = 2 if ns >= 0 else -1
                        if step >= 0 and (texts := _texts(rm, checks)) >= 0:
                            if deadline is not None:
                                for _ in range(ticks):
                                    deadline.tick()
                            top[_CHILDREN] += 1
                            if step == 1:
                                top[_DECIDED] = True
                                early += 1
                            elif step == 2:
                                top[_STATE] = ns
                                scanned += 1
                            # The record and its checked leaves.
                            stats.elements_visited += visited
                            stats.simple_values_checked += visited - 1
                            stats.text_nodes_visited += texts
                            stats.content_symbols_scanned += scanned
                            stats.early_content_decisions += early
                            if skipped:
                                stats.subtrees_skipped += skipped
                                if trusted:
                                    for group in skips:
                                        stats.bytes_skipped += (
                                            src.index(">", rm.end(group))
                                            + 1 - rm.start(group)
                                        )
                            scanner.pos = rm.end()
                            continue
                    if lpos != pos or scanner._finditer_pos != pos:
                        # One-arm tag matches, taken only when the master
                        # sweep is already stale (a record hit or a
                        # drained element moved the cursor out of band) or
                        # leading whitespace was swallowed — the cases
                        # where the sweep would have to reseed anyway.
                        # Either tag goes on to the general dispatch.
                        if lpos + 1 < n and src[lpos + 1] != "/":
                            sm = start_match(src, lpos)
                            if sm is not None:
                                hit = TOK_START, sm
                        else:
                            em = end_match(src, lpos)
                            if em is not None:
                                hit = TOK_END, em

            if hit is None:
                hit = next_content_match()
            if hit is None:
                # EOF or markup the master regex declined.  Pending text
                # is delivered first at a tag, as the event path flushes
                # before a tag: in a cast a text failure beats the
                # syntax error (a settle reads on to the error).
                if (
                    text_parts
                    and at_tag(scanner)
                    and (fault := flush()) is not None
                ):
                    failure = fault
                    break
                fail_at_markup(scanner, parse_stack[-1], open_at[-1])
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
                if text_parts and (fault := flush()) is not None:
                    failure = fault
                    break
                if len(parse_stack) >= depth_limit:
                    check_depth(len(parse_stack) + 1, limits_)
                if deadline is not None:
                    deadline.tick()
                name, attributes, self_closing = start_tag_parts(m)
                if drain:
                    if len(parse_stack) == len(vstack):  # settling
                        failure = feed(name, failure)
                    else:
                        del text_parts[:]
                    if not self_closing:
                        drain += 1
                        parse_stack.append(name)
                        open_at.append(m.start())
                    continue
                if not self_closing:
                    # Open before any check, so a failure here leaves
                    # the element for a settle to drain.
                    parse_stack.append(name)
                    open_at.append(m.start())
                sid = ids.get(name, -1)
                if not vstack:
                    action = root_actions.get(name, A_NO_TARGET)
                    if action == A_NO_TARGET:
                        failure = ValidationReport.failure(
                            f"label {name!r} is not a permitted root"
                            + ("" if plain else " of the target schema")
                        )
                        break
                    if action == A_NO_SOURCE:
                        failure = ValidationReport.failure(
                            f"label {name!r} is not a permitted root of "
                            "the source schema (promise violated)"
                        )
                        break
                    position = 0
                    rec_p = None
                else:
                    top = vstack[-1]
                    rec_p = top[_REC]
                    position = top[_CHILDREN]
                    top[_CHILDREN] = position + 1
                    if rec_p.kind == K_SIMPLE:
                        failure = ValidationReport.failure(
                            f"simple type {rec_p.simple_decl.name!r} "
                            "does not allow child elements",
                            path=_path(vstack),
                        )
                        break
                    if not top[_DECIDED]:
                        state = top[_STATE]
                        bits = rec_p.flags[state]
                        if bits & 2:  # IA
                            top[_DECIDED] = True
                            stats.early_content_decisions += 1
                        elif bits & 4:  # IR
                            stats.early_content_decisions += 1
                            failure = _content_fail(
                                rec_p, top[_LABEL], _path(vstack)
                            )
                            break
                        elif sid < 0 or (
                            (ns := rec_p.table[state * rec_p.width + sid])
                            < 0
                        ):
                            failure = _label_fail(top, name, sid, position)
                            break
                        else:
                            top[_STATE] = ns
                            stats.content_symbols_scanned += 1
                    action = rec_p.action[sid] if sid >= 0 else A_NO_TARGET
                    if action == A_NO_TARGET:
                        # A label the target content model never
                        # mentions fails the parent's content model.
                        failure = _content_fail(
                            rec_p, top[_LABEL], _path(vstack)
                        )
                        break
                    if action == A_NO_SOURCE:
                        failure = ValidationReport.failure(
                            f"no source type for label {name!r} "
                            "(promise violated)",
                            path=_path(vstack),
                        )
                        break

                if action == A_SUBSUME:
                    stats.subtrees_skipped += 1
                    if self_closing:
                        if not parse_stack:
                            break  # self-closed subsumed root
                        continue
                    if trusted:
                        start = scanner.pos
                        end = scanner.skim_subtree(
                            label=name, base_depth=len(parse_stack)
                        )
                        parse_stack.pop()
                        open_at.pop()
                        stats.bytes_skipped += end - start
                        if not parse_stack:
                            break  # the skim closed the root
                    else:
                        drain = 1
                    continue
                if action == A_DISJOINT:
                    stats.disjoint_rejections += 1
                    if rec_p is None:
                        d_source = kernel.pair.source.root_type(name)
                        d_target = target_schema.root_type(name)
                    else:
                        d_source, d_target = kernel.child_types(rec_p, sid)
                    failure = ValidationReport.failure(
                        f"source type {d_source!r} is disjoint from "
                        f"target type {d_target!r}",
                        path=_child_path(position),
                    )
                    break

                rec = records[action]
                if not rec.ready:
                    materialize(rec)
                stats.elements_visited += 1
                if attributes is not None or rec.has_attrs:
                    violation = attribute_violation_parts(
                        target_schema, rec.target_decl, name, attributes
                    )
                    if violation:
                        failure = ValidationReport.failure(
                            violation, path=_child_path(position)
                        )
                        break
                if rec.kind == K_SIMPLE:
                    frame = [rec, 0, True, [], 0, name, position]
                else:
                    decided = rec.always_accepts
                    if decided:
                        stats.early_content_decisions += 1
                    frame = [rec, rec.start, decided, None, 0, name,
                             position]
                if self_closing:
                    failure = end_frame(frame, vstack)
                    if failure is not None or not parse_stack:
                        break  # a failure, or a self-closed root
                else:
                    if rec.plans is None:  # the record's first frame
                        flatten(rec)
                    vstack.append(frame)

            elif kind == TOK_END:
                if text_parts and (fault := flush()) is not None:
                    failure = fault
                    break
                close_name = m.group("ename")
                scanner.pos = m.end()
                if parse_stack[-1] != close_name:
                    raise scanner.error(
                        f"mismatched close tag </{close_name}> for "
                        f"<{parse_stack[-1]}>",
                        m.end("ename"),
                    )
                parse_stack.pop()
                open_at.pop()
                if drain:
                    drain -= 1
                    if len(parse_stack) < len(vstack):
                        failure = close_watched(failure)
                    else:
                        del text_parts[:]
                    if not parse_stack:
                        break
                    continue
                frame = vstack.pop()
                failure = end_frame(frame, vstack)
                if failure is not None or not parse_stack:
                    break

            elif kind == TOK_COMMENT:
                scanner.pos = m.end()
                if "--" in m.group("comment"):
                    raise scanner.error(
                        "'--' is not allowed inside a comment"
                    )

            elif kind == TOK_CDATA:
                scanner.pos = m.end()
                text_parts.append(m.group("cdata"))

            else:  # TOK_PI
                scanner.pos = m.end()

        if failure is None or drain:
            break  # the root closed: validated, or settled
        if not plain:
            failure.stats = stats
            return failure  # a broken promise: the cast stops here
        if not parse_stack:
            break  # the failure closed the root
        # Settle: watch the complex frames on the failure's path (a
        # simple element's own failure stands; its content is not
        # watched) and drain the rest of the text.  ``drain`` stays
        # above the open depth, so it ends only with the root.
        if vstack and vstack[-1][_REC].kind == K_SIMPLE:
            vstack.pop()
        drain = len(parse_stack) + 1

    trailing_misc(scanner)
    if failure is None:
        return ValidationReport.success(stats)
    failure.stats = stats
    return failure


def _texts(match, checks):
    """The record path's value checks over a flat-record match: the
    number of non-blank checked values (``text_nodes_visited``), or -1
    when one does not conform and the exact loop must read the record
    to report it."""
    texts = 0
    for group, check in checks:
        value = match[group]
        if value.strip():
            texts += 1
        else:
            value = ""
        if not check(value):
            return -1
    return texts
