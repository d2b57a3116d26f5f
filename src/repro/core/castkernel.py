"""The fused parse+validate loop of the streaming schema cast.

:meth:`~repro.core.streaming.StreamingCastValidator.validate_text`
used to run two coroutines — ``iterparse`` producing event objects, the
validator consuming them — with an allocation, a generator suspension
and an ``isinstance`` dispatch per event.  This module fuses the two:
one loop owns the :class:`~repro.xmltree.lexer.Scanner` cursor directly
and validates each construct the moment the lexer matches it, against
the flat :class:`~repro.schema.pairkernel.PairKernel` tables.  Per
child element the hot path is: one dict lookup (label → symbol id),
one flat-table load (parent content step), one action-row load (child
record / skip / fail), and a list push — no event objects, no method
dispatch, no per-event attribute access.

On top of the fused walk sits the *leaf fast path*: an attribute-free
element holding only entity- and bracket-free text (the dominant node
shape of data-oriented XML) is consumed by a single C-level match
(:data:`~repro.xmltree.lexer.LEAF_RE`) and validated in place — start
tag, value and end tag never become separate tokens.

Semantics are byte-identical to the event pipeline — same verdicts,
same failure messages and Dewey paths, same
:class:`~repro.core.result.ValidationStats` counters, same guard
behaviour (document size, depth, entities, deadline ticks once per
start tag) — asserted by ``tests/core/test_kernel_equivalence.py``.
The only tolerated divergence is wall-clock deadline *granularity* on
skipped regions (the byte skim ticks per skimmed tag, the leaf path
once per leaf).

Both skip modes of the event pipeline are fused here: ``byte_skip``
skims subsumed subtrees at the byte level via
:meth:`Scanner.skim_subtree`, otherwise the loop drains the subtree's
tokens with well-formedness checks only (the event path's
``skip_depth`` drain, without materializing the events).
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
from repro.schema.simple import compiled_checker
from repro.xmltree.events import _attributes, _skip_prolog, _trailing_misc
from repro.xmltree.lexer import (
    END_TAG_RE,
    LEAF_RE,
    TOK_CDATA,
    TOK_COMMENT,
    TOK_END,
    TOK_START,
    TOK_TEXT,
    XML_WS_RE,
    Scanner,
)

# Frame layout (plain lists — cheaper than dataclass instances in the
# hot loop): [record, state, decided, text_parts, child_index, label,
# position].
_REC = 0
_STATE = 1
_DECIDED = 2
_TEXT = 3
_CHILDREN = 4
_LABEL = 5
_POS = 6


def run_cast(validator, text, *, byte_skip=False, trusted=False):
    """Fused replacement for ``validate_text`` on a
    :class:`~repro.core.streaming.StreamingCastValidator`."""
    from repro.errors import XMLSyntaxError

    try:
        return run(validator.pair, validator.limits, text,
                   byte_skip, trusted)
    except XMLSyntaxError as error:
        return ValidationReport.failure(f"not well-formed: {error}")


def run(pair, limits, text, byte_skip, trusted):
    """The fused cast of ``text`` against ``pair``; unlike
    :func:`run_cast`, a malformed document raises
    :class:`~repro.errors.XMLSyntaxError` instead of becoming a failure
    report (batch workers record it as a typed per-document error)."""
    kernel = pair.kernel()
    stats = ValidationStats()
    check_document_size(len(text), limits)
    deadline = limits.deadline()
    scanner = Scanner(text, limits=limits, deadline=deadline)
    _skip_prolog(scanner)
    if not scanner.starts_with("<"):
        raise scanner.error("expected the root element")

    # Locals-hoisted lookups: every per-token attribute access the loop
    # would repeat is bound once here.
    src = scanner.text
    n = len(src)
    ids = pair.symbols.ids
    records = kernel.records
    materialize = kernel.materialize
    root_actions = kernel.root_actions
    target_schema = pair.target
    limits_ = scanner.limits
    next_content_match = scanner.next_content_match
    start_tag_parts = scanner.start_tag_parts
    leaf_match = LEAF_RE.match
    ws_match = XML_WS_RE.match
    end_match = END_TAG_RE.match
    # Depth guard, inlined to one compare per element: the full check
    # (with its exact error message) only runs once the bound is hit.
    depth_limit = limits_.max_tree_depth
    if depth_limit is None:
        depth_limit = n + 2  # unreachable: depth is bounded by len(src)

    vstack = []          # validator frames (excludes skipped subtrees)
    parse_stack = []     # open labels for well-formedness and depth
    text_parts = []      # pending character data, decoded
    drain = 0            # event-skip depth (subsumed subtree, no skim)

    def _path(stack):
        return ".".join(str(frame[_POS]) for frame in stack[1:])

    def _content_fail(rec, label, path):
        return ValidationReport.failure(
            f"children of {label!r} do not match content model "
            f"{rec.target_decl.content.to_source()} of type "
            f"{rec.target_type!r}",
            path=path,
        )

    def flush():
        """Deliver pending character data to the open frame (the event
        path's merged ``Characters``); returns a failure report or
        ``None``.  Whitespace-only runs are dropped, drained regions
        discard."""
        value = "".join(text_parts)
        del text_parts[:]
        if not value.strip() or drain:
            return None
        top = vstack[-1]
        rec = top[_REC]
        if rec.kind == K_SIMPLE:
            top[_TEXT].append(value)
            return None
        stats.text_nodes_visited += 1
        return ValidationReport.failure(
            f"complex type {rec.target_type!r} does not allow "
            "character data",
            path=_path(vstack),
        )

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
            check = rec.check
            if check is None:  # record loaded from a pickled artifact
                check = rec.check = compiled_checker(rec.simple_decl)
            if not check(value):
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
            stats.early_content_decisions += 1
            return None
        if not bits & 1:
            return _content_fail(rec, frame[_LABEL],
                                 _path(below + [frame]))
        return None

    def _leaf_fail_path(position):
        parent_path = _path(vstack)
        return (
            f"{parent_path}.{position}" if parent_path else str(position)
        )

    while True:
        pos = scanner.pos

        # -- leaf + end-tag fast path --------------------------------------
        if vstack and pos < n:
            lpos = pos
            if src[pos] != "<" and (
                drain or vstack[-1][_REC].kind != K_SIMPLE
            ):
                # Indentation rides along with the fast paths: alone,
                # a whitespace run is a dropped (or drained) text node,
                # and merged with pending text it changes neither the
                # merge's strippedness nor any failure message.  Simple
                # content keeps its whitespace (part of the value), so
                # those frames opt out.
                wm = ws_match(src, pos)
                if wm is not None:
                    wend = wm.end()
                    if wend < n and src[wend] == "<":
                        lpos = wend
            if src[lpos] == "<":
                leaf = leaf_match(src, lpos)
            else:
                leaf = None
                lpos = pos
            if leaf is not None:
                if drain:
                    if len(parse_stack) >= depth_limit:
                        check_depth(len(parse_stack) + 1, limits_)
                    if deadline is not None:
                        deadline.tick()
                    del text_parts[:]
                    scanner.pos = leaf.end()
                    continue
                top = vstack[-1]
                rec_p = top[_REC]
                if rec_p.kind != K_SIMPLE:
                    if text_parts:
                        failure = flush()
                        if failure is not None:
                            failure.stats = stats
                            return failure
                    if len(parse_stack) >= depth_limit:
                        check_depth(len(parse_stack) + 1, limits_)
                    if deadline is not None:
                        deadline.tick()
                    name, value = leaf.group(1, 2)
                    scanner.pos = leaf.end()
                    sid = ids.get(name, -1)
                    position = top[_CHILDREN]
                    top[_CHILDREN] = position + 1
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
                            failure.stats = stats
                            return failure
                        elif sid < 0 or (
                            (ns := rec_p.table[state * rec_p.width + sid])
                            < 0
                        ):
                            failure = _content_fail(
                                rec_p, top[_LABEL], _path(vstack)
                            )
                            failure.stats = stats
                            return failure
                        else:
                            top[_STATE] = ns
                            stats.content_symbols_scanned += 1
                    action = rec_p.action[sid] if sid >= 0 else A_NO_TARGET
                    if action >= 0:
                        rec = records[action]
                        if not rec.ready:
                            materialize(rec)
                        stats.elements_visited += 1
                        if rec.has_attrs:
                            violation = attribute_violation_parts(
                                target_schema, rec.target_decl, name, None
                            )
                            if violation:
                                failure = ValidationReport.failure(
                                    violation, path=_path(vstack)
                                )
                                failure.stats = stats
                                return failure
                        if rec.kind == K_SIMPLE:
                            if value.strip():
                                stats.text_nodes_visited += 1
                            else:
                                value = ""
                            stats.simple_values_checked += 1
                            check = rec.check
                            if check is None:  # pickled artifact
                                check = rec.check = compiled_checker(
                                    rec.simple_decl
                                )
                            if not check(value):
                                failure = ValidationReport.failure(
                                    f"value {value!r} does not conform "
                                    "to simple type "
                                    f"{rec.simple_decl.name!r}",
                                    path=_leaf_fail_path(position),
                                )
                                failure.stats = stats
                                return failure
                        elif value.strip():
                            stats.text_nodes_visited += 1
                            failure = ValidationReport.failure(
                                f"complex type {rec.target_type!r} does "
                                "not allow character data",
                                path=_leaf_fail_path(position),
                            )
                            failure.stats = stats
                            return failure
                        else:
                            # Empty content against the child machine.
                            if rec.always_accepts:
                                stats.early_content_decisions += 1
                            else:
                                bits = rec.flags[rec.start]
                                if bits & 2:  # IA
                                    stats.early_content_decisions += 1
                                elif not bits & 1:
                                    failure = _content_fail(
                                        rec, name,
                                        _leaf_fail_path(position),
                                    )
                                    failure.stats = stats
                                    return failure
                        continue
                    if action == A_SUBSUME:
                        stats.subtrees_skipped += 1
                        if byte_skip:
                            stats.subtrees_byte_skipped += 1
                            stats.bytes_skipped += (
                                leaf.end() - leaf.start(2)
                            )
                        continue
                    if action == A_DISJOINT:
                        stats.disjoint_rejections += 1
                        c_source, c_target = kernel.child_types(rec_p, sid)
                        failure = ValidationReport.failure(
                            f"source type {c_source!r} is disjoint from "
                            f"target type {c_target!r}",
                            path=_path(vstack),
                        )
                        failure.stats = stats
                        return failure
                    if action == A_NO_TARGET:
                        failure = ValidationReport.failure(
                            f"no target type assigned to label {name!r}",
                            path=_path(vstack),
                        )
                    else:  # A_NO_SOURCE
                        failure = ValidationReport.failure(
                            f"no source type for label {name!r} "
                            "(promise violated)",
                            path=_path(vstack),
                        )
                    failure.stats = stats
                    return failure
            elif (
                lpos + 1 < n
                and src[lpos + 1] == "/"
                and (lpos != pos or scanner._finditer_pos != pos)
            ):
                # End-tag fast path, taken only when the master sweep
                # is already stale (a leaf or skim moved the cursor out
                # of band) or leading whitespace was swallowed — the
                # cases where the sweep would have to reseed anyway.
                em = end_match(src, lpos)
                if em is not None:
                    if text_parts:
                        failure = flush()
                        if failure is not None:
                            failure.stats = stats
                            return failure
                    close_name = em.group("ename")
                    scanner.pos = em.end()
                    if not parse_stack or parse_stack[-1] != close_name:
                        raise scanner.error(
                            f"mismatched close tag </{close_name}>"
                        )
                    parse_stack.pop()
                    if drain:
                        drain -= 1
                        if not parse_stack:
                            break
                        continue
                    frame = vstack.pop()
                    failure = end_frame(frame, vstack)
                    if failure is not None:
                        failure.stats = stats
                        return failure
                    if not parse_stack:
                        break
                    continue

        hit = next_content_match()
        if hit is None:
            # EOF or markup the master regex declined: replay the event
            # path's slow diagnostics (flush-before-tag ordering kept —
            # a text failure beats the syntax error, exactly as the
            # suspended event generator never got to raise).
            if scanner.at_end():
                if parse_stack:
                    raise scanner.error(
                        f"unterminated element <{parse_stack[-1]}>"
                    )
                break
            if scanner.starts_with("</"):
                failure = flush()
                if failure is not None:
                    failure.stats = stats
                    return failure
                scanner.advance(2)
                close_name = scanner.read_name()
                scanner.skip_whitespace()
                scanner.expect(">")
                if not parse_stack or parse_stack[-1] != close_name:
                    raise scanner.error(
                        f"mismatched close tag </{close_name}>"
                    )
            elif scanner.starts_with("<!--"):
                scanner.advance(4)
                body = scanner.read_until("-->", what="comment")
                if "--" in body:
                    raise scanner.error(
                        "'--' is not allowed inside a comment"
                    )
            elif scanner.starts_with("<![CDATA["):
                scanner.advance(9)
                scanner.read_until("]]>", what="CDATA section")
            elif scanner.starts_with("<?"):
                scanner.advance(2)
                scanner.read_until("?>", what="processing instruction")
            else:
                failure = flush()
                if failure is not None:
                    failure.stats = stats
                    return failure
                check_depth(len(parse_stack) + 1, limits_)
                if deadline is not None:
                    deadline.tick()
                scanner.expect("<")
                name = scanner.read_name()
                _attributes(scanner, name)
                if not scanner.match("/>"):
                    scanner.expect(">")
            raise AssertionError(
                "master regex rejected markup the character-level "
                f"scanner accepts at offset {scanner.pos}"
            )
        kind, m = hit

        if kind == TOK_TEXT:
            raw = m.group("text")
            scanner.pos = m.end()
            bad = raw.find("]]>")
            if bad >= 0:
                raise scanner.error(
                    "']]>' is not allowed in character data", pos + bad
                )
            if not parse_stack:
                if raw.strip():
                    raise scanner.error("character data outside the root")
                continue
            if "&" in raw:
                raw = scanner.decode_entities(raw, pos)
            text_parts.append(raw)

        elif kind == TOK_START:
            if text_parts:
                failure = flush()
                if failure is not None:
                    failure.stats = stats
                    return failure
            if len(parse_stack) >= depth_limit:
                check_depth(len(parse_stack) + 1, limits_)
            if deadline is not None:
                deadline.tick()
            name, attributes, self_closing = start_tag_parts(m)
            if drain:
                if not self_closing:
                    drain += 1
                    parse_stack.append(name)
                continue
            sid = ids.get(name, -1)
            if not vstack:
                action = root_actions.get(name, A_NO_TARGET)
                if action == A_NO_TARGET:
                    failure = ValidationReport.failure(
                        f"label {name!r} is not a permitted root of "
                        "the target schema"
                    )
                    failure.stats = stats
                    return failure
                if action == A_NO_SOURCE:
                    failure = ValidationReport.failure(
                        f"label {name!r} is not a permitted root of "
                        "the source schema (promise violated)"
                    )
                    failure.stats = stats
                    return failure
                position = 0
                rec_p = None
            else:
                top = vstack[-1]
                rec_p = top[_REC]
                position = top[_CHILDREN]
                top[_CHILDREN] = position + 1
                if rec_p.kind == K_SIMPLE:
                    failure = ValidationReport.failure(
                        f"simple type {rec_p.target_type!r} does not "
                        "allow child elements",
                        path=_path(vstack),
                    )
                    failure.stats = stats
                    return failure
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
                        failure.stats = stats
                        return failure
                    elif sid < 0 or (
                        (ns := rec_p.table[state * rec_p.width + sid]) < 0
                    ):
                        failure = _content_fail(
                            rec_p, top[_LABEL], _path(vstack)
                        )
                        failure.stats = stats
                        return failure
                    else:
                        top[_STATE] = ns
                        stats.content_symbols_scanned += 1
                action = rec_p.action[sid] if sid >= 0 else A_NO_TARGET
                if action == A_NO_TARGET:
                    failure = ValidationReport.failure(
                        f"no target type assigned to label {name!r}",
                        path=_path(vstack),
                    )
                    failure.stats = stats
                    return failure
                if action == A_NO_SOURCE:
                    failure = ValidationReport.failure(
                        f"no source type for label {name!r} "
                        "(promise violated)",
                        path=_path(vstack),
                    )
                    failure.stats = stats
                    return failure

            if action == A_SUBSUME:
                stats.subtrees_skipped += 1
                if byte_skip:
                    stats.subtrees_byte_skipped += 1
                if self_closing:
                    if not parse_stack:
                        break  # self-closed subsumed root
                    continue
                parse_stack.append(name)
                if byte_skip:
                    start = scanner.pos
                    end = scanner.skim_subtree(
                        label=name,
                        base_depth=len(parse_stack),
                        trusted=trusted,
                    )
                    parse_stack.pop()
                    stats.bytes_skipped += end - start
                    if not parse_stack:
                        break  # the skim closed the root
                else:
                    drain = 1
                continue
            if action == A_DISJOINT:
                stats.disjoint_rejections += 1
                if rec_p is None:
                    d_source = pair.source.root_type(name)
                    d_target = pair.target.root_type(name)
                else:
                    d_source, d_target = kernel.child_types(rec_p, sid)
                failure = ValidationReport.failure(
                    f"source type {d_source!r} is disjoint from target "
                    f"type {d_target!r}",
                    path=_path(vstack),
                )
                failure.stats = stats
                return failure

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
                        violation, path=_path(vstack)
                    )
                    failure.stats = stats
                    return failure
            if rec.kind == K_SIMPLE:
                frame = [rec, 0, True, [], 0, name, position]
            else:
                decided = rec.always_accepts
                if decided:
                    stats.early_content_decisions += 1
                frame = [rec, rec.start, decided, None, 0, name, position]
            if self_closing:
                failure = end_frame(frame, vstack)
                if failure is not None:
                    failure.stats = stats
                    return failure
                if not parse_stack:
                    break  # self-closed root
            else:
                parse_stack.append(name)
                vstack.append(frame)

        elif kind == TOK_END:
            if text_parts:
                failure = flush()
                if failure is not None:
                    failure.stats = stats
                    return failure
            close_name = m.group("ename")
            scanner.pos = m.end()
            if not parse_stack or parse_stack[-1] != close_name:
                raise scanner.error(
                    f"mismatched close tag </{close_name}>"
                )
            parse_stack.pop()
            if drain:
                drain -= 1
                if not parse_stack:
                    break
                continue
            frame = vstack.pop()
            failure = end_frame(frame, vstack)
            if failure is not None:
                failure.stats = stats
                return failure
            if not parse_stack:
                break

        elif kind == TOK_COMMENT:
            scanner.pos = m.end()
            if "--" in m.group("comment"):
                raise scanner.error("'--' is not allowed inside a comment")

        elif kind == TOK_CDATA:
            scanner.pos = m.end()
            text_parts.append(m.group("cdata"))

        else:  # TOK_PI
            scanner.pos = m.end()

    _trailing_misc(scanner)
    return ValidationReport.success(stats)
