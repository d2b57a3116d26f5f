"""The event-pipeline schema cast: the fused kernel's reference oracle.

Before :mod:`repro.core.castkernel` fused lexing and validation into
one loop, the streaming cast ran as two coroutines: a
:class:`~repro.xmltree.events.PullParser` producing event objects and a
validator consuming them, with an ``isinstance`` dispatch per event.
That pipeline survives here only as the executable specification the
kernel is fuzzed against (``tests/core/test_kernel_equivalence.py``)
and as the baseline two benchmark gates were calibrated against.  Like
:mod:`repro.xmltree.reference` it is an oracle, not a product path:
nothing else under ``repro`` imports it.

The logic is Section 3.2 over an event stream.  A child whose
(source, target) type pair is subsumed starts a skip region (its events
are drained, or with ``trusted`` the lexer byte-searches past it
unparsed); a disjoint pair fails immediately; otherwise the child is
pushed with a pair content-automaton state, which may decide early
(IA/IR) while children stream past.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from repro.core.result import ValidationReport, ValidationStats
from repro.core.validator import attribute_violation_parts
from repro.errors import DocumentTooDeepError, XMLSyntaxError
from repro.guards import Limits, resolve_limits
from repro.schema.model import ComplexType, SimpleType
from repro.xmltree.events import (
    Characters,
    EndElement,
    PullParser,
    StartElement,
)


@dataclass
class _CastFrame:
    label: str
    source_type: str
    target_type: str
    #: pair-automaton state for the children's content check; None for
    #: simple-typed frames.
    state: Optional[int]
    #: content verdict already decided early (IA hit)?
    content_decided: bool
    #: Accumulated character data — allocated only when the target type
    #: is simple (the only case with a value to check); complex-typed
    #: frames carry None instead of an always-empty list.
    text_parts: Optional[list[str]]
    position: int = 0
    child_index: int = 0


def reference_cast(
    pair,
    text: str,
    *,
    limits: Optional[Limits] = None,
    trusted: bool = False,
) -> ValidationReport:
    """Cast-validate ``text`` against ``pair`` through the event stream.

    Same contract as :func:`repro.core.cast.cast_text` — verdict,
    reason, Dewey path, :class:`ValidationStats` counters, and guard
    exceptions — in both skip modes: subsumed subtrees are drained
    event by event, or with ``trusted`` byte-searched past.  Malformed
    input becomes a ``not well-formed`` failure.
    """
    limits = resolve_limits(limits)
    max_depth = (
        limits.max_tree_depth
        if limits.max_tree_depth is not None
        else sys.maxsize
    )
    source, target = pair.source, pair.target
    stats = ValidationStats()
    stack: list[_CastFrame] = []

    def path(frames) -> str:
        return ".".join(str(frame.position) for frame in frames[1:])

    def child_path(position: int) -> str:
        """Dewey path of the node at ``position`` under the open frame
        (the root's empty path when no frame is open) — where the DOM
        cast reports an element's own failures."""
        if not stack:
            return ""
        parent_path = path(stack)
        return f"{parent_path}.{position}" if parent_path else str(position)

    def machine(source_type: str, target_type: str):
        if not isinstance(source.type(source_type), ComplexType):
            return None
        return pair.string_cast(source_type, target_type)

    def content_failure(frame: _CastFrame, frames) -> ValidationReport:
        declaration = target.type(frame.target_type)
        assert isinstance(declaration, ComplexType)
        return ValidationReport.failure(
            f"children of {frame.label!r} do not match content model "
            f"{declaration.content.to_source()} of type "
            f"{frame.target_type!r}",
            path=path(frames),
        )

    def feed(parent: _CastFrame, sid: int) -> Optional[ValidationReport]:
        """Advance the parent's content check by one child symbol id
        (``-1`` for labels outside the pair alphabet)."""
        if parent.content_decided or parent.state is None:
            return None
        parent_machine = machine(parent.source_type, parent.target_type)
        if parent_machine is None:
            # Plain target DFA (simple source).
            compiled = pair.target_content(parent.target_type)
            if sid < 0:
                return content_failure(parent, stack)
            state = compiled.rows[parent.state][sid]
            if state < 0:
                return content_failure(parent, stack)
            parent.state = state
            stats.content_symbols_scanned += 1
            return None
        immed = parent_machine.c_immed_compiled
        assert immed is not None  # pair-built machines always compile
        if immed.ia_mask[parent.state]:
            parent.content_decided = True
            stats.early_content_decisions += 1
            return None
        if immed.ir_mask[parent.state]:
            stats.early_content_decisions += 1
            return content_failure(parent, stack)
        if sid < 0:
            return content_failure(parent, stack)
        state = immed.rows[parent.state][sid]
        if state < 0:
            return content_failure(parent, stack)
        parent.state = state
        stats.content_symbols_scanned += 1
        return None

    def start(event: StartElement):
        """None (pushed), ``"skip"`` (subsumed subtree), or a failure."""
        if not stack:
            target_type = target.root_type(event.label)
            if target_type is None:
                return ValidationReport.failure(
                    f"label {event.label!r} is not a permitted root of "
                    "the target schema"
                )
            source_type = source.root_type(event.label)
            if source_type is None:
                return ValidationReport.failure(
                    f"label {event.label!r} is not a permitted root of "
                    "the source schema (promise violated)"
                )
            position = 0
        else:
            parent = stack[-1]
            position = parent.child_index
            parent.child_index += 1
            parent_decl = target.type(parent.target_type)
            if not isinstance(parent_decl, ComplexType):
                return ValidationReport.failure(
                    f"simple type {parent_decl.name!r} does not allow "
                    "child elements",
                    path=path(stack),
                )
            sid = event.sym
            if sid < 0:
                sid = pair.symbols.id(event.label)
            # Feed the child label to the parent's content machine.
            report = feed(parent, sid)
            if report is not None:
                return report
            if sid >= 0:
                target_type = pair.target_child_row(parent.target_type)[sid]
                source_type = (
                    pair.source_child_row(parent.source_type)[sid]
                    if isinstance(source.type(parent.source_type),
                                  ComplexType)
                    else None
                )
            else:
                # Label outside the pair alphabet: no type assignments.
                target_type = source_type = None
            if target_type is None:
                # A label the target content model never mentions fails
                # the parent's content model.
                return content_failure(parent, stack)
            if source_type is None:
                return ValidationReport.failure(
                    f"no source type for label {event.label!r} "
                    "(promise violated)",
                    path=path(stack),
                )

        if pair.is_subsumed(source_type, target_type):
            return "skip"
        if pair.is_disjoint(source_type, target_type):
            stats.disjoint_rejections += 1
            return ValidationReport.failure(
                f"source type {source_type!r} is disjoint from target "
                f"type {target_type!r}",
                path=child_path(position),
            )
        if len(stack) >= max_depth:
            raise DocumentTooDeepError(
                f"element tree deeper than {max_depth} levels"
            )
        stats.elements_visited += 1
        target_decl = target.type(target_type)
        violation = attribute_violation_parts(
            target, target_decl, event.label, event.attributes
        )
        if violation:
            return ValidationReport.failure(
                violation, path=child_path(position)
            )
        if isinstance(target_decl, SimpleType):
            frame = _CastFrame(event.label, source_type, target_type,
                               None, True, [], position=position)
        else:
            frame_machine = machine(source_type, target_type)
            if frame_machine is None:
                # Simple source casting to complex target: only the
                # empty element is shared; require ε content.
                frame = _CastFrame(
                    event.label, source_type, target_type,
                    pair.target_content(target_type).start, False, None,
                    position=position,
                )
            else:
                decided = frame_machine.always_accepts
                if decided:
                    stats.early_content_decisions += 1
                frame = _CastFrame(
                    event.label, source_type, target_type,
                    frame_machine.c_immed.dfa.start, decided, None,
                    position=position,
                )
        stack.append(frame)
        return None

    def characters(event: Characters) -> Optional[ValidationReport]:
        frame = stack[-1]
        if isinstance(target.type(frame.target_type), SimpleType):
            frame.text_parts.append(event.value)
            return None
        if event.value.strip() == "":
            return None
        stats.text_nodes_visited += 1
        return ValidationReport.failure(
            f"complex type {frame.target_type!r} does not allow "
            "character data",
            path=child_path(frame.child_index),  # the text node
        )

    def end() -> Optional[ValidationReport]:
        frame = stack.pop()
        target_decl = target.type(frame.target_type)
        if isinstance(target_decl, SimpleType):
            stats.text_nodes_visited += 1 if frame.text_parts else 0
            stats.simple_values_checked += 1
            value = "".join(frame.text_parts)
            if value.strip() == "":
                value = ""
            if not target_decl.validate(value):
                return ValidationReport.failure(
                    f"value {value!r} does not conform to simple type "
                    f"{target_decl.name!r}",
                    path=path(stack + [frame]),
                )
            return None
        if frame.content_decided:
            return None
        frame_machine = machine(frame.source_type, frame.target_type)
        if frame_machine is None:
            compiled = pair.target_content(frame.target_type)
            if not compiled.finals_mask[frame.state]:
                return content_failure(frame, stack + [frame])
            return None
        # End of children: the pair automaton must be in a final state
        # (the promise covers source acceptance).  An IA state reached
        # after the last child accepts too, but decides nothing early.
        immed = frame_machine.c_immed_compiled
        assert immed is not None
        if immed.ia_mask[frame.state]:
            return None
        if not immed.finals_mask[frame.state]:
            return content_failure(frame, stack + [frame])
        return None

    try:
        pull = PullParser(text, limits=limits, deadline=limits.deadline(),
                          symbols=pair.symbols)
        drain = 0  # event-level skip depth inside a subsumed subtree
        for event in pull:
            if drain:
                if isinstance(event, StartElement):
                    drain += 1
                elif isinstance(event, EndElement):
                    drain -= 1
                continue
            if isinstance(event, StartElement):
                report = start(event)
                if report == "skip":
                    stats.subtrees_skipped += 1
                    if trusted:
                        stats.bytes_skipped += pull.skip_subtree()
                    else:
                        drain = 1
                    continue
            elif isinstance(event, Characters):
                report = characters(event)
            else:
                report = end()
            if report is not None:
                report.stats = stats
                return report
    except XMLSyntaxError as error:
        return ValidationReport.failure(f"not well-formed: {error}")
    return ValidationReport.success(stats)
