"""Streaming validation: O(depth) memory, no tree.

The paper's memory argument — validator state independent of the
document — extends naturally to validation *during parsing*:
:class:`StreamingValidator` consumes the event stream of
:func:`repro.xmltree.events.iterparse` and maintains only a stack of
open elements, each frame holding the element's assigned type and its
content-model DFA state.  The verdict matches
:func:`repro.core.validator.validate_document` on the parsed tree
exactly (same type assignment, same checks), without ever materializing
the tree.

Identity constraints need whole-subtree visibility and are outside the
streaming mode; use :func:`repro.schema.identity.check_identity` on a
parsed document when the schema declares any.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.result import ValidationReport, ValidationStats
from repro.core.validator import attribute_violation_parts
from repro.errors import DocumentTooDeepError
from repro.guards import Limits, read_document, resolve_limits
from repro.schema.model import ComplexType, Schema, SimpleType
from repro.xmltree.events import (
    Characters,
    EndElement,
    Event,
    StartElement,
    iterparse,
)


@dataclass
class _Frame:
    label: str
    type_name: str
    #: DFA state for complex types; None marks a simple-typed frame.
    state: Optional[int]
    #: Accumulated character data — allocated only for simple-typed
    #: frames; complex types reject non-whitespace text outright, so
    #: their frames carry None instead of an always-empty list.
    text_parts: Optional[list[str]]
    child_index: int = 0
    #: Dewey step of this element under its parent (for error paths).
    position: int = 0


class StreamingValidator:
    """Validates event streams against one schema with stack-only state."""

    def __init__(self, schema: Schema, *, limits: Optional[Limits] = None):
        self.schema = schema
        self.limits = resolve_limits(limits)
        self._max_depth = (
            self.limits.max_tree_depth
            if self.limits.max_tree_depth is not None
            else sys.maxsize
        )
        for type_name, declaration in schema.types.items():
            if isinstance(declaration, ComplexType):
                schema.content_dfa(type_name)

    # -- entry points ------------------------------------------------------

    def validate_text(self, text: str) -> ValidationReport:
        """Parse and validate in one streaming pass.

        Resource-limit violations (size, depth, entity expansions,
        deadline) raise the matching :class:`ResourceLimitError`; only
        well-formedness problems become failure reports.
        """
        from repro.errors import XMLSyntaxError

        try:
            return self.validate_events(
                iterparse(text, limits=self.limits,
                          deadline=self.limits.deadline(),
                          symbols=self.schema.symbols),
                interned=True,
            )
        except XMLSyntaxError as error:
            return ValidationReport.failure(f"not well-formed: {error}")

    def validate_file(self, path: str) -> ValidationReport:
        return self.validate_text(read_document(path, self.limits))

    def validate_events(
        self, events: Iterable[Event], *, interned: bool = False
    ) -> ValidationReport:
        """Validate an event stream.

        ``interned=True`` promises that every ``StartElement.sym`` was
        interned against *this schema's* symbol table (as
        :meth:`validate_text` arranges); external event sources should
        leave it off and pay the per-event string lookup.
        """
        stats = ValidationStats()
        stack: list[_Frame] = []
        for event in events:
            if isinstance(event, StartElement):
                report = self._start(event, stack, stats, interned)
            elif isinstance(event, Characters):
                report = self._characters(event, stack, stats)
            else:
                report = self._end(event, stack, stats)
            if report is not None:
                report.stats = stats
                return report
        report = ValidationReport.success(stats)
        return report

    # -- event handlers -----------------------------------------------------

    def _path(self, stack: list[_Frame]) -> str:
        return ".".join(str(frame.position) for frame in stack[1:])

    def _child_path(self, stack: list[_Frame], position: int) -> str:
        """Dewey path of the node at ``position`` under the open frame
        (the root's empty path when no frame is open) — where the DOM
        validator reports a node's own failures."""
        if not stack:
            return ""
        parent_path = self._path(stack)
        return f"{parent_path}.{position}" if parent_path else str(position)

    def _start(
        self,
        event: StartElement,
        stack: list[_Frame],
        stats: ValidationStats,
        interned: bool,
    ) -> Optional[ValidationReport]:
        if not stack:
            type_name = self.schema.root_type(event.label)
            if type_name is None:
                return ValidationReport.failure(
                    f"label {event.label!r} is not a permitted root"
                )
            position = 0
        else:
            parent = stack[-1]
            if parent.state is None:
                return ValidationReport.failure(
                    f"simple type {parent.type_name!r} does not allow "
                    "child elements",
                    path=self._path(stack),
                )
            compiled = self.schema.compiled_content_dfa(parent.type_name)
            sid = event.sym if interned else -1
            if sid < 0:
                sid = self.schema.symbols.id(event.label)
            if sid < 0:
                # Content rows are complete over the schema alphabet, so
                # only un-interned labels can fail to step.
                return ValidationReport.failure(
                    f"unexpected element {event.label!r} in content of "
                    f"{parent.type_name!r}",
                    path=self._child_path(stack, parent.child_index),
                )
            parent.state = compiled.rows[parent.state][sid]
            stats.content_symbols_scanned += 1
            child_type = self.schema.child_type_row(parent.type_name)[sid]
            if child_type is None:
                return ValidationReport.failure(
                    f"no type assigned to label {event.label!r}",
                    path=self._path(stack),
                )
            type_name = child_type
            position = parent.child_index
            parent.child_index += 1

        if len(stack) >= self._max_depth:
            # Guards external event streams; iterparse input is already
            # depth-checked at the parser.
            raise DocumentTooDeepError(
                f"element tree deeper than {self._max_depth} levels"
            )
        stats.elements_visited += 1
        declaration = self.schema.type(type_name)
        violation = attribute_violation_parts(
            self.schema, declaration, event.label, event.attributes
        )
        if violation:
            return ValidationReport.failure(
                violation, path=self._child_path(stack, position)
            )
        if isinstance(declaration, SimpleType):
            frame = _Frame(event.label, type_name, None, [],
                           position=position)
        else:
            frame = _Frame(
                event.label,
                type_name,
                self.schema.compiled_content_dfa(type_name).start,
                None,
                position=position,
            )
        stack.append(frame)
        return None

    def _characters(
        self,
        event: Characters,
        stack: list[_Frame],
        stats: ValidationStats,
    ) -> Optional[ValidationReport]:
        frame = stack[-1]
        if frame.state is None:
            frame.text_parts.append(event.value)
            return None
        if event.value.strip() == "":
            return None  # ignorable whitespace in element content
        stats.text_nodes_visited += 1
        return ValidationReport.failure(
            f"complex type {frame.type_name!r} does not allow character "
            "data",
            path=self._child_path(stack, frame.child_index),  # the text
        )

    def _end(
        self,
        event: EndElement,
        stack: list[_Frame],
        stats: ValidationStats,
    ) -> Optional[ValidationReport]:
        frame = stack.pop()
        if frame.state is None:
            stats.text_nodes_visited += 1 if frame.text_parts else 0
            stats.simple_values_checked += 1
            declaration = self.schema.type(frame.type_name)
            assert isinstance(declaration, SimpleType)
            value = "".join(frame.text_parts)
            if value.strip() == "":
                # Whitespace-only runs are dropped by the DOM parser;
                # mirror that so both modes agree on <e>  </e>.
                value = ""
            if not declaration.validate(value):
                return ValidationReport.failure(
                    f"value {value!r} does not conform to simple type "
                    f"{declaration.name!r}",
                    path=self._path(stack + [frame]),
                )
            return None
        compiled = self.schema.compiled_content_dfa(frame.type_name)
        if not compiled.finals_mask[frame.state]:
            declaration = self.schema.type(frame.type_name)
            assert isinstance(declaration, ComplexType)
            return ValidationReport.failure(
                f"children of {frame.label!r} do not match content model "
                f"{declaration.content.to_source()} of type "
                f"{frame.type_name!r}",
                path=self._path(stack + [frame]),
            )
        return None


def validate_stream(schema: Schema, text: str) -> ValidationReport:
    """One-shot streaming validation of XML text."""
    return StreamingValidator(schema).validate_text(text)
