"""Plain top-down validation against one abstract XML Schema.

This is the paper's baseline ``doValidate``/``validate`` pseudocode
(Section 3): check the root label is a permitted root, then recursively
check each element's child-label string against its type's content
model and descend into every child.  Simple types require exactly one
χ (text) child whose value conforms.

One tree walk, :func:`_walk`, validates documents that are already
trees: the full-traversal baseline in :mod:`repro.baselines.full`
(unmodified Xerces), repair, identity constraints and edited documents.
It runs on the schema's compiled content tables and counts into a
:class:`ValidationStats` only when given one, so the counted and
uncounted modes share every line.  Text is validated without a tree by
:func:`validate_text`, which runs the fused cast kernel over the
schema's own tables and answers exactly as ``validate_document(schema,
parse(text))`` does, in one pass: the kernel settles its own
rejections (:mod:`repro.core.castkernel`).
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.core.result import ValidationReport, ValidationStats
from repro.errors import DocumentTooDeepError
from repro.guards import (
    Deadline,
    Limits,
    read_document,
    remaining_limits,
    resolve_limits,
)
from repro.schema.model import ComplexType, Schema, SimpleType, TypeDef
from repro.schema.simple import value_checker
from repro.xmltree.dom import Document, Element, Text

#: Attribute names outside validation: namespace machinery and the
#: xsi:* instance attributes (schemaLocation etc.).
RESERVED_ATTRIBUTE_PREFIXES = ("xmlns", "xml:", "xsi:")


def _is_reserved_attribute(name: str) -> bool:
    return name.startswith(RESERVED_ATTRIBUTE_PREFIXES)


def attribute_violation(
    schema: Schema, declaration: TypeDef, element: Element
) -> str:
    """The first attribute-validation failure on ``element``, or ``""``.

    Part of the attribute extension (outside the paper's structural
    model): undeclared attributes, missing required attributes, and
    non-conforming values are violations.  Reserved names (``xmlns*``,
    ``xml:*``, ``xsi:*``) are always permitted.  Simple-typed elements
    admit no attributes (XSD would require complex simpleContent).
    """
    return attribute_violation_parts(
        schema, declaration, element._label, element._attributes
    )


def attribute_violation_parts(
    schema: Schema,
    declaration: TypeDef,
    label: str,
    attributes,
) -> str:
    """:func:`attribute_violation` on raw ``(label, attributes)`` parts.

    ``attributes`` is any mapping or ``None`` (the lean DOM's empty
    sentinel); streaming validators call this directly so no throwaway
    :class:`Element` shell is allocated per event.
    """
    if attributes:
        present = {
            name: value
            for name, value in attributes.items()
            if not _is_reserved_attribute(name)
        }
    else:
        present = {}
    if isinstance(declaration, SimpleType):
        if present:
            name = sorted(present)[0]
            return (
                f"simple-typed element <{label}> does not allow "
                f"attribute {name!r}"
            )
        return ""
    assert isinstance(declaration, ComplexType)
    declared = declaration.attributes
    for name in present:
        if name not in declared:
            return (
                f"undeclared attribute {name!r} on <{label}> "
                f"(type {declaration.name!r})"
            )
    for name, attr in declared.items():
        if name in present:
            value_type = schema.type(attr.type_name)
            assert isinstance(value_type, SimpleType)
            if not value_type.validate(present[name]):
                return (
                    f"attribute {name}={present[name]!r} does not conform "
                    f"to {attr.type_name}"
                )
        elif attr.required:
            return (
                f"missing required attribute {name!r} on "
                f"<{label}>"
            )
    return ""


def validate_text(
    schema: Schema, text: str, *, limits: Optional[Limits] = None
) -> ValidationReport:
    """Validate XML text against ``schema`` without building a tree.

    Answers exactly as ``validate_document(schema, parse(text))``: the
    same verdict, reason and Dewey path, the same counters on a valid
    document, and the same typed error when the text is malformed or a
    limit trips.  One pass of the fused kernel
    (:func:`repro.core.castkernel.run`) over
    :meth:`~repro.schema.model.Schema.kernel` does the work in
    O(depth) memory, a rejection included: the kernel settles its
    first failure in the same pass, under the same deadline.
    """
    from repro.core import castkernel  # castkernel imports this module

    return castkernel.run(schema.kernel(), resolve_limits(limits), text, False)


def validate_file(
    schema: Schema, path: str, *, limits: Optional[Limits] = None
) -> ValidationReport:
    """:func:`validate_text` over a file (size-checked before reading).
    One deadline covers the read and the validation."""
    limits = resolve_limits(limits)
    deadline = limits.deadline()
    text = read_document(path, limits)
    return validate_text(
        schema, text, limits=remaining_limits(limits, deadline)
    )


def validate_document(
    schema: Schema,
    document: Document,
    *,
    collect_stats: bool = True,
    limits: Optional[Limits] = None,
    deadline: Optional[Deadline] = None,
) -> ValidationReport:
    """Validate a whole document: root admissibility plus the subtree.

    ``collect_stats=False`` leaves the counters out: same verdict,
    reports allocated only on failure.  A document lexed against this
    schema's own symbol table (``parse(..., symbols=schema.symbols)``)
    is validated on the interned ``Element.sym`` ids with no per-node
    string hashing.
    """
    return validate_root(
        schema,
        document.root,
        collect_stats=collect_stats,
        limits=limits,
        deadline=deadline,
        interned=document.symbols is schema.symbols,
    )


def validate_root(
    schema: Schema,
    root: Element,
    *,
    collect_stats: bool = True,
    limits: Optional[Limits] = None,
    deadline: Optional[Deadline] = None,
    interned: bool = False,
) -> ValidationReport:
    type_name = schema.root_type(root.label)
    if type_name is None:
        return ValidationReport.failure(
            f"label {root.label!r} is not a permitted root", path=""
        )
    stats = ValidationStats() if collect_stats else None
    return _report(schema, type_name, root, stats, limits, deadline, interned)


def validate_element(
    schema: Schema, type_name: str, element: Element,
    stats: Optional[ValidationStats] = None,
    *,
    limits: Optional[Limits] = None,
    deadline: Optional[Deadline] = None,
) -> ValidationReport:
    """Validate one element (and its subtree) against a named type,
    counting into ``stats`` (a fresh one when ``None``)."""
    stats = stats if stats is not None else ValidationStats()
    return _report(schema, type_name, element, stats, limits, deadline, False)


def _report(
    schema: Schema,
    type_name: str,
    element: Element,
    stats: Optional[ValidationStats],
    limits: Optional[Limits],
    deadline: Optional[Deadline],
    interned: bool,
) -> ValidationReport:
    """:func:`_walk` under ``limits`` (ambient when ``None``) and
    ``deadline`` (started from the limits when ``None``), as a report
    carrying ``stats`` when there is one."""
    limits = resolve_limits(limits)
    max_depth = (
        limits.max_tree_depth
        if limits.max_tree_depth is not None
        else sys.maxsize
    )
    if deadline is None:
        deadline = limits.deadline()
    failure = _walk(
        schema, type_name, element, stats, 0, max_depth, deadline, interned
    )
    report = ValidationReport.success() if failure is None else failure
    if stats is not None:
        report.stats = stats
    return report


def _walk(
    schema: Schema,
    type_name: str,
    element: Element,
    stats: Optional[ValidationStats],
    depth: int,
    max_depth: int,
    deadline: Optional[Deadline],
    interned: bool,
) -> Optional[ValidationReport]:
    """The paper's ``validate(τ, e)`` over the schema's compiled content
    tables.  ``None`` means valid (nothing allocated); a report is the
    first failure.  Counters go to ``stats`` unless it is ``None``.

    With ``interned=True`` (document lexed against ``schema.symbols``)
    the content scan and the child-type descent both run on the
    elements' dense ``sym`` ids — tuple indexing only.  A ``sym`` of
    ``-1`` (node inserted after parse, or label outside the schema
    alphabet) falls back to the string lookup, so mutated documents
    stay correct, just slower on the touched nodes.

    Definition 1's simple case wants one χ (text) child whose value
    conforms; an empty element carries the empty string, since XML
    offers no way to tell ``<e></e>`` from an ``<e>`` with a
    zero-length text child.
    """
    if depth > max_depth:
        raise DocumentTooDeepError(
            f"element tree deeper than {max_depth} levels"
        )
    if deadline is not None:
        deadline.tick()
    if stats is not None:
        stats.elements_visited += 1
    declaration = schema.types[type_name]
    if element._attributes or (
        isinstance(declaration, ComplexType) and declaration.attributes
    ):
        violation = attribute_violation(schema, declaration, element)
        if violation:
            return ValidationReport.failure(
                violation, path=str(element.dewey())
            )
    if isinstance(declaration, SimpleType):
        for child in element.children:
            if isinstance(child, Element):
                return ValidationReport.failure(
                    f"simple type {declaration.name!r} does not allow "
                    "child elements",
                    path=str(element.dewey()),
                )
        if stats is not None:
            stats.text_nodes_visited += len(element.children)
            stats.simple_values_checked += 1
        text = element.text()
        if not value_checker(declaration)(text):
            return ValidationReport.failure(
                f"value {text!r} does not conform to simple type "
                f"{declaration.name!r}",
                path=str(element.dewey()),
            )
        return None
    compiled = schema.compiled_content_dfa(type_name)
    ids = schema.symbols.ids
    flat = compiled.flat
    width = compiled.width
    state = compiled.start
    # Every symbol read so far is in ``syms``, so the scan count is
    # settled once, wherever the scan stops.
    syms: list[int] = []
    for child in element.children:
        if isinstance(child, Text):
            if child.value.strip() == "":
                continue  # ignorable whitespace in element content
            if stats is not None:
                stats.text_nodes_visited += 1
                stats.content_symbols_scanned += len(syms)
            return ValidationReport.failure(
                f"complex type {type_name!r} does not allow character data",
                path=str(child.dewey()),
            )
        sid = child.sym if interned else -1
        if sid < 0:
            sid = ids.get(child.label, -1)
            if sid < 0:
                if stats is not None:
                    stats.content_symbols_scanned += len(syms)
                return ValidationReport.failure(
                    f"unexpected element {child.label!r} in content of "
                    f"{type_name!r}",
                    path=str(child.dewey()),
                )
        syms.append(sid)
        # Content rows are complete over the schema alphabet, so an
        # interned symbol always has a successor.
        state = flat[state * width + sid]
    if stats is not None:
        stats.content_symbols_scanned += len(syms)
    if not (compiled.flags[state] & 1):
        return ValidationReport.failure(
            f"children of {element.label!r} do not match content model "
            f"{declaration.content.to_source()} of type {type_name!r}",
            path=str(element.dewey()),
        )
    child_row = schema.child_type_row(type_name)
    position = 0
    for child in element.children:
        if isinstance(child, Text):
            continue
        failure = _walk(
            schema,
            child_row[syms[position]],
            child,
            stats,
            depth + 1,
            max_depth,
            deadline,
            interned,
        )
        position += 1
        if failure is not None:
            return failure
    return None
