"""Plain top-down validation against one abstract XML Schema, and the
one tree walk every tree semantics runs.

This is the paper's baseline ``doValidate``/``validate`` pseudocode
(Section 3): check the root label is a permitted root, then recursively
check each element's child-label string against its type's content
model and descend into every child.  Simple types require exactly one
χ (text) child whose value conforms.

:class:`TreeWalk` validates documents that are already trees, reading
each node's work from a :class:`~repro.schema.pairkernel.PairKernel`
record: over :meth:`Schema.kernel
<repro.schema.model.Schema.kernel>` it is this plain validation (the
full-traversal baseline in :mod:`repro.baselines.full`, repair,
identity constraints, edited documents), over a pair's kernel the
Section 3.2 cast (:class:`~repro.core.cast.CastValidator`, and the
untouched subtrees of the cast with modifications).  It counts into a
:class:`ValidationStats` only when given one, so the counted and
uncounted modes share every line.  Text is validated without a tree by
:func:`validate_text`, which runs the fused cast kernel over the same
tables and answers exactly as ``validate_document(schema,
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
from repro.schema.pairkernel import (
    A_DISJOINT,
    A_NO_SOURCE,
    A_NO_TARGET,
    A_SUBSUME,
    K_MACHINE,
    K_PLAIN,
    K_SIMPLE,
    PairRecord,
)
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
    kernel = schema.kernel()
    action = kernel.root_actions.get(root.label, A_NO_TARGET)
    if action == A_NO_TARGET:
        return ValidationReport.failure(
            f"label {root.label!r} is not a permitted root", path=""
        )
    stats = ValidationStats() if collect_stats else None
    return _report(kernel, action, root, stats, limits, deadline, interned)


def validate_element(
    schema: Schema, type_name: str, element: Element,
    stats: Optional[ValidationStats] = None,
    *,
    limits: Optional[Limits] = None,
    deadline: Optional[Deadline] = None,
) -> ValidationReport:
    """Validate one element (and its subtree) against a named type,
    counting into ``stats`` (a fresh one when ``None``)."""
    kernel = schema.kernel()
    stats = stats if stats is not None else ValidationStats()
    return _report(
        kernel, kernel.record_id(None, type_name), element, stats,
        limits, deadline, False,
    )


def _report(
    kernel,
    action: int,
    element: Element,
    stats: Optional[ValidationStats],
    limits: Optional[Limits],
    deadline: Optional[Deadline],
    interned: bool,
) -> ValidationReport:
    """The plain :class:`TreeWalk` from ``element``, entered with
    ``action``, under ``limits`` (ambient when ``None``) and
    ``deadline`` (started from the limits when ``None``), as a report
    carrying ``stats`` when there is one."""
    limits = resolve_limits(limits)
    if deadline is None:
        deadline = limits.deadline()
    failure = TreeWalk(
        kernel, stats, deadline, max_depth(limits), interned=interned
    ).visit(action, element, 0)
    report = ValidationReport.success() if failure is None else failure
    if stats is not None:
        report.stats = stats
    return report


def max_depth(limits: Limits) -> int:
    """The deepest element level ``limits`` admit."""
    depth = limits.max_tree_depth
    return depth if depth is not None else sys.maxsize


class TreeWalk:
    """The paper's ``validate(τ, τ', e)`` on an element tree, each node's
    work read from its :class:`~repro.schema.pairkernel.PairRecord` as
    the text kernel reads it: the kind, the attribute gate, the content
    table, the value checker, and per child one ``action[sid]`` — a
    record to descend into, a subsumed subtree (skipped), a disjoint one
    (failed), or no type on one side (a broken promise).  Over a
    schema's kernel (no source side) this is plain validation, over a
    pair's kernel the cast.  :meth:`check` is one node's own work with
    no descent: the DTD cast's label index runs it on each instance of
    a checked label.

    Counters go to ``stats`` unless it is ``None``.  ``interned=True``
    reads child labels from ``Element.sym`` (a document lexed against
    the kernel's symbol table; ``-1``, a node inserted after parse,
    falls back to the string).  ``use_string_cast=False`` scans a cast's
    content with the plain target DFA, as the paper's prototype did.  A
    ``memo`` skips a subtree whose ``(source type, target type,
    structural hash)`` already validated.
    """

    __slots__ = ("kernel", "records", "ids", "plain", "string_cast",
                 "stats", "deadline", "max_depth", "interned", "memo",
                 "_plain_walk")

    def __init__(
        self,
        kernel,
        stats: Optional[ValidationStats],
        deadline: Optional[Deadline],
        max_depth: int,
        *,
        interned: bool = False,
        use_string_cast: bool = True,
        memo=None,
    ):
        self.kernel = kernel
        self.records = kernel.records
        self.ids = kernel.symbols.ids
        self.plain = kernel.pair is None
        self.string_cast = use_string_cast
        self.stats = stats
        self.deadline = deadline
        self.max_depth = max_depth
        self.interned = interned
        self.memo = memo
        self._plain_walk: Optional[TreeWalk] = None

    def visit(
        self,
        action: int,
        element: Element,
        depth: int,
        parent: Optional[PairRecord] = None,
        sid: int = -1,
    ) -> Optional[ValidationReport]:
        """Validate ``element``, reached with ``action`` from record
        ``parent`` on label id ``sid`` (``parent`` is ``None`` at the
        root): ``None`` when the subtree is valid (nothing allocated), a
        report for the first failure.  A record, a subsumed and a
        disjoint subtree each cost one depth check and one deadline
        tick."""
        if action < 0 and action != A_SUBSUME and action != A_DISJOINT:
            # No source or no target type: a broken promise.  A simple
            # source type promised text, so an element child below it
            # gets full target validation; elsewhere the child was read
            # past by an IA decision and has no type.
            if action == A_NO_SOURCE and parent.kind == K_PLAIN:
                return self.validate_as(
                    parent.target_decl.child_types[element._label],
                    element, depth,
                )
            return ValidationReport.failure(
                f"no type assigned to label {element.label!r}",
                path=str(element.dewey()),
            )
        if depth > self.max_depth:
            raise DocumentTooDeepError(
                f"element tree deeper than {self.max_depth} levels"
            )
        if self.deadline is not None:
            self.deadline.tick()
        stats = self.stats
        if action == A_SUBSUME:
            if stats is not None:
                stats.subtrees_skipped += 1
            return None
        if action == A_DISJOINT:
            if stats is not None:
                stats.disjoint_rejections += 1
            kernel = self.kernel
            if parent is None:
                source_type = kernel.pair.source.root_type(element.label)
                target_type = kernel.target.root_type(element.label)
            else:
                source_type, target_type = kernel.child_types(parent, sid)
            return ValidationReport.failure(
                f"source type {source_type!r} is disjoint from target "
                f"type {target_type!r}",
                path=str(element.dewey()),
            )
        rec = self.records[action]
        if not rec.ready:
            self.kernel.materialize(rec)
        memo = self.memo
        key = None
        if memo is not None:
            key = (rec.source_type, rec.target_type, element.structural_hash())
            if memo.contains(key):
                return None  # validated before: skip like a subsumed pair
        syms: list[int] = []
        failure = self.check(rec, element, syms)
        if failure is None and syms:
            row = rec.action
            position = 0
            for child in element.children:
                if isinstance(child, Text):
                    continue
                child_sid = syms[position]
                position += 1
                failure = self.visit(
                    row[child_sid] if child_sid >= 0 else A_NO_TARGET,
                    child, depth + 1, rec, child_sid,
                )
                if failure is not None:
                    break
        if key is not None and failure is None:
            memo.add(key)
        return failure

    def check(
        self, rec: PairRecord, element: Element, syms: list[int]
    ) -> Optional[ValidationReport]:
        """``element``'s own checks against ``rec``, its children left
        unvisited: the visit count, the attribute gate, then the simple
        value, or the child-label string (appended to ``syms``) and its
        content check.  ``None`` when they pass, else the failure.
        Plain validation fails a label outside the schema's alphabet at
        the child, counting the labels read before it, as before a stray
        text; a cast leaves it (``-1``) to the content scan."""
        stats = self.stats
        if stats is not None:
            stats.elements_visited += 1
        if element._attributes or rec.has_attrs:
            violation = attribute_violation(
                self.kernel.target, rec.target_decl, element
            )
            if violation:
                return ValidationReport.failure(
                    violation, path=str(element.dewey())
                )
        if rec.kind == K_SIMPLE:
            # Definition 1's simple case: one χ (text) child whose value
            # conforms; an empty element carries the empty string, since
            # XML offers no way to tell ``<e></e>`` from an ``<e>`` with
            # a zero-length text child.
            declaration = rec.simple_decl
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
            if not rec.check(text):
                return ValidationReport.failure(
                    f"value {text!r} does not conform to simple type "
                    f"{declaration.name!r}",
                    path=str(element.dewey()),
                )
            return None
        plain = self.plain
        interned = self.interned
        ids = self.ids
        for child in element.children:
            if isinstance(child, Text):
                if child.value.strip() == "":
                    continue  # ignorable whitespace in element content
                if stats is not None:
                    stats.text_nodes_visited += 1
                    if plain:
                        stats.content_symbols_scanned += len(syms)
                return ValidationReport.failure(
                    f"complex type {rec.target_type!r} does not allow "
                    "character data",
                    path=str(child.dewey()),
                )
            sid = child.sym if interned else -1
            if sid < 0:
                sid = ids.get(child._label, -1)
                if sid < 0 and plain:
                    if stats is not None:
                        stats.content_symbols_scanned += len(syms)
                    return ValidationReport.failure(
                        f"unexpected element {child.label!r} in content "
                        f"of {rec.target_type!r}",
                        path=str(child.dewey()),
                    )
            syms.append(sid)
        if not self._content(rec, syms):
            return ValidationReport.failure(
                f"children of {element.label!r} do not match content "
                f"model {rec.target_decl.content.to_source()} of type "
                f"{rec.target_type!r}",
                path=str(element.dewey()),
            )
        return None

    def _content(self, rec: PairRecord, syms: list[int]) -> bool:
        """Is the child-label string in the target content language?  A
        pair automaton decides with no scan at an IA (the record's
        ``always_accepts``) or IR start state, and early at an IA or IR
        state before a symbol or at a symbol it cannot read; a plain DFA
        runs to its end state.  Only the symbols consumed count."""
        machine = rec.kind == K_MACHINE and self.string_cast
        if machine:
            table, flags, start = rec.table, rec.flags, rec.start
            if rec.always_accepts or flags[start] & 4:  # IA or IR
                if self.stats is not None:
                    self.stats.early_content_decisions += 1
                return rec.always_accepts
        elif rec.kind == K_MACHINE:
            content = self.kernel.pair.target_content(rec.target_type)
            table, flags, start = content.flat, content.flags, content.start
        else:
            table, flags, start = rec.table, rec.flags, rec.start
        width = rec.width
        state = start
        scanned = early = 0
        for sid in syms:
            bits = flags[state]
            if bits & 6:  # IA or IR (pair automata only)
                early = 1
                accepted = bool(bits & 2)
                break
            state = table[state * width + sid] if sid >= 0 else -1
            scanned += 1
            if state < 0:
                early = 1 if machine else 0
                accepted = False
                break
        else:
            accepted = bool(flags[state] & 1)
        if self.stats is not None:
            self.stats.content_symbols_scanned += scanned
            self.stats.early_content_decisions += early
        return accepted

    def validate_as(
        self, type_name: str, element: Element, depth: int
    ) -> Optional[ValidationReport]:
        """Full target validation of ``element`` as ``type_name``, where
        the source knows nothing: the plain walk over the target
        schema's kernel, with this walk's counters and guards."""
        walk = self._plain_walk
        if walk is None:
            walk = self._plain_walk = TreeWalk(
                self.kernel.target.kernel(), self.stats, self.deadline,
                self.max_depth,
            )
        return walk.visit(
            walk.kernel.record_id(None, type_name), element, depth
        )
