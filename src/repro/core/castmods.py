"""Schema cast validation *with* modifications (Section 3.3).

Validates the Δ-encoded tree ``T'`` of an :class:`UpdateSession` against
the target schema, exploiting source-validity of the original tree ``T``
wherever the ``modified`` predicate says a subtree is untouched.  The
four cases of the paper:

1. unmodified subtree → hand off to the no-modifications cast validator
   (Section 3.2);
2. ``Δ^a_ε`` (deleted) → nothing to validate;
3. ``Δ^ε_b`` (inserted) → no source knowledge, full target validation of
   the subtree;
4. otherwise → check the node's content string under ``Proj_new``
   against ``regexp_τ'`` — here the Section 4.3 *string cast with
   modifications* applies, since the ``Proj_old`` string is known to be
   in ``L(regexp_τ)`` — then recurse with the child-type pairs derived
   from the two projections.

The walk enters only marked nodes (a touched node or an ancestor of
one).  At each of them a child costs one Δ lookup, which gives both
projections, and one mark lookup; an unmarked child goes straight to
:meth:`CastValidator._walk <repro.core.cast.CastValidator._walk>`, so it
costs what it costs in the Section 3.2 cast.  Like that walk, this one
returns ``None`` on success and allocates a report only on failure.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.core.cast import CastValidator
from repro.core.memo import ValidationMemo
from repro.core.result import ValidationReport, ValidationStats
from repro.core.updates import UpdateSession
from repro.core.validator import attribute_violation
from repro.errors import DocumentTooDeepError
from repro.guards import Deadline, Limits, resolve_limits
from repro.schema.model import ComplexType, SimpleType
from repro.schema.registry import SchemaPair
from repro.schema.simple import value_checker
from repro.xmltree.dom import Element, Text


class CastWithModificationsValidator:
    """Revalidates an edited, originally S-valid document against S'.

    ``collect_stats=False`` runs the same walk (including the embedded
    no-modifications cast of case 1) with the counters left out.  Both
    modes check content on the compiled dense tables, except the
    Section 4.3 string cast with modifications
    (:meth:`~repro.automata.stringcast.StringCastValidator.validate_modified`).
    """

    def __init__(
        self,
        pair: SchemaPair,
        *,
        use_string_cast: bool = True,
        collect_stats: bool = True,
        limits: Optional[Limits] = None,
        memo: Optional[ValidationMemo] = None,
    ):
        self.pair = pair
        self.use_string_cast = use_string_cast
        self.collect_stats = collect_stats
        self.limits = resolve_limits(limits)
        self._max_depth = (
            self.limits.max_tree_depth
            if self.limits.max_tree_depth is not None
            else sys.maxsize
        )
        self._deadline: Optional[Deadline] = None
        # The memo only ever serves case 1 (untouched subtrees, handed to
        # the embedded cast validator) — modified subtrees never reach
        # it, and the update session invalidates structural hashes along
        # every Δ's Dewey path, so stale fingerprints cannot survive.
        self._memo = memo
        self._cast = CastValidator(
            pair,
            use_string_cast=use_string_cast,
            collect_stats=collect_stats,
            limits=self.limits,
            memo=memo,
        )

    def validate(self, session: UpdateSession) -> ValidationReport:
        memo_base = (
            self._memo.snapshot() if self._memo is not None else None
        )
        report = self._validate_session(session)
        if memo_base is not None:
            assert self._memo is not None
            hits, misses, evictions = self._memo.snapshot()
            report.stats.memo_hits += hits - memo_base[0]
            report.stats.memo_misses += misses - memo_base[1]
            report.stats.memo_evictions += evictions - memo_base[2]
        return report

    def _validate_session(self, session: UpdateSession) -> ValidationReport:
        # One deadline spans the whole walk, shared with the embedded
        # cast validator (case 1 hands subtrees to it mid-recursion).
        # Case-1 subtrees are never relabelled or inserted, so the cast
        # may read their parsed-in ``sym`` ids.
        cast = self._cast
        self._deadline = cast._deadline = self.limits.deadline()
        cast._interned = session.document.symbols is self.pair.symbols
        root = session.document.root
        if session.is_deleted(root):
            return ValidationReport.failure("the root element was deleted")
        new_label = session.proj_new(root)
        assert new_label is not None
        target_type = self.pair.target.root_type(new_label)
        if target_type is None:
            return ValidationReport.failure(
                f"label {new_label!r} is not a permitted root of the "
                "target schema"
            )
        stats = ValidationStats() if self.collect_stats else None
        old_label = session.proj_old(root)
        source_type = (
            self.pair.source.root_type(old_label)
            if old_label is not None
            else None
        )
        if source_type is None:
            # An inserted root (not reachable through UpdateSession) or
            # a broken promise: no source knowledge at all.
            failure = self._full_validate_live(
                session, target_type, root, stats
            )
        elif session.modified(root):
            failure = self._walk(
                session, source_type, target_type, root, stats
            )
        else:
            failure = cast._walk(source_type, target_type, root, stats)
        report = ValidationReport.success() if failure is None else failure
        if stats is not None:
            report.stats = stats
        return report

    # -- the recursive parallel walk -----------------------------------------

    def _walk(
        self,
        session: UpdateSession,
        source_type: str,
        target_type: str,
        element: Element,
        stats: Optional[ValidationStats],
        depth: int = 0,
    ) -> Optional[ValidationReport]:
        """Cases 2–4 at a marked ``element``; ``None`` means valid."""
        if depth > self._max_depth:
            raise DocumentTooDeepError(
                f"element tree deeper than {self._max_depth} levels"
            )
        if self._deadline is not None:
            self._deadline.tick()
        deltas = session._deltas
        if stats is not None:
            if id(element) in deltas:
                stats.deltas_seen += 1
            # Unlike the untouched case, subsumption of τ by τ' says
            # nothing about a modified subtree, so no skip here.
            stats.elements_visited += 1
        target_decl = self.pair.target.type(target_type)
        violation = attribute_violation(self.pair.target, target_decl, element)
        if violation:
            return ValidationReport.failure(
                violation, path=str(element.dewey())
            )
        if isinstance(target_decl, SimpleType):
            return self._simple_value(session, target_decl, element, stats)
        assert isinstance(target_decl, ComplexType)

        alphabet = self.pair.target.alphabet
        old_labels: list[str] = []
        new_labels: list[str] = []
        live: list[Element] = []
        for child in element.children:
            if isinstance(child, Text):
                if child.value.strip() == "":
                    continue
                delta = deltas.get(id(child))
                if delta is not None and delta.new is None:
                    continue  # a deleted text leaf
                if stats is not None:
                    stats.text_nodes_visited += 1
                return ValidationReport.failure(
                    f"complex type {target_type!r} does not allow "
                    "character data",
                    path=str(child.dewey()),
                )
            delta = deltas.get(id(child))
            if delta is None:
                old = new = child._label
            else:
                old = delta.old
                new = delta.new
            if old is not None:
                old_labels.append(old)
            if new is not None:
                if new not in alphabet:
                    # Renamed/inserted to a label the target schema does
                    # not know at all — cannot be valid, and content
                    # automata (which may early-accept) never see it.
                    return ValidationReport.failure(
                        f"label {new!r} does not occur in the target "
                        "schema",
                        path=str(child.dewey()),
                    )
                new_labels.append(new)
                live.append(child)

        source_decl = self.pair.source.type(source_type)
        source_children = (
            source_decl.child_types
            if isinstance(source_decl, ComplexType)
            else None
        )
        if not self._content_accepts(
            source_type,
            target_type,
            old_labels if source_children is not None else None,
            new_labels,
            stats,
        ):
            return ValidationReport.failure(
                f"updated children of {element.label!r} do not match "
                f"content model {target_decl.content.to_source()} of "
                f"type {target_type!r}",
                path=str(element.dewey()),
            )

        marks = session._marked()
        target_children = target_decl.child_types
        cast_walk = self._cast._walk
        for child, new in zip(live, new_labels):
            child_target = target_children.get(new)
            if child_target is None:
                return ValidationReport.failure(
                    f"no target type assigned to label {new!r}",
                    path=str(child.dewey()),
                )
            marked = id(child) in marks
            old = new
            if marked:
                delta = deltas.get(id(child))
                if delta is not None:
                    old = delta.old
            child_source = (
                source_children.get(old)
                if source_children is not None and old is not None
                else None
            )
            if child_source is None:
                # Case 3 (inserted) or no usable source type ("if τ is
                # not a complex type, we must validate each t_i
                # explicitly"): full target validation of the subtree,
                # through the live view (tombstones skipped).
                failure = self._full_validate_live(
                    session, child_target, child, stats, depth + 1
                )
            elif marked:
                failure = self._walk(
                    session, child_source, child_target, child, stats,
                    depth + 1,
                )
            else:  # case 1
                failure = cast_walk(
                    child_source, child_target, child, stats, depth + 1
                )
            if failure is not None:
                return failure
        return None

    def _full_validate_live(
        self,
        session: UpdateSession,
        type_name: str,
        element: Element,
        stats: Optional[ValidationStats],
        depth: int = 0,
    ) -> Optional[ValidationReport]:
        """Full target validation of a subtree through the session's
        live view (deleted tombstones are invisible); ``None`` means
        valid."""
        if depth > self._max_depth:
            raise DocumentTooDeepError(
                f"element tree deeper than {self._max_depth} levels"
            )
        if self._deadline is not None:
            self._deadline.tick()
        if stats is not None:
            stats.elements_visited += 1
        declaration = self.pair.target.type(type_name)
        violation = attribute_violation(self.pair.target, declaration, element)
        if violation:
            return ValidationReport.failure(
                violation, path=str(element.dewey())
            )
        if isinstance(declaration, SimpleType):
            return self._simple_value(session, declaration, element, stats)
        assert isinstance(declaration, ComplexType)
        live = session.live_children(element)
        labels: list[str] = []
        for child in live:
            if isinstance(child, Text):
                if child.value.strip() == "":
                    continue
                if stats is not None:
                    stats.text_nodes_visited += 1
                return ValidationReport.failure(
                    f"complex type {type_name!r} does not allow "
                    "character data",
                    path=str(child.dewey()),
                )
            if child.label not in self.pair.target.alphabet:
                return ValidationReport.failure(
                    f"label {child.label!r} does not occur in the "
                    "target schema",
                    path=str(child.dewey()),
                )
            labels.append(child.label)
        immed = self.pair.target_immed_compiled(type_name)
        syms = self.pair.symbols.encode(labels)
        if stats is None:
            accepted = immed.decide(syms)
        else:
            accepted, scanned, _, _ = immed.scan(syms)
            stats.content_symbols_scanned += scanned
        if not accepted:
            return ValidationReport.failure(
                f"children of {element.label!r} do not match content "
                f"model {declaration.content.to_source()} of type "
                f"{type_name!r}",
                path=str(element.dewey()),
            )
        for child in live:
            if isinstance(child, Text):
                continue
            child_type = declaration.child_types.get(child.label)
            if child_type is None:
                return ValidationReport.failure(
                    f"no type assigned to label {child.label!r}",
                    path=str(child.dewey()),
                )
            failure = self._full_validate_live(
                session, child_type, child, stats, depth + 1
            )
            if failure is not None:
                return failure
        return None

    # -- content and simple-value checks ----------------------------------------

    def _content_accepts(
        self,
        source_type: str,
        target_type: str,
        old_labels: Optional[list[str]],
        new_labels: list[str],
        stats: Optional[ValidationStats],
    ) -> bool:
        """Check the updated child-label string against ``regexp_τ'``.

        When the original string is available (complex source type) the
        Section 4.3 with-modifications string cast is used; otherwise a
        plain target scan.
        """
        if self.use_string_cast and old_labels is not None:
            machine = self.pair.string_cast(source_type, target_type)
            result = machine.validate_modified(old_labels, new_labels)
            if stats is not None:
                stats.content_symbols_scanned += result.symbols_scanned
                if result.decision.value.startswith("immediate"):
                    stats.early_content_decisions += 1
            return result.accepted
        immed = self.pair.target_immed_compiled(target_type)
        syms = self.pair.symbols.encode(new_labels)
        if stats is None:
            return immed.decide(syms)
        accepted, scanned, early, _ = immed.scan(syms)
        stats.content_symbols_scanned += scanned
        stats.early_content_decisions += early
        return accepted

    def _simple_value(
        self,
        session: UpdateSession,
        declaration: SimpleType,
        element: Element,
        stats: Optional[ValidationStats],
    ) -> Optional[ValidationReport]:
        deltas = session._deltas
        parts: list[str] = []
        for child in element.children:
            delta = deltas.get(id(child))
            if delta is not None and delta.new is None:
                continue  # a tombstone
            if isinstance(child, Element):
                return ValidationReport.failure(
                    f"simple type {declaration.name!r} does not allow "
                    "child elements",
                    path=str(element.dewey()),
                )
            parts.append(child.value)
        if stats is not None:
            stats.text_nodes_visited += len(parts)
            stats.simple_values_checked += 1
        text = "".join(parts)
        if not value_checker(declaration)(text):
            return ValidationReport.failure(
                f"value {text!r} does not conform to simple type "
                f"{declaration.name!r}",
                path=str(element.dewey()),
            )
        return None
