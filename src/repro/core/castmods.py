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
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.core.cast import CastValidator
from repro.core.memo import ValidationMemo
from repro.core.result import ValidationReport, ValidationStats
from repro.core.updates import UpdateSession
from repro.errors import DocumentTooDeepError
from repro.guards import Deadline, Limits, resolve_limits
from repro.schema.model import ComplexType, SimpleType
from repro.schema.registry import SchemaPair
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
        self._deadline = self.limits.deadline()
        self._cast._deadline = self._deadline
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
        if session.is_inserted(root):  # cannot happen via UpdateSession
            report = self._full_validate_live(session, target_type, root, stats)
            if stats is not None:
                report.stats = stats
            return report
        old_label = session.proj_old(root)
        assert old_label is not None
        source_type = self.pair.source.root_type(old_label)
        if source_type is None:
            report = self._full_validate_live(session, target_type, root, stats)
            if stats is not None:
                report.stats = stats
            return report
        report = self._validate_node(
            session, source_type, target_type, root, stats
        )
        if stats is not None:
            report.stats = stats
        return report

    # -- the recursive parallel walk -----------------------------------------

    def _validate_node(
        self,
        session: UpdateSession,
        source_type: str,
        target_type: str,
        element: Element,
        stats: Optional[ValidationStats],
        depth: int = 0,
    ) -> ValidationReport:
        if depth > self._max_depth:
            raise DocumentTooDeepError(
                f"element tree deeper than {self._max_depth} levels"
            )
        if self._deadline is not None:
            self._deadline.tick()
        # Case 1: untouched subtree — plain schema cast applies, counting
        # into ``stats`` when there is one.
        if not session.modified(element):
            return self._cast.validate_element(
                source_type, target_type, element, stats, depth
            )
        if stats is not None:
            if session.is_touched(element):
                stats.deltas_seen += 1
            # Disjointness still applies when the *content* below may
            # have changed only in ways the types bound; but unlike the
            # untouched case, subsumption of τ by τ' says nothing about
            # a modified subtree, so no skip here.
            stats.elements_visited += 1
        target_decl = self.pair.target.type(target_type)
        from repro.core.validator import attribute_violation

        violation = attribute_violation(self.pair.target, target_decl, element)
        if violation:
            return ValidationReport.failure(
                violation, path=str(element.dewey()), stats=stats
            )
        if isinstance(target_decl, SimpleType):
            return self._simple_value(session, target_decl, element, stats)
        assert isinstance(target_decl, ComplexType)

        old_labels: list[str] = []
        new_labels: list[str] = []
        live_element_children: list[Element] = []
        for child in element.children:
            if isinstance(child, Text):
                if session.is_deleted(child):
                    continue
                if child.value.strip() == "":
                    continue
                if stats is not None:
                    stats.text_nodes_visited += 1
                return ValidationReport.failure(
                    f"complex type {target_type!r} does not allow "
                    "character data",
                    path=str(child.dewey()),
                    stats=stats,
                )
            old = session.proj_old(child)
            new = session.proj_new(child)
            if old is not None:
                old_labels.append(old)
            if new is not None:
                if new not in self.pair.target.alphabet:
                    # Renamed/inserted to a label the target schema does
                    # not know at all — cannot be valid, and content
                    # automata (which may early-accept) never see it.
                    return ValidationReport.failure(
                        f"label {new!r} does not occur in the target "
                        "schema",
                        path=str(child.dewey()),
                        stats=stats,
                    )
                new_labels.append(new)
                live_element_children.append(child)

        source_decl = self.pair.source.type(source_type)
        content_ok = self._content_accepts(
            source_type,
            target_type,
            old_labels if isinstance(source_decl, ComplexType) else None,
            new_labels,
            stats,
        )
        if not content_ok:
            return ValidationReport.failure(
                f"updated children of {element.label!r} do not match "
                f"content model {target_decl.content.to_source()} of "
                f"type {target_type!r}",
                path=str(element.dewey()),
                stats=stats,
            )

        for child in live_element_children:
            new = session.proj_new(child)
            assert new is not None
            child_target = target_decl.child_types.get(new)
            if child_target is None:
                return ValidationReport.failure(
                    f"no target type assigned to label {new!r}",
                    path=str(child.dewey()),
                    stats=stats,
                )
            old = session.proj_old(child)
            child_source = (
                source_decl.child_types.get(old)
                if isinstance(source_decl, ComplexType) and old is not None
                else None
            )
            if old is None or child_source is None:
                # Case 3 (inserted) or no usable source type ("if τ is
                # not a complex type, we must validate each t_i
                # explicitly"): full target validation of the subtree,
                # through the live view (tombstones skipped).
                report = self._full_validate_live(
                    session, child_target, child, stats, depth + 1
                )
            else:
                report = self._validate_node(
                    session, child_source, child_target, child, stats,
                    depth + 1,
                )
            if not report.valid:
                return report
        return ValidationReport.success(stats)

    def _full_validate_live(
        self,
        session: UpdateSession,
        type_name: str,
        element: Element,
        stats: Optional[ValidationStats],
        depth: int = 0,
    ) -> ValidationReport:
        """Full target validation of a subtree through the session's
        live view (deleted tombstones are invisible)."""
        if depth > self._max_depth:
            raise DocumentTooDeepError(
                f"element tree deeper than {self._max_depth} levels"
            )
        if self._deadline is not None:
            self._deadline.tick()
        if stats is not None:
            stats.elements_visited += 1
        declaration = self.pair.target.type(type_name)
        from repro.core.validator import attribute_violation

        violation = attribute_violation(self.pair.target, declaration, element)
        if violation:
            return ValidationReport.failure(
                violation, path=str(element.dewey()), stats=stats
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
                    stats=stats,
                )
            if child.label not in self.pair.target.alphabet:
                return ValidationReport.failure(
                    f"label {child.label!r} does not occur in the "
                    "target schema",
                    path=str(child.dewey()),
                    stats=stats,
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
                stats=stats,
            )
        for child in live:
            if isinstance(child, Text):
                continue
            child_type = declaration.child_types.get(child.label)
            if child_type is None:
                return ValidationReport.failure(
                    f"no type assigned to label {child.label!r}",
                    path=str(child.dewey()),
                    stats=stats,
                )
            report = self._full_validate_live(
                session, child_type, child, stats, depth + 1
            )
            if not report.valid:
                return report
        return ValidationReport.success(stats)

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
    ) -> ValidationReport:
        live = session.live_children(element)
        if any(isinstance(child, Element) for child in live):
            return ValidationReport.failure(
                f"simple type {declaration.name!r} does not allow child "
                "elements",
                path=str(element.dewey()),
                stats=stats,
            )
        if stats is not None:
            stats.text_nodes_visited += len(live)
            stats.simple_values_checked += 1
        text = "".join(
            child.value for child in live if isinstance(child, Text)
        )
        if not declaration.validate(text):
            return ValidationReport.failure(
                f"value {text!r} does not conform to simple type "
                f"{declaration.name!r}",
                path=str(element.dewey()),
                stats=stats,
            )
        return ValidationReport.success(stats)
