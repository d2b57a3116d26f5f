"""Schema cast validation *with* modifications (Section 3.3).

Validates the Δ-encoded tree ``T'`` of an :class:`UpdateSession` against
the target schema, exploiting source-validity of the original tree ``T``
wherever the ``modified`` predicate says a subtree is untouched.  Each
node falls in one of the paper's four cases:

1. unmodified subtree → the no-modifications cast (Section 3.2): the
   :class:`~repro.core.validator.TreeWalk` over the pair's kernel,
   entered with the child's ``action[sid]`` in the marked parent's
   :class:`~repro.schema.pairkernel.PairRecord`;
2. ``Δ^a_ε`` (deleted) → nothing to validate;
3. ``Δ^ε_b`` (inserted) → no source knowledge, so full target
   validation of the subtree: the same walk over the target schema's
   own kernel (:meth:`TreeWalk.validate_as
   <repro.core.validator.TreeWalk.validate_as>`), on the raw tree: an
   inserted subtree holds only inserted nodes, so no tombstone lies
   below it;
4. otherwise (a marked original node) → this module's :meth:`_walk
   <CastWithModificationsValidator._walk>` checks the node against its
   pair record, as the tree walk checks an untouched one — attribute
   gate, value checker, content table — except that a complex/complex
   pair's content string under ``Proj_new`` gets the Section 4.3
   *string cast with modifications* against ``regexp_τ'``, since the
   ``Proj_old`` string is known to be in ``L(regexp_τ)``; then it
   routes each child by its Δ-label and its mark.

A node the source assigns no type (a broken promise) has no source
knowledge either: marked, it still goes to :meth:`_walk
<CastWithModificationsValidator._walk>`, on a record with no source
type, whose content table is the plain target DFA; unmarked, it gets
full target validation as in case 3.

The walk enters only marked nodes (a touched node or an ancestor of
one).  At each of them a child costs one Δ lookup, which gives both
projections, and one mark lookup; an unmarked child goes straight to
the Section 3.2 cast, so it costs what it costs there.  Like the tree
walk, this one returns ``None`` on success and allocates a report only
on failure.  A rejection reads as full revalidation of
:meth:`~repro.core.updates.UpdateSession.result_document` reads it:
the same reason, and the Dewey path in the edited document
(:meth:`UpdateSession.live_path
<repro.core.updates.UpdateSession.live_path>`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.cast import CastValidator
from repro.core.result import ValidationReport, ValidationStats
from repro.core.updates import UpdateSession
from repro.core.validator import TreeWalk, attribute_violation
from repro.errors import DocumentTooDeepError
from repro.guards import Limits, resolve_limits
from repro.schema.pairkernel import K_MACHINE, K_SIMPLE, PairRecord
from repro.schema.registry import SchemaPair
from repro.xmltree.dom import Element, Text


class CastWithModificationsValidator:
    """Revalidates an edited, originally S-valid document against S'.

    Two walks serve the four cases of Section 3.3: the tree walk over
    kernel records (case 1, untouched subtrees, on the pair's kernel;
    case 3, inserted subtrees, on the target's) and :meth:`_walk`
    (case 4, marked original nodes); a deleted node (case 2) is
    skipped.  ``collect_stats=False`` runs the same walks with the
    counters left out.  Every node's checks come from its
    :class:`~repro.schema.pairkernel.PairRecord`, and all content checks
    run on the records' compiled tables, except the Section 4.3 string
    cast with modifications at a marked complex/complex pair
    (:meth:`~repro.automata.stringcast.StringCastValidator.validate_modified`).
    """

    def __init__(
        self,
        pair: SchemaPair,
        *,
        use_string_cast: bool = True,
        collect_stats: bool = True,
        limits: Optional[Limits] = None,
    ):
        self.pair = pair
        self.use_string_cast = use_string_cast
        self.collect_stats = collect_stats
        self.limits = resolve_limits(limits)
        self._cast = CastValidator(
            pair,
            use_string_cast=use_string_cast,
            collect_stats=collect_stats,
            limits=self.limits,
        )

    def validate(self, session: UpdateSession) -> ValidationReport:
        report = self._validate_session(session)
        if not report.valid:
            report.path = session.live_path(report.path)
        return report

    def _validate_session(self, session: UpdateSession) -> ValidationReport:
        root = session.document.root
        if session.is_deleted(root):
            return ValidationReport.failure("the root element was deleted")
        new_label = session.proj_new(root)
        assert new_label is not None
        target_type = self.pair.target.root_type(new_label)
        if target_type is None:
            return ValidationReport.failure(
                f"label {new_label!r} is not a permitted root"
            )
        stats = ValidationStats() if self.collect_stats else None
        # One deadline spans the whole walk, case-1 and case-3 subtrees
        # included.  Case-1 subtrees are never relabelled or inserted,
        # so the cast may read their parsed-in ``sym`` ids.
        walk = self._cast.walk(
            stats,
            self.limits.deadline(),
            session.document.symbols is self.pair.symbols,
        )
        # The root is never inserted, so it has an old label; the source
        # assigns it no type only under a broken promise.
        source_type = self.pair.source.root_type(session.proj_old(root))
        if session.modified(root):
            failure = self._walk(
                session, walk, source_type, target_type, root, 0
            )
        elif source_type is not None:
            failure = walk.visit(
                self.pair.kernel().root_actions[new_label], root, 0
            )
        else:
            failure = walk.validate_as(target_type, root, 0)
        report = ValidationReport.success() if failure is None else failure
        if stats is not None:
            report.stats = stats
        return report

    # -- the recursive parallel walk -----------------------------------------

    def _walk(
        self,
        session: UpdateSession,
        walk: TreeWalk,
        source_type: Optional[str],
        target_type: str,
        element: Element,
        depth: int,
    ) -> Optional[ValidationReport]:
        """Case 4 at a marked original ``element``; ``None`` means valid.

        The node's checks are read from its record in the pair's kernel,
        as for an untouched node; ``source_type`` is ``None`` when the
        source assigns the element no type (a broken promise), whose
        record has no source knowledge.  Each live child is routed by
        its Δ-label and its mark: a marked one back here, an unmarked
        one to the Section 3.2 cast (case 1) with its action in this
        node's record, and an inserted one (case 3), or an unmarked one
        the source assigns no type, to full target validation.
        Tombstones (case 2) are skipped.
        """
        if depth > walk.max_depth:
            raise DocumentTooDeepError(
                f"element tree deeper than {walk.max_depth} levels"
            )
        if walk.deadline is not None:
            walk.deadline.tick()
        stats = walk.stats
        deltas = session._deltas
        if stats is not None:
            if id(element) in deltas:
                stats.deltas_seen += 1
            # Unlike the untouched case, subsumption of τ by τ' says
            # nothing about a modified subtree, so no skip here.
            stats.elements_visited += 1
        kernel = walk.kernel
        record = kernel.record(kernel.record_id(source_type, target_type))
        if element._attributes or record.has_attrs:
            violation = attribute_violation(
                kernel.target, record.target_decl, element
            )
            if violation:
                return ValidationReport.failure(
                    violation, path=str(element.dewey())
                )
        if record.kind == K_SIMPLE:
            return self._simple_value(session, record, element, stats)

        alphabet = kernel.target.alphabet
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
                        f"unexpected element {new!r} in content of "
                        f"{target_type!r}",
                        path=str(child.dewey()),
                    )
                new_labels.append(new)
                live.append(child)

        ids = self.pair.symbols.ids
        if record.kind == K_MACHINE and self.use_string_cast:
            # Section 4.3: the old string is known to be in L(regexp_τ).
            result = self.pair.string_cast(
                source_type, target_type
            ).validate_modified(old_labels, new_labels)
            if stats is not None:
                stats.content_symbols_scanned += result.symbols_scanned
                if result.decision.value.startswith("immediate"):
                    stats.early_content_decisions += 1
            accepted = result.accepted
        else:
            accepted = walk._content(record, [ids[new] for new in new_labels])
        if not accepted:
            return ValidationReport.failure(
                f"children of {element.label!r} do not match content "
                f"model {record.target_decl.content.to_source()} of "
                f"type {target_type!r}",
                path=str(element.dewey()),
            )

        marks = session._marked()
        target_children = record.target_decl.child_types
        source_children = None
        if record.kind == K_MACHINE:
            source_children = self.pair.source.type(source_type).child_types
        row = record.action
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
            if marked and old is not None:  # case 4
                failure = self._walk(
                    session, walk, child_source, child_target, child,
                    depth + 1,
                )
            elif child_source is not None:  # case 1
                sid = ids[new]
                failure = walk.visit(row[sid], child, depth + 1, record, sid)
            else:
                # Case 3 (inserted: only inserted nodes below, so the raw
                # subtree is the live one) or an untouched subtree with
                # no source knowledge: full target validation.
                failure = walk.validate_as(child_target, child, depth + 1)
            if failure is not None:
                return failure
        return None

    def _simple_value(
        self,
        session: UpdateSession,
        record: PairRecord,
        element: Element,
        stats: Optional[ValidationStats],
    ) -> Optional[ValidationReport]:
        """A simple target's value over the live children."""
        deltas = session._deltas
        declaration = record.simple_decl
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
        if not record.check(text):
            return ValidationReport.failure(
                f"value {text!r} does not conform to simple type "
                f"{declaration.name!r}",
                path=str(element.dewey()),
            )
        return None
