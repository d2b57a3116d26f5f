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
   <CastWithModificationsValidator._walk>` checks the node's content
   string under ``Proj_new`` against ``regexp_τ'`` — here the Section
   4.3 *string cast with modifications* applies, since the ``Proj_old``
   string is known to be in ``L(regexp_τ)`` — then routes each child by
   its Δ-label and its mark.

A node the source assigns no type (a broken promise) has no source
knowledge either: marked, it still goes to :meth:`_walk
<CastWithModificationsValidator._walk>`, which then checks its content
with a plain target scan; unmarked, it gets full target validation as
in case 3.

The walk enters only marked nodes (a touched node or an ancestor of
one).  At each of them a child costs one Δ lookup, which gives both
projections, and one mark lookup; an unmarked child goes straight to
the Section 3.2 cast, so it costs what it costs there.  Like the tree
walk, this one returns ``None`` on success and allocates a report only
on failure.  A rejection's Dewey path is reported in the edited
document (:meth:`UpdateSession.live_path
<repro.core.updates.UpdateSession.live_path>`), where full
revalidation of :meth:`~repro.core.updates.UpdateSession
.result_document` reports it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cast import CastValidator
from repro.core.memo import ValidationMemo
from repro.core.result import ValidationReport, ValidationStats
from repro.core.updates import UpdateSession
from repro.core.validator import TreeWalk, attribute_violation
from repro.errors import DocumentTooDeepError
from repro.guards import Limits, resolve_limits
from repro.schema.model import ComplexType, SimpleType
from repro.schema.registry import SchemaPair
from repro.schema.simple import value_checker
from repro.xmltree.dom import Element, Text


class CastWithModificationsValidator:
    """Revalidates an edited, originally S-valid document against S'.

    Two walks serve the four cases of Section 3.3: the tree walk over
    kernel records (case 1, untouched subtrees, on the pair's kernel;
    case 3, inserted subtrees, on the target's) and :meth:`_walk`
    (case 4, marked original nodes); a deleted node (case 2) is
    skipped.  ``collect_stats=False`` runs the same walks with the
    counters left out.  All of them check content on the compiled dense
    tables, except the Section 4.3 string cast with modifications
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
        # The memo only ever serves case 1 (untouched subtrees, walked
        # by the embedded cast) — modified subtrees never reach it, and
        # the update session invalidates structural hashes along every
        # Δ's Dewey path, so stale fingerprints cannot survive.
        self._cast = CastValidator(
            pair,
            use_string_cast=use_string_cast,
            collect_stats=collect_stats,
            limits=self.limits,
            memo=memo,
        )

    def validate(self, session: UpdateSession) -> ValidationReport:
        cast = self._cast
        memo = cast._memo
        memo_base = memo.snapshot() if memo is not None else None
        report = self._validate_session(session)
        cast._fill_memo_stats(memo_base, report.stats)
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
                f"label {new_label!r} is not a permitted root of the "
                "target schema"
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

        ``source_type`` is ``None`` when the source assigns the element
        no type (a broken promise); its content then gets the plain
        target scan, as under a simple source type.  Each live child is
        routed by its Δ-label and its mark: a marked one back here, an
        unmarked one to the Section 3.2 cast (case 1) with its action
        in this node's pair record, and an inserted one (case 3), or an
        unmarked one the source assigns no type, to full target
        validation.  Tombstones (case 2) are skipped.
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
        target = self.pair.target
        target_decl = target.type(target_type)
        violation = attribute_violation(target, target_decl, element)
        if violation:
            return ValidationReport.failure(
                violation, path=str(element.dewey())
            )
        if isinstance(target_decl, SimpleType):
            return self._simple_value(session, target_decl, element, stats)
        assert isinstance(target_decl, ComplexType)

        alphabet = target.alphabet
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

        source_children = None
        if source_type is not None:
            source_decl = self.pair.source.type(source_type)
            if isinstance(source_decl, ComplexType):
                source_children = source_decl.child_types
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
        ids = self.pair.symbols.ids
        record = None  # this node's pair record, for its unmarked children
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
                if record is None:
                    kernel = walk.kernel
                    record = kernel.record(
                        kernel.record_id(source_type, target_type)
                    )
                sid = ids[new]
                failure = walk.visit(
                    record.action[sid], child, depth + 1, record, sid
                )
            else:
                # Case 3 (inserted: only inserted nodes below, so the raw
                # subtree is the live one) or an untouched subtree with
                # no source knowledge: full target validation.
                failure = walk.validate_as(child_target, child, depth + 1)
            if failure is not None:
                return failure
        return None

    # -- content and simple-value checks ----------------------------------------

    def _content_accepts(
        self,
        source_type: Optional[str],
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
