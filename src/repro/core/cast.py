"""Schema cast validation without modifications (Section 3.2).

Given a :class:`~repro.schema.registry.SchemaPair` (the static
preprocessing of source schema S and target schema S') and a document
known valid under S, :class:`CastValidator` decides validity under S' by
validating against both schemas in parallel:

* subtree under a subsumed pair ``τ ≤ τ'`` → **skip** (valid by
  Definition 2);
* subtree under a disjoint pair ``τ ⊘ τ'`` → **fail immediately**
  (Definition 3);
* otherwise verify the node's content against ``regexp_τ'`` — by
  default with the Section 4 pair immediate-decision automaton, which
  may stop scanning the child-label string early — and recurse into the
  children under the child-type pairs.

``use_string_cast=False`` reverts the content check to a plain run of
the target content DFA, matching the paper's modified-Xerces prototype
("we do not use the algorithms of Section 4 ... to perform a fair
comparison"); benchmarks exercise both configurations.

One traversal serves both modes.  It runs the compiled dense-table
automata of :mod:`repro.automata.compiled` (interned labels, flat-row
scans) and allocates a :class:`ValidationReport` only on failure; the
Table-3 counters go into a :class:`ValidationStats` when there is one,
each behind a ``stats is not None`` test, so ``collect_stats=False``
costs one comparison per count and nothing else.  Verdicts are
identical in both modes; only the stats mode reports counters.

If the document is *not* valid under S (a broken promise), the verdict
may be wrong in either direction — same contract as the paper.

Text and files take no tree: :func:`cast_text` and :func:`cast_file`
run one pass of the fused kernel (:mod:`repro.core.castkernel`) over
the same relations.  :class:`CastValidator` serves documents that are
trees already (edit sessions, the cast with modifications, the
benchmark harness) and the batch driver's opt-in memo route.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.core import castkernel
from repro.core.memo import ValidationMemo
from repro.core.result import ValidationReport, ValidationStats
from repro.core.validator import _walk as _validate_subtree
from repro.core.validator import attribute_violation, validate_element
from repro.errors import DocumentTooDeepError, XMLSyntaxError
from repro.guards import (
    Deadline,
    Limits,
    read_document,
    remaining_limits,
    resolve_limits,
)
from repro.schema.model import ComplexType, SimpleType
from repro.schema.registry import SchemaPair
from repro.schema.simple import value_checker
from repro.xmltree.dom import Document, Element, Text


class CastValidator:
    """Revalidates S-valid documents against S' using R_sub/R_dis.

    ``limits`` (ambient defaults when ``None``) guards the traversal:
    element nesting is depth-bounded (documents from the guarded parser
    already satisfy it, but programmatically built trees may not) and
    each validated document may carry a wall-clock deadline.  With the
    default limits both guards cost one comparison per element.
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
        #: Optional verdict cache: a subtree whose ``(source type,
        #: target type, structural hash)`` already validated is skipped
        #: like a subsumed pair.  Bound to ``pair`` so one memo cannot
        #: serve two different schema pairs.
        self._memo = memo.bind(pair) if memo is not None else None
        self.limits = resolve_limits(limits)
        self._max_depth = (
            self.limits.max_tree_depth
            if self.limits.max_tree_depth is not None
            else sys.maxsize
        )
        self._deadline: Optional[Deadline] = None
        self._interned = False

    # -- entry points -----------------------------------------------------

    def validate(
        self, document: Document, *, deadline: Optional[Deadline] = None
    ) -> ValidationReport:
        """Decide target-validity of a source-valid document.

        ``deadline`` lets a caller (the batch driver) share one token
        across parse and validation; otherwise a fresh one is started
        from ``limits.deadline_seconds`` (``None`` → no deadline).

        A document lexed against this pair's symbol table
        (``parse(..., symbols=pair.symbols)``) is walked on the
        interned ``Element.sym`` ids — no per-node string hashing.
        """
        return self.validate_root(
            document.root,
            deadline=deadline,
            interned=document.symbols is self.pair.symbols,
        )

    def validate_root(
        self,
        root: Element,
        *,
        deadline: Optional[Deadline] = None,
        interned: bool = False,
    ) -> ValidationReport:
        self._deadline = (
            deadline if deadline is not None else self.limits.deadline()
        )
        self._interned = interned
        target_type = self.pair.target.root_type(root.label)
        if target_type is None:
            return ValidationReport.failure(
                f"label {root.label!r} is not a permitted root of the "
                "target schema"
            )
        source_type = self.pair.source.root_type(root.label)
        if source_type is None:
            # Promise violated at the root: no source knowledge to
            # exploit, so fall back to full (counted) target validation
            # under this validator's limits and deadline.
            return validate_element(
                self.pair.target, target_type, root,
                limits=self.limits, deadline=self._deadline,
            )
        memo_base = (
            self._memo.snapshot() if self._memo is not None else None
        )
        stats = ValidationStats() if self.collect_stats else None
        failure = self._walk(source_type, target_type, root, stats)
        report = ValidationReport.success() if failure is None else failure
        if stats is not None:
            report.stats = stats
        self._fill_memo_stats(memo_base, report.stats)
        return report

    def _fill_memo_stats(
        self,
        base: Optional[tuple[int, int, int]],
        stats: ValidationStats,
    ) -> None:
        """Report this run's memo activity as per-document deltas (the
        memo's own counters span its lifetime, possibly many documents)."""
        if base is None:
            return
        assert self._memo is not None
        hits, misses, evictions = self._memo.snapshot()
        stats.memo_hits += hits - base[0]
        stats.memo_misses += misses - base[1]
        stats.memo_evictions += evictions - base[2]

    # -- the parallel traversal ------------------------------------------------

    def _walk(
        self,
        source_type: str,
        target_type: str,
        element: Element,
        stats: Optional[ValidationStats],
        depth: int = 0,
    ) -> Optional[ValidationReport]:
        """The paper's ``validate(τ, τ', e)`` on the compiled tables:
        ``None`` means the subtree is valid, a report is the first
        failure — success allocates nothing on the way up.  Counters go
        to ``stats`` unless it is ``None``.  The cast with modifications
        hands its untouched subtrees straight here."""
        if depth > self._max_depth:
            raise DocumentTooDeepError(
                f"element tree deeper than {self._max_depth} levels"
            )
        deadline = self._deadline
        if deadline is not None:
            deadline.tick()
        pair = self.pair
        if (source_type, target_type) in pair.r_sub:
            if stats is not None:
                stats.subtrees_skipped += 1
            return None
        if (source_type, target_type) not in pair.r_nondis:
            if stats is not None:
                stats.disjoint_rejections += 1
            return ValidationReport.failure(
                f"source type {source_type!r} is disjoint from target "
                f"type {target_type!r}",
                path=str(element.dewey()),
            )
        memo = self._memo
        memo_key = None
        if memo is not None:
            memo_key = (source_type, target_type, element.structural_hash())
            if memo.contains(memo_key):
                # A structurally identical subtree already validated
                # under this pair: skip it like a subsumed pair.
                return None
        if stats is not None:
            stats.elements_visited += 1
        target_decl = pair.target.types[target_type]
        if element._attributes or (
            isinstance(target_decl, ComplexType) and target_decl.attributes
        ):
            violation = attribute_violation(pair.target, target_decl, element)
            if violation:
                return ValidationReport.failure(
                    violation, path=str(element.dewey())
                )
        if isinstance(target_decl, SimpleType):
            # Disjointness already ruled out a complex source type here.
            failure = self._simple(target_decl, element, stats)
            if failure is None and memo_key is not None:
                memo.add(memo_key)
            return failure
        # One pass interns the child-label string: parsed-in ``sym`` ids
        # when the document shares the pair's table, dict lookups
        # otherwise (and for post-parse insertions, whose sym is -1).
        interned = self._interned
        ids = pair.symbols.ids
        syms: list[int] = []
        for child in element.children:
            if isinstance(child, Text):
                if child.value.strip() == "":
                    continue
                if stats is not None:
                    stats.text_nodes_visited += 1
                return ValidationReport.failure(
                    f"complex type {target_type!r} does not allow "
                    "character data",
                    path=str(child.dewey()),
                )
            sid = child.sym if interned else -1
            if sid < 0:
                sid = ids.get(child._label, -1)
            syms.append(sid)

        if not self._content(source_type, target_type, syms, stats):
            return ValidationReport.failure(
                f"children of {element.label!r} do not match content "
                f"model {target_decl.content.to_source()} of type "
                f"{target_type!r}",
                path=str(element.dewey()),
            )
        source_decl = pair.source.types[source_type]
        if not isinstance(source_decl, ComplexType):
            # Simple-source element casting to a complex target: no
            # source knowledge below, so any element children (a broken
            # promise) get full target validation under the same guards.
            for child in element.children:
                if not isinstance(child, Text):
                    failure = _validate_subtree(
                        pair.target,
                        target_decl.child_types[child.label],
                        child,
                        stats,
                        depth + 1,
                        self._max_depth,
                        deadline,
                        False,
                    )
                    if failure is not None:
                        return failure
            if memo_key is not None:
                memo.add(memo_key)
            return None
        source_row = pair.source_child_row(source_type)
        target_row = pair.target_child_row(target_type)
        position = 0
        for child in element.children:
            if isinstance(child, Text):
                continue
            sid = syms[position]
            position += 1
            if sid >= 0:
                child_source = source_row[sid]
                child_target = target_row[sid]
            else:
                child_source = child_target = None
            if child_source is None or child_target is None:
                # Unreachable when both content checks held; defensive.
                return ValidationReport.failure(
                    f"no type assigned to label {child.label!r}",
                    path=str(child.dewey()),
                )
            failure = self._walk(
                child_source, child_target, child, stats, depth + 1
            )
            if failure is not None:
                return failure
        if memo_key is not None:
            memo.add(memo_key)
        return None

    # -- content helpers -----------------------------------------------------

    def _content(
        self,
        source_type: str,
        target_type: str,
        syms: list[int],
        stats: Optional[ValidationStats],
    ) -> bool:
        """Is the interned child-label string (``-1`` entries reject) in
        ``L(regexp_τ')``?

        With string casting enabled the scan may stop early (immediate
        accept/reject); either way only the symbols actually consumed
        are counted.
        """
        pair = self.pair
        if self.use_string_cast and isinstance(
            pair.source.types[source_type], ComplexType
        ):
            machine = pair.string_cast(source_type, target_type)
            if machine.always_accepts or machine.never_accepts:
                # Content languages in the subsumption (or disjointness)
                # relation: every promised child string is decided with
                # zero scanning.
                if stats is not None:
                    stats.early_content_decisions += 1
                return machine.always_accepts
            compiled = machine.c_immed_compiled
            assert compiled is not None  # pair-built machines always compile
            if stats is None:
                return compiled.decide(syms)
            accepted, scanned, early, _ = compiled.scan(syms)
            stats.content_symbols_scanned += scanned
            stats.early_content_decisions += early
            return accepted
        content = pair.target_content(target_type)
        if stats is None:
            return content.accepts(syms)
        # The paper prototype's plain DFA run: no early decisions, and a
        # label outside the target alphabet is consumed, then rejected.
        flat = content.flat
        width = content.width
        state = content.start
        for sid in syms:
            stats.content_symbols_scanned += 1
            state = flat[state * width + sid] if sid >= 0 else -1
            if state < 0:
                return False
        return bool(content.flags[state] & 1)

    def _simple(
        self,
        declaration: SimpleType,
        element: Element,
        stats: Optional[ValidationStats],
    ) -> Optional[ValidationReport]:
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


def cast_text(
    pair: SchemaPair,
    text: str,
    *,
    limits: Optional[Limits] = None,
    stream_skip: bool = True,
    trusted: bool = False,
) -> ValidationReport:
    """DOM-free schema cast of raw XML text.

    One fused pass of :func:`repro.core.castkernel.run` parses and
    cast-validates together.  A subsumed subtree is never validated:
    the kernel drains it with every well-formedness check, so the
    verdict equals ``CastValidator(pair).validate(parse(text))`` and
    malformed input becomes a ``not well-formed`` failure report.
    ``trusted=True`` byte-searches past subsumed subtrees instead,
    assuming the document is well-formed (the paper's source-validity
    premise); ``stream_skip=False`` turns that search off again.
    """
    try:
        return castkernel.run(
            pair.kernel(), resolve_limits(limits), text,
            stream_skip and trusted,
        )
    except XMLSyntaxError as error:
        return ValidationReport.failure(f"not well-formed: {error}")


def cast_file(
    pair: SchemaPair,
    path: str,
    *,
    limits: Optional[Limits] = None,
    trusted: bool = False,
) -> ValidationReport:
    """Cast the document file at ``path``: the one file cast behind
    ``repro cast FILE|DIR``, :func:`repro.core.batch.validate_batch`
    and fleet workers.

    The file is size-checked before it is read, and one deadline
    covers the read and the fused kernel pass (subsumed subtrees
    drained, or byte-searched past with ``trusted=True``, as in
    :func:`cast_text`).  Unlike :func:`cast_text`, a malformed document
    raises :class:`~repro.errors.XMLSyntaxError`, as limit and
    deadline trips raise their typed errors.  The kernel stops at its
    first failure, so a document rejected before a later syntax error
    is answered with the rejection: such a document breaks the source
    promise, and either answer keeps the paper's contract.
    """
    limits = resolve_limits(limits)
    deadline = limits.deadline()
    text = read_document(path, limits)
    return castkernel.run(
        pair.kernel(), remaining_limits(limits, deadline), text, trusted
    )
