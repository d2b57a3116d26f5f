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

Both schemas' decisions come from one place: a child's ``action[sid]``
in its parent's :class:`~repro.schema.pairkernel.PairRecord` says
skip, fail or descend.  :class:`CastValidator` runs the
:class:`~repro.core.validator.TreeWalk` over the pair's kernel, the
tables the text kernel reads, and allocates a report only on failure;
the Table-3 counters go into a :class:`ValidationStats` when there is
one, so ``collect_stats=False`` gives the same verdicts without them.

If the document is *not* valid under S (a broken promise), the verdict
may be wrong in either direction — same contract as the paper.

Text and files take no tree: :func:`cast_text` and :func:`cast_file`
run one pass of the fused kernel (:mod:`repro.core.castkernel`) over
the same relations.  :class:`CastValidator` serves documents that are
trees already (edit sessions, the cast with modifications, the
benchmark harness) and the batch driver's opt-in memo route.
"""

from __future__ import annotations

from typing import Optional

from repro.core import castkernel
from repro.core.memo import ValidationMemo
from repro.core.result import ValidationReport, ValidationStats
from repro.core.validator import TreeWalk, max_depth, validate_element
from repro.errors import XMLSyntaxError
from repro.guards import (
    Deadline,
    Limits,
    read_document,
    remaining_limits,
    resolve_limits,
)
from repro.schema.pairkernel import A_NO_SOURCE, A_NO_TARGET
from repro.schema.registry import SchemaPair
from repro.xmltree.dom import Document, Element


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
        if deadline is None:
            deadline = self.limits.deadline()
        action = self.pair.kernel().root_actions.get(root.label, A_NO_TARGET)
        if action == A_NO_TARGET:
            return ValidationReport.failure(
                f"label {root.label!r} is not a permitted root of the "
                "target schema"
            )
        if action == A_NO_SOURCE:
            # Promise violated at the root: no source knowledge to
            # exploit, so fall back to full (counted) target validation
            # under this validator's limits and deadline.
            return validate_element(
                self.pair.target, self.pair.target.root_type(root.label),
                root, limits=self.limits, deadline=deadline,
            )
        memo = self._memo
        memo_base = memo.snapshot() if memo is not None else None
        stats = ValidationStats() if self.collect_stats else None
        failure = self.walk(stats, deadline, interned).visit(action, root, 0)
        report = ValidationReport.success() if failure is None else failure
        if stats is not None:
            report.stats = stats
        if memo_base is not None:
            # The memo's counters span its lifetime (possibly many
            # documents): report this document's deltas.
            hits, misses, evictions = memo.snapshot()
            report.stats.memo_hits += hits - memo_base[0]
            report.stats.memo_misses += misses - memo_base[1]
            report.stats.memo_evictions += evictions - memo_base[2]
        return report

    def walk(
        self,
        stats: Optional[ValidationStats],
        deadline: Optional[Deadline],
        interned: bool,
    ) -> TreeWalk:
        """This cast's :class:`~repro.core.validator.TreeWalk` over the
        pair's kernel, counting into ``stats`` under ``deadline``; the
        cast with modifications hands its untouched subtrees to it."""
        return TreeWalk(
            self.pair.kernel(), stats, deadline, max_depth(self.limits),
            interned=interned, use_string_cast=self.use_string_cast,
            memo=self._memo,
        )


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
