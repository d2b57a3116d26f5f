"""DTD-mode schema cast with a label index (Section 3.4).

For DTDs an element label determines its type, so the parallel top-down
traversal is unnecessary: with direct access to all instances of a label
(the :meth:`Document.elements_with_label` index), one only visits
elements whose label's (source type, target type) pair is *neither
subsumed nor disjoint*, and verifies just their immediate content
models.  Labels with subsumed pairs contribute nothing; labels with
disjoint pairs make the document invalid the moment one instance exists.

The traversal order is by label, not document order — sound because
target-validity of a tree decomposes into independent per-node content
checks once types are label-determined.

Each instance of a checked label gets the per-node checks every tree
walk runs (:meth:`TreeWalk.check <repro.core.validator.TreeWalk.check>`)
against its label's record in the pair's kernel: the attribute gate,
the simple value, or the child-label string and its content table.
``collect_stats=False`` only leaves the counters out.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.core.result import ValidationReport, ValidationStats
from repro.core.validator import TreeWalk
from repro.errors import SchemaError
from repro.schema.dtd import is_dtd_schema, label_type
from repro.schema.registry import SchemaPair
from repro.xmltree.dom import Document


class DTDCastValidator:
    """Label-indexed schema cast for DTD pairs.

    The per-label classification (skip / fail / check) is computed once
    at construction — it depends only on the schemas.
    """

    def __init__(
        self,
        pair: SchemaPair,
        *,
        use_string_cast: bool = True,
        collect_stats: bool = True,
    ):
        if not is_dtd_schema(pair.source) or not is_dtd_schema(pair.target):
            raise SchemaError(
                "DTDCastValidator requires DTD-style schemas (one type "
                "per label); use CastValidator for general XML Schemas"
            )
        self.pair = pair
        self.use_string_cast = use_string_cast
        self.collect_stats = collect_stats
        #: label → (source type, target type) for labels known to both.
        self.label_pairs: dict[str, tuple[str, str]] = {}
        #: labels whose pair needs a per-instance content check.
        self.check_labels: set[str] = set()
        #: labels whose pair is disjoint — any instance is fatal.
        self.fatal_labels: set[str] = set()
        #: labels whose pair is subsumed — never visited.
        self.skip_labels: set[str] = set()
        self._classify()

    def _classify(self) -> None:
        labels = self.pair.source.alphabet | self.pair.target.alphabet
        for label in labels:
            source_type = label_type(self.pair.source, label)
            target_type = label_type(self.pair.target, label)
            if source_type is None or target_type is None:
                continue  # occurrences are caught by the parent's check
            self.label_pairs[label] = (source_type, target_type)
            if self.pair.is_subsumed(source_type, target_type):
                self.skip_labels.add(label)
            elif self.pair.is_disjoint(source_type, target_type):
                self.fatal_labels.add(label)
            else:
                self.check_labels.add(label)

    # -- validation --------------------------------------------------------

    def validate(self, document: Document) -> ValidationReport:
        """Decide target-validity of a source-valid document using only
        the label index."""
        stats = ValidationStats() if self.collect_stats else None
        root_label = document.root.label
        if self.pair.target.root_type(root_label) is None:
            return ValidationReport.failure(
                f"label {root_label!r} is not a permitted root of the "
                "target schema",
                stats=stats,
            )
        report = self._validate_labels(document, stats)
        if stats is not None:
            report.stats = stats
        return report

    def _validate_labels(
        self, document: Document, stats: Optional[ValidationStats]
    ) -> ValidationReport:
        # Labels in sorted order, so the reported label does not move
        # with the hash seed.
        for label in sorted(self.fatal_labels):
            instances = document.elements_with_label(label)
            if instances:
                if stats is not None:
                    stats.disjoint_rejections += 1
                return ValidationReport.failure(
                    f"label {label!r} has disjoint source/target types",
                    path=str(instances[0].dewey()),
                )
        kernel = self.pair.kernel()
        walk = TreeWalk(
            kernel, stats, None, sys.maxsize,
            interned=document.symbols is self.pair.symbols,
            use_string_cast=self.use_string_cast,
        )
        for label in sorted(self.check_labels):
            # Only the instance's own checks: its descendants are
            # covered by their own labels.
            record = kernel.record(kernel.record_id(*self.label_pairs[label]))
            for instance in document.elements_with_label(label):
                failure = walk.check(record, instance, [])
                if failure is not None:
                    return failure
        if stats is not None:
            stats.subtrees_skipped += sum(
                len(document.elements_with_label(label))
                for label in self.skip_labels
            )
        return ValidationReport.success()
