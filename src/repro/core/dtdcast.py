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

Content checks run on the pair's compiled tables in both modes;
``collect_stats=True`` only adds the counters (the counted scan is
:meth:`~repro.automata.compiled.CompiledImmediate.scan`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.memo import ValidationMemo
from repro.core.result import ValidationReport, ValidationStats
from repro.errors import SchemaError
from repro.schema.dtd import is_dtd_schema, label_type
from repro.schema.model import ComplexType, SimpleType
from repro.schema.registry import SchemaPair
from repro.schema.simple import value_checker
from repro.xmltree.dom import Document, Element, Text


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
        memo: Optional[ValidationMemo] = None,
    ):
        if not is_dtd_schema(pair.source) or not is_dtd_schema(pair.target):
            raise SchemaError(
                "DTDCastValidator requires DTD-style schemas (one type "
                "per label); use CastValidator for general XML Schemas"
            )
        self.pair = pair
        self.use_string_cast = use_string_cast
        self.collect_stats = collect_stats
        #: Optional verdict cache shared with the general cast layer.
        #: Keys carry an ``"imm"`` discriminator because this validator
        #: only vouches for an element's *immediate* content, not the
        #: whole subtree — the two verdict kinds must never collide.
        self._memo = memo.bind(pair) if memo is not None else None
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
        memo_base = (
            self._memo.snapshot() if self._memo is not None else None
        )
        interned = document.symbols is self.pair.symbols
        report = self._validate_labels(document, stats, interned)
        if memo_base is not None:
            assert self._memo is not None
            hits, misses, evictions = self._memo.snapshot()
            report.stats.memo_hits += hits - memo_base[0]
            report.stats.memo_misses += misses - memo_base[1]
            report.stats.memo_evictions += evictions - memo_base[2]
        return report

    def _validate_labels(
        self,
        document: Document,
        stats: Optional[ValidationStats],
        interned: bool,
    ) -> ValidationReport:
        for label in self.fatal_labels:
            instances = document.elements_with_label(label)
            if instances:
                if stats is not None:
                    stats.disjoint_rejections += 1
                return ValidationReport.failure(
                    f"label {label!r} has disjoint source/target types",
                    path=str(instances[0].dewey()),
                    stats=stats,
                )
        for label in sorted(self.check_labels):
            source_type, target_type = self.label_pairs[label]
            for instance in document.elements_with_label(label):
                report = self._check_instance(
                    source_type, target_type, instance, stats, interned
                )
                if not report.valid:
                    return report
        if stats is not None:
            stats.subtrees_skipped += sum(
                len(document.elements_with_label(label))
                for label in self.skip_labels
            )
        return ValidationReport.success(stats)

    def _check_instance(
        self,
        source_type: str,
        target_type: str,
        element: Element,
        stats: Optional[ValidationStats],
        interned: bool = False,
    ) -> ValidationReport:
        """Verify one element's *immediate* content (no recursion —
        descendants are covered by their own labels' checks)."""
        memo = self._memo
        memo_key = None
        if memo is not None:
            memo_key = (
                source_type,
                target_type,
                element.structural_hash(),
                "imm",
            )
            if memo.contains(memo_key):
                return ValidationReport.success(stats)
        if stats is not None:
            stats.elements_visited += 1
        target_decl = self.pair.target.type(target_type)
        if element._attributes or (
            isinstance(target_decl, ComplexType) and target_decl.attributes
        ):
            from repro.core.validator import attribute_violation

            violation = attribute_violation(
                self.pair.target, target_decl, element
            )
            if violation:
                return ValidationReport.failure(
                    violation, path=str(element.dewey()), stats=stats
                )
        if isinstance(target_decl, SimpleType):
            if any(isinstance(child, Element) for child in element.children):
                return ValidationReport.failure(
                    f"simple type {target_decl.name!r} does not allow "
                    "child elements",
                    path=str(element.dewey()),
                    stats=stats,
                )
            if stats is not None:
                stats.simple_values_checked += 1
                stats.text_nodes_visited += sum(
                    1 for child in element.children if isinstance(child, Text)
                )
            text = element.text()
            if not value_checker(target_decl)(text):
                return ValidationReport.failure(
                    f"value {text!r} does not conform to simple type "
                    f"{target_decl.name!r}",
                    path=str(element.dewey()),
                    stats=stats,
                )
            if memo_key is not None:
                memo.add(memo_key)
            return ValidationReport.success(stats)
        assert isinstance(target_decl, ComplexType)
        # The child-label string, interned (``-1`` for unknown labels,
        # which the compiled tables reject).
        ids = self.pair.symbols.ids
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
                    stats=stats,
                )
            sid = child.sym if interned else -1
            if sid < 0:
                sid = ids.get(child._label, -1)
            syms.append(sid)
        string_cast = self.use_string_cast and isinstance(
            self.pair.source.type(source_type), ComplexType
        )
        if string_cast:
            machine = self.pair.string_cast(source_type, target_type)
            decided = machine.always_accepts or machine.never_accepts
            immed = machine.c_immed_compiled
        else:
            decided = False
            immed = self.pair.target_immed_compiled(target_type)
        if decided:
            if stats is not None:
                stats.early_content_decisions += 1
            accepted = machine.always_accepts
        elif stats is None:
            accepted = immed.decide(syms)
        else:
            accepted, scanned, early, _ = immed.scan(syms)
            stats.content_symbols_scanned += scanned
            if string_cast:
                # The plain mode counts no early decisions, like the
                # tree cast's plain target run.
                stats.early_content_decisions += early
        if not accepted:
            return ValidationReport.failure(
                f"children of {element.label!r} do not match content "
                f"model {target_decl.content.to_source()} of type "
                f"{target_type!r}",
                path=str(element.dewey()),
                stats=stats,
            )
        if memo_key is not None:
            memo.add(memo_key)
        return ValidationReport.success(stats)
