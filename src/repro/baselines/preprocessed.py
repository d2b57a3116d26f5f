"""Document-preprocessing incremental validator (related-work baseline).

The incremental-validation line of work the paper contrasts itself with
(Papakonstantinou–Vianu [17], Barbosa et al. [3]) *preprocesses the
document*: validation state is attached to every tree node so that later
updates can be rechecked locally.  The trade-off the paper highlights is
memory proportional to the document (and preprocessing time on first
contact), against the schema-cast approach whose state depends only on
the schemas.

:class:`PreprocessedIncrementalValidator` is a faithful, simplified
representative of that family for the *single-schema* update problem:

* :meth:`preprocess` annotates every element with its assigned type
  (types are unique per position in our schema model, so this is the
  analogue of storing the validation computation);
* update operations recheck only the affected parent's content model
  and the updated node, using the stored type annotations;
* :meth:`memory_cells` exposes the annotation-store size, which the A5
  ablation benchmark reports against document size.

It only supports revalidation against the *same* schema — exactly the
limitation the paper points out in related work.
"""

from __future__ import annotations

from typing import Optional

from repro.core.result import ValidationReport, ValidationStats
from repro.core.validator import validate_document
from repro.errors import UpdateError
from repro.schema.model import ComplexType, Schema, SimpleType
from repro.schema.simple import value_checker
from repro.xmltree.dom import Document, Element, Text


class PreprocessedIncrementalValidator:
    """Single-schema incremental validator with per-node annotations."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._types: dict[int, str] = {}
        self._pinned: dict[int, Element] = {}
        self.document: Optional[Document] = None

    # -- preprocessing -----------------------------------------------------

    def preprocess(self, document: Document) -> ValidationReport:
        """Validate fully and annotate every element with its type.

        Must be called before any update; the annotations are the
        document-proportional state the paper's approach avoids.
        """
        report = validate_document(self.schema, document)
        if not report.valid:
            return report
        self.document = document
        self._types.clear()
        self._pinned.clear()
        root_type = self.schema.root_type(document.root.label)
        assert root_type is not None
        self._annotate(document.root, root_type)
        return report

    def _annotate(self, element: Element, type_name: str) -> None:
        self._types[id(element)] = type_name
        self._pinned[id(element)] = element
        declaration = self.schema.type(type_name)
        if not isinstance(declaration, ComplexType):
            return
        for child in element.children:
            if isinstance(child, Element):
                self._annotate(child, declaration.child_types[child.label])

    def memory_cells(self) -> int:
        """Number of per-node annotation entries held (≈ document size)."""
        return len(self._types)

    # -- incremental updates -------------------------------------------------

    def rename(self, element: Element, new_label: str) -> ValidationReport:
        """Relabel an element and recheck the affected neighbourhood."""
        self._require_ready(element)
        element.label = new_label
        report = self._recheck_parent(element)
        if not report.valid:
            return report
        # The node's type may have changed with its label; revalidate the
        # subtree under the newly assigned type and refresh annotations.
        new_type = self._assigned_type(element)
        if new_type is None:
            return ValidationReport.failure(
                f"label {new_label!r} has no type here",
                path=str(element.dewey()),
            )
        from repro.core.validator import validate_element

        subtree = validate_element(self.schema, new_type, element)
        if subtree.valid:
            self._annotate(element, new_type)
        return subtree

    def insert_element(
        self, parent: Element, position: int, label: str
    ) -> ValidationReport:
        self._require_ready(parent)
        node = Element(label)
        parent.insert(position, node)
        report = self._recheck_parent_of(parent, node)
        if not report.valid:
            return report
        new_type = self._assigned_type(node)
        assert new_type is not None  # parent content check passed
        from repro.core.validator import validate_element

        subtree = validate_element(self.schema, new_type, node)
        if subtree.valid:
            self._annotate(node, new_type)
        return subtree

    def delete(self, node: Element | Text) -> ValidationReport:
        self._require_ready(node)
        if isinstance(node, Element) and node.children:
            raise UpdateError("only leaf nodes may be deleted")
        parent = node.parent
        if parent is None:
            raise UpdateError("cannot delete the root")
        parent.remove(node)
        self._types.pop(id(node), None)
        self._pinned.pop(id(node), None)
        return self._recheck(parent)

    # -- internals ------------------------------------------------------------

    def _require_ready(self, node) -> None:
        if self.document is None:
            raise UpdateError("preprocess() a document first")

    def _assigned_type(self, element: Element) -> Optional[str]:
        parent = element.parent
        if parent is None:
            return self.schema.root_type(element.label)
        parent_type = self._types.get(id(parent))
        if parent_type is None:
            return None
        declaration = self.schema.type(parent_type)
        if isinstance(declaration, ComplexType):
            return declaration.child_types.get(element.label)
        return None

    def _recheck_parent(self, element: Element) -> ValidationReport:
        parent = element.parent
        if parent is None:
            if self.schema.root_type(element.label) is None:
                return ValidationReport.failure(
                    f"label {element.label!r} is not a permitted root"
                )
            return ValidationReport.success()
        return self._recheck(parent)

    def _recheck_parent_of(
        self, parent: Element, _child
    ) -> ValidationReport:
        return self._recheck(parent)

    def _recheck(self, element: Element) -> ValidationReport:
        """Recheck one element's immediate content model using its stored
        type annotation — the local work incremental validation does."""
        stats = ValidationStats()
        type_name = self._types.get(id(element))
        if type_name is None:
            return ValidationReport.failure(
                "no annotation for the updated node's parent",
                path=str(element.dewey()),
            )
        declaration = self.schema.type(type_name)
        stats.elements_visited += 1
        if isinstance(declaration, SimpleType):
            stats.simple_values_checked += 1
            if not value_checker(declaration)(element.text()):
                return ValidationReport.failure(
                    "text no longer conforms",
                    path=str(element.dewey()),
                    stats=stats,
                )
            return ValidationReport.success(stats)
        compiled = self.schema.compiled_content_dfa(type_name)
        ids = self.schema.symbols.ids
        state = compiled.start
        for child in element.children:
            if isinstance(child, Text):
                if child.value.strip() == "":
                    continue
                return ValidationReport.failure(
                    "character data in element content",
                    path=str(element.dewey()),
                    stats=stats,
                )
            sid = ids.get(child.label, -1)
            if sid < 0:
                return ValidationReport.failure(
                    f"unexpected element {child.label!r}",
                    path=str(child.dewey()),
                    stats=stats,
                )
            state = compiled.flat[state * compiled.width + sid]
            stats.content_symbols_scanned += 1
        if not compiled.flags[state] & 1:
            return ValidationReport.failure(
                "content model violated after update",
                path=str(element.dewey()),
                stats=stats,
            )
        return ValidationReport.success(stats)
