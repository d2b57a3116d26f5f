"""Full-traversal validation baseline — the "unmodified Xerces" stand-in.

The paper's experiments compare the schema cast validator against an
unmodified Xerces 2.4, which validates every node of the DOM tree with
precompiled content-model automata.  :class:`FullValidator` plays that
role here: it compiles every content model up front and then runs the
plain top-down validation of :mod:`repro.core.validator` over the whole
document, always counting, on the same compiled tables and the same
counters as the cast, so node-visit comparisons (Table 3) are
apples-to-apples.
"""

from __future__ import annotations

from repro.core.result import ValidationReport
from repro.core.validator import validate_document
from repro.schema.model import ComplexType, Schema
from repro.xmltree.dom import Document


class FullValidator:
    """Validates documents against one schema by full traversal."""

    def __init__(self, schema: Schema):
        self.schema = schema
        # Precompile every content model, as a production validator
        # (Xerces) does when the grammar is loaded: the compiled rows
        # and child-type rows the walk reads.
        for type_name, declaration in schema.types.items():
            if isinstance(declaration, ComplexType):
                schema.compiled_content_dfa(type_name)
                schema.child_type_row(type_name)

    def validate(self, document: Document) -> ValidationReport:
        return validate_document(self.schema, document)
