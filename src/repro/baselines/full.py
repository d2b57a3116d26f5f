"""Full-traversal validation baseline — the "unmodified Xerces" stand-in.

The paper's experiments compare the schema cast validator against an
unmodified Xerces 2.4, which validates every node of the DOM tree with
precompiled content-model automata.  :class:`FullValidator` plays that
role here: it builds the schema's kernel tables up front and then runs
the plain top-down validation of :mod:`repro.core.validator` over the
whole document, always counting, with the same tree walk and the same
counters as the cast, so node-visit comparisons (Table 3) are
apples-to-apples.
"""

from __future__ import annotations

from repro.core.result import ValidationReport
from repro.core.validator import validate_document
from repro.schema.model import Schema
from repro.xmltree.dom import Document


class FullValidator:
    """Validates documents against one schema by full traversal."""

    def __init__(self, schema: Schema):
        self.schema = schema
        # Precompile every reachable content model, as a production
        # validator (Xerces) does when the grammar is loaded: the kernel
        # records the walk reads.
        schema.kernel().warm()

    def validate(self, document: Document) -> ValidationReport:
        return validate_document(self.schema, document)
