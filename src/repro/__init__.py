"""repro — Efficient Schema-Based Revalidation of XML (EDBT 2004).

A from-scratch reproduction of Raghavachari & Shmueli's schema cast
validation system: abstract XML Schemas, subsumption/disjointness
precomputation, immediate decision automata, and cast validators for
documents and strings, with and without modifications.

Quickstart::

    from repro import SchemaPair, CastValidator, parse_xsd, parse

    source = parse_xsd(open("v1.xsd").read())
    target = parse_xsd(open("v2.xsd").read())
    pair = SchemaPair(source, target)       # static preprocessing
    validator = CastValidator(pair)
    report = validator.validate(parse(open("doc.xml").read()))
    print(report.valid, report.stats.nodes_visited)
"""

from repro.automata import (
    DFA,
    Decision,
    ImmediateDecisionAutomaton,
    NFA,
    Strategy,
    StringCastValidator,
    StringUpdateRevalidator,
)
from repro.core import (
    CastValidator,
    CastWithModificationsValidator,
    DTDCastValidator,
    DocumentRepairer,
    UpdateSession,
    ValidationReport,
    ValidationStats,
    validate_document,
    validate_text,
)
from repro.dewey import Dewey, DeweyTrie
from repro.errors import (
    BatchError,
    DeadlineExceededError,
    DocumentTooDeepError,
    DocumentTooLargeError,
    EntityExpansionError,
    ReproError,
    ResourceLimitError,
    SchemaError,
    StateBudgetExceededError,
    ValidationError,
    XMLSyntaxError,
)
from repro.guards import (
    DEFAULT_LIMITS,
    UNLIMITED,
    Deadline,
    Limits,
    limits_scope,
)
from repro.schema import (
    ComplexType,
    Schema,
    SchemaPair,
    SimpleType,
    builtin,
    complex_type,
    dtd_schema,
    parse_dtd,
    parse_xsd,
    parse_xsd_file,
    restrict,
)
from repro.xmltree import Document, Element, Text, element, parse, serialize

__version__ = "1.0.0"

__all__ = [
    "DFA",
    "Decision",
    "ImmediateDecisionAutomaton",
    "NFA",
    "Strategy",
    "StringCastValidator",
    "StringUpdateRevalidator",
    "CastValidator",
    "CastWithModificationsValidator",
    "DTDCastValidator",
    "DocumentRepairer",
    "UpdateSession",
    "ValidationReport",
    "ValidationStats",
    "validate_document",
    "validate_text",
    "Dewey",
    "DeweyTrie",
    "BatchError",
    "DeadlineExceededError",
    "DocumentTooDeepError",
    "DocumentTooLargeError",
    "EntityExpansionError",
    "ReproError",
    "ResourceLimitError",
    "SchemaError",
    "StateBudgetExceededError",
    "ValidationError",
    "XMLSyntaxError",
    "DEFAULT_LIMITS",
    "UNLIMITED",
    "Deadline",
    "Limits",
    "limits_scope",
    "ComplexType",
    "Schema",
    "SchemaPair",
    "SimpleType",
    "builtin",
    "complex_type",
    "dtd_schema",
    "parse_dtd",
    "parse_xsd",
    "parse_xsd_file",
    "restrict",
    "Document",
    "Element",
    "Text",
    "element",
    "parse",
    "serialize",
    "__version__",
]
