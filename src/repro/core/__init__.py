"""The paper's contribution: schema cast validation of XML documents,
with and without modifications, plus the DTD label-index optimization."""

from repro.core.cast import CastValidator
from repro.core.castmods import CastWithModificationsValidator
from repro.core.dtdcast import DTDCastValidator
from repro.core.repair import DocumentRepairer, RepairAction, RepairResult
from repro.core.result import ValidationReport, ValidationStats
from repro.core.updates import Delta, UpdateSession
from repro.core.validator import (
    validate_document,
    validate_element,
    validate_file,
    validate_root,
    validate_text,
)

__all__ = [
    "CastValidator",
    "CastWithModificationsValidator",
    "DTDCastValidator",
    "DocumentRepairer",
    "RepairAction",
    "RepairResult",
    "ValidationReport",
    "ValidationStats",
    "Delta",
    "UpdateSession",
    "validate_document",
    "validate_element",
    "validate_file",
    "validate_root",
    "validate_text",
]
