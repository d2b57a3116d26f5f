"""Structured JSON diagnostics and the error → HTTP status contract.

One diagnostic shape serves every consumer — the HTTP service, the CLI,
and the batch driver's ``DocumentResult`` — and it is deliberately the
shape a CodeMirror-lint client consumes: ``message``, 1-based
``line``/``column`` where known, the Dewey ``path`` of the offending
node where known, a stable machine ``code``, and a ``severity``.

The status mapping is the "no bare 500" guarantee: every class in the
``ReproError`` taxonomy — pipeline and service branches alike — resolves
to a deliberate status code, and anything outside the taxonomy (a bug)
collapses to a *structured* 500 with code ``internal`` rather than a
traceback.  Adversarial input therefore cannot produce an unmapped
response: oversized → 413, slow/expired → 408, depth/entity/state
blowups → 422, malformed envelope or document → 400, unknown pair →
404, bursts → 429, overload/drain → 503.  Requests the stdlib HTTP
parser refuses answer in the same shape: an unsupported verb → 405,
a malformed or oversized request line or header block → its stdlib
status (400, 414, 431) with code ``bad-request``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.result import ValidationReport
from repro.errors import (
    INTERNAL_CODE,
    ChainMismatchError,
    DeadlineExceededError,
    DocumentTooLargeError,
    ReproError,
    ResourceLimitError,
    SchemaError,
    UnsafeUpdateProgramError,
    UpdateError,
    XMLSyntaxError,
    error_code,
)
from repro.service.errors import (
    LengthRequiredError,
    MalformedRequestError,
    MethodNotAllowedError,
    NotReadyError,
    OverloadedError,
    PairConflictError,
    RateLimitedError,
    RequestTimeoutError,
    ServiceError,
    UnknownPairError,
    UnknownRouteError,
)

__all__ = [
    "diagnostic",
    "diagnostics_from_error",
    "error_payload",
    "http_status",
    "report_payload",
    "retry_after",
]

#: Ordered (class, status) table; first ``isinstance`` match wins, so
#: subclasses must precede their bases.  Every ``ReproError`` ends on
#: the final catch-all row — the taxonomy can grow without a KeyError.
_STATUS_TABLE: tuple[tuple[type, int], ...] = (
    # Resource limits: the three that describe the *request* get their
    # own statuses; the rest are unprocessable content.
    (DocumentTooLargeError, 413),
    (DeadlineExceededError, 408),
    (ResourceLimitError, 422),
    # Service-contract errors.
    (RequestTimeoutError, 408),
    (LengthRequiredError, 411),
    (UnknownPairError, 404),
    (UnknownRouteError, 404),
    (MethodNotAllowedError, 405),
    (PairConflictError, 409),
    (RateLimitedError, 429),
    (NotReadyError, 503),
    (OverloadedError, 503),  # covers DrainingError
    (MalformedRequestError, 400),  # covers TruncatedBodyError
    (ServiceError, 400),
    # Pipeline errors surfaced by a posted document or mod list.
    (XMLSyntaxError, 400),
    (UpdateError, 400),
    # Evolution-chain contract: a chain operation against a non-chain
    # pair (or a malformed chain) is a client addressing mistake; a
    # program that fails a ``require_safe`` demand is well-formed but
    # unprocessable under that pair.
    (ChainMismatchError, 400),
    (UnsafeUpdateProgramError, 422),
    # A schema problem is a *server-side* misconfiguration: the client
    # cannot fix it by changing the request.
    (SchemaError, 500),
    (ReproError, 400),
)


def http_status(error: BaseException) -> int:
    """The deliberate HTTP status for any exception (500 for bugs)."""
    for cls, status in _STATUS_TABLE:
        if isinstance(error, cls):
            return status
    return 500


def retry_after(error: BaseException) -> Optional[float]:
    """The ``Retry-After`` hint an admission rejection carries."""
    value = getattr(error, "retry_after", None)
    return float(value) if value is not None else None


def diagnostic(
    message: str,
    code: str,
    *,
    line: int = 0,
    column: int = 0,
    path: str = "",
    severity: str = "error",
) -> dict:
    """One lint-style diagnostic; zero/empty positions are omitted."""
    data: dict = {"message": message, "code": code, "severity": severity}
    if line:
        data["line"] = line
        data["column"] = column
    if path:
        data["path"] = path
    return data


def diagnostics_from_error(error: BaseException) -> list[dict]:
    """The diagnostics array for a failed request (one entry, carrying
    whatever position the error knows: line/column for syntax errors,
    Dewey path for validation errors)."""
    return [
        diagnostic(
            str(error),
            error_code(error),
            line=getattr(error, "line", 0) or 0,
            column=getattr(error, "column", 0) or 0,
            path=getattr(error, "path", "") or "",
        )
    ]


def error_payload(error: BaseException) -> dict:
    """The JSON body of a non-200 response.

    ``ReproError`` renders its own ``to_dict()``; anything else — a bug
    — becomes an opaque ``internal`` record (message withheld: internals
    never leak to the wire).
    """
    if isinstance(error, ReproError):
        return {
            "error": error.to_dict(),
            "diagnostics": diagnostics_from_error(error),
        }
    return {
        "error": {"code": INTERNAL_CODE, "message": "internal server error"},
        "diagnostics": [],
    }


def report_payload(
    report: ValidationReport,
    *,
    pair: str = "",
    fingerprint: str = "",
    elapsed_ms: Optional[float] = None,
) -> dict:
    """The 200 body for a completed validation: the verdict plus a
    diagnostics array (empty when valid, one entry with the failure
    reason and Dewey path when not)."""
    diagnostics: list[dict] = []
    if not report.valid:
        diagnostics.append(
            diagnostic(
                report.reason or "document is invalid",
                "validation-failed",
                path=report.path or "",
            )
        )
    payload: dict = {"valid": report.valid, "diagnostics": diagnostics}
    if pair:
        payload["pair"] = pair
    if fingerprint:
        payload["fingerprint"] = fingerprint
    if elapsed_ms is not None:
        payload["elapsed_ms"] = round(elapsed_ms, 3)
    return payload
