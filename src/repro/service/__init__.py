"""Validation-as-a-service: the hardened HTTP front door.

The paper's setup — schemas known statically, documents arriving at
runtime — is exactly the shape of a long-lived service.  This package
wraps the preprocessed-pair pipeline in a stdlib-only threaded HTTP
server whose core is a *robustness* layer, not a router:

* :mod:`repro.service.registry` — schema pairs keyed by content
  fingerprint, warmed at boot, each with its own per-request budget
  (the ``SCHEMA_CONFIG`` idiom: a complex schema gets a tighter or
  looser deadline than the default).
* :mod:`repro.service.admission` — bounded concurrency with a bounded
  wait queue, load shedding (``503`` + ``Retry-After``), and per-client
  token-bucket rate limiting (``429``).
* :mod:`repro.service.server` — the endpoints (``POST /validate``,
  ``POST /cast``, ``POST /cast-with-mods``, ``GET /healthz``,
  ``GET /readyz``, ``GET /pairs``), per-request deadlines whose
  *residual* budget propagates into parsing and validation, and
  SIGTERM graceful drain.
* :mod:`repro.service.diagnostics` — the structured JSON diagnostic
  shape (message, line/column, Dewey path, machine error code) shared
  with the CLI and batch driver, plus the ``ReproError`` → HTTP status
  mapping that guarantees adversarial input never produces a bare 500.
* :mod:`repro.service.prefork` — the ``SO_REUSEPORT`` pre-fork front:
  N acceptor processes on one port (the one way to put more cores
  behind it), fleet-wide SIGTERM drain with an aggregated
  admitted == completed invariant.
* :mod:`repro.service.reload` — the append-only journal that carries
  ``/admin/pairs`` hot register/retire mutations across the pre-fork
  fleet.

See ``docs/ROBUSTNESS.md`` § "Service-level guards" for the contract.
"""

from repro.service.admission import AdmissionController, AdmissionStats
from repro.service.diagnostics import http_status
from repro.service.errors import (
    DrainingError,
    MalformedRequestError,
    NotReadyError,
    OverloadedError,
    PairConflictError,
    RateLimitedError,
    RequestTimeoutError,
    ServiceError,
    TruncatedBodyError,
    UnknownPairError,
)
from repro.service.prefork import PreforkServer, reuse_port_supported
from repro.service.registry import PairSpec, ServiceRegistry, demo_specs
from repro.service.reload import ReloadJournal
from repro.service.server import ServiceConfig, ValidationService

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "DrainingError",
    "MalformedRequestError",
    "NotReadyError",
    "OverloadedError",
    "PairConflictError",
    "PairSpec",
    "PreforkServer",
    "RateLimitedError",
    "ReloadJournal",
    "RequestTimeoutError",
    "ServiceConfig",
    "ServiceError",
    "ServiceRegistry",
    "TruncatedBodyError",
    "UnknownPairError",
    "ValidationService",
    "demo_specs",
    "http_status",
    "reuse_port_supported",
]
