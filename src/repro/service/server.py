"""The hardened HTTP front door: endpoints, deadlines, graceful drain.

Stdlib-only (``http.server.ThreadingHTTPServer``): one daemon thread
per connection, with :class:`~repro.service.admission.AdmissionController`
bounding how many of those threads may *work* at once.  The request
lifecycle is the robustness contract:

1. **Routing** — unknown paths and methods answer 404/405 before any
   resource is committed.
2. **Admission** — a work slot is taken (or the request is shed with
   429/503 + ``Retry-After``) before a single body byte is read.
3. **Deadline** — the per-request :class:`~repro.guards.Deadline`
   starts at admission.  Everything after — body read, JSON decode,
   parse, validation — runs on its *residual* budget
   (:meth:`~repro.guards.Deadline.remaining`), never a fresh clock.
4. **Body guards** — ``Content-Length`` is required (411) and checked
   against the byte bound *before* any read (413, reusing
   :func:`~repro.guards.check_document_size`); the read itself is
   paced by the residual deadline (slow-loris → 408) and a short read
   is a typed 400, never a hang.
5. **Validation** — inside ``limits_scope`` of the pair's own
   ``Limits`` with ``deadline_seconds`` set to the residual request
   budget (the ``SCHEMA_CONFIG`` idiom: each pair may carry its own
   cap, the request budget can only tighten it).  The work runs on
   the handler thread; more cores go behind the port as pre-forked
   acceptor processes (:mod:`repro.service.prefork`).
6. **Response** — verdicts are 200 with lint-style diagnostics;
   every ``ReproError`` maps through
   :func:`~repro.service.diagnostics.http_status`; anything else is a
   *structured* 500 (code ``internal``).  No adversarial input can
   produce a bare 500.  Errors ``http.server`` raises itself (an
   unsupported verb, a malformed or oversized request line or header
   block) answer in the same JSON shape.  A response is one socket
   write: status line, headers and body leave together.

**Keep-alive**: connections are persistent (HTTP/1.1) and may carry up
to ``max_requests_per_connection`` requests, pipelining included — the
buffered ``rfile`` naturally serves back-to-back request bytes.  A
response closes the connection only when it must: the client asked
(``Connection: close`` / HTTP/1.0), the request's body was not fully
consumed (an error before or during the body read leaves unread bytes
that would be misparsed as the next request line — exactly the
truncated-body case), the per-connection request cap is reached, or
the service is draining.  Every close is explicit: ``Connection:
close`` on the final response, so a pipelining client knows which
requests to replay elsewhere.

**Admin plane** (``POST /admin/pairs``, ``DELETE /admin/pairs/<key>``):
hot schema-pair register/retire without a restart.  Admin requests skip
admission slots (registering a pair must succeed even at 2× overload —
it is how an operator *relieves* overload) but still respect draining
and warm-up.  Mutations are race-free because the registry is
fingerprint-addressed and in-flight requests hold their
``RegisteredPair`` reference; across a pre-fork fleet they propagate
through the :class:`~repro.service.reload.ReloadJournal`.

**Drain** (SIGTERM/SIGINT): stop admitting (503 ``draining``), finish
in-flight requests up to ``drain_grace`` seconds, flip ``healthz``
unhealthy, stop the listener, exit 0.  The invariant — checked by the
load-test harness — is zero accepted-but-unanswered requests: every
admitted request gets its verdict, every shed request gets its 503.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.errors import ReproError, SchemaError
from repro.guards import Deadline, Limits, check_document_size
from repro.service.admission import AdmissionController
from repro.service.diagnostics import (
    error_payload,
    http_status,
    retry_after,
)
from repro.service.errors import (
    DrainingError,
    LengthRequiredError,
    MalformedRequestError,
    MethodNotAllowedError,
    NotReadyError,
    RequestTimeoutError,
    TruncatedBodyError,
    UnknownRouteError,
)
from repro.service.registry import RegisteredPair, ServiceRegistry
from repro.service.work import (
    VALIDATION_KINDS,
    perform_request,
    require_str,
    residual_limits,
    spec_from_wire,
)

__all__ = ["ServiceConfig", "ValidationService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (per-pair budgets live in the registry)."""

    #: Work slots: requests validating concurrently.
    max_concurrent: int = 8
    #: Requests allowed to wait for a slot before shedding starts.
    max_queue: int = 16
    #: Longest a queued request may wait for a slot.
    queue_timeout: float = 1.0
    #: Admission-to-response wall-clock budget per request; the pair's
    #: own ``deadline_seconds`` can only tighten what is left of this.
    request_timeout: float = 30.0
    #: Per-client token bucket: requests/second (``None`` disables).
    rate: Optional[float] = None
    burst: int = 10
    #: Seconds in-flight requests get to finish after SIGTERM.
    drain_grace: float = 10.0
    #: Request-body byte bound checked against ``Content-Length``
    #: before any read; ``None`` falls back to the default ``Limits``
    #: document bound (the JSON envelope around a document is small).
    max_body_bytes: Optional[int] = None
    #: Socket timeout for reading the request line and headers — also
    #: the idle timeout of a kept-alive connection between requests.
    header_timeout: float = 10.0
    read_chunk: int = 64 * 1024
    #: Log one line per request to stderr (off in tests/benchmarks).
    log_requests: bool = False
    #: Persistent connections (HTTP/1.1 keep-alive + pipelining).
    keep_alive: bool = True
    #: Requests served on one connection before it is closed (bounds
    #: how long a single client can monopolize a handler thread).
    max_requests_per_connection: int = 100
    #: Enable ``/admin/pairs`` hot register/retire endpoints.
    admin: bool = True
    #: Shared JSON-lines journal propagating admin mutations across a
    #: pre-fork fleet (``None``: mutations stay process-local).
    reload_journal: Optional[str] = None
    #: Seconds between journal polls.
    reload_poll: float = 0.25

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.max_requests_per_connection < 1:
            raise ValueError("max_requests_per_connection must be >= 1")
        for name in ("queue_timeout", "request_timeout", "drain_grace",
                     "header_timeout", "reload_poll"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


class _BoundServer(ThreadingHTTPServer):
    """Per-service listener.

    ``reuse_port`` lets N pre-forked processes bind the same address —
    the kernel load-balances accepts across them.  An already-bound
    ``listen_socket`` (the no-``SO_REUSEPORT`` fallback: one parent
    socket inherited across fork) is adopted instead of binding.
    """

    #: Deep accept backlog: under overload, connections must reach the
    #: admission controller (which answers 503 fast) instead of
    #: stalling in the kernel SYN queue, where the only "answer" is a
    #: retransmit timer.
    request_queue_size = 128
    reuse_port = False

    def server_bind(self) -> None:
        if self.reuse_port:
            self.socket.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
        super().server_bind()

    def adopt_socket(self, listener: socket.socket) -> None:
        self.socket.close()
        self.socket = listener
        self.server_address = listener.getsockname()[:2]
        # What HTTPServer.server_bind would have set; the parent
        # already bound and listened, so nothing else to do.
        self.server_name, self.server_port = self.server_address


class ValidationService:
    """One registry + one admission controller + one HTTP listener.

    ``after_admit_hook`` is a test seam: called with the route inside
    the request thread after admission and before the body read, it
    lets fault-injection suites hold requests in flight (drain and
    overload tests) without timing races.
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        config: Optional[ServiceConfig] = None,
        *,
        after_admit_hook: Optional[Callable[[str], None]] = None,
    ):
        self.registry = registry
        self.config = config or ServiceConfig()
        self.after_admit_hook = after_admit_hook
        self.admission = AdmissionController(
            max_concurrent=self.config.max_concurrent,
            max_queue=self.config.max_queue,
            queue_timeout=self.config.queue_timeout,
            rate=self.config.rate,
            burst=self.config.burst,
        )
        self.started_at: Optional[float] = None
        self.warm_error: Optional[BaseException] = None
        self._reload = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._warm_thread: Optional[threading.Thread] = None
        self._reload_thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._drain_started = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        reuse_port: bool = False,
        listen_socket: Optional[socket.socket] = None,
    ) -> tuple[str, int]:
        """Bind, start serving, and warm the registry in the background.

        The listener answers immediately — ``healthz`` 200, ``readyz``
        503 — and ``readyz`` flips to 200 only once every pair is
        compiled (or restored from the artifact cache).  Returns the
        bound ``(host, port)``; ``port=0`` picks an ephemeral port.

        ``reuse_port`` binds with ``SO_REUSEPORT`` (pre-fork siblings
        share the port); ``listen_socket`` adopts an inherited,
        already-listening socket instead of binding one.
        """
        if self._httpd is not None:
            raise RuntimeError("service already started")
        handler = type(
            "BoundHandler", (_RequestHandler,), {"service": self}
        )
        handler.timeout = self.config.header_timeout
        server_cls = type(
            "BoundServer", (_BoundServer,), {"reuse_port": reuse_port}
        )
        httpd = server_cls((host, port), handler, bind_and_activate=False)
        try:
            if listen_socket is not None:
                httpd.adopt_socket(listen_socket)
            else:
                httpd.server_bind()
                httpd.server_activate()
        except BaseException:
            httpd.server_close()
            raise
        self._httpd = httpd
        self.started_at = time.monotonic()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._serve_thread.start()
        if self.registry.ready:
            self._ready.set()
            self._after_warm()
        else:
            self._warm_thread = threading.Thread(
                target=self._warm, name="repro-serve-warm", daemon=True
            )
            self._warm_thread.start()
        return self._httpd.server_address[0], self._httpd.server_address[1]

    def _warm(self) -> None:
        try:
            self.registry.warm()
        except BaseException as error:  # noqa: BLE001 — surfaced via readyz
            self.warm_error = error
            return
        try:
            self._after_warm()
        except BaseException as error:  # noqa: BLE001
            self.warm_error = error
            return
        self._ready.set()

    def _after_warm(self) -> None:
        """Reload watcher, which needs a warmed registry (journal replay
        wants a registry that accepts register())."""
        if self.config.reload_journal is not None and self._reload is None:
            from repro.service.reload import ReloadJournal

            self._reload = ReloadJournal(self.config.reload_journal)
            self._reload_thread = threading.Thread(
                target=self._watch_reload,
                name="repro-serve-reload",
                daemon=True,
            )
            self._reload_thread.start()

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("service not started")
        return self._httpd.server_address[1]

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until warm-up finishes; ``False`` on timeout or a
        warm-up failure (see :attr:`warm_error`)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._ready.is_set():
            if self.warm_error is not None:
                return False
            remaining = (
                0.05 if deadline is None
                else min(0.05, deadline - time.monotonic())
            )
            if remaining <= 0:
                return False
            time.sleep(remaining)
        return True

    @property
    def ready(self) -> bool:
        return self._ready.is_set() and not self._draining.is_set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()

    def begin_drain(self) -> None:
        """Start graceful shutdown (what SIGTERM triggers): refuse new
        work, let in-flight requests finish up to ``drain_grace``, then
        stop the listener.  Idempotent, non-blocking, signal-safe."""
        if not self._drain_started.acquire(blocking=False):
            return
        self._draining.set()
        self.admission.start_drain()
        threading.Thread(
            target=self._drain_and_stop,
            name="repro-serve-drain",
            daemon=True,
        ).start()

    def _drain_and_stop(self) -> None:
        self.admission.await_idle(self.config.drain_grace)
        httpd = self._httpd
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        self._stopped.set()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """:meth:`begin_drain` + wait for the listener to stop."""
        self.begin_drain()
        budget = (
            self.config.drain_grace + 5.0 if timeout is None else timeout
        )
        return self._stopped.wait(budget)

    def close(self) -> None:
        """Immediate stop (tests/benchmarks): no grace for in-flight."""
        self._draining.set()
        self.admission.start_drain()
        httpd = self._httpd
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        self._stopped.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM and SIGINT → graceful drain (main thread only)."""

        def _handle(signum, frame):  # noqa: ARG001
            self.begin_drain()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    def run_forever(self) -> int:
        """Block until drained (CLI foreground mode); returns the
        process exit code — 0 for a clean drain."""
        while not self._stopped.wait(0.2):
            pass
        return 0

    # -- hot reload ----------------------------------------------------------

    def _watch_reload(self) -> None:
        """Apply sibling processes' admin mutations from the journal.
        Replay starts at offset zero, so a freshly (re)spawned child
        catches up on every mutation it missed."""
        while not self._stopped.is_set():
            try:
                for record in self._reload.poll():
                    self._apply_reload_record(record)
            except Exception:  # noqa: BLE001 — the watcher must survive
                pass
            self._stopped.wait(self.config.reload_poll)

    def _apply_reload_record(self, record: dict) -> None:
        """Replay one journal record; idempotent, silent on conflict
        (the originating process already answered its client)."""
        op = record.get("op")
        if op == "register":
            try:
                spec = spec_from_wire(record.get("body") or {})
                self.registry.register(spec)
            except (ReproError, OSError):
                return
        elif op == "retire":
            try:
                self.registry.retire(str(record.get("key", "")))
            except ReproError:
                pass

    def admin_register(self, request: dict) -> tuple[int, dict]:
        """``POST /admin/pairs``: hot-register a pair.  201 when
        created, 200 when the identical pair was already present."""
        try:
            spec = spec_from_wire(request)
            entry, created = self.registry.register(spec)
        except SchemaError as error:
            # Inline schema text that does not parse/compile is the
            # *client's* mistake here, not server misconfiguration.
            raise MalformedRequestError(
                f"supplied schema is unusable: {error}"
            ) from None
        except OSError as error:
            raise MalformedRequestError(
                f"schema file unreadable: {error}"
            ) from None
        if created and self._reload is not None:
            self._reload.append({"op": "register", "body": request})
        payload = {
            "created": created,
            "name": entry.name,
            "fingerprint": entry.fingerprint,
            "generation": self.registry.generation,
        }
        return (201 if created else 200), payload

    def admin_retire(self, key: str) -> dict:
        """``DELETE /admin/pairs/<key>``: retire a pair by name,
        fingerprint, or unique prefix."""
        entry = self.registry.retire(key)
        if self._reload is not None:
            self._reload.append({"op": "retire", "key": entry.fingerprint})
        return {
            "retired": entry.name,
            "fingerprint": entry.fingerprint,
            "generation": self.registry.generation,
        }

    # -- request handling (called from handler threads) ----------------------

    def handle_get(self, route: str) -> tuple[int, dict, dict]:
        """GET endpoints: (status, payload, extra headers).  These never
        pass admission — health probes must answer even at 2× load."""
        if route == "/healthz":
            draining = self._draining.is_set()
            payload = {
                "status": "draining" if draining else "ok",
                "ready": self.ready,
                "inflight": self.admission.inflight,
                "uptime_seconds": (
                    round(time.monotonic() - self.started_at, 3)
                    if self.started_at is not None
                    else 0.0
                ),
                "admission": self.admission.stats.as_dict(),
            }
            return (503 if draining else 200), payload, {}
        if route == "/readyz":
            if self.ready:
                return 200, {
                    "ready": True,
                    "pairs": len(self.registry),
                    "warm_seconds": round(self.registry.warm_seconds, 3),
                    "generation": self.registry.generation,
                }, {}
            if self.warm_error is not None:
                payload = error_payload(self.warm_error)
                payload["ready"] = False
                return 503, payload, {}
            reason = (
                "draining" if self._draining.is_set() else "warming up"
            )
            return 503, {"ready": False, "reason": reason}, {
                "Retry-After": "1"
            }
        if route == "/pairs":
            return 200, {
                "pairs": self.registry.describe(),
                "generation": self.registry.generation,
            }, {}
        raise UnknownRouteError(f"no endpoint at {route}")

    def dispatch_post(self, route: str, request: dict,
                      deadline: Deadline) -> dict:
        kind = route.lstrip("/")
        if kind not in VALIDATION_KINDS:
            raise UnknownRouteError(f"no endpoint at {route}")
        entry = self.registry.get(require_str(request, "pair"))
        limits = self._residual_limits(entry, deadline)
        return perform_request(
            kind,
            entry.pair,
            request,
            limits,
            pair_name=entry.name,
            fingerprint=entry.fingerprint,
        )

    def _residual_limits(
        self, entry: RegisteredPair, deadline: Deadline
    ) -> Limits:
        return residual_limits(
            entry.limits, deadline.remaining(), deadline.budget
        )


class _RequestHandler(BaseHTTPRequestHandler):
    """One instance per connection; ``service`` is bound by
    :meth:`ValidationService.start` via a per-service subclass."""

    service: ValidationService  # overridden in the bound subclass
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    _GET_ROUTES = frozenset({"/healthz", "/readyz", "/pairs"})
    _POST_ROUTES = frozenset(
        {"/validate", "/cast", "/cast-with-mods", "/cast-chain"}
    )
    _ADMIN_ROUTE = "/admin/pairs"

    # -- plumbing ------------------------------------------------------------

    def setup(self) -> None:
        super().setup()
        #: Responses sent on this connection (keep-alive cap).
        self._requests_served = 0
        #: True while the current request's body bytes may still be
        #: sitting unread on the socket — a response in that state must
        #: close, or keep-alive would parse body bytes as the next
        #: request line.
        self._unread_body = False

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.service.config.log_requests:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _route(self) -> str:
        return self.path.split("?", 1)[0].rstrip("/") or "/"

    def _should_close(self) -> bool:
        """The keep-alive policy, decided per response."""
        config = self.service.config
        return (
            not config.keep_alive
            # The base class already set close_connection for HTTP/1.0
            # clients and explicit ``Connection: close`` requests.
            or self.close_connection
            or self._unread_body
            or self._requests_served >= config.max_requests_per_connection
            # Draining: finish this response, then free the connection
            # so await_idle() is not held hostage by idle keep-alives.
            or self.service.draining
        )

    def _send_json(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        """Send one whole response in a single socket write.

        Headers written apart from the body would leave as their own
        segment, and Nagle would hold the body until the client ACKs
        it: a delayed ACK, ~40 ms, on every keep-alive response.
        """
        body = json.dumps(payload).encode("utf-8")
        self._requests_served += 1
        if self._should_close():
            self.close_connection = True
        self.log_request(status)
        if self.request_version == "HTTP/0.9":
            # HTTP/0.9 has no status line and no headers: the bare body.
            self.wfile.write(body)
            return
        fields = {
            "Server": self.version_string(),
            "Date": self.date_time_string(),
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            **(headers or {}),
        }
        if self.close_connection:
            fields["Connection"] = "close"
        reason = self.responses.get(status, ("",))[0]
        head = "".join(
            [f"{self.protocol_version} {status} {reason}\r\n"]
            + [f"{name}: {value}\r\n" for name, value in fields.items()]
            + ["\r\n"]
        ).encode("latin-1")
        # A HEAD answer carries a GET's headers and no body.
        self.wfile.write(head if self.command == "HEAD" else head + body)

    def send_error(
        self,
        code: int,
        message: Optional[str] = None,
        explain: Optional[str] = None,
    ) -> None:
        """Answer the errors ``http.server`` raises itself in the typed
        JSON shape: an unsupported verb is 405 ``method-not-allowed``; a
        malformed or oversized request line or header block keeps the
        stdlib status with code ``bad-request``.  Every one closes the
        connection: it fires before any body is read."""
        if code == HTTPStatus.NOT_IMPLEMENTED:
            status = 405
            error = MethodNotAllowedError(
                f"method {self.command} is not supported"
            )
        else:
            status = int(code)
            error = MalformedRequestError(
                message or self.responses.get(code, ("bad request",))[0]
            )
        self.log_error("code %d, message %s", code, message)
        self.close_connection = True
        self._send_json(status, error_payload(error))

    def _send_error_response(self, error: BaseException) -> None:
        status = http_status(error)
        headers = {}
        hint = retry_after(error)
        if hint is not None:
            headers["Retry-After"] = str(max(1, round(hint)))
        elif status == 503:
            headers["Retry-After"] = "1"
        self._send_json(status, error_payload(error), headers)

    # -- request body --------------------------------------------------------

    def _read_body(self, deadline: Deadline) -> bytes:
        """Read exactly ``Content-Length`` bytes under the residual
        request deadline; every failure mode is a typed error."""
        header = self.headers.get("Content-Length")
        if header is None:
            raise LengthRequiredError(
                "POST requests must carry Content-Length"
            )
        try:
            length = int(header)
        except ValueError:
            raise MalformedRequestError(
                f"unparseable Content-Length {header!r}"
            ) from None
        if length < 0:
            raise MalformedRequestError(
                f"negative Content-Length {length}"
            )
        config = self.service.config
        bound = config.max_body_bytes
        if bound is None:
            bound = Limits().max_document_bytes
        if bound is not None:
            # The 413 happens HERE, on the header, before any read: an
            # adversarial Content-Length never costs a byte of buffering.
            check_document_size(
                length,
                Limits(max_document_bytes=bound),
                what="request body",
            )
        received = bytearray()
        try:
            while len(received) < length:
                remaining = deadline.remaining()
                if remaining <= 0:
                    raise RequestTimeoutError(
                        "request body arrived slower than the "
                        f"{deadline.budget:g}s request budget"
                    )
                self.connection.settimeout(remaining)
                want = min(config.read_chunk, length - len(received))
                try:
                    chunk = self.rfile.read(want)
                except (socket.timeout, TimeoutError):
                    raise RequestTimeoutError(
                        "request body arrived slower than the "
                        f"{deadline.budget:g}s request budget"
                    ) from None
                if not chunk:
                    raise TruncatedBodyError(
                        f"request body ended after {len(received)} of "
                        f"{length} promised bytes"
                    )
                received.extend(chunk)
        finally:
            # Restore the idle timeout: the per-read deadline pacing
            # must not leak into the next keep-alive request's header
            # wait.
            try:
                self.connection.settimeout(self.timeout)
            except OSError:
                pass
        # Every promised byte is consumed; this connection is safe to
        # keep alive whatever the response status turns out to be.
        self._unread_body = False
        return bytes(received)

    def _parse_request_json(self, body: bytes) -> dict:
        try:
            request = json.loads(body)
        except ValueError as error:
            raise MalformedRequestError(
                f"request body is not valid JSON: {error}"
            ) from None
        if not isinstance(request, dict):
            raise MalformedRequestError(
                "request body must be a JSON object"
            )
        return request

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server contract
        self._unread_body = False
        self._guarded(self._handle_get)

    def do_POST(self) -> None:  # noqa: N802
        # Until _read_body consumes the promised bytes, any response
        # (shed, 411, 413, truncation...) must close the connection.
        self._unread_body = True
        self._guarded(self._handle_post)

    def do_DELETE(self) -> None:  # noqa: N802
        self._unread_body = False
        self._guarded(self._handle_delete)

    def _guarded(self, handler: Callable[[], None]) -> None:
        try:
            handler()
        except ReproError as error:
            self._try_send(lambda: self._send_error_response(error))
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as error:  # noqa: BLE001 — structured 500
            self._try_send(lambda: self._send_error_response(error))

    def _try_send(self, send: Callable[[], None]) -> None:
        try:
            send()
        except OSError:
            self.close_connection = True

    def _handle_get(self) -> None:
        route = self._route()
        if route in self._POST_ROUTES or (
            self._admin_enabled()
            and route.startswith(self._ADMIN_ROUTE)
        ):
            raise MethodNotAllowedError(f"{route} does not answer GET")
        status, payload, headers = self.service.handle_get(route)
        self._send_json(status, payload, headers)

    def _admin_enabled(self) -> bool:
        return self.service.config.admin

    def _check_admin_ready(self) -> None:
        service = self.service
        # Admin mutations bypass admission slots, so they must honor
        # the drain gate themselves — whichever layer flipped it.
        if service.draining or service.admission.draining:
            raise DrainingError("service is draining")
        if not service.registry.ready:
            raise NotReadyError("service warm-up has not finished")

    def _handle_post(self) -> None:
        service = self.service
        route = self._route()
        if route in self._GET_ROUTES:
            raise MethodNotAllowedError(f"{route} requires GET")
        if route == self._ADMIN_ROUTE and self._admin_enabled():
            # Admin mutations bypass admission slots — registering a
            # pair must succeed even while validation traffic is shed.
            self._check_admin_ready()
            deadline = Deadline(service.config.request_timeout)
            body = self._read_body(deadline)
            request = self._parse_request_json(body)
            status, payload = service.admin_register(request)
            self._send_json(status, payload)
            return
        if route.startswith(self._ADMIN_ROUTE) and self._admin_enabled():
            raise MethodNotAllowedError(
                f"{self._ADMIN_ROUTE}/<pair> answers DELETE"
            )
        if route not in self._POST_ROUTES:
            raise UnknownRouteError(f"no endpoint at {route}")
        if not service.registry.ready:
            if service.warm_error is not None:
                raise NotReadyError(
                    "service warm-up failed; see /readyz"
                )
            raise NotReadyError("service warm-up has not finished")
        client = self.client_address[0] if self.client_address else ""
        with service.admission.slot(client):
            # The request deadline starts when a slot is held — queue
            # wait was bounded separately — and everything downstream
            # spends from this one budget.
            deadline = Deadline(service.config.request_timeout)
            if service.after_admit_hook is not None:
                service.after_admit_hook(route)
            body = self._read_body(deadline)
            request = self._parse_request_json(body)
            payload = service.dispatch_post(route, request, deadline)
        self._send_json(200, payload)

    def _handle_delete(self) -> None:
        route = self._route()
        prefix = self._ADMIN_ROUTE + "/"
        if route == self._ADMIN_ROUTE and self._admin_enabled():
            raise MalformedRequestError(
                "DELETE /admin/pairs/<name-or-fingerprint>"
            )
        if not (route.startswith(prefix) and self._admin_enabled()):
            if route in self._GET_ROUTES or route in self._POST_ROUTES:
                raise MethodNotAllowedError(
                    f"{route} does not answer DELETE"
                )
            raise UnknownRouteError(f"no endpoint at {route}")
        self._check_admin_ready()
        key = route[len(prefix):]
        if not key:
            raise MalformedRequestError(
                "DELETE /admin/pairs/<name-or-fingerprint>"
            )
        payload = self.service.admin_retire(key)
        self._send_json(200, payload)
