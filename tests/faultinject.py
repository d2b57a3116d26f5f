"""Fault-injection harness for the resource-guarded pipeline.

Shared machinery for the robustness suites (``tests/core``,
``tests/xmltree``, ``tests/schema``, ``tests/service``): an on-disk
adversarial corpus with the error class each input must produce,
picklable worker fault hooks for
:func:`repro.core.batch.validate_batch`, and raw-socket HTTP clients
that express the wire-level attacks (lying ``Content-Length``,
truncated bodies) the service suite throws at ``repro serve``.

The harness encodes the batch contract under attack:

* every adversarial *document* yields its specific typed
  :class:`~repro.errors.ReproError` subclass — from direct entry points
  as a raised exception, from the batch driver as
  ``DocumentResult.error_type``;
* every injected *worker* fault (hard crash, unexpected exception,
  transient IO error) costs at most that one document — the rest of the
  batch completes normally.

Hooks are module-level functions (not closures/lambdas) so they pickle
under spawn-based multiprocessing, and key off the document *filename*
so tests choose victims by naming files, with no shared state between
parent and workers.
"""

from __future__ import annotations

import os

from repro.errors import (
    DocumentTooDeepError,
    DocumentTooLargeError,
    EntityExpansionError,
    XMLSyntaxError,
)
from repro.guards import Limits
from repro.workloads.adversarial import (
    deep_document,
    entity_bomb,
    garbage_tail_document,
    oversized_document,
    truncated_document,
)

#: Tight limits matched to the miniature corpus below — small enough
#: that every guard trips in milliseconds.
CORPUS_LIMITS = Limits(
    max_document_bytes=10_000,
    max_tree_depth=50,
    max_entity_expansions=100,
)

#: name -> (document text, error class required under CORPUS_LIMITS).
ADVERSARIAL_CASES = {
    "deep-nesting": (deep_document(200), DocumentTooDeepError),
    "entity-bomb": (entity_bomb(500), EntityExpansionError),
    "oversized": (oversized_document(20_000), DocumentTooLargeError),
    "truncated": (truncated_document(), XMLSyntaxError),
    "garbage-tail": (garbage_tail_document(), XMLSyntaxError),
}


#: A document the :func:`corpus_pair` cast accepts.
CORPUS_GOOD_DOCUMENT = "<a><b>x</b><a><b>y</b></a></a>"


def corpus_pair():
    """The schema pair the adversarial corpus is cast under.

    DTDs over the corpus's own vocabulary: ``a`` nests ``a`` and ``b``,
    and only the source also allows ``c``, so ``a`` is never subsumed
    and the kernel walks it.  A cast stops at its first failure, so
    under a pair whose root the corpus lacks (the purchase-order
    pairs) a document is rejected at its root before its guard can
    trip; under this pair the kernel reaches each document's fault
    first.
    """
    from repro.schema.dtd import parse_dtd
    from repro.schema.registry import SchemaPair

    return SchemaPair(
        parse_dtd(
            "<!ELEMENT a (a|b|c)*><!ELEMENT b (#PCDATA)>"
            "<!ELEMENT c (#PCDATA)>",
            roots=["a"],
        ),
        parse_dtd("<!ELEMENT a (a|b)*><!ELEMENT b (#PCDATA)>", roots=["a"]),
    )


def write_corpus(directory) -> dict[str, str]:
    """Write the adversarial corpus; returns ``name -> path``."""
    paths = {}
    for name, (text, _expected) in ADVERSARIAL_CASES.items():
        path = os.path.join(str(directory), f"{name}.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths[name] = path
    return paths


def expected_error(name: str) -> type:
    return ADVERSARIAL_CASES[name][1]


# -- worker fault hooks (picklable, filename-keyed) ---------------------------


def crash_hook(path: str) -> None:
    """Kill the worker process dead — no exception, no cleanup."""
    if "CRASH" in os.path.basename(path):
        os._exit(17)


def midchunk_crash_hook(path: str) -> None:
    """Kill the worker when it reaches the ``KILLMID`` document.

    The same kill as :func:`crash_hook` under a distinct marker, meant
    for chunk-recovery tests: force one big chunk
    (``chunk_size=len(paths)``) and name the victim mid-list, so the
    worker dies with some documents of its chunk already reported and
    the rest never attempted — the scheduler must recover the tail and
    blame exactly the victim."""
    if "KILLMID" in os.path.basename(path):
        os._exit(23)


def bug_hook(path: str) -> None:
    """An unexpected (non-Repro, non-OS) exception inside the worker."""
    if "BUG" in os.path.basename(path):
        raise RuntimeError("injected defect")


def fuse_oserror_hook(path: str) -> None:
    """Raise ``OSError`` once per ``<path>.fuse`` sidecar file: the
    first attempt consumes the fuse, a retry then succeeds."""
    fuse = path + ".fuse"
    if os.path.exists(fuse):
        os.unlink(fuse)
        raise OSError("transient injected IO failure")


def arm_fuse(path: str) -> None:
    """Plant the sidecar that makes :func:`fuse_oserror_hook` fire once."""
    with open(path + ".fuse", "w", encoding="utf-8") as handle:
        handle.write("armed")


# -- service-level fault clients ----------------------------------------------
#
# Raw-socket HTTP clients for attacks urllib cannot express: lying
# Content-Length headers, truncated bodies, raw byte garbage.  Each
# returns ``(status, payload, headers)`` so service fault suites assert
# the same contract as the happy-path client: a *typed* 4xx/413/429/503
# JSON error — never a hang, never a bare 500.


def http_json(host: str, port: int, method: str, path: str,
              payload=None, timeout: float = 10.0):
    """Plain JSON request; returns ``(status, payload_dict, headers)``."""
    import json
    import urllib.error
    import urllib.request

    body = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=body, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def raw_request(host: str, port: int, head: str, body: bytes = b"",
                *, close_early: bool = False, timeout: float = 10.0):
    """Send raw HTTP bytes; returns ``(status, payload_dict, headers)``.

    ``close_early`` shuts down the write side after ``body`` — the
    truncated-body attack: the header promises more bytes than the
    connection delivers.
    """
    import json
    import socket

    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head.encode("ascii") + body)
        if close_early:
            sock.shutdown(socket.SHUT_WR)
        raw = b""
        while b"\r\n\r\n" not in raw:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
        header_blob, _, rest = raw.partition(b"\r\n\r\n")
        lines = header_blob.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        want = int(headers.get("content-length", 0))
        while len(rest) < want:
            chunk = sock.recv(65536)
            if not chunk:
                break
            rest += chunk
        payload = json.loads(rest) if rest else {}
        return status, payload, headers


def post_with_content_length(host: str, port: int, path: str,
                             claimed_length: int, body: bytes = b"",
                             *, close_early: bool = True):
    """POST whose ``Content-Length`` header claims ``claimed_length``
    regardless of how many bytes are actually sent."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {claimed_length}\r\n"
        "\r\n"
    )
    return raw_request(host, port, head, body, close_early=close_early)


def post_without_content_length(host: str, port: int, path: str):
    """POST with no ``Content-Length`` header at all (411 expected)."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        "\r\n"
    )
    return raw_request(host, port, head, close_early=True)


class KeepAliveClient:
    """A persistent raw-socket HTTP/1.1 client.

    The keep-alive suites need what urllib cannot show: whether two
    requests really travelled one TCP connection, whether the server
    answered ``Connection: close``, and whether pipelined request bytes
    (several requests written before any response is read) all get
    answers.  ``send`` writes one request; ``read_response`` parses one
    response off the shared buffer; interleave them freely.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        import socket

        self.sock = socket.create_connection(
            (host, port), timeout=timeout
        )
        self.host = host
        self.port = port
        self._buffer = b""

    @staticmethod
    def encode(method: str, path: str, payload=None,
               headers: dict = None) -> bytes:
        import json

        body = (
            b"" if payload is None
            else json.dumps(payload).encode("utf-8")
        )
        lines = [
            f"{method} {path} HTTP/1.1",
            "Host: service",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        return (
            "\r\n".join(lines).encode("ascii") + b"\r\n\r\n" + body
        )

    def send(self, method: str, path: str, payload=None,
             headers: dict = None) -> None:
        self.sock.sendall(self.encode(method, path, payload, headers))

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def _fill(self) -> bool:
        chunk = self.sock.recv(65536)
        if not chunk:
            return False
        self._buffer += chunk
        return True

    def read_response(self):
        """Parse one response: ``(status, payload_dict, headers)``."""
        import json

        while b"\r\n\r\n" not in self._buffer:
            if not self._fill():
                raise ConnectionError(
                    "server closed before a full response header"
                )
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        want = int(headers.get("content-length", 0))
        while len(self._buffer) < want:
            if not self._fill():
                raise ConnectionError(
                    "server closed mid response body"
                )
        body, self._buffer = self._buffer[:want], self._buffer[want:]
        payload = json.loads(body) if body else {}
        return status, payload, headers

    def server_closed(self, timeout: float = 5.0) -> bool:
        """True once the server closes its side (EOF)."""
        import socket

        self.sock.settimeout(timeout)
        try:
            return self.sock.recv(1) == b""
        except (socket.timeout, TimeoutError):
            return False
        except OSError:
            return True

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "KeepAliveClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
