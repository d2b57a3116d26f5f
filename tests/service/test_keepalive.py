"""Wire-level keep-alive and pipelining tests.

These assert the persistent-connection contract on raw sockets: reuse
across requests, in-order pipelined answers, and — critically — that
every path which may leave unread body bytes on the wire (shed before
body read, truncated body) closes the connection instead of letting the
next request line be parsed out of stale body bytes.  Every response,
error paths included, leaves in one socket write: a body written after
its headers would wait for the client's delayed ACK of the header
segment (Nagle), ~40 ms on every keep-alive response.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import threading

import pytest

from repro.service.server import ServiceConfig
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.serializer import serialize

from tests.faultinject import KeepAliveClient
from tests.service.conftest import boot


def po_xml(items: int = 3, **kwargs) -> str:
    return serialize(make_purchase_order(items, **kwargs))


def validate_payload() -> dict:
    return {"pair": "po-exp1", "xml": po_xml(), "schema": "source"}


class TestKeepAlive:
    def test_two_requests_reuse_one_connection(self, demo_service):
        with KeepAliveClient(demo_service.host, demo_service.port) as client:
            for _ in range(2):
                client.send("POST", "/validate", validate_payload())
                status, payload, headers = client.read_response()
                assert status == 200
                assert payload["valid"] is True
                assert headers.get("connection") != "close"

    def test_get_and_post_interleave_on_one_connection(self, demo_service):
        with KeepAliveClient(demo_service.host, demo_service.port) as client:
            client.send("GET", "/healthz")
            status, payload, headers = client.read_response()
            assert status == 200 and payload["ready"] is True
            assert headers.get("connection") != "close"
            client.send("POST", "/validate", validate_payload())
            status, payload, _ = client.read_response()
            assert status == 200 and payload["valid"] is True

    def test_pipelined_pair_answered_in_order(self, demo_service):
        with KeepAliveClient(demo_service.host, demo_service.port) as client:
            # Both requests hit the wire before any response is read;
            # distinct documents prove answer order matches send order.
            one = {"pair": "po-exp1", "xml": po_xml(1), "schema": "source"}
            two = {"pair": "po-exp1", "xml": "<not-po/>", "schema": "source"}
            client.send_raw(
                client.encode("POST", "/validate", one)
                + client.encode("POST", "/validate", two)
            )
            status, payload, _ = client.read_response()
            assert status == 200 and payload["valid"] is True
            status, payload, _ = client.read_response()
            assert status == 200 and payload["valid"] is False

    def test_client_connection_close_is_honored(self, demo_service):
        with KeepAliveClient(demo_service.host, demo_service.port) as client:
            client.send(
                "POST", "/validate", validate_payload(),
                headers={"Connection": "close"},
            )
            status, _, headers = client.read_response()
            assert status == 200
            assert headers.get("connection") == "close"
            assert client.server_closed()

    def test_request_cap_closes_connection(self):
        handle = boot(ServiceConfig(max_requests_per_connection=2))
        try:
            with KeepAliveClient(handle.host, handle.port) as client:
                client.send("GET", "/healthz")
                _, _, headers = client.read_response()
                assert headers.get("connection") != "close"
                client.send("GET", "/healthz")
                _, _, headers = client.read_response()
                assert headers.get("connection") == "close"
                assert client.server_closed()
        finally:
            handle.service.close()

    def test_keep_alive_disabled_closes_every_response(self):
        handle = boot(ServiceConfig(keep_alive=False))
        try:
            with KeepAliveClient(handle.host, handle.port) as client:
                client.send("GET", "/healthz")
                status, _, headers = client.read_response()
                assert status == 200
                assert headers.get("connection") == "close"
                assert client.server_closed()
        finally:
            handle.service.close()

    def test_mid_pipeline_shed_gets_503_and_close(self):
        # One slot, no queue: while a slow request holds the slot, a
        # pipelined burst on a second connection sheds.  The shed
        # happens *before* the body read, so the server cannot know
        # where the rejected request's body ends — it must close.
        release = threading.Event()
        entered = threading.Event()

        def hold_slot(route):
            entered.set()
            release.wait(15.0)

        handle = boot(
            ServiceConfig(max_concurrent=1, max_queue=0),
            after_admit_hook=hold_slot,
        )
        try:
            blocker = KeepAliveClient(handle.host, handle.port)
            blocker.send("POST", "/validate", validate_payload())
            assert entered.wait(10.0)
            with KeepAliveClient(handle.host, handle.port) as client:
                client.send_raw(
                    client.encode("POST", "/validate", validate_payload())
                    + client.encode("GET", "/healthz")
                )
                status, payload, headers = client.read_response()
                assert status == 503
                assert payload["error"]["code"] == "overloaded"
                assert headers.get("connection") == "close"
                # The pipelined follow-up is never answered: the server
                # closed rather than misparse the unread body bytes.
                assert client.server_closed()
            release.set()
            status, payload, _ = blocker.read_response()
            assert status == 200 and payload["valid"] is True
            blocker.close()
        finally:
            release.set()
            handle.service.close()

    def test_truncated_body_400_closes_connection(self, demo_service):
        with KeepAliveClient(demo_service.host, demo_service.port) as client:
            head = (
                "POST /validate HTTP/1.1\r\n"
                "Host: service\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: 500\r\n"
                "\r\n"
            ).encode("ascii")
            client.send_raw(head + b'{"pair": "po-exp1"')
            client.sock.shutdown(socket.SHUT_WR)
            status, payload, headers = client.read_response()
            assert status == 400
            assert payload["error"]["code"] == "truncated-body"
            assert headers.get("connection") == "close"
            assert client.server_closed()

    def test_healthz_after_validation_errors_keeps_connection(
        self, demo_service
    ):
        # Typed validation errors (body fully read) must NOT cost the
        # connection — only unread-body paths do.
        with KeepAliveClient(demo_service.host, demo_service.port) as client:
            client.send(
                "POST", "/validate",
                {"pair": "no-such-pair", "xml": "<x/>", "schema": "source"},
            )
            status, payload, headers = client.read_response()
            assert status == 404
            assert payload["error"]["code"] == "unknown-pair"
            assert headers.get("connection") != "close"
            client.send("GET", "/healthz")
            status, _, _ = client.read_response()
            assert status == 200


def exchange_to_eof(host: str, port: int, data: bytes) -> bytes:
    """Send raw request bytes and read until the server closes."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(data)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return reply
            reply += chunk


@pytest.fixture()
def socket_writes(monkeypatch):
    """Every server-side socket write while the test runs, in order."""
    writes: list[bytes] = []
    write = socketserver._SocketWriter.write

    def counting(self, data):
        # Counted before the send, so a response the client has read is
        # always already counted.
        writes.append(bytes(data))
        return write(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", counting)
    return writes


class TestOneWritePerResponse:
    def test_verdict(self, demo_service, socket_writes):
        with KeepAliveClient(demo_service.host, demo_service.port) as client:
            client.send("POST", "/validate", validate_payload())
            status, payload, _ = client.read_response()
            assert status == 200 and payload["valid"] is True
            assert len(socket_writes) == 1

    def test_typed_error_after_body_read(self, demo_service, socket_writes):
        with KeepAliveClient(demo_service.host, demo_service.port) as client:
            client.send(
                "POST", "/validate",
                {"pair": "no-such-pair", "xml": "<x/>", "schema": "source"},
            )
            status, _, headers = client.read_response()
            assert status == 404 and headers.get("connection") != "close"
            assert len(socket_writes) == 1
            client.send("GET", "/healthz")
            status, _, _ = client.read_response()
            assert status == 200
            assert len(socket_writes) == 2

    def test_shed_before_body_read(self, socket_writes):
        release = threading.Event()
        entered = threading.Event()

        def hold_slot(route):
            entered.set()
            release.wait(15.0)

        handle = boot(
            ServiceConfig(max_concurrent=1, max_queue=0),
            after_admit_hook=hold_slot,
        )
        try:
            blocker = KeepAliveClient(handle.host, handle.port)
            blocker.send("POST", "/validate", validate_payload())
            assert entered.wait(10.0)
            with KeepAliveClient(handle.host, handle.port) as client:
                client.send("POST", "/validate", validate_payload())
                status, _, headers = client.read_response()
                assert status == 503 and headers.get("connection") == "close"
                assert client.server_closed()
                assert len(socket_writes) == 1
            release.set()
            status, _, _ = blocker.read_response()
            assert status == 200
            assert len(socket_writes) == 2
            blocker.close()
        finally:
            release.set()
            handle.service.close()

    def test_close_at_keepalive_cap(self, socket_writes):
        handle = boot(ServiceConfig(max_requests_per_connection=1))
        try:
            reply = exchange_to_eof(
                handle.host, handle.port,
                KeepAliveClient.encode("GET", "/healthz"),
            )
            assert b"\r\nConnection: close\r\n" in reply
            assert socket_writes == [reply]
        finally:
            handle.service.close()

    # The oversized line and header block end where the stdlib stops
    # reading, so no unread byte turns the close into a reset.
    @pytest.mark.parametrize("request_bytes, status, code", [
        (b"PUT /cast HTTP/1.1\r\nHost: service\r\nContent-Length: 0\r\n\r\n",
         405, "method-not-allowed"),
        # A HEAD answer is the headers alone.
        (b"HEAD /healthz HTTP/1.1\r\nHost: service\r\n\r\n", 405, None),
        (b"FOO BAR BAZ HTTP/1.1\r\n\r\n", 400, "bad-request"),
        (b"GET /" + b"a" * (65537 - len(b"GET /")), 414, "bad-request"),
        (b"GET /healthz HTTP/1.1\r\n"
         + b"".join(b"X-Filler-%d: y\r\n" % n for n in range(101)),
         431, "bad-request"),
    ], ids=["unsupported-verb", "head", "garbage-line", "oversized-line",
            "oversized-headers"])
    def test_stdlib_error(self, demo_service, socket_writes, request_bytes,
                          status, code):
        # The typed JSON answer, not the stdlib's HTML page, in one write.
        reply = exchange_to_eof(
            demo_service.host, demo_service.port, request_bytes
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert int(head.split(b" ", 2)[1]) == status
        assert b"\r\nContent-Type: application/json\r\n" in reply
        assert b"\r\nConnection: close\r\n" in reply
        length = int(re.search(rb"\r\nContent-Length: (\d+)\r\n", reply)[1])
        if code is None:
            assert body == b"" and length > 0  # a GET's headers, no body
        else:
            assert len(body) == length
            assert json.loads(body)["error"]["code"] == code
        assert socket_writes == [reply]


def test_http09_request_gets_the_bare_json_body(demo_service, capsys):
    """An HTTP/0.9 request line has no status line or headers to answer
    with: the reply is the JSON body alone, and nothing is logged."""
    reply = exchange_to_eof(
        demo_service.host, demo_service.port, b"GET /healthz\r\n\r\n"
    )
    assert json.loads(reply)["status"] == "ok"
    assert "Traceback" not in capsys.readouterr().err
