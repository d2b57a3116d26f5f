"""HTTP/1.1 load from one process: open loop on a schedule, or closed
loop as fast as answers come back.

Each client thread owns one keep-alive connection and has one request
in flight on it.  A request goes out in a single ``sendall`` (headers
and body together), so the generator adds no Nagle stall of its own.
When the server answers ``Connection: close`` — by default every 100
requests on a connection — the thread reconnects before its next
request; a request whose connection closes before an answer arrives is
resent on a fresh connection and keeps its original due time.

Open-loop latency is measured from each request's *due* time, so a
stall also charges the requests queued behind it.  The generator's own
lateness (how long after both the due time and a free connection it
actually sent) is reported separately as the send lag.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Optional

#: Attempts per request before it counts as a transport failure.
ATTEMPTS = 3


@dataclass
class Sample:
    """One request as the client saw it; times in seconds from the start
    of the run."""

    request: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    error: str = ""
    lag: float = 0.0

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Run:
    """Samples in due order; ``start`` is the ``time.perf_counter()``
    reading their offsets count from."""

    samples: list[Sample]
    start: float
    unsent: int = 0


def encode(route: str, body: bytes, host: str = "127.0.0.1") -> bytes:
    """A complete POST request: headers and body in one buffer."""
    head = (
        f"POST {route} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


class ServerClosed(ConnectionError):
    """The server closed the connection before a full response."""


class Connection:
    """One keep-alive connection with one request in flight."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader = None

    def open(self) -> None:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._reader = self._sock.makefile("rb")

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send ``request`` and read the answer: (status, body).

        Raises ``OSError`` when no answer arrives after
        :data:`ATTEMPTS` connections, or on a timeout."""
        for _ in range(ATTEMPTS):
            self.open()
            try:
                self._sock.sendall(request)
                status, body, closing = self._read_response()
            except (ServerClosed, ConnectionResetError, BrokenPipeError):
                self.close()
                continue
            if closing:
                self.close()
            return status, body
        raise ServerClosed(f"no answer after {ATTEMPTS} connections")

    def _read_response(self) -> tuple[int, bytes, bool]:
        status_line = self._reader.readline()
        if not status_line:
            raise ServerClosed("connection closed before the status line")
        status = int(status_line.split(None, 2)[1])
        length = 0
        closing = False
        while True:
            line = self._reader.readline()
            if not line:
                raise ServerClosed("connection closed inside the headers")
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection" and value.strip().lower() == b"close":
                closing = True
        body = self._reader.read(length)
        if len(body) < length:
            raise ServerClosed("connection closed inside the body")
        return status, body, closing


def _client(
    conn: Connection,
    requests: list[bytes],
    take,
    start: float,
    samples: list[Sample],
    lock: threading.Lock,
) -> None:
    """Send what ``take()`` hands out — ``(pool index, due offset)``,
    with a due offset of ``None`` meaning now, or ``None`` to stop — one
    request at a time."""
    clock = time.perf_counter
    try:
        while True:
            job = take()
            if job is None:
                return
            index, due = job
            picked = clock() - start
            if due is None:
                due = picked
            wait = due - picked
            if wait > 0:
                time.sleep(wait)
            sent = clock() - start
            lag = sent - max(due, picked)
            try:
                status, body = conn.exchange(requests[index])
                error = ""
            except OSError as error_:
                conn.close()
                status, body = 0, b""
                error = f"{type(error_).__name__}: {error_}"
            sample = Sample(index, due, sent, clock() - start, status, body,
                            error, lag)
            with lock:
                samples.append(sample)
    finally:
        conn.close()


def _run(host, port, requests, take, connections, start_delay, budget):
    samples: list[Sample] = []
    lock = threading.Lock()
    conns = [Connection(host, port) for _ in range(connections)]
    for conn in conns:
        conn.open()
    start = time.perf_counter() + start_delay
    threads = [
        threading.Thread(
            target=_client,
            args=(conn, requests, take, start, samples, lock),
            name=f"ledger-client-{n}",
        )
        for n, conn in enumerate(conns)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=budget)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load-generator thread did not finish in time")
    samples.sort(key=lambda sample: sample.due)
    return Run(samples, start)


def open_loop(
    host: str,
    port: int,
    requests: list[bytes],
    schedule: list[tuple[float, int]],
    *,
    connections: int,
    cutoff: Optional[float] = None,
) -> Run:
    """Send ``schedule`` — (due offset, pool index) in due order.  No
    request is sent later than ``cutoff`` seconds after the start; those
    left over are counted in ``Run.unsent``."""
    lock = threading.Lock()
    position = [0]
    unsent = [0]
    start_delay = 0.05
    began = time.perf_counter()

    def take():
        with lock:
            if position[0] >= len(schedule):
                return None
            due, index = schedule[position[0]]
            if cutoff is not None and (
                time.perf_counter() - began - start_delay > cutoff
            ):
                unsent[0] = len(schedule) - position[0]
                position[0] = len(schedule)
                return None
            position[0] += 1
            return index, due

    last_due = schedule[-1][0] if schedule else 0.0
    budget = (cutoff if cutoff is not None else last_due) + 60.0
    run = _run(host, port, requests, take, connections, start_delay, budget)
    run.unsent = unsent[0]
    return run


def closed_loop(
    host: str,
    port: int,
    requests: list[bytes],
    order: list[int],
    *,
    connections: int,
    seconds: float,
) -> Run:
    """Each connection sends its next request (cycling through
    ``order``) as soon as the previous answer arrives, for ``seconds``;
    every sample's due time is its send time."""
    lock = threading.Lock()
    position = [0]
    start_delay = 0.05
    end = time.perf_counter() + start_delay + seconds

    def take():
        with lock:
            if time.perf_counter() >= end:
                return None
            index = order[position[0] % len(order)]
            position[0] += 1
            return index, None

    return _run(host, port, requests, take, connections, start_delay,
                seconds + 60.0)
