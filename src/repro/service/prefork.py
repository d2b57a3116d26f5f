"""Pre-fork multi-process front: N acceptors, one port, one drain.

One ``repro serve`` process is pinned to roughly one core: the handler
threads share a GIL, so every accept, parse, validation, and response
funnels through one interpreter.  :class:`PreforkServer` is the one
way to put more cores behind the port: it runs N full service
processes — each its own
:class:`~repro.service.server.ValidationService` with its own warmed
registry and admission controller — all accepting on the *same* TCP
port:

* **SO_REUSEPORT** (preferred): every child binds its own listening
  socket with ``SO_REUSEPORT``; the kernel hashes incoming connections
  across them.  No shared accept lock, no thundering herd.  For
  ``port=0`` the parent first *reserves* a concrete port with a bound
  (never listening) ``SO_REUSEPORT`` socket, so all children bind the
  same number.
* **Inherited-listener fallback**: where ``SO_REUSEPORT`` does not
  exist, the parent binds + listens once and each forked child adopts
  the inherited socket; the kernel wakes one blocked ``accept()`` per
  connection.

**Admission is per-process** (documented semantics rather than a
shared token budget): each child owns ``max_concurrent`` slots and its
own queue, so fleet-wide capacity is ``N × max_concurrent`` and a
client's token bucket is per-child.  This keeps the admission hot path
lock-local and free of cross-process coordination; the trade-off —
shedding decisions are made on local load, which under kernel
round-robin tracks global load closely — is recorded in
``docs/ROBUSTNESS.md`` §7.

**Drain is fleet-wide**: the parent forwards SIGTERM/SIGINT to every
child, each child drains independently (in-flight requests finish,
admitted == completed per child), and the parent aggregates the
per-child admission summaries into one line::

    drained: admitted=N completed=N lost=0 processes=P

``lost`` must be zero — that is the PR 7 invariant, now fleet-wide.

**Crash resilience**: a child that dies outside a drain is respawned
(bounded by a crash budget); the respawn replays the shared
:class:`~repro.service.reload.ReloadJournal` from offset zero, so it
comes back knowing every hot-registered pair.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import tempfile
import time
from dataclasses import replace
from typing import Optional, Sequence

from repro.service.registry import PairSpec, ServiceRegistry
from repro.service.server import ServiceConfig, ValidationService

__all__ = ["PreforkServer", "reuse_port_supported"]


def reuse_port_supported() -> bool:
    """Whether this platform can bind N sockets to one port."""
    return hasattr(socket, "SO_REUSEPORT")


def _reserve_port(host: str, port: int) -> tuple[socket.socket, int]:
    """Bind (but never listen) a ``SO_REUSEPORT`` socket so ``port=0``
    resolves to one concrete number every child can share.  The reserve
    socket receives no connections — only listeners do — and is closed
    once the children are up."""
    reserve = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        reserve.bind((host, port))
        return reserve, reserve.getsockname()[1]
    except BaseException:
        reserve.close()
        raise


def _child_main(
    index: int,
    registry: ServiceRegistry,
    config: ServiceConfig,
    host: str,
    port: int,
    listener: Optional[socket.socket],
    ready_queue,
    summary_queue,
) -> None:
    """One acceptor process: a complete ValidationService of its own.

    ``registry`` was warmed **in the parent before the fork**, so every
    child inherits the compiled pair tables copy-on-write — one
    compilation for the whole fleet, zero pickles.  Post-fork the
    copies are independent: hot reload mutates each child's registry
    separately, coordinated only through the journal.

    Reports ``(index, port, warm_seconds)`` on ``ready_queue`` once
    traffic-ready (or ``(index, -1, error_text)`` on a failed boot) and
    its admission summary on ``summary_queue`` at exit.
    """
    # The child must not inherit the parent's signal dispositions for
    # the drain window between fork and install_signal_handlers.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    service = ValidationService(registry, config)
    try:
        service.start(
            host,
            port,
            reuse_port=listener is None,
            listen_socket=listener,
        )
        service.install_signal_handlers()
        if not service.wait_ready(timeout=120.0):
            raise RuntimeError(
                f"warm-up failed: {service.warm_error or 'timeout'}"
            )
    except BaseException as error:  # noqa: BLE001 — reported to parent
        ready_queue.put((index, -1, f"{type(error).__name__}: {error}"))
        os._exit(1)
    ready_queue.put((index, service.port, registry.warm_seconds))
    code = service.run_forever()
    stats = service.admission.stats
    summary_queue.put((index, stats.admitted, stats.completed))
    # Flush the queue's feeder thread before the hard exit, or the
    # summary dies in the pickle buffer.
    summary_queue.close()
    summary_queue.join_thread()
    # Skip interpreter teardown races with daemon handler threads.
    os._exit(code)


class PreforkServer:
    """The parent: spawns, watches, respawns, drains, aggregates."""

    #: Unexpected child deaths the parent will cover with respawns.
    crash_budget = 4

    def __init__(
        self,
        specs: Sequence[PairSpec],
        config: Optional[ServiceConfig] = None,
        *,
        processes: int,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[str] = None,
    ):
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        import multiprocessing

        self.specs = list(specs)
        self.processes = processes
        self.host = host
        self.cache_dir = cache_dir
        config = config or ServiceConfig()
        if config.reload_journal is None:
            # A per-run journal: hot registrations reach every child
            # (and every future respawn) through it.
            fd, journal = tempfile.mkstemp(
                prefix="repro-serve-reload-", suffix=".jsonl"
            )
            os.close(fd)
            self._own_journal = journal
            config = replace(config, reload_journal=journal)
        else:
            self._own_journal = None
        self.config = config
        self._ctx = multiprocessing.get_context("fork")
        self._ready_queue = self._ctx.Queue()
        self._summary_queue = self._ctx.Queue()
        self._registry: Optional[ServiceRegistry] = None
        self._children: dict[int, object] = {}
        self._listener: Optional[socket.socket] = None
        self._reserve: Optional[socket.socket] = None
        self._draining = False
        self._crashes = 0
        self.port = port
        self.warm_seconds = 0.0
        #: Fleet-wide admission totals, filled at drain.
        self.admitted = 0
        self.completed = 0
        self.summaries: dict[int, tuple[int, int]] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Resolve the port, fork the children, wait until every child
        is traffic-ready.  Returns the bound ``(host, port)``."""
        if self._children:
            raise RuntimeError("prefork server already started")
        # Compile once, fork many: children inherit the warmed pair
        # tables copy-on-write.
        self._registry = ServiceRegistry(
            self.specs, cache_dir=self.cache_dir
        )
        self.warm_seconds = self._registry.warm()
        if reuse_port_supported():
            self._reserve, self.port = _reserve_port(self.host, self.port)
        else:
            # Fallback: one parent-bound listener inherited across fork.
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            listener.bind((self.host, self.port))
            listener.listen(128)
            self._listener = listener
            self.port = listener.getsockname()[1]
        for index in range(self.processes):
            self._spawn(index)
        self._await_ready(self.processes)
        if self._reserve is not None:
            # Children hold the port now; the reservation has done its
            # job.
            self._reserve.close()
            self._reserve = None
        return self.host, self.port

    def _spawn(self, index: int) -> None:
        process = self._ctx.Process(
            target=_child_main,
            args=(
                index,
                self._registry,
                self.config,
                self.host,
                self.port,
                self._listener,
                self._ready_queue,
                self._summary_queue,
            ),
            name=f"repro-serve-{index}",
        )
        process.start()
        self._children[index] = process

    def _await_ready(self, count: int, timeout: float = 180.0) -> None:
        deadline = time.monotonic() + timeout
        seen = 0
        while seen < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise RuntimeError("children failed to become ready")
            try:
                index, port, warm = self._ready_queue.get(
                    timeout=min(remaining, 1.0)
                )
            except Exception:
                continue
            if port < 0:
                self.kill()
                raise RuntimeError(f"child {index} failed to boot: {warm}")
            self.warm_seconds = max(self.warm_seconds, float(warm))
            seen += 1

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → fleet-wide drain (main thread only)."""

        def _handle(signum, frame):  # noqa: ARG001
            self.begin_drain()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    def begin_drain(self) -> None:
        """Forward the drain signal to every child.  Idempotent and
        signal-safe (kill(2) is async-signal-safe; nothing here
        allocates or locks)."""
        if self._draining:
            return
        self._draining = True
        for process in self._children.values():
            if process.is_alive() and process.pid:
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except OSError:
                    pass

    def run_forever(self) -> int:
        """Watch the fleet: respawn crashed children (bounded), wait
        out the drain, aggregate summaries.  Returns the exit code — 0
        only for a clean fleet-wide drain with zero lost requests."""
        failed = False
        while True:
            self._drain_summaries()
            alive = {
                i: p for i, p in self._children.items() if p.is_alive()
            }
            if not alive:
                break
            if not self._draining:
                for index, process in list(self._children.items()):
                    if process.is_alive():
                        continue
                    code = process.exitcode
                    self._crashes += 1
                    failed = failed or self._crashes > self.crash_budget
                    sys.stderr.write(
                        f"repro-serve[{index}] exited "
                        f"unexpectedly (code {code}); "
                        + (
                            "respawning\n"
                            if self._crashes <= self.crash_budget
                            else "crash budget exhausted\n"
                        )
                    )
                    if self._crashes <= self.crash_budget:
                        self._spawn(index)
            time.sleep(0.2)
        self._drain_summaries(final=True)
        lost = self.admitted - self.completed
        print(
            f"drained: admitted={self.admitted} "
            f"completed={self.completed} lost={lost} "
            f"processes={self.processes}",
            flush=True,
        )
        bad_exit = any(
            p.exitcode not in (0, None) for p in self._children.values()
        )
        self._cleanup()
        return 1 if (failed or bad_exit or lost != 0) else 0

    def _drain_summaries(self, final: bool = False) -> None:
        while True:
            try:
                index, admitted, completed = self._summary_queue.get(
                    timeout=0.5 if final else 0.0
                )
            except Exception:
                if not final:
                    return
                # One extra grace read, then give up.
                try:
                    index, admitted, completed = self._summary_queue.get(
                        timeout=1.0
                    )
                except Exception:
                    return
            self.summaries[index] = (admitted, completed)
            self.admitted = sum(a for a, _ in self.summaries.values())
            self.completed = sum(c for _, c in self.summaries.values())

    def drain(self, timeout: Optional[float] = None) -> int:
        """:meth:`begin_drain` + :meth:`run_forever` with a bound."""
        self.begin_drain()
        budget = (
            self.config.drain_grace + 10.0 if timeout is None else timeout
        )
        deadline = time.monotonic() + budget
        for process in self._children.values():
            process.join(timeout=max(0.1, deadline - time.monotonic()))
        return self.run_forever()

    def kill(self) -> None:
        """Immediate teardown (boot failures, tests)."""
        for process in self._children.values():
            if process.is_alive():
                process.terminate()
        for process in self._children.values():
            process.join(timeout=2.0)
        self._cleanup()

    def _cleanup(self) -> None:
        if self._reserve is not None:
            self._reserve.close()
            self._reserve = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for q in (self._ready_queue, self._summary_queue):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        if self._own_journal is not None:
            try:
                os.unlink(self._own_journal)
            except OSError:
                pass
            self._own_journal = None
