"""Resident worker fleet: a persistent pool with zero-copy pair sharing.

The paper's cost model pays schema-pair preprocessing once and a small
per-document runtime many times.  The original batch driver honoured
that per *call*: every ``validate_batch(jobs=N)`` built a fresh
``ProcessPoolExecutor``, re-shipped the compiled pair to every worker,
and submitted one future per document — so corpus-scale throughput was
bounded by pool spin-up and per-future dispatch, not by the pair-DFA.

:class:`WorkerFleet` replaces that with a *resident* pool:

* **Workers survive across batch calls.**  One fleet can validate many
  corpora; the pool (and, with ``memo_size``, each worker's verdict
  memo) is paid for once per fleet, not once per call.  Each worker
  casts a file with one fused kernel pass
  (:func:`repro.core.cast.cast_file`).
* **Chunked work-stealing.**  The parent shards the corpus into
  path-chunks on a shared queue; idle workers pull the next chunk
  themselves.  Dispatch cost is per *chunk*, and a fast worker
  naturally steals more chunks than a slow one.
* **Bounded in-flight backpressure.**  At most ``max_inflight_chunks``
  chunks sit on the queue at a time, so a million-document run keeps
  O(jobs · chunk) paths in IPC buffers, never the whole corpus.
* **Zero-copy pair transport.**  The compiled pair reaches workers by
  one of two routes, and the pickled pair bytes materialize **at most
  once per fleet** — counted by :attr:`PairTransport.pickle_count` and
  asserted by the fleet benchmark:

  - ``fork`` start method: workers inherit the parent's tables
    copy-on-write through a module global — nothing is pickled at all;
  - any other start method: each worker loads a pair artifact
    (:mod:`repro.schema.artifacts`) on its first document — the
    caller's ``artifact_path`` when given (nothing pickled), otherwise
    a temp file the transport writes once and deletes at fleet close.

The fault-tolerance contract of the old driver is preserved on the new
scheduler: per-document errors never abort the batch, a dead worker
costs only the unreported documents of its claimed chunk (re-run in a
serial quarantine that names the culprit exactly, while a replacement
worker keeps the fleet at full width), transient ``OSError`` retries
are bounded, and ``KeyboardInterrupt`` kills the fleet without waiting
on stuck workers.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.cast import CastValidator, cast_file
from repro.core.memo import ValidationMemo
from repro.core.result import ValidationStats
from repro.errors import (
    WORKER_CRASH_CODE,
    BatchError,
    ReproError,
    error_code,
)
from repro.guards import Limits, resolve_limits
from repro.schema.registry import SchemaPair

#: A test-only hook run in the worker before each document; raising (or
#: killing the process) simulates faults.  Must be a picklable top-level
#: callable so it survives spawn-based platforms.
FaultHook = Callable[[str], None]

#: ``on_result`` callback: one validated document's outcome plus its
#: per-document stats delta (``None`` when stats are off).
ResultSink = Callable[["DocumentResult", Optional[ValidationStats]], None]


@dataclass(frozen=True)
class DocumentResult:
    """Outcome of validating one file of a batch."""

    path: str
    valid: bool
    reason: str = ""
    error: str = ""  # parse/IO/limit/crash text; empty when validated
    #: Exception class name behind ``error`` (``"WorkerCrash"`` for a
    #: died worker); empty when the document validated normally.
    error_type: str = ""
    #: Stable machine code for ``error`` (:func:`repro.errors.error_code`
    #: vocabulary, shared with the CLI and the HTTP service); empty when
    #: the document validated normally.
    error_code: str = ""
    #: 1 + the number of OSError retries this document consumed.
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """Loaded and valid."""
        return self.valid and not self.error


@dataclass(frozen=True)
class FleetConfig:
    """Per-worker validation configuration, fixed for a fleet's life.

    Workers cast each file with :func:`repro.core.cast.cast_file`, the
    fused kernel.  ``memo_size`` is the one way into the DOM route
    instead: parse each file to a tree and run a
    :class:`~repro.core.cast.CastValidator` whose verdict memo, built
    lazily on the worker's first document, lives as long as the
    worker.  Reusing a fleet therefore requires the same config,
    which :func:`repro.core.batch.validate_batch` enforces.
    """

    collect_stats: bool = False
    limits: Optional[Limits] = None
    retries: int = 0
    fault_hook: Optional[FaultHook] = None
    memo_size: Optional[int] = None

    def resolved(self) -> "FleetConfig":
        """This config with the ambient-default limits pinned in."""
        return FleetConfig(
            collect_stats=self.collect_stats,
            limits=resolve_limits(self.limits),
            retries=self.retries,
            fault_hook=self.fault_hook,
            memo_size=self.memo_size,
        )


# -- pair transport ----------------------------------------------------------

#: Fork-inheritance channel: pairs parked here by the parent are
#: inherited copy-on-write by every worker forked while the fleet
#: lives.  Keyed by a per-fleet token so concurrent fleets coexist.
_FORK_PAIRS: dict[int, SchemaPair] = {}
_FORK_TOKENS = itertools.count(1)


class PairTransport:
    """Delivers one compiled pair to every worker of a fleet.

    The invariant that makes a fleet cheaper than a per-call pool:
    the pair is pickled **at most once** for the whole fleet
    (:attr:`pickle_count`), regardless of worker count or how many
    batches the fleet validates.  :attr:`kind` is ``"fork"`` or
    ``"artifact"``.
    """

    def __init__(
        self,
        pair: SchemaPair,
        start_method: str,
        artifact_path: Optional[str] = None,
    ):
        self.pickle_count = 0
        self.blob_bytes = 0
        self._fork_token: Optional[int] = None
        self._owned_path: Optional[str] = None
        if start_method == "fork":
            token = next(_FORK_TOKENS)
            _FORK_PAIRS[token] = pair
            self._fork_token = token
            self.kind = "fork"
            self.route = ("fork", token)
            return
        if artifact_path is None:
            # Nothing persisted to point the workers at: write the
            # artifact once, to a temp file this transport owns.
            from repro.schema import artifacts

            fd, artifact_path = tempfile.mkstemp(
                prefix="repro-pair-", suffix=".pkl"
            )
            os.close(fd)
            self._owned_path = artifact_path
            try:
                self.blob_bytes = artifacts.save(pair, artifact_path)
            except BaseException:
                self.close()
                raise
            self.pickle_count = 1
        self.kind = "artifact"
        self.route = ("artifact", artifact_path)

    def close(self) -> None:
        if self._fork_token is not None:
            _FORK_PAIRS.pop(self._fork_token, None)
            self._fork_token = None
        if self._owned_path is not None:
            try:
                os.unlink(self._owned_path)
            except OSError:
                pass
            self._owned_path = None


def _resolve_route(route) -> SchemaPair:
    """Materialize the compiled pair a :class:`PairTransport` route
    names — the worker-side half of the transport."""
    kind, payload = route
    if kind == "fork":
        pair = _FORK_PAIRS.get(payload)
        assert pair is not None, "fork pair not parked by the parent"
        return pair
    from repro.schema import artifacts

    # load() size-checks the file against the ambient byte budget
    # before unpickling, so a corrupt or runaway artifact is an
    # error report, not an OOM.
    return artifacts.load(payload)


# -- worker side -------------------------------------------------------------


class _WorkerState:
    """One worker's pair and, on the memo route, its lazily built
    validator (resident across chunks and across batch calls).
    Workers get a transport ``route`` and resolve it on their first
    document; the in-process serial driver passes the ``pair``
    itself."""

    def __init__(
        self,
        config: FleetConfig,
        *,
        pair: Optional[SchemaPair] = None,
        route=None,
    ):
        self.config = config.resolved()
        self._pair = pair
        self._route = route
        self.validator = None

    def ensure_pair(self) -> SchemaPair:
        if self._pair is None:
            self._pair = _resolve_route(self._route)
        return self._pair

    def ensure_validator(self):
        """The DOM route's cast validator and its memo (``memo_size``
        only; the kernel route builds none)."""
        if self.validator is None:
            config = self.config
            self.validator = CastValidator(
                self.ensure_pair(),
                collect_stats=config.collect_stats,
                limits=config.limits,
                memo=ValidationMemo(config.memo_size, limits=config.limits),
            )
        return self.validator


def _validate_document(
    state: _WorkerState, path: str
) -> tuple[DocumentResult, Optional[ValidationStats]]:
    """Validate one document; never raises (KeyboardInterrupt and
    SystemExit excepted — those are how a worker is told to die)."""
    config = state.config
    attempt = 0
    while True:
        attempt += 1
        try:
            # Resolved here, not at worker startup, so a transport or
            # artifact failure is a per-document error report, not a
            # dead worker.
            pair = state.ensure_pair()
            limits = config.limits
            if config.fault_hook is not None:
                config.fault_hook(path)
            if config.memo_size is None:
                # One fused kernel pass over the file, read included,
                # timed as validation (there is no separate parse
                # phase).  Syntax, limit and deadline errors raise as
                # ReproError and are captured below.
                run_start = time.perf_counter()
                report = cast_file(pair, path, limits=limits)
                if config.collect_stats:
                    report.stats.validate_seconds += (
                        time.perf_counter() - run_start
                    )
            else:
                from repro.xmltree.parser import parse_file

                validator = state.ensure_validator()
                # One deadline token spans parse + validation.  Parsing
                # against the pair's symbol table interns element names
                # at lex time, so validation runs on dense ids.
                deadline = limits.deadline()
                parse_start = time.perf_counter()
                document = parse_file(
                    path,
                    limits=limits,
                    deadline=deadline,
                    symbols=pair.symbols,
                )
                parse_end = time.perf_counter()
                report = validator.validate(document, deadline=deadline)
                if config.collect_stats:
                    report.stats.parse_seconds += parse_end - parse_start
                    report.stats.validate_seconds += (
                        time.perf_counter() - parse_end
                    )
        except ReproError as error:
            return (
                DocumentResult(
                    path,
                    valid=False,
                    error=str(error),
                    error_type=type(error).__name__,
                    error_code=error_code(error),
                    attempts=attempt,
                ),
                None,
            )
        except OSError as error:
            if attempt <= config.retries:
                continue  # transient IO: bounded retry
            return (
                DocumentResult(
                    path,
                    valid=False,
                    error=str(error),
                    error_type=type(error).__name__,
                    error_code=error_code(error),
                    attempts=attempt,
                ),
                None,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:  # noqa: BLE001 — the batch contract
            return (
                DocumentResult(
                    path,
                    valid=False,
                    error=f"unexpected {type(error).__name__}: {error}",
                    error_type=type(error).__name__,
                    error_code=error_code(error),
                    attempts=attempt,
                ),
                None,
            )
        # In throughput mode with a memo, report.stats still carries the
        # per-document memo deltas (and nothing else) — ship those so
        # the parent can merge a fleet-wide hit rate.
        stats = (
            report.stats
            if config.collect_stats or config.memo_size is not None
            else None
        )
        return (
            DocumentResult(
                path,
                valid=report.valid,
                reason=report.reason,
                attempts=attempt,
            ),
            stats,
        )


def _fleet_worker_main(worker_id, task_queue, result_queue, route, config):
    """A resident worker: pull chunks until the ``None`` sentinel.

    Message protocol (worker → parent):

    * ``("claim", worker_id, chunk_id)`` — the chunk left the queue;
    * ``("doc", worker_id, chunk_id, index, result, stats)`` — one
      document of the chunk finished;
    * ``("done", worker_id, chunk_id)`` — every document reported.

    The claim message is what makes worker death recoverable: the
    parent knows which chunk a dead worker held and which of its
    documents were never reported.
    """
    state = _WorkerState(config, route=route)
    try:
        while True:
            item = task_queue.get()
            if item is None:
                return
            chunk_id, paths = item
            result_queue.put(("claim", worker_id, chunk_id))
            for index, path in enumerate(paths):
                result, stats = _validate_document(state, path)
                result_queue.put(
                    ("doc", worker_id, chunk_id, index, result, stats)
                )
            result_queue.put(("done", worker_id, chunk_id))
    except (KeyboardInterrupt, SystemExit):  # pragma: no cover - teardown
        return


def run_serial(
    pair: SchemaPair,
    paths: Sequence[str],
    config: FleetConfig,
    on_result: ResultSink,
) -> None:
    """In-process sequential validation — the ``jobs=1`` baseline the
    tests compare every parallel run against (and the one mode without
    worker-crash isolation)."""
    state = _WorkerState(config, pair=pair)
    for path in paths:
        on_result(*_validate_document(state, path))


def _receive(results, timeout: float):
    """The next worker message on ``results`` (a ``SimpleQueue``), or
    ``queue.Empty`` once ``timeout`` seconds pass without one.  The
    parent is the only reader, so polling before the read cannot
    race another consumer."""
    if not results._reader.poll(timeout):
        raise queue_module.Empty
    return results.get()


def _crash_result(path: str) -> DocumentResult:
    return DocumentResult(
        path,
        valid=False,
        error="worker process died while validating this document",
        error_type="WorkerCrash",
        error_code=WORKER_CRASH_CODE,
    )


# -- the fleet ---------------------------------------------------------------


def _auto_chunk_size(path_count: int, jobs: int) -> int:
    """Chunks big enough to amortize IPC, small enough that every
    worker gets several (work-stealing needs slack to steal)."""
    return max(1, min(64, path_count // (jobs * 4)))


class WorkerFleet:
    """A resident pool of validation workers bound to one schema pair.

    Create once, call :meth:`validate` many times, :meth:`close` when
    done (or use it as a context manager).  Worker processes, the
    transported pair, and per-worker memos all persist across calls —
    that persistence is the warm-pool speedup the fleet benchmark
    gates.
    """

    #: Seconds without progress (after a crash) before the stall sweep
    #: reclaims chunks lost in the pop-to-claim window of a dead worker.
    stall_grace = 2.0

    def __init__(
        self,
        pair: SchemaPair,
        jobs: int,
        *,
        config: Optional[FleetConfig] = None,
        start_method: Optional[str] = None,
        artifact_path: Optional[str] = None,
        chunk_size: Optional[int] = None,
        max_inflight_chunks: Optional[int] = None,
        warm: bool = True,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.jobs = jobs
        self.config = (config or FleetConfig()).resolved()
        self._chunk_size = chunk_size
        self._max_inflight = max_inflight_chunks or max(2 * jobs, 4)
        self._ctx = multiprocessing.get_context(start_method)
        if warm:
            pair.warm()
        self.transport = PairTransport(
            pair, self._ctx.get_start_method(), artifact_path
        )
        self._task_queue = self._ctx.Queue()
        # Workers answer on a SimpleQueue, whose put() writes from the
        # calling thread under the lock all workers share.  A Queue
        # writes from a feeder thread, so a worker killed just after a
        # put (a crash on its next document) could die holding that
        # lock, and no other worker's answer would ever arrive.
        self._result_queue = self._ctx.SimpleQueue()
        self._workers: dict[int, object] = {}
        self._worker_seq = itertools.count(1)
        self._chunk_seq = itertools.count(1)
        self._closed = False
        #: Batches completed and chunks dispatched over the fleet's
        #: lifetime (observability + the warm-reuse benchmark).
        self.batches_run = 0
        self.chunks_dispatched = 0
        for _ in range(jobs):
            self._spawn_worker()

    # -- lifecycle ----------------------------------------------------------

    def _spawn_worker(self) -> int:
        worker_id = next(self._worker_seq)
        process = self._ctx.Process(
            target=_fleet_worker_main,
            args=(
                worker_id,
                self._task_queue,
                self._result_queue,
                self.transport.route,
                self.config,
            ),
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = process
        return worker_id

    def close(self) -> None:
        """Retire the fleet: drain workers, release the transport."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            try:
                self._task_queue.put_nowait(None)
            except Exception:
                break
        for process in self._workers.values():
            process.join(timeout=2.0)
        for process in self._workers.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=0.5)
        self._workers.clear()
        self._release_queues()
        self.transport.close()

    def kill(self) -> None:
        """Immediate teardown (KeyboardInterrupt): no waiting on stuck
        workers, no queue draining."""
        if self._closed:
            return
        self._closed = True
        for process in self._workers.values():
            if process.is_alive():
                process.terminate()
        self._workers.clear()
        self._release_queues()
        self.transport.close()

    def _release_queues(self) -> None:
        for q in (self._task_queue, self._result_queue):
            try:
                q.close()
            except Exception:
                pass
        self._task_queue.cancel_join_thread()

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- scheduling ---------------------------------------------------------

    def validate(
        self, paths: Sequence[str], *, on_result: ResultSink
    ) -> None:
        """Validate ``paths`` over the resident pool.

        ``on_result`` fires in the parent as each document completes
        (in completion order, not path order) — the batch driver uses
        it to merge stats and append the checkpoint journal
        incrementally, so an interrupt never loses finished work.
        """
        if self._closed:
            raise BatchError("worker fleet is closed")
        paths = list(paths)
        if not paths:
            self.batches_run += 1
            return
        size = self._chunk_size or _auto_chunk_size(len(paths), self.jobs)
        chunks: dict[int, dict] = {}
        pending: deque[int] = deque()
        for start in range(0, len(paths), size):
            chunk_id = next(self._chunk_seq)
            chunks[chunk_id] = {
                "paths": paths[start : start + size],
                "claimed": None,
                "reported": set(),
            }
            pending.append(chunk_id)
        inflight: set[int] = set()
        done: set[int] = set()
        suspects: list[str] = []
        crash_seen = False
        deaths_without_sign_of_life = 0
        death_budget = max(2 * self.jobs, 4)
        last_progress = time.monotonic()

        def refill() -> None:
            while pending and len(inflight) < self._max_inflight:
                chunk_id = pending.popleft()
                self._task_queue.put((chunk_id, chunks[chunk_id]["paths"]))
                inflight.add(chunk_id)
                self.chunks_dispatched += 1

        def finish(chunk_id: int) -> None:
            done.add(chunk_id)
            inflight.discard(chunk_id)
            refill()

        def handle(message) -> None:
            kind = message[0]
            if kind == "claim":
                chunks[message[2]]["claimed"] = message[1]
            elif kind == "doc":
                _, _, chunk_id, index, result, stats = message
                state = chunks[chunk_id]
                if index not in state["reported"]:
                    state["reported"].add(index)
                    on_result(result, stats)
            elif kind == "done":
                if message[2] not in done:
                    finish(message[2])

        def reap_dead() -> list[int]:
            return [
                worker_id
                for worker_id, process in self._workers.items()
                if not process.is_alive()
            ]

        refill()
        try:
            while len(done) < len(chunks):
                try:
                    message = _receive(self._result_queue, 0.1)
                except queue_module.Empty:
                    dead = reap_dead()
                    if dead:
                        crash_seen = True
                        # Pick up everything the dead worker managed to
                        # report before dying, then bury it.
                        self._drain(handle)
                        deaths_without_sign_of_life += len(dead)
                        for worker_id in dead:
                            self._workers.pop(worker_id, None)
                            for chunk_id, state in chunks.items():
                                if (
                                    state["claimed"] == worker_id
                                    and chunk_id not in done
                                ):
                                    suspects.extend(
                                        path
                                        for index, path in enumerate(
                                            state["paths"]
                                        )
                                        if index not in state["reported"]
                                    )
                                    finish(chunk_id)
                        if deaths_without_sign_of_life > death_budget:
                            # Workers cannot even start (broken
                            # environment, unloadable pair): stop
                            # respawning, reclaim the queue, and let
                            # quarantine blame each document.
                            self._recover_unclaimed()
                            for chunk_id, state in chunks.items():
                                if chunk_id not in done:
                                    suspects.extend(
                                        path
                                        for index, path in enumerate(
                                            state["paths"]
                                        )
                                        if index not in state["reported"]
                                    )
                                    finish(chunk_id)
                        else:
                            for _ in dead:
                                self._spawn_worker()
                        last_progress = time.monotonic()
                    elif (
                        crash_seen
                        and time.monotonic() - last_progress
                        > self.stall_grace
                    ):
                        # Backstop for the tiny pop-to-claim window: a
                        # worker died between taking a chunk off the
                        # queue and announcing the claim.  Recover what
                        # is still queued; whatever is neither queued
                        # nor claimed is lost — quarantine it.
                        requeued = self._recover_unclaimed()
                        recovered_ids = set()
                        for chunk_id, chunk_paths in requeued:
                            recovered_ids.add(chunk_id)
                            if chunk_id not in done:
                                self._task_queue.put(
                                    (chunk_id, chunk_paths)
                                )
                        for chunk_id, state in chunks.items():
                            if (
                                chunk_id not in done
                                and state["claimed"] is None
                                and chunk_id not in recovered_ids
                            ):
                                suspects.extend(
                                    path
                                    for index, path in enumerate(
                                        state["paths"]
                                    )
                                    if index not in state["reported"]
                                )
                                finish(chunk_id)
                        last_progress = time.monotonic()
                    continue
                last_progress = time.monotonic()
                deaths_without_sign_of_life = 0
                handle(message)
        except KeyboardInterrupt:
            self.kill()
            raise
        if suspects:
            self._quarantine(suspects, on_result)
        self.batches_run += 1

    def _drain(self, handle) -> None:
        while True:
            try:
                handle(_receive(self._result_queue, 0))
            except queue_module.Empty:
                return

    def _recover_unclaimed(self) -> list[tuple[int, list[str]]]:
        recovered = []
        while True:
            try:
                item = self._task_queue.get_nowait()
            except queue_module.Empty:
                return recovered
            if item is not None:
                recovered.append(item)

    # -- quarantine ---------------------------------------------------------

    def _quarantine(self, paths: list[str], on_result: ResultSink) -> None:
        """Serial re-run of crash-suspect paths, one fresh single-doc
        worker chain at a time: a repeat crash blames the in-flight
        document exactly; the survivors continue."""
        remaining = sorted(paths)
        while remaining:
            remaining = self._quarantine_round(remaining, on_result)

    def _quarantine_round(
        self, paths: list[str], on_result: ResultSink
    ) -> list[str]:
        task_queue = self._ctx.Queue()
        result_queue = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_fleet_worker_main,
            args=(0, task_queue, result_queue,
                  self.transport.route, self.config),
            daemon=True,
        )
        process.start()
        try:
            for index, path in enumerate(paths):
                task_queue.put((next(self._chunk_seq), [path]))
                outcome = None
                finished = False
                while not finished:
                    try:
                        message = _receive(result_queue, 0.05)
                    except queue_module.Empty:
                        if not process.is_alive():
                            break
                        continue
                    if message[0] == "doc":
                        outcome = (message[4], message[5])
                    elif message[0] == "done":
                        finished = True
                if outcome is not None:
                    # The document finished even if the worker died
                    # right after (e.g. a crash during teardown).
                    on_result(*outcome)
                elif not finished:
                    on_result(_crash_result(path), None)
                if not finished:
                    return paths[index + 1 :]
            return []
        finally:
            try:
                task_queue.put_nowait(None)
            except Exception:
                pass
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=0.5)
            for q in (task_queue, result_queue):
                try:
                    q.close()
                except Exception:
                    pass
            task_queue.cancel_join_thread()
