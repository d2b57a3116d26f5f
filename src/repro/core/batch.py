"""Parallel, fault-tolerant, resumable multi-document validation.

The paper's cost model splits validation into static preprocessing
(schemas only) and a per-document runtime.  When many documents must be
revalidated against the same pair — a feed migration, a corpus audit —
the static part should be paid once and the per-document part should
use every core.  This module is the *scheduler* over that idea; the
mechanics live in :mod:`repro.core.fleet`:

* :func:`validate_batch` casts each document with one fused kernel
  pass over the file (:func:`~repro.core.cast.cast_file`) and
  dispatches path-chunks over a
  :class:`~repro.core.fleet.WorkerFleet` — a resident worker pool with
  work-stealing, bounded in-flight backpressure, and zero-copy
  compiled-pair transport (the pair bytes materialize at most once per
  fleet, regardless of worker count).  Pass your own ``fleet`` to reuse
  one pool across many batch calls; otherwise a transient fleet is
  created and retired inside the call.
* A **checkpoint journal** (:mod:`repro.core.checkpoint`) makes runs
  interruptible: with ``checkpoint=PATH`` every completed document is
  appended as it finishes, and ``resume=True`` restores unchanged
  documents' verdicts instead of revalidating them — the resumed
  :class:`BatchResult` carries verdicts and merged stats identical to
  an uninterrupted run.
* :func:`validate_directory` discovers documents (optionally
  ``recursive=True``) with deterministic ordering.

Fault tolerance is the batch contract, preserved on the new scheduler:

* **No per-document exception is fatal.**  Workers catch every
  exception below ``KeyboardInterrupt``/``SystemExit`` — typed
  :class:`~repro.errors.ReproError` failures (syntax, resource limits,
  deadlines), ``OSError``, and unexpected bugs alike — and report them
  through :attr:`DocumentResult.error`.
* **Worker death is survivable.**  A dead worker costs only the
  unreported documents of the chunk it had claimed; those re-run in a
  serial quarantine that names the crashing document exactly, while a
  replacement worker keeps the fleet at full width.
* **Per-document budgets.**  ``limits`` (ambient defaults when
  ``None``) bound each document's size, depth, entity expansions, and —
  via ``deadline_seconds`` — wall-clock time.
* **Transient IO retries.**  ``retries`` re-runs a document whose
  ``OSError`` may be transient before recording the failure.
* **Clean interrupts.**  ``KeyboardInterrupt`` kills the fleet without
  waiting on stuck workers; with a checkpoint journal, everything
  finished before the interrupt is already on disk.

The parent merges worker :class:`ValidationStats` into one batch total
that equals the sequential sum exactly — parallelism changes wall-clock
time, never verdicts or counters.
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from repro.core.checkpoint import CheckpointJournal
from repro.core.fleet import (
    DocumentResult,
    FaultHook,
    FleetConfig,
    WorkerFleet,
    run_serial,
)
from repro.core.result import ValidationStats
from repro.errors import BatchError, code_for_error_type
from repro.guards import Limits, resolve_limits
from repro.schema.registry import SchemaPair

__all__ = [
    "BatchResult",
    "DocumentResult",
    "FaultHook",
    "discover_documents",
    "validate_batch",
    "validate_directory",
]


@dataclass
class BatchResult:
    """All per-document outcomes plus the merged counters."""

    results: list[DocumentResult] = field(default_factory=list)
    stats: Optional[ValidationStats] = None
    #: Documents whose verdicts were restored from a checkpoint journal
    #: instead of being revalidated (0 outside resumed runs).
    resumed: int = 0

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def valid_count(self) -> int:
        return sum(1 for result in self.results if result.ok)

    @property
    def invalid(self) -> list[DocumentResult]:
        return [result for result in self.results if not result.ok]

    @property
    def all_valid(self) -> bool:
        return self.valid_count == self.total

    @property
    def errors(self) -> list[DocumentResult]:
        """Documents that did not produce a verdict (error is set)."""
        return [result for result in self.results if result.error]


def _result_from_dict(data: dict) -> DocumentResult:
    error_type = data.get("error_type", "")
    return DocumentResult(
        path=data["path"],
        valid=data["valid"],
        reason=data.get("reason", ""),
        error=data.get("error", ""),
        error_type=error_type,
        # Journals written before the code field existed carry only the
        # class name; heal them through the taxonomy lookup.
        error_code=data.get("error_code") or code_for_error_type(error_type),
        attempts=data.get("attempts", 1),
    )


def validate_batch(
    pair: SchemaPair,
    paths: Sequence[str],
    *,
    jobs: int = 1,
    collect_stats: bool = False,
    warm: bool = True,
    limits: Optional[Limits] = None,
    retries: int = 0,
    fault_hook: Optional[FaultHook] = None,
    memo_size: Optional[int] = None,
    artifact_path: Optional[str] = None,
    fleet: Optional[WorkerFleet] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    chunk_size: Optional[int] = None,
) -> BatchResult:
    """Validate many documents against one schema pair.

    Each document is cast by :func:`repro.core.cast.cast_file`: one
    fused kernel pass over the file, subsumed subtrees drained
    (checked for well-formedness only), no tree built.

    Args:
        pair: the preprocessed pair; warmed here (once, in the parent)
            unless ``warm=False``, so workers inherit finished machines.
        paths: document files; results come back sorted by path.
        jobs: worker processes; ``1`` validates sequentially in-process
            (no pool, the baseline the tests compare against — and the
            one mode without worker-crash isolation).
        collect_stats: gather per-document counters and merge them into
            ``BatchResult.stats`` (the merged total equals the
            sequential sum).  Off by default — throughput mode.
        warm: pre-build the pair's machines before dispatch.
        limits: per-document resource budgets (ambient defaults when
            ``None``); ``limits.deadline_seconds`` is the per-document
            timeout, enforced cooperatively inside the worker.
        retries: extra attempts for documents failing with ``OSError``.
        fault_hook: test-only callable run before each document in the
            worker (see :data:`~repro.core.fleet.FaultHook`).
        memo_size: opt into the DOM route instead: each document is
            parsed to a tree and cast by a
            :class:`~repro.core.cast.CastValidator` whose worker shares
            one bounded :class:`~repro.core.memo.ValidationMemo` of this
            capacity across all its documents (and, on a reused fleet,
            across batch calls); memo counters land in
            ``BatchResult.stats`` even with ``collect_stats=False``.
            ``None`` (the default) runs the kernel.
        artifact_path: a persisted pair artifact
            (:mod:`repro.schema.artifacts`) for this pair, loaded by
            workers that cannot inherit the pair by fork (saves the
            one pickle the transport would otherwise write); ignored
            under the fork start method.
        fleet: a caller-owned resident :class:`WorkerFleet` to dispatch
            on instead of creating a transient pool.  Its config must
            match this call's arguments (:class:`BatchError` otherwise);
            ``jobs`` is ignored in favour of the fleet's width.  The
            fleet stays open for further calls — closing it is the
            caller's job.
        checkpoint: path of an append-only journal; every completed
            document is recorded as it finishes.
        resume: with ``checkpoint``, restore verdicts for documents
            already journaled (and unchanged on disk per mtime+size)
            instead of revalidating them.  Without ``resume`` the
            journal is truncated and started fresh.
        chunk_size: paths per work-stealing chunk (default: sized from
            the corpus and worker count).

    A document that fails — bad syntax, resource limit, IO error, even
    a worker crash — is reported via ``error`` and counts as not ok; it
    never aborts the rest of the batch.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if memo_size is not None and memo_size < 1:
        raise ValueError(f"memo_size must be >= 1, got {memo_size}")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    limits = resolve_limits(limits)
    if warm:
        pair.warm()
    config = FleetConfig(
        collect_stats=collect_stats,
        limits=limits,
        retries=retries,
        fault_hook=fault_hook,
        memo_size=memo_size,
    )
    if fleet is not None:
        if fleet.config != config.resolved():
            raise BatchError(
                "the provided fleet was built with a different "
                "configuration than this batch call; create the fleet "
                "with matching arguments (or omit it)"
            )
        jobs = fleet.jobs

    merged = (
        ValidationStats()
        if collect_stats or memo_size is not None
        else None
    )
    outcomes: list[DocumentResult] = []
    resumed_count = 0
    journal: Optional[CheckpointJournal] = None
    run_paths = list(paths)

    try:
        if checkpoint is not None:
            from repro.schema.artifacts import pair_cache_key

            key = pair_cache_key(pair.source, pair.target)
            if resume:
                journal = CheckpointJournal.resume(checkpoint, key)
            else:
                journal = CheckpointJournal.fresh(checkpoint, key)
            if journal.restored:
                remaining = []
                for path in run_paths:
                    entry = journal.restored.get(path)
                    if entry is not None and journal.entry_is_current(
                        entry
                    ):
                        outcomes.append(_result_from_dict(entry["result"]))
                        if merged is not None and entry.get("stats"):
                            merged.merge(
                                ValidationStats.from_dict(entry["stats"])
                            )
                        resumed_count += 1
                    else:
                        remaining.append(path)
                run_paths = remaining

        def record(
            result: DocumentResult, stats: Optional[ValidationStats]
        ) -> None:
            outcomes.append(result)
            if merged is not None and stats is not None:
                merged.merge(stats)
            if journal is not None:
                journal.record(
                    result.path,
                    asdict(result),
                    stats.as_dict() if stats is not None else None,
                )

        if fleet is not None:
            fleet.validate(run_paths, on_result=record)
        elif jobs == 1 or len(run_paths) <= 1:
            run_serial(pair, run_paths, config, record)
        else:
            with WorkerFleet(
                pair,
                jobs,
                config=config,
                artifact_path=artifact_path,
                chunk_size=chunk_size,
                warm=False,  # warmed above
            ) as transient:
                transient.validate(run_paths, on_result=record)
    finally:
        if journal is not None:
            journal.close()
    outcomes.sort(key=lambda result: result.path)
    return BatchResult(results=outcomes, stats=merged, resumed=resumed_count)


def discover_documents(
    directory: str,
    *,
    pattern: str = "*.xml",
    recursive: bool = False,
) -> list[str]:
    """Find ``pattern`` documents under ``directory``, deterministically.

    Non-file entries (subdirectories, sockets, dangling symlinks) are
    skipped even when their names match.  With ``recursive=True`` the
    whole tree is walked; ordering is always the sorted full path, so
    sharded corpora in nested directories enumerate identically on
    every run — which is what makes checkpointed resumption and
    jobs-independent result ordering possible.  A missing or unreadable
    ``directory`` raises :class:`~repro.errors.BatchError` — the batch
    cannot start, which is different from a per-document failure.
    """
    if not os.path.isdir(directory):
        raise BatchError(
            f"input directory {directory!r} does not exist or is not a "
            "directory"
        )
    paths: list[str] = []
    if recursive:
        try:
            walker = os.walk(directory, onerror=_raise_walk_error)
            for root, dirnames, filenames in walker:
                dirnames.sort()
                for name in filenames:
                    if fnmatch.fnmatch(name, pattern):
                        path = os.path.join(root, name)
                        if os.path.isfile(path):
                            paths.append(path)
        except _WalkError as error:
            raise BatchError(
                f"cannot read input directory {error.args[0]!r}: "
                f"{error.args[1]}"
            ) from None
    else:
        try:
            names = os.listdir(directory)
        except OSError as error:
            raise BatchError(
                f"cannot read input directory {directory!r}: {error}"
            ) from error
        paths = [
            path
            for name in names
            if fnmatch.fnmatch(name, pattern)
            and os.path.isfile(path := os.path.join(directory, name))
        ]
    return sorted(paths)


class _WalkError(Exception):
    pass


def _raise_walk_error(error: OSError) -> None:
    raise _WalkError(getattr(error, "filename", "?"), error)


def validate_directory(
    pair: SchemaPair,
    directory: str,
    *,
    pattern: str = "*.xml",
    recursive: bool = False,
    jobs: int = 1,
    collect_stats: bool = False,
    limits: Optional[Limits] = None,
    retries: int = 0,
    artifact_path: Optional[str] = None,
    fleet: Optional[WorkerFleet] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    chunk_size: Optional[int] = None,
) -> BatchResult:
    """Validate every ``pattern`` file under ``directory``.

    Discovery is :func:`discover_documents` (top-level by default,
    ``recursive=True`` for nested corpora); everything else is
    :func:`validate_batch`, including fleet reuse and checkpointed
    resumption.
    """
    paths = discover_documents(
        directory, pattern=pattern, recursive=recursive
    )
    return validate_batch(
        pair,
        paths,
        jobs=jobs,
        collect_stats=collect_stats,
        limits=limits,
        retries=retries,
        artifact_path=artifact_path,
        fleet=fleet,
        checkpoint=checkpoint,
        resume=resume,
        chunk_size=chunk_size,
    )
