"""Span recorder for the ledger's traced run.

Spans are recorded by the ledger's own code around calls into the
program's public functions, so the program carries no instrumentation.
They stay in memory and are written out once, when the run ends.

A span's *self time* is its duration minus the part of its interval
covered by its children.  Children may overlap each other (spans from
concurrent client threads), so the covered part is the union of their
intervals, clipped to the parent.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from statistics import median
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int
    workload: str
    item: Optional[str] = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` inside ``[start, end]``."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class Recorder:
    """Collects spans for one workload.  Thread-safe: each thread keeps
    its own stack of open spans, which supplies the parent of the next
    one it opens."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, item: Optional[str] = None) -> Iterator[int]:
        """Time the enclosed block as a child of the innermost span open
        in this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._append(Span(span_id, parent, name, start, end,
                              self.workload, item))

    def add(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        *,
        parent: Optional[int] = None,
        item: Optional[str] = None,
    ) -> int:
        """Record an already finished span (timed elsewhere, e.g. by a
        load-generator thread)."""
        with self._lock:
            span_id = next(self._ids)
        self._append(Span(span_id, parent, name, start_ns, end_ns,
                          self.workload, item))
        return span_id

    def _append(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def self_ns(self) -> dict[int, int]:
        """Self time of every span, by span id."""
        children: dict[int, list[tuple[int, int]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start_ns, span.end_ns)
                )
        return {
            span.id: span.duration_ns - covered_ns(
                span.start_ns, span.end_ns, children.get(span.id, [])
            )
            for span in self.spans
        }

    def under(self, ancestor: int) -> list[Span]:
        """Every span below ``ancestor`` (not including it)."""
        parents = {span.id: span.parent for span in self.spans}
        out = []
        for span in self.spans:
            parent = span.parent
            while parent is not None and parent != ancestor:
                parent = parents.get(parent)
            if parent == ancestor:
                out.append(span)
        return out

    def dump(self, path: str, **header) -> None:
        """Write the trace: header fields, every span, and self time
        per span name."""
        self_times = self.self_ns()
        by_name: dict[str, int] = {}
        for span in self.spans:
            by_name[span.name] = by_name.get(span.name, 0) + self_times[span.id]
        record = {
            **header,
            "workload": self.workload,
            "self_ns_by_name": dict(sorted(by_name.items())),
            "spans": [
                {**asdict(span), "self_ns": self_times[span.id]}
                for span in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


def span_cost_ns(count: int = 20000, repeats: int = 5) -> float:
    """Measured cost of recording one span, in nanoseconds (median of
    ``repeats`` batches of ``count`` empty spans)."""
    costs = []
    for _ in range(repeats):
        recorder = Recorder("cost")
        start = time.perf_counter_ns()
        for _ in range(count):
            with recorder.span("empty"):
                pass
        costs.append((time.perf_counter_ns() - start) / count)
    return median(costs)


def overhead_frac(untraced_s: float, operations: int, cost_ns: float) -> float:
    """Share by which one span per operation slows a pass of the main
    loop that takes ``untraced_s`` seconds for ``operations``.

    Timing a traced pass against an untraced one cannot resolve this:
    the spans add microseconds to a pass whose wall time varies by
    several percent from pass to pass.  So the cost of a span is
    measured on its own and charged to every operation."""
    return operations * cost_ns * 1e-9 / untraced_s
