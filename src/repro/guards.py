"""Resource guards: limits, deadlines, and the ambient guard context.

The paper's cost model assumes well-formed inputs and tractable
schemas.  A production revalidation service cannot: crafted documents
can nest arbitrarily deep (``RecursionError`` in the recursive-descent
parser), balloon entity expansions, or simply be enormous; crafted
content models can blow up subset construction and the pair products
exponentially.  This module centralizes the defence:

* :class:`Limits` — one immutable bundle of every knob (document bytes,
  tree depth, entity expansions, automaton states, per-document
  wall-clock deadline).  ``None`` disables an individual guard;
  :data:`DEFAULT_LIMITS` is permissive enough for every legitimate
  workload in the repository while stopping each known blowup.
* :class:`Deadline` — a cheap counter-amortized wall-clock token: hot
  loops call :meth:`Deadline.tick` once per element/event, and only
  every :data:`Deadline.stride`-th tick touches ``time.monotonic``.
* the *ambient* limits — a process-wide default consulted by code too
  deep to thread a parameter through (automaton construction inside
  schema compilation).  Per-document entry points (parsers,
  validators, the batch driver) take an explicit ``limits`` argument
  and fall back to the ambient value.

Every guard violation raises a :class:`repro.errors.ResourceLimitError`
subclass, keeping the failure inside the ``ReproError`` taxonomy that
callers (and the batch driver's per-document error capture) already
handle.  See ``docs/ROBUSTNESS.md`` for the full contract.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.errors import (
    DeadlineExceededError,
    DocumentTooDeepError,
    DocumentTooLargeError,
)

__all__ = [
    "Limits",
    "Deadline",
    "DEFAULT_LIMITS",
    "UNLIMITED",
    "get_limits",
    "set_limits",
    "limits_scope",
    "resolve_limits",
    "remaining_limits",
    "check_document_size",
    "read_document",
    "check_depth",
    "state_budget",
]


@dataclass(frozen=True)
class Limits:
    """Immutable resource-limit configuration.

    Each field bounds one failure mode; ``None`` disables that guard.
    The defaults are deliberately generous — roughly 100× any document
    or schema in the test corpus — so they never fire on legitimate
    input, yet every known pathological input hits one of them long
    before the process hangs or dies.
    """

    #: Maximum document size (bytes on disk, characters for in-memory
    #: strings).  Checked before parsing starts.
    max_document_bytes: Optional[int] = 64 * 1024 * 1024
    #: Maximum element nesting depth.  Must stay comfortably below the
    #: level at which the recursive-descent parser would exhaust the
    #: Python stack (~2 frames per level against the default
    #: recursion limit of 1000).
    max_tree_depth: Optional[int] = 200
    #: Maximum entity/character-reference expansions per document.
    max_entity_expansions: Optional[int] = 100_000
    #: Maximum states any single automaton construction may create
    #: (subset construction, products, Glushkov positions).
    max_dfa_states: Optional[int] = 50_000
    #: Per-document wall-clock budget in seconds; ``None`` (the
    #: default) disables deadline checking entirely, keeping the hot
    #: path to a single ``is not None`` test.
    deadline_seconds: Optional[float] = None
    #: Maximum entries any single validation memo
    #: (:class:`repro.core.memo.ValidationMemo`) may hold; a requested
    #: memo capacity is clamped to this.  Entries are small tuples, so
    #: the default bounds memo memory at roughly a hundred megabytes.
    max_memo_entries: Optional[int] = 1_000_000

    def __post_init__(self) -> None:
        for name in (
            "max_document_bytes",
            "max_tree_depth",
            "max_entity_expansions",
            "max_dfa_states",
            "max_memo_entries",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 or None, got {value}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0 or None, "
                f"got {self.deadline_seconds}"
            )

    def with_overrides(self, **changes) -> "Limits":
        """A copy with the given fields replaced (CLI knob plumbing)."""
        return replace(self, **changes)

    def deadline(self) -> Optional["Deadline"]:
        """A fresh per-document deadline, or ``None`` when unlimited."""
        return Deadline.start(self.deadline_seconds)


#: The guard configuration active when callers pass ``limits=None``.
DEFAULT_LIMITS = Limits()

#: Every guard disabled — the pre-guard behaviour, for callers that
#: genuinely need it (trusted mega-documents, stress benchmarks).
UNLIMITED = Limits(
    max_document_bytes=None,
    max_tree_depth=None,
    max_entity_expansions=None,
    max_dfa_states=None,
    deadline_seconds=None,
    max_memo_entries=None,
)

_ambient: Limits = DEFAULT_LIMITS


def get_limits() -> Limits:
    """The process-wide ambient limits."""
    return _ambient


def set_limits(limits: Limits) -> Limits:
    """Replace the ambient limits; returns the previous value."""
    global _ambient
    previous = _ambient
    _ambient = limits
    return previous


@contextlib.contextmanager
def limits_scope(limits: Limits) -> Iterator[Limits]:
    """Temporarily install ``limits`` as the ambient configuration."""
    previous = set_limits(limits)
    try:
        yield limits
    finally:
        set_limits(previous)


def resolve_limits(limits: Optional[Limits]) -> Limits:
    """``limits`` itself, or the ambient configuration when ``None``."""
    return _ambient if limits is None else limits


class Deadline:
    """Counter-amortized wall-clock deadline token.

    One token covers one unit of work (typically one document: parse
    plus validate).  Hot loops call :meth:`tick` per element or event;
    only every :data:`stride`-th tick reads the clock, so the guard
    costs one integer increment and compare per call.  :meth:`check`
    reads the clock unconditionally (use at loop boundaries).
    """

    __slots__ = ("expires_at", "budget", "_count")

    #: Ticks between clock reads.  Small enough that even a severely
    #: skewed workload overshoots its deadline by only a few hundred
    #: elements' worth of processing.
    stride = 128

    def __init__(self, seconds: float):
        self.budget = seconds
        self.expires_at = time.monotonic() + seconds
        self._count = 0

    @classmethod
    def start(cls, seconds: Optional[float]) -> Optional["Deadline"]:
        """A running deadline, or ``None`` when ``seconds`` is ``None``."""
        return None if seconds is None else cls(seconds)

    def tick(self) -> None:
        """Amortized check: raises on expiry every ``stride``-th call."""
        self._count += 1
        if self._count >= self.stride:
            self._count = 0
            self.check()

    def check(self) -> None:
        """Unamortized check: raise if the deadline has passed."""
        if time.monotonic() > self.expires_at:
            raise DeadlineExceededError(
                f"per-document deadline of {self.budget:g}s exceeded"
            )

    def expired(self) -> bool:
        return time.monotonic() > self.expires_at

    def remaining(self) -> float:
        """Seconds left before expiry (never negative).

        This is how a *residual* budget propagates downstream: a caller
        that spent part of its deadline on admission or IO derives the
        child's ``Limits.deadline_seconds`` from ``remaining()`` instead
        of restarting the clock — the HTTP service hands exactly the
        unspent request budget to parsing and validation this way.
        """
        return max(0.0, self.expires_at - time.monotonic())


def remaining_limits(limits: Limits, deadline: Optional[Deadline]) -> Limits:
    """``limits`` whose ``deadline_seconds`` is what is left of
    ``deadline``.

    A request or document gets one deadline for all of its passes.  A
    later pass whose API takes no ``deadline=`` token (a fallback
    pass, a validator built per request) starts its own clock from
    ``Limits.deadline_seconds``; handing it this copy keeps the whole
    unit of work inside one budget.  Returns ``limits`` unchanged when
    ``deadline`` is ``None``; raises :class:`DeadlineExceededError`
    once nothing is left.
    """
    if deadline is None:
        return limits
    left = deadline.remaining()
    if left <= 0:
        raise DeadlineExceededError(
            f"per-document deadline of {deadline.budget:g}s exceeded"
        )
    return limits.with_overrides(deadline_seconds=left)


# -- shared guard checks ---------------------------------------------------------


def check_document_size(
    size: int, limits: Limits, *, what: str = "document"
) -> None:
    """Raise :class:`DocumentTooLargeError` when ``size`` exceeds the
    configured byte bound."""
    bound = limits.max_document_bytes
    if bound is not None and size > bound:
        raise DocumentTooLargeError(
            f"{what} is {size} bytes, exceeding the "
            f"max_document_bytes limit of {bound}"
        )


def read_document(path: str, limits: Limits) -> str:
    """Read a UTF-8 document file, size-checked against its on-disk
    byte count *before* anything is buffered, so an oversized file is
    rejected (naming the file) without being read."""
    check_document_size(os.path.getsize(path), limits, what=f"file {path!r}")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def check_depth(depth: int, limits: Limits, *, what: str = "element") -> None:
    """Raise :class:`DocumentTooDeepError` when nesting exceeds the
    configured depth bound."""
    bound = limits.max_tree_depth
    if bound is not None and depth > bound:
        raise DocumentTooDeepError(
            f"{what} nesting depth {depth} exceeds the "
            f"max_tree_depth limit of {bound}"
        )


def state_budget(limits: Optional[Limits] = None) -> Optional[int]:
    """The automaton state budget of ``limits`` (ambient by default)."""
    return resolve_limits(limits).max_dfa_states
