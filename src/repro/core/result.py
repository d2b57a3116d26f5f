"""Validation outcomes and instrumentation counters.

Every validator in :mod:`repro.core` and :mod:`repro.baselines` reports
through these types so the benchmark harness can compare them — the
node-visit counters are what reproduces **Table 3** of the paper.

A DOM walk counts only when handed a :class:`ValidationStats`
(``collect_stats=True``, the default): each count sits behind a
``stats is not None`` test in the one walk that also serves uncounted
runs.  The fused kernel always counts.  On every document both accept,
the tree cast and the kernel agree on every counter but
``bytes_skipped`` and the memo ones
(``tests/core/test_kernel_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional


@dataclass
class ValidationStats:
    """Work counters accumulated during one validation run.

    Attributes:
        elements_visited: element nodes whose validation was actually
            performed (entered, not skipped).
        text_nodes_visited: χ leaves whose value was examined.
        content_symbols_scanned: child labels fed to content-model
            automata.
        simple_values_checked: text values checked against a simple type.
        subtrees_skipped: subtrees skipped thanks to subsumption
            (``τ ≤ τ'``).
        disjoint_rejections: validations cut short by disjointness
            (``τ ⊘ τ'``).
        early_content_decisions: content-model scans decided by an
            IA/IR state before the end of the child sequence (an IA
            state first reached after the last child accepts, but is
            not early).
        deltas_seen: Δ-labelled nodes encountered (with-modifications
            runs only).
        memo_hits: subtrees skipped because a structurally identical
            subtree already validated under the same type pair
            (:mod:`repro.core.memo`).
        memo_misses: memo lookups that found nothing.
        memo_evictions: LRU entries dropped to admit new verdicts.
        bytes_skipped: source characters of subsumed subtrees that a
            trusted text cast (``trusted=True``) byte-searched past
            (never tokenized, entity-decoded, or interned); 0 when the
            kernel drains them, as it does by default.
        parse_seconds: wall-clock time spent reading and parsing input
            to a tree, when the caller timed a separate parse (batch
            ``collect_stats`` runs on the ``memo_size`` DOM route);
            0.0 otherwise.
        validate_seconds: wall-clock time spent in the validator proper,
            when the caller timed it (batch ``collect_stats`` runs and
            the CLI's ``--profile-parse``).  A fused kernel pass reads,
            parses and validates a file in one go, so it bills
            everything here.

    Every counter is additive, so :meth:`merge` is the single
    aggregation primitive — the batch driver folds per-document (and
    per-worker) stats into one fleet-wide total with it, and the merged
    total of a parallel run equals the sequential sum exactly.
    """

    elements_visited: int = 0
    text_nodes_visited: int = 0
    content_symbols_scanned: int = 0
    simple_values_checked: int = 0
    subtrees_skipped: int = 0
    disjoint_rejections: int = 0
    early_content_decisions: int = 0
    deltas_seen: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_evictions: int = 0
    bytes_skipped: int = 0
    #: Wall-clock fields are excluded from equality: two runs doing the
    #: same work (equal counters) compare equal regardless of timing.
    parse_seconds: float = field(default=0.0, compare=False)
    validate_seconds: float = field(default=0.0, compare=False)

    @property
    def nodes_visited(self) -> int:
        """Total nodes traversed — the Table 3 metric."""
        return self.elements_visited + self.text_nodes_visited

    @property
    def memo_lookups(self) -> int:
        """Total verdict-cache probes (hits + misses)."""
        return self.memo_hits + self.memo_misses

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of memo lookups that skipped a subtree, in [0, 1]."""
        lookups = self.memo_hits + self.memo_misses
        return self.memo_hits / lookups if lookups else 0.0

    def merge(self, other: "ValidationStats") -> None:
        for counter in fields(self):
            setattr(
                self,
                counter.name,
                getattr(self, counter.name) + getattr(other, counter.name),
            )

    def as_dict(self) -> dict[str, float]:
        """Counters as a plain dict (benchmark JSON emission and the
        batch checkpoint journal)."""
        return {counter.name: getattr(self, counter.name)
                for counter in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ValidationStats":
        """Rebuild stats persisted by :meth:`as_dict`.  Field-generic
        and tolerant of unknown keys, so journals written before a
        counter was added still load."""
        stats = cls()
        names = {counter.name for counter in fields(cls)}
        for name, value in data.items():
            if name in names:
                setattr(stats, name, value)
        return stats


@dataclass
class ValidationReport:
    """The outcome of validating one document.

    ``reason`` explains a failure (with the Dewey path of the offending
    node where available); it is empty for valid documents.
    """

    valid: bool
    reason: str = ""
    path: str = ""
    stats: ValidationStats = field(default_factory=ValidationStats)

    def __bool__(self) -> bool:
        return self.valid

    @classmethod
    def failure(
        cls,
        reason: str,
        path: str = "",
        stats: Optional[ValidationStats] = None,
    ) -> "ValidationReport":
        return cls(
            valid=False,
            reason=reason,
            path=path,
            stats=stats or ValidationStats(),
        )

    @classmethod
    def success(
        cls, stats: Optional[ValidationStats] = None
    ) -> "ValidationReport":
        return cls(valid=True, stats=stats or ValidationStats())

    def __repr__(self) -> str:
        verdict = "valid" if self.valid else f"invalid: {self.reason}"
        return f"ValidationReport({verdict}, nodes={self.stats.nodes_visited})"
