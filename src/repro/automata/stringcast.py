"""Schema cast validation for strings (Section 4.2/4.3).

:class:`StringCastValidator` preprocesses a *source* DFA ``a`` and a
*target* DFA ``b`` once, then answers, for strings promised to be in
``L(a)``:

* :meth:`validate` — is the (unmodified) string in ``L(b)``?  Scanned
  with the pair immediate decision automaton ``c_immed``; optimal in the
  number of symbols examined (Proposition 3).
* :meth:`validate_modified` — after edits, is the new string in
  ``L(b)``?  Implements the forward algorithm of Section 4.3 (modified
  prefix via ``b_immed``, unchanged suffix via ``c_immed`` from the pair
  state) and the symmetric reverse-automaton variant for edits clustered
  at the end, choosing whichever scans less (``strategy="auto"``).

Counters on the returned :class:`CastScanResult` record how many symbols
each automaton consumed, which the benchmark harness aggregates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.automata.compiled import CompiledImmediate, SymbolTable
from repro.automata.dfa import DFA, harmonize
from repro.automata.edits import common_affix_lengths
from repro.automata.immediate import (
    Decision,
    ImmediateDecisionAutomaton,
    ScanResult,
)
from repro.automata.nfa import reverse_dfa


class Strategy(enum.Enum):
    """Scanning strategies for the with-modifications cast."""

    FORWARD = "forward"
    REVERSE = "reverse"
    PLAIN = "plain"
    AUTO = "auto"


@dataclass(frozen=True)
class CastScanResult:
    """Outcome of a string cast check.

    Attributes:
        accepted: is the string in the target language?
        decision: how the deciding automaton terminated.
        target_symbols: symbols scanned on target-only automata (b_immed).
        pair_symbols: symbols scanned on the pair automaton (c_immed).
        source_symbols: symbols of the *original* string re-run on the
            source automaton to recover the junction state (bookkeeping
            cost; zero when the caller supplies the state).
        strategy: the strategy actually used.
    """

    accepted: bool
    decision: Decision
    target_symbols: int = 0
    pair_symbols: int = 0
    source_symbols: int = 0
    strategy: Strategy = Strategy.FORWARD

    @property
    def symbols_scanned(self) -> int:
        """Total symbols examined on the *modified/current* string."""
        return self.target_symbols + self.pair_symbols


class StringCastValidator:
    """Preprocessed source/target DFA pair for repeated string casts."""

    def __init__(
        self,
        source: DFA,
        target: DFA,
        *,
        symbols: Optional[SymbolTable] = None,
    ):
        self.source, self.target = harmonize(source, target)
        #: Definition 7 immediate decision automaton on the intersection.
        self.c_immed = ImmediateDecisionAutomaton.from_pair(
            self.source, self.target
        )
        #: Definition 6 automaton for scanning freshly modified regions.
        self.b_immed = ImmediateDecisionAutomaton.from_dfa(self.target)
        #: True when the initial pair state is already subsumed — every
        #: source-valid string is target-valid, no scanning ever needed.
        self.always_accepts = self.c_immed.dfa.start in self.c_immed.ia
        #: True when the initial pair state is already dead — no
        #: source-valid string can be target-valid.
        self.never_accepts = self.c_immed.dfa.start in self.c_immed.ir
        #: The dense-table compilation of ``c_immed`` over the shared
        #: interning table (the kernel's records read it); ``None`` when
        #: no table was supplied (the standalone construction — callers
        #: then scan the dict rows).
        self.c_immed_compiled: Optional[CompiledImmediate] = None
        if symbols is not None:
            self.c_immed_compiled = CompiledImmediate.from_immediate(
                self.c_immed, symbols
            )
        self._reverse: Optional[_ReverseMachinery] = None

    # -- lazily built reverse machinery -------------------------------------

    @property
    def reverse_machinery(self) -> "_ReverseMachinery":
        """Reverse-automaton pipeline, built on first use (footnote 3:
        the reverse of a DFA may be nondeterministic, so both reverses
        are determinized once here)."""
        if self._reverse is None:
            rev_source = reverse_dfa(self.source)
            rev_target = reverse_dfa(self.target)
            self._reverse = _ReverseMachinery(
                rev_source,
                rev_target,
                ImmediateDecisionAutomaton.from_pair(rev_source, rev_target),
                ImmediateDecisionAutomaton.from_dfa(rev_target),
            )
        return self._reverse

    # -- Section 4.2: no modifications ---------------------------------------

    def validate(self, word: Sequence[str]) -> CastScanResult:
        """Decide ``word ∈ L(target)`` given the promise ``word ∈ L(source)``.

        Runs ``c_immed`` from its start state; early accept on subsumed
        pair states, early reject on dead pair states.
        """
        result = self.c_immed.scan(word)
        return CastScanResult(
            accepted=result.accepted,
            decision=result.decision,
            pair_symbols=result.symbols_scanned,
            strategy=Strategy.FORWARD,
        )

    # -- Section 4.3: with modifications --------------------------------------

    def validate_modified(
        self,
        original: Sequence[str],
        modified: Sequence[str],
        *,
        strategy: Strategy = Strategy.AUTO,
        prefix: Optional[int] = None,
        suffix: Optional[int] = None,
    ) -> CastScanResult:
        """Decide ``modified ∈ L(target)`` given ``original ∈ L(source)``.

        ``prefix``/``suffix`` are the untouched common prefix/suffix
        lengths if the caller tracked them during editing (e.g. via
        :class:`~repro.automata.edits.EditScript`); otherwise they are
        recomputed from the two strings.
        """
        if prefix is None or suffix is None:
            computed_prefix, computed_suffix = common_affix_lengths(
                original, modified
            )
            prefix = computed_prefix if prefix is None else prefix
            suffix = computed_suffix if suffix is None else suffix

        if strategy is Strategy.AUTO:
            strategy = self._choose_strategy(
                len(original), len(modified), prefix, suffix
            )
        if strategy is Strategy.FORWARD:
            return self._forward(original, modified, suffix)
        if strategy is Strategy.REVERSE:
            return self._reverse_scan(original, modified, prefix)
        return self._plain(modified)

    @staticmethod
    def _choose_strategy(
        original_len: int, modified_len: int, prefix: int, suffix: int
    ) -> Strategy:
        """Pick the direction that must rescan fewer modified symbols.

        Forward rescans ``modified_len - suffix`` symbols before reaching
        reusable territory; reverse rescans ``modified_len - prefix``.
        When neither affix is usable, a plain target scan avoids the
        source-automaton bookkeeping entirely (the paper: "in case there
        is no advantage ... simply scan with b_immed").
        """
        if suffix == 0 and prefix == 0:
            return Strategy.PLAIN
        if suffix >= prefix:
            return Strategy.FORWARD
        return Strategy.REVERSE

    def _plain(self, modified: Sequence[str]) -> CastScanResult:
        result = self.b_immed.scan(modified)
        return CastScanResult(
            accepted=result.accepted,
            decision=result.decision,
            target_symbols=result.symbols_scanned,
            strategy=Strategy.PLAIN,
        )

    def _forward(
        self,
        original: Sequence[str],
        modified: Sequence[str],
        suffix: int,
    ) -> CastScanResult:
        """Steps 1–4 of Section 4.3, scanning left to right."""
        junction = len(modified) - suffix  # first index of the shared tail
        head = modified[:junction]
        head_result = self.b_immed.scan(head)
        if head_result.early or not suffix:
            # Decided on the modified region alone, or nothing reusable:
            # when the head scan ran to completion with no suffix, the
            # at-end verdict already covers the whole string.
            return CastScanResult(
                accepted=head_result.accepted,
                decision=head_result.decision,
                target_symbols=head_result.symbols_scanned,
                strategy=Strategy.FORWARD,
            )
        # Replay the original's head on the source automaton to find q_a.
        source_head = len(original) - suffix
        q_a = self.source.run(original[:source_head])
        start = self.c_immed.pair_state(q_a, head_result.state)
        tail_result = self.c_immed.scan(modified[junction:], start=start)
        return CastScanResult(
            accepted=tail_result.accepted,
            decision=tail_result.decision,
            target_symbols=head_result.symbols_scanned,
            pair_symbols=tail_result.symbols_scanned,
            source_symbols=source_head,
            strategy=Strategy.FORWARD,
        )

    def _reverse_scan(
        self,
        original: Sequence[str],
        modified: Sequence[str],
        prefix: int,
    ) -> CastScanResult:
        """The symmetric algorithm on the reverse automata: the string
        belongs to L(b) iff its reversal belongs to L(reverse(b))."""
        machinery = self.reverse_machinery
        head = list(reversed(modified[prefix:]))  # modified tail, reversed
        head_result = machinery.target_immed.scan(head)
        if head_result.early or not prefix:
            return CastScanResult(
                accepted=head_result.accepted,
                decision=head_result.decision,
                target_symbols=head_result.symbols_scanned,
                strategy=Strategy.REVERSE,
            )
        source_tail = list(reversed(original[prefix:]))
        q_a = machinery.source.run(source_tail)
        start = machinery.pair_immed.pair_state(q_a, head_result.state)
        shared = list(reversed(modified[:prefix]))
        tail_result = machinery.pair_immed.scan(shared, start=start)
        return CastScanResult(
            accepted=tail_result.accepted,
            decision=tail_result.decision,
            target_symbols=head_result.symbols_scanned,
            pair_symbols=tail_result.symbols_scanned,
            source_symbols=len(source_tail),
            strategy=Strategy.REVERSE,
        )


@dataclass
class _ReverseMachinery:
    """Determinized reverse automata and their immediate derivations."""

    source: DFA
    target: DFA
    pair_immed: ImmediateDecisionAutomaton
    target_immed: ImmediateDecisionAutomaton


class StringUpdateRevalidator(StringCastValidator):
    """The single-schema update problem of Section 4.3 (``b = a``).

    After edits, the unchanged suffix re-enters the intersection
    automaton on the diagonal ``(q, q)``, every diagonal state being in
    ``IA`` (``L(q) ⊆ L(q)``) — so the scan accepts the moment the target
    run re-synchronizes with the original's state at the junction.
    """

    def __init__(self, dfa: DFA):
        super().__init__(dfa, dfa)

    def revalidate(
        self,
        original: Sequence[str],
        modified: Sequence[str],
        *,
        strategy: Strategy = Strategy.AUTO,
    ) -> CastScanResult:
        return self.validate_modified(original, modified, strategy=strategy)
