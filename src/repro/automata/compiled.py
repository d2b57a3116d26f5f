"""Dense compiled automaton tables over interned label alphabets.

The dict-row :class:`~repro.automata.dfa.DFA` representation is the
right shape for the *constructions* (products, minimization, reverse
reachability), but it makes the runtime hot loops pay a string hash per
scanned symbol.  Everything here is a post-construction compilation
step — purely static, derived from automata that depend only on the
schema pair, so the artifacts amortize over every document validated:

* :class:`SymbolTable` — a bijective interning of element labels to
  dense integers ``0..k-1``.  One table is shared per schema (its own
  alphabet) or per schema pair (the union alphabet), so one string
  lookup per *child label* replaces one per *automaton step*.
* :class:`CompiledDFA` — a complete DFA as one contiguous ``array('i')``
  in state-major order: the successor of state ``q`` on symbol ``sid``
  is ``flat[q * width + sid]``, with ``-1`` as the reject sentinel for
  symbols outside the underlying DFA's alphabet (the table may cover a
  superset alphabet).  The inner step is one index computation plus one
  load — no per-state tuple object, no second indirection.
* :class:`CompiledImmediate` — an immediate decision automaton
  (Section 4) with the same flat transition encoding plus one ``bytes``
  object of per-state flag bits (``FINAL``/``IA``/``IR``), so the
  early-decision test is a single byte load and mask.

``rows``/``finals_mask``/``ia_mask``/``ir_mask`` remain available as
lazily derived tuple views for construction-time code, tests and
introspection; hot paths walk ``flat``/``flags`` directly.

The interning is bijective, so every compiled run recognizes exactly
the language of the source automaton (word accepted iff its image under
the interning is accepted) — the constructions stay on the paper's
label alphabets and only the execution changes representation.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional, Sequence

from repro.automata.dfa import DFA
from repro.automata.immediate import ImmediateDecisionAutomaton

#: Per-state flag bits in the ``flags`` bytes of compiled machines.
FLAG_FINAL = 1
FLAG_IA = 2
FLAG_IR = 4


class SymbolTable:
    """A bijective label → dense-int interning.

    Construction order fixes the ids; callers that want deterministic
    artifacts (content hashing, cached pickles) should pass sorted
    labels.  Unknown labels encode to ``-1``, which every compiled
    runner treats as an immediate mismatch.
    """

    __slots__ = ("labels", "ids")

    def __init__(self, labels: Iterable[str]):
        self.labels: tuple[str, ...] = tuple(dict.fromkeys(labels))
        self.ids: dict[str, int] = {
            label: index for index, label in enumerate(self.labels)
        }

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.ids

    def id(self, label: str) -> int:
        """The id of ``label``, or ``-1`` when not interned."""
        return self.ids.get(label, -1)

    def label(self, symbol_id: int) -> str:
        return self.labels[symbol_id]

    def encode(self, word: Iterable[str]) -> list[int]:
        """Intern a word; unknown labels become ``-1``."""
        ids = self.ids
        return [ids.get(symbol, -1) for symbol in word]

    def __repr__(self) -> str:
        return f"SymbolTable({len(self.labels)} labels)"


def _flatten(rows: Sequence[Sequence[int]]) -> tuple[array, int, int]:
    """``(flat, width, num_states)`` for a sequence of equal-width rows."""
    rows = [tuple(row) for row in rows]
    num_states = len(rows)
    width = len(rows[0]) if rows else 0
    flat = array("i")
    for row in rows:
        if len(row) != width:
            raise ValueError("transition rows must share one width")
        flat.extend(row)
    return flat, width, num_states


class _FlatMachine:
    """The layout both compiled machines share: transitions in ``flat``
    (state-major, ``width`` symbols per row), one ``flags`` byte per
    state, a ``start`` state, and lazily derived tuple views for
    construction and test code — the hot walks never materialize
    them."""

    __slots__ = ("symbols", "flat", "width", "flags", "start",
                 "_rows", "_finals")

    def _reset_views(self) -> None:
        self._rows: Optional[tuple[tuple[int, ...], ...]] = None
        self._finals: Optional[tuple[bool, ...]] = None

    def __getstate__(self):
        return (self.symbols, self.flat, self.width, self.flags, self.start)

    def __setstate__(self, state):
        self.symbols, self.flat, self.width, self.flags, self.start = state
        self._reset_views()

    @property
    def num_states(self) -> int:
        return len(self.flags)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Tuple-of-tuples view of the flat table (derived lazily)."""
        rows = self._rows
        if rows is None:
            flat, width = self.flat, self.width
            rows = tuple(
                tuple(flat[q * width:(q + 1) * width])
                for q in range(len(self.flags))
            )
            self._rows = rows
        return rows

    def _flag_view(self, bit: int) -> tuple[bool, ...]:
        return tuple(bool(f & bit) for f in self.flags)

    @property
    def finals_mask(self) -> tuple[bool, ...]:
        if self._finals is None:
            self._finals = self._flag_view(FLAG_FINAL)
        return self._finals

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.num_states} states, "
            f"{len(self.symbols)} symbols)"
        )


class CompiledDFA(_FlatMachine):
    """A complete DFA compiled to one flat integer transition table.

    The successor of state ``q`` on the symbol with id ``sid`` is
    ``flat[q * width + sid]``, or ``-1`` when that symbol is outside
    the underlying DFA's alphabet (possible when the symbol table
    covers a superset — e.g. the pair alphabet against one schema's
    content model).  ``flags`` holds :data:`FLAG_FINAL` per state.
    """

    __slots__ = ()

    def __init__(
        self,
        symbols: SymbolTable,
        rows: Sequence[Sequence[int]],
        start: int,
        finals_mask: Sequence[bool],
    ):
        self.symbols = symbols
        self.flat, self.width, _ = _flatten(rows)
        self.start = start
        self.flags = bytes(
            FLAG_FINAL if final else 0 for final in finals_mask
        )
        self._reset_views()

    @classmethod
    def from_dfa(cls, dfa: DFA, symbols: SymbolTable) -> "CompiledDFA":
        rows = tuple(
            tuple(row.get(label, -1) for label in symbols.labels)
            for row in dfa.transitions
        )
        finals = dfa.finals
        mask = tuple(q in finals for q in range(dfa.num_states))
        return cls(symbols, rows, dfa.start, mask)

    def run(self, ids: Iterable[int], start: Optional[int] = None) -> int:
        """The state reached on an interned word, or ``-1`` once any
        symbol falls outside the automaton's alphabet."""
        state = self.start if start is None else start
        flat = self.flat
        width = self.width
        for sid in ids:
            if sid < 0:
                return -1
            state = flat[state * width + sid]
            if state < 0:
                return -1
        return state

    def run_from(self, state: int, ids: Iterable[int]) -> int:
        """``run`` with an explicit start state (mid-scan resumption)."""
        return self.run(ids, state)

    def accepts(self, ids: Iterable[int]) -> bool:
        state = self.run(ids)
        return state >= 0 and bool(self.flags[state] & FLAG_FINAL)


class CompiledImmediate(_FlatMachine):
    """An immediate decision automaton compiled to flat tables.

    Transitions share :class:`CompiledDFA`'s flat layout; ``flags``
    packs :data:`FLAG_FINAL`/:data:`FLAG_IA`/:data:`FLAG_IR` per state
    so the per-symbol early-decision check is one byte load and mask.
    ``decide``/``scan`` replicate
    :meth:`~repro.automata.immediate.ImmediateDecisionAutomaton.scan`
    exactly — IA checked before IR, both before consuming the symbol,
    out-of-alphabet symbols an immediate reject — so the two
    representations are interchangeable verdict- and count-wise.
    """

    __slots__ = ("_ia", "_ir")

    def __init__(
        self,
        symbols: SymbolTable,
        rows: Sequence[Sequence[int]],
        start: int,
        finals_mask: Sequence[bool],
        ia_mask: Sequence[bool],
        ir_mask: Sequence[bool],
    ):
        self.symbols = symbols
        self.flat, self.width, num_states = _flatten(rows)
        self.start = start
        finals = tuple(finals_mask)
        ia = tuple(ia_mask)
        ir = tuple(ir_mask)
        self.flags = bytes(
            (FLAG_FINAL if finals[q] else 0)
            | (FLAG_IA if ia[q] else 0)
            | (FLAG_IR if ir[q] else 0)
            for q in range(num_states)
        )
        self._reset_views()

    def _reset_views(self) -> None:
        super()._reset_views()
        self._ia: Optional[tuple[bool, ...]] = None
        self._ir: Optional[tuple[bool, ...]] = None

    @classmethod
    def from_immediate(
        cls, immed: ImmediateDecisionAutomaton, symbols: SymbolTable
    ) -> "CompiledImmediate":
        dfa = immed.dfa
        rows = tuple(
            tuple(row.get(label, -1) for label in symbols.labels)
            for row in dfa.transitions
        )
        n = dfa.num_states
        return cls(
            symbols,
            rows,
            dfa.start,
            tuple(q in dfa.finals for q in range(n)),
            tuple(q in immed.ia for q in range(n)),
            tuple(q in immed.ir for q in range(n)),
        )

    @property
    def ia_mask(self) -> tuple[bool, ...]:
        if self._ia is None:
            self._ia = self._flag_view(FLAG_IA)
        return self._ia

    @property
    def ir_mask(self) -> tuple[bool, ...]:
        if self._ir is None:
            self._ir = self._flag_view(FLAG_IR)
        return self._ir

    def decide(self, ids: Iterable[int], start: Optional[int] = None) -> bool:
        """The scan verdict alone — the stats-free hot path."""
        state = self.start if start is None else start
        flat = self.flat
        width = self.width
        flags = self.flags
        for sid in ids:
            f = flags[state]
            if f & 2:  # FLAG_IA
                return True
            if f & 4:  # FLAG_IR
                return False
            if sid < 0:
                return False
            state = flat[state * width + sid]
            if state < 0:
                return False
        return bool(flags[state] & 1)  # FLAG_FINAL

    def scan(
        self, ids: Sequence[int], start: Optional[int] = None
    ) -> tuple[bool, int, bool, int]:
        """``(accepted, symbols_scanned, early, state)`` with the same
        counting semantics as the dict-based ``scan``."""
        state = self.start if start is None else start
        flat = self.flat
        width = self.width
        flags = self.flags
        scanned = 0
        for sid in ids:
            f = flags[state]
            if f & 2:  # FLAG_IA
                return True, scanned, True, state
            if f & 4:  # FLAG_IR
                return False, scanned, True, state
            if sid < 0:
                return False, scanned + 1, True, state
            next_state = flat[state * width + sid]
            if next_state < 0:
                return False, scanned + 1, True, state
            state = next_state
            scanned += 1
        return bool(flags[state] & 1), scanned, False, state
