"""Fused per-pair action tables — the static heart of the validation
kernel.

The streaming cast (:mod:`repro.core.castkernel`) makes four decisions
per child element: feed the label to the parent's content machine,
assign the child's (source, target) type pair, test subsumption (skip
the subtree), and test disjointness (fail).  All four
depend only on the parent's type pair and the child's interned label —
document-independent, exactly the paper's static-preprocessing stance —
so :class:`PairKernel` collapses them into one ``array('i')`` *action
row* per type pair: ``action[sid]`` is either a negative sentinel
(:data:`A_NO_TARGET`/:data:`A_NO_SOURCE`/:data:`A_SUBSUME`/
:data:`A_DISJOINT`) or the record id of the child's own
:class:`PairRecord`.  The fused loop in :mod:`repro.core.castkernel`
then resolves a child with one table load instead of four method calls.

Each record also carries the flat content tables of its pair machine
(the Section 4 immediate decision automaton for complex/complex pairs,
the plain target content DFA where the source type is simple or
absent, nothing for simple targets), so the per-child feed is one more
indexed load against the same record.

Plain validation against one schema is the cast with no source
knowledge (``R_sub`` and ``R_dis`` empty), so the same tables serve
it: :meth:`repro.schema.model.Schema.kernel` builds a kernel with no
pair, whose records are all :data:`K_PLAIN` or :data:`K_SIMPLE` over
the schema's own symbol table and whose actions are only record ids
and :data:`A_NO_TARGET`.

Records materialize lazily on first entry, so an unwarmed pair only
compiles machines for type pairs a document actually exercises.
:meth:`PairKernel.warm` forces the full reachable set for persisted
artifacts.

A complex record also gets a *flat-record table*
(:meth:`PairKernel.flatten`): one compiled regex over its *flat*
children, whose promised content is a short list of text-only leaves,
so the kernel can take such a child whole, start tag to close tag, in
one match.  Each word of the child's content language carries a plan
computed by the kernel's own rules from the child's tables.  The
kernel builds a record's table on the first frame it opens for it,
never in :meth:`~PairKernel.warm`, and tables never pickle.
"""

from __future__ import annotations

import os
import re
import threading
from array import array
from typing import Optional

from repro.schema.model import ComplexType, SimpleType
from repro.schema.simple import value_checker

#: ``action[sid]`` sentinels (child record ids are ``>= 0``).
A_NO_TARGET = -1   #: no target child type — parent content fails
A_NO_SOURCE = -2   #: no source child type — promise violated
A_SUBSUME = -3     #: subsumed pair — skip the whole subtree
A_DISJOINT = -4    #: disjoint pair — fail immediately

#: Record kinds.
K_MACHINE = 0      #: complex source → complex target: pair automaton
K_PLAIN = 1        #: simple or no source → complex target: target DFA
K_SIMPLE = 2       #: simple target: value check only, children illegal

#: Most words a flat child's content language may have.
FLAT_WORDS = 32

#: XML whitespace between the tags of a flat record.
_WS = r"[ \t\r\n]*"

#: Record fields that never pickle: closures and compiled tables.  A
#: load binds ``check`` again; the flat tables are rebuilt lazily.
_TRANSIENT = frozenset({"check", "flat", "plans"})

#: Serializes every kernel's lazy builds (record ids, records, flat
#: tables).  Service threads can meet the same unbuilt record at once,
#: and allocating an id is a check-then-act on the shared tables.
#: Reentrant, since a build allocates its children's ids.  Readers take
#: no lock: a record publishes ``ready`` (a table ``plans``) last.
_BUILD_LOCK = threading.RLock()


def _fresh_build_lock() -> None:
    """A forked child (fleet workers, pre-fork acceptors) starts with a
    free lock: a thread that held the parent's at the fork is gone."""
    global _BUILD_LOCK
    _BUILD_LOCK = threading.RLock()


os.register_at_fork(after_in_child=_fresh_build_lock)


class PairRecord:
    """Everything the fused loop needs about one (source, target) type
    pair, flat and precomputed.  ``ready`` gates lazy materialization;
    until then only the identity fields are valid."""

    __slots__ = (
        "rid", "source_type", "target_type", "kind",
        "table", "flags", "width", "start", "always_accepts",
        "action", "target_decl", "simple_decl", "has_attrs", "ready",
        "check", "flat", "plans",
    )

    def __init__(
        self, rid: int, source_type: Optional[str], target_type: str
    ):
        self.rid = rid
        self.source_type = source_type
        self.target_type = target_type
        self.kind = -1
        self.table: Optional[array] = None
        self.flags: Optional[bytes] = None
        self.width = 0
        self.start = 0
        self.always_accepts = False
        self.action: Optional[array] = None
        self.target_decl = None
        self.simple_decl: Optional[SimpleType] = None
        self.has_attrs = False
        self.ready = False
        #: The value checker of a simple target
        #: (:func:`repro.schema.simple.value_checker`, the closure its
        #: declaration caches), bound whenever ``simple_decl`` is: by
        #: :meth:`PairKernel.materialize` and by an artifact load.
        self.check = None
        #: The flat-record table (:meth:`PairKernel.flatten`): the
        #: ``match`` of its regex (``None`` when no child is flat) and
        #: the plans indexed by ``Match.lastindex`` (``None`` until
        #: built).
        self.flat = None
        self.plans: Optional[list] = None

    def __getstate__(self):
        return tuple(
            None if name in _TRANSIENT else getattr(self, name)
            for name in self.__slots__
        )

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)
        if self.simple_decl is not None:
            self.check = value_checker(self.simple_decl)

    def __repr__(self) -> str:
        return (
            f"PairRecord({self.rid}, {self.source_type!r} -> "
            f"{self.target_type!r}, ready={self.ready})"
        )


class PairKernel:
    """Flat action/content tables for every reachable type pair of one
    :class:`~repro.schema.registry.SchemaPair` — or, built from a
    ``schema`` alone (``pair`` is then ``None``), for every reachable
    type of that schema, with no source side."""

    def __init__(self, pair=None, *, schema=None) -> None:
        self.pair = pair
        #: The schema the tables validate against, and the symbol table
        #: their rows are indexed by (the pair's, or the schema's own).
        self.target = pair.target if pair is not None else schema
        self.symbols = pair.symbols if pair is not None else schema.symbols
        self.records: list[PairRecord] = []
        self._ids: dict[tuple[str, str], int] = {}
        #: root label → action code (same encoding as action rows).
        self.root_actions: dict[str, int] = {}
        source_roots = pair.source.roots if pair is not None else {}
        for label in sorted(set(source_roots) | set(self.target.roots)):
            self.root_actions[label] = self._classify(
                source_roots.get(label), self.target.root_type(label)
            )

    def _classify(
        self, source_type: Optional[str], target_type: Optional[str]
    ) -> int:
        """One action code for a resolved (source, target) assignment —
        the decision order of the reference event walk
        (:func:`repro.core.reference.reference_cast`)."""
        if target_type is None:
            return A_NO_TARGET
        pair = self.pair
        if pair is None:  # one schema: no source knowledge, no skips
            return self.record_id(None, target_type)
        if source_type is None:
            return A_NO_SOURCE
        if pair.is_subsumed(source_type, target_type):
            return A_SUBSUME
        if pair.is_disjoint(source_type, target_type):
            return A_DISJOINT
        return self.record_id(source_type, target_type)

    def record_id(
        self, source_type: Optional[str], target_type: str
    ) -> int:
        """The record id for a type pair, allocating a stub on first
        request (cycle-safe: the stub exists before its row is built).
        A ``None`` source type has no source knowledge: a
        :data:`K_PLAIN` or :data:`K_SIMPLE` record whose children are
        all :data:`A_NO_SOURCE` in a pair's kernel."""
        key = (source_type, target_type)
        with _BUILD_LOCK:
            rid = self._ids.get(key)
            if rid is None:
                rid = len(self.records)
                self._ids[key] = rid
                self.records.append(
                    PairRecord(rid, source_type, target_type)
                )
        return rid

    def materialize(self, record: PairRecord) -> PairRecord:
        """Fill a stub record: content tables, attribute gate, and the
        fused action row (allocating child stubs as needed)."""
        if not record.ready:
            with _BUILD_LOCK:
                if not record.ready:
                    self._fill(record)
        return record

    def _fill(self, record: PairRecord) -> None:
        pair = self.pair
        target_decl = self.target.type(record.target_type)
        record.target_decl = target_decl
        record.width = len(self.symbols)
        if isinstance(target_decl, SimpleType):
            record.kind = K_SIMPLE
            record.simple_decl = target_decl
            record.check = value_checker(target_decl)
            record.has_attrs = False
        else:
            record.has_attrs = bool(target_decl.attributes)
            source_decl = (
                pair.source.type(record.source_type)
                if record.source_type is not None
                else None
            )
            if isinstance(source_decl, ComplexType):
                machine = pair.string_cast(
                    record.source_type, record.target_type
                )
                immed = machine.c_immed_compiled
                assert immed is not None  # pair-built machines compile
                record.kind = K_MACHINE
                record.table = immed.flat
                record.flags = immed.flags
                record.start = immed.start
                record.always_accepts = machine.always_accepts
            else:
                compiled = (
                    pair.target_content(record.target_type)
                    if pair is not None
                    else self.target.compiled_content_dfa(
                        record.target_type
                    )
                )
                record.kind = K_PLAIN
                record.table = compiled.flat
                record.flags = compiled.flags
                record.start = compiled.start
                record.always_accepts = False
            record.action = self._action_row(record, source_decl)
        record.ready = True

    def _action_row(self, record: PairRecord, source_decl) -> array:
        target_children = record.target_decl.child_types
        source_children = (
            source_decl.child_types
            if isinstance(source_decl, ComplexType)
            else {}
        )
        return array(
            "i",
            (
                self._classify(
                    source_children.get(label), target_children.get(label)
                )
                for label in self.symbols.labels
            ),
        )

    def record(self, rid: int) -> PairRecord:
        """The materialized record for ``rid``."""
        rec = self.records[rid]
        if not rec.ready:
            self.materialize(rec)
        return rec

    def flatten(self, record: PairRecord) -> None:
        """Build ``record``'s flat-record table (``record.flat`` and
        ``record.plans``); the kernel calls it on the first frame it
        opens for ``record``.

        A child is *flat* when it is an attribute-free complex record
        whose promised content language (the source type's in a cast,
        the schema's own in plain validation) is finite, with at most
        :data:`FLAT_WORDS` words.  The regex takes such a child from
        ``<label>`` to ``</label>`` with only whitespace between tags,
        each leaf as :data:`~repro.xmltree.lexer.LEAF_RE` does with its
        value captured, and an empty group closing each word, so
        ``Match.lastindex`` names the word.  Words share their prefixes,
        so a match reads each leaf once.

        ``plans[lastindex]`` is the loop's work on that word:
        ``(sid, checks, skips, visited, scanned, early, skipped,
        ticks)`` — the child's label id for the parent's content step,
        a ``(group, checker)`` per value to check, the value groups of
        subsumed leaves, the ``elements_visited``,
        ``content_symbols_scanned``, ``early_content_decisions`` and
        ``subtrees_skipped`` deltas, and one deadline tick per start
        tag.  A word the loop would fail on or descend into gets no
        plan and stays out of the regex.
        """
        with _BUILD_LOCK:
            if record.plans is not None:
                return
            plans: list = [None]
            alternatives = []
            for sid, action in enumerate(record.action or ()):
                if action < 0:
                    continue
                trie = self._flat_trie(sid, self.records[action])
                if trie:
                    label = re.escape(self.symbols.label(sid))
                    alternatives.append(
                        label + ">" + _WS + _emit(trie, label, [], plans)
                    )
            if alternatives:
                record.flat = re.compile(
                    "<(?:" + "|".join(alternatives) + ")"
                ).match
            record.plans = plans

    def _flat_trie(self, sid: int, child: PairRecord) -> Optional[dict]:
        """The planned words of ``child`` as a trie over leaf labels
        (``None`` keys hold the plans), or ``None`` when ``child`` is
        not flat."""
        pair = self.pair
        target_decl = self.target.type(child.target_type)
        if not isinstance(target_decl, ComplexType) or target_decl.attributes:
            return None
        if pair is None:
            language = self.target.content_dfa(child.target_type)
        elif isinstance(pair.source.type(child.source_type), ComplexType):
            language = pair.source.content_dfa(child.source_type)
        else:  # a simple source promises text, not children
            return None
        words = _finite_words(language, FLAT_WORDS)
        if not words:
            return None
        self.record(child.rid)
        trie: dict = {}
        for word in words:
            plan = self._word_plan(sid, child, word)
            if plan is not None:
                node = trie
                for label in word:
                    node = node.setdefault(label, {})
                node[None] = plan
        return trie

    def _word_plan(self, sid: int, child: PairRecord, word: tuple):
        """The loop's work on ``child`` holding the leaves ``word`` —
        its content steps by the loop's rules (``always_accepts``, IA,
        IR, the end-state test) and each leaf's action — with leaves
        named by position; ``None`` where the loop would fail or
        descend."""
        ids = self.symbols.ids
        state = child.start
        decided = child.always_accepts
        early = 1 if decided else 0
        scanned = 0
        checks = []
        skips = []
        for index, label in enumerate(word):
            leaf_sid = ids[label]  # the language's alphabet is interned
            if not decided:
                bits = child.flags[state]
                if bits & 2:  # IA
                    decided = True
                    early += 1
                elif bits & 4:  # IR
                    return None
                else:
                    state = child.table[state * child.width + leaf_sid]
                    if state < 0:
                        return None
                    scanned += 1
            action = child.action[leaf_sid]
            if action == A_SUBSUME:
                skips.append(index)
                continue
            if action < 0:
                return None
            leaf = self.record(action)
            if leaf.kind != K_SIMPLE:
                return None
            checks.append((index, leaf.check))
        if not decided and not child.flags[state] & 3:  # not IA, not final
            return None
        return (sid, checks, skips, 1 + len(checks), scanned, early,
                1 + len(word))

    def warm(self) -> None:
        """Materialize every record reachable from the root actions, so
        persisted artifacts carry complete tables."""
        pending = [
            rid for rid in self.root_actions.values() if rid >= 0
        ]
        seen = set(pending)
        while pending:
            rec = self.materialize(self.records[pending.pop()])
            if rec.action is None:
                continue
            for act in rec.action:
                if act >= 0 and act not in seen:
                    seen.add(act)
                    pending.append(act)

    def child_types(self, record: PairRecord, sid: int) -> tuple:
        """(source, target) child types under a record — cold-path
        helper for failure messages."""
        label = self.symbols.label(sid)
        source_decl = self.pair.source.type(record.source_type)
        source_type = (
            source_decl.child_types.get(label)
            if isinstance(source_decl, ComplexType)
            else None
        )
        return source_type, record.target_decl.child_types.get(label)

    def __repr__(self) -> str:
        ready = sum(1 for r in self.records if r.ready)
        return f"PairKernel({ready}/{len(self.records)} records ready)"


def _finite_words(dfa, limit: int) -> Optional[list[tuple]]:
    """The words of ``dfa``'s language, or ``None`` when it has
    infinitely many or more than ``limit``."""
    live = dfa.coreachable_states()
    words: list[tuple] = []
    stack = [(dfa.start, ())] if dfa.start in live else []
    while stack:
        state, word = stack.pop()
        if len(word) >= len(live):
            return None  # the path repeats a live state: a cycle
        if state in dfa.finals:
            words.append(word)
            if len(words) > limit:
                return None
        row = dfa.transitions[state]
        for symbol in sorted(row, reverse=True):
            if row[symbol] in live:
                stack.append((row[symbol], word + (symbol,)))
    return words


def _emit(node: dict, close: str, path: list, plans: list) -> str:
    """The pattern of trie ``node`` under the record closed by
    ``</close>``; ``path`` holds the value groups of the leaves above.
    Groups are numbered in text order, so each is allocated as it is
    emitted: a leaf's value group before its subtree, a word's empty
    marker group (where its plan goes) at the record's close tag."""
    alternatives = []
    for label, sub in node.items():
        if label is None:
            sid, checks, skips, visited, scanned, early, ticks = sub
            plans.append((
                sid,
                tuple((path[index], check) for index, check in checks),
                tuple(path[index] for index in skips),
                visited, scanned, early, len(skips), ticks,
            ))
            alternatives.append("</" + close + _WS + ">()")
            continue
        plans.append(None)
        name = re.escape(label)
        alternatives.append(
            "<" + name + r">([^<&\]]*)</" + name + _WS + ">" + _WS
            + _emit(sub, close, path + [len(plans) - 1], plans)
        )
    if len(alternatives) == 1:
        return alternatives[0]
    return "(?:" + "|".join(alternatives) + ")"
