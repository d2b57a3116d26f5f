"""Preprocessed schema pairs — the static artifact of the paper's setup.

The paper's scenario: schemas A and B are known statically and may be
preprocessed; documents arrive at runtime.  :class:`SchemaPair` is that
preprocessing, bundling

* ``R_sub`` — subsumed type pairs (skip the subtree),
* ``R_dis`` — disjoint type pairs (fail immediately), stored via the
  complement ``R_nondis`` exactly as computed,
* per-type-pair :class:`StringCastValidator` machines (the Section 4
  immediate decision automata for content-model checks) and target
  content DFAs compiled over the pair's symbols, built lazily and
  cached, and
* the fused :class:`~repro.schema.pairkernel.PairKernel` whose records
  every walk reads.

Everything here depends only on the two schemas — memory is independent
of any document, which is the paper's headline contrast with
document-preprocessing incremental validators.
"""

from __future__ import annotations

from typing import Optional

from repro.automata.compiled import CompiledDFA, SymbolTable
from repro.automata.stringcast import StringCastValidator
from repro.schema.disjoint import compute_nondisjoint
from repro.schema.model import ComplexType, Schema
from repro.schema.subsumption import compute_subsumption


class SchemaPair:
    """Statically preprocessed (source schema, target schema) pair.

    The whole object is a *compiled artifact*: it is picklable, and
    :mod:`repro.schema.artifacts` persists warmed pairs keyed by a
    content hash of the two schemas, so the preprocessing survives
    process restarts.
    """

    def __init__(
        self,
        source: Schema,
        target: Schema,
        *,
        r_sub: Optional[frozenset[tuple[str, str]]] = None,
        r_nondis: Optional[frozenset[tuple[str, str]]] = None,
    ):
        self.source = source
        self.target = target
        #: The pair alphabet Σ ∪ Σ' interned to dense ids — shared by
        #: every compiled automaton below, so a child-label string is
        #: interned once per node and scanned by integer indexing.
        self.symbols: SymbolTable = SymbolTable(
            sorted(source.alphabet | target.alphabet)
        )
        #: Definition 4: pairs with ``valid(τ) ⊆ valid(τ')``.  A caller
        #: may seed a precomputed relation (chain composition joins the
        #: per-hop relations instead of re-running the fixpoint); any
        #: sound under-approximation only forgoes skips, never verdicts.
        self.r_sub: frozenset[tuple[str, str]] = (
            compute_subsumption(source, target) if r_sub is None else r_sub
        )
        #: Definition 5: pairs with ``valid(τ) ∩ valid(τ') ≠ ∅``.  Also
        #: seedable; an over-approximation only forgoes fast-fails.
        self.r_nondis: frozenset[tuple[str, str]] = (
            compute_nondisjoint(source, target)
            if r_nondis is None
            else r_nondis
        )
        #: Per-type-pair cast machines, built on first touch;
        #: :meth:`warm` materializes the full product for persisted
        #: artifacts.
        self._string_casts: dict[
            tuple[str, str], StringCastValidator
        ] = {}
        self._target_content: dict[str, CompiledDFA] = {}
        self._source_child_rows: dict[str, tuple] = {}
        self._target_child_rows: dict[str, tuple] = {}
        #: Fused per-pair action/content tables for the validation
        #: kernel (:mod:`repro.schema.pairkernel`), built on first use.
        self._pair_kernel = None

    # -- relation queries ---------------------------------------------------

    def is_subsumed(self, source_type: str, target_type: str) -> bool:
        """``τ ≤ τ'`` — every source-valid tree is target-valid."""
        return (source_type, target_type) in self.r_sub

    def is_disjoint(self, source_type: str, target_type: str) -> bool:
        """``τ ⊘ τ'`` — no tree is valid under both."""
        return (source_type, target_type) not in self.r_nondis

    # -- cached automata -------------------------------------------------------

    def string_cast(
        self, source_type: str, target_type: str
    ) -> StringCastValidator:
        """Content-model cast machine for a complex type pair (built on
        first touch, then cached)."""
        key = (source_type, target_type)
        machine = self._string_casts.get(key)
        if machine is None:
            machine = self._string_casts[key] = StringCastValidator(
                self.source.content_dfa(source_type),
                self.target.content_dfa(target_type),
                symbols=self.symbols,
            )
        return machine

    def target_content(self, target_type: str) -> CompiledDFA:
        """A target content DFA compiled over the *pair* symbol table
        (cached); rows carry ``-1`` for source-only labels."""
        if target_type not in self._target_content:
            self._target_content[target_type] = CompiledDFA.from_dfa(
                self.target.content_dfa(target_type), self.symbols
            )
        return self._target_content[target_type]

    def source_child_row(self, source_type: str) -> tuple:
        """``types_τ`` of a source complex type as a dense row over the
        *pair* symbol table (cached): ``row[sym]`` is the child-type
        name or ``None``.  The reference event walk
        (:mod:`repro.core.reference`) resolves child types with these
        rows; the kernel's action rows read the declarations directly.
        """
        try:
            rows = self._source_child_rows
        except AttributeError:  # pre-existing pickled artifact
            rows = self._source_child_rows = {}
        row = rows.get(source_type)
        if row is None:
            child_types = self.source.types[source_type].child_types
            row = tuple(
                child_types.get(label) for label in self.symbols.labels
            )
            rows[source_type] = row
        return row

    def target_child_row(self, target_type: str) -> tuple:
        """Like :meth:`source_child_row`, for a target complex type."""
        try:
            rows = self._target_child_rows
        except AttributeError:  # pre-existing pickled artifact
            rows = self._target_child_rows = {}
        row = rows.get(target_type)
        if row is None:
            child_types = self.target.types[target_type].child_types
            row = tuple(
                child_types.get(label) for label in self.symbols.labels
            )
            rows[target_type] = row
        return row

    def kernel(self):
        """The fused :class:`~repro.schema.pairkernel.PairKernel` of
        this pair — one action row per type pair collapsing the content
        step, child-type assignment, subsumption and disjointness
        decisions into a single table load.  Built lazily (records
        materialize on first entry); :meth:`warm` forces the reachable
        set so persisted artifacts carry it complete."""
        try:
            kernel = self._pair_kernel
        except AttributeError:  # pre-existing pickled artifact
            kernel = self._pair_kernel = None
        if kernel is None:
            from repro.schema.pairkernel import PairKernel

            kernel = self._pair_kernel = PairKernel(self)
        return kernel

    def warm(self) -> None:
        """Eagerly build the pair's runtime machines, so validation pays
        no lazy-construction cost (and so a persisted artifact carries
        everything — see :mod:`repro.schema.artifacts`).

        Coverage rule: string-cast machines are built for every complex
        (τ, τ') with τ reachable in the source schema and τ' reachable
        in the target schema (pairs that are subsumed or disjoint are
        skipped or failed without a scan, so they get no machine), and
        :meth:`target_content` tables for every complex target type
        *reachable from the target root map*, which records with a
        simple or no source type and the plain content mode scan — a
        type unreachable from every root can never be assigned to a
        node by the tree validators, whose type assignment starts at
        ``R`` and descends through ``types_τ``.  The kernel's records
        reachable from its root actions follow.  Anything else a walk
        asks for is built on first use: records and machines for the
        marked nodes of the cast with modifications (subsumed pairs
        and nodes without a source type among them), types the DTD
        label-indexed mode assigns to a label outside every root's
        reach, and the target schema's own kernel, which validates
        inserted subtrees.
        """
        source_reachable = self.source.reachable_types()
        target_reachable = self.target.reachable_types()
        for tau in source_reachable:
            if not isinstance(self.source.types[tau], ComplexType):
                continue
            for tau_p in target_reachable:
                if not isinstance(self.target.types[tau_p], ComplexType):
                    continue
                if self.is_subsumed(tau, tau_p) or self.is_disjoint(
                    tau, tau_p
                ):
                    continue
                self.string_cast(tau, tau_p)
        for tau_p in target_reachable:
            if isinstance(self.target.types[tau_p], ComplexType):
                self.target_content(tau_p)
        # The fused kernel's reachable records ride along (linear in
        # the pairs a document can actually touch from the root map).
        self.kernel().warm()

    # -- root helpers ----------------------------------------------------------

    def root_pair(self, label: str) -> Optional[tuple[str, str]]:
        """(source type, target type) for a root label, or None when
        either schema rejects it as a root."""
        source_type = self.source.root_type(label)
        target_type = self.target.root_type(label)
        if source_type is None or target_type is None:
            return None
        return source_type, target_type

    def __repr__(self) -> str:
        return (
            f"SchemaPair({self.source.name!r} -> {self.target.name!r}, "
            f"|R_sub|={len(self.r_sub)}, |R_nondis|={len(self.r_nondis)})"
        )
