"""Evolution-chain composition — one fused cast for S₁→S₂→…→Sₙ.

A document validated long ago against S₁ must be brought to Sₙ after the
schema drifted through n−1 revisions.  The per-pair machinery casts one
hop at a time — n−1 full passes over the document.  This module composes
the chain at *compile time* into one direct :class:`SchemaPair` so the
runtime pays a single pass:

* **Hop analysis** (the commutation precomputation).  A hop whose source
  schema is root-subsumed by its target (``R_sub`` holds on every root
  pair) is *vacuous*: any document valid under Sᵢ is valid under Sᵢ₊₁,
  so Sᵢ₊₁ never needs checking.  Conversely a later, stricter schema
  *absorbs* an earlier one (every Sq-valid document is Sp-valid), so the
  earlier check can be reordered away.  Monotone drift chains collapse
  to a single residual target this way; if *every* hop is vacuous the
  chain is statically safe and casting is O(1) — no parse, no traversal.

* **Product composition.**  The residual check schemas that survive the
  analysis are folded into one product schema M whose tuple types accept
  exactly ``valid(τ_a) ∩ valid(τ_b) ∩ …`` — content models by DFA
  intersection, simple types by :func:`~repro.schema.simple.intersect_simple`,
  attributes by declaration merge.  ``SchemaPair(S₁, M)`` then drives the
  ordinary fused kernel (:mod:`repro.core.castkernel`) unchanged, with
  byte-skip intact.

* **Relation join.**  The composed pair's ``R_sub``/``R_nondis`` are not
  recomputed by fixpoint; they are *joined* from the per-hop relations
  (subsumed∘subsumed → subsumed, nondisjoint∘nondisjoint as the
  disjointness absorption) — a sound seed under the premise below.

Soundness contract (the paper's revalidation premise: the document is
valid under S₁): an **accept** from the composed pair implies validity
under every hop target.  A **reject** is *not* trusted — the composed
machine conflates hops, so its error position cannot match the
sequential pipeline's.  :meth:`SchemaChain.cast_text` therefore re-runs
the sequential per-hop pipeline on rejection and returns *its* report,
giving verdict and error-position identity with ``cast(Pₙ₋₁) ∘ … ∘
cast(P₁)`` by construction while keeping the accepting hot path at one
pass.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.automata.dfa import harmonize
from repro.errors import ChainMismatchError
from repro.guards import remaining_limits, resolve_limits
from repro.remodel.toregex import dfa_to_regex
from repro.schema.model import (
    AttributeDecl,
    ComplexType,
    Schema,
    is_complex,
    is_simple,
)
from repro.schema.registry import SchemaPair
from repro.schema.simple import BOTTOM, SimpleType, intersect_simple

#: Joins the member type names of a product-schema tuple type.  Chosen
#: to be implausible in user type names so tuple names cannot collide.
TYPE_SEP = "∧"

Relation = frozenset[tuple[str, str]]


def _compose_relation(first: Relation, second: Relation) -> Relation:
    """Relational join: ``{(a, c) | (a, b) ∈ first, (b, c) ∈ second}``.

    Composing subsumption with subsumption yields subsumption
    (transitivity through the junction schema); composing nondisjointness
    is the seed for the composed pair's disjointness absorption.
    """
    by_mid: dict[str, list[str]] = {}
    for mid, right in second:
        by_mid.setdefault(mid, []).append(right)
    joined: set[tuple[str, str]] = set()
    for left, mid in first:
        for right in by_mid.get(mid, ()):
            joined.add((left, right))
    return frozenset(joined)


def _root_subsumed(pair: SchemaPair) -> bool:
    """Is every source-valid document valid under the target?

    True when every root label of the source is a root of the target and
    the root type pair is subsumed — the hop-level lift of ``R_sub``.
    """
    if not pair.source.roots:
        return False
    for label, source_type in pair.source.roots.items():
        target_type = pair.target.root_type(label)
        if target_type is None:
            return False
        if not pair.is_subsumed(source_type, target_type):
            return False
    return True


class SchemaChain:
    """An evolution history S₁→S₂→…→Sₙ with its composed cast machine.

    Construction collapses consecutive identical schemas (identity hops),
    runs the hop analysis eagerly (it is cheap relative to pair
    compilation, which is itself amortized across documents), and builds
    hop pairs and the composed pair lazily on first use.
    """

    def __init__(self, schemas: Sequence[Schema], *, name: str = ""):
        if not schemas:
            raise ChainMismatchError("an evolution chain needs schemas")
        from repro.schema.artifacts import schema_fingerprint

        collapsed: list[Schema] = []
        fingerprints: list[str] = []
        for schema in schemas:
            fingerprint = schema_fingerprint(schema)
            if fingerprints and fingerprints[-1] == fingerprint:
                continue  # identity hop — a no-op by definition
            collapsed.append(schema)
            fingerprints.append(fingerprint)
        if len(collapsed) == 1:
            # Fully-identity chain: keep one (vacuous) hop so the chain
            # still exposes a well-formed pair.
            collapsed.append(collapsed[0])
            fingerprints.append(fingerprints[0])
        self.schemas: tuple[Schema, ...] = tuple(collapsed)
        self.fingerprints: tuple[str, ...] = tuple(fingerprints)
        self.name = name or "→".join(
            s.name or f"S{i + 1}" for i, s in enumerate(self.schemas)
        )
        self._hops: Optional[tuple[SchemaPair, ...]] = None
        self._reverse_pairs: dict[tuple[int, int], SchemaPair] = {}
        self._composed: Optional[SchemaPair] = None
        self._analysis: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.schemas)

    @property
    def hop_count(self) -> int:
        return len(self.schemas) - 1

    @property
    def hops(self) -> tuple[SchemaPair, ...]:
        """The n−1 per-hop pairs — the sequential baseline and the
        relation source for the composition join."""
        if self._hops is None:
            self._hops = tuple(
                SchemaPair(self.schemas[i], self.schemas[i + 1])
                for i in range(self.hop_count)
            )
        return self._hops

    # -- hop analysis (commutation precomputation) -------------------------

    def analysis(self) -> dict:
        """Which hops are vacuous, which checks are absorbed, and what
        remains to verify.

        Returns a dict with:

        * ``vacuous`` — per-hop booleans: hop i never rejects a
          premise-valid document (source root-subsumed by target), so
          its target schema needs no check;
        * ``absorbed`` — schema indices whose check is covered by a
          later, stricter surviving check (the reorder/merge);
        * ``checked`` — the residual schema indices the composed pair
          actually verifies (empty ⇒ statically safe).
        """
        if self._analysis is not None:
            return self._analysis
        vacuous = tuple(_root_subsumed(hop) for hop in self.hops)
        # S_{i+1} needs no check when hop i is vacuous: by induction
        # every earlier schema is either the premise (S₁) or verified on
        # accept, and vacuity transports validity across the hop.
        candidates = [
            i + 1 for i in range(self.hop_count) if not vacuous[i]
        ]
        checked: list[int] = []
        absorbed: list[int] = []
        absorber: Optional[int] = None
        for index in reversed(candidates):
            if absorber is not None and _root_subsumed(
                self._reverse_pair(absorber, index)
            ):
                # Every S_absorber-valid document is S_index-valid, and
                # S_absorber is checked — S_index commutes away.
                absorbed.append(index)
                continue
            checked.append(index)
            absorber = index
        checked.reverse()
        absorbed.reverse()
        self._analysis = {
            "vacuous": vacuous,
            "absorbed": tuple(absorbed),
            "checked": tuple(checked),
        }
        return self._analysis

    def _reverse_pair(self, source_index: int, target_index: int) -> SchemaPair:
        key = (source_index, target_index)
        pair = self._reverse_pairs.get(key)
        if pair is None:
            pair = SchemaPair(
                self.schemas[source_index], self.schemas[target_index]
            )
            self._reverse_pairs[key] = pair
        return pair

    @property
    def statically_safe(self) -> bool:
        """Every hop is vacuous: any document valid under S₁ is valid
        under every later schema.  Casting needs zero traversal."""
        return not self.analysis()["checked"]

    # -- composition --------------------------------------------------------

    def composed_pair(self) -> SchemaPair:
        """The single direct pair S₁→M covering every residual check.

        The returned object is an ordinary :class:`SchemaPair` (the
        fused kernel, artifacts, memo, batch and fleet layers treat it
        as such) with two extras: relations seeded by the hop join, and
        a ``chain`` attribute pointing back here so service/CLI layers
        can recover the sequential fallback.
        """
        if self._composed is not None:
            return self._composed
        checked = list(self.analysis()["checked"])
        if not checked:
            # Statically safe; keep a well-formed pair against the final
            # schema for callers that want one (plain /cast, batch).
            checked = [len(self.schemas) - 1]
        positions = [0] + checked
        sub_bridges = [
            self._bridge(positions[k], positions[k + 1], subsumption=True)
            for k in range(len(positions) - 1)
        ]
        nondis_bridges = [
            self._bridge(positions[k], positions[k + 1], subsumption=False)
            for k in range(len(positions) - 1)
        ]
        if len(checked) == 1:
            target = self.schemas[checked[0]]
            r_sub = sub_bridges[0]
            r_nondis = nondis_bridges[0]
        else:
            target, tuples = _product_schema(
                [self.schemas[i] for i in checked],
                name=TYPE_SEP.join(
                    self.schemas[i].name or f"S{i + 1}" for i in checked
                ),
            )
            r_sub = _seed_product_relation(tuples, sub_bridges)
            r_nondis = _seed_product_relation(tuples, nondis_bridges)
        composed = SchemaPair(
            self.schemas[0], target, r_sub=r_sub, r_nondis=r_nondis
        )
        composed.chain = self
        self._composed = composed
        return composed

    def _bridge(
        self, start: int, stop: int, *, subsumption: bool
    ) -> Relation:
        """The hop-relation join from schema ``start`` to ``stop``."""
        relation = (
            self.hops[start].r_sub if subsumption else self.hops[start].r_nondis
        )
        for i in range(start + 1, stop):
            step = self.hops[i].r_sub if subsumption else self.hops[i].r_nondis
            relation = _compose_relation(relation, step)
        return relation

    # -- casting ------------------------------------------------------------

    def cast_text(
        self,
        text,
        *,
        limits=None,
        stream_skip: bool = True,
        trusted: bool = False,
    ):
        """Cast a premise-valid document across the whole chain.

        Statically safe chains answer in O(1).  Otherwise the fused
        composed pair runs once; on accept that is the verdict, on
        reject the sequential per-hop pipeline re-runs and its report
        (verdict, reason, error position) is returned verbatim — exact
        parity with n−1 individual casts, by construction.  One
        deadline covers the composed pass and the fallback together.
        """
        from repro.core.cast import cast_text
        from repro.core.result import ValidationReport

        if self.statically_safe:
            return ValidationReport.success()
        limits = resolve_limits(limits)
        deadline = limits.deadline()
        report = cast_text(
            self.composed_pair(),
            text,
            limits=limits,
            stream_skip=stream_skip,
            trusted=trusted,
        )
        if report.valid:
            return report
        return self.sequential_cast_text(
            text,
            limits=remaining_limits(limits, deadline),
            stream_skip=stream_skip,
            trusted=trusted,
        )

    def cast_composed_text(
        self,
        text,
        *,
        limits=None,
        stream_skip: bool = True,
        trusted: bool = False,
    ):
        """The raw fused pass only — no sequential fallback.  Accepts are
        authoritative; rejects carry composed (not per-hop) positions."""
        from repro.core.cast import cast_text

        return cast_text(
            self.composed_pair(),
            text,
            limits=limits,
            stream_skip=stream_skip,
            trusted=trusted,
        )

    def sequential_cast_text(
        self,
        text,
        *,
        limits=None,
        stream_skip: bool = True,
        trusted: bool = False,
    ):
        """The n−1-pass baseline: cast hop by hop, first failure wins.
        One deadline covers every hop."""
        from repro.core.cast import cast_text
        from repro.core.result import ValidationReport

        limits = resolve_limits(limits)
        deadline = limits.deadline()
        report = ValidationReport.success()
        for hop in self.hops:
            report = cast_text(
                hop,
                text,
                limits=remaining_limits(limits, deadline),
                stream_skip=stream_skip,
                trusted=trusted,
            )
            if not report.valid:
                return report
        return report

    def warm(self, *, eager_pairs: bool = True) -> None:
        """Warm the composed pair (and build the hop pairs)."""
        self.composed_pair().warm(eager_pairs=eager_pairs)

    def __repr__(self) -> str:
        checked = self.analysis()["checked"]
        residual = "O(1)" if not checked else f"{len(checked)} check(s)"
        return (
            f"SchemaChain({self.name!r}, {self.hop_count} hops, {residual})"
        )


def compose_pairs(first: SchemaPair, second: SchemaPair) -> SchemaPair:
    """Compose two schema pairs into one direct pair.

    ``first.target`` and ``second.source`` must be the same schema (by
    content fingerprint) — the junction of the chain.  Composition
    flattens through :class:`SchemaChain`, so left- and right-associated
    3-hop compositions build the identical canonical chain, and an
    identity pair (source = target) collapses out entirely.
    """
    from repro.schema.artifacts import schema_fingerprint

    left = getattr(first, "chain", None)
    right = getattr(second, "chain", None)
    left_schemas = list(left.schemas) if left else [first.source, first.target]
    right_schemas = (
        list(right.schemas) if right else [second.source, second.target]
    )
    junction_out = schema_fingerprint(left_schemas[-1])
    junction_in = schema_fingerprint(right_schemas[0])
    if junction_out != junction_in:
        raise ChainMismatchError(
            "cannot compose pairs: the first pair's target schema "
            f"({left_schemas[-1].name or 'unnamed'}) differs from the "
            f"second pair's source ({right_schemas[0].name or 'unnamed'})"
        )
    chain = SchemaChain(left_schemas + right_schemas[1:])
    return chain.composed_pair()


# -- product schema construction --------------------------------------------


def _product_schema(
    schemas: Sequence[Schema], *, name: str
) -> tuple[Schema, dict[str, tuple[str, ...]]]:
    """The conjunction schema M of several check schemas.

    M's types are tuples of member types, reachable from the joint
    roots; an element is M-valid exactly when it is valid under every
    member schema (up to the conservative corners below, which only
    under-approximate — the chain's sequential fallback covers them).

    Corners: a tuple mixing complex and simple declarations, or whose
    content intersection is empty, gets the uninhabited ``BOTTOM`` type
    (rejects everything).  Under the hop nondisjointness premise such
    tuples are also seeded disjoint, so the kernel fast-fails them
    without ever scanning.
    """
    roots: dict[str, str] = {}
    root_tuples: list[tuple[str, ...]] = []
    shared_root_labels = set(schemas[0].roots)
    for schema in schemas[1:]:
        shared_root_labels &= set(schema.roots)
    for label in sorted(shared_root_labels):
        member_types = tuple(schema.roots[label] for schema in schemas)
        roots[label] = TYPE_SEP.join(member_types)
        root_tuples.append(member_types)

    types: dict[str, SimpleType | ComplexType] = {}
    tuples: dict[str, tuple[str, ...]] = {}
    pending = list(root_tuples)
    while pending:
        member_types = pending.pop()
        type_name = TYPE_SEP.join(member_types)
        if type_name in types:
            continue
        declaration, children = _product_type(
            type_name, member_types, schemas, types
        )
        types[type_name] = declaration
        tuples[type_name] = member_types
        pending.extend(children)
    return Schema(types, roots, name=name), tuples


def _product_type(
    type_name: str,
    member_types: Sequence[str],
    schemas: Sequence[Schema],
    registry: dict,
) -> tuple[SimpleType | ComplexType, list[tuple[str, ...]]]:
    """Declare one tuple type; returns it plus child tuples to visit."""
    declarations = [
        schema.types[member]
        for schema, member in zip(schemas, member_types)
    ]
    if all(is_simple(d) for d in declarations):
        merged = declarations[0]
        for other in declarations[1:]:
            merged = intersect_simple(merged, other, name=type_name)
        return _with_name(merged, type_name), []
    if not all(is_complex(d) for d in declarations):
        # Complex ∧ simple: only childless, near-empty-text elements
        # could satisfy both; approximate as uninhabited (sound — the
        # fallback pipeline owns the verdict for documents that get
        # here, and hop nondisjointness seeds these tuples disjoint).
        return _with_name(BOTTOM, type_name), []
    content = schemas[0].content_dfa(member_types[0])
    for schema, member in zip(schemas[1:], member_types[1:]):
        left, right = harmonize(content, schema.content_dfa(member))
        content = left.intersection(right)
    content = content.minimize()
    regex = dfa_to_regex(content)
    if regex is None:
        # Empty content intersection: no child word satisfies every
        # member — the tuple is uninhabited.
        return _with_name(BOTTOM, type_name), []
    child_types: dict[str, str] = {}
    children: list[tuple[str, ...]] = []
    for label in sorted(regex.symbols()):
        child_tuple = tuple(
            d.child_types[label] for d in declarations
        )
        child_types[label] = TYPE_SEP.join(child_tuple)
        children.append(child_tuple)
    attributes = _product_attributes(
        type_name, declarations, schemas, registry
    )
    return (
        ComplexType(type_name, regex, child_types, attributes),
        children,
    )


def _product_attributes(
    type_name: str,
    declarations: Sequence[ComplexType],
    schemas: Sequence[Schema],
    registry: dict,
) -> dict[str, AttributeDecl]:
    """Merge attribute declarations across the tuple members.

    * declared by every member → declared, value type intersected,
      required if any member requires it;
    * required by some member, undeclared by another → the element can
      never carry a valid combination: declare it required with the
      uninhabited value type (absent fails the requirer, present fails
      the non-declarer);
    * optional by some members, undeclared by others → omitted: absence
      satisfies everyone, presence must be rejected (the non-declaring
      member treats it as undeclared), which omission does.
    """
    merged: dict[str, AttributeDecl] = {}
    names: set[str] = set()
    for declaration in declarations:
        names |= set(declaration.attributes)
    for attr_name in sorted(names):
        decls = [d.attributes.get(attr_name) for d in declarations]
        if all(decls):
            value = schemas[0].types[decls[0].type_name]
            for schema, decl in zip(schemas[1:], decls[1:]):
                value = intersect_simple(
                    value,
                    schema.types[decl.type_name],
                    name=f"{type_name}@{attr_name}",
                )
            value_name = _register_value_type(
                registry, f"{type_name}@{attr_name}", value
            )
            merged[attr_name] = AttributeDecl(
                attr_name,
                value_name,
                required=any(d.required for d in decls),
            )
        elif any(d is not None and d.required for d in decls):
            value_name = _register_value_type(
                registry, f"{type_name}@{attr_name}", BOTTOM
            )
            merged[attr_name] = AttributeDecl(
                attr_name, value_name, required=True
            )
        # else: optional-in-some, undeclared-in-others — omit.
    return merged


def _register_value_type(registry: dict, name: str, value) -> str:
    registry[name] = _with_name(value, name)
    return name


def _with_name(declaration: SimpleType, name: str) -> SimpleType:
    if declaration.name == name:
        return declaration
    from repro.schema.simple import _renamed

    return _renamed(declaration, name)


def _seed_product_relation(
    tuples: dict[str, tuple[str, ...]], bridges: Sequence[Relation]
) -> Relation:
    """Relations of (S₁ type, tuple type) joined through the bridges.

    ``bridges[0]`` relates S₁ types to the first checked position;
    ``bridges[k]`` relates consecutive checked positions.  A pair enters
    the seed when the whole chain of bridge memberships holds — for
    subsumption that is transitivity (sound under-approximation: a
    missing pair only forgoes a skip); for nondisjointness it is the
    absorption seed (approximate either way: a wrong fast-fail is caught
    by the sequential fallback, a missed one only forgoes a shortcut).
    """
    seeded: set[tuple[str, str]] = set()
    first_bridge: dict[str, set[str]] = {}
    for left, right in bridges[0]:
        first_bridge.setdefault(right, set()).add(left)
    later = [frozenset(bridge) for bridge in bridges[1:]]
    for tuple_name, member_types in tuples.items():
        if any(
            (member_types[k], member_types[k + 1]) not in later[k]
            for k in range(len(later))
        ):
            continue
        for source_type in first_bridge.get(member_types[0], ()):
            seeded.add((source_type, tuple_name))
    return frozenset(seeded)
