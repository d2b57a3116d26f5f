"""The service's schema-pair registry: fingerprint-keyed, warmed at boot.

Schemas are known statically (the paper's premise), so the service
compiles every registered pair **before** accepting traffic: ``readyz``
flips only after :meth:`ServiceRegistry.warm` finishes.  Each pair is
addressable by its operator-chosen name *and* by its content
fingerprint (:func:`repro.schema.artifacts.pair_cache_key`), so a
client pinned to a fingerprint can never silently validate against
edited schema content — the key changes with the content.

Per-pair budgets follow the ``SCHEMA_CONFIG`` idiom: a
:class:`PairSpec` may carry its own :class:`~repro.guards.Limits`
(notably ``deadline_seconds``, the pair's per-request wall-clock
budget) overriding the service default — a complex schema gets a
tighter or looser deadline than the rest without touching global
configuration.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.guards import DEFAULT_LIMITS, Limits
from repro.schema.artifacts import (
    chain_cache_key,
    get_or_build,
    get_or_build_chain,
    pair_cache_key,
    schema_fingerprint,
)
from repro.schema.dtd import parse_dtd
from repro.schema.model import Schema
from repro.schema.registry import SchemaPair
from repro.schema.xsd import parse_xsd_file
from repro.service.errors import (
    MalformedRequestError,
    NotReadyError,
    PairConflictError,
    UnknownPairError,
)

__all__ = [
    "ChainSpec",
    "PairSpec",
    "RegisteredPair",
    "ServiceRegistry",
    "demo_chain_spec",
    "demo_specs",
]

#: Shortest fingerprint prefix accepted by lookup — long enough that a
#: typo cannot plausibly alias onto another registered pair.
MIN_FINGERPRINT_PREFIX = 8


def load_schema_file(path: str) -> Schema:
    """Load a schema file, dispatching on the extension (`.dtd` → DTD,
    anything else → XSD)."""
    if path.endswith(".dtd"):
        with open(path, encoding="utf-8") as handle:
            return parse_dtd(handle.read(), name=path)
    return parse_xsd_file(path)


@dataclass(frozen=True)
class PairSpec:
    """One pair to register: schema sources plus an optional budget.

    ``source``/``target`` are file paths (loaded at warm-up) or already
    parsed :class:`Schema` objects (embedded services, tests,
    benchmarks).  ``limits=None`` inherits the registry default.
    """

    name: str
    source: Union[str, Schema]
    target: Union[str, Schema]
    limits: Optional[Limits] = None


@dataclass(frozen=True)
class ChainSpec:
    """An S₁→…→Sₙ evolution chain to register as one composed pair.

    ``schemas`` are file paths or parsed :class:`Schema` objects, in
    evolution order (at least two).  The registry composes them into a
    single :class:`~repro.schema.chain.SchemaChain` pair at warm-up, so
    ``POST /cast-chain`` against the entry runs one fused pass with the
    per-hop sequential fallback intact.
    """

    name: str
    schemas: tuple[Union[str, Schema], ...]
    limits: Optional[Limits] = None


@dataclass(frozen=True)
class RegisteredPair:
    """A warmed pair plus everything a request handler needs."""

    name: str
    pair: SchemaPair
    #: Content fingerprint of the (source, target) pair — the stable
    #: client-visible address (see :func:`pair_cache_key`).  Chain
    #: entries use :func:`chain_cache_key` over every schema in order.
    fingerprint: str
    source_fingerprint: str
    target_fingerprint: str
    #: The per-request budget for this pair (``deadline_seconds`` is
    #: the pair's wall-clock allowance; size/depth/entity bounds guard
    #: its documents).
    limits: Limits
    from_cache: bool = False
    #: Number of schemas in the evolution chain this entry composes
    #: (0 for a plain two-schema pair).
    chain_length: int = 0


class ServiceRegistry:
    """All pairs the service will ever validate against, warmed once.

    Lookup accepts an operator name, a full pair fingerprint, or a
    unique fingerprint prefix of at least
    :data:`MIN_FINGERPRINT_PREFIX` hex digits.  Before :meth:`warm`
    completes every lookup raises :class:`NotReadyError` — the server
    maps that to 503, which is what makes ``readyz`` meaningful.
    """

    def __init__(
        self,
        specs: Sequence[Union[PairSpec, ChainSpec]],
        *,
        cache_dir: Optional[str] = None,
        default_limits: Optional[Limits] = None,
    ):
        if not specs:
            raise ValueError("a service registry needs at least one pair")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pair names in {names}")
        self._specs = list(specs)
        self._cache_dir = cache_dir
        self._default_limits = (
            DEFAULT_LIMITS if default_limits is None else default_limits
        )
        self._by_name: dict[str, RegisteredPair] = {}
        self._by_fingerprint: dict[str, RegisteredPair] = {}
        self._ready = False
        self.warm_seconds: float = 0.0
        #: Guards hot register/retire against concurrent handler threads;
        #: warm-up runs before traffic and needs no lock.
        self._mutate = threading.Lock()
        #: Bumped on every successful register/retire — observability
        #: for hot-reload tests and the ``/pairs`` watchers.
        self.generation = 0

    def __len__(self) -> int:
        return len(self._specs)

    @property
    def ready(self) -> bool:
        return self._ready

    def warm(self) -> float:
        """Load, compile, and warm every registered pair; returns the
        wall-clock seconds spent.  Idempotent — a second call is free.

        With a ``cache_dir`` the compiled pair round-trips through the
        persisted-artifact cache (:func:`get_or_build`), so a restarted
        service warms from disk instead of recompiling.
        """
        if self._ready:
            return self.warm_seconds
        started = time.perf_counter()
        for spec in self._specs:
            entry = self._build_entry(spec)
            self._by_name[spec.name] = entry
            self._by_fingerprint[entry.fingerprint] = entry
        self.warm_seconds = time.perf_counter() - started
        self._ready = True
        return self.warm_seconds

    def _build_entry(
        self, spec: Union[PairSpec, ChainSpec]
    ) -> RegisteredPair:
        """Load, compile (or restore from the artifact cache), and wrap
        one spec — the single compilation point for boot warm-up and
        hot registration alike.  :class:`ChainSpec` entries compose
        their schemas into one chain pair (``chain_length`` > 0)."""
        entry = (
            self._build_chain_entry(spec)
            if isinstance(spec, ChainSpec)
            else self._build_pair_entry(spec)
        )
        # POST /validate runs either schema alone on its plain kernel;
        # SchemaPair.warm() builds only the pair's own tables.
        entry.pair.source.kernel().warm()
        entry.pair.target.kernel().warm()
        return entry

    def _build_pair_entry(self, spec: PairSpec) -> RegisteredPair:
        source = (
            spec.source
            if isinstance(spec.source, Schema)
            else load_schema_file(spec.source)
        )
        target = (
            spec.target
            if isinstance(spec.target, Schema)
            else load_schema_file(spec.target)
        )
        from_cache = False
        if self._cache_dir is not None:
            pair, from_cache = get_or_build(
                source, target, self._cache_dir
            )
        else:
            pair = SchemaPair(source, target)
            pair.warm()
        return RegisteredPair(
            name=spec.name,
            pair=pair,
            fingerprint=pair_cache_key(source, target),
            source_fingerprint=schema_fingerprint(source),
            target_fingerprint=schema_fingerprint(target),
            limits=spec.limits or self._default_limits,
            from_cache=from_cache,
        )

    def _build_chain_entry(self, spec: ChainSpec) -> RegisteredPair:
        from repro.schema.chain import SchemaChain  # local: avoid cycle

        schemas = [
            entry
            if isinstance(entry, Schema)
            else load_schema_file(entry)
            for entry in spec.schemas
        ]
        from_cache = False
        if self._cache_dir is not None:
            pair, from_cache = get_or_build_chain(
                schemas, self._cache_dir
            )
        else:
            chain = SchemaChain(schemas, name=spec.name)
            pair = chain.composed_pair()
            chain.warm()
        return RegisteredPair(
            name=spec.name,
            pair=pair,
            fingerprint=chain_cache_key(schemas),
            source_fingerprint=schema_fingerprint(pair.source),
            target_fingerprint=schema_fingerprint(schemas[-1]),
            limits=spec.limits or self._default_limits,
            from_cache=from_cache,
            chain_length=len(pair.chain.schemas),
        )

    # -- hot reload (the admin plane) ----------------------------------------

    def register(self, spec: PairSpec) -> tuple[RegisteredPair, bool]:
        """Hot-register one pair on a live registry.

        Returns ``(entry, created)``.  Registering content that is
        already present under the same name is an idempotent no-op
        (``created=False``) — that is what makes journal-replayed
        registrations across a pre-fork fleet safe.  A name collision
        with *different* content is a :class:`PairConflictError`: a
        client pinned to the name must never silently start validating
        against edited schemas (re-register under a new name, or retire
        first).  Fingerprint addressing is what makes the swap
        race-free: in-flight requests hold their ``RegisteredPair``
        reference and finish against the pair they resolved.
        """
        if not self._ready:
            raise NotReadyError("registry warm-up has not finished")
        entry = self._build_entry(spec)
        with self._mutate:
            existing = self._by_name.get(spec.name)
            if existing is not None:
                if existing.fingerprint == entry.fingerprint:
                    return existing, False
                raise PairConflictError(
                    f"pair name {spec.name!r} is already registered "
                    f"with different schema content "
                    f"(fingerprint {existing.fingerprint[:12]}…); "
                    "retire it first or pick a new name"
                )
            held = self._by_fingerprint.get(entry.fingerprint)
            if held is not None:
                raise PairConflictError(
                    f"this schema content is already registered as "
                    f"{held.name!r} (fingerprint "
                    f"{held.fingerprint[:12]}…)"
                )
            self._specs.append(spec)
            self._by_name[spec.name] = entry
            self._by_fingerprint[entry.fingerprint] = entry
            self.generation += 1
        return entry, True

    def retire(self, key: str) -> RegisteredPair:
        """Remove a pair by name, fingerprint, or unique prefix.

        The entry disappears from lookup immediately; requests already
        holding it finish normally (they own a reference — nothing is
        torn down).  The last registered pair cannot be retired: a
        service with an empty registry can only answer 404, which is a
        misconfiguration, not an operation.
        """
        entry = self.get(key)
        with self._mutate:
            if len(self._specs) == 1:
                raise MalformedRequestError(
                    "cannot retire the last registered pair"
                )
            current = self._by_name.get(entry.name)
            if current is None or current.fingerprint != entry.fingerprint:
                raise UnknownPairError(
                    f"pair {key!r} was already retired"
                )
            del self._by_name[entry.name]
            del self._by_fingerprint[entry.fingerprint]
            self._specs = [
                spec for spec in self._specs if spec.name != entry.name
            ]
            self.generation += 1
        return entry

    def get(self, key: str) -> RegisteredPair:
        """The pair registered under ``key`` (name, fingerprint, or
        unique fingerprint prefix)."""
        if not self._ready:
            raise NotReadyError("registry warm-up has not finished")
        entry = self._by_name.get(key) or self._by_fingerprint.get(key)
        if entry is not None:
            return entry
        if (
            len(key) >= MIN_FINGERPRINT_PREFIX
            and all(c in "0123456789abcdef" for c in key)
        ):
            matches = [
                candidate
                for fingerprint, candidate in self._by_fingerprint.items()
                if fingerprint.startswith(key)
            ]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise UnknownPairError(
                    f"fingerprint prefix {key!r} is ambiguous "
                    f"({len(matches)} pairs match)"
                )
        raise UnknownPairError(f"no schema pair registered as {key!r}")

    def entries(self) -> list[RegisteredPair]:
        if not self._ready:
            raise NotReadyError("registry warm-up has not finished")
        return [self._by_name[spec.name] for spec in self._specs]

    def describe(self) -> list[dict]:
        """The ``GET /pairs`` payload: one record per registered pair.
        Chain entries additionally carry their ``chain_length``."""
        records = []
        for entry in self.entries():
            record = {
                "name": entry.name,
                "fingerprint": entry.fingerprint,
                "source_fingerprint": entry.source_fingerprint,
                "target_fingerprint": entry.target_fingerprint,
                "deadline_seconds": entry.limits.deadline_seconds,
                "max_document_bytes": entry.limits.max_document_bytes,
                "max_tree_depth": entry.limits.max_tree_depth,
                "from_cache": entry.from_cache,
            }
            if entry.chain_length:
                record["chain_length"] = entry.chain_length
            records.append(record)
        return records


def demo_specs(limits: Optional[Limits] = None) -> list[PairSpec]:
    """The paper's two purchase-order pairs as in-process specs — the
    zero-configuration registry behind ``repro serve --demo`` (CI smoke,
    quickstarts, benchmarks)."""
    from repro.workloads import purchase_orders as po

    return [
        PairSpec(
            "po-exp1",
            po.source_schema_experiment1(),
            po.target_schema_experiment1(),
            limits=limits,
        ),
        PairSpec(
            "po-exp2",
            po.source_schema_experiment2(),
            po.target_schema_experiment2(),
            limits=limits,
        ),
    ]


def demo_chain_spec(limits: Optional[Limits] = None) -> ChainSpec:
    """A three-hop purchase-order drift chain (quantity bound tightening,
    then billTo becoming required) for ``--demo-chain`` smoke runs and
    the chain service tests."""
    from repro.workloads import purchase_orders as po

    return ChainSpec(
        "po-chain",
        (
            po.purchase_order_schema(
                billto_optional=True, quantity_max_exclusive=400
            ),
            po.purchase_order_schema(
                billto_optional=True, quantity_max_exclusive=200
            ),
            po.purchase_order_schema(
                billto_optional=False, quantity_max_exclusive=100
            ),
        ),
        limits=limits,
    )
