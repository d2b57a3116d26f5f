"""Persistent compiled schema-pair artifacts.

Everything in a :class:`~repro.schema.registry.SchemaPair` — ``R_sub``,
``R_nondis``, the string-cast machines, the immediate decision automata
and their dense-table compilations — depends only on the two schemas,
never on a document.  The paper's static-preprocessing stance therefore
extends across *process restarts*: compile once, persist, and amortize
over every document a fleet of workers ever validates.

The cache is content-addressed.  :func:`schema_fingerprint` hashes a
canonical serialization of a schema's semantic content (declarations,
facets, content models, root map — *not* its display name), and a pair
artifact is keyed by the two fingerprints plus :data:`ARTIFACT_VERSION`.
Changing either schema, or bumping the version after a representation
change, misses the cache and rebuilds; a stale or corrupt file is
treated as a miss, never trusted.

Artifacts are pickles of the warmed pair.  Pickle is acceptable here
because the cache directory is an operator-controlled build product
(like a ``.pyc``), not untrusted input.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import Optional

from repro.errors import ReproError
from repro.guards import resolve_limits
from repro.schema.model import ComplexType, Schema, SimpleType
from repro.schema.registry import SchemaPair

#: Bump whenever the pickled representation of SchemaPair (or anything
#: it transitively contains) changes shape; old artifacts then miss.
#: v2: ``_string_casts`` became a lazy promotion table (was a plain dict).
#: v3: compiled tables went flat (``array('i')`` + ``bytes`` flags) and
#: pairs carry the fused :class:`~repro.schema.pairkernel.PairKernel`.
#: v4: composed evolution-chain pairs (a ``chain`` attribute holding the
#: :class:`~repro.schema.chain.SchemaChain`, product target schemas with
#: :class:`~repro.schema.simple.IntersectionType` values) may be pickled.
#: v5: ``_string_casts`` is a plain dict again (the promotion table is gone).
#: v6: every :class:`~repro.schema.model.Schema` carries a ``_kernel`` slot
#: (its plain-validation kernel, ``None`` until built).
#: v7: pairs drop the target immediate automata (``_target_immed``,
#: ``_target_immed_compiled``) and string-cast machines their
#: ``b_immed_compiled`` and ``symbols``.
ARTIFACT_VERSION = 7


class ArtifactError(ReproError):
    """A persisted artifact could not be loaded (missing, corrupt, or
    written by an incompatible version)."""

    code = "artifact-invalid"


# -- content fingerprints --------------------------------------------------------


def _facet_text(value) -> str:
    """Canonical text for a facet value (Fraction, date, int, None)."""
    return "" if value is None else str(value)


def _simple_fields(declaration: SimpleType) -> tuple:
    return (
        "simple",
        declaration.kind.value,
        _facet_text(declaration.min_inclusive),
        _facet_text(declaration.max_inclusive),
        _facet_text(declaration.min_exclusive),
        _facet_text(declaration.max_exclusive),
        _facet_text(declaration.min_length),
        _facet_text(declaration.max_length),
        ()
        if declaration.enumeration is None
        else tuple(sorted(declaration.enumeration)),
    )


def _complex_fields(declaration: ComplexType) -> tuple:
    return (
        "complex",
        declaration.content.to_source(),
        tuple(sorted(declaration.child_types.items())),
        tuple(
            (name, attr.type_name, attr.required)
            for name, attr in sorted(declaration.attributes.items())
        ),
    )


def schema_fingerprint(schema: Schema) -> str:
    """A hex digest of the schema's semantic content.

    Two schemas with the same declarations, root map and identity
    constraints hash equally regardless of display name or declaration
    order; any change to a content model, facet, attribute or root
    changes the digest.
    """
    entries = []
    for type_name in sorted(schema.types):
        declaration = schema.types[type_name]
        fields = (
            _simple_fields(declaration)
            if isinstance(declaration, SimpleType)
            else _complex_fields(declaration)
        )
        entries.append((type_name, fields))
    payload = repr(
        (
            tuple(entries),
            tuple(sorted(schema.roots.items())),
            tuple(
                (label, tuple(repr(c) for c in constraints))
                for label, constraints in sorted(schema.identity.items())
            ),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def pair_cache_key(source: Schema, target: Schema) -> str:
    """The content-addressed key of a (source, target) artifact."""
    digest = hashlib.sha256()
    digest.update(f"repro-pair-v{ARTIFACT_VERSION}\n".encode("ascii"))
    digest.update(schema_fingerprint(source).encode("ascii"))
    digest.update(b"\n")
    digest.update(schema_fingerprint(target).encode("ascii"))
    return digest.hexdigest()


def chain_cache_key(schemas) -> str:
    """The content-addressed key of a composed S₁→…→Sₙ chain artifact.

    Hashes *every* fingerprint in order — a chain through different
    intermediate schemas is a different composition even when its two
    endpoints agree, because the intermediates decide which checks the
    hop analysis keeps.
    """
    digest = hashlib.sha256()
    digest.update(f"repro-chain-v{ARTIFACT_VERSION}\n".encode("ascii"))
    for schema in schemas:
        digest.update(schema_fingerprint(schema).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def artifact_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"pair-{key[:32]}.pkl")


# -- persistence -----------------------------------------------------------------


def save(pair: SchemaPair, path: str, *, key: Optional[str] = None) -> int:
    """Persist a pair artifact; returns the file size in bytes.

    ``key`` defaults to the two-schema :func:`pair_cache_key`; composed
    chain pairs pass their :func:`chain_cache_key` instead, so a chain
    artifact can never satisfy a plain-pair lookup (or vice versa).

    The write goes through a temporary file and an atomic rename, so a
    crashed writer never leaves a half-written artifact for a
    concurrent reader (or a later :func:`get_or_build`) to trust.
    """
    payload = {
        "version": ARTIFACT_VERSION,
        "key": key or pair_cache_key(pair.source, pair.target),
        "pair": pair,
    }
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return len(blob)


def load(path: str, *, expected_key: Optional[str] = None) -> SchemaPair:
    """Load a persisted pair artifact.

    Raises :class:`ArtifactError` when the file is unreadable, was
    written by a different :data:`ARTIFACT_VERSION`, oversized for the
    ambient ``Limits.max_document_bytes`` budget, or (when
    ``expected_key`` is given) belongs to different schema content.
    """
    max_bytes = resolve_limits(None).max_document_bytes
    try:
        if max_bytes is not None and os.path.getsize(path) > max_bytes:
            # Size-check before buffering/unpickling: a truncation-
            # corrupted or runaway artifact is a cache miss, not an OOM.
            raise ArtifactError(
                f"artifact {path!r} is {os.path.getsize(path)} bytes, "
                f"exceeding the max_document_bytes limit of {max_bytes}"
            )
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise ArtifactError(f"no artifact at {path!r}") from None
    except ArtifactError:
        raise
    except Exception as error:
        raise ArtifactError(
            f"artifact {path!r} is unreadable: {error}"
        ) from error
    if not isinstance(payload, dict) or "pair" not in payload:
        raise ArtifactError(f"artifact {path!r} has an unexpected layout")
    if payload.get("version") != ARTIFACT_VERSION:
        raise ArtifactError(
            f"artifact {path!r} was written by version "
            f"{payload.get('version')!r}, expected {ARTIFACT_VERSION}"
        )
    if expected_key is not None and payload.get("key") != expected_key:
        raise ArtifactError(
            f"artifact {path!r} belongs to different schema content"
        )
    pair = payload["pair"]
    if not isinstance(pair, SchemaPair):
        raise ArtifactError(f"artifact {path!r} does not hold a SchemaPair")
    return pair


def get_or_build(
    source: Schema,
    target: Schema,
    cache_dir: str,
    *,
    warm: bool = True,
) -> tuple[SchemaPair, bool]:
    """The pair for (source, target), from cache when possible.

    Returns ``(pair, from_cache)``.  A hit requires an artifact whose
    stored key matches the current content hash of both schemas; any
    mismatch (edited schema, corrupt file, version bump) silently
    rebuilds — and re-persists, healing the cache.
    """
    key = pair_cache_key(source, target)
    path = artifact_path(cache_dir, key)
    try:
        return load(path, expected_key=key), True
    except ArtifactError:
        pass
    pair = SchemaPair(source, target)
    if warm:
        pair.warm()
    save(pair, path)
    return pair, False


def get_or_build_chain(
    schemas,
    cache_dir: str,
    *,
    warm: bool = True,
) -> tuple[SchemaPair, bool]:
    """The composed pair for an S₁→…→Sₙ evolution chain, cached like
    :func:`get_or_build` but keyed by :func:`chain_cache_key` over every
    schema in order.  Returns ``(composed_pair, from_cache)``; the pair
    carries its :class:`~repro.schema.chain.SchemaChain` as ``.chain``
    (pickled along with it), so a cache hit restores the sequential
    fallback path too.
    """
    from repro.schema.chain import SchemaChain  # local: avoid cycle

    schemas = list(schemas)
    key = chain_cache_key(schemas)
    path = artifact_path(cache_dir, key)
    try:
        pair = load(path, expected_key=key)
        if getattr(pair, "chain", None) is not None:
            return pair, True
    except ArtifactError:
        pass
    chain = SchemaChain(schemas)
    pair = chain.composed_pair()
    if warm:
        chain.warm()
    save(pair, path, key=key)
    return pair, False
