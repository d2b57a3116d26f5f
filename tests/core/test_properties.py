"""The central end-to-end property: on randomly generated schema pairs
and documents, the cast validators must agree exactly with full
validation against the target schema.

This is the tree-level analogue of Theorems 1-3: subsumption skips,
disjointness rejections, and immediate content decisions are pure
optimizations — the verdict never changes.
"""

import random

import pytest

from repro.core.cast import CastValidator
from repro.core.castmods import CastWithModificationsValidator
from repro.core.updates import UpdateSession
from repro.core.validator import validate_document, validate_element
from repro.schema.registry import SchemaPair
from repro.workloads.generators import random_schema, sample_document
from repro.workloads.mutations import perturb_schema, random_edits


def _random_pair_and_doc(rng):
    """A (pair, document) where the document is valid under the source.

    Target is either an independent random schema or a perturbation of
    the source (the realistic schema-evolution case)."""
    for _ in range(40):
        try:
            source = random_schema(rng)
        except Exception:
            continue
        doc = sample_document(rng, source, max_depth=6)
        if doc is None:
            continue
        assert validate_document(source, doc).valid
        try:
            if rng.random() < 0.5:
                target = perturb_schema(rng, source)
            else:
                target = random_schema(rng)
        except Exception:
            continue
        return SchemaPair(source, target), doc
    pytest.skip("could not build a random pair")


@pytest.mark.parametrize("seed", range(25))
def test_cast_agrees_with_full_validation(seed):
    rng = random.Random(seed)
    pair, doc = _random_pair_and_doc(rng)
    expected = validate_document(pair.target, doc)
    for use_string_cast in (True, False):
        validator = CastValidator(pair, use_string_cast=use_string_cast)
        report = validator.validate(doc)
        assert report.valid == expected.valid, (
            seed, use_string_cast, report.reason, expected.reason,
        )


@pytest.mark.parametrize("seed", range(25))
def test_cast_never_does_more_work_than_full(seed):
    rng = random.Random(1000 + seed)
    pair, doc = _random_pair_and_doc(rng)
    full = validate_document(pair.target, doc)
    cast = CastValidator(pair).validate(doc)
    assert cast.valid == full.valid
    if cast.valid and full.valid:
        assert cast.stats.nodes_visited <= full.stats.nodes_visited


@pytest.mark.parametrize("seed", range(150))
def test_cast_with_modifications_agrees_with_full(seed):
    rng = random.Random(5000 + seed)
    pair, doc = _random_pair_and_doc(rng)
    session = UpdateSession(doc)
    labels = sorted(pair.source.alphabet | pair.target.alphabet)
    random_edits(rng, session, rng.randint(0, 6), labels=labels)
    validator = CastWithModificationsValidator(pair)
    report = validator.validate(session)
    uncounted = CastWithModificationsValidator(
        pair, collect_stats=False
    ).validate(session)
    assert (uncounted.valid, uncounted.reason, uncounted.path) == (
        report.valid, report.reason, report.path,
    )
    try:
        result = session.result_document()
    except Exception:
        return  # root deleted; nothing to compare
    expected = validate_document(pair.target, result)
    assert report.valid == expected.valid, (
        seed, report.reason, expected.reason,
    )


@pytest.mark.parametrize("seed", range(20))
def test_single_schema_incremental_agrees(seed):
    """The b = a special case: revalidate edits against the same schema."""
    rng = random.Random(9000 + seed)
    for _ in range(40):
        try:
            schema = random_schema(rng)
        except Exception:
            continue
        doc = sample_document(rng, schema, max_depth=6)
        if doc is not None:
            break
    else:
        pytest.skip("no document")
    pair = SchemaPair(schema, schema)
    session = UpdateSession(doc)
    random_edits(rng, session, rng.randint(1, 5),
                 labels=sorted(schema.alphabet))
    report = CastWithModificationsValidator(pair).validate(session)
    expected = validate_document(schema, session.result_document())
    assert report.valid == expected.valid, (seed, report.reason,
                                            expected.reason)


@pytest.mark.parametrize("seed", range(15))
def test_sampled_documents_always_source_valid(seed):
    """Sanity of the generator itself: sample_document honours the
    schema (otherwise every other property here is vacuous)."""
    rng = random.Random(777 + seed)
    schema = None
    for _ in range(20):
        try:
            schema = random_schema(rng)
            break
        except Exception:
            continue
    assert schema is not None, "schema generation failed 20 times"
    for _ in range(3):
        doc = sample_document(rng, schema, max_depth=7)
        if doc is None:
            continue
        report = validate_document(schema, doc)
        assert report.valid, report.reason
