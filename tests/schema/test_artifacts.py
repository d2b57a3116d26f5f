"""Persisted schema-pair artifacts: round-trip fidelity and cache keys."""

import os
import pickle
import random

import pytest

from repro.schema.artifacts import (
    ARTIFACT_VERSION,
    ArtifactError,
    artifact_path,
    get_or_build,
    load,
    pair_cache_key,
    save,
    schema_fingerprint,
)
from repro.schema.model import Schema
from repro.schema.registry import SchemaPair
from repro.workloads.generators import random_schema, random_word
from repro.workloads.purchase_orders import (
    source_schema_experiment2,
    target_schema_experiment2,
)


@pytest.fixture()
def warmed_pair(exp2_source, exp2_target):
    pair = SchemaPair(exp2_source, exp2_target)
    pair.warm()
    return pair


class TestFingerprint:
    def test_stable_across_reconstruction(self):
        assert schema_fingerprint(
            source_schema_experiment2()
        ) == schema_fingerprint(source_schema_experiment2())

    def test_ignores_display_name(self, exp2_source):
        renamed = Schema(
            exp2_source.types, exp2_source.roots, name="something-else"
        )
        assert schema_fingerprint(renamed) == schema_fingerprint(exp2_source)

    def test_distinguishes_content_change(self, exp2_source, exp2_target):
        # Experiment 2's whole point: the schemas differ only in the
        # quantity facet, and the fingerprint must see it.
        assert schema_fingerprint(exp2_source) != schema_fingerprint(
            exp2_target
        )

    def test_key_direction_sensitive(self, exp2_source, exp2_target):
        assert pair_cache_key(exp2_source, exp2_target) != pair_cache_key(
            exp2_target, exp2_source
        )


class TestRoundTrip:
    def test_relations_survive_round_trip(self, warmed_pair, tmp_path):
        path = str(tmp_path / "pair.pkl")
        save(warmed_pair, path)
        loaded = load(path)
        assert loaded.r_sub == warmed_pair.r_sub
        assert loaded.r_nondis == warmed_pair.r_nondis
        assert loaded.symbols.labels == warmed_pair.symbols.labels

    def test_string_cast_decisions_survive_round_trip(
        self, warmed_pair, tmp_path
    ):
        path = str(tmp_path / "pair.pkl")
        save(warmed_pair, path)
        loaded = load(path)
        rng = random.Random(11)
        pairs = sorted(warmed_pair._string_casts)
        assert pairs, "warm() should have built string casts"
        assert sorted(loaded._string_casts) == pairs
        for source_type, target_type in pairs:
            source_dfa = warmed_pair.source.content_dfa(source_type)
            for _ in range(25):
                word = random_word(rng, source_dfa)
                if word is None:
                    break
                original = warmed_pair.string_cast(
                    source_type, target_type
                ).validate(word)
                reloaded = loaded.string_cast(
                    source_type, target_type
                ).validate(word)
                assert original.accepted == reloaded.accepted, (
                    source_type,
                    target_type,
                    word,
                )
                assert (
                    original.symbols_scanned == reloaded.symbols_scanned
                )

    def test_round_trip_on_random_schema_family(self, tmp_path):
        rng = random.Random(3)
        built = 0
        while built < 3:
            try:
                source = random_schema(rng, num_labels=5, num_complex=4)
                target = random_schema(rng, num_labels=5, num_complex=4)
            except Exception:
                continue
            pair = SchemaPair(source, target)
            pair.warm()
            path = str(tmp_path / f"pair{built}.pkl")
            save(pair, path)
            loaded = load(path)
            assert loaded.r_sub == pair.r_sub
            assert loaded.r_nondis == pair.r_nondis
            built += 1


class TestGetOrBuild:
    def test_miss_then_hit(self, exp2_source, exp2_target, tmp_path):
        cache = str(tmp_path)
        first, from_cache_first = get_or_build(exp2_source, exp2_target, cache)
        second, from_cache_second = get_or_build(
            exp2_source, exp2_target, cache
        )
        assert not from_cache_first and from_cache_second
        assert second.r_sub == first.r_sub
        assert second.r_nondis == first.r_nondis
        # The hit is warmed (the artifact carries the machines).
        assert second._string_casts.keys() == first._string_casts.keys()

    def test_schema_content_change_misses(
        self, exp2_source, exp2_target, tmp_path
    ):
        cache = str(tmp_path)
        get_or_build(exp2_source, exp2_target, cache)
        # Same schemas by name, different content: experiment 2 source
        # vs target differ only in the quantity facet.
        _, from_cache = get_or_build(exp2_source, exp2_source, cache)
        assert not from_cache

    def test_corrupt_artifact_heals(self, exp2_source, exp2_target, tmp_path):
        cache = str(tmp_path)
        get_or_build(exp2_source, exp2_target, cache)
        key = pair_cache_key(exp2_source, exp2_target)
        path = artifact_path(cache, key)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        pair, from_cache = get_or_build(exp2_source, exp2_target, cache)
        assert not from_cache
        assert pair.r_sub  # rebuilt fine
        # …and the rebuild re-persisted a good artifact.
        _, from_cache = get_or_build(exp2_source, exp2_target, cache)
        assert from_cache

    def test_version_mismatch_rejected(
        self, exp2_source, exp2_target, tmp_path
    ):
        pair = SchemaPair(exp2_source, exp2_target)
        path = str(tmp_path / "pair.pkl")
        save(pair, path)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["version"] = ARTIFACT_VERSION + 1
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(ArtifactError):
            load(path)

    def test_wrong_key_rejected(self, exp2_source, exp2_target, tmp_path):
        pair = SchemaPair(exp2_source, exp2_target)
        path = str(tmp_path / "pair.pkl")
        save(pair, path)
        with pytest.raises(ArtifactError):
            load(path, expected_key="0" * 64)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            load(str(tmp_path / "absent.pkl"))

    def test_save_is_atomic_no_temp_left_behind(
        self, warmed_pair, tmp_path
    ):
        path = str(tmp_path / "pair.pkl")
        size = save(warmed_pair, path)
        assert size > 0
        assert os.listdir(str(tmp_path)) == ["pair.pkl"]


class TestCachedCheckers:
    def test_walks_then_save_and_load(self, tmp_path):
        """The DOM walks keep each declaration's compiled value checker
        on the declaration.  A pair and a chain saved after those walks
        still pickle, load, and answer as before."""
        from repro.core.cast import CastValidator
        from repro.core.castmods import CastWithModificationsValidator
        from repro.core.updates import UpdateSession
        from repro.core.validator import validate_document
        from repro.schema.artifacts import chain_cache_key
        from repro.schema.chain import SchemaChain
        from repro.schema.simple import SimpleType
        from repro.workloads.evolution import (
            conforming_document,
            drift_chain,
            violating_document,
        )
        from repro.workloads.purchase_orders import make_purchase_order
        from repro.xmltree.parser import parse
        from repro.xmltree.serializer import serialize

        pair = SchemaPair(source_schema_experiment2(),
                          target_schema_experiment2())
        pair.warm()
        order = make_purchase_order(6)
        order.root.find("items").children[2].find(
            "quantity").children[0].value = "150"
        pair_texts = [serialize(make_purchase_order(6)), serialize(order)]
        schemas, kinds = drift_chain(3, ["tighten", "rename", "tighten"])
        chain_pair = SchemaChain(schemas).composed_pair()
        chain_texts = [conforming_document(schemas)] + [
            violating_document(schemas, kinds, hop) for hop in range(3)
        ]

        def verdicts(target_pair, texts):
            out = []
            for text in texts:
                doc = parse(text)
                for report in (
                    CastValidator(target_pair).validate(doc),
                    validate_document(target_pair.target, doc),
                ):
                    out.append((report.valid, report.reason, report.path))
                session = UpdateSession(parse(text))
                quantity = session.document.root.find("items").children[
                    0].find("quantity")
                session.replace_text(quantity.children[0], "7")
                report = CastWithModificationsValidator(
                    target_pair).validate(session)
                out.append((report.valid, report.reason, report.path))
            return out

        before = verdicts(pair, pair_texts)
        chain_before = verdicts(chain_pair, chain_texts)
        for schema in (pair.target, chain_pair.target):
            assert any(
                isinstance(declaration, SimpleType)
                and declaration._check is not None
                for declaration in schema.types.values()
            ), "the walks should have cached value checkers"

        pair_path = str(tmp_path / "pair.pkl")
        chain_path = str(tmp_path / "chain.pkl")
        save(pair, pair_path)
        save(chain_pair, chain_path, key=chain_cache_key(schemas))
        loaded = load(pair_path)
        loaded_chain = load(chain_path, expected_key=chain_cache_key(schemas))
        # The closures stay out of the pickle; a load binds each simple
        # record's checker again, its declaration's cached one.
        for loaded_pair in (loaded, loaded_chain):
            simple = [
                record for record in loaded_pair.kernel().records
                if record.simple_decl is not None
            ]
            assert simple
            for record in simple:
                assert record.check is not None
                assert record.check is record.simple_decl._check
        assert verdicts(loaded, pair_texts) == before
        assert verdicts(loaded_chain, chain_texts) == chain_before
