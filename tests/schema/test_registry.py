"""Tests for the preprocessed SchemaPair registry."""

from repro.schema.model import Schema, complex_type
from repro.schema.registry import SchemaPair
from repro.schema.simple import builtin


def make_pair(target_model="(a,b?)"):
    source = Schema(
        {
            "T": complex_type("T", "(a,b?)", {"a": "Int", "b": "Str"}),
            "Int": builtin("integer"),
            "Str": builtin("string"),
        },
        {"t": "T"},
        name="src",
    )
    target = Schema(
        {
            "T": complex_type("T", target_model, {"a": "Str", "b": "Str"}),
            "Str": builtin("string"),
            "Date": builtin("date"),
        },
        {"t": "T"},
        name="tgt",
    )
    return SchemaPair(source, target)


class TestRelations:
    def test_subsumption_query(self):
        pair = make_pair()
        assert pair.is_subsumed("Int", "Str")
        assert pair.is_subsumed("T", "T")  # int ⊆ string childwise
        assert not pair.is_subsumed("Str", "Date")

    def test_disjoint_query(self):
        pair = make_pair()
        assert pair.is_disjoint("Int", "Date")
        assert not pair.is_disjoint("Int", "Str")

    def test_relations_cover_type_products(self):
        pair = make_pair()
        for tau in pair.source.types:
            for tau_p in pair.target.types:
                # Exactly one of: subsumed implies non-disjoint
                # (productive types are never both).
                if pair.is_subsumed(tau, tau_p):
                    assert not pair.is_disjoint(tau, tau_p)


class TestCaches:
    def test_string_cast_cached(self):
        pair = make_pair()
        assert pair.string_cast("T", "T") is pair.string_cast("T", "T")

    def test_warm_builds_needed_machines(self):
        # b turns required, so T -> T is neither subsumed nor disjoint:
        # it scans, on its string-cast machine through its kernel record.
        pair = make_pair("(a,b)")
        pair.warm()
        assert set(pair._string_casts) == {("T", "T")}
        assert "T" in pair._target_content  # built for complex targets
        records = pair.kernel().records
        assert [(r.source_type, r.target_type) for r in records] == [
            ("T", "T")
        ]
        assert records[0].ready

    def test_memory_depends_only_on_schemas(self):
        """The paper's headline: state size is document-independent."""
        pair = make_pair("(a,b)")
        pair.warm()

        def sizes():
            return (
                len(pair._string_casts),
                len(pair._target_content),
                len(pair.kernel().records),
            )

        machines_before = sizes()
        # "Process" many documents.
        from repro.core.cast import CastValidator
        from repro.xmltree.parser import parse

        validator = CastValidator(pair)
        for n in (1, 10, 100):
            doc = parse("<t><a>1</a><b>" + "x" * n + "</b></t>")
            assert validator.validate(doc).valid
        assert sizes() == machines_before


class TestRootPair:
    def test_known_root(self):
        pair = make_pair()
        assert pair.root_pair("t") == ("T", "T")

    def test_unknown_root(self):
        pair = make_pair()
        assert pair.root_pair("zzz") is None
