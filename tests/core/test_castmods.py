"""Tests for schema cast validation with modifications (Section 3.3)."""

import pytest

from repro.core.castmods import CastWithModificationsValidator
from repro.core.updates import UpdateSession
from repro.core.validator import validate_document
from repro.schema.model import Schema, complex_type
from repro.schema.registry import SchemaPair
from repro.schema.simple import builtin, restrict
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.parser import parse


@pytest.fixture()
def simple_pair():
    """Source: (a*, b?); target: (a+, b) with narrower leaf on b."""
    source = Schema(
        {
            "T": complex_type("T", "(a*,b?)", {"a": "Str", "b": "Num"}),
            "Str": builtin("string"),
            "Num": builtin("integer"),
        },
        {"t": "T"},
        name="src",
    )
    target = Schema(
        {
            "T": complex_type("T", "(a+,b)", {"a": "Str", "b": "Pos"}),
            "Str": builtin("string"),
            "Pos": builtin("positiveInteger"),
        },
        {"t": "T"},
        name="tgt",
    )
    return SchemaPair(source, target)


def check_against_full(validator, session, target_schema):
    """The with-modifications verdict must equal full validation of the
    materialized result document."""
    report = validator.validate(session)
    expected = validate_document(target_schema, session.result_document())
    assert report.valid == expected.valid, (
        report.reason, expected.reason,
    )
    return report


class TestUnmodifiedFallsBackToPlainCast:
    def test_no_edits_same_as_cast(self, exp1_pair):
        doc = make_purchase_order(10)
        session = UpdateSession(doc)
        validator = CastWithModificationsValidator(exp1_pair)
        report = validator.validate(session)
        assert report.valid
        # Root subtree unmodified: the plain cast path ran (it skips via
        # subsumption/early content decisions, so few nodes visited).
        assert report.stats.nodes_visited <= 2


class TestInsertions:
    def test_insert_makes_invalid_document_valid(self, exp1_pair, exp1_target):
        doc = make_purchase_order(5, with_billto=False)
        session = UpdateSession(doc)
        billto = session.insert_after(
            session.document.root.find("shipTo"), "billTo"
        )
        for label, text in [
            ("name", "B"), ("street", "S"), ("city", "C"),
            ("state", "ST"), ("zip", "1"), ("country", "US"),
        ]:
            child = session.insert_element(billto, len(billto.children), label)
            session.insert_text(child, 0, text)
        validator = CastWithModificationsValidator(exp1_pair)
        report = check_against_full(validator, session, exp1_target)
        assert report.valid

    def test_incomplete_insert_stays_invalid(self, exp1_pair, exp1_target):
        doc = make_purchase_order(5, with_billto=False)
        session = UpdateSession(doc)
        session.insert_after(session.document.root.find("shipTo"), "billTo")
        validator = CastWithModificationsValidator(exp1_pair)
        report = check_against_full(validator, session, exp1_target)
        assert not report.valid

    def test_inserted_subtree_fully_validated(self, simple_pair):
        doc = parse("<t><a>x</a><b>5</b></t>")
        session = UpdateSession(doc)
        new_a = session.insert_first(session.document.root, "a")
        session.insert_text(new_a, 0, "fresh")
        validator = CastWithModificationsValidator(simple_pair)
        report = check_against_full(
            validator, session, simple_pair.target
        )
        assert report.valid


class TestDeletions:
    def test_delete_required_child_invalidates(self, simple_pair):
        doc = parse("<t><a>x</a><b>5</b></t>")
        session = UpdateSession(doc)
        b = session.document.root.find("b")
        session.delete(b.children[0])
        session.delete(b)
        validator = CastWithModificationsValidator(simple_pair)
        report = check_against_full(validator, session, simple_pair.target)
        assert not report.valid

    def test_delete_optional_extra_stays_valid(self, simple_pair):
        doc = parse("<t><a>x</a><a>y</a><b>5</b></t>")
        session = UpdateSession(doc)
        second_a = session.document.root.find_all("a")[1]
        session.delete(second_a.children[0])
        session.delete(second_a)
        validator = CastWithModificationsValidator(simple_pair)
        report = check_against_full(validator, session, simple_pair.target)
        assert report.valid

    def test_tombstones_not_counted_in_content(self, simple_pair):
        doc = parse("<t><a>x</a><a>y</a><b>5</b></t>")
        session = UpdateSession(doc)
        for a in session.document.root.find_all("a"):
            session.delete(a.children[0])
            session.delete(a)
        validator = CastWithModificationsValidator(simple_pair)
        # a+ requires at least one a in the target.
        report = check_against_full(validator, session, simple_pair.target)
        assert not report.valid


class TestRenames:
    def test_rename_to_compatible_label(self, exp1_pair, exp1_target):
        # shipTo and billTo share the USAddress type.
        doc = make_purchase_order(3, with_billto=False)
        session = UpdateSession(doc)
        # Rename shipTo -> billTo, then insert a new shipTo... actually
        # make the PO invalid: billTo,shipTo order is wrong.
        session.rename(session.document.root.find("shipTo"), "billTo")
        validator = CastWithModificationsValidator(exp1_pair)
        report = check_against_full(validator, session, exp1_target)
        assert not report.valid

    def test_rename_root(self, simple_pair):
        doc = parse("<t><a>x</a><b>5</b></t>")
        session = UpdateSession(doc)
        session.rename(session.document.root, "zzz")
        validator = CastWithModificationsValidator(simple_pair)
        report = validator.validate(session)
        assert not report.valid
        assert "permitted root" in report.reason

    def test_rename_to_unknown_label(self, simple_pair):
        doc = parse("<t><a>x</a><b>5</b></t>")
        session = UpdateSession(doc)
        session.rename(session.document.root.find("a"), "mystery")
        validator = CastWithModificationsValidator(simple_pair)
        report = check_against_full(validator, session, simple_pair.target)
        assert not report.valid


class TestTextEdits:
    def test_text_change_rechecked_against_target(self, simple_pair):
        doc = parse("<t><a>x</a><b>5</b></t>")
        session = UpdateSession(doc)
        b_text = session.document.root.find("b").children[0]
        session.replace_text(b_text, "-3")  # integer ok, positive no
        validator = CastWithModificationsValidator(simple_pair)
        report = check_against_full(validator, session, simple_pair.target)
        assert not report.valid

    def test_text_change_to_valid_value(self, simple_pair):
        doc = parse("<t><a>x</a><b>5</b></t>")
        session = UpdateSession(doc)
        b_text = session.document.root.find("b").children[0]
        session.replace_text(b_text, "42")
        validator = CastWithModificationsValidator(simple_pair)
        report = check_against_full(validator, session, simple_pair.target)
        assert report.valid


class TestLocality:
    def test_untouched_siblings_not_traversed(self, exp2_pair):
        """Editing one item must not force re-walking its siblings
        (they go through the no-modifications cast, which skips or
        checks only quantities)."""
        doc = make_purchase_order(100)
        session = UpdateSession(doc)
        items = session.document.root.find("items")
        first_item = items.children[0]
        quantity_text = first_item.find("quantity").children[0]
        session.replace_text(quantity_text, "7")
        validator = CastWithModificationsValidator(exp2_pair)
        report = validator.validate(session)
        assert report.valid
        # Each untouched item still has its quantity checked (exp2), but
        # nothing beyond that: strictly fewer nodes than full validation.
        full = validate_document(
            exp2_pair.target, session.result_document()
        )
        assert report.stats.nodes_visited < full.stats.nodes_visited

    def test_single_schema_update_fast_path(self, exp2_source):
        pair = SchemaPair(exp2_source, exp2_source)
        doc = make_purchase_order(50)
        session = UpdateSession(doc)
        items = session.document.root.find("items")
        item = session.insert_element(items, 0, "item")
        for label, text in [("productName", "p"), ("quantity", "3"),
                            ("USPrice", "1.0")]:
            child = session.insert_element(item, len(item.children), label)
            session.insert_text(child, 0, text)
        validator = CastWithModificationsValidator(pair)
        report = validator.validate(session)
        assert report.valid
        # Only the edited path is re-examined; untouched items are
        # skipped wholesale via the identity subsumption.
        assert report.stats.nodes_visited <= 12


def _outcome(report):
    return (report.valid, report.reason, report.path, report.stats.as_dict())


class TestUnsoundSkipFails:
    """An edit beside an unmodified sibling under a non-subsumed pair:
    a walk that skipped the sibling would accept what the target
    rejects."""

    @pytest.mark.parametrize("edited, bad", [(1, 3), (3, 1)])
    def test_unmodified_sibling_quantity_rejected(
        self, exp2_pair, exp2_target, edited, bad
    ):
        doc = make_purchase_order(5)
        items = doc.root.find("items").children
        # 150 is valid under the source (< 200), not the target (< 100).
        items[bad].find("quantity").children[0].value = "150"
        session = UpdateSession(doc)
        session.replace_text(
            items[edited].find("productName").children[0], "renamed"
        )
        expected_path = str(items[bad].find("quantity").dewey())
        for collect_stats in (True, False):
            validator = CastWithModificationsValidator(
                exp2_pair, collect_stats=collect_stats
            )
            report = check_against_full(validator, session, exp2_target)
            assert not report.valid
            assert report.path == expected_path
            assert "150" in report.reason

    def test_insert_then_delete_equals_untouched(self, exp2_pair):
        untouched = UpdateSession(make_purchase_order(8))
        session = UpdateSession(make_purchase_order(8))
        validator = CastWithModificationsValidator(exp2_pair)
        baseline = _outcome(validator.validate(untouched))
        items = session.document.root.find("items")
        inserted = session.insert_element(items, 3, "item")
        # Query once with the insert in place, so the removal must drop
        # marks that were already built.
        assert not validator.validate(session).valid
        session.delete(inserted)
        assert session.delta(inserted) is None
        assert not session.modified(session.document.root)
        assert _outcome(validator.validate(session)) == baseline
