"""Tests for schema cast validation with modifications (Section 3.3)."""

import pytest

from repro.core.castmods import CastWithModificationsValidator
from repro.core.updates import UpdateSession
from repro.core.validator import validate_document
from repro.schema.model import Schema, attribute, complex_type
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


def assert_answers_as_full(pair, session):
    """Counted and uncounted runs both answer ``(valid, reason, path)``
    exactly as full validation of the materialized result document."""
    full = validate_document(pair.target, session.result_document())
    expected = (full.valid, full.reason, full.path)
    for collect_stats in (True, False):
        report = CastWithModificationsValidator(
            pair, collect_stats=collect_stats
        ).validate(session)
        assert (report.valid, report.reason, report.path) == expected
    return full


def insert_item(session, fields):
    """Insert a fresh ``item`` as the second child of ``items``, with one
    inserted leaf per ``(label, text)`` field (no text when ``None``)."""
    items = session.document.root.find("items")
    item = session.insert_element(items, 1, "item")
    for label, text in fields:
        leaf = session.insert_element(item, len(item.children), label)
        if text is not None:
            session.insert_text(leaf, 0, text)
    return item


VALID_ITEM = [("productName", "p"), ("quantity", "3"), ("USPrice", "1.5")]


class TestInsertedSubtreesAnswerAsFullValidation:
    """Case 3: an inserted subtree goes through the plain validator, so a
    fault inside it answers with full validation's reason and path."""

    def test_valid_inserted_item(self, exp2_pair):
        session = UpdateSession(make_purchase_order(4))
        insert_item(session, VALID_ITEM)
        assert assert_answers_as_full(exp2_pair, session).valid

    def test_undeclared_label_two_levels_down(self, exp2_pair):
        # items (marked) > item (inserted) > shipDay: the target never
        # declares shipDay, and the scan of the inserted item's content
        # finds it.
        session = UpdateSession(make_purchase_order(4))
        insert_item(session, VALID_ITEM + [("shipDay", "Monday")])
        full = assert_answers_as_full(exp2_pair, session)
        assert not full.valid
        assert full.reason == (
            "unexpected element 'shipDay' in content of 'Item'"
        )
        assert full.path == "2.1.3"

    def test_bad_value_in_inserted_leaf(self, exp2_pair):
        session = UpdateSession(make_purchase_order(4))
        insert_item(session, [("productName", "p"), ("quantity", "150"),
                              ("USPrice", "1.5")])
        full = assert_answers_as_full(exp2_pair, session)
        assert not full.valid
        assert "150" in full.reason
        assert full.path == "2.1.1"

    def test_character_data_in_inserted_complex_element(self, exp2_pair):
        session = UpdateSession(make_purchase_order(4))
        item = insert_item(session, VALID_ITEM)
        session.insert_text(item, 1, "stray")
        full = assert_answers_as_full(exp2_pair, session)
        assert not full.valid
        assert "does not allow character data" in full.reason
        assert full.path == "2.1.1"

    def test_missing_required_child(self, exp2_pair):
        session = UpdateSession(make_purchase_order(4))
        insert_item(session, [("productName", "p"), ("USPrice", "1.5")])
        full = assert_answers_as_full(exp2_pair, session)
        assert not full.valid
        assert "do not match content model" in full.reason
        assert full.path == "2.1"


def delete_subtree(session, node):
    """Delete ``node`` leaf by leaf, deepest first."""
    for child in list(getattr(node, "children", ())):
        delete_subtree(session, child)
    session.delete(node)


def set_quantity(session, item, value):
    session.replace_text(item.find("quantity").children[0], value)


class TestPositionsInTheEditedDocument:
    """A rejection's Dewey path counts live siblings only, as full
    validation of the edited document counts them; tombstones keep
    their places in the session's tree."""

    def test_deleted_item_before_the_fault(self, exp2_pair):
        session = UpdateSession(make_purchase_order(4))
        items = session.document.root.find("items").children
        delete_subtree(session, items[0])
        set_quantity(session, items[2], "150")
        full = assert_answers_as_full(exp2_pair, session)
        assert not full.valid
        assert full.path == "2.1.1"

    def test_deletion_inside_an_item(self, exp2_pair):
        # The item keeps a valid child string: its productName is
        # deleted and a fresh one inserted after the tombstone.
        session = UpdateSession(make_purchase_order(4))
        item = session.document.root.find("items").children[1]
        delete_subtree(session, item.children[0])
        name = session.insert_element(item, 1, "productName")
        session.insert_text(name, 0, "replacement")
        set_quantity(session, item, "150")
        full = assert_answers_as_full(exp2_pair, session)
        assert not full.valid
        assert full.path == "2.1.1"


class TestUndeclaredLabelBelowAMarkedNode:
    def test_renamed_to_a_label_the_target_never_declares(self, exp2_pair):
        session = UpdateSession(make_purchase_order(4))
        item = session.document.root.find("items").children[1]
        session.rename(item.find("shipDate"), "shipDay")
        full = assert_answers_as_full(exp2_pair, session)
        assert full.reason == (
            "unexpected element 'shipDay' in content of 'Item'"
        )
        assert full.path == "2.1.3"


@pytest.fixture()
def group_pair():
    """Source and target ``t: (a*, g*)`` with ``g: (a, b)``; the target
    declares an optional ``id`` attribute on ``g`` and narrows ``b``."""

    def build(b_type, g_attributes, name):
        return Schema(
            {
                "T": complex_type("T", "(a*,g*)", {"a": "Str", "g": "G"}),
                "G": complex_type(
                    "G", "(a,b)", {"a": "Str", "b": "B"}, g_attributes
                ),
                "Str": builtin("string"),
                "B": b_type,
            },
            {"t": "T"},
            name=name,
        )

    source = build(builtin("integer"), {}, "src")
    target = build(
        restrict(builtin("integer"), "B", min_inclusive=1),
        {"id": attribute("id", "Str")},
        "tgt",
    )
    return SchemaPair(source, target)


class TestEditedInsertedSubtree:
    @pytest.mark.parametrize("name, valid", [("id", True), ("ref", False)])
    def test_renamed_attributed_and_pruned(self, group_pair, name, valid):
        """An inserted subtree renamed, given an attribute and stripped
        of one inserted child answers as full validation does."""
        session = UpdateSession(parse("<t><a>x</a></t>"))
        group = session.insert_element(session.document.root, 1, "h")
        for label, text in [("a", "y"), ("a", "extra"), ("b", "4")]:
            leaf = session.insert_element(
                group, len(group.children), label
            )
            session.insert_text(leaf, 0, text)
        session.rename(group, "g")
        session.set_attribute(group, name, "g1")
        extra = group.children[1]
        session.delete(extra.children[0])
        session.delete(extra)
        assert session.delta(extra) is None  # removed outright
        full = assert_answers_as_full(group_pair, session)
        assert full.valid is valid


@pytest.fixture()
def promise_pair():
    """``b`` is simple in the source and complex in the target, so a
    ``b`` holding elements breaks the source's promise."""
    source = Schema(
        {
            "T": complex_type("T", "(a,b)", {"a": "Str", "b": "Str"}),
            "Str": builtin("string"),
        },
        {"t": "T"},
        name="src",
    )
    target = Schema(
        {
            "T": complex_type("T", "(a,b)", {"a": "Str", "b": "B"}),
            "B": complex_type("B", "(c,d?)", {"c": "C", "d": "Str"}),
            "C": complex_type("C", "(e)", {"e": "Pos"}),
            "Str": builtin("string"),
            "Pos": builtin("positiveInteger"),
        },
        {"t": "T"},
        name="tgt",
    )
    return SchemaPair(source, target)


BROKEN_PROMISE = "<t><a>x</a><b><c><e>1</e></c><d>y</d></b></t>"


class TestMarkedNodeWithoutSourceType:
    """An edit below a node the source types as simple: the edited path
    below ``b`` is marked, and the source assigns it no type at all."""

    @pytest.mark.parametrize("value, valid", [("7", True), ("-5", False)])
    def test_edit_below_simple_source_type(
        self, promise_pair, value, valid
    ):
        session = UpdateSession(parse(BROKEN_PROMISE))
        e = session.document.root.find("b").find("c").find("e")
        session.replace_text(e.children[0], value)
        full = assert_answers_as_full(promise_pair, session)
        assert full.valid is valid
        if not valid:
            assert full.path == "1.0.0"

    def test_rename_below_simple_source_type(self, promise_pair):
        session = UpdateSession(parse(BROKEN_PROMISE))
        session.rename(session.document.root.find("b").find("c").find("e"),
                       "d")
        full = assert_answers_as_full(promise_pair, session)
        assert not full.valid
        assert full.path == "1.0"


class TestRejectionsWordedAsFullValidation:
    """A marked node's rejections read as full validation of the result
    document reads them, not only its verdict and path."""

    def test_deleted_required_leaf(self, exp2_pair):
        session = UpdateSession(make_purchase_order(4))
        item = session.document.root.find("items").children[0]
        delete_subtree(session, item.find("productName"))
        full = assert_answers_as_full(exp2_pair, session)
        assert full.reason.startswith("children of 'item' do not match")
        assert full.path == "2.0"

    def test_renamed_root(self, exp2_pair):
        session = UpdateSession(make_purchase_order(2))
        session.rename(session.document.root, "zzz")
        full = assert_answers_as_full(exp2_pair, session)
        assert full.reason == "label 'zzz' is not a permitted root"
        assert full.path == ""
