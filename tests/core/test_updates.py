"""Tests for tree update sessions and Δ-label bookkeeping (Section 3.3)."""

import random

import pytest

from repro.core.updates import UpdateSession
from repro.dewey import DeweyTrie
from repro.errors import UpdateError
from repro.workloads.generators import random_schema, sample_document
from repro.workloads.mutations import random_edits
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.dom import CHI, Document, Element, Text, element
from repro.xmltree.parser import parse


def session_for(text="<po><shipTo><name>A</name></shipTo><items/></po>"):
    return UpdateSession(parse(text))


class TestRename:
    def test_rename_records_delta(self):
        session = session_for()
        ship_to = session.document.root.find("shipTo")
        session.rename(ship_to, "billTo")
        assert ship_to.label == "billTo"
        assert session.proj_old(ship_to) == "shipTo"
        assert session.proj_new(ship_to) == "billTo"

    def test_double_rename_keeps_original_old(self):
        session = session_for()
        ship_to = session.document.root.find("shipTo")
        session.rename(ship_to, "x")
        session.rename(ship_to, "y")
        assert session.proj_old(ship_to) == "shipTo"
        assert session.proj_new(ship_to) == "y"

    def test_rename_back_still_marked_modified(self):
        session = session_for()
        ship_to = session.document.root.find("shipTo")
        session.rename(ship_to, "x")
        session.rename(ship_to, "shipTo")
        assert session.modified(ship_to)


class TestInsert:
    def test_insert_element_is_delta_epsilon(self):
        session = session_for()
        root = session.document.root
        node = session.insert_element(root, 1, "billTo")
        assert session.is_inserted(node)
        assert session.proj_old(node) is None
        assert session.proj_new(node) == "billTo"
        assert root.children[1] is node

    def test_insert_before_after_first(self):
        session = session_for()
        root = session.document.root
        items = root.find("items")
        before = session.insert_before(items, "b1")
        after = session.insert_after(items, "a1")
        first = session.insert_first(root, "f1")
        labels = [c.label for c in root.children]
        assert labels == ["f1", "shipTo", "b1", "items", "a1"]
        assert all(map(session.is_inserted, (before, after, first)))

    def test_insert_text(self):
        session = session_for()
        items = session.document.root.find("items")
        node = session.insert_text(items, 0, "hello")
        assert isinstance(node, Text)
        assert session.proj_new(node) == CHI
        assert session.proj_old(node) is None


class TestDelete:
    def test_delete_leaf_leaves_tombstone(self):
        session = session_for()
        items = session.document.root.find("items")
        session.delete(items)
        assert session.is_deleted(items)
        assert items.parent is session.document.root  # still attached
        assert session.proj_new(items) is None
        assert session.proj_old(items) == "items"

    def test_delete_with_live_children_rejected(self):
        session = session_for()
        ship_to = session.document.root.find("shipTo")
        with pytest.raises(UpdateError, match="live children"):
            session.delete(ship_to)

    def test_delete_after_children_deleted(self):
        session = session_for()
        ship_to = session.document.root.find("shipTo")
        name = ship_to.find("name")
        session.delete(name.children[0])  # the text node
        session.delete(name)
        session.delete(ship_to)
        assert session.is_deleted(ship_to)

    def test_delete_inserted_node_vanishes(self):
        session = session_for()
        root = session.document.root
        node = session.insert_element(root, 0, "temp")
        session.delete(node)
        assert node.parent is None
        assert not session.is_touched(node)

    def test_delete_root_rejected(self):
        session = session_for()
        root = session.document.root
        session.delete(root.find("shipTo").find("name").children[0])
        with pytest.raises(UpdateError):
            session.delete(root)

    def test_operations_on_deleted_node_rejected(self):
        session = session_for()
        items = session.document.root.find("items")
        session.delete(items)
        with pytest.raises(UpdateError, match="deleted"):
            session.rename(items, "x")
        with pytest.raises(UpdateError, match="deleted"):
            session.delete(items)


class TestReplaceText:
    def test_text_delta_is_chi_chi(self):
        session = session_for()
        name = session.document.root.find("shipTo").find("name")
        text = name.children[0]
        session.replace_text(text, "Bob")
        assert text.value == "Bob"
        assert session.proj_old(text) == CHI
        assert session.proj_new(text) == CHI
        assert session.modified(name)


class TestModifiedPredicate:
    def test_untouched_tree_not_modified(self):
        session = session_for()
        assert not session.modified(session.document.root)

    def test_modification_visible_on_ancestors_only(self):
        session = session_for()
        root = session.document.root
        name = root.find("shipTo").find("name")
        session.replace_text(name.children[0], "X")
        assert session.modified(root)
        assert session.modified(root.find("shipTo"))
        assert session.modified(name)
        assert not session.modified(root.find("items"))

    def test_trie_rebuilt_after_each_edit(self):
        session = session_for()
        root = session.document.root
        assert not session.modified(root)
        session.insert_element(root.find("items"), 0, "item")
        assert session.modified(root.find("items"))

    def test_insert_shifts_do_not_misattribute(self):
        # Insert at the front; the (untouched) later sibling must not be
        # reported modified despite its Dewey number shifting.
        session = session_for()
        root = session.document.root
        session.insert_first(root, "newFirst")
        ship_to = root.find("shipTo")
        assert not session.modified(ship_to)
        assert session.modified(root)

    def test_update_count(self):
        session = session_for()
        root = session.document.root
        session.insert_first(root, "a")
        session.rename(root.find("items"), "things")
        assert session.update_count == 2


def _trie_agrees(session):
    """``modified(n)`` on every node, tombstones included, against the
    paper's definition: a Dewey trie of the touched nodes' numbers."""
    nodes = list(session.document.root.iter_nodes())
    trie = DeweyTrie()
    for node in nodes:
        if session.is_touched(node):
            trie.insert(node.dewey())
    for node in nodes:
        assert session.modified(node) == trie.subtree_modified(
            node.dewey()
        ), node


def _edit_and_compare(rng, session, labels):
    for _ in range(6):
        random_edits(rng, session, rng.randint(1, 4), labels=labels)
        if rng.random() < 0.5:  # sometimes let edits pile up unqueried
            _trie_agrees(session)
    _trie_agrees(session)


class TestModifiedAgainstDeweyTrie:
    @pytest.mark.parametrize("seed", range(20))
    def test_purchase_order_edits(self, seed):
        rng = random.Random(seed)
        session = UpdateSession(make_purchase_order(rng.randint(1, 6)))
        _edit_and_compare(
            rng, session, ["item", "quantity", "shipDate", "comment", "zip"]
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_random_schema_edits(self, seed):
        rng = random.Random(7000 + seed)
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
        _edit_and_compare(rng, UpdateSession(doc), sorted(schema.alphabet))


class TestResultDocument:
    def test_result_drops_tombstones(self):
        session = session_for()
        root = session.document.root
        session.delete(root.find("items"))
        result = session.result_document()
        assert result.root.find("items") is None
        assert result.root.find("shipTo") is not None

    def test_result_applies_renames_and_inserts(self):
        session = session_for()
        root = session.document.root
        session.rename(root.find("items"), "lines")
        node = session.insert_after(root.find("shipTo"), "billTo")
        session.insert_text(node, 0, "addr")
        result = session.result_document()
        assert [c.label for c in result.root.children] == [
            "shipTo",
            "billTo",
            "lines",
        ]
        assert result.root.find("billTo").text() == "addr"

    def test_result_is_detached_copy(self):
        session = session_for()
        result = session.result_document()
        result.root.label = "mutated"
        assert session.document.root.label == "po"

    def test_deleted_root_rejected(self):
        doc = Document(element("solo"))
        child = element("c")
        doc.root.append(child)
        session = UpdateSession(doc)
        session.delete(child)
        # Root itself cannot be deleted via the API, so fabricate the
        # only reachable misuse: mark and check the guard directly.
        session._deltas[id(doc.root)] = type(
            session._deltas[id(child)]
        )(old="solo", new=None)
        with pytest.raises(UpdateError, match="root"):
            session.result_document()


def _fresh_copy(node):
    """An independently built copy of ``node``'s raw subtree, tombstones
    included, as the structural hash sees it."""
    if isinstance(node, Text):
        return Text(node.value)
    copy = Element(node.label, dict(node.attributes))
    for child in node.children:
        copy.append(_fresh_copy(child))
    return copy


EDIT_KINDS = ["rename", "replace-text", "insert-element", "insert-text",
              "delete", "set-attribute", "remove-attribute"]


def _edit(kind, session, quantity):
    """One edit of ``kind`` at ``quantity`` or its item; returns the
    touched node, whose Dewey path must go stale."""
    item = quantity.parent
    text = quantity.children[0]
    if kind == "rename":
        session.rename(quantity, "amount")
        return quantity
    if kind == "replace-text":
        session.replace_text(text, "7")
        return text
    if kind == "insert-element":
        session.insert_after(quantity, "comment")
        return item
    if kind == "insert-text":
        session.insert_text(quantity, 1, "0")
        return quantity
    if kind == "delete":
        session.delete(text)  # a tombstone: the raw tree keeps it
        return text
    if kind == "set-attribute":
        session.set_attribute(item, "partNum", "926-AA")
        return item
    assert kind == "remove-attribute"
    session.remove_attribute(item, "id")
    return item


class TestStructuralHashInvalidation:
    """Every edit kind drops the cached structural hashes of exactly the
    touched node's Dewey path, so a recomputed hash is the edited
    tree's."""

    @pytest.mark.parametrize("kind", EDIT_KINDS)
    def test_edit_invalidates_its_dewey_path(self, kind):
        document = make_purchase_order(3)
        items = document.root.find("items").children
        items[1].attributes["id"] = "i1"
        document.root.structural_hash()  # seal every subtree
        session = UpdateSession(document)
        touched = _edit(kind, session, items[1].find("quantity"))
        path = []
        node = touched
        while node is not None:
            path.append(node)
            node = node.parent
        assert path[-1] is document.root
        assert all(node.cached_structural_hash is None for node in path)
        # Off the path nothing goes stale.
        for sibling in (items[0], items[2], document.root.find("shipTo")):
            assert sibling.cached_structural_hash is not None
        assert document.root.structural_hash() == (
            _fresh_copy(document.root).structural_hash()
        )
