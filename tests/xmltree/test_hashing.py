"""Structural hash-consing invariants of the DOM layer.

The memoized pair-validation layer relies on exactly two properties:
structurally identical subtrees hash equally, and every DOM mutation
invalidates precisely the cached hashes on the mutated node's Dewey
path (its ancestor chain) while leaving every other cached hash alone.
"""

from repro.xmltree.dom import Element, Text, element
from repro.xmltree.parser import parse


def po_fragment() -> Element:
    return element(
        "item",
        element("productName", "Lawnmower"),
        element("quantity", "5"),
        element("USPrice", "148.95"),
        attrs={"partNum": "872-AA"},
    )


def assert_all_cached(root: Element) -> None:
    for node in root.iter_nodes():
        assert node.cached_structural_hash is not None


class TestHashEquality:
    def test_identical_structures_hash_equally(self):
        assert po_fragment().structural_hash() == po_fragment().structural_hash()

    def test_copy_hashes_equally(self):
        original = po_fragment()
        assert (
            original.copy().structural_hash() == original.structural_hash()
        )

    def test_parsed_and_built_trees_hash_equally(self):
        built = element("a", element("b", "x"), element("c"))
        parsed = parse("<a><b>x</b><c/></a>").root
        assert built.structural_hash() == parsed.structural_hash()

    def test_label_distinguishes(self):
        assert (
            element("a", "x").structural_hash()
            != element("b", "x").structural_hash()
        )

    def test_text_value_distinguishes(self):
        assert (
            element("a", "x").structural_hash()
            != element("a", "y").structural_hash()
        )

    def test_attributes_distinguish(self):
        assert (
            element("a", attrs={"k": "1"}).structural_hash()
            != element("a", attrs={"k": "2"}).structural_hash()
        )
        assert (
            element("a", attrs={"k": "1"}).structural_hash()
            != element("a").structural_hash()
        )

    def test_child_order_distinguishes(self):
        ab = element("r", element("a"), element("b"))
        ba = element("r", element("b"), element("a"))
        assert ab.structural_hash() != ba.structural_hash()

    def test_nesting_distinguishes(self):
        flat = element("r", element("a"), element("b"))
        nested = element("r", element("a", element("b")))
        assert flat.structural_hash() != nested.structural_hash()


class TestCaching:
    def test_parsed_tree_hashes_on_first_use(self):
        """The parser leaves fingerprints to the first caller that asks
        (only the memo does), and then they equal the built tree's."""
        document = parse("<a><b>x</b><c><d/></c></a>")
        for node in document.root.iter_nodes():
            assert node.cached_structural_hash is None
        built = element("a", element("b", "x"), element("c", element("d")))
        assert document.root.structural_hash() == built.structural_hash()
        assert_all_cached(document.root)

    def test_compute_caches_whole_subtree(self):
        root = po_fragment()
        root.structural_hash()
        assert_all_cached(root)

    def test_cached_value_is_stable(self):
        root = po_fragment()
        first = root.structural_hash()
        assert root.structural_hash() == first

    def test_deep_tree_does_not_recurse(self):
        # Deeper than the Python stack: iterative computation required.
        root = leaf = Element("n0")
        for i in range(1, 3000):
            leaf = leaf.append(Element(f"n{i}"))
        root.structural_hash()
        assert_all_cached(root)


class TestInvalidation:
    def make_tree(self):
        """root/a/b plus a sibling subtree root/s(/t), all sealed."""
        b = element("b", "leaf")
        a = element("a", b)
        s = element("s", element("t"))
        root = element("root", a, s)
        root.structural_hash()
        return root, a, b, s

    def assert_path_stale(self, stale, cached):
        for node in stale:
            assert node.cached_structural_hash is None
        for node in cached:
            assert node.cached_structural_hash is not None

    def test_label_setter_invalidates_dewey_path(self):
        root, a, b, s = self.make_tree()
        b.label = "renamed"
        self.assert_path_stale([b, a, root], [s, s.children[0], b.children[0]])

    def test_text_setter_invalidates_dewey_path(self):
        root, a, b, s = self.make_tree()
        text = b.children[0]
        assert isinstance(text, Text)
        text.value = "changed"
        self.assert_path_stale([text, b, a, root], [s])

    def test_append_invalidates_dewey_path(self):
        root, a, b, s = self.make_tree()
        a.append(element("new"))
        self.assert_path_stale([a, root], [b, s])

    def test_insert_invalidates_dewey_path(self):
        root, a, b, s = self.make_tree()
        s.insert(0, element("new"))
        self.assert_path_stale([s, root], [a, b])

    def test_remove_invalidates_dewey_path(self):
        root, a, b, s = self.make_tree()
        a.remove(b)
        self.assert_path_stale([a, root], [b, s])

    def test_explicit_invalidation_stops_at_stale_ancestor(self):
        root, a, b, s = self.make_tree()
        b.invalidate_structural_hash()
        assert root.cached_structural_hash is None
        # Re-invalidating is a no-op walk; siblings stay cached.
        b.invalidate_structural_hash()
        self.assert_path_stale([b, a, root], [s])

    def test_recompute_after_mutation_changes_hash(self):
        root, _, b, _ = self.make_tree()
        before = root.structural_hash()
        b.label = "renamed"
        assert root.structural_hash() != before

    def test_recompute_after_revert_restores_hash(self):
        root, _, b, _ = self.make_tree()
        before = root.structural_hash()
        b.label = "renamed"
        root.structural_hash()
        b.label = "b"
        assert root.structural_hash() == before
