"""Tree update sessions with Δ-label bookkeeping (Section 3.3).

The paper permits three updates on a tree known valid under the source
schema — relabel a node, insert a new leaf, delete a leaf — and encodes
their effect with Δ-labels: ``Δ^a_b`` (relabelled a→b), ``Δ^ε_b``
(inserted), ``Δ^a_ε`` (deleted; the node stays in the tree as a
tombstone).  :class:`UpdateSession` applies updates to a parsed document
*in place* while keeping exactly that encoding:

* deleted nodes remain attached (so ``Proj_old`` still sees them);
* every touched node and each of its ancestors carries a mark, giving
  the O(1) ``modified(v)`` predicate the with-modifications validator
  consults in parallel with the tree.  The marks are the paper's Dewey
  trie indexed by node rather than by Dewey number: a node is marked
  exactly when the trie built from the touched nodes' Dewey numbers has
  a branch at or below the node's own number
  (:class:`~repro.dewey.DeweyTrie` stays as that definition's test
  oracle);
* ``proj_old`` / ``proj_new`` are the paper's ``Proj_old``/``Proj_new``
  label projections (``None`` encodes ε).

Text mutations are supported as ``Δ^χ_χ`` — the content-model string is
unchanged but the value must be rechecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import UpdateError
from repro.xmltree.dom import CHI, Document, Element, Node, Text


@dataclass
class Delta:
    """Δ-label of one node: ``old``/``new`` are labels, with None as ε."""

    old: Optional[str]
    new: Optional[str]


class UpdateSession:
    """Records the paper's update operations against a document.

    The session owns the document for its duration: mutating the tree
    behind the session's back invalidates the Δ encoding.
    """

    def __init__(self, document: Document):
        self.document = document
        self._deltas: dict[int, Delta] = {}
        self._pinned: dict[int, Node] = {}  # keep ids stable
        #: ids of the touched nodes and their ancestors (see
        #: :meth:`_marked`); ``None`` until the next query builds them.
        #: The with-modifications walk reads ``_deltas`` and the marks
        #: directly: one dict and one set lookup per child.
        self._marks: Optional[set[int]] = None
        self.update_count = 0

    # -- update operations ----------------------------------------------------

    def rename(self, element: Element, new_label: str) -> None:
        """Relabel an element: ``Δ^old_new``."""
        self._require_live(element)
        delta = self._deltas.get(id(element))
        if delta is None:
            self._record(element, Delta(old=element.label, new=new_label))
        else:
            delta.new = new_label
        element.label = new_label
        self._bump()

    def replace_text(self, node: Text, new_value: str) -> None:
        """Change a text leaf's value: ``Δ^χ_χ``."""
        self._require_live(node)
        if id(node) not in self._deltas:
            # Freshly inserted text already carries Δ^ε_χ; an untouched
            # node gets the value-change marker Δ^χ_χ.
            self._record(node, Delta(old=CHI, new=CHI))
        node.value = new_value
        self._bump()

    def insert_element(
        self, parent: Element, position: int, label: str
    ) -> Element:
        """Insert a fresh leaf element: ``Δ^ε_label``."""
        self._require_live(parent)
        node = Element(label)
        parent.insert(position, node)
        self._record(node, Delta(old=None, new=label))
        self._bump()
        return node

    def insert_text(self, parent: Element, position: int, value: str) -> Text:
        """Insert a fresh text leaf: ``Δ^ε_χ``."""
        self._require_live(parent)
        node = Text(value)
        parent.insert(position, node)
        self._record(node, Delta(old=None, new=CHI))
        self._bump()
        return node

    def set_attribute(self, element: Element, name: str, value: str) -> None:
        """Set or change an attribute (attribute-extension update op).

        The node is marked modified without changing its Δ projection —
        its label is unchanged but it must be revisited.
        """
        self._require_live(element)
        if id(element) not in self._deltas:
            self._record(element, Delta(old=element.label,
                                        new=element.label))
        element.attributes[name] = value
        # Direct attribute-map mutation bypasses the DOM's hash tracking.
        element.invalidate_structural_hash()
        self._bump()

    def remove_attribute(self, element: Element, name: str) -> None:
        """Remove an attribute (attribute-extension update op)."""
        self._require_live(element)
        if name not in element.attributes:
            raise UpdateError(
                f"{element!r} has no attribute {name!r} to remove"
            )
        if id(element) not in self._deltas:
            self._record(element, Delta(old=element.label,
                                        new=element.label))
        del element.attributes[name]
        element.invalidate_structural_hash()
        self._bump()

    def insert_before(self, sibling: Node, label: str) -> Element:
        parent = self._parent_of(sibling)
        return self.insert_element(parent, sibling.index, label)

    def insert_after(self, sibling: Node, label: str) -> Element:
        parent = self._parent_of(sibling)
        return self.insert_element(parent, sibling.index + 1, label)

    def insert_first(self, parent: Element, label: str) -> Element:
        return self.insert_element(parent, 0, label)

    def delete(self, node: Union[Element, Text]) -> None:
        """Delete a leaf (a node with no live children): ``Δ^old_ε``.

        A node inserted earlier in this session is removed outright —
        ``Δ^ε_ε`` carries no information for either schema.
        """
        self._require_live(node)
        if isinstance(node, Element) and any(
            not self.is_deleted(child) for child in node.children
        ):
            raise UpdateError(
                f"cannot delete {node!r}: it still has live children"
            )
        if node.parent is None:
            raise UpdateError("cannot delete the root element")
        delta = self._deltas.get(id(node))
        if delta is not None and delta.old is None:
            node.parent.remove(node)
            del self._deltas[id(node)]
            self._pinned.pop(id(node), None)
            self._marks = None
        else:
            old = delta.old if delta is not None else node.label
            self._record(node, Delta(old=old, new=None))
            # The tombstone leaves the raw tree unchanged, but the node's
            # *live* subtree did change — stale fingerprints along its
            # Dewey path must not survive the deletion.
            node.invalidate_structural_hash()
        self._bump()

    # -- Δ projections -----------------------------------------------------------

    def delta(self, node: Node) -> Optional[Delta]:
        return self._deltas.get(id(node))

    def proj_old(self, node: Node) -> Optional[str]:
        """``Proj_old``: the node's label in the original tree (None=ε)."""
        delta = self._deltas.get(id(node))
        if delta is None:
            return node.label
        return delta.old

    def proj_new(self, node: Node) -> Optional[str]:
        """``Proj_new``: the node's label in the updated tree (None=ε)."""
        delta = self._deltas.get(id(node))
        if delta is None:
            return node.label
        return delta.new

    def is_deleted(self, node: Node) -> bool:
        delta = self._deltas.get(id(node))
        return delta is not None and delta.new is None

    def is_inserted(self, node: Node) -> bool:
        delta = self._deltas.get(id(node))
        return delta is not None and delta.old is None

    def is_touched(self, node: Node) -> bool:
        return id(node) in self._deltas

    # -- the modified() predicate ---------------------------------------------

    def modified(self, node: Node) -> bool:
        """Has any part of the subtree rooted at ``node`` been updated?

        One set lookup in :meth:`_marked`.
        """
        return id(node) in self._marked()

    def _marked(self) -> set[int]:
        """The ids of every touched node and each of its ancestors.

        Built by parent walks from the touched nodes on the first query,
        then kept current by each recorded update; removing an inserted
        node outright drops the set for a rebuild, since its ancestors
        may lead to no other touched node.
        """
        marks = self._marks
        if marks is None:
            marks = self._marks = set()
            for node in self._pinned.values():
                _mark_path(node, marks)
        return marks

    # -- materialization -----------------------------------------------------------

    def result_document(self) -> Document:
        """A detached deep copy of the updated document (tombstones
        dropped) — what a from-scratch revalidation would see."""
        root = self.document.root
        if self.is_deleted(root):
            raise UpdateError("the root element was deleted")
        return Document(self._copy_live(root))

    def live_path(self, path: str) -> str:
        """The Dewey path, in :meth:`result_document`, of the node at
        ``path`` in the session's tree: each step counts only the live
        siblings before it, since tombstones keep their places here."""
        if not path:
            return path
        node = self.document.root
        steps = []
        for step in map(int, path.split(".")):
            siblings = node.children
            steps.append(sum(
                1 for sibling in siblings[:step]
                if not self.is_deleted(sibling)
            ))
            node = siblings[step]
        return ".".join(map(str, steps))

    def _copy_live(self, element: Element) -> Element:
        clone = Element(element.label, dict(element.attributes))
        for child in element.children:
            if self.is_deleted(child):
                continue
            if isinstance(child, Text):
                clone.append(Text(child.value))
            else:
                clone.append(self._copy_live(child))
        return clone

    # -- internals ------------------------------------------------------------------

    def _record(self, node: Node, delta: Delta) -> None:
        self._deltas[id(node)] = delta
        self._pinned[id(node)] = node
        if self._marks is not None:
            _mark_path(node, self._marks)

    def _bump(self) -> None:
        self.update_count += 1

    def _require_live(self, node: Node) -> None:
        if self.is_deleted(node):
            raise UpdateError(f"{node!r} was already deleted")

    @staticmethod
    def _parent_of(node: Node) -> Element:
        if node.parent is None:
            raise UpdateError("node has no parent")
        return node.parent


def _mark_path(node: Optional[Node], marks: set[int]) -> None:
    """Mark ``node`` and its ancestors.  The walk stops at the first
    node already marked: its ancestors are marked too."""
    while node is not None and id(node) not in marks:
        marks.add(id(node))
        node = node.parent
