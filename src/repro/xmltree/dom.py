"""Ordered labelled trees — the document model of the paper.

The paper abstracts XML documents as ordered labelled trees ``T = (t, λ)``
where interior nodes carry element labels from Σ and leaves may carry the
special label χ representing simple (text) content.  This module implements
that model directly:

* :class:`Element` — a node with a label, attributes, and ordered children.
* :class:`Text` — a χ-labelled leaf holding character data.
* :class:`Document` — the tree root wrapper, plus a lazily built
  label→elements index (used by the DTD optimization of Section 3.4).

Nodes know their parent and their position among their siblings, so Dewey
decimal numbers (Section 3.3) are derivable from any node in O(depth).

Every node also carries a cached **structural hash** — a bottom-up
rolling fingerprint of its subtree (label, attributes, child hashes,
simple-content value) that the memoized pair-validation layer
(:mod:`repro.core.memo`) uses to recognise structurally identical
subtrees in O(1).  The invariants:

* two subtrees with equal labels, attributes, child structure and text
  hash equally (within one process; the hash is not stable across
  processes);
* every mutation that goes through the DOM API (``append``, ``insert``,
  ``remove``, the ``label`` and ``Text.value`` setters) invalidates the
  cached hashes of exactly the mutated node's ancestor chain — its Dewey
  path — and nothing else;
* mutating ``Element.attributes`` directly bypasses the tracking; call
  :meth:`Node.invalidate_structural_hash` afterwards (the update-session
  layer does this for you).

Hashes are computed lazily and cached, so an unmutated subtree is
fingerprinted at most once no matter how often it is revalidated, and
a tree nobody fingerprints (parsed ones included) never pays for one.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Union

from repro.dewey import Dewey

#: The χ pseudo-label the paper assigns to simple-content leaves.
CHI = "#text"


class Node:
    """Common behaviour of element and text nodes."""

    __slots__ = ("parent", "index", "_shash")

    def __init__(self) -> None:
        self.parent: Optional[Element] = None
        #: position among the parent's children; -1 when detached.
        self.index: int = -1
        #: cached structural hash of this subtree; ``None`` when stale.
        self._shash: Optional[int] = None

    @property
    def label(self) -> str:
        raise NotImplementedError

    # -- structural hashing ------------------------------------------------

    @property
    def cached_structural_hash(self) -> Optional[int]:
        """The cached hash, or ``None`` when it has been invalidated
        (introspection for tests and diagnostics; does not compute)."""
        return self._shash

    def structural_hash(self) -> int:
        """The rolling structural fingerprint of this subtree.

        Computed bottom-up (iteratively, so arbitrarily deep trees never
        exhaust the Python stack) and cached on every node it visits;
        a cached node is O(1).
        """
        cached = self._shash
        if cached is not None:
            return cached
        stack: list[tuple[Node, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if node._shash is not None:
                continue
            if isinstance(node, Text):
                node._shash = hash((CHI, node._value))
            elif expanded:
                element_node: Element = node  # type: ignore[assignment]
                attrs = element_node._attributes
                node._shash = hash(
                    (
                        element_node._label,
                        tuple(sorted(attrs.items())) if attrs else (),
                        tuple(
                            child._shash
                            for child in element_node.children
                        ),
                    )
                )
            else:
                stack.append((node, True))
                for child in node.children:  # type: ignore[attr-defined]
                    if child._shash is None:
                        stack.append((child, False))
        assert self._shash is not None
        return self._shash

    def invalidate_structural_hash(self) -> None:
        """Drop the cached hashes of this node and its ancestors.

        The walk stops at the first already-stale node: a cached
        ancestor implies cached descendants (hashes are computed
        bottom-up over whole subtrees), so a stale node's ancestors are
        stale too.
        """
        node: Optional[Node] = self
        while node is not None and node._shash is not None:
            node._shash = None
            node = node.parent

    def dewey(self) -> Dewey:
        """Dewey decimal number of this node (root element = empty path)."""
        steps: list[int] = []
        node: Node = self
        while node.parent is not None:
            steps.append(node.index)
            node = node.parent
        steps.reverse()
        return Dewey(steps)

    def root(self) -> "Node":
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def depth(self) -> int:
        count = 0
        node: Node = self
        while node.parent is not None:
            count += 1
            node = node.parent
        return count


class Text(Node):
    """A leaf holding character data; its label is the χ pseudo-label."""

    __slots__ = ("_value",)

    def __init__(self, value: str):
        super().__init__()
        self._value = value

    @property
    def value(self) -> str:
        return self._value

    @value.setter
    def value(self, new_value: str) -> None:
        self._value = new_value
        self.invalidate_structural_hash()

    @property
    def label(self) -> str:
        return CHI

    def __repr__(self) -> str:
        preview = self.value if len(self.value) <= 30 else self.value[:27] + "..."
        return f"Text({preview!r})"


class Element(Node):
    """An element node: label, attribute map, ordered children.

    The attribute dict is lazy: most elements in real corpora carry no
    attributes, so ``_attributes`` stays ``None`` until someone touches
    the public :attr:`attributes` mapping, which materializes (and
    keeps) a real dict.  Hot paths read the ``_attributes`` slot
    directly and treat ``None`` and ``{}`` identically.

    ``sym`` is the element label interned into a
    :class:`~repro.automata.compiled.SymbolTable` at parse time (``-1``
    when the document was parsed without a table, or the label is
    outside the table's alphabet).  Which table it indexes is recorded
    on the owning :class:`Document`; validators use ``sym`` only after
    checking that identity.
    """

    __slots__ = ("_label", "_attributes", "children", "sym")

    def __init__(
        self,
        label: str,
        attributes: Optional[dict[str, str]] = None,
        children: Optional[list[Union["Element", Text]]] = None,
    ):
        super().__init__()
        self._label = label
        self._attributes: Optional[dict[str, str]] = (
            dict(attributes) if attributes else None
        )
        self.children: list[Union[Element, Text]] = []
        self.sym: int = -1
        for child in children or ():
            self.append(child)

    @classmethod
    def _sealed(
        cls,
        label: str,
        attributes: Optional[dict[str, str]],
        sym: int,
    ) -> "Element":
        """Parser fast path: adopt ``attributes`` (no defensive copy —
        the caller just built the dict and hands over ownership) and
        skip the ``__init__`` child loop."""
        node = cls.__new__(cls)
        node.parent = None
        node.index = -1
        node._shash = None
        node._label = label
        node._attributes = attributes
        node.children = []
        node.sym = sym
        return node

    @property
    def attributes(self) -> dict[str, str]:
        """The attribute mapping, materialized on first access.

        The returned dict is live — mutating it mutates the element
        (callers must invalidate the structural hash afterwards, as
        documented in the module docstring)."""
        attrs = self._attributes
        if attrs is None:
            attrs = self._attributes = {}
        return attrs

    @property
    def label(self) -> str:
        return self._label

    @label.setter
    def label(self, new_label: str) -> None:
        self._label = new_label
        # The interned id indexes the old label; drop it rather than
        # re-intern (relabelled nodes are rare and the validators fall
        # back to the string lookup on -1).
        self.sym = -1
        self.invalidate_structural_hash()

    # -- tree construction --------------------------------------------------

    def append(self, child: Union["Element", Text]) -> Union["Element", Text]:
        """Attach ``child`` as the last child and return it."""
        if child.parent is not None:
            raise ValueError(f"{child!r} is already attached")
        child.parent = self
        child.index = len(self.children)
        self.children.append(child)
        self.invalidate_structural_hash()
        return child

    def insert(self, position: int, child: Union["Element", Text]) -> None:
        """Attach ``child`` at ``position``, shifting later siblings."""
        if child.parent is not None:
            raise ValueError(f"{child!r} is already attached")
        if not 0 <= position <= len(self.children):
            raise IndexError(f"insert position {position} out of range")
        child.parent = self
        self.children.insert(position, child)
        self._renumber(position)
        self.invalidate_structural_hash()

    def remove(self, child: Union["Element", Text]) -> None:
        """Detach ``child``; later siblings shift left."""
        if child.parent is not self:
            raise ValueError(f"{child!r} is not a child of {self!r}")
        position = child.index
        del self.children[position]
        child.parent = None
        child.index = -1
        self._renumber(position)
        self.invalidate_structural_hash()

    def _renumber(self, start: int) -> None:
        for i in range(start, len(self.children)):
            self.children[i].index = i

    # -- navigation ----------------------------------------------------------

    def child_elements(self) -> list["Element"]:
        return [c for c in self.children if isinstance(c, Element)]

    def child_labels(self) -> list[str]:
        """Labels of element children, in order — the string the paper's
        ``constructstring`` builds for content-model checks."""
        return [c.label for c in self.children if isinstance(c, Element)]

    def text(self) -> str:
        """Concatenated character data of the immediate text children."""
        return "".join(c.value for c in self.children if isinstance(c, Text))

    def find(self, label: str) -> Optional["Element"]:
        """First child element with the given label, if any."""
        for child in self.children:
            if isinstance(child, Element) and child.label == label:
                return child
        return None

    def find_all(self, label: str) -> list["Element"]:
        return [
            c for c in self.children if isinstance(c, Element) and c.label == label
        ]

    def iter(self) -> Iterator["Element"]:
        """Pre-order iterator over this element and descendant elements."""
        stack: list[Element] = [self]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(reversed(element.child_elements()))

    def iter_nodes(self) -> Iterator[Node]:
        """Pre-order iterator over all nodes (elements and text)."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node.children))

    def node_at(self, dewey: Dewey) -> Node:
        """Resolve a Dewey number relative to this node."""
        node: Node = self
        for step in dewey:
            if not isinstance(node, Element) or step >= len(node.children):
                raise KeyError(f"no node at {dewey} under {self!r}")
            node = node.children[step]
        return node

    def size(self) -> int:
        """Total number of nodes (elements + text) in this subtree."""
        return sum(1 for _ in self.iter_nodes())

    def copy(self) -> "Element":
        """Deep copy of this subtree, detached from any parent."""
        attrs = self._attributes
        clone = Element._sealed(
            self._label, dict(attrs) if attrs else None, self.sym
        )
        for child in self.children:
            if isinstance(child, Element):
                clone.append(child.copy())
            else:
                clone.append(Text(child.value))
        return clone

    def structurally_equal(self, other: "Element") -> bool:
        """Label/children/text equality, ignoring attributes."""
        if self._label != other._label or len(self.children) != len(other.children):
            return False
        for mine, theirs in zip(self.children, other.children):
            if isinstance(mine, Text) != isinstance(theirs, Text):
                return False
            if isinstance(mine, Text):
                if mine.value != theirs.value:  # type: ignore[union-attr]
                    return False
            elif not mine.structurally_equal(theirs):  # type: ignore[union-attr]
                return False
        return True

    def __repr__(self) -> str:
        return f"Element({self._label!r}, {len(self.children)} children)"


class Document:
    """A parsed XML document: the root element plus document-level info."""

    def __init__(self, root: Element, doctype_name: str = "",
                 internal_subset: str = "", symbols=None):
        self.root = root
        #: root name declared by ``<!DOCTYPE name ...>`` (empty if none).
        self.doctype_name = doctype_name
        #: raw text of the DTD internal subset (empty if none).
        self.internal_subset = internal_subset
        #: the :class:`~repro.automata.compiled.SymbolTable` the
        #: elements' ``sym`` fields index, or ``None`` when the document
        #: was parsed without lex-time interning.  Validators compare
        #: this *by identity* against their own table before trusting
        #: any ``sym``.
        self.symbols = symbols
        self._label_index: Optional[dict[str, list[Element]]] = None

    def iter(self) -> Iterator[Element]:
        return self.root.iter()

    def node_at(self, dewey: Dewey) -> Node:
        return self.root.node_at(dewey)

    def size(self) -> int:
        return self.root.size()

    def invalidate_index(self) -> None:
        """Drop the label index (call after structural mutation)."""
        self._label_index = None

    def elements_with_label(self, label: str) -> list[Element]:
        """All elements carrying ``label``, in document order.

        Backed by a lazily built index — this is the direct-access
        structure the DTD optimization of Section 3.4 assumes.
        """
        if self._label_index is None:
            index: dict[str, list[Element]] = {}
            for element in self.root.iter():
                index.setdefault(element.label, []).append(element)
            self._label_index = index
        return self._label_index.get(label, [])

    def labels(self) -> set[str]:
        """The set of element labels occurring in the document."""
        if self._label_index is None:
            self.elements_with_label("")  # force index build
        assert self._label_index is not None
        return set(self._label_index)

    def copy(self) -> "Document":
        return Document(self.root.copy(), self.doctype_name,
                        self.internal_subset, symbols=self.symbols)

    def __repr__(self) -> str:
        return f"Document(root={self.root.label!r}, {self.size()} nodes)"


def element(label: str, *children: Union[Element, Text, str],
            attrs: Optional[dict[str, str]] = None) -> Element:
    """Concise tree builder used pervasively in tests and examples.

    Strings become text children::

        element("item", element("qty", "5"))
    """
    node = Element(label, attrs)
    for child in children:
        if isinstance(child, str):
            node.append(Text(child))
        else:
            node.append(child)
    return node


def walk(root: Element, visit: Callable[[Node], None]) -> None:
    """Apply ``visit`` to every node of the subtree in document order."""
    for node in root.iter_nodes():
        visit(node)
