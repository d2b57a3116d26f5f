"""Dewey decimal numbering and the modification trie of Section 3.3.

The paper implements the ``modified(node)`` predicate by storing the Dewey
decimal number of every updated node in a trie; a node's subtree has been
modified iff the trie contains any key extending that node's number.  This
module provides both pieces:

* :class:`Dewey` — an immutable path of child ordinals, root = ``()``.
* :class:`DeweyTrie` — insertion of marked paths and the two queries the
  revalidation algorithm needs: *exact* marking and *subtree* marking.

:class:`~repro.core.updates.UpdateSession` answers ``modified`` from
marks indexed by node instead (one set lookup, no Dewey numbers built);
the trie is the definition those marks are tested against.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple


class Dewey:
    """An immutable Dewey decimal number: the sequence of 0-based child
    positions from the root.  The root element is ``Dewey(())``.

    Dewey numbers sort in document order under tuple comparison, which the
    update machinery relies on when replaying edit scripts.
    """

    __slots__ = ("_path",)

    def __init__(self, path: Iterable[int] = ()):
        self._path = tuple(path)
        if any(step < 0 for step in self._path):
            raise ValueError(f"negative step in Dewey path {self._path!r}")

    @classmethod
    def parse(cls, text: str) -> "Dewey":
        """Parse ``"1.0.2"`` (or ``""`` for the root) into a Dewey number."""
        if text == "":
            return cls(())
        try:
            return cls(int(part) for part in text.split("."))
        except ValueError as exc:
            raise ValueError(f"bad Dewey number {text!r}") from exc

    @property
    def path(self) -> Tuple[int, ...]:
        return self._path

    @property
    def depth(self) -> int:
        return len(self._path)

    def child(self, ordinal: int) -> "Dewey":
        """The Dewey number of this node's ``ordinal``-th child."""
        if ordinal < 0:
            raise ValueError("child ordinal must be non-negative")
        return Dewey(self._path + (ordinal,))

    def parent(self) -> "Dewey":
        if not self._path:
            raise ValueError("the root has no parent")
        return Dewey(self._path[:-1])

    def is_root(self) -> bool:
        return not self._path

    def is_ancestor_of(self, other: "Dewey") -> bool:
        """Proper-ancestor test (a node is not its own ancestor)."""
        return (
            len(self._path) < len(other._path)
            and other._path[: len(self._path)] == self._path
        )

    def is_descendant_or_self(self, other: "Dewey") -> bool:
        return self._path[: len(other._path)] == other._path

    def __iter__(self) -> Iterator[int]:
        return iter(self._path)

    def __len__(self) -> int:
        return len(self._path)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dewey) and self._path == other._path

    def __lt__(self, other: "Dewey") -> bool:
        return self._path < other._path

    def __le__(self, other: "Dewey") -> bool:
        return self._path <= other._path

    def __hash__(self) -> int:
        return hash(self._path)

    def __repr__(self) -> str:
        return f"Dewey({'.'.join(map(str, self._path)) or 'root'})"

    def __str__(self) -> str:
        return ".".join(map(str, self._path))


class _TrieNode:
    __slots__ = ("children", "marked")

    def __init__(self) -> None:
        self.children: dict[int, _TrieNode] = {}
        self.marked = False


class DeweyTrie:
    """Trie over Dewey numbers recording which nodes were updated.

    ``insert`` marks a node; ``contains`` asks whether that exact node was
    marked; ``subtree_modified`` asks whether the node *or any descendant*
    was marked — this is the paper's ``modified`` function.  All operations
    are O(depth of the queried node).
    """

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, dewey: Dewey) -> None:
        node = self._root
        for step in dewey:
            node = node.children.setdefault(step, _TrieNode())
        if not node.marked:
            node.marked = True
            self._size += 1

    def _find(self, dewey: Dewey) -> Optional[_TrieNode]:
        node = self._root
        for step in dewey:
            node = node.children.get(step)
            if node is None:
                return None
        return node

    def contains(self, dewey: Dewey) -> bool:
        node = self._find(dewey)
        return node is not None and node.marked

    def subtree_modified(self, dewey: Dewey) -> bool:
        """True iff ``dewey`` or any descendant of it was inserted.

        This is the ``modified(v)`` predicate of Section 3.3: the trie is
        navigated according to the Dewey number of ``v``; any surviving
        trie branch below that point witnesses a modification.
        """
        node = self._find(dewey)
        if node is None:
            return False
        return node.marked or bool(node.children)

    def marked_paths(self) -> Iterator[Dewey]:
        """Yield every marked Dewey number in document order."""

        def walk(node: _TrieNode, prefix: Tuple[int, ...]) -> Iterator[Dewey]:
            if node.marked:
                yield Dewey(prefix)
            for step in sorted(node.children):
                yield from walk(node.children[step], prefix + (step,))

        yield from walk(self._root, ())
