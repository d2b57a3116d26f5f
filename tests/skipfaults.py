"""Well-formedness faults hidden where an Experiment 1 cast never looks.

Experiment 1's pair subsumes both addresses and the whole ``items``
subtree (Section 3.2), so the cast validates none of them.  Each fixture
plants one fault that :func:`~repro.xmltree.parser.parse` rejects — a
mismatched or swapped close tag, an unknown entity, a bad character
reference, an unterminated entity reference, a duplicate attribute —
in the first, a middle or the last ``item`` of ``items``, or in
``shipTo``.  A byte scan that only counts tag depth passes every one of
them; every entry point must answer ``not well-formed`` instead.
"""

from __future__ import annotations

from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.serializer import serialize

ITEMS = 5

FAULTS = (
    "mismatched-close",
    "swapped-close",
    "unknown-entity",
    "bad-char-ref",
    "unterminated-entity",
    "duplicate-attribute",
)

#: Where a fault goes: the element and its first two children.
PLACES = {
    "first-item": (0, "productName", "quantity"),
    "middle-item": (ITEMS // 2, "productName", "quantity"),
    "last-item": (ITEMS - 1, "productName", "quantity"),
    "shipTo": (None, "name", "street"),
}

#: The entity references each entity fault inserts.
_REFERENCES = {
    "unknown-entity": "&bogus;",
    "bad-char-ref": "&#xZZ;",
    "unterminated-entity": "&amp",
}


def _plant(fault: str, element: str, first: str, second: str) -> str:
    close_first, close_second = f"</{first}>", f"</{second}>"
    if fault == "mismatched-close":
        return element.replace(close_first, f"</{first}s>", 1)
    if fault == "swapped-close":
        head, tail = element.split(close_first, 1)
        return head + close_second + tail.replace(close_second,
                                                  close_first, 1)
    if fault == "duplicate-attribute":
        return element.replace(f"<{first}>", f'<{first} k="1" k="2">', 1)
    return element.replace(close_first,
                           _REFERENCES[fault] + close_first, 1)


def _span(text: str, index, label: str) -> tuple[int, int]:
    """Offsets of the ``index``-th ``<label>`` element (the first when
    ``index`` is None)."""
    start = text.index(f"<{label}>")
    for _ in range(index or 0):
        start = text.index(f"<{label}>", start + 1)
    end = text.index(f"</{label}>", start) + len(f"</{label}>")
    return start, end


def faulty_orders() -> dict[str, str]:
    """``{"<fault>-<place>": document}`` for every fault and place."""
    order = serialize(make_purchase_order(ITEMS), indent="  ")
    documents = {}
    for fault in FAULTS:
        for place, (index, first, second) in PLACES.items():
            label = "shipTo" if index is None else "item"
            start, end = _span(order, index, label)
            element = _plant(fault, order[start:end], first, second)
            documents[f"{fault}-{place}"] = (
                order[:start] + element + order[end:]
            )
    return documents
