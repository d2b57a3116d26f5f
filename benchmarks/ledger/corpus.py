"""Seeded inputs for the layer ledger, with the ground truth each was
built to have.

The ledger owns everything here — schema text, the purchase-order
generator, edit scripts and request mixes — so that no change to the
program under test can move the inputs.  Nothing in this module imports
``repro``: inputs are plain strings and dicts, and every expected
verdict and Dewey position is derived from how the input was built.

Documents are drawn from an abstract :class:`Order` model.  Validity
under any schema revision of the Figure-2 family is a small function of
that model (:func:`cast_truth`, :func:`castmods_truth`), which is what
lets the ledger check every answer the program gives.

Two properties keep the measurements steady across seeds: item counts
are drawn by stratified log-uniform sampling (every seed gets the same
size distribution, different documents), and the flawed documents are
picked one per size stratum.  Each flawed document carries exactly one
violation, so its expected position does not depend on which engine
walks it.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional

#: The label an edit renames ``shipDate`` to: declared by no schema here.
UNDECLARED = "shipDay"

_WORDS = (
    "Lawnmower", "Baby", "Monitor", "Sapphire", "Necklace", "Garden",
    "Hose", "Cordless", "Drill", "Kettle", "Walnut", "Desk", "Copper",
    "Lamp", "Wool", "Blanket", "Cedar", "Bench", "Steel", "Rake",
)
_FIRST = ("Alice", "Robert", "Maria", "Chen", "Priya", "Omar", "Ines", "Kofi")
_LAST = ("Smith", "Jones", "Garcia", "Wei", "Patel", "Haddad", "Silva", "Mensah")
_STREETS = ("Maple", "Oak", "Pine", "Elm", "Cedar", "Birch", "Willow")
_CITIES = ("Mill Valley", "Old Town", "Springfield", "Riverside", "Fairview")
_STATES = ("CA", "NY", "TX", "WA", "IL", "PA", "OH")


# -- schemas -------------------------------------------------------------------


@dataclass(frozen=True)
class SchemaSpec:
    """One revision of the Figure-2 purchase-order schema."""

    billto_required: bool
    #: ``maxExclusive`` of ``quantity``.
    qty_max: int
    #: Label of the optional last child of ``item``.
    date_label: str = "shipDate"
    #: Every leaf type strictly tightened (strings ``maxLength 100``,
    #: decimals ``maxInclusive 1000000``, the date a bounded string), so
    #: that no reachable type pair against an untightened source is
    #: subsumed.
    tightened: bool = False


_BOUNDED_TYPES = """
  <xsd:simpleType name="BoundedString">
    <xsd:restriction base="xsd:string">
      <xsd:maxLength value="100"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="BoundedDecimal">
    <xsd:restriction base="xsd:decimal">
      <xsd:maxInclusive value="1000000"/>
    </xsd:restriction>
  </xsd:simpleType>"""


def po_xsd(spec: SchemaSpec) -> str:
    """XSD source text of one schema revision."""
    text = "BoundedString" if spec.tightened else "xsd:string"
    number = "BoundedDecimal" if spec.tightened else "xsd:decimal"
    date = "BoundedString" if spec.tightened else "xsd:date"
    billto = "" if spec.billto_required else ' minOccurs="0"'
    bounded = _BOUNDED_TYPES if spec.tightened else ""
    return f"""<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="purchaseOrder" type="POType"/>
  <xsd:element name="comment" type="{text}"/>{bounded}
  <xsd:complexType name="POType">
    <xsd:sequence>
      <xsd:element name="shipTo" type="USAddress"/>
      <xsd:element name="billTo" type="USAddress"{billto}/>
      <xsd:element name="items" type="Items"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="USAddress">
    <xsd:sequence>
      <xsd:element name="name" type="{text}"/>
      <xsd:element name="street" type="{text}"/>
      <xsd:element name="city" type="{text}"/>
      <xsd:element name="state" type="{text}"/>
      <xsd:element name="zip" type="{number}"/>
      <xsd:element name="country" type="{text}"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Items">
    <xsd:sequence>
      <xsd:element name="item" type="Item" minOccurs="0"
                   maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Item">
    <xsd:sequence>
      <xsd:element name="productName" type="{text}"/>
      <xsd:element name="quantity">
        <xsd:simpleType>
          <xsd:restriction base="xsd:positiveInteger">
            <xsd:maxExclusive value="{spec.qty_max}"/>
          </xsd:restriction>
        </xsd:simpleType>
      </xsd:element>
      <xsd:element name="USPrice" type="{number}"/>
      <xsd:element name="{spec.date_label}" type="{date}" minOccurs="0"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>
"""


#: Named (source, target) pairs.  ``exp1`` is the paper's Experiment 1
#: (billTo optional → required), ``exp2`` its Experiment 2 (quantity
#: < 200 → < 100), ``zero-sub`` the Experiment-2 source against a target
#: with every leaf tightened, so R_sub is empty over reachable pairs.
PAIRS: dict[str, tuple[SchemaSpec, SchemaSpec]] = {
    "exp1": (SchemaSpec(False, 100), SchemaSpec(True, 100)),
    "exp2": (SchemaSpec(True, 200), SchemaSpec(True, 100)),
    "zero-sub": (SchemaSpec(True, 200), SchemaSpec(True, 100, tightened=True)),
}

#: A 3-hop drift: tighten quantity, rename the date, require billTo.
#: Hop analysis keeps revisions 2 and 4 (4 absorbs 3), so the composed
#: pair is a product schema rather than a single residual target.
CHAIN_NAME = "drift"
CHAIN: tuple[SchemaSpec, ...] = (
    SchemaSpec(False, 200),
    SchemaSpec(False, 150),
    SchemaSpec(False, 150, date_label="deliveryDate"),
    SchemaSpec(True, 150, date_label="deliveryDate"),
)


# -- the document model --------------------------------------------------------


@dataclass
class Item:
    name: str
    qty: int
    price: str
    #: Date value, with ``date_label`` the element's current label;
    #: ``date_label is None`` means the item has no live date element.
    date: Optional[str] = None
    date_label: Optional[str] = None


@dataclass
class Order:
    ship_to: tuple[str, ...]
    bill_to: Optional[tuple[str, ...]]
    items: list[Item] = field(default_factory=list)

    @property
    def items_path(self) -> str:
        """Dewey position of ``items`` (root-relative, the numbering the
        program reports)."""
        return "2" if self.bill_to is not None else "1"


_ADDRESS_LABELS = ("name", "street", "city", "state", "zip", "country")


def to_xml(order: Order) -> str:
    """Pretty-printed document text, as the paper's input files were."""
    out = ['<?xml version="1.0"?>\n<purchaseOrder>\n']
    for label, address in (("shipTo", order.ship_to), ("billTo", order.bill_to)):
        if address is None:
            continue
        out.append(f"  <{label}>\n")
        for field_label, value in zip(_ADDRESS_LABELS, address):
            out.append(f"    <{field_label}>{value}</{field_label}>\n")
        out.append(f"  </{label}>\n")
    out.append("  <items>\n")
    for item in order.items:
        out.append(
            "    <item>\n"
            f"      <productName>{item.name}</productName>\n"
            f"      <quantity>{item.qty}</quantity>\n"
            f"      <USPrice>{item.price}</USPrice>\n"
        )
        if item.date_label is not None:
            out.append(
                f"      <{item.date_label}>{item.date}</{item.date_label}>\n"
            )
        out.append("    </item>\n")
    out.append("  </items>\n</purchaseOrder>\n")
    return "".join(out)


def _address(rng: random.Random) -> tuple[str, ...]:
    return (
        f"{rng.choice(_FIRST)} {rng.choice(_LAST)}",
        f"{rng.randrange(1, 9999)} {rng.choice(_STREETS)} Street",
        rng.choice(_CITIES),
        rng.choice(_STATES),
        f"{rng.randrange(10000, 99999)}",
        "US",
    )


def _item(rng: random.Random, qty_max: int, date_label: Optional[str],
          date_share: float) -> Item:
    has_date = date_label is not None and rng.random() < date_share
    return Item(
        name=f"{rng.choice(_WORDS)} {rng.choice(_WORDS)} {rng.randrange(1000)}",
        qty=rng.randrange(1, qty_max),
        price=f"{rng.randrange(1, 1000)}.{rng.randrange(100):02d}",
        date=(
            f"20{rng.randrange(25):02d}-{rng.randrange(1, 13):02d}-"
            f"{rng.randrange(1, 29):02d}"
            if has_date else None
        ),
        date_label=date_label if has_date else None,
    )


def make_order(
    rng: random.Random,
    item_count: int,
    *,
    with_billto: bool = True,
    qty_max: int = 100,
    date_label: Optional[str] = "shipDate",
    date_share: float = 0.7,
) -> Order:
    """A purchase order whose values are drawn per item, so subtrees
    are rarely shared.  Quantities stay below ``qty_max``."""
    return Order(
        ship_to=_address(rng),
        bill_to=_address(rng) if with_billto else None,
        items=[
            _item(rng, qty_max, date_label, date_share)
            for _ in range(item_count)
        ],
    )


def stratified_counts(
    rng: random.Random, count: int, low: int, high: int
) -> list[int]:
    """``count`` item counts, log-uniform in ``[low, high]``, one per
    equal-probability stratum (jittered inside it), in seeded order."""
    span = math.log(high) - math.log(low)
    counts = [
        int(round(math.exp(math.log(low) + (i + rng.random()) / count * span)))
        for i in range(count)
    ]
    rng.shuffle(counts)
    return counts


def flawed_indices(rng: random.Random, counts: list[int], share: float) -> set[int]:
    """One index per size stratum of ``1/share`` documents, so the
    flawed subset has the same size profile on every seed."""
    order = sorted(range(len(counts)), key=lambda i: (counts[i], i))
    width = max(1, round(1 / share))
    return {
        rng.choice(order[start:start + width])
        for start in range(0, len(order) - width + 1, width)
    }


# -- ground truth --------------------------------------------------------------


def cast_truth(order: Order, target: SchemaSpec) -> tuple[bool, str]:
    """Verdict and Dewey position of casting (or fully validating) an
    unedited document against ``target``.

    A missing required ``billTo`` fails the root's content model; a date
    element under a label the target does not allow fails its item's
    content model; a quantity at or above the bound fails its own
    element.  Generated documents carry at most one violation.
    """
    if target.billto_required and order.bill_to is None:
        return False, ""
    base = order.items_path
    for k, item in enumerate(order.items):
        if item.date_label is not None and item.date_label != target.date_label:
            return False, f"{base}.{k}"
        if item.qty >= target.qty_max:
            return False, f"{base}.{k}.1"
    return True, ""


def castmods_truth(order: Order, target: SchemaSpec) -> tuple[bool, str]:
    """Verdict and position of the with-modifications cast of an edited
    document (Section 3.3 walk order).

    Items are visited in order.  Inside an item, a child relabelled to a
    label the target never declares is reported at that child before
    any value is checked; then the quantity value.
    """
    if target.billto_required and order.bill_to is None:
        return False, ""
    base = order.items_path
    for k, item in enumerate(order.items):
        if item.date_label == UNDECLARED:
            return False, f"{base}.{k}.3"
        if item.date_label not in (None, target.date_label):
            raise ValueError(f"edit model holds label {item.date_label!r}")
        if item.qty >= target.qty_max:
            return False, f"{base}.{k}.1"
    return True, ""


def chain_truth(order: Order) -> tuple[bool, str]:
    """Hop-by-hop casts along :data:`CHAIN`; the first failing hop
    decides."""
    for target in CHAIN[1:]:
        valid, path = cast_truth(order, target)
        if not valid:
            return valid, path
    return True, ""


# -- edits -----------------------------------------------------------------------


@dataclass
class Txn:
    """One edit transaction: wire-format Δ operations on document
    ``doc`` (applied after every earlier transaction on it) and the
    expected verdict of revalidating afterwards."""

    doc: int
    mods: list[dict]
    valid: bool
    path: str


def _set_qty(order: Order, k: int, value: int) -> list[dict]:
    order.items[k].qty = value
    return [{"op": "replace-text", "path": f"{order.items_path}.{k}.1.0",
             "value": str(value)}]


def _drop_date(order: Order, k: int) -> list[dict]:
    order.items[k].date_label = None
    path = f"{order.items_path}.{k}.3"
    return [{"op": "delete", "path": f"{path}.0"},
            {"op": "delete", "path": path}]


def _rename_date(order: Order, k: int, label: str) -> list[dict]:
    order.items[k].date_label = label
    return [{"op": "rename", "path": f"{order.items_path}.{k}.3",
             "label": label}]


def _insert_item(order: Order, position: int, item: Item) -> list[dict]:
    base = order.items_path
    order.items.insert(position, item)
    fields = [("productName", item.name), ("quantity", str(item.qty)),
              ("USPrice", item.price)]
    if item.date_label is not None:
        fields.append((item.date_label, item.date))
    mods = [{"op": "insert-element", "path": base, "position": position,
             "label": "item"}]
    for index, (label, value) in enumerate(fields):
        mods.append({"op": "insert-element", "path": f"{base}.{position}",
                     "position": index, "label": label})
        mods.append({"op": "insert-text",
                     "path": f"{base}.{position}.{index}",
                     "position": 0, "value": value})
    return mods


_EDIT_KINDS = ("qty-in", "qty-out", "drop-date", "rename-date", "insert-item")
_EDIT_WEIGHTS = (3, 2, 1.5, 1.5, 2)


def _edit_op(rng: random.Random, order: Order, target: SchemaSpec) -> list[dict]:
    """One logical edit.  Half the time an already broken item is
    repaired, which keeps valid and invalid outcomes both common."""
    items = order.items
    broken = [
        k for k, item in enumerate(items)
        if item.qty >= target.qty_max or item.date_label == UNDECLARED
    ]
    if broken and rng.random() < 0.5:
        k = rng.choice(broken)
        if items[k].date_label == UNDECLARED:
            if rng.random() < 0.5:
                return _rename_date(order, k, target.date_label)
            return _drop_date(order, k)
        return _set_qty(order, k, rng.randrange(1, target.qty_max))
    kind = rng.choices(_EDIT_KINDS, weights=_EDIT_WEIGHTS)[0]
    dated = [k for k, item in enumerate(items)
             if item.date_label == target.date_label]
    if kind in ("drop-date", "rename-date") and not dated:
        kind = "qty-in"
    if kind == "qty-in":
        return _set_qty(order, rng.randrange(len(items)),
                        rng.randrange(1, target.qty_max))
    if kind == "qty-out":
        return _set_qty(order, rng.randrange(len(items)),
                        rng.randrange(target.qty_max, 2 * target.qty_max))
    if kind == "drop-date":
        return _drop_date(order, rng.choice(dated))
    if kind == "rename-date":
        return _rename_date(order, rng.choice(dated), UNDECLARED)
    item = _item(rng, target.qty_max, target.date_label, 0.5)
    return _insert_item(order, rng.randrange(len(items) + 1), item)


def edit_script(
    rng: random.Random,
    orders: list[Order],
    target: SchemaSpec,
    count: int,
) -> list[Txn]:
    """``count`` transactions of 1–3 edits over ``orders``, each
    document evolving cumulatively (the models passed in are copied,
    not changed)."""
    state = [copy.deepcopy(order) for order in orders]
    script = []
    for _ in range(count):
        doc = rng.randrange(len(state))
        order = state[doc]
        mods: list[dict] = []
        for _ in range(rng.randint(1, 3)):
            mods.extend(_edit_op(rng, order, target))
        valid, path = castmods_truth(order, target)
        script.append(Txn(doc, mods, valid, path))
    return script


# -- inputs per workload -----------------------------------------------------------


@dataclass
class Doc:
    """A document to cast against ``pair``, with its expected verdict;
    ``path`` is ``None`` where engines legitimately disagree on the
    position (composed chain rejects)."""

    pair: str
    text: str
    valid: bool
    path: Optional[str]


@dataclass
class Request:
    """One ``POST /<kind>`` of the service mix."""

    kind: str
    pair: str
    xml: str
    valid: bool
    path: str
    mods: Optional[list[dict]] = None

    def body(self) -> bytes:
        payload = {"pair": self.pair, "xml": self.xml}
        if self.mods is not None:
            payload["mods"] = self.mods
        return json.dumps(payload).encode("utf-8")


def seeded(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose, stable across Python runs."""
    return random.Random(f"ledger:{seed}:{purpose}")


def flawed_corpus(
    rng: random.Random,
    pair: str,
    count: int,
    low: int,
    high: int,
    flaw: str,
) -> list[tuple[Order, Doc]]:
    """``count`` documents valid under ``pair``'s source; a tenth carry
    one flaw: ``"no-billto"`` (omit billTo) or ``"bad-qty"`` (one
    quantity in [100, 200) at a seeded item)."""
    source, target = PAIRS[pair]
    counts = stratified_counts(rng, count, low, high)
    flawed = flawed_indices(rng, counts, 0.1)
    out = []
    for index, items in enumerate(counts):
        bad = index in flawed
        order = make_order(
            rng, items, with_billto=not (bad and flaw == "no-billto"),
            qty_max=min(source.qty_max, target.qty_max),
        )
        if bad and flaw == "bad-qty":
            order.items[rng.randrange(items)].qty = rng.randrange(100, 200)
        valid, path = cast_truth(order, target)
        out.append((order, Doc(pair, to_xml(order), valid, path)))
    return out


def chain_order(rng: random.Random, items: int, trip: Optional[int]) -> Order:
    """A chain document valid under the first revision; ``trip`` is the
    0-based hop it was built to fail, or ``None`` to conform to all."""
    order = make_order(rng, items, with_billto=trip != 2, qty_max=150,
                       date_label=None)
    if trip == 0:
        order.items[rng.randrange(items)].qty = rng.randrange(150, 200)
    elif trip == 1:
        for k in sorted(rng.sample(range(items), max(1, items // 3))):
            order.items[k].date_label = "shipDate"
            order.items[k].date = "2004-05-01"
    return order


#: Request mix of ``serve-mix``: (kind, pair, share of requests).
SERVE_MIX = (
    ("cast", "exp1", 0.50),
    ("cast", "exp2", 0.20),
    ("validate", "exp2", 0.10),
    ("cast-with-mods", "exp2", 0.15),
    ("cast-chain", CHAIN_NAME, 0.05),
)


def serve_pool(seed: int, size: int = 200) -> list[Request]:
    """The distinct requests ``serve-mix`` cycles through, in the mix's
    proportions, with 5–200 items each."""
    low, high = 5, 200
    rng = seeded(seed, "serve-pool")
    pool: list[Request] = []
    for kind, pair, share in SERVE_MIX:
        count = round(size * share)
        if kind == "cast-chain":
            counts = stratified_counts(rng, count, low, high)
            for index, items in enumerate(counts):
                trip = None if index < round(count * 0.6) else index % 3
                order = chain_order(rng, items, trip)
                valid, path = chain_truth(order)
                pool.append(Request(kind, pair, to_xml(order), valid, path))
        elif kind == "cast-with-mods":
            target = PAIRS[pair][1]
            for items in stratified_counts(rng, count, low, high):
                order = make_order(rng, items, qty_max=target.qty_max)
                text = to_xml(order)
                (txn,) = edit_script(rng, [order], target, 1)
                pool.append(Request(kind, pair, text, txn.valid, txn.path,
                                    mods=txn.mods))
        else:
            flaw = "no-billto" if pair == "exp1" else "bad-qty"
            for _, doc in flawed_corpus(rng, pair, count, low, high, flaw):
                pool.append(Request(kind, pair, doc.text, doc.valid, doc.path))
    return pool


def poisson_schedule(
    rng: random.Random, rate: float, count: int, pool_size: int
) -> list[tuple[float, int]]:
    """``count`` arrivals of a Poisson process at ``rate`` per second:
    (due offset in seconds, pool index).  The pool is walked in seeded
    shuffled cycles, so the mix holds exactly over each cycle."""
    schedule = []
    due = 0.0
    order: list[int] = []
    for _ in range(count):
        due += rng.expovariate(rate)
        if not order:
            order = list(range(pool_size))
            rng.shuffle(order)
        schedule.append((due, order.pop()))
    return schedule
