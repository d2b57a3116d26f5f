"""Near misses of the kernel's record path.

The fused kernel takes a *flat* child element — an attribute-free
record of text-only leaves, like a purchase order's ``item`` or
``shipTo`` — in one regex match (:meth:`repro.schema.pairkernel
.PairKernel.flatten`), and falls back to its per-tag loop at the
record's start whenever the match, the parent's content step, the
depth bound or a value check declines.  These fixtures put every near
miss of that match into the first, a middle and the last ``item`` of a
purchase order and into its ``shipTo``, under the Experiment 2 pair and
the zero-subsumption pair, and assert that the kernel still answers
exactly as its oracles: ``cast_text`` as ``reference_cast`` in both
skip modes (verdict, reason, path and every counter, or the same
exception), ``validate_text`` as ``validate_document(parse(...))``.
The guards stay exact too: depth bounds at a record's leaf depth, and
one deadline tick per start tag.
"""

from __future__ import annotations

import re
import sys
import threading
import time

import pytest

from repro.core.cast import cast_text
from repro.core.reference import reference_cast
from repro.core.validator import validate_text
from repro.guards import Deadline, Limits
from repro.schema import pairkernel
from repro.schema.dtd import parse_dtd
from repro.schema.registry import SchemaPair
from repro.schema.xsd import parse_xsd
from repro.workloads.purchase_orders import (
    make_purchase_order,
    source_schema_experiment2,
    source_schema_zero_subsumption,
    target_schema_experiment2,
    target_schema_zero_subsumption,
)
from repro.xmltree.serializer import serialize

from tests.core.test_kernel_equivalence import (  # records_taken: a fixture
    MODES,
    assert_equivalent,
    assert_validates_alike,
    outcome,
    records_taken,
)

ITEMS = 5

#: (label, occurrence) of the records the near misses go into: the
#: first, a middle and the last item, and the shipping address.
RECORDS = [("item", 0), ("item", ITEMS // 2), ("item", ITEMS - 1),
           ("shipTo", 0)]

_LEAF_RE = re.compile(r"<(\w+)>([^<]*)</\1>")


def base_text() -> str:
    """A purchase order whose middle item has no ``shipDate``, so the
    records hold both words of ``Item``'s content language."""
    document = make_purchase_order(ITEMS)
    middle = document.root.find("items").children[ITEMS // 2]
    middle.remove(middle.find("shipDate"))
    return serialize(document, indent="  ")


def pairs():
    return {
        "exp2": SchemaPair(source_schema_experiment2(),
                           target_schema_experiment2()),
        "zero-sub": SchemaPair(source_schema_zero_subsumption(),
                               target_schema_zero_subsumption()),
    }


def leaves(record: str) -> list:
    return list(_LEAF_RE.finditer(record))


def splice(record: str, at: int, text: str) -> str:
    return record[:at] + text + record[at:]


def between(text: str):
    """Insert ``text`` between the first two leaves."""
    return lambda record: splice(record, leaves(record)[0].end(), text)


def inside(text: str):
    """Insert ``text`` into the first leaf's value, after one character."""
    return lambda record: splice(record, leaves(record)[0].start(2) + 1,
                                 text)


def set_value(index: int, value: str):
    def mutate(record):
        leaf = leaves(record)[index]
        return record[:leaf.start(2)] + value + record[leaf.end(2):]
    return mutate


def leaf_attribute(record: str) -> str:
    leaf = leaves(record)[0]
    return splice(record, leaf.start() + 1 + len(leaf.group(1)), ' a="1"')


def record_attribute(record: str) -> str:
    label = re.match(r"<(\w+)>", record).group(1)
    return f'<{label} a="1">' + record[len(label) + 2:]


def leaf_wrong_close(record: str) -> str:
    leaf = leaves(record)[0]
    return splice(record, leaf.end() - 1, "x")


def leaf_swapped_close(record: str) -> str:
    first, second = leaves(record)[:2]
    a, b = first.group(1), second.group(1)
    return (record[:first.start()] + f"<{a}>{first.group(2)}</{b}>"
            + record[first.end():second.start()]
            + f"<{b}>{second.group(2)}</{a}>" + record[second.end():])


def record_wrong_close(record: str) -> str:
    return record[:-1] + "x>"


def record_swapped_close(record: str) -> str:
    label = re.match(r"<(\w+)>", record).group(1)
    last = leaves(record)[-1]
    leaf = last.group(1)
    return (record[:last.start()] + f"<{leaf}>{last.group(2)}</{label}>"
            + record[last.end():-len(f"</{label}>")] + f"</{leaf}>")


def self_closing(index: int):
    def mutate(record):
        leaf = leaves(record)[index]
        return (record[:leaf.start()] + f"<{leaf.group(1)}/>"
                + record[leaf.end():])
    return mutate


def missing_leaf(record: str) -> str:
    leaf = leaves(record)[1]
    return record[:leaf.start()] + record[leaf.end():]


def extra_leaf(record: str) -> str:
    return splice(record, leaves(record)[-1].end(), "<extra>1</extra>")


def repeated_leaf(record: str) -> str:
    leaf = leaves(record)[0]
    return splice(record, leaf.end(), leaf.group(0))


def reordered_leaves(record: str) -> str:
    first, second = leaves(record)[:2]
    return (record[:first.start()] + second.group(0)
            + record[first.end():second.start()] + first.group(0)
            + record[second.end():])


def after(text: str):
    """Append ``text`` to the record, where a record-path hit leaves the
    cursor: the next tag is read by the one-arm matches, and markup the
    master declines is replayed there."""
    return lambda record: record + text


#: Out of range for every leaf type of both pairs: longer than
#: ``maxLength`` 100, above every decimal bound, not a date.
TOO_BIG = "9" * 101

NEAR_MISSES = {
    "entity-between": between("&amp;"),
    "entity-inside": inside("&amp;"),
    "charref-inside": inside("&#65;"),
    "comment-between": between("<!-- c -->"),
    "comment-inside": inside("<!-- c -->"),
    "cdata-between": between("<![CDATA[x]]>"),
    "cdata-inside": inside("<![CDATA[<&>]]>"),
    "pi-between": between("<?pi x?>"),
    "pi-inside": inside("<?pi x?>"),
    "record-attribute": record_attribute,
    "leaf-attribute": leaf_attribute,
    "bracket-in-value": inside("]"),
    "cdata-end-in-value": inside("]]>"),
    "leaf-wrong-close": leaf_wrong_close,
    "leaf-swapped-close": leaf_swapped_close,
    "record-wrong-close": record_wrong_close,
    "record-swapped-close": record_swapped_close,
    "self-closing-first-leaf": self_closing(0),
    "self-closing-last-leaf": self_closing(-1),
    "missing-leaf": missing_leaf,
    "extra-leaf": extra_leaf,
    "repeated-leaf": repeated_leaf,
    "reordered-leaves": reordered_leaves,
    "text-between": between("x"),
    "text-before-record": lambda record: "x" + record,
    "entity-before-record": lambda record: "&amp;" + record,
    "cdata-before-record": lambda record: "<![CDATA[ ]]>" + record,
    "comment-before-record": lambda record: "<!-- c -->\n" + record,
    "blank-first-value": set_value(0, "  "),
    "blank-last-value": set_value(-1, " \n "),
    "out-of-range-first": set_value(0, TOO_BIG),
    "out-of-range-middle": set_value(1, TOO_BIG),
    "out-of-range-last": set_value(-1, TOO_BIG),
    # After the record: a cast answers the stray text's failure before a
    # tag or ``<!x>``, and the syntax error before an unterminated
    # comment, CDATA section or PI.
    "parent-wrong-close-after": after("</itemz>"),
    "malformed-start-after": after("<item a=>"),
    "open-comment-after": after("<!-- c"),
    "open-cdata-after": after("<![CDATA[x"),
    "open-pi-after": after("<?pi x"),
    "text-parent-wrong-close-after": after("x</itemz>"),
    "text-malformed-start-after": after("x<item a=>"),
    "text-open-comment-after": after("x<!-- c"),
    "text-open-cdata-after": after("x<![CDATA[x"),
    "text-open-pi-after": after("x<?pi x"),
    "text-bad-markup-after": after("x<!x>"),
}


def record_span(text: str, label: str, occurrence: int) -> tuple[int, int]:
    starts = [m.start() for m in re.finditer(f"<{label}>", text)]
    start = starts[occurrence]
    close = f"</{label}>"
    return start, text.index(close, start) + len(close)


def near_miss_texts():
    """(fixture id, document text) for every near miss in every record."""
    text = base_text()
    for label, occurrence in RECORDS:
        start, end = record_span(text, label, occurrence)
        record = text[start:end]
        for name, mutate in NEAR_MISSES.items():
            mutated = mutate(record)
            assert mutated != record, name
            yield (f"{name}@{label}{occurrence}",
                   text[:start] + mutated + text[end:])


FIXTURES = list(near_miss_texts())


@pytest.fixture(scope="module")
def pair_table():
    return pairs()


@pytest.mark.parametrize("key", ["exp2", "zero-sub"])
@pytest.mark.parametrize("mode", MODES)
def test_base_document_takes_the_record_path(pair_table, key, mode,
                                             records_taken):
    """Not vacuous: the unbroken order takes every item whole (and, where
    nothing is subsumed, the addresses), and answers as the oracle."""
    pair = pair_table[key]
    text = base_text()
    assert_equivalent(pair, text, mode)
    records_taken.clear()
    assert cast_text(pair, text, trusted=mode).valid
    assert len(records_taken) == ITEMS + (2 if key == "zero-sub" else 0)


@pytest.mark.parametrize("key", ["exp2", "zero-sub"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fixture", FIXTURES, ids=[f for f, _ in FIXTURES])
def test_cast_near_miss(pair_table, key, mode, fixture):
    assert_equivalent(pair_table[key], fixture[1], mode)


@pytest.mark.parametrize("key", ["exp2", "zero-sub"])
@pytest.mark.parametrize("fixture", FIXTURES, ids=[f for f, _ in FIXTURES])
def test_validate_near_miss(pair_table, key, fixture):
    pair = pair_table[key]
    for schema in (pair.source, pair.target):
        assert_validates_alike(schema, fixture[1])


def test_parent_decided_by_the_record_path(records_taken):
    """A record met where its parent's pair automaton sits in an IA
    state decides the parent early, once, as the per-tag loop does."""
    pair = SchemaPair(
        parse_dtd("<!ELEMENT p ((a|c), r, r)> <!ELEMENT a EMPTY>"
                  "<!ELEMENT c EMPTY> <!ELEMENT r (v|w)>"
                  "<!ELEMENT v (#PCDATA)> <!ELEMENT w (#PCDATA)>",
                  roots=["p"]),
        parse_dtd("<!ELEMENT p (a, r*)> <!ELEMENT a EMPTY>"
                  "<!ELEMENT c EMPTY> <!ELEMENT r (v)>"
                  "<!ELEMENT v (#PCDATA)> <!ELEMENT w (#PCDATA)>",
                  roots=["p"]),
    )
    text = "<p><a/><r><v>1</v></r>\n<r> <v>2</v> </r></p>"
    for mode in (False, True):
        assert_equivalent(pair, text, mode)
    records_taken.clear()
    report = cast_text(pair, text)
    assert report.valid
    assert report.stats.early_content_decisions == 1
    assert len(records_taken) == 2


def _dtd(record: str, extra: str = "") -> str:
    return (f"<!ELEMENT p (r*)> <!ELEMENT r {record}> {extra}"
            + "".join(f"<!ELEMENT {leaf} (#PCDATA)>" for leaf in "abcdvw"))


#: (source DTD, target DTD, documents): records whose plans depend on
#: the target's content model and attributes, not on the match alone.
PROMISE_CASES = {
    # The target rejects the promised word "v": no plan, the loop fails.
    "end-state": (_dtd("(v, w?)"), _dtd("(v, w)"),
                  ["<p><r><v>1</v></r></p>",
                   "<p><r><v>1</v><w>2</w></r></p>"]),
    # IA after the first leaf: decided early, inside the plan.
    "ia-mid-record": (_dtd("((a|b), c)"), _dtd("((a, c)|(b, d))"),
                      ["<p><r><a>1</a><c>2</c></r></p>",
                       "<p><r><b>1</b><c>2</c></r></p>"]),
    # A required target attribute keeps the record off the path.
    "attribute": (_dtd("(v|w)", "<!ATTLIST r id CDATA #IMPLIED>"),
                  _dtd("(v)", "<!ATTLIST r id CDATA #REQUIRED>"),
                  ["<p><r><v>1</v></r></p>", '<p><r id="x"><v>1</v></r></p>']),
}


@pytest.mark.parametrize("case", list(PROMISE_CASES))
def test_plans_follow_the_target(case):
    source, target, texts = PROMISE_CASES[case]
    pair = SchemaPair(parse_dtd(source, roots=["p"]),
                      parse_dtd(target, roots=["p"]))
    for text in texts:
        for mode in (False, True):
            assert_equivalent(pair, text, mode)
        for schema in (pair.source, pair.target):
            assert_validates_alike(schema, text)


def _xsd(leaf_facets: str) -> str:
    return f"""
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="p" type="P"/>
  <xsd:complexType name="P">
    <xsd:sequence>
      <xsd:element name="r" type="R" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="R">
    <xsd:sequence>
      <xsd:element name="s">
        <xsd:simpleType>
          <xsd:restriction base="xsd:string">{leaf_facets}</xsd:restriction>
        </xsd:simpleType>
      </xsd:element>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>
"""


def test_blank_value_is_checked_as_empty(records_taken):
    """A whitespace-only value is checked as the empty string, as the
    per-tag loop checks it: ``minLength`` 1 rejects it."""
    pair = SchemaPair(parse_xsd(_xsd("")),
                      parse_xsd(_xsd('<xsd:minLength value="1"/>')))
    good, blank = "<p><r><s>x</s></r></p>", "<p><r><s> \n </s></r></p>"
    for text in (good, blank):
        for mode in (False, True):
            assert_equivalent(pair, text, mode)
        assert_validates_alike(pair.target, text)
    records_taken.clear()
    assert cast_text(pair, good).valid
    assert not cast_text(pair, blank).valid
    assert not validate_text(pair.target, blank).valid
    assert len(records_taken) == 3  # good once, blank once per engine


#: purchaseOrder > items > item > leaf.
ITEM_LEAF_DEPTH = 4


@pytest.mark.parametrize("key", ["exp2", "zero-sub"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("depth", [ITEM_LEAF_DEPTH, ITEM_LEAF_DEPTH - 1])
def test_depth_bound_at_the_leaf_depth(pair_table, key, mode, depth):
    """A bound equal to the leaves' depth admits the records; one less
    raises where the per-tag loop raises."""
    pair = pair_table[key]
    limits = Limits(max_tree_depth=depth)
    text = base_text()
    assert_equivalent(pair, text, mode, limits=limits)
    answer = outcome(pair, text, limits=limits, trusted=mode)
    if depth == ITEM_LEAF_DEPTH:
        assert answer[:2] == ("report", True)
    else:
        assert answer[:2] == ("raise", "DocumentTooDeepError")
    for schema in (pair.source, pair.target):
        assert_validates_alike(schema, text, limits=limits)


@pytest.mark.parametrize("key", ["exp2", "zero-sub"])
def test_one_deadline_tick_per_start_tag(pair_table, key, monkeypatch,
                                         records_taken):
    pair = pair_table[key]
    text = serialize(make_purchase_order(200), indent="  ")
    ticks = []
    tick = Deadline.tick

    def counting(self):
        ticks.append(1)
        tick(self)

    monkeypatch.setattr(Deadline, "tick", counting)
    limits = Limits(deadline_seconds=3600.0)
    totals = []
    for cast in (cast_text, reference_cast):
        del ticks[:]
        assert cast(pair, text, limits=limits).valid
        totals.append(len(ticks))
    assert totals[0] == totals[1] == text.count("<") - text.count("</")
    assert len(records_taken) >= 200


def test_tables_built_by_racing_threads(monkeypatch):
    """Threads that meet the same unbuilt records at once (records,
    their ids and their flat-record tables are built on first touch)
    still get the one-thread answers.  A record's construction yields
    the interpreter, to widen the windows a race needs."""
    init = pairkernel.PairRecord.__init__

    def yielding_init(self, *args):
        init(self, *args)
        time.sleep(0.0002)

    monkeypatch.setattr(pairkernel.PairRecord, "__init__", yielding_init)
    text = base_text()
    start, end = record_span(text, "item", 1)
    texts = [text, text[:start] + set_value(1, "150")(text[start:end])
             + text[end:]]

    def answers(pair):
        casts = [outcome(pair, t) for t in texts]
        plain = [validate_text(pair.target, t) for t in texts]
        return casts + [(r.valid, r.reason, r.path, r.stats) for r in plain]

    expected = answers(pairs()["zero-sub"])
    assert expected[0][1] and not expected[1][1]  # the path is exercised
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            pair = pairs()["zero-sub"]
            barrier = threading.Barrier(4)
            results = []

            def race():
                barrier.wait(timeout=30)
                results.append(answers(pair))

            threads = [threading.Thread(target=race) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)
