"""Near misses of the kernel's drain match.

Inside a drain — a subsumed subtree, or the rest of a plain validation
being settled — the fused kernel reads a whole *flat* element (an
attribute-free element of text-only leaves, like a purchase order's
``item``) in one match of :data:`repro.xmltree.lexer.DRAIN_FLAT_RE`,
and falls through to its leaf match and per-tag branches on anything
else.  These fixtures put the record path's near misses
(``tests/core/test_record_path.py``) and the drain match's own into the
first, a middle and the last ``item`` of a purchase order and into its
``shipTo``, in two modes:

* cast: the Experiment 1 pair, which drains ``shipTo``, ``billTo`` and
  every item.  ``cast_text`` answers as ``parse`` does (``valid``, or
  ``not well-formed`` with parse's message) and as ``reference_cast``
  does, counters included;
* settle: ``validate_text`` under Experiment 2's target, with item 0's
  quantity at 150, so the rest of the text is drained to settle that
  failure.  It answers as ``validate_document(parse(...))`` does.

The guards stay exact too: the depth bound at the leaves' depth, and
one deadline tick per element.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

import pytest

from repro.core import castkernel
from repro.core.cast import cast_text
from repro.core.reference import reference_cast
from repro.core.validator import validate_text
from repro.errors import XMLSyntaxError
from repro.guards import Deadline, Limits
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize

from tests.core.test_kernel_equivalence import (
    assert_equivalent,
    assert_validates_alike,
    outcome,
)
from tests.core.test_record_path import (
    ITEMS,
    NEAR_MISSES,
    RECORDS,
    base_text,
    between,
    inside,
    leaves,
    record_span,
    set_value,
    splice,
)


@pytest.fixture()
def drains_taken(monkeypatch):
    """The labels of the elements the kernel's drain match took (a hit
    is always taken: the depth bound is tested before the match)."""
    taken = []
    match = castkernel.DRAIN_FLAT_RE.match

    def counting(text, pos):
        hit = match(text, pos)
        if hit is not None:
            taken.append(hit.group(1))
        return hit

    monkeypatch.setattr(castkernel, "DRAIN_FLAT_RE",
                        SimpleNamespace(match=counting))
    return taken


def label_of(record: str) -> str:
    return re.match(r"<(\w+)>", record).group(1)


def start_tag_space(record: str) -> str:
    label = label_of(record)
    return f"<{label} >" + record[len(label) + 2:]


def leaf_start_tag_space(record: str) -> str:
    leaf = leaves(record)[0]
    at = leaf.start() + 1 + len(leaf.group(1))
    return record[:at] + " " + record[at:]


def close_tag_space(record: str) -> str:
    return record[:-1] + " \n>"


def leaf_close_tag_space(record: str) -> str:
    leaf = leaves(record)[0]
    return record[:leaf.end() - 1] + " >" + record[leaf.end():]


def before_close(text: str):
    """Insert ``text`` after the last leaf, before the close tag."""
    return lambda record: splice(record, record.rindex("</"), text)


def no_leaves(blank: str):
    def mutate(record):
        label = label_of(record)
        return f"<{label}>{blank}</{label}>"
    return mutate


#: Near misses that stay inside the element, the record path's and the
#: drain match's own (the close-tag whitespace cases are hits).  The
#: drain decodes no text it declines, so faults parse rejects go both
#: inside a leaf and between leaves.
INSIDE = {
    **{name: mutate for name, mutate in NEAR_MISSES.items()
       if not name.endswith("-after") and "before" not in name},
    "unknown-entity-inside": inside("&bogus;"),
    "bad-charref-inside": inside("&#xZZ;"),
    "unknown-entity-between": between("&bogus;"),
    "cdata-end-between": between("]]>"),
    "text-before-close": before_close("x"),
    "unknown-entity-before-close": before_close("&bogus;"),
    "start-tag-space": start_tag_space,
    "leaf-start-tag-space": leaf_start_tag_space,
    "close-tag-space": close_tag_space,
    "leaf-close-tag-space": leaf_close_tag_space,
    "no-leaves": no_leaves(""),
    "blank-no-leaves": no_leaves("\n    "),
}

#: Near misses just before or after the element.  Around an item they
#: lie inside the drained ``items``; around ``shipTo`` they would lie in
#: the validated root, so they go into the items alone.
AROUND = {name: mutate for name, mutate in NEAR_MISSES.items()
          if name not in INSIDE}


def settle_base() -> str:
    """The base order with item 0's quantity at 150: invalid under
    Experiment 2's target (bound 100), so validation settles the rest."""
    text = base_text()
    start, end = record_span(text, "item", 0)
    return text[:start] + set_value(1, "150")(text[start:end]) + text[end:]


def near_miss_texts(text: str):
    """(fixture id, mutated text) for every near miss in every record."""
    for label, occurrence in RECORDS:
        start, end = record_span(text, label, occurrence)
        record = text[start:end]
        cases = INSIDE if label == "shipTo" else {**INSIDE, **AROUND}
        for name, mutate in cases.items():
            mutated = mutate(record)
            assert mutated != record, name
            yield (f"{name}@{label}{occurrence}",
                   text[:start] + mutated + text[end:])


CAST_FIXTURES = list(near_miss_texts(base_text()))
SETTLE_FIXTURES = list(near_miss_texts(settle_base()))


def parse_answer(text: str) -> tuple:
    """What ``parse`` says about ``text``: nothing, or its error."""
    try:
        parse(text)
    except XMLSyntaxError as error:
        return (False, f"not well-formed: {error}")
    return (True, "")


def assert_casts_as_parse(pair, text):
    assert_equivalent(pair, text, False)
    report = cast_text(pair, text)
    assert (report.valid, report.reason) == parse_answer(text)


def test_base_documents_take_the_drain_match(exp1_pair, exp2_pair,
                                             drains_taken):
    """Not vacuous: a cast drains every item with one match, and a
    settle every item after the failing one."""
    text = base_text()
    assert_casts_as_parse(exp1_pair, text)
    del drains_taken[:]
    assert cast_text(exp1_pair, text).valid
    assert drains_taken == ["item"] * ITEMS
    text = settle_base()
    assert_validates_alike(exp2_pair.target, text)
    del drains_taken[:]
    report = validate_text(exp2_pair.target, text)
    assert not report.valid and "'150'" in report.reason
    assert drains_taken == ["item"] * (ITEMS - 1)


@pytest.mark.parametrize("fixture", CAST_FIXTURES,
                         ids=[f for f, _ in CAST_FIXTURES])
def test_cast_near_miss(exp1_pair, fixture):
    assert_casts_as_parse(exp1_pair, fixture[1])


@pytest.mark.parametrize("fixture", SETTLE_FIXTURES,
                         ids=[f for f, _ in SETTLE_FIXTURES])
def test_settle_near_miss(exp2_pair, fixture):
    assert_validates_alike(exp2_pair.target, fixture[1])


#: purchaseOrder > items > item > leaf.
ITEM_LEAF_DEPTH = 4


@pytest.mark.parametrize("depth", [ITEM_LEAF_DEPTH, ITEM_LEAF_DEPTH - 1])
def test_depth_bound_at_the_leaf_depth(exp1_pair, exp2_pair, depth,
                                       drains_taken):
    """A bound equal to the leaves' depth admits the match; one less
    declines it, and the leaf raises where the per-tag loop raises."""
    limits = Limits(max_tree_depth=depth)
    text = base_text()
    assert_equivalent(exp1_pair, text, False, limits=limits)
    del drains_taken[:]
    answer = outcome(exp1_pair, text, limits=limits)
    if depth == ITEM_LEAF_DEPTH:
        assert answer[:2] == ("report", True)
        assert drains_taken == ["item"] * ITEMS
    else:
        assert answer[:2] == ("raise", "DocumentTooDeepError")
        assert drains_taken == []
    assert_validates_alike(exp2_pair.target, settle_base(), limits=limits)


def test_one_deadline_tick_per_element(exp1_pair, monkeypatch,
                                       drains_taken):
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
        assert cast(exp1_pair, text, limits=limits).valid
        totals.append(len(ticks))
    assert totals[0] == totals[1] == text.count("<") - text.count("</")
    assert drains_taken == ["item"] * 200
