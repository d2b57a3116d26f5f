"""Tests for the streaming schema cast (the fused kernel behind
:func:`repro.core.cast.cast_text`)."""

import random

import pytest

from repro.core.cast import CastValidator, cast_text
from repro.schema.model import Schema, attribute, complex_type
from repro.schema.registry import SchemaPair
from repro.schema.simple import builtin
from repro.workloads.generators import random_schema, sample_document
from repro.workloads.mutations import perturb_schema
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize


class TestPaperExperiments:
    def test_experiment1_verdicts(self, exp1_pair):
        good = serialize(make_purchase_order(20), indent="  ")
        bad = serialize(make_purchase_order(20, with_billto=False))
        assert cast_text(exp1_pair, good, stream_skip=False).valid
        assert not cast_text(exp1_pair, bad, stream_skip=False).valid

    def test_experiment1_skips_subtrees(self, exp1_pair):
        text = serialize(make_purchase_order(50))
        report = cast_text(exp1_pair, text, stream_skip=False)
        assert report.valid
        # Same O(1) verification work as the DOM cast: subsumed
        # subtrees (addresses, items) contribute nothing.
        assert report.stats.elements_visited <= 2
        assert report.stats.subtrees_skipped >= 3

    def test_experiment2_value_checks(self, exp2_pair):
        good = serialize(make_purchase_order(10))
        report = cast_text(exp2_pair, good, stream_skip=False)
        assert report.valid
        assert report.stats.simple_values_checked == 10
        bad = serialize(
            make_purchase_order(10, quantity_of=lambda i: 150)
        )
        assert not cast_text(exp2_pair, bad, stream_skip=False).valid

    def test_disjoint_fails_fast(self):
        left = Schema(
            {
                "T": complex_type("T", "(x)", {"x": "Date"}),
                "Date": builtin("date"),
            },
            {"t": "T"},
        )
        right = Schema(
            {
                "T": complex_type("T", "(x)", {"x": "Int"}),
                "Int": builtin("integer"),
            },
            {"t": "T"},
        )
        report = cast_text(
            SchemaPair(left, right), "<t><x>2004-01-01</x></t>",
            stream_skip=False,
        )
        assert not report.valid
        assert report.stats.disjoint_rejections == 1

    def test_malformed_input(self, exp1_pair):
        assert not cast_text(
            exp1_pair, "<purchaseOrder>", stream_skip=False
        ).valid


def _parity_pair(source_types: dict, target_types: dict) -> SchemaPair:
    """``r -> (a, c?)`` on both sides, ``a`` a string; ``c`` (and any
    extra types) differ per fixture.  ``c`` is optional so the root
    pair itself is never disjoint."""
    def schema(types):
        return Schema(
            {
                "R": complex_type("R", "(a, c?)", {"a": "Str", "c": "C"}),
                "Str": builtin("string"),
                **types,
            },
            {"r": "R"},
        )

    return SchemaPair(schema(source_types), schema(target_types))


#: One source-valid document per kind of failure report on which the
#: kernel used to disagree with the DOM cast: (pair, document, the DOM
#: cast's path).
PARITY_FIXTURES = [
    # A child label outside the parent's target content model fails the
    # parent's content model (not "no target type assigned").
    pytest.param(
        SchemaPair(
            Schema({"R": complex_type("R", "(a, b?)",
                                      {"a": "Str", "b": "Str"}),
                    "Str": builtin("string")}, {"r": "R"}),
            Schema({"R": complex_type("R", "(a)", {"a": "Str"}),
                    "Str": builtin("string")}, {"r": "R"}),
        ),
        "<r><a>x</a><b>y</b></r>", "", id="label-outside-content-model",
    ),
    # An attribute violation is reported at the element itself.
    pytest.param(
        _parity_pair(
            {"C": complex_type("C", "()", {},
                               {"k": attribute("k", "Str")})},
            {"C": complex_type("C", "()", {},
                               {"k": attribute("k", "Int")}),
             "Int": builtin("integer")},
        ),
        '<r><a>x</a><c k="zz"/></r>', "1", id="attribute",
    ),
    pytest.param(
        _parity_pair(
            {"C": complex_type("C", "()", {})},
            {"C": complex_type("C", "()", {},
                               {"k": attribute("k", "Str",
                                               required=True)})},
        ),
        "<r><a>x</a><c></c></r>", "1", id="attribute-leaf",
    ),
    # A disjoint child is reported at the child.
    pytest.param(
        _parity_pair({"C": builtin("date")}, {"C": builtin("integer")}),
        "<r><a>x</a><c>2004-01-01</c></r>", "1", id="disjoint-child",
    ),
    pytest.param(
        _parity_pair(
            {"C": complex_type("C", "(p)", {"p": "Str"})},
            {"C": complex_type("C", "(q)", {"q": "Str"})},
        ),
        "<r><a>x</a><c><p>1</p></c></r>", "1", id="disjoint-subtree",
    ),
    # Character data under a simple-source/complex-target element is
    # reported at the text node.
    pytest.param(
        _parity_pair({"C": builtin("string")},
                     {"C": complex_type("C", "()", {})}),
        "<r><a>x</a><c>hello</c></r>", "1.0", id="character-data",
    ),
    pytest.param(
        _parity_pair({"C": builtin("string")},
                     {"C": complex_type("C", "()", {})}),
        "<r><a>x</a><c>fish &amp; chips</c></r>", "1.0",
        id="character-data-entity",
    ),
    # A simple target with child elements names the declared type.
    pytest.param(
        _parity_pair(
            {"C": complex_type("C", "(p?)", {"p": "Str"})},
            {"C": builtin("string")},
        ),
        "<r><a>x</a><c><p>1</p></c></r>", "1", id="simple-type-name",
    ),
]


def _is_proper_ancestor(path: str, descendant: str) -> bool:
    if path == "":
        return descendant != ""
    return descendant.startswith(path + ".")


class TestAgreementWithDomCast:
    @pytest.mark.parametrize("pair, text, path", PARITY_FIXTURES)
    @pytest.mark.parametrize(
        "stream_skip, trusted",
        [(False, False), (True, False), (True, True)],
        ids=["drain", "skim", "skim-trusted"],
    )
    def test_failure_report_matches_dom(
        self, pair, text, path, stream_skip, trusted
    ):
        dom = CastValidator(pair).validate(parse(text))
        assert not dom.valid and dom.path == path
        kernel = cast_text(pair, text, stream_skip=stream_skip,
                           trusted=trusted)
        assert (kernel.valid, kernel.reason, kernel.path) == (
            dom.valid, dom.reason, dom.path
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_random_agreement(self, seed):
        rng = random.Random(60_000 + seed)
        usable = 0
        for _ in range(40):
            try:
                source = random_schema(rng)
            except Exception:
                continue
            doc = sample_document(rng, source, max_depth=6)
            if doc is None:
                continue
            try:
                target = (
                    perturb_schema(rng, source)
                    if rng.random() < 0.5
                    else random_schema(rng)
                )
                pair = SchemaPair(source, target)
            except Exception:
                continue
            usable += 1
            text = serialize(doc, indent="  ")
            dom = CastValidator(pair).validate(parse(text))
            kernel = cast_text(pair, text)
            assert dom.valid == kernel.valid, (
                seed, dom.reason, kernel.reason,
            )
            if (dom.reason, dom.path) == (kernel.reason, kernel.path):
                continue
            # The one order the two walks may legitimately differ in:
            # the DOM walk checks an element's whole child string
            # before descending, so on a document with two faults it
            # can reject an ancestor's content model that the kernel,
            # reading in document order, has not finished yet when it
            # meets the fault below.
            assert dom.reason.startswith("children of ") and (
                _is_proper_ancestor(dom.path, kernel.path)
            ), (seed, dom.reason, dom.path, kernel.reason, kernel.path)
        if not usable:
            pytest.skip("no usable pair")

    def test_identical_schemas_skip_everything(self, exp2_pair):
        pair = SchemaPair(exp2_pair.target, exp2_pair.target)
        report = cast_text(pair, serialize(make_purchase_order(100)),
                           stream_skip=False)
        assert report.valid
        assert report.stats.elements_visited == 0
        assert report.stats.subtrees_skipped == 1


class TestMemory:
    def test_memory_document_independent(self, exp2_pair):
        import tracemalloc

        texts = {
            n: serialize(make_purchase_order(n), indent="  ")
            for n in (50, 1000)
        }

        def peak(text):
            tracemalloc.start()
            cast_text(exp2_pair, text, stream_skip=False)
            _, high = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return high

        small, large = peak(texts[50]), peak(texts[1000])
        assert large < small * 3
