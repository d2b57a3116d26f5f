"""Randomized equivalence fuzzer for the fused validation kernel.

The fused loop (:mod:`repro.core.castkernel`) is a pure performance
move: on every document it must produce the same verdict, the same
failure reason and Dewey path, the same
:class:`~repro.core.result.ValidationStats` counters, and — when a
guard or the well-formedness layer raises — the same exception type and
message as the retained event pipeline
(:meth:`StreamingCastValidator.validate_text_events`).  This fuzzer
drives workload corpora (the paper's purchase orders, random schema
pairs with valid, promise-violating and mutilated documents) and the
adversarial corpus through both pipelines and asserts exactly
that, in every skip mode.

The per-value specialization (:func:`repro.schema.simple
.compiled_checker`) carries the same contract against
:meth:`SimpleType.validate` and is fuzzed over random simple types and
edge-case lexical forms.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.streaming import StreamingCastValidator
from repro.errors import ReproError, SchemaError
from repro.guards import Limits
from repro.schema.registry import SchemaPair
from repro.schema.simple import compiled_checker
from repro.workloads.adversarial import (
    deep_document,
    entity_bomb,
    garbage_tail_document,
    oversized_document,
    truncated_document,
    wide_document,
)
from repro.workloads.generators import (
    random_schema,
    random_simple_type,
    sample_document,
)
from repro.workloads.mutations import perturb_schema
from repro.workloads.purchase_orders import (
    make_purchase_order,
    source_schema_experiment1,
    source_schema_experiment2,
    source_schema_zero_subsumption,
    target_schema_experiment1,
    target_schema_experiment2,
    target_schema_zero_subsumption,
)
from repro.xmltree.dom import Element, Text
from repro.xmltree.serializer import serialize

#: (byte_skip, trusted) — every skip mode of ``validate_text``.
MODES = [
    pytest.param((False, False), id="event"),
    pytest.param((True, False), id="byte"),
    pytest.param((True, True), id="byte-trusted"),
]


def outcome(validator, text, *, byte_skip=False, trusted=False,
            events=False):
    """Everything observable about one validation run, exceptions
    included, as a comparable tuple."""
    method = (
        validator.validate_text_events if events else validator.validate_text
    )
    try:
        report = method(text, byte_skip=byte_skip, trusted=trusted)
    except ReproError as error:
        return ("raise", type(error).__name__, str(error))
    return ("report", report.valid, report.reason, report.path,
            report.stats)


def assert_equivalent(pair, text, mode, *, limits=None):
    byte_skip, trusted = mode
    validator = StreamingCastValidator(pair, limits=limits)
    fused = outcome(validator, text, byte_skip=byte_skip, trusted=trusted)
    events = outcome(validator, text, byte_skip=byte_skip,
                     trusted=trusted, events=True)
    assert fused == events, (
        f"kernel diverged from the event pipeline "
        f"(byte_skip={byte_skip}, trusted={trusted})\n"
        f"  fused:  {fused}\n  events: {events}\n  doc: {text[:200]!r}"
    )


def experiment_pairs():
    return [
        SchemaPair(source_schema_experiment1(),
                   target_schema_experiment1()),
        SchemaPair(source_schema_experiment2(),
                   target_schema_experiment2()),
        SchemaPair(source_schema_zero_subsumption(),
                   target_schema_zero_subsumption()),
    ]


def po_corpus(rng):
    """Valid purchase orders plus targeted breakages: bogus children,
    out-of-range values, character data in complex content."""
    texts = [
        serialize(make_purchase_order(6), indent="  "),
        serialize(make_purchase_order(2, with_billto=False)),
        serialize(make_purchase_order(1), indent="\t"),
    ]
    broken = make_purchase_order(4)
    broken.root.find("items").append(Element("bogus"))
    texts.append(serialize(broken, indent="  "))
    overdrawn = make_purchase_order(3)
    for item in overdrawn.root.find("items").children:
        quantity = item.find("quantity")
        if quantity is not None:
            quantity.children[:] = [Text(str(rng.randint(150, 400)))]
    texts.append(serialize(overdrawn, indent="  "))
    chatty = make_purchase_order(2)
    chatty.root.find("items").append(Text("loose change"))
    texts.append(serialize(chatty))
    return texts


class TestPurchaseOrders:
    @pytest.mark.parametrize("mode", MODES)
    def test_experiment_pairs(self, mode):
        rng = random.Random(0xE8)
        for pair in experiment_pairs():
            for text in po_corpus(rng):
                assert_equivalent(pair, text, mode)


class TestRandomPairs:
    @pytest.mark.parametrize("mode", MODES)
    def test_random_schemas(self, mode):
        rng = random.Random(0x5EED)
        pairs_fuzzed = documents_fuzzed = 0
        while pairs_fuzzed < 12:
            try:
                source = random_schema(rng, name=f"src{pairs_fuzzed}")
                target = (
                    perturb_schema(rng, source)
                    if rng.random() < 0.6
                    else random_schema(rng, name=f"tgt{pairs_fuzzed}")
                )
            except SchemaError:
                continue  # pruning left no productive root: resample
            pair = SchemaPair(source, target)
            pairs_fuzzed += 1
            for schema in (source, target):
                document = sample_document(rng, schema)
                if document is None:
                    continue
                text = serialize(
                    document, indent=rng.choice(["", "  ", None])
                )
                assert_equivalent(pair, text, mode)
                documents_fuzzed += 1
                # A mutilated variant: truncate or splice garbage, so
                # the syntax-error paths stay equivalent too.
                if rng.random() < 0.5:
                    mangled = text[: rng.randrange(1, len(text) + 1)]
                else:
                    cut = rng.randrange(len(text))
                    mangled = text[:cut] + rng.choice(
                        ["<", ">", "&", "]]>", "<!--", "\x00"]
                    ) + text[cut:]
                assert_equivalent(pair, mangled, mode)
        assert documents_fuzzed >= 12  # the corpus really sampled docs


def chain_pair():
    """source == target: a recursive single-label schema whose documents
    are plain chains/combs — lets guard errors fire inside validation."""
    from repro.remodel.ast import opt, sym
    from repro.schema.model import ComplexType, Schema

    schema = Schema(
        {"C": ComplexType("C", opt(sym("a")), {"a": "C"}, {})},
        {"a": "C"},
        name="chain",
    )
    return SchemaPair(schema, schema)


class TestAdversarial:
    #: Tight limits so every guard can fire on a small document.
    LIMITS = Limits(
        max_document_bytes=50_000,
        max_tree_depth=60,
        max_entity_expansions=200,
        deadline_seconds=None,
    )

    @pytest.mark.parametrize("mode", MODES)
    def test_adversarial_corpus(self, mode):
        pair = chain_pair()
        corpus = [
            deep_document(100),             # DocumentTooDeepError
            deep_document(59),              # just under the bound
            entity_bomb(500),               # EntityExpansionError
            oversized_document(60_000),     # DocumentTooLargeError
            truncated_document(8),          # syntax error, typed
            garbage_tail_document(),        # trailing garbage
            wide_document(40),              # legal, text in children
            "<a></b>",
            "<a><!-- -- --></a>",
            "<a>]]></a>",
            "",
        ]
        for text in corpus:
            assert_equivalent(pair, text, mode, limits=self.LIMITS)


class TestArtifactRoundTrip:
    def test_pickled_kernel_revalidates_identically(self):
        """A pair restored from a pickle (the artifact cache's
        transport) drops its unpicklable value-checker closures; the
        kernel must rebuild them and produce identical reports."""
        pair = SchemaPair(source_schema_experiment2(),
                          target_schema_experiment2())
        pair.warm()
        restored = pickle.loads(pickle.dumps(pair))
        text = serialize(make_purchase_order(5), indent="  ")
        for source_pair in (pair, restored):
            for record in source_pair.kernel().records:
                if record.ready and record.kind == 2 and source_pair is restored:
                    assert record.check is None  # closure did not pickle
        fresh = StreamingCastValidator(pair).validate_text(text)
        healed = StreamingCastValidator(restored).validate_text(text)
        assert (fresh.valid, fresh.reason, fresh.path) == (
            healed.valid, healed.reason, healed.path
        )
        assert fresh.stats == healed.stats


EDGE_TEXTS = [
    "", " ", "  \t\n", "0", "1", "-0", "+5", "007", "-007",
    "99.", ".5", "-.5", "0.50", "1e3", "NaN", "none", "true", "false",
    " 1 ", "\n42\t", "100", "101", "2.5", "-2.5",
    "9" * 40, "-" + "9" * 40,
    "2020-02-29", "2021-02-29", "0001-01-01", "12-31", "red", "blue",
]


class TestCheckerEquivalence:
    def test_random_simple_types(self):
        rng = random.Random(0xC0FFEE)
        for i in range(150):
            decl = random_simple_type(rng, f"T{i}")
            check = compiled_checker(decl)
            probes = list(EDGE_TEXTS)
            interval = decl.interval()
            if interval is not None:
                for bound in (interval.lower, interval.upper):
                    if bound is not None and not hasattr(bound, "year"):
                        for delta in (-1, 0, 1):
                            probes.append(str(bound + delta))
            for text in probes:
                assert check(text) == decl.validate(text), (
                    f"checker diverged on {decl!r} for {text!r}"
                )

    def test_exclusive_and_fractional_bounds(self):
        from fractions import Fraction

        from repro.schema.simple import builtin, restrict

        decls = [
            restrict(builtin("integer"), "open-low",
                     min_exclusive=Fraction(3)),
            restrict(builtin("integer"), "frac-window",
                     min_exclusive=Fraction(5, 2),
                     max_exclusive=Fraction(7, 2)),
            restrict(builtin("decimal"), "dec-window",
                     min_inclusive=Fraction(1, 4),
                     max_exclusive=Fraction(3, 4)),
            restrict(builtin("string"), "len", min_length=2, max_length=4),
            restrict(builtin("string"), "enum",
                     enumeration=frozenset(["a", "bb "])),
        ]
        probes = EDGE_TEXTS + ["3", "4", "0.25", "0.75", "0.5",
                               "a", "bb ", " bb", "abcd", "abcde"]
        for decl in decls:
            check = compiled_checker(decl)
            for text in probes:
                assert check(text) == decl.validate(text), (
                    f"checker diverged on {decl!r} for {text!r}"
                )
