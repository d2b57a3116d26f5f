"""Randomized equivalence fuzzer for the fused validation kernel.

The fused loop (:mod:`repro.core.castkernel`, behind
:func:`repro.core.cast.cast_text`) is a pure performance move: on every
document it must produce the same verdict, the same failure reason and
Dewey path, the same :class:`~repro.core.result.ValidationStats`
counters, and — when a guard or the well-formedness layer raises — the
same exception type and message as the event pipeline kept as its
reference oracle (:func:`repro.core.reference.reference_cast`).  This
fuzzer drives workload corpora (the paper's purchase orders, random
schema pairs with valid, promise-violating and mutilated documents,
random pairs of flat records — the shape the kernel's record path
takes in one match) and the adversarial corpus through both pipelines
and asserts exactly that, in every skip mode.

In validation mode the same loop runs over one schema's kernel
(:func:`repro.core.validator.validate_text`), and the oracle is the
tree walk over the parsed document, ``validate_document(schema,
parse(text))``: the same exception type and error code, or the same
verdict, reason, path and (on a valid document) counters — with no
tolerance for the tree walk's content-first order, which the kernel's
drain after a rejection reproduces.

The DOM cast (:class:`~repro.core.cast.CastValidator`) shares the
kernel's tables but no walk code: on every document both accept, they
count the same Table-3 work.

The per-value specialization (:func:`repro.schema.simple
.compiled_checker`) carries the same contract against
:meth:`SimpleType.validate` and is fuzzed over random simple types and
edge-case lexical forms.
"""

from __future__ import annotations

import math
import pickle
import random
import re

import pytest

from repro.core import castkernel
from repro.core.cast import CastValidator, cast_text
from repro.core.reference import reference_cast
from repro.core.updates import UpdateSession
from repro.core.validator import validate_document, validate_text
from repro.errors import ReproError, SchemaError, error_code
from repro.guards import Limits
from repro.remodel.ast import alt, opt, seq, star, sym
from repro.schema.dtd import parse_dtd
from repro.schema.model import ComplexType, Schema
from repro.schema.registry import SchemaPair
from repro.schema.simple import compiled_checker, value_checker
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
from repro.workloads.mutations import perturb_schema, random_edits
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
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize

#: ``trusted`` — both skip modes of ``cast_text``: subsumed subtrees
#: drained token by token, or byte-searched past.
MODES = [
    pytest.param(False, id="event"),
    pytest.param(True, id="byte-trusted"),
]


def outcome(pair, text, *, limits=None, trusted=False, events=False):
    """Everything observable about one validation run, exceptions
    included, as a comparable tuple."""
    try:
        if events:
            report = reference_cast(pair, text, limits=limits,
                                    trusted=trusted)
        else:
            report = cast_text(pair, text, limits=limits, trusted=trusted)
    except ReproError as error:
        return ("raise", type(error).__name__, str(error))
    return ("report", report.valid, report.reason, report.path,
            report.stats)


def assert_equivalent(pair, text, trusted, *, limits=None):
    fused = outcome(pair, text, limits=limits, trusted=trusted)
    events = outcome(pair, text, limits=limits, trusted=trusted,
                     events=True)
    assert fused == events, (
        f"kernel diverged from the event pipeline (trusted={trusted})\n"
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


def random_pairs(rng, count):
    """``count`` random schema pairs, each target perturbed from its
    source or drawn on its own; drawn lazily, so a caller's sampling
    between pairs shares the one stream."""
    made = 0
    while made < count:
        try:
            source = random_schema(rng, name=f"src{made}")
            target = (
                perturb_schema(rng, source)
                if rng.random() < 0.6
                else random_schema(rng, name=f"tgt{made}")
            )
        except SchemaError:
            continue  # pruning left no productive root: resample
        made += 1
        yield SchemaPair(source, target)


class TestRandomPairs:
    @pytest.mark.parametrize("mode", MODES)
    def test_random_schemas(self, mode):
        rng = random.Random(0x5EED)
        documents_fuzzed = 0
        for pair in random_pairs(rng, 12):
            for schema in (pair.source, pair.target):
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


#: Tight limits so every guard can fire on a small document.
ADVERSARIAL_LIMITS = Limits(
    max_document_bytes=50_000,
    max_tree_depth=60,
    max_entity_expansions=200,
    deadline_seconds=None,
)


def adversarial_corpus():
    """Documents rooted at ``a`` that trip every guard and syntax
    check (under :data:`ADVERSARIAL_LIMITS`), plus legal neighbours."""
    return [
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


class TestAdversarial:
    LIMITS = ADVERSARIAL_LIMITS

    @pytest.mark.parametrize("mode", MODES)
    def test_adversarial_corpus(self, mode):
        pair = chain_pair()
        for text in adversarial_corpus():
            assert_equivalent(pair, text, mode, limits=self.LIMITS)


#: Leaf labels of the flat-record family.
FLAT_LEAVES = [f"l{index}" for index in range(6)]

#: Leaf values outside most facets of ``random_simple_type``.
OUT_OF_RANGE = ["999999999", "-999999999", "0", "", "  ", "zz", "1.5",
                "x" * 40]

_FLAT_LEAF_RE = re.compile(r"<(l\d)>([^<]*)</\1>")


def flat_content(rng, labels):
    """A finite content model using each label once: sequences, choices
    and optionals."""
    if len(labels) == 1:
        leaf = sym(labels[0])
        return opt(leaf) if rng.random() < 0.3 else leaf
    cut = rng.randint(1, len(labels) - 1)
    combine = seq if rng.random() < 0.6 else alt
    expression = combine(flat_content(rng, labels[:cut]),
                         flat_content(rng, labels[cut:]))
    return opt(expression) if rng.random() < 0.2 else expression


def flat_record_schema(rng, name, simple_types):
    """A root holding any number of flat records ``x<i>`` (each a
    ``flat_content`` over 2-5 leaves typed from ``simple_types``),
    directly or inside a ``w`` wrapper."""
    types = dict(simple_types)
    records = {}
    for index in range(rng.randint(2, 3)):
        labels = rng.sample(FLAT_LEAVES, rng.randint(2, 5))
        types[f"R{index}"] = ComplexType(
            f"R{index}", flat_content(rng, labels),
            {label: rng.choice(sorted(simple_types)) for label in labels},
        )
        records[f"x{index}"] = f"R{index}"
    either = alt(*(sym(label) for label in records))
    types["W"] = ComplexType("W", star(either), records)
    types["Root"] = ComplexType(
        "Root", star(alt(either, sym("w"))), {**records, "w": "W"}
    )
    return Schema(types, {"root": "Root"}, name=name)


def flat_record_pairs(rng, count):
    """``count`` flat-record pairs: the target keeps the source's shape
    with some leaf types redrawn, and now and then one more bound or
    facet perturbed."""
    for made in range(count):
        simple = {f"S{index}": random_simple_type(rng, f"S{index}")
                  for index in range(4)}
        source = flat_record_schema(rng, f"flat{made}", simple)
        target_types = dict(source.types)
        for type_name in simple:
            if rng.random() < 0.4:
                target_types[type_name] = random_simple_type(rng, type_name)
        target = Schema(target_types, dict(source.roots),
                        name=f"flat{made}-target")
        if rng.random() < 0.5:
            target = perturb_schema(rng, target)
        yield SchemaPair(source, target)


def flat_record_documents(rng, schema):
    """Two sampled valid documents, each followed by a copy with a leaf
    value out of range and a truncated or spliced copy."""
    for _ in range(2):
        document = sample_document(rng, schema, max_depth=5)
        if document is None:
            return
        text = serialize(document, indent=rng.choice(["", "  ", None]))
        yield text
        leaves = list(_FLAT_LEAF_RE.finditer(text))
        if leaves:
            leaf = rng.choice(leaves)
            yield (text[:leaf.start(2)] + rng.choice(OUT_OF_RANGE)
                   + text[leaf.end(2):])
        if rng.random() < 0.5:
            yield text[: rng.randrange(1, len(text) + 1)]
        else:
            cut = rng.randrange(len(text))
            yield text[:cut] + rng.choice(SPLICES) + text[cut:]


@pytest.fixture()
def records_taken(monkeypatch):
    """Counts the kernel's record-path matches that reach their value
    checks (:func:`repro.core.castkernel._texts`)."""
    taken = []
    texts = castkernel._texts

    def counting(match, checks):
        taken.append(match.lastindex)
        return texts(match, checks)

    monkeypatch.setattr(castkernel, "_texts", counting)
    return taken


def flat_tables(kernel) -> int:
    return sum(1 for record in kernel.records if record.flat is not None)


class TestFlatRecords:
    """Random schemas of flat records, the shape the kernel takes whole
    in one match (``PairKernel.flatten``), which ``random_schema``
    rarely yields."""

    @pytest.mark.parametrize("mode", MODES)
    def test_random_flat_record_casts(self, mode, records_taken):
        rng = random.Random(0xF1A7)
        tables = documents = 0
        for pair in flat_record_pairs(rng, 24):
            for schema in (pair.source, pair.target):
                for text in flat_record_documents(rng, schema):
                    assert_equivalent(pair, text, mode)
                    documents += 1
            tables += flat_tables(pair.kernel())
        # 245-254 documents, 21-32 tables and 71-163 records taken
        # over hash seeds 0-3, 7 and 11.
        assert documents >= 150
        assert tables >= 10  # record tables were built ...
        assert len(records_taken) >= 30  # ... and taken

    def test_random_flat_record_validation(self, records_taken):
        rng = random.Random(0xF1A8)
        tables = 0
        for pair in flat_record_pairs(rng, 24):
            for schema in (pair.source, pair.target):
                for text in flat_record_documents(rng, schema):
                    for validated in (pair.source, pair.target):
                        assert_validates_alike(validated, text)
            tables += flat_tables(pair.source.kernel())
            tables += flat_tables(pair.target.kernel())
        # 73-86 tables and 641-886 records taken, same seeds.
        assert tables >= 40
        assert len(records_taken) >= 300


class TestArtifactRoundTrip:
    def test_pickled_kernel_revalidates_identically(self):
        """A pair restored from a pickle (the artifact cache's
        transport) leaves its value-checker closures out and binds each
        simple record's again on load, its declaration's cached one; the
        kernel produces identical reports."""
        pair = SchemaPair(source_schema_experiment2(),
                          target_schema_experiment2())
        pair.warm()
        restored = pickle.loads(pickle.dumps(pair))
        text = serialize(make_purchase_order(5), indent="  ")
        for record in restored.kernel().records:
            if record.ready and record.kind == 2:
                assert record.check is value_checker(record.simple_decl)
        fresh = cast_text(pair, text)
        healed = cast_text(restored, text)
        assert (fresh.valid, fresh.reason, fresh.path) == (
            healed.valid, healed.reason, healed.path
        )
        assert fresh.stats == healed.stats


#: Counters outside the comparison: byte skims exist only in the
#: kernel, the memo only in the DOM cast, and seconds are not work.
UNCOUNTED = frozenset({
    "bytes_skipped", "memo_hits", "memo_misses", "memo_evictions",
    "parse_seconds", "validate_seconds",
})


def counters(stats):
    return {name: value for name, value in stats.as_dict().items()
            if name not in UNCOUNTED}


def counts_alike(pair, text):
    """Assert that on a document both engines accept, the DOM cast
    and the kernel (draining, not skimming) count the same work;
    returns whether the document was compared."""
    dom = CastValidator(pair).validate(parse(text, symbols=pair.symbols))
    kernel = cast_text(pair, text, stream_skip=False)
    if not (dom.valid and kernel.valid):
        return False
    assert counters(dom.stats) == counters(kernel.stats), (
        f"counters diverged\n  dom:    {counters(dom.stats)}\n"
        f"  kernel: {counters(kernel.stats)}\n  doc: {text[:300]!r}"
    )
    return True


class TestCounterOracle:
    """The DOM cast and the fused kernel share the kernel's tables, not
    walk code: the tree walk reads the same ``PairRecord``s, so these
    tests pin two walks over one set of tables to the same Table-3
    counters.  The kernel's independent oracle stays
    ``reference_cast``, and ``tests/core/test_tree_oracle.py`` checks
    the tree walk against a validator that reads no table."""

    def test_ia_reached_after_the_last_child(self):
        """After ``<a2/>`` the pair automaton of ``(a2|a3)`` against
        ``(a2|a4)`` is in an IA state, but the child sequence has ended:
        no early decision, in either engine."""
        pair = SchemaPair(
            parse_dtd("<!ELEMENT a1 (a2|a3)> <!ELEMENT a2 EMPTY>"
                      "<!ELEMENT a3 EMPTY> <!ELEMENT a4 EMPTY>",
                      roots=["a1"]),
            parse_dtd("<!ELEMENT a1 (a2|a4)> <!ELEMENT a2 EMPTY>"
                      "<!ELEMENT a3 EMPTY> <!ELEMENT a4 EMPTY>",
                      roots=["a1"]),
        )
        text = "<a1><a2/></a1>"
        assert counts_alike(pair, text)
        for report in (cast_text(pair, text, stream_skip=False),
                       reference_cast(pair, text)):
            assert report.valid
            assert report.stats.early_content_decisions == 0

    def test_purchase_orders(self):
        rng = random.Random(0xE8)
        compared = 0
        for pair in experiment_pairs():
            for text in po_corpus(rng):
                compared += counts_alike(pair, text)
        assert compared >= 9

    def test_random_pairs(self):
        rng = random.Random(0x5EED)
        compared = 0
        for pair in random_pairs(rng, 12):
            for schema in (pair.source, pair.target):
                for _ in range(60):
                    document = sample_document(rng, schema, max_depth=5)
                    if document is None:
                        break
                    text = serialize(
                        document, indent=rng.choice(["", "  ", None])
                    )
                    compared += counts_alike(pair, text)
        assert compared >= 300  # 480, under every hash seed


def validation_outcome(schema, text, *, limits=None, tree=False):
    """Everything observable about one plain validation: the type and
    error code of what it raised, or its verdict, reason, path and (on
    a valid document) counters."""
    try:
        if tree:
            report = validate_document(
                schema, parse(text, limits=limits), limits=limits
            )
        else:
            report = validate_text(schema, text, limits=limits)
    except ReproError as error:
        return ("raise", type(error).__name__, error_code(error))
    return ("report", report.valid, report.reason, report.path,
            report.stats if report.valid else None)


def assert_validates_alike(schema, text, *, limits=None):
    kernel = validation_outcome(schema, text, limits=limits)
    tree = validation_outcome(schema, text, limits=limits, tree=True)
    assert kernel == tree, (
        f"validate_text diverged from validate_document(parse())\n"
        f"  kernel: {kernel}\n  tree:   {tree}\n  doc: {text[:300]!r}"
    )


def validation_schemas():
    return [
        source_schema_experiment1(),
        target_schema_experiment1(),
        source_schema_experiment2(),
        target_schema_experiment2(),
        source_schema_zero_subsumption(),
        target_schema_zero_subsumption(),
    ]


#: Splices that keep a document well-formed (stray text, a foreign or
#: known element, an entity, a comment) or break it.
SPLICES = ["<", ">", "&", "]]>", "<!--", "\x00", "x", "&amp;", "<zz/>",
           "<zz>1</zz>", "<!-- - -->", "<!-- -- -->"]


class TestValidationMode:
    def test_purchase_orders(self):
        rng = random.Random(0xE8)
        texts = po_corpus(rng)
        for schema in validation_schemas():
            for text in texts:
                assert_validates_alike(schema, text)

    def test_random_schemas(self):
        rng = random.Random(0x7A11D)
        schemas_fuzzed = documents_fuzzed = 0
        while schemas_fuzzed < 16:
            try:
                schema = random_schema(rng, name=f"s{schemas_fuzzed}")
            except SchemaError:
                continue  # pruning left no productive root: resample
            schemas_fuzzed += 1
            palette = sorted(schema.alphabet) + ["zz"]
            for _ in range(3):
                document = sample_document(rng, schema)
                if document is None:
                    continue
                documents_fuzzed += 1
                indent = rng.choice(["", "  ", None])
                text = serialize(document, indent=indent)
                assert_validates_alike(schema, text)
                session = UpdateSession(document)
                random_edits(rng, session, rng.randint(1, 4),
                             labels=palette)
                assert_validates_alike(
                    schema,
                    serialize(session.result_document(), indent=indent),
                )
                assert_validates_alike(
                    schema, text[: rng.randrange(1, len(text) + 1)]
                )
                cut = rng.randrange(len(text))
                splice = rng.choice(SPLICES)
                for spliced in (text[:cut] + splice + text[cut:],
                                splice + text, text + splice):
                    assert_validates_alike(schema, spliced)
        assert documents_fuzzed >= 16  # the corpus really sampled docs

    @pytest.mark.parametrize("root", ["foreign", "permitted"])
    def test_adversarial_corpus(self, root):
        # Under a foreign root the kernel fails on the first tag, so
        # every guard and syntax error must come from its drain.
        schema = (
            target_schema_experiment2()
            if root == "foreign"
            else chain_pair().target
        )
        for text in adversarial_corpus():
            assert_validates_alike(schema, text, limits=ADVERSARIAL_LIMITS)


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
                        probes += _bound_probes(bound)
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

    def test_decimal_strings_at_bounds(self):
        """Bounded decimals compare a lexical value with each bound as
        integers; probe every bound with decimal strings at the bound
        and one last digit either side, in every lexical shape."""
        from fractions import Fraction

        from repro.schema.simple import builtin, restrict

        big = Fraction("1234567890123456789012345678901234567890.5")
        decls = [
            restrict(builtin("decimal"), "window",
                     min_inclusive=Fraction(1, 4),
                     max_exclusive=Fraction(3, 4)),
            restrict(builtin("decimal"), "third",
                     max_exclusive=Fraction(1, 3)),
            restrict(builtin("decimal"), "third-closed",
                     min_exclusive=Fraction(-1, 3),
                     max_inclusive=Fraction(1, 3)),
            restrict(builtin("decimal"), "half-to-five",
                     min_exclusive=Fraction(-1, 2),
                     max_inclusive=Fraction(5)),
            restrict(builtin("decimal"), "non-negative",
                     min_inclusive=Fraction(0)),
            restrict(builtin("decimal"), "big", max_inclusive=big,
                     min_exclusive=-big),
        ]
        rng = random.Random(0xDEC)
        for index in range(60):
            facets = {}
            low = Fraction(rng.randint(-2000, 2000),
                           rng.choice([1, 2, 3, 4, 7, 8, 10, 100, 1000]))
            high = low + Fraction(rng.randint(0, 3000),
                                  rng.choice([1, 3, 10, 100]))
            facets["min_exclusive" if rng.random() < 0.5
                   else "min_inclusive"] = low
            facets["max_exclusive" if rng.random() < 0.5
                   else "max_inclusive"] = high
            decls.append(restrict(builtin("decimal"), f"D{index}", **facets))
        shapes = ["+5", "-5", "5.", "-5.", ".5", "-.5", "+.5", "-0.0",
                  "-0", "+0.", "0.0", "5.000", "0005", str(big),
                  "-" + str(big), "1234567890123456789012345678901234567891",
                  "0.0000000000000000000000000000000000000001"]
        for decl in decls:
            check = compiled_checker(decl)
            interval = decl.interval()
            for bound in (interval.lower, interval.upper):
                if bound is None:
                    continue
                probes = _decimal_probes(bound)
                verdicts = set()
                for text in probes:
                    verdict = check(text)
                    verdicts.add(verdict)
                    assert verdict == decl.validate(text), (
                        f"checker diverged on {decl!r} for {text!r}"
                    )
                # The probes straddle the bound: a bound the probes all
                # fall on one side of would test nothing.
                assert verdicts == {True, False}, (decl, bound)
            for text in EDGE_TEXTS + shapes:
                assert check(text) == decl.validate(text), (
                    f"checker diverged on {decl!r} for {text!r}"
                )


def _bound_probes(bound) -> list[str]:
    """``bound`` and one last digit either side, written at the bound's
    own scale: the fewest fraction digits that write it exactly."""
    digits = next(d for d in range(20) if (bound * 10 ** d).denominator == 1)
    scaled = int(bound * 10 ** digits)
    return [_decimal_text(scaled + delta, digits) for delta in (-1, 0, 1)]


def _decimal_probes(bound) -> list[str]:
    """Decimal strings for ``bound`` cut to 0-6 fraction digits, and one
    last digit either side, signed and unsigned forms alike."""
    probes = []
    for digits in range(7):
        scaled = math.floor(bound * 10 ** digits)
        for delta in (-1, 0, 1):
            text = _decimal_text(scaled + delta, digits)
            probes.append(text)
            if not text.startswith("-"):
                probes.append("+" + text)
    return probes


def _decimal_text(numerator: int, digits: int) -> str:
    """``numerator / 10**digits`` written with ``digits`` fraction
    digits."""
    sign = "-" if numerator < 0 else ""
    body = str(abs(numerator)).rjust(digits + 1, "0")
    if not digits:
        return sign + body
    return f"{sign}{body[:-digits]}.{body[-digits:]}"
