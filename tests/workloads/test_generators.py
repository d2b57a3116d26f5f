"""Tests for random schema/document generation."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.validator import validate_document, validate_element
from repro.remodel.derivative import matches
from repro.schema.model import ComplexType, Schema, complex_type
from repro.schema.productive import is_fully_productive
from repro.schema.simple import AtomicKind, builtin, restrict
from repro.workloads.generators import (
    TreeSampler,
    random_regex,
    random_schema,
    random_simple_type,
    random_text_for,
    random_word,
    sample_document,
    sample_valid_tree,
)


class TestRandomRegex:
    def test_symbols_come_from_palette(self):
        rng = random.Random(1)
        for _ in range(20):
            expr = random_regex(rng, ["x", "y"])
            assert expr.symbols() <= {"x", "y"}

    def test_empty_palette_gives_epsilon(self):
        assert random_regex(random.Random(1), []).nullable()

    def test_deterministic_under_seed(self):
        first = random_regex(random.Random(5), ["a", "b"])
        second = random_regex(random.Random(5), ["a", "b"])
        assert first == second


class TestRandomSimpleType:
    def test_generated_types_validate_their_own_samples(self):
        rng = random.Random(3)
        for i in range(40):
            declaration = random_simple_type(rng, f"T{i}")
            for _ in range(5):
                text = random_text_for(rng, declaration)
                assert declaration.validate(text), (declaration, text)


    def test_every_sampled_value_conforms(self):
        rng = random.Random(0xDEC1)
        for i in range(1500):
            declaration = random_simple_type(rng, f"T{i}")
            for _ in range(10):
                text = random_text_for(rng, declaration)
                assert declaration.validate(text), (declaration, text)

    def test_palette_draws_bounded_decimals(self):
        rng = random.Random(0xB0)
        bounds = []
        for i in range(400):
            declaration = random_simple_type(rng, f"T{i}")
            if declaration.kind is AtomicKind.DECIMAL:
                interval = declaration.interval()
                bounds += [
                    (bound, is_open)
                    for bound, is_open in (
                        (interval.lower, interval.lower_open),
                        (interval.upper, interval.upper_open),
                    )
                    if bound is not None
                ]
        assert any(is_open for _, is_open in bounds)
        assert any(not is_open for _, is_open in bounds)
        assert any(bound < 0 for bound, _ in bounds)
        assert any(bound.denominator > 1 for bound, _ in bounds)

    @pytest.mark.parametrize("facets", [
        {"min_inclusive": Fraction(0), "max_inclusive": Fraction(10)},
        {"min_inclusive": Fraction(-3), "max_inclusive": Fraction(2)},
        {"min_exclusive": Fraction(-3), "max_exclusive": Fraction(2)},
        {"min_exclusive": Fraction(1, 100),
         "max_exclusive": Fraction(2, 100)},
        {"max_exclusive": Fraction(-7, 4)},
    ], ids=["closed", "negative", "open", "narrow", "upper-only"])
    def test_fractional_samples_stay_in_the_window(self, facets):
        declaration = restrict(builtin("decimal"), "W", **facets)
        rng = random.Random(0)
        for _ in range(2000):
            text = random_text_for(rng, declaration)
            assert declaration.validate(text), text


class TestRandomWord:
    def test_words_are_members(self):
        from repro.remodel.glushkov import compile_dfa
        from repro.remodel.parser import parse_content_model

        rng = random.Random(11)
        for source in ("(a,(b|c)*,d?)", "(a|b)+", "a{2,5}", "(a?,b?,c?)"):
            expr = parse_content_model(source)
            dfa = compile_dfa(expr, frozenset("abcd"))
            for _ in range(20):
                word = random_word(rng, dfa)
                assert word is not None
                assert matches(expr, word), (source, word)

    def test_empty_language_returns_none(self):
        from repro.automata.dfa import DFA

        assert random_word(random.Random(1), DFA.empty_language({"a"})) is None

    def test_allowed_restriction(self):
        from repro.remodel.glushkov import compile_dfa
        from repro.remodel.parser import parse_content_model

        dfa = compile_dfa(parse_content_model("(a|b)*"), frozenset("ab"))
        rng = random.Random(2)
        for _ in range(10):
            word = random_word(rng, dfa, allowed=frozenset({"a"}))
            assert word is not None
            assert set(word) <= {"a"}

    def test_max_length_soft_bound_terminates(self):
        from repro.remodel.glushkov import compile_dfa
        from repro.remodel.parser import parse_content_model

        dfa = compile_dfa(parse_content_model("a+"), frozenset("a"))
        word = random_word(random.Random(1), dfa, max_length=3)
        assert word is not None


class TestRandomSchema:
    def test_always_productive(self):
        rng = random.Random(21)
        produced = 0
        for _ in range(15):
            try:
                schema = random_schema(rng)
            except Exception:
                continue
            assert is_fully_productive(schema)
            produced += 1
        assert produced >= 10

    def test_reproducible_under_seed(self):
        one = random_schema(random.Random(9))
        two = random_schema(random.Random(9))
        assert set(one.types) == set(two.types)
        assert one.roots == two.roots


class TestTreeSampling:
    def test_sampled_trees_validate(self):
        rng = random.Random(31)
        for _ in range(10):
            try:
                schema = random_schema(rng)
            except Exception:
                continue
            doc = sample_document(rng, schema, max_depth=6)
            if doc is None:
                continue
            assert validate_document(schema, doc).valid

    def test_feasibility_respects_depth(self):
        # A chain A→B→C (simple) needs 4 levels: a, b, c, text.
        schema = Schema(
            {
                "A": complex_type("A", "(b)", {"b": "B"}),
                "B": complex_type("B", "(c)", {"c": "C"}),
                "C": builtin("string"),
            },
            {"a": "A"},
        )
        sampler = TreeSampler(schema, max_depth=8)
        assert not sampler.feasible("A", 3)
        assert sampler.feasible("A", 4)
        assert sampler.feasible("C", 2)
        assert not sampler.feasible("C", 1)

    def test_sample_raises_when_infeasible(self):
        schema = Schema(
            {
                "A": complex_type("A", "(b)", {"b": "B"}),
                "B": builtin("string"),
            },
            {"a": "A"},
        )
        from repro.errors import SchemaError

        with pytest.raises(SchemaError, match="cannot produce"):
            sample_valid_tree(
                random.Random(1), schema, "A", "a", max_depth=2
            )

    def test_recursive_schema_bounded_sampling(self):
        schema = Schema(
            {"N": complex_type("N", "(n?)", {"n": "N"})},
            {"n": "N"},
        )
        rng = random.Random(4)
        for _ in range(10):
            tree = sample_valid_tree(rng, schema, "N", "n", max_depth=5)
            assert validate_element(schema, "N", tree).valid
            # Depth bounded by the budget.
            deepest = max(
                node.depth() for node in tree.iter_nodes()
            )
            assert deepest <= 5


#: Draws the corpus of ``TestCounterOracle.test_random_pairs`` (random
#: pairs, then documents sampled from each schema) and edits the first
#: document of each schema, printing every schema, document and edited
#: result.
_CORPUS_SCRIPT = """
import random
from repro.core.updates import UpdateSession
from repro.workloads.generators import sample_document
from repro.workloads.mutations import random_edits
from repro.xmltree.serializer import serialize
from tests.core.test_kernel_equivalence import random_pairs

rng = random.Random(0x5EED)
for pair in random_pairs(rng, 12):
    for schema in (pair.source, pair.target):
        print(sorted((name, repr(t)) for name, t in schema.types.items()))
        print(sorted(schema.roots.items()))
        for index in range(60):
            document = sample_document(rng, schema, max_depth=5)
            if document is None:
                break
            print(serialize(document))
            if index == 0:
                session = UpdateSession(document)
                random_edits(rng, session, 4,
                             labels=sorted(pair.source.alphabet))
                print(serialize(session.result_document()))
"""


def _corpus_under_hash_seed(hash_seed: str) -> list[str]:
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    result = subprocess.run(
        [sys.executable, "-c", _CORPUS_SCRIPT], env=env, cwd=root,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return result.stdout.splitlines()


class TestHashSeedIndependence:
    """A seed names one corpus in every process: no draw may depend on
    the iteration order of a set, which moves with ``PYTHONHASHSEED``."""

    def test_corpus_equal_under_two_hash_seeds(self):
        first = _corpus_under_hash_seed("0")
        second = _corpus_under_hash_seed("21")
        assert len(first) > 300
        for number, (one, other) in enumerate(zip(first, second)):
            assert one == other, f"line {number} differs"
        assert len(first) == len(second)
