"""Tests for simple types, facets, and their subsumption/disjointness."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.schema.simple import (
    AtomicKind,
    BUILTINS,
    Interval,
    SimpleType,
    builtin,
    restrict,
)


class TestValidation:
    def test_string_accepts_anything(self):
        assert builtin("string").validate("")
        assert builtin("string").validate("hello <world>")

    def test_boolean_lexicals(self):
        boolean = builtin("boolean")
        for good in ("true", "false", "1", "0", " true "):
            assert boolean.validate(good), good
        for bad in ("TRUE", "yes", "2", ""):
            assert not boolean.validate(bad), bad

    def test_integer_lexicals(self):
        integer = builtin("integer")
        for good in ("0", "-17", "+42", "007", "  5  "):
            assert integer.validate(good), good
        for bad in ("", "1.5", "1e3", "abc", "--1", "1 2"):
            assert not integer.validate(bad), bad

    def test_decimal_lexicals(self):
        decimal = builtin("decimal")
        for good in ("1.5", "-0.001", ".5", "5.", "42"):
            assert decimal.validate(good), good
        for bad in ("1.5e3", "", ".", "1,5"):
            assert not decimal.validate(bad), bad

    def test_date_lexicals(self):
        date = builtin("date")
        assert date.validate("2004-05-20")
        assert not date.validate("2004-13-01")
        assert not date.validate("2004-02-30")
        assert not date.validate("20040520")

    def test_positive_integer_bound(self):
        positive = builtin("positiveInteger")
        assert positive.validate("1")
        assert not positive.validate("0")
        assert not positive.validate("-3")

    def test_derived_integer_ranges(self):
        byte = builtin("byte")
        assert byte.validate("127")
        assert not byte.validate("128")
        assert builtin("unsignedByte").validate("255")
        assert not builtin("unsignedByte").validate("256")

    def test_max_exclusive_facet(self):
        quantity = restrict(
            builtin("positiveInteger"), "quantity", max_exclusive=100
        )
        assert quantity.validate("99")
        assert not quantity.validate("100")
        assert not quantity.validate("0")

    def test_enumeration_facet(self):
        color = restrict(
            builtin("string"), "color", enumeration=frozenset({"red", "blue"})
        )
        assert color.validate("red")
        assert not color.validate("green")

    def test_length_facets(self):
        code = restrict(builtin("string"), "code", min_length=2, max_length=4)
        assert code.validate("ab")
        assert code.validate("abcd")
        assert not code.validate("a")
        assert not code.validate("abcde")

    def test_builtin_accepts_bare_and_prefixed(self):
        assert builtin("xsd:integer") is builtin("integer")

    def test_unknown_builtin(self):
        with pytest.raises(SchemaError):
            builtin("complexNumber")


class TestFacetValidation:
    def test_bounds_require_ordered_kind(self):
        with pytest.raises(SchemaError, match="ordered"):
            SimpleType("bad", AtomicKind.STRING, min_inclusive=Fraction(1))

    def test_length_requires_string(self):
        with pytest.raises(SchemaError, match="length"):
            SimpleType("bad", AtomicKind.INTEGER, max_length=3)

    def test_restrict_cannot_loosen(self):
        quantity = restrict(
            builtin("positiveInteger"), "q", max_exclusive=100
        )
        with pytest.raises(SchemaError, match="loosens"):
            restrict(quantity, "wider", max_exclusive=200)

    def test_restrict_chains_tighter(self):
        narrow = restrict(
            restrict(builtin("integer"), "a", min_inclusive=0),
            "b",
            min_inclusive=10,
        )
        assert narrow.validate("10")
        assert not narrow.validate("9")

    def test_restrict_merges_enumerations(self):
        base = restrict(
            builtin("string"), "abc", enumeration=frozenset({"a", "b", "c"})
        )
        derived = restrict(base, "ab", enumeration=frozenset({"a", "b", "z"}))
        assert derived.enumeration == {"a", "b"}


class TestSubsumption:
    def test_reflexive(self):
        for name in ("string", "integer", "decimal", "date", "boolean"):
            declaration = builtin(name)
            assert declaration.is_subsumed_by(declaration)

    def test_integer_under_decimal_and_string(self):
        assert builtin("integer").is_subsumed_by(builtin("decimal"))
        assert builtin("integer").is_subsumed_by(builtin("string"))
        assert not builtin("decimal").is_subsumed_by(builtin("integer"))
        assert not builtin("string").is_subsumed_by(builtin("integer"))

    def test_range_implication(self):
        narrow = restrict(builtin("integer"), "n", min_inclusive=0,
                          max_inclusive=50)
        wide = restrict(builtin("integer"), "w", min_inclusive=-10,
                        max_inclusive=100)
        assert narrow.is_subsumed_by(wide)
        assert not wide.is_subsumed_by(narrow)

    def test_paper_experiment2_direction(self):
        q200 = restrict(builtin("positiveInteger"), "q200",
                        max_exclusive=200)
        q100 = restrict(builtin("positiveInteger"), "q100",
                        max_exclusive=100)
        assert q100.is_subsumed_by(q200)
        assert not q200.is_subsumed_by(q100)
        assert not q200.is_disjoint_from(q100)

    def test_exclusive_vs_inclusive_boundaries(self):
        lt100 = restrict(builtin("integer"), "lt", max_exclusive=100)
        le100 = restrict(builtin("integer"), "le", max_inclusive=100)
        le99 = restrict(builtin("integer"), "le99", max_inclusive=99)
        assert lt100.is_subsumed_by(le100)
        assert le99.is_subsumed_by(lt100)
        assert not le100.is_subsumed_by(lt100)

    def test_enumeration_member_check(self):
        color = restrict(builtin("string"), "color",
                         enumeration=frozenset({"red", "blue"}))
        assert color.is_subsumed_by(builtin("string"))
        digits = restrict(builtin("string"), "digits",
                          enumeration=frozenset({"1", "2"}))
        assert digits.is_subsumed_by(builtin("integer"))
        assert not color.is_subsumed_by(builtin("integer"))

    def test_infinite_not_under_enumeration(self):
        color = restrict(builtin("string"), "color",
                         enumeration=frozenset({"red"}))
        assert not builtin("string").is_subsumed_by(color)

    def test_string_with_length_not_superset(self):
        short = restrict(builtin("string"), "short", max_length=2)
        assert not builtin("integer").is_subsumed_by(short)

    def test_length_implication(self):
        tight = restrict(builtin("string"), "t", min_length=2, max_length=3)
        loose = restrict(builtin("string"), "l", min_length=1, max_length=5)
        assert tight.is_subsumed_by(loose)
        assert not loose.is_subsumed_by(tight)


class TestDisjointness:
    def test_non_overlapping_integer_ranges(self):
        low = restrict(builtin("integer"), "low", max_inclusive=5)
        high = restrict(builtin("integer"), "high", min_inclusive=10)
        assert low.is_disjoint_from(high)
        assert high.is_disjoint_from(low)

    def test_touching_ranges_not_disjoint(self):
        low = restrict(builtin("integer"), "low", max_inclusive=5)
        high = restrict(builtin("integer"), "high", min_inclusive=5)
        assert not low.is_disjoint_from(high)

    def test_open_boundary_gap_for_integers(self):
        # x<6 means integers ≤5; x>5 means integers ≥6: the shared window
        # (5,6) contains no integer, so the types are disjoint.
        left = restrict(builtin("integer"), "l", max_exclusive=6)
        right = restrict(builtin("integer"), "r", min_exclusive=5)
        assert left.is_disjoint_from(right)

    def test_integer_decimal_open_window(self):
        # Integers in (0,1): none; decimals: plenty.
        int_win = SimpleType("iw", AtomicKind.INTEGER,
                             min_exclusive=Fraction(0),
                             max_exclusive=Fraction(1))
        dec_win = SimpleType("dw", AtomicKind.DECIMAL,
                             min_exclusive=Fraction(0),
                             max_exclusive=Fraction(1))
        assert int_win.is_disjoint_from(dec_win)
        assert not dec_win.is_disjoint_from(builtin("decimal"))

    def test_date_vs_numeric_disjoint(self):
        assert builtin("date").is_disjoint_from(builtin("integer"))
        assert builtin("integer").is_disjoint_from(builtin("date"))

    def test_boolean_vs_integer_overlap_on_01(self):
        assert not builtin("boolean").is_disjoint_from(builtin("integer"))
        positive_from2 = restrict(builtin("integer"), "ge2", min_inclusive=2)
        assert builtin("boolean").is_disjoint_from(positive_from2)

    def test_string_never_disjoint_from_numeric(self):
        assert not builtin("string").is_disjoint_from(builtin("integer"))
        assert not builtin("date").is_disjoint_from(builtin("string"))

    def test_enumeration_disjointness(self):
        color = restrict(builtin("string"), "c",
                         enumeration=frozenset({"red", "blue"}))
        size = restrict(builtin("string"), "s",
                        enumeration=frozenset({"small", "large"}))
        overlap = restrict(builtin("string"), "o",
                           enumeration=frozenset({"red", "small"}))
        assert color.is_disjoint_from(size)
        assert not color.is_disjoint_from(overlap)

    def test_length_disjointness(self):
        short = restrict(builtin("string"), "short", max_length=2)
        long_ = restrict(builtin("string"), "long", min_length=5)
        assert short.is_disjoint_from(long_)


class TestSoundnessProperties:
    """Subsumption/disjointness claims must agree with validate()."""

    types = [
        builtin("string"),
        builtin("integer"),
        builtin("decimal"),
        builtin("boolean"),
        builtin("date"),
        builtin("positiveInteger"),
        restrict(builtin("positiveInteger"), "q100", max_exclusive=100),
        restrict(builtin("positiveInteger"), "q200", max_exclusive=200),
        restrict(builtin("integer"), "neg", max_inclusive=-1),
        restrict(builtin("string"), "enum",
                 enumeration=frozenset({"1", "red", "2004-01-01"})),
        restrict(builtin("string"), "len", min_length=1, max_length=3),
    ]

    samples = [
        "", "0", "1", "-1", "99", "100", "150", "200", "1.5", "-0.25",
        "true", "false", "red", "2004-01-01", "hello world", "abc", "abcd",
    ]

    def test_subsumption_sound_on_samples(self):
        for narrow in self.types:
            for wide in self.types:
                if narrow.is_subsumed_by(wide):
                    for text in self.samples:
                        if narrow.validate(text):
                            assert wide.validate(text), (
                                narrow.name, wide.name, text,
                            )

    def test_disjointness_sound_on_samples(self):
        for left in self.types:
            for right in self.types:
                if left.is_disjoint_from(right):
                    for text in self.samples:
                        assert not (
                            left.validate(text) and right.validate(text)
                        ), (left.name, right.name, text)

    @given(st.integers(min_value=-300, max_value=300))
    def test_interval_membership_matches_validate(self, value):
        q = restrict(builtin("positiveInteger"), "q", max_exclusive=100)
        assert q.validate(str(value)) == (1 <= value < 100)


class TestInterval:
    def test_contains_with_open_bounds(self):
        interval = Interval(lower=Fraction(0), lower_open=True,
                            upper=Fraction(10), upper_open=False)
        assert not interval.contains(Fraction(0))
        assert interval.contains(Fraction(10))

    def test_contains_interval(self):
        outer = Interval(lower=Fraction(0), upper=Fraction(10))
        inner = Interval(lower=Fraction(2), upper=Fraction(8))
        assert outer.contains_interval(inner)
        assert not inner.contains_interval(outer)

    def test_unbounded_contains_bounded(self):
        assert Interval().contains_interval(Interval(lower=Fraction(5)))
        assert not Interval(lower=Fraction(0)).contains_interval(Interval())

    def test_intersects_integral_window(self):
        a = Interval(lower=Fraction(0), lower_open=True,
                     upper=Fraction(1), upper_open=True)
        b = Interval()
        assert not a.intersects(b, integral=True)
        assert a.intersects(b, integral=False)

    @pytest.mark.parametrize("name", ["decimal", "integer"])
    def test_missing_bounds_carry_no_open_flag(self, name):
        interval = builtin(name).interval()
        assert (interval.lower, interval.lower_open) == (None, False)
        assert (interval.upper, interval.upper_open) == (None, False)

    def test_one_sided_exclusive_bound(self):
        interval = restrict(
            builtin("decimal"), "below", max_exclusive=Fraction(7, 2)
        ).interval()
        assert (interval.lower, interval.lower_open) == (None, False)
        assert (interval.upper, interval.upper_open) == (Fraction(7, 2),
                                                         True)


class TestEmptyValueSpaces:
    def test_empty_integer_window(self):
        empty = restrict(builtin("positiveInteger"), "e", max_exclusive=1)
        assert empty.is_empty()
        inhabited = restrict(builtin("positiveInteger"), "i",
                             max_exclusive=2)
        assert not inhabited.is_empty()

    def test_empty_string_lengths(self):
        from repro.schema.simple import AtomicKind, SimpleType

        empty = SimpleType("e", AtomicKind.STRING, min_length=5,
                           max_length=3)
        assert empty.is_empty()
        assert not builtin("string").is_empty()

    def test_empty_enumeration_after_facets(self):
        # Members that all violate the base's bounds.
        from fractions import Fraction
        from repro.schema.simple import AtomicKind, SimpleType

        empty = SimpleType(
            "e", AtomicKind.INTEGER,
            min_inclusive=Fraction(100),
            enumeration=frozenset({"1", "2"}),
        )
        assert empty.is_empty()

    def test_unbounded_types_never_empty(self):
        for name in ("string", "integer", "decimal", "date", "boolean"):
            assert not builtin(name).is_empty()

    def test_empty_simple_type_is_nonproductive(self):
        from repro.schema.model import Schema, complex_type
        from repro.schema.productive import productive_types

        schema = Schema(
            {
                "T": complex_type("T", "(v)", {"v": "Empty"}),
                "Empty": restrict(builtin("positiveInteger"), "Empty",
                                  max_exclusive=1),
            },
            {"t": "T"},
        )
        assert productive_types(schema) == frozenset()
