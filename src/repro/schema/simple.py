"""Simple (atomic) types with restriction facets.

The paper merges all simple types into one ``simple`` type "for
exposition" and notes that handling the real XML Schema atomic types,
facet restrictions and their relationships "is a straightforward
extension" used to *bootstrap* the subsumption and disjointness
relations.  This module is that extension — it is what makes the paper's
**Experiment 2** (changing ``maxExclusive`` on ``quantity`` from 200 to
100) expressible:

* :class:`SimpleType` — an atomic kind plus facets (bounds, enumeration,
  length), with lexical validation of text values;
* :meth:`SimpleType.is_subsumed_by` — every text valid under ``self`` is
  valid under ``other`` (bootstraps ``R_sub``);
* :meth:`SimpleType.is_disjoint_from` — no text is valid under both
  (bootstraps ``R_nondis``'s complement).

Subsumption/disjointness here are *lexical*: they compare the sets of
accepted text strings, which is the semantics revalidation needs.  Both
are exact for same-kind comparisons over the implemented facets and
conservative (never unsound) across kinds.
"""

from __future__ import annotations

import datetime
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

from repro.errors import SchemaError


class AtomicKind(Enum):
    """Primitive value spaces supported by the reproduction."""

    STRING = "string"
    BOOLEAN = "boolean"
    DECIMAL = "decimal"
    INTEGER = "integer"
    DATE = "date"


_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
_DECIMAL_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)\Z")
_DATE_RE = re.compile(r"(-?[0-9]{4,})-([0-9]{2})-([0-9]{2})\Z")
_BOOLEAN_LEXICALS = frozenset(("true", "false", "1", "0"))

#: Kinds whose lexical space is totally ordered and facet-boundable.
_ORDERED_KINDS = frozenset(
    (AtomicKind.DECIMAL, AtomicKind.INTEGER, AtomicKind.DATE)
)


@dataclass(frozen=True)
class SimpleType:
    """An atomic type with optional restriction facets.

    Bounds apply to ordered kinds only; length facets to strings;
    enumerations to any kind (members stored in lexical form).
    """

    name: str
    kind: AtomicKind
    min_inclusive: Optional[Fraction | datetime.date] = None
    max_inclusive: Optional[Fraction | datetime.date] = None
    min_exclusive: Optional[Fraction | datetime.date] = None
    max_exclusive: Optional[Fraction | datetime.date] = None
    min_length: Optional[int] = None
    max_length: Optional[int] = None
    enumeration: Optional[frozenset[str]] = None

    #: This declaration's :func:`compiled_checker`, once
    #: :func:`value_checker` has built it.  Not a field (equality and
    #: hashing ignore it), and :meth:`__getstate__` keeps the closure
    #: out of pickles.
    _check = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_check", None)
        return state

    def __post_init__(self) -> None:
        has_bounds = any(
            facet is not None
            for facet in (
                self.min_inclusive,
                self.max_inclusive,
                self.min_exclusive,
                self.max_exclusive,
            )
        )
        if has_bounds and self.kind not in _ORDERED_KINDS:
            raise SchemaError(
                f"type {self.name!r}: bound facets need an ordered kind, "
                f"not {self.kind.value}"
            )
        if (
            self.min_length is not None or self.max_length is not None
        ) and self.kind is not AtomicKind.STRING:
            raise SchemaError(
                f"type {self.name!r}: length facets apply to strings only"
            )

    # -- value parsing and validation -------------------------------------

    def parse_value(self, text: str):
        """The typed value of ``text``, or None if lexically invalid.

        Whitespace is collapsed (stripped) for non-string kinds, per the
        XSD ``collapse`` whitespace facet on the numeric/date types.
        """
        if self.kind is AtomicKind.STRING:
            return text
        lexical = text.strip()
        if self.kind is AtomicKind.BOOLEAN:
            return lexical if lexical in _BOOLEAN_LEXICALS else None
        if self.kind is AtomicKind.INTEGER:
            if not _INTEGER_RE.match(lexical):
                return None
            return Fraction(int(lexical))
        if self.kind is AtomicKind.DECIMAL:
            if not _DECIMAL_RE.match(lexical):
                return None
            return Fraction(lexical if lexical[-1] != "." else lexical[:-1])
        if self.kind is AtomicKind.DATE:
            match = _DATE_RE.match(lexical)
            if not match:
                return None
            year, month, day = (int(part) for part in match.groups())
            try:
                return datetime.date(year, month, day)
            except ValueError:
                return None
        raise AssertionError(f"unhandled kind {self.kind}")

    def validate(self, text: str) -> bool:
        """Does ``text`` conform to this type (lexical form + facets)?"""
        value = self.parse_value(text)
        if value is None:
            return False
        interval = self.interval()
        if interval is not None and not interval.contains(value):
            return False
        if self.kind is AtomicKind.STRING:
            if self.min_length is not None and len(text) < self.min_length:
                return False
            if self.max_length is not None and len(text) > self.max_length:
                return False
        if self.enumeration is not None:
            lexical = text if self.kind is AtomicKind.STRING else text.strip()
            return lexical in self.enumeration
        return True

    # -- facet algebra ------------------------------------------------------

    def interval(self) -> Optional["Interval"]:
        """The bound facets as an interval, for ordered kinds."""
        if self.kind not in _ORDERED_KINDS:
            return None
        # A type may carry both an inclusive and an exclusive bound on
        # the same side (via chained restrictions); the tighter one wins.
        lower, lower_open = _max_bound(
            (self.min_inclusive, False), (self.min_exclusive, True)
        )
        upper, upper_open = _min_bound(
            (self.max_inclusive, False), (self.max_exclusive, True)
        )
        return Interval(
            lower=lower,
            lower_open=lower_open,
            upper=upper,
            upper_open=upper_open,
            integral=self.kind is AtomicKind.INTEGER,
        )

    def is_empty(self) -> bool:
        """Is the accepted lexical space empty?

        The paper's merged ``simple`` type is always inhabited, but a
        faceted type may not be (``positiveInteger`` with
        ``maxExclusive=1``); such a type is *non-productive* — no valid
        tree uses it — which the productivity analysis must know.
        """
        if self.enumeration is not None:
            return not any(self.validate(m) for m in self.enumeration)
        if self.kind is AtomicKind.STRING:
            return (
                self.max_length is not None
                and (self.min_length or 0) > self.max_length
            )
        interval = self.interval()
        if interval is None:
            return False
        lower, upper = interval.lower, interval.upper
        if lower is None or upper is None:
            return False
        if self.kind is AtomicKind.INTEGER:
            return not _contains_integer(
                lower, interval.lower_open, upper, interval.upper_open
            )
        if lower < upper:
            return False
        return lower > upper or interval.lower_open or interval.upper_open

    def is_subsumed_by(self, other: "SimpleType") -> bool:
        """Is every accepted text of ``self`` accepted by ``other``?

        Exact for same-kind pairs; across kinds it follows the lexical
        hierarchy (integer ⊆ decimal ⊆ string, boolean/date ⊆ string)
        and is otherwise conservatively False.
        """
        if isinstance(other, IntersectionType):
            # self ⊆ ∩members  ⟺  self ⊆ every member.
            return all(self.is_subsumed_by(m) for m in other.members)
        if self.enumeration is not None:
            # Finite lexical space: check member by member (exact).
            return all(other.validate(member) for member in self.enumeration)
        if other.enumeration is not None:
            return False  # self is infinite (no enum), other finite.
        if self.kind == other.kind:
            mine, theirs = self.interval(), other.interval()
            if mine is not None and theirs is not None:
                if not theirs.contains_interval(mine):
                    return False
            if self.kind is AtomicKind.STRING:
                return _length_implies(self, other)
            return True
        if other.kind is AtomicKind.STRING:
            # Any lexical form is a string; only unfaceted string targets
            # are a safe superset.
            return (
                other.min_length in (None, 0)
                and other.max_length is None
            )
        if (
            self.kind is AtomicKind.INTEGER
            and other.kind is AtomicKind.DECIMAL
        ):
            mine, theirs = self.interval(), other.interval()
            assert mine is not None and theirs is not None
            return theirs.contains_interval(mine)
        return False

    def is_disjoint_from(self, other: "SimpleType") -> bool:
        """Is no text accepted by both?  Sound (never claims disjointness
        wrongly); exact for ordered same-kind pairs and enumerations."""
        if isinstance(other, IntersectionType):
            # Disjoint from ∩members whenever disjoint from any member.
            return any(self.is_disjoint_from(m) for m in other.members)
        if self.enumeration is not None:
            return not any(other.validate(m) for m in self.enumeration)
        if other.enumeration is not None:
            return not any(self.validate(m) for m in other.enumeration)
        kinds = {self.kind, other.kind}
        if self.kind == other.kind:
            mine, theirs = self.interval(), other.interval()
            if mine is not None and theirs is not None:
                return not mine.intersects(theirs)
            if self.kind is AtomicKind.STRING:
                return _length_disjoint(self, other)
            return False
        if AtomicKind.STRING in kinds:
            # Strings overlap every other lexical space (up to length
            # facets, which we treat conservatively).
            return False
        if kinds == {AtomicKind.INTEGER, AtomicKind.DECIMAL}:
            mine, theirs = self.interval(), other.interval()
            assert mine is not None and theirs is not None
            return not mine.intersects(
                theirs, integral=True
            )
        if kinds == {AtomicKind.BOOLEAN, AtomicKind.INTEGER} or kinds == {
            AtomicKind.BOOLEAN,
            AtomicKind.DECIMAL,
        }:
            # "0" and "1" are lexically valid for both; check whether the
            # numeric side admits 0 or 1.
            numeric = self if self.kind is not AtomicKind.BOOLEAN else other
            interval = numeric.interval()
            assert interval is not None
            return not (
                interval.contains(Fraction(0)) or interval.contains(Fraction(1))
            )
        # date vs numeric/boolean: lexical spaces never overlap.
        return True

    def __repr__(self) -> str:
        return f"SimpleType({self.name!r}, {self.kind.value})"


@dataclass(frozen=True)
class IntersectionType(SimpleType):
    """The conjunction of several simple types — accepts exactly the
    texts every member accepts.

    Chain composition (:mod:`repro.schema.chain`) needs the value space
    ``valid(τ₂) ∩ valid(τ₃) ∩ …`` for a tuple type of the product
    schema; most such intersections are representable as one faceted
    :class:`SimpleType` (same-kind facet merge), but cross-kind combos
    (a length-faceted string ∧ an integer) are not.  This subclass keeps
    those exact rather than approximating: validation is the member
    conjunction, and the relation bootstraps stay sound via the
    member-wise rules in :meth:`SimpleType.is_subsumed_by` /
    :meth:`is_disjoint_from`.

    The inherited facet fields stay at their defaults (kind ``STRING``,
    no facets); only ``members`` carries semantics.
    """

    members: tuple[SimpleType, ...] = ()

    def validate(self, text: str) -> bool:
        return all(member.validate(text) for member in self.members)

    def is_empty(self) -> bool:
        # Exact emptiness of a conjunction is undecidable cheaply; any
        # empty member suffices, otherwise assume inhabited (sound for
        # every consumer here — False only forgoes a prune).
        return any(member.is_empty() for member in self.members)

    def is_subsumed_by(self, other: SimpleType) -> bool:
        if isinstance(other, IntersectionType):
            return all(self.is_subsumed_by(m) for m in other.members)
        # ∩members ⊆ other whenever any single member already is.
        return any(m.is_subsumed_by(other) for m in self.members)

    def is_disjoint_from(self, other: SimpleType) -> bool:
        if isinstance(other, IntersectionType):
            return any(self.is_disjoint_from(m) for m in other.members)
        return any(m.is_disjoint_from(other) for m in self.members)

    def __repr__(self) -> str:
        inner = " ∧ ".join(m.name for m in self.members)
        return f"IntersectionType({self.name!r}, {inner})"


def intersect_simple(
    a: SimpleType, b: SimpleType, *, name: str
) -> SimpleType:
    """A simple type accepting exactly ``valid(a) ∩ valid(b)``.

    Prefers a plain declaration when one side already subsumes the
    other; otherwise builds a flattened :class:`IntersectionType`.
    """
    if a.is_subsumed_by(b):
        return a if a.name == name else _renamed(a, name)
    if b.is_subsumed_by(a):
        return b if b.name == name else _renamed(b, name)
    members: list[SimpleType] = []
    for part in (a, b):
        if isinstance(part, IntersectionType):
            members.extend(part.members)
        else:
            members.append(part)
    return IntersectionType(name=name, kind=AtomicKind.STRING,
                            members=tuple(members))


def _renamed(decl: SimpleType, name: str) -> SimpleType:
    if isinstance(decl, IntersectionType):
        return IntersectionType(
            name=name, kind=AtomicKind.STRING, members=decl.members
        )
    from dataclasses import replace

    return replace(decl, name=name)


#: A simple type accepting nothing at all.  Chain composition uses it
#: for uninhabited corners of the product schema (the empty enumeration
#: makes every text fail, on any kind).
BOTTOM = SimpleType(
    name="⊥", kind=AtomicKind.STRING, enumeration=frozenset()
)


def compiled_checker(decl: SimpleType):
    """A specialized closure computing exactly ``decl.validate``.

    The generic :meth:`SimpleType.validate` re-dispatches on the atomic
    kind, rebuilds the facet :class:`Interval` and compares through
    :class:`~fractions.Fraction` arithmetic on every call.  All of that
    depends only on the declaration, so hot loops (the fused kernel and
    the DOM walks, through :func:`value_checker`) bind it once here:
    the kind dispatch happens at build time, integer bounds collapse to
    two int compares, and decimal bounds to integer cross-products, so
    no ``Fraction`` is built per value.  Equivalence with ``validate``
    on every text is asserted by the kernel equivalence fuzzer.
    """
    if isinstance(decl, IntersectionType):
        checks = tuple(compiled_checker(m) for m in decl.members)
        if len(checks) == 2:
            first, second = checks

            def check_intersection_2(text: str) -> bool:
                return first(text) and second(text)

            return check_intersection_2

        def check_intersection(text: str) -> bool:
            return all(check(text) for check in checks)

        return check_intersection
    kind = decl.kind
    enum = decl.enumeration
    if kind is AtomicKind.STRING:
        min_len = decl.min_length
        max_len = decl.max_length

        def check_string(text: str) -> bool:
            if min_len is not None and len(text) < min_len:
                return False
            if max_len is not None and len(text) > max_len:
                return False
            if enum is not None:
                return text in enum
            return True

        return check_string
    if kind is AtomicKind.BOOLEAN:

        def check_boolean(text: str) -> bool:
            lexical = text.strip()
            if lexical not in _BOOLEAN_LEXICALS:
                return False
            if enum is not None:
                return lexical in enum
            return True

        return check_boolean
    if kind is AtomicKind.INTEGER:
        interval = decl.interval()
        assert interval is not None
        # Integer values make the open/closed Fraction bounds collapse
        # to a closed int range: the smallest/largest admitted integer.
        lo = hi = None
        if interval.lower is not None:
            lo = math.ceil(interval.lower)
            if interval.lower_open and lo == interval.lower:
                lo += 1
        if interval.upper is not None:
            hi = math.floor(interval.upper)
            if interval.upper_open and hi == interval.upper:
                hi -= 1
        integer_match = _INTEGER_RE.match

        def check_integer(text: str) -> bool:
            lexical = text.strip()
            if integer_match(lexical) is None:
                return False
            value = int(lexical)
            if lo is not None and value < lo:
                return False
            if hi is not None and value > hi:
                return False
            if enum is not None:
                return lexical in enum
            return True

        return check_integer
    if kind is AtomicKind.DECIMAL:
        interval = decl.interval()
        assert interval is not None
        # A lexical value n/10^k and a bound p/q compare exactly as the
        # integers n*q and p*10^k, so no Fraction is built per value.
        lo_num = lo_den = hi_num = hi_den = None
        if interval.lower is not None:
            bound = Fraction(interval.lower)
            lo_num, lo_den = bound.numerator, bound.denominator
        if interval.upper is not None:
            bound = Fraction(interval.upper)
            hi_num, hi_den = bound.numerator, bound.denominator
        lo_open = interval.lower_open
        hi_open = interval.upper_open
        bounded = lo_num is not None or hi_num is not None
        decimal_match = _DECIMAL_RE.match

        def check_decimal(text: str) -> bool:
            lexical = text.strip()
            if decimal_match(lexical) is None:
                return False
            if bounded:
                whole, _, digits = lexical.partition(".")
                value = int(whole + digits)
                scale = 10 ** len(digits)
                if lo_num is not None:
                    left = value * lo_den
                    right = lo_num * scale
                    if left < right or (lo_open and left == right):
                        return False
                if hi_num is not None:
                    left = value * hi_den
                    right = hi_num * scale
                    if left > right or (hi_open and left == right):
                        return False
            if enum is not None:
                return lexical in enum
            return True

        return check_decimal
    # DATE (and any future kind): the generic path is dominated by
    # ``datetime.date`` construction anyway — nothing to specialize.
    return decl.validate


def value_checker(decl: SimpleType):
    """:func:`compiled_checker` of ``decl``, built on first use and kept
    on the declaration, so every walk binds a declaration's checker
    once.  It lives on the instance rather than in a mapping keyed by
    the declaration: hashing a frozen declaration hashes its facets,
    which costs more than the check."""
    check = decl._check
    if check is None:
        check = compiled_checker(decl)
        object.__setattr__(decl, "_check", check)
    return check


def _length_implies(narrow: SimpleType, wide: SimpleType) -> bool:
    lo_n = narrow.min_length or 0
    lo_w = wide.min_length or 0
    hi_n = narrow.max_length
    hi_w = wide.max_length
    if lo_n < lo_w:
        return False
    if hi_w is not None and (hi_n is None or hi_n > hi_w):
        return False
    return True


def _length_disjoint(a: SimpleType, b: SimpleType) -> bool:
    lo = max(a.min_length or 0, b.min_length or 0)
    hi_candidates = [h for h in (a.max_length, b.max_length) if h is not None]
    hi = min(hi_candidates) if hi_candidates else None
    return hi is not None and lo > hi


@dataclass(frozen=True)
class Interval:
    """An interval over a totally ordered value space.

    ``None`` bounds are unbounded.  ``integral`` marks integer value
    spaces, which matters for open-bound intersection tests
    (``(0, 1)`` contains no integer but does contain decimals).
    """

    lower: Optional[Fraction | datetime.date] = None
    lower_open: bool = False
    upper: Optional[Fraction | datetime.date] = None
    upper_open: bool = False
    integral: bool = False

    def contains(self, value) -> bool:
        if self.lower is not None:
            if value < self.lower or (self.lower_open and value == self.lower):
                return False
        if self.upper is not None:
            if value > self.upper or (self.upper_open and value == self.upper):
                return False
        return True

    def contains_interval(self, other: "Interval") -> bool:
        """Is ``other`` entirely inside ``self``?  (Conservative towards
        False when open/closed endpoints make it ambiguous for integral
        spaces — False only forgoes an optimization.)"""
        if self.lower is not None:
            if other.lower is None:
                return False
            if other.lower < self.lower:
                return False
            if (
                other.lower == self.lower
                and self.lower_open
                and not other.lower_open
            ):
                return False
        if self.upper is not None:
            if other.upper is None:
                return False
            if other.upper > self.upper:
                return False
            if (
                other.upper == self.upper
                and self.upper_open
                and not other.upper_open
            ):
                return False
        return True

    def intersects(self, other: "Interval", integral: bool = False) -> bool:
        """Do the intervals share a value?  ``integral`` restricts the
        shared value to integers (for integer/decimal comparisons)."""
        lower, lower_open = _max_bound(
            (self.lower, self.lower_open), (other.lower, other.lower_open)
        )
        upper, upper_open = _min_bound(
            (self.upper, self.upper_open), (other.upper, other.upper_open)
        )
        if lower is None or upper is None:
            interval_nonempty = True
        elif lower < upper:
            interval_nonempty = True
        elif lower == upper:
            interval_nonempty = not (lower_open or upper_open)
        else:
            interval_nonempty = False
        if not interval_nonempty:
            return False
        want_integer = integral or self.integral or other.integral
        if not want_integer:
            return True
        return _contains_integer(lower, lower_open, upper, upper_open)


def _max_bound(a, b):
    """The tighter of two lower bounds ``(value, open)``; a missing
    bound is ``(None, False)``, whatever flag came with it."""
    (va, oa), (vb, ob) = a, b
    if va is None:
        return (vb, ob) if vb is not None else (None, False)
    if vb is None or va > vb:
        return va, oa
    if vb > va:
        return vb, ob
    return va, oa or ob


def _min_bound(a, b):
    """The tighter of two upper bounds; see :func:`_max_bound`."""
    (va, oa), (vb, ob) = a, b
    if va is None:
        return (vb, ob) if vb is not None else (None, False)
    if vb is None or va < vb:
        return va, oa
    if vb < va:
        return vb, ob
    return va, oa or ob


def _contains_integer(lower, lower_open, upper, upper_open) -> bool:
    """Does the (possibly unbounded) interval contain an integer?
    Bounds are Fractions (date intervals never reach here)."""
    import math

    if lower is None or upper is None:
        return True  # a half-line always contains integers
    lo = math.ceil(lower)
    if lower_open and lo == lower:
        lo += 1
    hi = math.floor(upper)
    if upper_open and hi == upper:
        hi -= 1
    return lo <= hi


# -- builtin types --------------------------------------------------------------

def _builtin(name: str, kind: AtomicKind, **facets) -> SimpleType:
    return SimpleType(name=name, kind=kind, **facets)


#: Built-in XSD simple types (the subset the reproduction supports).
#: Derived integer types are expressed as INTEGER with range facets so
#: the generic facet algebra handles their relationships.
BUILTINS: dict[str, SimpleType] = {
    t.name: t
    for t in (
        _builtin("xsd:string", AtomicKind.STRING),
        _builtin("xsd:normalizedString", AtomicKind.STRING),
        _builtin("xsd:token", AtomicKind.STRING),
        _builtin("xsd:anyURI", AtomicKind.STRING),
        _builtin("xsd:boolean", AtomicKind.BOOLEAN),
        _builtin("xsd:decimal", AtomicKind.DECIMAL),
        _builtin("xsd:integer", AtomicKind.INTEGER),
        _builtin(
            "xsd:nonNegativeInteger",
            AtomicKind.INTEGER,
            min_inclusive=Fraction(0),
        ),
        _builtin(
            "xsd:positiveInteger", AtomicKind.INTEGER, min_inclusive=Fraction(1)
        ),
        _builtin(
            "xsd:nonPositiveInteger",
            AtomicKind.INTEGER,
            max_inclusive=Fraction(0),
        ),
        _builtin(
            "xsd:negativeInteger", AtomicKind.INTEGER, max_inclusive=Fraction(-1)
        ),
        _builtin(
            "xsd:long",
            AtomicKind.INTEGER,
            min_inclusive=Fraction(-(2**63)),
            max_inclusive=Fraction(2**63 - 1),
        ),
        _builtin(
            "xsd:int",
            AtomicKind.INTEGER,
            min_inclusive=Fraction(-(2**31)),
            max_inclusive=Fraction(2**31 - 1),
        ),
        _builtin(
            "xsd:short",
            AtomicKind.INTEGER,
            min_inclusive=Fraction(-(2**15)),
            max_inclusive=Fraction(2**15 - 1),
        ),
        _builtin(
            "xsd:byte",
            AtomicKind.INTEGER,
            min_inclusive=Fraction(-128),
            max_inclusive=Fraction(127),
        ),
        _builtin(
            "xsd:unsignedLong",
            AtomicKind.INTEGER,
            min_inclusive=Fraction(0),
            max_inclusive=Fraction(2**64 - 1),
        ),
        _builtin(
            "xsd:unsignedInt",
            AtomicKind.INTEGER,
            min_inclusive=Fraction(0),
            max_inclusive=Fraction(2**32 - 1),
        ),
        _builtin(
            "xsd:unsignedShort",
            AtomicKind.INTEGER,
            min_inclusive=Fraction(0),
            max_inclusive=Fraction(2**16 - 1),
        ),
        _builtin(
            "xsd:unsignedByte",
            AtomicKind.INTEGER,
            min_inclusive=Fraction(0),
            max_inclusive=Fraction(255),
        ),
        _builtin("xsd:date", AtomicKind.DATE),
    )
}

#: The single catch-all simple type of the paper's bare formalism.
ANY_SIMPLE = BUILTINS["xsd:string"]


def builtin(name: str) -> SimpleType:
    """Look up a built-in simple type by qualified name; accepts both
    ``xsd:integer`` and bare ``integer``."""
    key = name if name.startswith("xsd:") else f"xsd:{name}"
    try:
        return BUILTINS[key]
    except KeyError:
        raise SchemaError(f"unknown built-in simple type {name!r}") from None


def restrict(
    base: SimpleType,
    name: str,
    *,
    min_inclusive=None,
    max_inclusive=None,
    min_exclusive=None,
    max_exclusive=None,
    min_length: Optional[int] = None,
    max_length: Optional[int] = None,
    enumeration: Optional[frozenset[str]] = None,
) -> SimpleType:
    """Derive a new simple type from ``base`` by restriction.

    New facets must narrow the base: the derived type's accepted lexical
    space is validated to sit inside the base's by construction (facets
    are merged with the tighter bound winning).
    """

    def pick(new, old, tighter):
        if new is None:
            return old
        if old is not None and not tighter(new, old):
            raise SchemaError(
                f"restriction {name!r} loosens a facet of {base.name!r}"
            )
        return new

    def coerce(value):
        if value is None or isinstance(value, (Fraction, datetime.date)):
            return value
        if base.kind is AtomicKind.DATE:
            parsed = base.parse_value(str(value))
            if parsed is None:
                raise SchemaError(f"bad date facet value {value!r}")
            return parsed
        return Fraction(str(value))

    merged_enum = enumeration
    if base.enumeration is not None:
        merged_enum = (
            base.enumeration
            if enumeration is None
            else frozenset(enumeration) & base.enumeration
        )
    return SimpleType(
        name=name,
        kind=base.kind,
        min_inclusive=pick(
            coerce(min_inclusive), base.min_inclusive, lambda n, o: n >= o
        ),
        max_inclusive=pick(
            coerce(max_inclusive), base.max_inclusive, lambda n, o: n <= o
        ),
        min_exclusive=pick(
            coerce(min_exclusive), base.min_exclusive, lambda n, o: n >= o
        ),
        max_exclusive=pick(
            coerce(max_exclusive), base.max_exclusive, lambda n, o: n <= o
        ),
        min_length=pick(min_length, base.min_length, lambda n, o: n >= o),
        max_length=pick(max_length, base.max_length, lambda n, o: n <= o),
        enumeration=merged_enum,
    )
