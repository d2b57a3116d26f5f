"""Random schema and document generators.

Property-based tests and the ablation benchmarks need three samplers:

* :func:`random_schema` — a random abstract XML Schema (pruned to
  productive types);
* :func:`sample_document` / :func:`sample_valid_tree` — a random
  document valid with respect to a given schema, built by sampling
  content-model DFAs under a height budget;
* :func:`random_word` — a random member of a DFA's language.

All randomness flows through an explicit ``random.Random`` instance so
every generated artifact is reproducible from a seed.  No draw depends
on the iteration order of a set or of a dict filled from one (sorted
order is used instead), so a seed gives the same artifacts under every
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
import random
import string as _string
from fractions import Fraction
from typing import Optional

from repro.automata.dfa import DFA
from repro.errors import SchemaError
from repro.remodel.ast import (
    EPSILON,
    Regex,
    alt,
    opt,
    plus,
    repeat,
    seq,
    star,
    sym,
)
from repro.schema.model import ComplexType, Schema, TypeDef
from repro.schema.productive import prune_nonproductive
from repro.schema.simple import AtomicKind, SimpleType, builtin, restrict
from repro.xmltree.dom import Document, Element, Text


# -- random content models -------------------------------------------------------

def random_regex(
    rng: random.Random,
    symbols: list[str],
    *,
    depth: int = 3,
) -> Regex:
    """A random content-model expression over ``symbols``."""
    if not symbols:
        return EPSILON
    if depth <= 0 or rng.random() < 0.4:
        return sym(rng.choice(symbols))
    kind = rng.randrange(5)
    if kind == 0:
        parts = [
            random_regex(rng, symbols, depth=depth - 1)
            for _ in range(rng.randint(2, 3))
        ]
        return seq(*parts)
    if kind == 1:
        parts = [
            random_regex(rng, symbols, depth=depth - 1)
            for _ in range(rng.randint(2, 3))
        ]
        return alt(*parts)
    inner = random_regex(rng, symbols, depth=depth - 1)
    if kind == 2:
        return star(inner)
    if kind == 3:
        return opt(inner)
    low = rng.randint(0, 2)
    high = rng.choice([low, low + 1, low + 2, None])
    return repeat(inner, low, high)


# -- random simple types --------------------------------------------------------

def random_simple_type(rng: random.Random, name: str) -> SimpleType:
    """A random simple type from a palette of kinds and facets."""
    choice = rng.randrange(7)
    if choice == 0:
        return builtin("string")
    if choice == 1:
        return builtin("integer")
    if choice == 2:
        low = rng.randint(-50, 50)
        high = low + rng.randint(0, 100)
        return restrict(
            builtin("integer"),
            name,
            min_inclusive=Fraction(low),
            max_inclusive=Fraction(high),
        )
    if choice == 3:
        bound = rng.randint(2, 200)  # >=2 keeps the value space inhabited
        return restrict(builtin("positiveInteger"), name,
                        max_exclusive=Fraction(bound))
    if choice == 4:
        members = frozenset(
            rng.choice(["red", "green", "blue", "cyan", "teal"])
            for _ in range(rng.randint(1, 4))
        )
        return restrict(builtin("string"), name, enumeration=members)
    if choice == 5:
        return builtin("decimal")
    # A bounded decimal: negative and fractional bounds, each end
    # inclusive or exclusive, now and then one end left open.  The
    # window is never empty, since the upper bound is the larger.
    low = Fraction(rng.randint(-500, 500), rng.choice([1, 2, 4, 10, 100]))
    high = low + Fraction(rng.randint(1, 1000), rng.choice([1, 4, 10, 100]))
    facets = {}
    if rng.random() < 0.85:
        facets["min_exclusive" if rng.random() < 0.5
               else "min_inclusive"] = low
    if not facets or rng.random() < 0.85:
        facets["max_exclusive" if rng.random() < 0.5
               else "max_inclusive"] = high
    return restrict(builtin("decimal"), name, **facets)


# -- random schemas -----------------------------------------------------------------

def random_schema(
    rng: random.Random,
    *,
    num_labels: int = 6,
    num_complex: int = 4,
    num_simple: int = 2,
    name: str = "",
) -> Schema:
    """A random productive abstract XML Schema.

    Labels are ``a0..a{n-1}``; complex types ``C0..``; simple types
    ``S0..``.  The result is pruned, so every type is productive; raises
    :class:`SchemaError` only in the (rare, retried by callers) case
    that pruning leaves no root.
    """
    labels = [f"a{i}" for i in range(num_labels)]
    simple_names = [f"S{i}" for i in range(num_simple)]
    complex_names = [f"C{i}" for i in range(num_complex)]
    all_names = simple_names + complex_names
    types: dict[str, TypeDef] = {}
    for simple_name in simple_names:
        types[simple_name] = random_simple_type(rng, simple_name)
    for complex_name in complex_names:
        used = rng.sample(labels, rng.randint(0, min(3, len(labels))))
        expression = random_regex(rng, used) if used else EPSILON
        child_types = {
            label: rng.choice(all_names)
            for label in sorted(expression.symbols())
        }
        attributes = {}
        if simple_names and rng.random() < 0.3:
            from repro.schema.model import AttributeDecl

            for attr_name in rng.sample(["id", "kind", "rank"],
                                        rng.randint(1, 2)):
                attributes[attr_name] = AttributeDecl(
                    attr_name,
                    rng.choice(simple_names),
                    required=rng.random() < 0.5,
                )
        types[complex_name] = ComplexType(
            complex_name, expression, child_types, attributes
        )
    roots = {
        rng.choice(labels): rng.choice(all_names)
        for _ in range(rng.randint(1, 2))
    }
    schema = Schema(types, roots, name=name or f"random-{rng.random():.6f}")
    return prune_nonproductive(schema)


# -- sampling words from DFAs -----------------------------------------------------

def _distances_to_final(dfa: DFA) -> dict[int, int]:
    """BFS distance from each state to the nearest accepting state."""
    from collections import deque

    distance = {q: 0 for q in dfa.finals}
    incoming = dfa.reverse_adjacency()
    queue = deque(dfa.finals)
    while queue:
        q = queue.popleft()
        for src in incoming[q]:
            if src not in distance:
                distance[src] = distance[q] + 1
                queue.append(src)
    return distance


def random_word(
    rng: random.Random,
    dfa: DFA,
    *,
    max_length: int = 24,
    allowed: Optional[frozenset[str]] = None,
) -> Optional[list[str]]:
    """A random word of ``L(dfa)`` (∩ ``allowed*``), or None if empty.

    The walk is biased: while under ``max_length`` it may take any step
    that keeps an accepting state reachable; beyond that it follows
    shortest paths to acceptance, so it always terminates.
    """
    if allowed is not None and allowed != dfa.alphabet:
        from repro.remodel.toregex import restrict_language

        dfa = restrict_language(dfa, allowed)
    distance = _distances_to_final(dfa)
    if dfa.start not in distance:
        return None
    word: list[str] = []
    state = dfa.start
    while True:
        if state in dfa.finals and (
            len(word) >= max_length or rng.random() < 0.35
        ):
            return word
        options = [
            (symbol, dst)
            for symbol, dst in sorted(dfa.transitions[state].items())
            if dst in distance
        ]
        if len(word) >= max_length:
            options = [
                (symbol, dst)
                for symbol, dst in options
                if distance[dst] < distance[state]
            ]
        if not options:
            # Only possible in a final state (distance 0 with no
            # shrinking move): accept here.
            assert state in dfa.finals
            return word
        symbol, state = rng.choice(options)
        word.append(symbol)


# -- sampling valid trees ------------------------------------------------------------

def random_text_for(rng: random.Random, declaration: SimpleType) -> str:
    """A random text value conforming to a simple type.

    Best-effort: when the declaration is unsatisfiable (facet
    perturbation can empty an integer window) the returned value is
    well-formed but nonconforming rather than raising.
    """
    if declaration.enumeration is not None:
        return rng.choice(sorted(declaration.enumeration))
    if declaration.kind is AtomicKind.STRING:
        low = declaration.min_length or 0
        high = declaration.max_length
        length = rng.randint(low, high if high is not None else low + 8)
        return "".join(rng.choice(_string.ascii_lowercase) for _ in range(length))
    if declaration.kind is AtomicKind.BOOLEAN:
        return rng.choice(["true", "false", "1", "0"])
    if declaration.kind is AtomicKind.DATE:
        return f"{rng.randint(1990, 2030)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    interval = declaration.interval()
    assert interval is not None
    # An unbounded end stands in 1000 away from the other one.
    if interval.lower is not None:
        lower, lower_open = interval.lower, interval.lower_open
    else:
        upper = interval.upper if interval.upper is not None else 0
        lower, lower_open = Fraction(upper) - 1000, False
    if interval.upper is not None:
        upper, upper_open = interval.upper, interval.upper_open
    else:
        upper, upper_open = lower + 1000, False
    window = (lower, lower_open, upper, upper_open)
    lo, hi = _grid(window, 1)
    if declaration.kind is not AtomicKind.DECIMAL:
        if lo > hi:
            # Unsatisfiable integral window — e.g. a perturbed bound
            # shifted below the minimum.  No conforming value exists;
            # return the nearest integer so sampling never crashes (the
            # document is simply invalid against this declaration).
            return str(lo)
        return str(rng.randint(lo, hi))
    if lo <= hi and rng.random() < 0.5:
        return str(rng.randint(lo, hi))
    # A fractional value inside the window, with the fewest digits
    # (two at least) that leave room for one.
    for digits in range(2, 40):
        lo, hi = _grid(window, 10 ** digits)
        if lo <= hi:
            units = rng.randint(lo, hi)
            whole, fraction = divmod(abs(units), 10 ** digits)
            sign = "-" if units < 0 else ""
            return f"{sign}{whole}.{fraction:0{digits}d}"
    # An empty window (a perturbed bound crossed the other one): the
    # midpoint, well-formed but nonconforming.
    return f"{float((lower + upper) / 2):.4f}"


def _grid(window, scale: int) -> tuple[int, int]:
    """The least and greatest integers ``k`` with ``k / scale`` inside
    ``window`` (``(lower, lower_open, upper, upper_open)``)."""
    lower, lower_open, upper, upper_open = window
    lo = math.ceil(lower * scale)
    if lower_open and lo == lower * scale:
        lo += 1
    hi = math.floor(upper * scale)
    if upper_open and hi == upper * scale:
        hi -= 1
    return lo, hi


class TreeSampler:
    """Samples valid trees for a schema under a height budget.

    ``feasible(τ, budget)`` — can τ produce a tree within ``budget``
    levels? — is memoized; simple types need two levels (element +
    text), complex types one plus their deepest required child.
    """

    def __init__(self, schema: Schema, *, max_depth: int = 8):
        self.schema = schema
        self.max_depth = max_depth
        self._feasible: dict[tuple[str, int], bool] = {}

    def feasible(self, type_name: str, budget: int) -> bool:
        key = (type_name, min(budget, self.max_depth))
        if key in self._feasible:
            return self._feasible[key]
        # Break cycles pessimistically; a revisit within the same
        # resolution means a recursive type needing more budget.
        self._feasible[key] = False
        declaration = self.schema.type(type_name)
        if not isinstance(declaration, ComplexType):
            result = budget >= 2
        elif budget < 1:
            result = False
        else:
            allowed = frozenset(
                label
                for label, child in declaration.child_types.items()
                if self.feasible(child, budget - 1)
            )
            from repro.schema.productive import _accepts_within

            result = _accepts_within(self.schema, type_name, allowed)
        self._feasible[key] = result
        return result

    def sample(
        self, rng: random.Random, type_name: str, label: str,
        budget: Optional[int] = None,
    ) -> Element:
        budget = self.max_depth if budget is None else budget
        if not self.feasible(type_name, budget):
            raise SchemaError(
                f"type {type_name!r} cannot produce a tree within "
                f"{budget} levels"
            )
        declaration = self.schema.type(type_name)
        node = Element(label)
        if not isinstance(declaration, ComplexType):
            node.append(Text(random_text_for(rng, declaration)))
            return node
        for attr in declaration.attributes.values():
            if attr.required or rng.random() < 0.5:
                value_type = self.schema.type(attr.type_name)
                assert isinstance(value_type, SimpleType)
                node.attributes[attr.name] = random_text_for(rng, value_type)
        allowed = frozenset(
            child_label
            for child_label, child in declaration.child_types.items()
            if self.feasible(child, budget - 1)
        )
        word = random_word(
            rng, self.schema.content_dfa(type_name), allowed=allowed
        )
        assert word is not None  # feasibility guaranteed it
        for child_label in word:
            child_type = declaration.child_types[child_label]
            node.append(
                self.sample(rng, child_type, child_label, budget - 1)
            )
        return node


def sample_valid_tree(
    rng: random.Random,
    schema: Schema,
    type_name: str,
    label: str,
    *,
    max_depth: int = 8,
) -> Element:
    """A random tree valid for ``type_name``, rooted at ``label``."""
    return TreeSampler(schema, max_depth=max_depth).sample(
        rng, type_name, label
    )


def sample_document(
    rng: random.Random, schema: Schema, *, max_depth: int = 8
) -> Optional[Document]:
    """A random document valid under ``schema`` (None if no root can
    produce a tree within the depth budget)."""
    sampler = TreeSampler(schema, max_depth=max_depth)
    candidates = [
        (label, type_name)
        for label, type_name in sorted(schema.roots.items())
        if sampler.feasible(type_name, max_depth)
    ]
    if not candidates:
        return None
    label, type_name = rng.choice(candidates)
    return Document(sampler.sample(rng, type_name, label))
