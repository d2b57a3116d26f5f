"""Random document edits and schema perturbations.

* :func:`random_edits` drives an :class:`UpdateSession` with a mix of
  the paper's update operations (rename / insert leaf / delete leaf /
  text change), for the with-modifications experiments;
* :func:`perturb_schema` produces a structurally "nearby" schema — the
  kind of drift the paper motivates with schema evolution — by loosening
  or tightening one occurrence constraint or facet at a time.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from repro.core.updates import UpdateSession
from repro.remodel.ast import Regex, Repeat, Symbol, repeat
from repro.schema.model import ComplexType, Schema, TypeDef
from repro.schema.simple import AtomicKind, SimpleType
from repro.xmltree.dom import Element, Text


# -- document edits ---------------------------------------------------------------

def random_edits(
    rng: random.Random,
    session: UpdateSession,
    count: int,
    *,
    labels: Optional[list[str]] = None,
    allow_deletes: bool = True,
) -> int:
    """Apply up to ``count`` random update operations; returns how many
    were actually applied (an op is skipped when no target exists)."""
    applied = 0
    palette = labels or sorted(
        {element.label for element in session.document.root.iter()}
    )
    for _ in range(count):
        op = rng.randrange(4 if allow_deletes else 3)
        if op == 0 and self_renameable(session):
            target = rng.choice(self_renameable(session))
            session.rename(target, rng.choice(palette))
            applied += 1
        elif op == 1:
            parents = [
                element
                for element in session.document.root.iter()
                if not session.is_deleted(element)
            ]
            parent = rng.choice(parents)
            position = rng.randint(0, len(parent.children))
            session.insert_element(parent, position, rng.choice(palette))
            applied += 1
        elif op == 2:
            texts = [
                node
                for element in session.document.root.iter()
                for node in element.children
                if isinstance(node, Text) and not session.is_deleted(node)
            ]
            if texts:
                session.replace_text(
                    rng.choice(texts), str(rng.randint(0, 500))
                )
                applied += 1
        else:
            leaves = deletable_leaves(session)
            if leaves:
                session.delete(rng.choice(leaves))
                applied += 1
    return applied


def self_renameable(session: UpdateSession) -> list[Element]:
    return [
        element
        for element in session.document.root.iter()
        if not session.is_deleted(element) and element.parent is not None
    ]


def deletable_leaves(session: UpdateSession) -> list:
    """Live nodes with no live children (and not the root)."""
    leaves = []
    for element in session.document.root.iter():
        if session.is_deleted(element):
            continue
        for child in element.children:
            if session.is_deleted(child):
                continue
            if isinstance(child, Text):
                leaves.append(child)
            elif not any(
                not session.is_deleted(grand) for grand in child.children
            ):
                leaves.append(child)
    return leaves


# -- schema perturbations --------------------------------------------------------

def perturb_schema(
    rng: random.Random, schema: Schema, *, name: str = ""
) -> Schema:
    """A nearby schema: one random occurrence bound or facet changed.

    Falls back to returning an identical copy when no perturbable site
    exists (degenerate schemas).
    """
    types = dict(schema.types)
    candidates = sorted(types)
    rng.shuffle(candidates)
    for type_name in candidates:
        declaration = types[type_name]
        replacement = _perturb_type(rng, declaration)
        if replacement is not None:
            types[type_name] = replacement
            break
    return Schema(
        types,
        dict(schema.roots),
        name=name or f"{schema.name}-perturbed",
        identity=schema.identity,
    )


def _perturb_type(rng: random.Random, declaration: TypeDef) -> Optional[TypeDef]:
    if isinstance(declaration, SimpleType):
        return _perturb_simple(rng, declaration)
    assert isinstance(declaration, ComplexType)
    perturbed = _perturb_regex(rng, declaration.content)
    if perturbed is None:
        return None
    child_types = {
        label: child
        for label, child in declaration.child_types.items()
        if label in perturbed.symbols()
    }
    try:
        return ComplexType(declaration.name, perturbed, child_types)
    except Exception:
        return None


def _perturb_simple(
    rng: random.Random, declaration: SimpleType
) -> Optional[SimpleType]:
    if declaration.kind not in (AtomicKind.INTEGER, AtomicKind.DECIMAL):
        return None
    interval = declaration.interval()
    if interval is None or interval.upper is None:
        return None
    shift = Fraction(rng.choice([-50, -10, 10, 50, 100]))
    fields = {
        "min_inclusive": declaration.min_inclusive,
        "max_inclusive": declaration.max_inclusive,
        "min_exclusive": declaration.min_exclusive,
        "max_exclusive": declaration.max_exclusive,
    }
    if declaration.max_exclusive is not None:
        fields["max_exclusive"] = declaration.max_exclusive + shift
    elif declaration.max_inclusive is not None:
        fields["max_inclusive"] = declaration.max_inclusive + shift
    return SimpleType(
        name=f"{declaration.name}~",
        kind=declaration.kind,
        min_length=declaration.min_length,
        max_length=declaration.max_length,
        enumeration=declaration.enumeration,
        **fields,
    )


def _perturb_regex(rng: random.Random, expression: Regex) -> Optional[Regex]:
    """Toggle one occurrence constraint somewhere in the expression."""
    sites: list[tuple[Regex, str]] = []

    def collect(node: Regex) -> None:
        if isinstance(node, Repeat):
            sites.append((node, "repeat"))
        elif isinstance(node, Symbol):
            sites.append((node, "symbol"))
        for child in getattr(node, "parts", ()) or ():
            collect(child)
        inner = getattr(node, "child", None)
        if inner is not None:
            collect(inner)

    collect(expression)
    if not sites:
        return None
    victim, kind = rng.choice(sites)

    def rewrite(node: Regex) -> Regex:
        if node is victim:
            if kind == "symbol":
                # Required ↔ optional.
                return repeat(node, 0, 1)
            assert isinstance(node, Repeat)
            if node.low == 0:
                high = node.high if node.high is None or node.high >= 1 else 1
                return repeat(node.child, 1, high)
            return repeat(node.child, 0, node.high)
        from repro.remodel.ast import Alt, Seq, Star

        if isinstance(node, Seq):
            return Seq(tuple(rewrite(part) for part in node.parts))
        if isinstance(node, Alt):
            return Alt(tuple(rewrite(part) for part in node.parts))
        if isinstance(node, Star):
            return Star(rewrite(node.child))
        if isinstance(node, Repeat):
            return Repeat(rewrite(node.child), node.low, node.high)
        return node

    return rewrite(expression)
