"""Tree validation against an oracle that reads no compiled table.

The tree walk (:class:`repro.core.validator.TreeWalk`, behind
``validate_document`` and ``CastValidator``) reads the same
:class:`~repro.schema.pairkernel.PairKernel` records as the text kernel
behind ``validate_text`` and ``cast_text``, so the equivalence fuzzers
that compare those engines share their tables.  The validator below is
written from the paper's definitions alone: types from ``Schema.roots``
and ``ComplexType.child_types``, content by Brzozowski derivatives of
``declaration.content``, values by ``SimpleType.validate``, attributes
by ``attribute_violation``.  It reports the first failure's Dewey path
in the walk's order: the attributes, then the child string (a stray
text or a label outside the schema's alphabet at the child, a content
mismatch at the element), then the children from left to right.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.cast import CastValidator
from repro.core.updates import UpdateSession
from repro.core.validator import attribute_violation, validate_document
from repro.remodel.derivative import matches
from repro.schema.model import Schema, SimpleType
from repro.workloads.generators import sample_document
from repro.workloads.mutations import random_edits
from repro.xmltree.dom import Document, Element, Text
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize
from tests.core.test_kernel_equivalence import random_pairs


def oracle(schema: Schema, document: Document) -> tuple[bool, str]:
    """``(valid, path)`` of ``document`` under ``schema``."""
    root = document.root
    type_name = schema.roots.get(root.label)
    if type_name is None:
        return False, ""
    path = _first_failure(schema, type_name, root, "")
    return path is None, path or ""


def _first_failure(
    schema: Schema, type_name: str, element: Element, path: str
) -> Optional[str]:
    declaration = schema.types[type_name]
    if attribute_violation(schema, declaration, element):
        return path
    if isinstance(declaration, SimpleType):
        if any(isinstance(child, Element) for child in element.children):
            return path
        return None if declaration.validate(element.text()) else path
    labels = []
    for index, child in enumerate(element.children):
        child_path = f"{path}.{index}" if path else str(index)
        if isinstance(child, Text):
            if child.value.strip():
                return child_path
        elif child.label not in schema.alphabet:
            return child_path
        else:
            labels.append(child.label)
    if not matches(declaration.content, labels):
        return path
    for index, child in enumerate(element.children):
        if isinstance(child, Element):
            failure = _first_failure(
                schema,
                declaration.child_types[child.label],
                child,
                f"{path}.{index}" if path else str(index),
            )
            if failure is not None:
                return failure
    return None


def corpus(rng: random.Random, pairs: int):
    """``(pair, text)``: documents sampled under a random source, half
    of them edited (renames, inserts, text changes and deletions, some
    to a label no schema declares), so valid and invalid ones mix."""
    for pair in random_pairs(rng, pairs):
        labels = sorted(pair.source.alphabet | pair.target.alphabet) + ["zz"]
        for _ in range(10):
            document = sample_document(rng, pair.source, max_depth=5)
            if document is None:
                break
            if rng.random() < 0.5:
                session = UpdateSession(document)
                random_edits(rng, session, rng.randint(1, 4), labels=labels)
                document = session.result_document()
            yield pair, serialize(document, indent=rng.choice(["", "  "]))


def test_tree_walk_answers_as_the_oracle():
    rng = random.Random(0x0AC1E)
    documents = invalid = cast_checked = 0
    for pair, text in corpus(rng, 40):
        documents += 1
        for schema in (pair.source, pair.target):
            expected = oracle(schema, parse(text))
            invalid += not expected[0]
            for symbols in (None, schema.symbols):
                report = validate_document(
                    schema, parse(text, symbols=symbols)
                )
                assert (report.valid, report.path) == expected, (
                    report.reason, text
                )
        if oracle(pair.source, parse(text))[0]:
            cast_checked += 1
            target_valid = oracle(pair.target, parse(text))[0]
            for use_string_cast in (True, False):
                report = CastValidator(
                    pair, use_string_cast=use_string_cast
                ).validate(parse(text, symbols=pair.symbols))
                assert report.valid == target_valid, (report.reason, text)
    # 400 documents, 407 rejections over both schemas and 243
    # source-valid casts, under every hash seed.
    assert documents >= 300
    assert invalid >= 100
    assert cast_checked >= 100
