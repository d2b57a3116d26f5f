"""A document whose root position holds no start tag fails the same
way through every entry point.

Past the prolog (XML declaration, comments, PIs, DOCTYPE) the next
construct must be the root element.  A CDATA section or a close tag
there is not one: ``parse`` answers "expected an XML name" right after
its ``<``, and the token stream and its character-level oracle, the
event parser, the fused kernel (cast and plain validation), the
reference cast, the file cast and the service must give the same
diagnostic at the same position — never a ``valid`` verdict, a
different message, or an unhandled exception.
"""

from __future__ import annotations

import pytest

from repro.core.cast import cast_file, cast_text
from repro.core.reference import reference_cast
from repro.core.validator import validate_text
from repro.errors import XMLSyntaxError
from repro.schema.registry import SchemaPair
from repro.workloads.purchase_orders import (
    source_schema_experiment2,
    target_schema_experiment2,
)
from repro.xmltree.events import iterparse
from repro.xmltree.lexer import iter_tokens
from repro.xmltree.parser import parse
from repro.xmltree.reference import reference_tokens

from tests.service.conftest import boot

#: Text at the root position → the column of parse's diagnostic.
ROOTLESS = {
    "<![CDATA[x]]><a/>": 2,
    "<![CDATA[x]]>": 2,
    "<!--c--><![CDATA[x]]>": 10,
    "</x>": 2,
    "<?pi x?></x>": 10,
}

MESSAGE = "expected an XML name"

TEXTS = pytest.mark.parametrize("text", list(ROOTLESS))


def expected(text: str) -> str:
    return f"{MESSAGE} (line 1, column {ROOTLESS[text]})"


@pytest.fixture(scope="module")
def pair():
    return SchemaPair(source_schema_experiment2(), target_schema_experiment2())


def raised(call) -> XMLSyntaxError:
    with pytest.raises(XMLSyntaxError) as caught:
        call()
    return caught.value


@TEXTS
def test_parse(text):
    error = raised(lambda: parse(text))
    assert str(error) == expected(text)
    assert (error.line, error.column) == (1, ROOTLESS[text])


@TEXTS
def test_iter_tokens(text):
    assert str(raised(lambda: list(iter_tokens(text)))) == expected(text)


@TEXTS
def test_reference_tokens(text):
    assert str(raised(lambda: list(reference_tokens(text)))) == expected(text)


@TEXTS
def test_iterparse(text):
    assert str(raised(lambda: list(iterparse(text)))) == expected(text)


@TEXTS
def test_reference_cast(pair, text):
    report = reference_cast(pair, text)
    assert not report.valid
    assert report.reason == f"not well-formed: {expected(text)}"


@TEXTS
@pytest.mark.parametrize("side", ["source", "target"])
def test_validate_text(pair, text, side):
    schema = pair.source if side == "source" else pair.target
    assert str(raised(lambda: validate_text(schema, text))) == expected(text)


@TEXTS
@pytest.mark.parametrize("trusted", [False, True])
def test_cast_text(pair, text, trusted):
    report = cast_text(pair, text, trusted=trusted)
    assert not report.valid
    assert report.reason == f"not well-formed: {expected(text)}"


@TEXTS
def test_cast_file(pair, text, tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(text, encoding="utf-8")
    assert str(raised(lambda: cast_file(pair, str(path)))) == expected(text)


@pytest.fixture(scope="module")
def service():
    handle = boot()
    yield handle
    handle.service.close()


@TEXTS
def test_service_validate_is_typed(service, text):
    status, payload, _ = service.post(
        "/validate", {"pair": "po-exp2", "xml": text}
    )
    assert status == 400
    assert payload["error"]["code"] == "xml-syntax"
    assert payload["diagnostics"][0]["column"] == ROOTLESS[text]


@TEXTS
def test_service_cast_is_typed(service, text):
    status, payload, _ = service.post(
        "/cast", {"pair": "po-exp2", "xml": text}
    )
    assert status == 200
    assert payload["valid"] is False
    (diagnostic,) = payload["diagnostics"]
    assert diagnostic["message"] == f"not well-formed: {expected(text)}"
