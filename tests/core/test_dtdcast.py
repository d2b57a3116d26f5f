"""Tests for the DTD label-index cast validator (Section 3.4)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.cast import CastValidator
from repro.core.dtdcast import DTDCastValidator
from repro.core.validator import validate_document
from repro.errors import SchemaError
from repro.schema.dtd import is_dtd_schema, parse_dtd
from repro.schema.model import Schema, complex_type
from repro.schema.registry import SchemaPair
from repro.schema.simple import builtin
from repro.workloads.generators import sample_document
from repro.xmltree.parser import parse
from tests.core.test_kernel_equivalence import random_pairs

SOURCE_DTD = """
<!ELEMENT po (shipTo, billTo?, items)>
<!ELEMENT shipTo (name)>
<!ELEMENT billTo (name)>
<!ELEMENT items (item*)>
<!ELEMENT item (#PCDATA)>
<!ELEMENT name (#PCDATA)>
"""

TARGET_DTD = """
<!ELEMENT po (shipTo, billTo, items)>
<!ELEMENT shipTo (name)>
<!ELEMENT billTo (name)>
<!ELEMENT items (item+)>
<!ELEMENT item (#PCDATA)>
<!ELEMENT name (#PCDATA)>
"""


@pytest.fixture()
def dtd_pair():
    return SchemaPair(
        parse_dtd(SOURCE_DTD, roots=["po"]),
        parse_dtd(TARGET_DTD, roots=["po"]),
    )


class TestClassification:
    def test_label_categories(self, dtd_pair):
        validator = DTDCastValidator(dtd_pair)
        # po changed (billTo now required), items changed (item+):
        assert "po" in validator.check_labels
        assert "items" in validator.check_labels
        # Unchanged element declarations are subsumed.
        assert "shipTo" in validator.skip_labels
        assert "item" in validator.skip_labels
        assert "name" in validator.skip_labels
        assert not validator.fatal_labels


class TestValidation:
    def test_valid_document(self, dtd_pair):
        doc = parse(
            "<po><shipTo><name>a</name></shipTo>"
            "<billTo><name>b</name></billTo>"
            "<items><item>1</item></items></po>"
        )
        report = DTDCastValidator(dtd_pair).validate(doc)
        assert report.valid
        # Only the po and items instances were examined.
        assert report.stats.elements_visited == 2

    def test_missing_billto_rejected(self, dtd_pair):
        doc = parse(
            "<po><shipTo><name>a</name></shipTo>"
            "<items><item>1</item></items></po>"
        )
        assert not DTDCastValidator(dtd_pair).validate(doc).valid

    def test_empty_items_rejected(self, dtd_pair):
        doc = parse(
            "<po><shipTo><name>a</name></shipTo>"
            "<billTo><name>b</name></billTo>"
            "<items/></po>"
        )
        assert not DTDCastValidator(dtd_pair).validate(doc).valid

    def test_agrees_with_tree_cast_validator(self, dtd_pair):
        tree_validator = CastValidator(dtd_pair)
        index_validator = DTDCastValidator(dtd_pair)
        docs = [
            "<po><shipTo><name>a</name></shipTo>"
            "<billTo><name>b</name></billTo>"
            "<items><item>1</item><item>2</item></items></po>",
            "<po><shipTo><name>a</name></shipTo>"
            "<items><item>1</item></items></po>",
            "<po><shipTo><name>a</name></shipTo>"
            "<billTo><name>b</name></billTo><items/></po>",
        ]
        for text in docs:
            doc = parse(text)
            assert (
                index_validator.validate(doc).valid
                == tree_validator.validate(doc).valid
            ), text

    def test_agrees_with_full_validation(self, dtd_pair):
        for text in (
            "<po><shipTo><name>a</name></shipTo>"
            "<billTo><name>b</name></billTo>"
            "<items><item>1</item></items></po>",
            "<po><shipTo><name>a</name></shipTo>"
            "<items><item>1</item></items></po>",
        ):
            doc = parse(text)
            expected = validate_document(dtd_pair.target, doc).valid
            assert DTDCastValidator(dtd_pair).validate(doc).valid == expected

    def test_unknown_root_rejected(self, dtd_pair):
        assert not DTDCastValidator(dtd_pair).validate(parse("<x/>")).valid


class TestFatalLabels:
    def test_disjoint_label_occurrence_is_fatal(self):
        source = parse_dtd(
            "<!ELEMENT a (b*)><!ELEMENT b (c)><!ELEMENT c EMPTY>",
            roots=["a"],
        )
        target = parse_dtd(
            "<!ELEMENT a (b*)><!ELEMENT b (c,c)><!ELEMENT c EMPTY>",
            roots=["a"],
        )
        pair = SchemaPair(source, target)
        validator = DTDCastValidator(pair)
        assert "b" in validator.fatal_labels
        assert not validator.validate(
            parse("<a><b><c/></b></a>")
        ).valid
        # Without any b, the document is fine.
        assert validator.validate(parse("<a/>")).valid


class TestRequiresDtdSchemas:
    def test_non_dtd_schema_rejected(self):
        xsd_style = Schema(
            {
                "T1": complex_type("T1", "(x)", {"x": "A"}),
                "T2": complex_type("T2", "(x)", {"x": "B"}),
                "A": builtin("string"),
                "B": builtin("integer"),
            },
            {"t1": "T1", "t2": "T2"},
        )
        dtd = parse_dtd("<!ELEMENT a EMPTY>")
        with pytest.raises(SchemaError, match="DTD-style"):
            DTDCastValidator(SchemaPair(xsd_style, dtd))

    def test_simple_value_checks_in_dtd_mode(self):
        # DTD front-end gives strings; build a DTD-style schema by hand
        # with a narrower target leaf to force value checks.
        source = Schema(
            {
                "list": complex_type("list", "(v*)", {"v": "v"}),
                "v": builtin("integer"),
            },
            {"list": "list"},
        )
        target = Schema(
            {
                "list": complex_type("list", "(v*)", {"v": "v"}),
                "v": builtin("positiveInteger"),
            },
            {"list": "list"},
        )
        validator = DTDCastValidator(SchemaPair(source, target))
        assert validator.validate(
            parse("<list><v>1</v><v>2</v></list>")
        ).valid
        report = validator.validate(parse("<list><v>1</v><v>-2</v></list>"))
        assert not report.valid
        assert report.stats.simple_values_checked >= 1


#: Six labels whose pairs are all disjoint (one ``x`` in the source, two
#: in the target), each present once in the document.
_DISJOINT_SCRIPT = """
from repro.core.dtdcast import DTDCastValidator
from repro.schema.dtd import parse_dtd
from repro.schema.registry import SchemaPair
from repro.xmltree.parser import parse

labels = ["a%d" % index for index in range(6)]
def dtd(content):
    return parse_dtd(
        "<!ELEMENT r (%s)><!ELEMENT x EMPTY>" % ",".join(labels)
        + "".join("<!ELEMENT %s (%s)>" % (label, content) for label in labels),
        roots=["r"],
    )
pair = SchemaPair(dtd("x"), dtd("x,x"))
document = parse(
    "<r>" + "".join("<%s><x/></%s>" % (label, label) for label in labels)
    + "</r>"
)
report = DTDCastValidator(pair).validate(document)
print(report.valid, report.reason, repr(report.path))
"""


def _disjoint_answer_under_hash_seed(hash_seed: str) -> str:
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _DISJOINT_SCRIPT], env=env, cwd=root,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return result.stdout


class TestHashSeedIndependence:
    def test_disjoint_label_answer_under_two_hash_seeds(self):
        """The first disjoint label is reported in sorted order, so the
        answer does not move with ``PYTHONHASHSEED``."""
        first = _disjoint_answer_under_hash_seed("0")
        assert _disjoint_answer_under_hash_seed("1") == first
        assert first == (
            "False label 'a0' has disjoint source/target types '0'\n"
        )


class TestRandomDTDPairs:
    def test_verdicts_agree_with_full_validation_and_the_cast(self):
        """On random DTD-style pairs, every mode of the label-index cast
        answers a source-valid document as full validation and every
        mode of the tree cast do."""
        rng = random.Random(7)
        modes = [
            {"use_string_cast": string_cast, "collect_stats": counted}
            for string_cast in (True, False)
            for counted in (True, False)
        ]
        documents = 0
        for pair in random_pairs(rng, 400):
            if not (is_dtd_schema(pair.source)
                    and is_dtd_schema(pair.target)):
                continue
            for _ in range(3):
                document = sample_document(rng, pair.source)
                if document is None:
                    break
                expected = validate_document(pair.target, document).valid
                for mode in modes:
                    assert CastValidator(pair, **mode).validate(
                        document
                    ).valid == expected
                    assert DTDCastValidator(pair, **mode).validate(
                        document
                    ).valid == expected
                documents += 1
        assert documents >= 300
