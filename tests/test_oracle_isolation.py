"""The reference oracles stay out of the product.

:mod:`repro.core.reference` (the event-walk schema cast) and
:mod:`repro.xmltree.reference` (the retired lexer) exist only so the
equivalence fuzzers and two benchmark gates can compare the engine
against them.  An oracle the engine itself calls stops being an
independent check, so no module under ``src/repro`` other than the two
oracles may import either of them — directly, relatively, or by name
through ``importlib``.

The event parser (:mod:`repro.xmltree.events`) is the substrate of the
event-walk oracle.  The product validates text with the fused kernel
and trees with the tree parser, so no module under ``repro.core``,
``repro.service`` or ``repro.cli`` other than the oracle may import it,
or a name ``repro.xmltree`` re-exports from it (``iterparse`` stays
public API of :mod:`repro.xmltree`).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
import repro.xmltree

ORACLES = ("repro.core.reference", "repro.xmltree.reference")
PACKAGE = Path(repro.__file__).parent

EVENT_PARSER = "repro.xmltree.events"
#: Packages that may not use the event parser.
PRODUCT_PACKAGES = ("repro.core", "repro.service", "repro.cli")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(source: str, module: str, *, is_package: bool = False):
    """Every dotted name ``source`` (the text of ``module``) imports,
    with relative imports resolved, plus every string literal (the
    ``importlib.import_module("...")`` spelling)."""
    package = module if is_package else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def oracle_imports(source: str, module: str, *, is_package: bool = False):
    return sorted(
        {
            name
            for name in imported_names(source, module,
                                       is_package=is_package)
            for oracle in ORACLES
            if name == oracle or name.startswith(oracle + ".")
        }
    )


def event_parser_imports(source: str, module: str, *,
                         is_package: bool = False):
    """The event parser, its members, and the names ``repro.xmltree``
    re-exports from it, as ``source`` imports them."""
    banned = {EVENT_PARSER} | {
        f"repro.xmltree.{name}"
        for name in repro.xmltree.__all__
        if getattr(getattr(repro.xmltree, name), "__module__", None)
        == EVENT_PARSER
    }
    return sorted(
        {
            name
            for name in imported_names(source, module,
                                       is_package=is_package)
            if name in banned or name.startswith(EVENT_PARSER + ".")
        }
    )


def in_product_package(module: str) -> bool:
    return module not in ORACLES and any(
        module == package or module.startswith(package + ".")
        for package in PRODUCT_PACKAGES
    )


def test_no_product_module_imports_the_event_parser():
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        if not in_product_package(module):
            continue
        found = event_parser_imports(
            path.read_text(encoding="utf-8"),
            module,
            is_package=path.name == "__init__.py",
        )
        if found:
            offenders[module] = found
    assert not offenders, (
        f"product modules import the event parser: {offenders}"
    )


def test_event_parser_detector_sees_every_spelling():
    spellings = [
        "from repro.xmltree.events import Characters, StartElement, "
        "iterparse",
        "import repro.xmltree.events",
        "from repro.xmltree import events",
        "from repro.xmltree import iterparse",
        "from ..xmltree.events import PullParser",
        "import importlib\n"
        "importlib.import_module('repro.xmltree.events')",
    ]
    for source in spellings:
        assert event_parser_imports(source, "repro.core.validator"), source
    assert not event_parser_imports(
        "from repro.xmltree import parse\n"
        "from repro.xmltree.lexer import trailing_misc",
        "repro.core.validator",
    )
    assert in_product_package("repro.cli")
    assert in_product_package("repro.service.work")
    assert not in_product_package("repro.core.reference")
    assert not in_product_package("repro.xmltree.parser")


def test_no_product_module_imports_an_oracle():
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        if module in ORACLES:
            continue
        found = oracle_imports(
            path.read_text(encoding="utf-8"),
            module,
            is_package=path.name == "__init__.py",
        )
        if found:
            offenders[module] = found
    assert not offenders, f"product modules import an oracle: {offenders}"


def test_both_oracles_exist():
    # A renamed or moved oracle would make the scan above vacuous.
    for oracle in ORACLES:
        path = PACKAGE.joinpath(*oracle.split(".")[1:]).with_suffix(".py")
        assert path.is_file(), oracle


def test_detector_sees_every_import_spelling():
    spellings = [
        "import repro.core.reference",
        "from repro.core.reference import reference_cast",
        "from repro.core import reference",
        "from repro.xmltree import reference as oracle",
        "from . import reference",
        "from .reference import reference_cast",
        "import importlib\n"
        "importlib.import_module('repro.xmltree.reference')",
    ]
    for source in spellings:
        assert oracle_imports(source, "repro.core.cast"), source
    assert oracle_imports("from ..xmltree import reference",
                          "repro.core.cast")
    assert not oracle_imports(
        "from repro.core import castkernel\n"
        "from repro.xmltree.events import PullParser",
        "repro.core.cast",
    )
