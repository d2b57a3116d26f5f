"""Experiment runners behind the benchmark suite.

Each ``run_*`` function reproduces one table or figure of the paper (or
one ablation from DESIGN.md) and returns structured rows; the pytest
benchmarks time the hot loops, and the ``__main__`` harness
(``python -m repro.bench.harness``) prints every paper artifact with the
paper's numbers alongside ours.

Timing here is wall-clock ``perf_counter`` over ``repeat`` runs taking
the minimum — adequate for the shape claims (constant vs linear, who is
faster); statistical rigor for single numbers comes from
pytest-benchmark in ``benchmarks/``.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Sequence

from repro.baselines.full import FullValidator
from repro.baselines.preprocessed import PreprocessedIncrementalValidator
from repro.core.cast import CastValidator, cast_text
from repro.core.castmods import CastWithModificationsValidator
from repro.core.dtdcast import DTDCastValidator
from repro.core.updates import UpdateSession
from repro.core.validator import validate_text
from repro.schema.registry import SchemaPair
from repro.workloads import purchase_orders as po
from repro.xmltree.serializer import serialize
from repro.bench.reporting import render_table


def time_call(fn: Callable[[], object], *, repeat: int = 5) -> float:
    """Minimum wall-clock seconds over ``repeat`` invocations."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- E1/E2: Figures 3a and 3b -----------------------------------------------------

def _run_figure3(pair: SchemaPair, item_counts: Sequence[int], repeat: int):
    """One Figure 3 series over ``pair``: the DOM walks on the built
    order (the paper's setting) and the text routes on the serialized
    order, bytes in to verdict out (what the product runs) — the
    default ``cast_text``, ``cast_text(trusted=True)`` and
    ``validate_text`` under the target."""
    pair.warm()
    cast = CastValidator(pair)
    full = FullValidator(pair.target)

    def timed(fn):
        return time_call(fn, repeat=repeat) * 1e3

    rows = []
    for count in item_counts:
        doc = po.make_purchase_order(count)
        text = serialize(doc, indent="  ")
        cast_report = cast.validate(doc)
        full_report = full.validate(doc)
        assert cast_report.valid and full_report.valid
        assert cast_text(pair, text).valid
        assert cast_text(pair, text, trusted=True).valid
        assert validate_text(pair.target, text).valid
        rows.append(
            {
                "items": count,
                "cast_ms": timed(lambda: cast.validate(doc)),
                "full_ms": timed(lambda: full.validate(doc)),
                "cast_nodes": cast_report.stats.nodes_visited,
                "full_nodes": full_report.stats.nodes_visited,
                "cast_text_ms": timed(lambda: cast_text(pair, text)),
                "trusted_ms": timed(
                    lambda: cast_text(pair, text, trusted=True)
                ),
                "validate_text_ms": timed(
                    lambda: validate_text(pair.target, text)
                ),
            }
        )
    return rows


def _report_figure3_text(title: str, rows) -> str:
    return render_table(
        f"{title}, on text",
        ["items", "cast_text ms", "trusted ms", "validate_text ms",
         "speedup", "trusted speedup"],
        [
            [
                row["items"],
                row["cast_text_ms"],
                row["trusted_ms"],
                row["validate_text_ms"],
                row["validate_text_ms"] / max(row["cast_text_ms"], 1e-9),
                row["validate_text_ms"] / max(row["trusted_ms"], 1e-9),
            ]
            for row in rows
        ],
        note=(
            "speedups over validate_text; the product runs the default "
            "cast_text, which drains subsumed subtrees with every "
            "well-formedness check; trusted=True (API only) "
            "byte-searches past them"
        ),
    )


def run_experiment1(
    item_counts: Sequence[int] = po.PAPER_ITEM_COUNTS, *, repeat: int = 5
):
    """Figure 3a: validation time vs item count, billTo optional→required."""
    return _run_figure3(
        SchemaPair(po.source_schema_experiment1(),
                   po.target_schema_experiment1()),
        item_counts, repeat,
    )


def report_experiment1(rows) -> str:
    title = "Figure 3a — Experiment 1: billTo optional -> required"
    dom = render_table(
        title,
        ["items", "cast ms", "full ms", "speedup",
         "cast nodes", "full nodes"],
        [
            [
                row["items"],
                row["cast_ms"],
                row["full_ms"],
                row["full_ms"] / max(row["cast_ms"], 1e-9),
                row["cast_nodes"],
                row["full_nodes"],
            ]
            for row in rows
        ],
        note=(
            "paper: cast time constant in document size, full validation "
            "linear (no absolute times reported in the text)"
        ),
    )
    return dom + "\n\n" + _report_figure3_text(title, rows)


def run_experiment2(
    item_counts: Sequence[int] = po.PAPER_ITEM_COUNTS, *, repeat: int = 5
):
    """Figure 3b: quantity maxExclusive 200 -> 100."""
    return _run_figure3(
        SchemaPair(po.source_schema_experiment2(),
                   po.target_schema_experiment2()),
        item_counts, repeat,
    )


def report_experiment2(rows) -> str:
    title = "Figure 3b — Experiment 2: quantity maxExclusive 200 -> 100"
    dom = render_table(
        title,
        ["items", "cast ms", "full ms", "speedup"],
        [
            [
                row["items"],
                row["cast_ms"],
                row["full_ms"],
                row["full_ms"] / max(row["cast_ms"], 1e-9),
            ]
            for row in rows
        ],
        note="paper: both linear; schema cast about 30% faster than Xerces",
    )
    return dom + "\n\n" + _report_figure3_text(title, rows)


# -- E3: Table 2 -----------------------------------------------------------------

def run_table2(item_counts: Sequence[int] = po.PAPER_ITEM_COUNTS):
    """Table 2: serialized file sizes of the input documents."""
    rows = []
    for count in item_counts:
        size = po.document_size_bytes(po.make_purchase_order(count))
        rows.append(
            {
                "items": count,
                "bytes": size,
                "paper_bytes": po.PAPER_TABLE2_FILE_SIZES[count],
            }
        )
    return rows


def report_table2(rows) -> str:
    return render_table(
        "Table 2 — input document file sizes",
        ["items", "ours (bytes)", "paper (bytes)", "ratio"],
        [
            [
                row["items"],
                row["bytes"],
                row["paper_bytes"],
                row["bytes"] / row["paper_bytes"],
            ]
            for row in rows
        ],
        note=(
            "absolute sizes differ by a constant factor (whitespace and "
            "address text); linear growth per item matches"
        ),
    )


# -- E4: Table 3 -----------------------------------------------------------------

def run_table3(item_counts: Sequence[int] = po.PAPER_ITEM_COUNTS):
    """Table 3: nodes traversed during validation in Experiment 2, by
    the DOM walks on the built order and by the kernel (``cast_text``,
    ``validate_text``) on its serialization."""
    pair = SchemaPair(
        po.source_schema_experiment2(), po.target_schema_experiment2()
    )
    cast = CastValidator(pair)
    full = FullValidator(pair.target)
    rows = []
    for count in item_counts:
        doc = po.make_purchase_order(count)
        text = serialize(doc, indent="  ")
        paper_cast, paper_full = po.PAPER_TABLE3_NODES[count]
        rows.append(
            {
                "items": count,
                "cast_nodes": cast.validate(doc).stats.nodes_visited,
                "full_nodes": full.validate(doc).stats.nodes_visited,
                "paper_cast": paper_cast,
                "paper_full": paper_full,
                "cast_text_nodes": cast_text(pair, text).stats.nodes_visited,
                "validate_text_nodes": (
                    validate_text(pair.target, text).stats.nodes_visited
                ),
            }
        )
    return rows


def report_table3(rows) -> str:
    title = "Table 3 — nodes traversed in Experiment 2"
    dom = render_table(
        title,
        ["items", "cast", "full", "ours ratio",
         "paper cast", "paper full", "paper ratio"],
        [
            [
                row["items"],
                row["cast_nodes"],
                row["full_nodes"],
                row["cast_nodes"] / row["full_nodes"],
                row["paper_cast"],
                row["paper_full"],
                row["paper_cast"] / row["paper_full"],
            ]
            for row in rows
        ],
        note=(
            "both columns linear in item count and cast < full, as in the "
            "paper; our counters exclude the DOM-navigation nodes Xerces "
            "counts, hence a lower absolute ratio"
        ),
    )
    text = render_table(
        f"{title}, on text",
        ["items", "cast_text", "validate_text", "ratio"],
        [
            [
                row["items"],
                row["cast_text_nodes"],
                row["validate_text_nodes"],
                row["cast_text_nodes"] / row["validate_text_nodes"],
            ]
            for row in rows
        ],
        note="the kernel counts the nodes the DOM walks count",
    )
    return dom + "\n\n" + text


# -- A5: tree modifications ablation ----------------------------------------------

def run_tree_modifications(
    item_count: int = 200,
    edit_counts: Sequence[int] = (1, 5, 25, 100),
    *,
    seed: int = 42,
    repeat: int = 3,
):
    """Cast-with-modifications vs full revalidation vs preprocessing
    incremental validator, sweeping the number of edits."""
    schema = po.target_schema_experiment2()
    pair = SchemaPair(schema, schema)
    pair.warm()
    validator = CastWithModificationsValidator(pair)
    full = FullValidator(schema)
    rows = []
    for edits in edit_counts:
        rng = random.Random(seed)

        def edited_session():
            doc = po.make_purchase_order(item_count)
            session = UpdateSession(doc)
            items = session.document.root.find("items")
            for i in range(edits):
                item = items.children[rng.randrange(len(items.children))]
                quantity = item.find("quantity")
                session.replace_text(
                    quantity.children[0], str(1 + rng.randrange(99))
                )
            return session

        session = edited_session()
        report = validator.validate(session)
        assert report.valid
        result = session.result_document()
        cast_ms = time_call(lambda: validator.validate(session),
                            repeat=repeat) * 1e3
        full_ms = time_call(lambda: full.validate(result),
                            repeat=repeat) * 1e3
        # Memory: preprocessing validator must annotate every element.
        preprocessor = PreprocessedIncrementalValidator(schema)
        preprocessor.preprocess(po.make_purchase_order(item_count))
        rows.append(
            {
                "edits": edits,
                "cast_ms": cast_ms,
                "full_ms": full_ms,
                "cast_nodes": report.stats.nodes_visited,
                "full_nodes": full.validate(result).stats.nodes_visited,
                "preproc_cells": preprocessor.memory_cells(),
                "pair_state": len(pair.r_sub) + len(pair.r_nondis),
            }
        )
    return rows


def report_tree_modifications(rows) -> str:
    return render_table(
        "A5 — cast-with-modifications vs full revalidation "
        "(200-item document)",
        ["edits", "cast ms", "full ms", "cast nodes", "full nodes",
         "preproc cells", "schema-pair cells"],
        [
            [
                row["edits"],
                row["cast_ms"],
                row["full_ms"],
                row["cast_nodes"],
                row["full_nodes"],
                row["preproc_cells"],
                row["pair_state"],
            ]
            for row in rows
        ],
        note=(
            "the preprocessing baseline holds per-node state (grows with "
            "the document); the schema-pair state does not"
        ),
    )


# -- A3: DTD label-index mode -----------------------------------------------------

def _dtd_index_pair() -> SchemaPair:
    """DTD-style pair where only the item *value* type narrows (string →
    positiveInteger): every item instance needs a check, nothing else."""
    from repro.schema.model import Schema, complex_type
    from repro.schema.simple import builtin

    def build(item_type, name):
        return Schema(
            {
                "po": complex_type("po", "(shipTo,billTo,items)", {
                    "shipTo": "addr", "billTo": "addr", "items": "items",
                }),
                "addr": complex_type("addr", "(name)", {"name": "text"}),
                "items": complex_type("items", "(item*)", {"item": "item"}),
                "item": item_type,
                "text": builtin("string"),
            },
            {"po": "po"},
            name=name,
        )

    return SchemaPair(
        build(builtin("string"), "dtd-item-string"),
        build(builtin("positiveInteger"), "dtd-item-int"),
    )


def run_dtd_index(sizes: Sequence[int] = (10, 100, 1000), *, repeat: int = 5):
    pair = _dtd_index_pair()
    tree_cast = CastValidator(pair)
    index_cast = DTDCastValidator(pair)
    full = FullValidator(pair.target)
    rows = []
    from repro.xmltree.dom import Document, element

    for count in sizes:
        doc = Document(
            element(
                "po",
                element("shipTo", element("name", "a")),
                element("billTo", element("name", "b")),
                element(
                    "items",
                    *(element("item", str(i + 1)) for i in range(count)),
                ),
            )
        )
        doc.elements_with_label("item")  # build the index up front
        tree_report = tree_cast.validate(doc)
        index_report = index_cast.validate(doc)
        full_report = full.validate(doc)
        assert (tree_report.valid == index_report.valid
                == full_report.valid is True)
        rows.append(
            {
                "items": count,
                "tree_ms": time_call(lambda: tree_cast.validate(doc),
                                     repeat=repeat) * 1e3,
                "index_ms": time_call(lambda: index_cast.validate(doc),
                                      repeat=repeat) * 1e3,
                "full_ms": time_call(lambda: full.validate(doc),
                                     repeat=repeat) * 1e3,
                "tree_nodes": tree_report.stats.nodes_visited,
                "index_nodes": index_report.stats.nodes_visited,
                "full_nodes": full_report.stats.nodes_visited,
            }
        )
    return rows


def report_dtd_index(rows) -> str:
    return render_table(
        "A3 — DTD label-index mode vs tree-walk cast vs full validation",
        ["items", "index ms", "tree ms", "full ms",
         "index nodes", "tree nodes", "full nodes"],
        [[row["items"], row["index_ms"], row["tree_ms"], row["full_ms"],
          row["index_nodes"], row["tree_nodes"], row["full_nodes"]]
         for row in rows],
        note=(
            "only the item value type changed: the label index jumps "
            "straight to item instances; the tree walk additionally "
            "descends through po/items; full validation re-checks "
            "everything (Section 3.4)"
        ),
    )


def main() -> None:  # pragma: no cover - exercised via CLI
    print(report_table2(run_table2()))
    print()
    print(report_experiment1(run_experiment1()))
    print()
    print(report_experiment2(run_experiment2()))
    print()
    print(report_table3(run_table3()))
    print()
    print(report_tree_modifications(run_tree_modifications()))
    print()
    print(report_dtd_index(run_dtd_index()))


if __name__ == "__main__":  # pragma: no cover
    main()
