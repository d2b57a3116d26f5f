"""Rendering and persistence for the benchmark harness.

Every experiment prints a fixed-width table with the paper's reported
numbers (where the paper reports any) next to our measurements, so the
shape comparison is visible directly in the bench output and can be
pasted into EXPERIMENTS.md.  :func:`update_bench_json` additionally
persists machine-readable records (``BENCH_cast.json`` at the repo
root) that CI uploads as an artifact.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable, Mapping, Optional, Sequence

from repro.kernel import backend_name


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    note: str = "",
) -> str:
    """Render rows as a fixed-width table with a title banner."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"== {title} =="]
    lines.append(
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in materialized:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell >= 100:
            return f"{cell:,.0f}"
        if cell >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)


def render_csv(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV rendering of the same rows (for plotting elsewhere)."""
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(str(cell) for cell in row))
    return "\n".join(lines)


def update_bench_json(
    path: str,
    entries: Mapping[str, Mapping[str, object]],
    *,
    source: str,
    chain_length: Optional[int] = None,
) -> str:
    """Merge benchmark records into the machine-readable results file.

    ``entries`` maps a benchmark name to its JSON-serializable record;
    each record is stamped with ``source`` (the emitting script),
    ``cpu_count`` (``os.cpu_count()`` of the measuring machine, so a
    scaling number can never be read without its hardware context), and
    ``kernel_backend`` (always ``py``; older records may say
    ``compiled``, from a since-removed C backend).
    The file layout is ``{"version": 1, "results": {name: record}}``;
    records for benchmarks not named in ``entries`` are preserved, so
    several scripts can share one file.  A missing or corrupt file is
    started fresh, and the write goes through a temporary file plus
    atomic rename so a crash never leaves half-written JSON.

    Returns ``path``.
    """
    results: dict[str, object] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        if isinstance(loaded, dict) and isinstance(
            loaded.get("results"), dict
        ):
            results = dict(loaded["results"])
    except (OSError, ValueError):
        pass
    for name, record in entries.items():
        stamped = {
            **record,
            "source": source,
            "cpu_count": os.cpu_count(),
            "kernel_backend": backend_name(),
        }
        if chain_length is not None:
            # Evolution-chain records carry the schema count, so a
            # chain speedup is never read without knowing n.
            stamped["chain_length"] = chain_length
        results[name] = stamped
    data = {"version": 1, "results": results}
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return path
