"""Percentiles with the ledger's sample-count rule."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer make it the maximum of a handful of values.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it (the median of a small sample is still allowed: half the
    samples lie beyond it).
    """
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if n == 0 or (q > 50 and beyond < MIN_BEYOND):
        raise ValueError(
            f"p{q:g} of {n} samples has {max(beyond, 0)} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    return sorted(values)[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

