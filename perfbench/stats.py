"""Order statistics the benchmark reports.

Timings are reported as a median and as the highest percentile that
still has at least ten samples beyond it, so a tail figure is never
read off a handful of points.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Tail percentiles tried, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], pct: float) -> tuple[float, int]:
    """Nearest-rank ``pct`` percentile of sorted data: ``(value, beyond)``.

    ``beyond`` counts the samples ranked above the returned one.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty sample")
    rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
    return sorted_values[rank - 1], n - rank


def tail_percentile(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest candidate percentile with >= ``MIN_BEYOND`` samples beyond.

    Returns ``(pct, value, beyond)``.  A sample too small for even the
    median to qualify falls back to the median and reports how few
    samples lie beyond it.
    """
    ordered = sorted(values)
    for pct in TAIL_CANDIDATES:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= MIN_BEYOND:
            return pct, value, beyond
    value, beyond = nearest_rank(ordered, 50.0)
    return 50.0, value, beyond


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
