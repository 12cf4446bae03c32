"""Throughput and latency statistics over transaction outcomes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.protocols.base import TxnOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.streaming import StreamingStats


def throughput(outcomes: Sequence[TxnOutcome], committed_only: bool = True) -> float:
    """Transactions per second over the outcomes' makespan.

    The makespan runs from the earliest submission to the last client
    reply — the window the paper's "distributed transactions per
    second" figure measures.
    """
    pool = [o for o in outcomes if o.committed] if committed_only else list(outcomes)
    if not pool:
        return 0.0
    start = min(o.submitted_at for o in pool)
    end = max(o.replied_at for o in pool)
    if end <= start:
        # Degenerate window (every outcome shares one timestamp): there
        # is no elapsed time to divide by, so report zero rather than
        # infinity leaking into downstream tables.
        return 0.0
    return len(pool) / (end - start)


@dataclass(frozen=True)
class LatencyStats:
    """Summary of client-perceived latencies.

    ``mode`` records how the quantiles were computed: ``"exact"`` (the
    historical full-sort path, byte-identical to every committed
    baseline) or ``"sketch"`` (bounded-memory estimate for
    million-transaction runs — see :mod:`repro.analysis.streaming`).
    """

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float
    mode: str = "exact"

    @staticmethod
    def from_outcomes(outcomes: Iterable[TxnOutcome]) -> "LatencyStats":
        from repro.analysis.streaming import StreamingStats

        stats = StreamingStats()
        for outcome in outcomes:
            stats.observe(outcome.client_latency)
        if stats.count == 0:
            raise ValueError("no outcomes to summarise")
        return LatencyStats.from_streaming(stats)

    @staticmethod
    def from_streaming(stats: "StreamingStats") -> "LatencyStats":
        """Finalise a streaming accumulator.

        In exact mode this reproduces the legacy list computation
        bit-for-bit: sort the raw values, sum the *sorted* values for
        the mean, interpolate percentiles over the sorted list.  In
        sketch mode the moments come from the Welford accumulators and
        the quantiles from the bottom-k sample.
        """
        if stats.count == 0:
            raise ValueError("no observations to summarise")
        if stats.mode == "exact":
            values = sorted(stats.values)
            # A plain left-to-right sum, as ``sum()`` added before
            # Python 3.12 (whose ``sum()`` compensates rounding and
            # would move the mean's last bits, and the goldens with it).
            total: float = 0
            for value in values:
                total += value
            return LatencyStats(
                count=len(values),
                mean=total / len(values),
                minimum=values[0],
                maximum=values[-1],
                p50=percentile(values, 50.0),
                p95=percentile(values, 95.0),
                p99=percentile(values, 99.0),
            )
        return LatencyStats(
            count=stats.count,
            mean=stats.mean,
            minimum=stats.minimum,
            maximum=stats.maximum,
            p50=stats.quantile(50.0),
            p95=stats.quantile(95.0),
            p99=stats.quantile(99.0),
            mode="sketch",
        )


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank-interpolated percentile.

    Sorts internally: the historical signature took pre-sorted input
    and silently returned garbage otherwise.  Sorting an already-sorted
    sequence is O(n) (timsort), so the exact hot paths that pass sorted
    data pay only a verification scan.
    """
    if not values:
        raise ValueError("empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    if len(values) == 1:
        return values[0]
    ordered = sorted(values)
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    value = ordered[low] * (1.0 - frac) + ordered[high] * frac
    # Guard against 1-ulp interpolation overshoot on extreme floats.
    return min(max(value, ordered[low]), ordered[high])


def abort_rate(outcomes: Sequence[TxnOutcome]) -> float:
    """Fraction of transactions that aborted."""
    if not outcomes:
        return 0.0
    return sum(1 for o in outcomes if not o.committed) / len(outcomes)
