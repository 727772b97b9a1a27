"""Order statistics shared by the workloads and the spread check."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, sample_count)``.  The value is the
    sample with exactly ten larger samples; with fewer than eleven
    samples no percentile qualifies and the maximum is reported as
    percentile 100.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0, n
    return (float(ordered[n - TAIL_BEYOND - 1]),
            100.0 * (n - TAIL_BEYOND) / n, n)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when flat)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
