"""Order statistics shared by the benchmark: medians, the tail-percentile
rule and the quartile spread used to judge run-to-run steadiness."""

from __future__ import annotations

import math
import statistics

TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """Latency at the highest percentile that leaves at least `min_beyond`
    samples strictly above it.

    Returns (value, percentile, sample count). With n sorted samples the
    value is the (n - min_beyond)-th smallest, i.e. the percentile
    100 * (n - min_beyond) / n. With too few samples for any such
    percentile the maximum is returned, labelled as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= min_beyond:
        return float(ordered[-1]), 100.0, n
    k = n - min_beyond
    return float(ordered[k - 1]), 100.0 * k / n, n


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q2 == 0:
        return math.inf
    return (q3 - q1) / abs(q2)
