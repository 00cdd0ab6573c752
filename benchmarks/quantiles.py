"""Order statistics shared by the runner and the compare tool."""

from __future__ import annotations

import statistics

TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def tail_percentile(n):
    """Highest percentile in ``TAIL_PERCENTILES`` that leaves at least
    ``MIN_BEYOND`` of ``n`` samples beyond it, or None if none does."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def percentile(values, p):
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3
