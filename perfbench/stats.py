"""Summary statistics shared by the runner and the spread check."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples, beyond=TAIL_BEYOND):
    """Value at the highest percentile that still has `beyond` samples
    above it, as (value, percentile, sample count).

    With the samples sorted, that is the one at index n - beyond - 1; its
    nearest-rank percentile is 100 * (index + 1) / n.  Fewer than
    beyond + 1 samples have no such percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    i = n - beyond - 1
    return xs[i], 100.0 * (i + 1) / n, n


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")
