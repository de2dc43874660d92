"""Order statistics the report is built from.

A metric is computed once per segment and reported as :func:`quiet` over
the segments: the median over the best fifth of them, which is the decile
on the good side.  On the shared machine the benchmark is gated on,
neighbours slow the CPU in bursts of milliseconds to a minute and never
speed it up, so the median over segments wanders by 10-20% and sits 1.4-1.7x
high for half a minute at a time, while the undisturbed tenth of a long
enough run stays within a few percent (the measurements are in README.md,
"Noise findings").  ``spread`` is the number the acceptance rule and
``compare.py`` use: the distance between the first and third quartile as a
share of the median.
"""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated between
    the two nearest order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quiet_fifth(values: Sequence[float], better: str = "lower") -> list[float]:
    """The fifth of ``values`` on the good side (rounded up, so never
    empty): the lowest where lower is better, the highest where higher
    is."""
    ordered = sorted(values, reverse=better != "lower")
    return ordered[: -(-len(ordered) // 5)]


def quiet(values: Sequence[float], better: str = "lower") -> float:
    """The median over the quiet fifth of ``values``: about the first
    decile where lower is better, the ninth where higher is."""
    return median(quiet_fifth(values, better))


def spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with ``statistics.quantiles(values, n=4)``;
    0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(q2) if q2 else float("inf")


def highest_supported_percentile(n: int) -> float:
    """The highest of p99/p95/p90 that still has ten samples beyond it."""
    for q in (99.0, 95.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10.0:
            return q
    return 50.0
