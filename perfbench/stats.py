"""Percentiles and spreads, written here so the benchmark owns its maths.

``percentile`` interpolates linearly between closest ranks (the
"inclusive" definition, numpy's default): for ``n`` sorted samples the
``q``-th percentile sits at rank ``(n - 1) * q / 100``.

``quartile_spread`` is the steadiness figure checked against each
metric's bound: the distance between the first and third quartile as a
share of the median, with quartiles from
``statistics.quantiles(values, n=4)`` (the "exclusive" method).
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``, interpolated."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    fraction = rank - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)


def samples_beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        raise ValueError("a spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return math.inf
    return (q3 - q1) / abs(median)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sample (a layer that never ran)."""
    return math.fsum(values) / len(values) if values else 0.0
