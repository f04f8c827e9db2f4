"""Small arithmetic helpers: percentiles and safe ratios."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100), linearly interpolated.

    Matches ``statistics.quantiles(values, n=100, method="inclusive")`` at
    whole percentiles, and is defined for one sample too.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0

