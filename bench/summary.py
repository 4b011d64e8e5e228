"""Order statistics shared by the worker, the driver and the comparer."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def median(values: Sequence[float]) -> float:
    """Median, 0.0 for an empty sample (a layer the workload never calls)."""
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """The *p*-th percentile by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0.0 if median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0
