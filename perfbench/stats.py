"""Order statistics shared by the benchmark and its baseline collector."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order statistics.

    This is numpy's default ("linear") method: rank (n - 1) * q / 100.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    rank = (len(data) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(values, n=4)`` gives them."""
    data = list(values)
    if not data:
        raise ValueError("quartiles of an empty sample")
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
