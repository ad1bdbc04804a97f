"""Nearest-rank percentiles and the tail rule used for op_p90_ms."""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10  # a tail percentile needs at least this many samples above it


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank p-th percentile: the smallest value with p% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100 * n))


def tail_percentile(n: int, cap: int = 90) -> int:
    """Highest whole percentile <= cap with at least MIN_BEYOND samples beyond it.

    Falls back to the median (50) when fewer than 2 * MIN_BEYOND samples
    exist, since no percentile at or above the median then has enough
    samples beyond it to be a measured tail.
    """
    for p in range(cap, 49, -1):
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return 50
