"""Small, exact statistics helpers (no numpy: values are Python floats)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "best_quartile",
    "median",
    "percentile",
    "quartile_spread",
    "quartiles",
    "samples_beyond",
    "worse_by",
]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p`` % of
    the sample at or below it.  Always an observed value, never interpolated."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"p must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[math.ceil(p / 100.0 * len(ordered)) - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples rank strictly above the nearest-rank
    ``p``-th percentile — the support a reported tail percentile has."""
    return count - math.ceil(p / 100.0 * count)


def best_quartile(values: Sequence[float], better: str) -> float:
    """The quartile on the *better* side (nearest rank): the 25th percentile
    of a lower-is-better sample, the 75th of a higher-is-better one.

    The per-run value of every timing.  Interference on the shared box is
    one-sided — it only ever slows a round — and comes in bursts that flip
    whole rounds between a fast and a slow mode, which makes a median over
    rounds bimodal (README, "Measured noise"); the better quartile stays in
    the fast mode as long as a quarter of the rounds ran undisturbed, and is
    not the single luckiest sample.
    """
    return percentile(values, 25.0 if better == "lower" else 75.0)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]):
    """``(q1, q3)`` exactly as the driver computes them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
