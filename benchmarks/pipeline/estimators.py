"""Noise-robust estimators shared by the runner, the comparer and the tests.

The box this benchmark is sized for suffers one-sided interference: a
timed section is never faster than the quiet machine allows, only
slower, and the slow-down changes from second to second.  The minimum
over repeated rounds therefore converges on the quiet-machine time,
where a median tracks the neighbours' load.
"""

from __future__ import annotations

import statistics
from typing import Sequence


def best_of(samples: Sequence[float], better: str = "lower") -> float:
    """The best of R rounds of a batch phase."""
    if not samples:
        raise ValueError("best_of needs at least one round")
    return min(samples) if better == "lower" else max(samples)


def per_item_min(rounds: Sequence[Sequence[float]]) -> list[float]:
    """Per-request minimum over rounds that replayed one schedule.

    Rounds may differ in length (an open-loop round ends on the clock);
    only the prefix every round completed is kept, so each output item
    is a minimum over all rounds.
    """
    if not rounds:
        raise ValueError("per_item_min needs at least one round")
    common = min(len(items) for items in rounds)
    return [min(items[index] for items in rounds) for index in range(common)]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a sample."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def schedule_quantile(
    rounds: Sequence[Sequence[float]], q: float = 0.5
) -> float:
    """The latency estimator: per-request min over rounds, then quantile."""
    return quantile(per_item_min(rounds), q)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's test)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(third - first) / abs(median) if median else float("inf")
