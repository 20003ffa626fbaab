"""Estimator unit tests: best-of-R, per-request min then quantile."""

from __future__ import annotations

import pytest

from calibration import Clock, Timing
from estimators import (
    best_of,
    per_item_min,
    quantile,
    schedule_quantile,
    spread,
)


def test_best_of_takes_the_quiet_round():
    assert best_of([1.4, 1.0, 1.9]) == 1.0
    assert best_of([1200.0, 1500.0, 900.0], "higher") == 1500.0
    with pytest.raises(ValueError):
        best_of([])


def test_per_item_min_is_per_request_not_per_round():
    rounds = [[5.0, 1.0, 9.0], [2.0, 4.0, 3.0]]
    assert per_item_min(rounds) == [2.0, 1.0, 3.0]


def test_per_item_min_keeps_the_prefix_every_round_completed():
    assert per_item_min([[3.0, 2.0, 1.0], [1.0, 5.0]]) == [1.0, 2.0]


def test_quantile_interpolates():
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert quantile([4.0, 1.0, 3.0], 0.5) == 3.0
    assert quantile([7.0], 0.95) == 7.0
    assert quantile([0.0, 10.0], 0.95) == pytest.approx(9.5)


def test_schedule_quantile_is_min_then_quantile():
    # One slow round must not move the estimate: the per-request
    # minimum drops it before the quantile is taken.
    quiet = [1.0, 2.0, 3.0, 4.0, 5.0]
    noisy = [value * 3 for value in quiet]
    assert schedule_quantile([noisy, quiet, noisy]) == 3.0
    # The median of per-round medians would have said 9.
    assert sorted(quantile(r, 0.5) for r in (noisy, quiet, noisy))[1] == 9.0


def test_spread_is_the_drivers_interquartile_share():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert spread([5.0]) == 0.0


def test_clock_brackets_sections_and_never_reports_a_speedup():
    clock = Clock()
    with clock.section() as first:
        pass
    with clock.section() as second:
        pass
    assert first.after == second.before  # back-to-back sections share it
    assert len(clock.samples) == 3
    assert first.seconds >= 0 and first.before > 0 and first.after > 0
    clock.samples[:] = [0.010, 0.011, 0.010, 0.020, 0.021]
    assert clock.reference() == 0.010
    # The faster bracket sample decides: one disturbed sample, or a
    # spell ending mid-section, must not over-discount.
    assert clock.slowdown(Timing(1.0, 0.020, 0.021)) == pytest.approx(2.0)
    assert clock.slowdown(Timing(1.0, 0.030, 0.010)) == 1.0
    # A quiet machine is reported exactly as measured.
    assert clock.slowdown(Timing(1.0, 0.009, 0.009)) == 1.0
