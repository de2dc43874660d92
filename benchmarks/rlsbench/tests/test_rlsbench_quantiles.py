import statistics

import pytest

from quantiles import (
    highest_supported_percentile,
    median,
    percentile,
    quiet,
    quiet_fifth,
    spread,
)


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 25) == pytest.approx(1.75)
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_median_matches_statistics():
    for values in ([1.0], [1.0, 9.0], [5.0, 1.0, 3.0], [1.0, 2.0, 3.0, 100.0]):
        assert median(values) == statistics.median(values)


def test_quiet_is_the_median_over_the_best_fifth():
    # Neighbours only ever slow a segment down: seven disturbed segments
    # out of ten move nothing.
    latencies = [230.0, 300.0, 229.0, 410.0, 280.0, 231.0, 350.0, 330.0, 290.0, 305.0]
    assert quiet_fifth(latencies) == [229.0, 230.0]
    assert quiet(latencies) == 229.5
    rates = [4300.0, 3300.0, 4310.0, 2400.0, 3600.0, 4290.0, 3000.0, 3100.0, 3500.0, 3200.0]
    assert quiet_fifth(rates, "higher") == [4310.0, 4300.0]
    assert quiet(rates, "higher") == 4305.0
    assert quiet_fifth([5.0, 1.0, 2.0, 3.0, 4.0, 6.0]) == [1.0, 2.0]  # rounded up
    assert quiet([7.0]) == 7.0


def test_spread_is_interquartile_distance_over_median():
    values = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert spread([5.0]) == 0.0
    assert spread([]) == 0.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert highest_supported_percentile(1000) == 99.0
    assert highest_supported_percentile(999) == 95.0
    assert highest_supported_percentile(200) == 95.0
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(90) == 50.0
