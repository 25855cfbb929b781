"""The benchmark's percentile, spread and host-speed code, on hand-computed cases."""

import statistics

import pytest

from hostspeed import REFERENCE_S, HostSpeed, kernel
from stats import mean, percentile, quartile_spread, samples_beyond
from steadiness import worsening


def test_percentile_interpolates_between_ranks():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    # rank (5 - 1) * 0.95 = 3.8: 4 + 0.8 * (5 - 4)
    assert percentile([5, 1, 4, 2, 3], 95) == pytest.approx(4.8)
    assert percentile([1, 2, 3, 4, 5], 0) == 1
    assert percentile([1, 2, 3, 4, 5], 100) == 5


def test_percentile_of_one_sample():
    assert percentile([7.5], 95) == 7.5


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_samples_beyond_p95_needs_about_two_hundred_samples():
    # rank 199 * 0.95 = 189.05, so 190..199 lie above: ten samples
    assert samples_beyond(list(range(200)), 95) == 10
    assert samples_beyond(list(range(180)), 95) == 9


def test_quartile_spread_matches_statistics_quantiles():
    # exclusive quartiles of 1..5 sit at 1.5 and 4.5, the median at 3
    assert quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(1.0)
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.05]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )


def test_mean_of_nothing_is_zero():
    assert mean([]) == 0.0
    assert mean([1.0, 2.0, 4.5]) == pytest.approx(2.5)


def test_worsening_follows_the_better_direction():
    lower, higher = {"better": "lower"}, {"better": "higher"}
    assert worsening(lower, 100.0, 125.0) == pytest.approx(0.25)
    assert worsening(lower, 100.0, 80.0) == pytest.approx(-0.2)
    assert worsening(higher, 100.0, 80.0) == pytest.approx(0.2)
    assert worsening(higher, 100.0, 125.0) == pytest.approx(-0.25)


def test_host_speed_factor_is_reference_over_mean_probe():
    speed = HostSpeed([REFERENCE_S / 2, REFERENCE_S / 2 * 3])
    # mean probe = REFERENCE_S, so host seconds are reference seconds
    assert speed.factor() == pytest.approx(1.0)
    assert HostSpeed([REFERENCE_S * 2]).factor() == pytest.approx(0.5)


def test_host_speed_kernel_does_fixed_work():
    assert kernel() == kernel()
    speed = HostSpeed()
    speed.probe()
    assert len(speed.probes) == 1 and speed.probes[0] > 0
