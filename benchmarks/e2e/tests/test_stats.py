"""The percentile rule: no percentile with fewer than ten samples beyond it."""

import pytest

from benchmarks.e2e import stats


def test_p90_needs_a_hundred_samples():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(99), 0.90)
    assert stats.percentile(range(100), 0.90) == pytest.approx(89.1)


def test_p99_is_refused_on_the_steady_sample_sizes():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(800), 0.99)
    assert stats.percentile(range(1000), 0.99) == pytest.approx(989.01)


def test_rule_can_only_be_relaxed_explicitly():
    assert stats.percentile(range(20), 0.90, min_beyond=2) == pytest.approx(17.1)


def test_median_of_nothing_is_refused():
    with pytest.raises(stats.TooFewSamples):
        stats.median([])


def test_spread_is_interquartile_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert stats.spread(values) == pytest.approx((13.5 - 10.5) / 12.0)


def test_quiet_median_takes_the_fastest_quarter():
    samples = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0]
    assert stats.quiet_median(samples) == 1.5
    assert stats.quiet_median(samples, share=0.5) == 2.5
    assert stats.quiet_median(samples, fastest=False) == 8.5
    assert stats.quiet_median([3.0, 1.0, 2.0]) == 1.0
