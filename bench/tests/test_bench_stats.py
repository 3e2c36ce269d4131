import statistics

import pytest

import stats


def test_p90_needs_ten_samples_beyond_it():
    # n=100: rank 90, ten samples beyond -> reported.
    assert stats.tail_percentile(list(range(1, 101)), 90) == 90
    # n=99: rank 90, nine beyond -> withheld.
    assert stats.tail_percentile(list(range(1, 100)), 90) is None
    assert stats.tail_percentile([1.0] * 20, 90) is None


def test_nearest_rank_is_a_sample():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.nearest_rank(values, 50) == 3.0
    assert stats.nearest_rank(values, 100) == 5.0
    assert stats.nearest_rank(values, 1) == 1.0


def test_quartiles_match_statistics_quantiles():
    values = [3.1, 2.9, 3.3, 3.0, 3.6, 2.8, 3.2, 3.4, 3.05, 3.15]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == pytest.approx((q1, q2, q3))
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_single_sample_has_no_spread():
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert stats.spread([2.0]) == 0.0
