"""The tail-percentile rule: the highest percentile with >= 10 samples beyond."""

from perfbench.stats import nearest_rank, quartile_spread, tail_percentile


def test_p99_needs_ten_samples_beyond():
    values = list(range(1000))
    assert tail_percentile(values) == (99.0, 989, 10)


def test_falls_back_when_p99_has_too_few_beyond():
    values = list(range(999))
    pct, value, beyond = tail_percentile(values)
    assert (pct, value, beyond) == (95.0, 949, 49)


def test_p999_when_the_sample_is_large():
    pct, _value, beyond = tail_percentile(list(range(20000)))
    assert pct == 99.9 and beyond == 20


def test_small_sample_reports_the_median_and_its_count():
    pct, value, beyond = tail_percentile([5.0, 1.0, 3.0])
    assert (pct, value, beyond) == (50.0, 3.0, 1)


def test_nearest_rank_is_order_based():
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == (2.0, 2)
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 100.0) == (4.0, 0)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert round(quartile_spread([float(v) for v in range(1, 11)]), 6) == round(5.5 / 5.5, 6)
