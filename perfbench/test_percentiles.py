"""The percentile rule: the highest percentile with ten samples beyond it."""

import pytest

from percentiles import percentile, samples_beyond, tail_percentile


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([3.0], 90) == 3.0
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(20, 50) == 10


@pytest.mark.parametrize("n, expected", [
    (10_000, 90),  # capped at the metric's p90
    (100, 90),
    (99, 89),  # p90 would leave only nine samples beyond it
    (40, 75),
    (20, 50),
    (19, 50),  # no tail has ten samples beyond it: the median
    (1, 50),
])
def test_tail_percentile(n, expected):
    p = tail_percentile(n)
    assert p == expected
    if n >= 20:
        assert samples_beyond(n, p) >= 10
        assert p == 90 or samples_beyond(n, p + 1) < 10
