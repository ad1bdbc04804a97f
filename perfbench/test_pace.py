"""Scaling raw times by the machine speed measured around them."""

import time

import pytest

from pace import REFERENCE_S, Pace


def paced(times, samples):
    pace = Pace(loop=lambda: REFERENCE_S)
    pace.times, pace.samples = list(times), list(samples)
    return pace


FAST = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
SLOW = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0]


def test_scale_is_reference_over_the_local_median_loop_time():
    pace = paced(FAST + SLOW, [REFERENCE_S] * 6 + [2 * REFERENCE_S] * 6)
    assert pace.scale(0.5, 0.6) == pytest.approx(1.0)
    assert pace.scale(10.5, 10.6) == pytest.approx(0.5)
    assert pace.scaled([(10.5, 10.6, 0.4)]) == [pytest.approx(0.2)]


def test_scale_widens_to_the_nearest_samples_when_none_are_close():
    pace = paced(FAST + SLOW, [REFERENCE_S] * 6 + [2 * REFERENCE_S] * 6)
    # an interval between the two groups sees five samples on each side
    assert pace.scale(4.0, 7.0) == pytest.approx(REFERENCE_S / (1.5 * REFERENCE_S))


def test_sampling_on_the_timer_is_kept_out_of_the_clock():
    pace = Pace()
    with pace.running():
        before = pace.clock()
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
        after = pace.clock()
    assert len(pace.samples) >= 3 and pace.times == sorted(pace.times)
    assert after - before == pytest.approx(0.3 - sum(pace.samples), abs=0.05)
    assert pace.stolen >= sum(pace.samples)
