"""Unit tests for the SAAW aggregation controllers."""

import pytest

from repro.core.aggregation_controller import MIN_AGE, SAAWPolicy
from repro.kernel.errors import ConfigurationError


class TestValidation:
    def test_initial_window_positive(self):
        with pytest.raises(ConfigurationError):
            SAAWPolicy(initial_window_us=0)

    def test_step_bounds(self):
        with pytest.raises(ConfigurationError):
            SAAWPolicy(step=0.0)
        with pytest.raises(ConfigurationError):
            SAAWPolicy(step=1.0)

    def test_clamp_consistency(self):
        with pytest.raises(ConfigurationError):
            SAAWPolicy(min_window_us=10.0, max_window_us=5.0)


class TestModifiedRate:
    def test_higher_count_means_higher_rate(self):
        policy = SAAWPolicy()
        assert policy.modified_rate(10, 100.0) > policy.modified_rate(5, 100.0)

    def test_younger_aggregate_beats_same_raw_rate(self):
        # Same raw rate (count/age); the younger aggregate must score higher.
        policy = SAAWPolicy(age_penalty=1e-3)
        young = policy.modified_rate(5, 50.0)    # raw rate 0.1
        old = policy.modified_rate(10, 100.0)    # raw rate 0.1
        assert young > old

    def test_zero_age_is_floored(self):
        policy = SAAWPolicy()
        assert policy.modified_rate(3, 0.0) == policy.modified_rate(3, MIN_AGE)


class TestAdaptation:
    def test_first_aggregate_holds_window(self):
        policy = SAAWPolicy(initial_window_us=100.0)
        assert policy.next_window(5, 50.0, 100.0) == 100.0

    def test_rising_rate_grows_window(self):
        policy = SAAWPolicy(initial_window_us=100.0, step=0.1)
        policy.next_window(5, 50.0, 100.0)
        assert policy.next_window(10, 50.0, 100.0) == pytest.approx(110.0)

    def test_falling_rate_shrinks_window(self):
        policy = SAAWPolicy(initial_window_us=100.0, step=0.1)
        policy.next_window(10, 50.0, 100.0)
        assert policy.next_window(5, 50.0, 100.0) == pytest.approx(90.0)

    def test_equal_rate_holds(self):
        policy = SAAWPolicy(initial_window_us=100.0)
        policy.next_window(5, 50.0, 100.0)
        assert policy.next_window(5, 50.0, 100.0) == 100.0

    def test_clamps(self):
        policy = SAAWPolicy(initial_window_us=2.0, min_window_us=1.0,
                            max_window_us=4.0, step=0.9)
        policy.next_window(1, 100.0, 2.0)
        # repeated falls hit the floor
        w = 2.0
        for count in (1, 1, 1):
            w = policy.next_window(count, 1000.0, w)
        assert w >= 1.0
        # repeated rises hit the ceiling
        for count in (10, 100, 1000, 10000):
            w = policy.next_window(count, 1.0, w)
        assert w <= 4.0

    def test_initial_window_is_clamped(self):
        policy = SAAWPolicy(initial_window_us=500.0, max_window_us=100.0)
        assert policy.initial_window() == 100.0

    def test_verdicts_track_adaptations(self):
        policy = SAAWPolicy(initial_window_us=100.0)
        verdicts = []
        for count in (5, 10, 5, 5):
            policy.next_window(count, 50.0, 100.0)
            verdicts.append(policy.last_verdict)
        assert verdicts == ["first_aggregate", "rate_rose", "rate_fell",
                            "rate_flat"]
        assert policy.last_rate == policy.modified_rate(5, 50.0)

