"""Unit tests for the bounded-time-window controllers (extension)."""

import pytest

from repro.core.window_controller import (
    UNBOUNDED,
    AdaptiveTimeWindow,
    StaticTimeWindow,
    WindowObservation,
)
from repro.kernel.errors import ConfigurationError


def obs(executed=100, rolled=0):
    return WindowObservation(executed=executed, rolled_back=rolled)


class TestWindowObservation:
    def test_waste_ratio(self):
        assert obs(100, 25).waste == 0.25

    def test_zero_executed_is_zero_waste(self):
        assert obs(0, 0).waste == 0.0


class TestStaticTimeWindow:
    def test_constant(self):
        policy = StaticTimeWindow(42.0)
        assert policy.initial_window() == 42.0
        assert policy.control(obs(100, 99)) == 42.0

    def test_positive_required(self):
        with pytest.raises(ConfigurationError):
            StaticTimeWindow(0.0)


class TestAdaptiveTimeWindow:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveTimeWindow(low_waste=0.5, high_waste=0.2)
        with pytest.raises(ConfigurationError):
            AdaptiveTimeWindow(shrink=1.5)
        with pytest.raises(ConfigurationError):
            AdaptiveTimeWindow(grow=0.5)
        with pytest.raises(ConfigurationError):
            AdaptiveTimeWindow(min_window=0.0)

    def test_starts_unbounded(self):
        assert AdaptiveTimeWindow().initial_window() == UNBOUNDED

    def test_unbounded_stays_while_waste_low(self):
        policy = AdaptiveTimeWindow()
        assert policy.control(obs(100, 2)) == UNBOUNDED
        assert policy.control(obs(100, 10)) == UNBOUNDED  # dead zone

    def test_first_clamp_anchors_finite(self):
        policy = AdaptiveTimeWindow(min_window=10.0)
        w = policy.control(obs(100, 50))
        assert w == 640.0  # min_window * 64

    def test_shrinks_multiplicatively(self):
        policy = AdaptiveTimeWindow(min_window=10.0, shrink=0.5)
        w1 = policy.control(obs(100, 50))
        w2 = policy.control(obs(100, 50))
        assert w2 == pytest.approx(w1 * 0.5)

    def test_floors_at_min_window(self):
        policy = AdaptiveTimeWindow(min_window=100.0, shrink=0.1)
        policy.control(obs(100, 90))
        for _ in range(10):
            w = policy.control(obs(100, 90))
        assert w == 100.0

    def test_grows_when_waste_low(self):
        policy = AdaptiveTimeWindow(min_window=10.0, grow=2.0)
        policy.control(obs(100, 50))           # clamp at 640
        w = policy.control(obs(100, 1))        # low waste: grow
        assert w == pytest.approx(1280.0)

    def test_dead_zone_holds(self):
        policy = AdaptiveTimeWindow(min_window=10.0,
                                    low_waste=0.1, high_waste=0.3)
        policy.control(obs(100, 50))
        held = policy.control(obs(100, 20))    # 0.2 in the dead zone
        assert held == policy.window
        again = policy.control(obs(100, 20))
        assert again == held

    def test_verdicts_name_each_invocation(self):
        policy = AdaptiveTimeWindow(low_waste=0.1, high_waste=0.3)
        verdicts = []
        for rolled in (50, 50, 20, 0):
            policy.control(obs(100, rolled))
            verdicts.append(policy.last_verdict)
        assert verdicts == ["high_waste_first_clamp", "high_waste",
                            "dead_zone", "low_waste"]
