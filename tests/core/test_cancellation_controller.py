"""Unit tests for the dynamic cancellation controllers (DC/ST/PS/PA)."""

import pytest

from repro.core.cancellation_controller import (
    DynamicCancellation,
    PermanentAggressive,
    PermanentSet,
    single_threshold,
)
from repro.kernel.cancellation import Mode
from repro.kernel.errors import ConfigurationError


def feed(ctrl, samples):
    for hit in samples:
        ctrl.record(hit)


class TestDynamicCancellation:
    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            DynamicCancellation(a2l_threshold=0.2, l2a_threshold=0.4)

    def test_starts_aggressive_and_monitoring(self):
        ctrl = DynamicCancellation()
        assert ctrl.initial_mode() is Mode.AGGRESSIVE
        assert ctrl.monitoring

    def test_high_hit_ratio_switches_to_lazy(self):
        ctrl = DynamicCancellation(filter_depth=8, a2l_threshold=0.45)
        feed(ctrl, [True] * 4)  # HR = 4/8 = 0.5 >= 0.45
        assert ctrl.control() is Mode.LAZY
        assert ctrl.switches == 1

    def test_low_hit_ratio_switches_back(self):
        ctrl = DynamicCancellation(filter_depth=8, l2a_threshold=0.2)
        feed(ctrl, [True] * 8)
        ctrl.control()
        feed(ctrl, [False] * 7)  # HR = 1/8
        assert ctrl.control() is Mode.AGGRESSIVE
        assert ctrl.switches == 2

    def test_dead_zone_holds(self):
        ctrl = DynamicCancellation(filter_depth=10, a2l_threshold=0.45,
                                   l2a_threshold=0.2)
        feed(ctrl, [True] * 5)
        assert ctrl.control() is Mode.LAZY
        feed(ctrl, [False, False])  # HR = 3/10 -> dead zone
        assert ctrl.control() is Mode.LAZY
        assert ctrl.switches == 1

    def test_warmup_biases_aggressive(self):
        # Ratio divides by full depth, so early hits cannot flip the mode.
        ctrl = DynamicCancellation(filter_depth=16)
        feed(ctrl, [True] * 3)  # 3/16 < 0.45
        assert ctrl.control() is Mode.AGGRESSIVE

    def test_verdict_records_the_branch(self):
        ctrl = DynamicCancellation(filter_depth=4)
        feed(ctrl, [True, True])
        assert ctrl.hit_ratio == 0.5
        assert ctrl.control() is Mode.LAZY
        assert ctrl.last_verdict == "above_a2l"


class TestSingleThreshold:
    def test_no_dead_zone(self):
        ctrl = single_threshold(0.4, filter_depth=10)
        assert ctrl.a2l_threshold == ctrl.l2a_threshold == 0.4
        feed(ctrl, [True] * 5)   # HR = 0.5 > 0.4
        assert ctrl.control() is Mode.LAZY
        feed(ctrl, [False] * 2)  # window not yet full: HR still 0.5
        assert ctrl.control() is Mode.LAZY
        feed(ctrl, [False] * 10)
        assert ctrl.control() is Mode.AGGRESSIVE

    def test_exactly_at_threshold_holds(self):
        ctrl = single_threshold(0.4, filter_depth=10)
        feed(ctrl, [True] * 4)   # HR = 0.4, not over the threshold
        assert ctrl.control() is Mode.AGGRESSIVE


class TestPermanentSet:
    def test_locks_after_n_comparisons(self):
        ctrl = PermanentSet(filter_depth=8, lock_after=8, period=4)
        feed(ctrl, [True] * 8)
        mode = ctrl.control()
        assert mode is Mode.LAZY
        assert ctrl.locked is Mode.LAZY
        assert not ctrl.monitoring
        assert ctrl.period is None  # control invocations stop

    def test_not_locked_before_threshold(self):
        ctrl = PermanentSet(filter_depth=8, lock_after=100)
        feed(ctrl, [True] * 8)
        ctrl.control()
        assert ctrl.locked is None
        assert ctrl.monitoring

    def test_locked_mode_is_stable(self):
        ctrl = PermanentSet(filter_depth=4, lock_after=4)
        feed(ctrl, [False] * 4)
        assert ctrl.control() is Mode.AGGRESSIVE
        assert ctrl.locked is Mode.AGGRESSIVE
        feed(ctrl, [True] * 4)
        assert ctrl.control() is Mode.AGGRESSIVE

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PermanentSet(lock_after=0)


class TestPermanentAggressive:
    def test_locks_on_miss_streak(self):
        ctrl = PermanentAggressive(filter_depth=16, miss_streak=5)
        feed(ctrl, [True, True])
        feed(ctrl, [False] * 5)
        assert not ctrl.monitoring
        assert ctrl.control() is Mode.AGGRESSIVE
        assert ctrl.period is None
        assert ctrl.locked is Mode.AGGRESSIVE

    def test_hits_reset_streak(self):
        ctrl = PermanentAggressive(filter_depth=16, miss_streak=5)
        feed(ctrl, [False] * 4 + [True] + [False] * 4)
        assert ctrl.monitoring
        assert ctrl.locked is None

    def test_behaves_like_dc_until_locked(self):
        ctrl = PermanentAggressive(filter_depth=8, miss_streak=50)
        feed(ctrl, [True] * 4)
        assert ctrl.control() is Mode.LAZY

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PermanentAggressive(miss_streak=0)
