"""Unit tests for the dynamic check-pointing controllers."""

import pytest

from repro.core.checkpoint_controller import DynamicCheckpoint, HillClimbCheckpoint
from repro.kernel.checkpointing import CheckpointWindow
from repro.kernel.errors import ConfigurationError


def window(save_cost=0.0, coast_cost=0.0, events=16):
    return CheckpointWindow(events=events, save_cost=save_cost, coast_cost=coast_cost)


class TestDynamicCheckpointValidation:
    def test_period_positive(self):
        with pytest.raises(ConfigurationError):
            DynamicCheckpoint(period=0)

    def test_initial_in_bounds(self):
        with pytest.raises(ConfigurationError):
            DynamicCheckpoint(initial=0)
        with pytest.raises(ConfigurationError):
            DynamicCheckpoint(initial=10, max_interval=5)

    def test_significance_non_negative(self):
        with pytest.raises(ConfigurationError):
            DynamicCheckpoint(significance=-0.1)


class TestDynamicCheckpointTransfer:
    def test_starts_at_initial(self):
        assert DynamicCheckpoint(initial=3).initial_interval() == 3

    def test_first_invocation_holds(self):
        ctrl = DynamicCheckpoint()
        assert ctrl.control(window(save_cost=100)) == 1

    def test_decreasing_ec_increments(self):
        ctrl = DynamicCheckpoint()
        ctrl.control(window(save_cost=100))
        assert ctrl.control(window(save_cost=50)) == 2
        assert ctrl.control(window(save_cost=25)) == 3

    def test_flat_ec_also_increments(self):
        # The paper: increment unless Ec increased *significantly*.
        ctrl = DynamicCheckpoint(significance=0.05)
        ctrl.control(window(save_cost=100))
        assert ctrl.control(window(save_cost=103)) == 2  # within 5 %

    def test_significant_increase_decrements(self):
        ctrl = DynamicCheckpoint()
        ctrl.control(window(save_cost=50))
        ctrl.control(window(save_cost=40))  # -> 2
        assert ctrl.control(window(save_cost=80, coast_cost=40)) == 1

    def test_interval_never_below_one(self):
        ctrl = DynamicCheckpoint()
        ctrl.control(window(save_cost=10))
        for cost in (20, 40, 80, 160):
            ctrl.control(window(save_cost=cost))
        assert ctrl.interval == 1

    def test_interval_capped(self):
        ctrl = DynamicCheckpoint(max_interval=4, step=2)
        ctrl.control(window(save_cost=100))
        for _ in range(5):
            ctrl.control(window(save_cost=1))
        assert ctrl.interval == 4

    def test_ec_normalized_per_event(self):
        ctrl = DynamicCheckpoint()
        ctrl.control(window(save_cost=100, events=10))   # 10 per event
        # same per-event cost over a longer window: not an increase
        assert ctrl.control(window(save_cost=200, events=20)) == 2

    def test_verdicts_name_invocations(self):
        ctrl = DynamicCheckpoint()
        verdicts = []
        for cost in (32, 16, 64):
            ctrl.control(window(save_cost=cost, events=16))
            verdicts.append(ctrl.last_verdict)
        assert verdicts == ["first_sample", "ec_flat", "ec_rose"]


class TestHillClimb:
    def test_reverses_on_worsening(self):
        ctrl = HillClimbCheckpoint(initial=5)
        ctrl.control(window(save_cost=50))          # prime -> 6
        assert ctrl.interval == 6
        ctrl.control(window(save_cost=40))          # improving -> 7
        assert ctrl.interval == 7
        ctrl.control(window(save_cost=90))          # worse -> reverse -> 6
        assert ctrl.interval == 6
        ctrl.control(window(save_cost=80))          # improving -> 5
        assert ctrl.interval == 5

    def test_bounces_off_floor(self):
        ctrl = HillClimbCheckpoint(initial=1)
        ctrl.control(window(save_cost=10))   # prime -> 2
        ctrl.control(window(save_cost=50))   # worse: reverse down -> 1
        assert ctrl.interval == 1
        ctrl.control(window(save_cost=40))   # improving but floored: flip up
        ctrl.control(window(save_cost=30))   # improving upward
        assert ctrl.interval == 2

    def test_bounces_off_ceiling(self):
        ctrl = HillClimbCheckpoint(initial=4, max_interval=4)
        ctrl.control(window(save_cost=10))
        assert ctrl.interval == 4
        ctrl.control(window(save_cost=9))
        assert ctrl.interval <= 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HillClimbCheckpoint(period=0)
        with pytest.raises(ConfigurationError):
            HillClimbCheckpoint(initial=0)
