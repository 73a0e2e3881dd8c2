"""Unit tests for SimulationConfig validation and defaults."""

import pytest

from repro.comm.aggregation import NoAggregation
from repro.kernel.cancellation import Mode
from repro.kernel.config import (
    SimulationConfig,
    default_aggregation,
    default_cancellation,
    default_checkpoint,
)
from repro.kernel.errors import ConfigurationError


class TestDefaults:
    def test_default_cancellation_is_aggressive_unmonitored(self):
        policy = default_cancellation(None)
        assert policy.initial_mode() is Mode.AGGRESSIVE
        assert not policy.monitoring

    def test_default_checkpoint_saves_every_event(self):
        assert default_checkpoint(None).initial_interval() == 1

    def test_default_aggregation_is_off(self):
        assert isinstance(default_aggregation(0), NoAggregation)

    def test_default_config_validates(self):
        SimulationConfig().validate()


class TestValidation:
    def test_unknown_gvt_algorithm(self):
        with pytest.raises(ConfigurationError, match="GVT"):
            SimulationConfig(gvt_algorithm="magic").validate()

    def test_gvt_period_positive(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(gvt_period=0).validate()

    def test_speed_factors_positive(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(lp_speed_factors={1: -1.0}).validate()


class TestCostScaling:
    def test_unlisted_lp_gets_base_costs(self):
        config = SimulationConfig(lp_speed_factors={1: 2.0})
        assert config.costs_for_lp(0) is config.costs

    def test_listed_lp_gets_scaled_costs(self):
        config = SimulationConfig(lp_speed_factors={1: 2.0})
        scaled = config.costs_for_lp(1)
        assert scaled.event_cost == pytest.approx(config.costs.event_cost * 2)
        assert scaled.msg_send_overhead == pytest.approx(
            config.costs.msg_send_overhead * 2
        )
        # ratio parameters are not scaled
        assert scaled.coast_event_factor == config.costs.coast_event_factor

    def test_factor_one_shares_object(self):
        config = SimulationConfig(lp_speed_factors={2: 1.0})
        assert config.costs_for_lp(2) is config.costs
