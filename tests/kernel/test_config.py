"""Unit tests for SimulationConfig validation and defaults."""

import pytest

from repro.apps.pingpong import build_pingpong
from repro.cluster.costmodel import NetworkModel
from repro.comm.aggregation import NoAggregation
from repro.conservative import ConservativeSimulation
from repro.control import MetaController
from repro.core.window_controller import AdaptiveTimeWindow
from repro.faults import FaultPlan, FaultRates
from repro.kernel.cancellation import Mode
from repro.kernel.config import (
    DRIVERS,
    RUN_BY,
    SimulationConfig,
    default_aggregation,
    default_cancellation,
    default_checkpoint,
)
from repro.kernel.errors import ConfigurationError
from repro.kernel.kernel import TimeWarpSimulation
from repro.parallel import ParallelSimulation
from repro.trace import Tracer


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


#: one off-default value per RUN_BY field
OFF_DEFAULT = {
    "faults": FaultPlan(rates=FaultRates(drop=0.1)),
    "time_window": lambda: AdaptiveTimeWindow(),
    "meta_control": lambda: MetaController(),
    "gvt_algorithm": "mattern",
    "gvt_period": 1_000.0,
    "placement": "dynamic",
    "script": {"seed": 0, "steps": []},
    "record_trace": True,
    "tracer": Tracer(),
    "lp_speed_factors": {0: 2.0},
    "network": NetworkModel(base_latency=100.0),
}


def build(driver: str, **fields):
    """Construct ``driver`` (no worker is forked before ``run()``)."""
    partition = build_pingpong(5)
    if driver == "parallel":
        return ParallelSimulation(
            partition, SimulationConfig(backend="parallel", **fields)
        )
    make = ConservativeSimulation if driver == "conservative" else TimeWarpSimulation
    return make(partition, SimulationConfig(**fields))


class TestRunBy:
    def test_every_entry_is_a_config_field_run_by_known_drivers(self):
        assert set(RUN_BY) == set(OFF_DEFAULT)
        assert set(RUN_BY) <= set(SimulationConfig.__dataclass_fields__)
        for drivers in RUN_BY.values():
            assert drivers and drivers < set(DRIVERS)

    @pytest.mark.parametrize("name,driver", [
        (name, driver)
        for name, drivers in RUN_BY.items()
        for driver in DRIVERS
        if driver not in drivers
    ])
    def test_a_driver_refuses_every_field_it_does_not_run(self, name, driver):
        takers = ", ".join(d for d in DRIVERS if d in RUN_BY[name])
        with pytest.raises(
            ConfigurationError,
            match=rf"^backend '{driver}' does not run: {name} \(run by {takers}\); ",
        ):
            build(driver, **{name: OFF_DEFAULT[name]})

    @pytest.mark.parametrize("driver", ("conservative", "parallel"))
    def test_one_error_names_every_refused_field(self, driver):
        refused = [name for name in RUN_BY if driver not in RUN_BY[name]]
        with pytest.raises(ConfigurationError) as info:
            build(driver, **{name: OFF_DEFAULT[name] for name in refused})
        assert all(f"{name} (run by" in str(info.value) for name in refused)

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_every_driver_accepts_workers_and_what_it_runs(self, driver):
        runs = {
            name: OFF_DEFAULT[name]
            for name, drivers in RUN_BY.items()
            if driver in drivers
        }
        build(driver, workers=2, **runs)
