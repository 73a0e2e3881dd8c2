"""Integration: phased execution (advance_to / finish)."""

import pytest

from repro import (
    NetworkModel,
    SequentialSimulation,
    SimulationConfig,
    TimeWarpSimulation,
)
from repro.apps.phold import PHOLDParams, build_phold
from repro.apps.pingpong import build_pingpong
from repro.kernel.errors import ConfigurationError
from tests.helpers import flatten

PARAMS = PHOLDParams(n_objects=10, n_lps=4, jobs_per_object=2)
SKEW = {1: 1.2, 2: 1.4, 3: 1.6}


def phased_sim(end_time=2_000.0):
    config = SimulationConfig(
        end_time=end_time, record_trace=True, lp_speed_factors=SKEW,
        network=NetworkModel(jitter=0.4),
    )
    return TimeWarpSimulation(build_phold(PARAMS), config)


class TestPhasedRun:
    def test_phased_equals_monolithic(self):
        seq = SequentialSimulation(flatten(build_phold(PARAMS)),
                                   end_time=2_000.0, record_trace=True)
        seq.run()

        sim = phased_sim()
        for horizon in (300.0, 700.0, 1_200.0):
            sim.advance_to(horizon)
        stats = sim.finish()
        assert sim.sorted_trace() == seq.sorted_trace()
        assert stats.committed_events == seq.events_executed

    def test_intermediate_state_is_observable(self):
        sim = phased_sim()
        sim.advance_to(500.0)
        processed_mid = sum(
            ctx.stats.events_executed - ctx.stats.events_rolled_back
            for lp in sim.lps for ctx in lp.members.values()
        )
        assert processed_mid > 0
        stats = sim.finish()
        assert stats.executed_events >= processed_mid

    def test_horizons_must_be_monotone(self):
        sim = phased_sim()
        sim.advance_to(500.0)
        with pytest.raises(ConfigurationError):
            sim.advance_to(200.0)

    def test_cannot_pass_configured_end(self):
        sim = phased_sim(end_time=1_000.0)
        with pytest.raises(ConfigurationError):
            sim.advance_to(5_000.0)

    def test_finish_without_advance_equals_run(self):
        a = phased_sim().finish()
        b = phased_sim().run()
        assert a.committed_events == b.committed_events
        assert a.execution_time == b.execution_time

    def test_no_use_after_finish(self):
        sim = phased_sim()
        sim.finish()
        with pytest.raises(ConfigurationError):
            sim.advance_to(100.0)
        with pytest.raises(ConfigurationError):
            sim.finish()

    def test_same_horizon_twice_is_a_noop(self):
        sim = phased_sim()
        sim.advance_to(400.0)
        sim.advance_to(400.0)
        stats = sim.finish()
        assert stats.committed_events > 0

    def test_pingpong_phased(self):
        config = SimulationConfig(end_time=1_000.0, record_trace=True)
        sim = TimeWarpSimulation(build_pingpong(200, delay=10.0), config)
        sim.advance_to(105.0)
        # exactly 10 exchanges fit below t=105
        executed = sum(ctx.stats.events_executed - ctx.stats.events_rolled_back
                       for lp in sim.lps for ctx in lp.members.values())
        assert executed == 10
        stats = sim.finish()
        assert stats.committed_events == 100  # horizon 1000 cuts at 100
