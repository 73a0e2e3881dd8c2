"""Tests for the conservative (bounded-window) kernel."""

import pytest

from repro import SequentialSimulation, SimulationConfig, TimeWarpSimulation
from repro.apps.phold import PHOLDParams, build_phold
from repro.apps.pingpong import build_pingpong
from repro.apps.raid import RAIDParams, build_raid
from repro.apps.smmp import SMMPParams, build_smmp
from repro.conservative import ConservativeSimulation
from repro.kernel.errors import (
    CausalityViolationError,
    ConfigurationError,
    TimeWarpError,
)
from tests.helpers import flatten


class TestConstruction:
    def test_needs_positive_lookahead(self):
        # a zero-delay ping-pong declares lookahead 0
        with pytest.raises(ConfigurationError, match="lookahead"):
            ConservativeSimulation(build_pingpong(5, delay=0.0))

    def test_needs_objects(self):
        with pytest.raises(ConfigurationError):
            ConservativeSimulation([[]])

    def test_run_once(self):
        sim = ConservativeSimulation(build_pingpong(5))
        sim.run()
        with pytest.raises(ConfigurationError):
            sim.run()


class TestLookaheadContract:
    def test_exact_lookahead_is_allowed(self):
        sim = ConservativeSimulation(build_pingpong(10, delay=10.0))
        assert sim.lookahead == 10.0
        stats = sim.run()
        assert stats.committed_events == 10

    def test_window_past_the_delay_is_refused_on_arrival(self):
        # a window wider than the model's delay would run an event before
        # its cause arrives: the first cross-LP delivery lands below the
        # receiver's safe bound
        sim = ConservativeSimulation(build_pingpong(5, delay=10.0))
        sim.lookahead = 20.0
        with pytest.raises(CausalityViolationError, match="safe bound"):
            sim.run()


class TestEquivalence:
    # ``lookahead`` is the least delay each model declares, which the
    # driver takes as its window width
    @pytest.mark.parametrize("app,builder,lookahead,kwargs", [
        ("smmp", lambda: build_smmp(SMMPParams(requests_per_processor=25)),
         1.0, {}),
        ("raid", lambda: build_raid(RAIDParams(requests_per_source=20)),
         5.0, {}),
        ("phold", lambda: build_phold(PHOLDParams(n_objects=10, n_lps=4)),
         5.0, {"end_time": 800.0}),
    ])
    def test_matches_sequential(self, app, builder, lookahead, kwargs):
        seq = SequentialSimulation(flatten(builder()), record_trace=True,
                                   **kwargs)
        seq.run()
        cons = ConservativeSimulation(builder(), record_trace=True, **kwargs)
        assert cons.lookahead == lookahead
        cons.run()
        assert cons.sorted_trace() == seq.sorted_trace()

    @pytest.mark.parametrize("name,builder,lookahead,kwargs", [
        ("raid",
         lambda: build_raid(RAIDParams(requests_per_source=20)),
         5.0, {}),
        ("phold-local",
         lambda: build_phold(PHOLDParams(n_objects=10, n_lps=4,
                                         locality=0.9)),
         5.0, {"end_time": 800.0}),
        ("phold-mixed-locality",
         lambda: build_phold(PHOLDParams(n_objects=8, n_lps=2, locality=0.5,
                                         jobs_per_object=2)),
         5.0, {"end_time": 500.0}),
    ])
    def test_matches_time_warp(self, name, builder, lookahead, kwargs):
        """Both synchronization protocols commit the identical trace."""
        tw = TimeWarpSimulation(
            builder(),
            SimulationConfig(record_trace=True,
                             end_time=kwargs.get("end_time", float("inf"))),
        )
        tw.run()
        cons = ConservativeSimulation(builder(), record_trace=True, **kwargs)
        assert cons.lookahead == lookahead
        cons.run()
        assert cons.sorted_trace() == tw.sorted_trace()

    def test_never_rolls_back(self):
        cons = ConservativeSimulation(
            build_raid(RAIDParams(requests_per_source=20)),
            lp_speed_factors={1: 1.5, 2: 2.0, 3: 2.5},
        )
        stats = cons.run()
        assert stats.rollbacks == 0
        assert stats.efficiency == 1.0
        # every event commits at once: no history is ever kept
        assert stats.committed_at_once == stats.committed_events > 0
        assert stats.state_saves == 0


class TestBarrierCosts:
    def test_skew_inflates_idle_time(self):
        balanced = ConservativeSimulation(
            build_smmp(SMMPParams(requests_per_processor=20))
        ).run()
        skewed = ConservativeSimulation(
            build_smmp(SMMPParams(requests_per_processor=20)),
            lp_speed_factors={1: 2.0, 2: 2.0, 3: 2.0},
        ).run()
        idle_balanced = sum(s.idle_time for s in balanced.per_lp.values())
        idle_skewed = sum(s.idle_time for s in skewed.per_lp.values())
        assert idle_skewed > idle_balanced
        assert skewed.execution_time > balanced.execution_time

    def test_larger_lookahead_means_fewer_rounds(self):
        few = ConservativeSimulation(
            build_phold(PHOLDParams(n_objects=8, n_lps=2, min_delay=20.0)),
            end_time=2_000.0,
        )
        few.run()
        many = ConservativeSimulation(
            build_phold(PHOLDParams(n_objects=8, n_lps=2, min_delay=5.0)),
            end_time=2_000.0,
        )
        many.run()
        assert few.rounds < many.rounds

    def test_round_guard(self):
        sim = ConservativeSimulation(
            build_phold(PHOLDParams(n_objects=6, n_lps=2)),
            end_time=5_000.0, max_rounds=10,
        )
        with pytest.raises(TimeWarpError, match="rounds"):
            sim.run()

    def test_event_at_end_time_runs_and_ends_the_run(self):
        # the round cap turns a livelock on the event at end_time into
        # a TimeWarpError instead of a hang
        seq = SequentialSimulation(flatten(build_pingpong(100, delay=10.0)),
                                   end_time=50.0)
        expected = seq.run().events_executed
        sim = ConservativeSimulation(build_pingpong(100, delay=10.0),
                                     end_time=50.0, max_rounds=100)
        assert sim.run().committed_events == expected == 5
