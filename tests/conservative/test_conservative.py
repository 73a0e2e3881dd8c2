"""Tests for the conservative (bounded-window) kernel."""

import pytest

from repro import (
    AdaptiveTimeWindow,
    FaultPlan,
    FaultRates,
    FixedWindow,
    InvariantOracle,
    MetaController,
    SequentialSimulation,
    SimulationConfig,
    TimeWarpSimulation,
)
from repro.apps.phold import PHOLDParams, build_phold
from repro.apps.pingpong import build_pingpong
from repro.apps.raid import RAIDParams, build_raid
from repro.apps.smmp import SMMPParams, build_smmp
from repro.conservative import ConservativeSimulation
from repro.kernel.config import RUN_BY
from repro.kernel.errors import (
    CausalityViolationError,
    ConfigurationError,
    TerminationError,
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

    @pytest.mark.parametrize("name,value", [
        ("faults", FaultPlan(rates=FaultRates(drop=0.1))),
        ("time_window", lambda: AdaptiveTimeWindow()),
        ("meta_control", lambda: MetaController()),
        ("script", {"seed": 0, "steps": []}),
    ])
    def test_refuses_what_only_the_executive_honours(self, name, value):
        assert "conservative" not in RUN_BY[name]
        with pytest.raises(
            ConfigurationError, match=rf"'conservative' does not run: {name} \(run by modelled"
        ):
            ConservativeSimulation(
                build_pingpong(5), SimulationConfig(**{name: value})
            )

    def test_one_error_names_every_refusal(self):
        config = SimulationConfig(
            time_window=lambda: AdaptiveTimeWindow(),
            backend="parallel", placement="dynamic",
        )
        with pytest.raises(
            ConfigurationError,
            match=r"time_window \(run by modelled\), "
            r"placement \(run by modelled, parallel\), "
            r"backend='parallel' \(run by parallel\); leave them",
        ):
            ConservativeSimulation(build_pingpong(5), config)


class TestLookaheadContract:
    def test_exact_lookahead_is_allowed(self):
        sim = ConservativeSimulation(build_pingpong(10, delay=10.0))
        assert sim.lookahead == 10.0
        stats = sim.run()
        assert stats.committed_events == 10

    def test_window_past_the_delay_is_refused_on_arrival(self):
        # a window wider than the model's delay would run an event before
        # its cause arrives: the first cross-LP delivery lands below the
        # receiver's safe bound, and the error names who sent it
        sim = ConservativeSimulation(build_pingpong(5, delay=10.0))
        sim.lookahead = 20.0
        with pytest.raises(
            CausalityViolationError,
            match=r"safe bound .*\(object 1 on LP 1 sent below its promise\)",
        ):
            sim.run()


class TestEquivalence:
    # ``lookahead`` is the least delay each model declares, which the
    # driver takes as its window width; ``kwargs`` is the rest of the config
    @pytest.mark.parametrize("app,builder,lookahead,kwargs", [
        ("smmp", lambda: build_smmp(SMMPParams(requests_per_processor=25)),
         1.0, {}),
        ("raid", lambda: build_raid(RAIDParams(requests_per_source=20)),
         5.0, {}),
        ("phold", lambda: build_phold(PHOLDParams(n_objects=10, n_lps=4)),
         5.0, {"end_time": 800.0}),
        # a windowed aggregate ships at the end of the round it opened in
        ("phold-faw", lambda: build_phold(PHOLDParams(n_objects=10, n_lps=4)),
         5.0, {"end_time": 800.0, "aggregation": lambda lp: FixedWindow(50.0)}),
    ])
    def test_matches_sequential(self, app, builder, lookahead, kwargs):
        end_time = kwargs.get("end_time", float("inf"))
        seq = SequentialSimulation(flatten(builder()), record_trace=True,
                                   end_time=end_time)
        seq.run()
        oracle = InvariantOracle()
        cons = ConservativeSimulation(
            builder(),
            SimulationConfig(record_trace=True, oracle=oracle, **kwargs),
        )
        assert cons.lookahead == lookahead
        stats = cons.run()
        assert cons.sorted_trace() == seq.sorted_trace()
        assert oracle.checks > 0 and not oracle.violations
        remote = sum(lp.remote_events_sent for lp in stats.per_lp.values())
        if "aggregation" in kwargs:
            assert stats.physical_messages < remote
        else:
            assert stats.physical_messages == remote

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
        config = SimulationConfig(record_trace=True, **kwargs)
        tw = TimeWarpSimulation(builder(), config)
        tw.run()
        cons = ConservativeSimulation(builder(), config)
        assert cons.lookahead == lookahead
        cons.run()
        assert cons.sorted_trace() == tw.sorted_trace()

    def test_never_rolls_back(self):
        cons = ConservativeSimulation(
            build_raid(RAIDParams(requests_per_source=20)),
            SimulationConfig(lp_speed_factors={1: 1.5, 2: 2.0, 3: 2.5}),
        )
        stats = cons.run()
        assert stats.rollbacks == 0
        assert stats.efficiency == 1.0
        # every event commits at once: no history is ever kept
        assert stats.committed_at_once == stats.committed_events > 0
        assert stats.state_saves == 0


class _LosesOneMessage(ConservativeSimulation):
    """Drops one message from the fifth round's outbox."""

    def _deliver(self):
        if self.rounds == 4:
            self._outbox.pop()
        super()._deliver()


class TestOracle:
    def test_a_message_lost_from_the_outbox_breaks_wire_conservation(self):
        oracle = InvariantOracle()
        sim = _LosesOneMessage(
            build_raid(RAIDParams(requests_per_source=20)),
            SimulationConfig(oracle=oracle),
        )
        stats = sim.run()
        assert "wire_conservation" in {v.invariant for v in oracle.violations}
        sent = stats.physical_messages
        received = sum(lp.physical_messages_received for lp in stats.per_lp.values())
        assert received == sent - 1


class TestBarrierCosts:
    def test_skew_inflates_idle_time(self):
        balanced = ConservativeSimulation(
            build_smmp(SMMPParams(requests_per_processor=20))
        ).run()
        skewed = ConservativeSimulation(
            build_smmp(SMMPParams(requests_per_processor=20)),
            SimulationConfig(lp_speed_factors={1: 2.0, 2: 2.0, 3: 2.0}),
        ).run()
        idle_balanced = sum(s.idle_time for s in balanced.per_lp.values())
        idle_skewed = sum(s.idle_time for s in skewed.per_lp.values())
        assert idle_skewed > idle_balanced
        assert skewed.execution_time > balanced.execution_time

    def test_larger_lookahead_means_fewer_rounds(self):
        few = ConservativeSimulation(
            build_phold(PHOLDParams(n_objects=8, n_lps=2, min_delay=20.0)),
            SimulationConfig(end_time=2_000.0),
        )
        few.run()
        many = ConservativeSimulation(
            build_phold(PHOLDParams(n_objects=8, n_lps=2, min_delay=5.0)),
            SimulationConfig(end_time=2_000.0),
        )
        many.run()
        assert few.rounds < many.rounds

    def test_round_guard(self, monkeypatch):
        sim = ConservativeSimulation(
            build_phold(PHOLDParams(n_objects=6, n_lps=2)),
            SimulationConfig(end_time=5_000.0, max_executed_events=50),
        )
        with pytest.raises(TerminationError, match="more than 50 events"):
            sim.run()
        # a round that runs nothing would repeat itself forever
        sim = ConservativeSimulation(build_pingpong(5))
        for lp in sim.lps:
            monkeypatch.setattr(lp, "execute_one", lambda: False)
        with pytest.raises(TimeWarpError, match="round 0 executed no event"):
            sim.run()

    def test_event_at_end_time_runs_and_ends_the_run(self):
        # the empty-round guard turns a livelock on the event at end_time
        # into a TimeWarpError instead of a hang
        seq = SequentialSimulation(flatten(build_pingpong(100, delay=10.0)),
                                   end_time=50.0)
        expected = seq.run().committed_events
        sim = ConservativeSimulation(build_pingpong(100, delay=10.0),
                                     SimulationConfig(end_time=50.0))
        assert sim.run().committed_events == expected == 5
