"""Tests for the TimeWarpSimulation facade."""

import queue

import pytest

from repro import Mode, SimulationConfig, StaticCancellation, TimeWarpSimulation
from repro.apps.phold import PHOLDParams, build_phold
from repro.apps.pingpong import Player, build_pingpong
from repro.kernel.errors import ConfigurationError, SchedulingError
from repro.parallel.worker import ShardPlan, _ShardRuntime
from tests.helpers import make_event


class TestConstruction:
    def test_rejects_empty_partition(self):
        with pytest.raises(ConfigurationError):
            TimeWarpSimulation([[]])

    def test_rejects_duplicate_names(self):
        a = Player("same", "same", 1)
        b = Player("same", "same", 1)
        with pytest.raises(ConfigurationError, match="duplicate"):
            TimeWarpSimulation([[a], [b]])

    def test_object_named_resolves(self):
        sim = TimeWarpSimulation(build_pingpong(5))
        assert sim.object_named("ping").name == "ping"
        with pytest.raises(ConfigurationError):
            sim.object_named("nope")

    def test_unknown_send_target_raises_at_runtime(self):
        bad = Player("solo", "ghost", 3, serve=True)
        sim = TimeWarpSimulation([[bad]])
        with pytest.raises(ConfigurationError, match="ghost"):
            sim.run()


class TestRun:
    def test_run_once_only(self):
        sim = TimeWarpSimulation(build_pingpong(5))
        sim.run()
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_stats_are_assembled(self):
        sim = TimeWarpSimulation(build_pingpong(20))
        stats = sim.run()
        assert stats.committed_events == 20
        assert stats.executed_events >= 20
        assert stats.execution_time > 0
        assert set(stats.per_object) == {"ping", "pong"}
        assert stats.per_object["ping"].events_committed == 10
        assert len(stats.per_lp) == 2
        assert stats.physical_messages >= 20

    def test_trace_requires_flag(self):
        sim = TimeWarpSimulation(build_pingpong(5))
        sim.run()
        with pytest.raises(ConfigurationError):
            sim.sorted_trace()

    def test_trace_records_commits(self):
        sim = TimeWarpSimulation(
            build_pingpong(6), SimulationConfig(record_trace=True)
        )
        sim.run()
        trace = sim.sorted_trace()
        assert len(trace) == 6
        recv_times, receivers, senders, send_times, payloads = zip(*trace)
        assert list(payloads) == [0, 1, 2, 3, 4, 5]
        assert set(receivers) == {"ping", "pong"}

    def test_end_time_horizon(self):
        sim = TimeWarpSimulation(
            build_pingpong(100, delay=10.0), SimulationConfig(end_time=55.0)
        )
        stats = sim.run()
        # events at t=10..50 execute; later ones never do
        assert stats.committed_events == 5

    def test_single_lp_partition_runs(self):
        sim = TimeWarpSimulation(build_pingpong(10, split=False))
        stats = sim.run()
        assert stats.committed_events == 10
        assert stats.physical_messages == 0

    def test_summary_is_a_string(self):
        stats = TimeWarpSimulation(build_pingpong(5)).run()
        text = stats.summary()
        assert "committed=5" in text
        assert "ev/s" in text


class TestDerivedStats:
    def test_rates_and_efficiency(self):
        stats = TimeWarpSimulation(build_pingpong(10)).run()
        assert stats.efficiency == pytest.approx(
            stats.committed_events / stats.executed_events
        )
        assert stats.committed_events_per_second == pytest.approx(
            stats.committed_events / (stats.execution_time / 1e6)
        )
        assert 0 <= stats.rollback_frequency <= 1


class TestOneLPHost:
    """``kernel.host_lp`` builds the LP for both schedulers: the facade's
    LP 1 and a forked shard's LP 1 over the same members are the same LP."""

    @staticmethod
    def both_hosts():
        params = PHOLDParams(n_objects=6, n_lps=2, jobs_per_object=1)
        config = SimulationConfig(cancellation=lambda obj: StaticCancellation(Mode.LAZY))
        sim = TimeWarpSimulation(build_phold(params), config)
        plan = ShardPlan(
            objects=[obj for group in build_phold(params) for obj in group],
            name_to_oid=dict(sim._name_to_oid),
            oid_to_shard=dict(sim._oid_to_lp),
            config=config,
            n_shards=2,
        )
        inboxes = {0: queue.Queue(), 1: queue.Queue()}
        shard = _ShardRuntime(1, plan, inboxes[1], queue.Queue(), inboxes)
        return (sim.lps[1], sim._oid_to_lp), (shard.lp, plan.oid_to_shard)

    def test_shard_and_facade_build_the_same_lp(self):
        (modelled, _), (sharded, _) = self.both_hosts()
        assert list(sharded.members) == list(modelled.members) != []
        for oid, ctx in modelled.members.items():
            twin = sharded.members[oid]
            assert twin.obj.name == ctx.obj.name
            assert type(twin.cancel_policy) is type(ctx.cancel_policy)
            assert type(twin.ckpt_policy) is type(ctx.ckpt_policy)
            assert twin.mode == ctx.mode
        assert type(sharded.comm.policy) is type(modelled.comm.policy)

    def test_routing_is_one_shared_dict_and_forward_reroutes(self):
        for lp, routing in self.both_hosts():
            # the property live migration relies on: rewrite once, in place
            assert lp.comm._routing is routing
            assert lp._lp_of.__self__ is routing
            stranger = next(oid for oid, host in routing.items() if host != lp.lp_id)
            lp.deliver_event(make_event(sender=stranger, receiver=stranger))
            assert lp.stats.remote_events_sent == 1  # forwarded, not crashed
            routing[stranger] = lp.lp_id  # routed here, yet never restored here
            with pytest.raises(SchedulingError, match="not hosted"):
                lp.deliver_event(make_event(sender=stranger, receiver=stranger))
