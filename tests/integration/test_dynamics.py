"""Integration: the on-line controllers actually adapt as the paper claims.

Where test_equivalence.py checks that configuration never changes *what*
is computed, this module checks that the controllers change *how* it is
computed: DC discovers the per-object strategy split on RAID, dynamic
check-pointing grows the interval away from save-every-event, and SAAW
moves its window from a poor initial value.
"""

import pytest

from repro import (
    DynamicCancellation,
    DynamicCheckpoint,
    Mode,
    NetworkModel,
    SAAWPolicy,
    SimulationConfig,
    StaticCancellation,
    TimeWarpSimulation,
)
from repro.apps.raid import RAIDParams, build_raid
from repro.apps.smmp import SMMPParams, build_smmp
from repro.trace import Tracer

RAID_SKEW = {1: 1.05, 2: 1.1, 3: 1.15}
SMMP_SKEW = {1: 1.2, 2: 1.4, 3: 1.7}
JITTERY = NetworkModel(jitter=0.4)


def run_raid(**kwargs):
    config = SimulationConfig(lp_speed_factors=RAID_SKEW, network=JITTERY, **kwargs)
    sim = TimeWarpSimulation(build_raid(RAIDParams(requests_per_source=150)), config)
    return sim, sim.run()


def run_smmp(**kwargs):
    config = SimulationConfig(lp_speed_factors=SMMP_SKEW, network=JITTERY, **kwargs)
    sim = TimeWarpSimulation(build_smmp(SMMPParams(requests_per_processor=100)), config)
    return sim, sim.run()


class TestDynamicCancellationOnRAID:
    """The paper: disks favor lazy, forks favor aggressive (Section 8)."""

    @pytest.fixture(scope="class")
    def sim(self):
        sim, _ = run_raid(cancellation=lambda o: DynamicCancellation())
        return sim

    def _modes(self, sim, prefix):
        return [
            ctx.mode
            for lp in sim.lps
            for ctx in lp.members.values()
            if ctx.obj.name.startswith(prefix)
        ]

    def test_disks_end_lazy(self, sim):
        modes = self._modes(sim, "disk")
        lazy = sum(m is Mode.LAZY for m in modes)
        assert lazy >= len(modes) - 1  # at most one straggler disk

    def test_forks_stay_aggressive(self, sim):
        assert all(m is Mode.AGGRESSIVE for m in self._modes(sim, "fork"))

    def test_sources_stay_aggressive(self, sim):
        modes = self._modes(sim, "rsrc")
        assert sum(m is Mode.AGGRESSIVE for m in modes) >= len(modes) - 2

    def test_hit_ratio_split_matches_modes(self, sim):
        stats = {name: s for lp in sim.lps for name, s in lp.object_stats().items()}
        disk_cmp = sum(s.comparisons for n, s in stats.items() if n.startswith("disk"))
        disk_hits = sum(
            s.lazy_hits + s.lazy_aggressive_hits
            for n, s in stats.items() if n.startswith("disk")
        )
        fork_cmp = sum(s.comparisons for n, s in stats.items() if n.startswith("fork"))
        fork_hits = sum(
            s.lazy_hits + s.lazy_aggressive_hits
            for n, s in stats.items() if n.startswith("fork")
        )
        assert disk_hits / disk_cmp > 0.5
        assert fork_hits / max(1, fork_cmp) < 0.2


class TestCancellationPerformanceShape:
    """Figure 6/7 shape: lazy (or DC) beats aggressive on these models."""

    def test_smmp_lazy_beats_aggressive(self):
        _, ac = run_smmp(cancellation=lambda o: StaticCancellation(Mode.AGGRESSIVE))
        _, lc = run_smmp(cancellation=lambda o: StaticCancellation(Mode.LAZY))
        assert lc.execution_time < ac.execution_time

    def test_raid_dc_beats_aggressive(self):
        _, ac = run_raid(cancellation=lambda o: StaticCancellation(Mode.AGGRESSIVE))
        _, dc = run_raid(cancellation=lambda o: DynamicCancellation())
        assert dc.execution_time < ac.execution_time


class TestDynamicCheckpointing:
    def test_interval_grows_beyond_one(self):
        policies = []

        def factory(obj):
            policy = DynamicCheckpoint(period=16)
            policies.append((obj.name, policy))
            return policy

        run_smmp(cancellation=lambda o: StaticCancellation(Mode.LAZY),
                 checkpoint=factory)
        cache_intervals = [p.interval for n, p in policies if n.startswith("cache")]
        assert max(cache_intervals) > 1
        assert sum(i > 1 for i in cache_intervals) > len(cache_intervals) / 2

    def test_dynamic_beats_save_every_event(self):
        _, static = run_smmp(cancellation=lambda o: StaticCancellation(Mode.LAZY))
        _, dynamic = run_smmp(
            cancellation=lambda o: StaticCancellation(Mode.LAZY),
            checkpoint=lambda o: DynamicCheckpoint(period=16),
        )
        assert dynamic.execution_time < static.execution_time
        assert dynamic.state_saves < static.state_saves

    def test_ec_history_is_recorded(self):
        tracer = Tracer.in_memory()
        run_raid(checkpoint=lambda o: DynamicCheckpoint(period=16),
                 tracer=tracer)
        per_object: dict[str, list[float]] = {}
        for record in tracer.select("ctrl.checkpoint"):
            per_object.setdefault(record["obj"], []).append(record["o"])
        assert any(len(ecs) >= 2 for ecs in per_object.values())


class TestSAAW:
    def test_window_adapts_from_initial(self):
        policies = []

        def factory(lp_id):
            policy = SAAWPolicy(initial_window_us=50.0)
            policies.append(policy)
            return policy

        sim, stats = run_smmp(aggregation=factory)
        assert any(policy.last_verdict in ("rate_rose", "rate_fell")
                   for policy in policies)
        assert any(lp.comm.window != 50.0 for lp in sim.lps)

    def test_aggregation_reduces_physical_messages(self):
        from repro import FixedWindow

        _, plain = run_smmp()
        _, aggregated = run_smmp(aggregation=lambda lp: FixedWindow(8_000.0))
        assert aggregated.physical_messages < plain.physical_messages / 2
        assert aggregated.events_on_wire >= plain.events_on_wire * 0.9

    def test_aggregation_improves_execution_time(self):
        from repro import FixedWindow

        _, plain = run_smmp()
        _, aggregated = run_smmp(aggregation=lambda lp: FixedWindow(8_000.0))
        assert aggregated.execution_time < plain.execution_time

    def test_saaw_recovers_from_oversized_window(self):
        """Figure 8's right side: FAW with an excessive window nullifies
        the aggregation benefit, while SAAW shrinks back toward the
        optimum — its statically fixed window is only the *initial* one."""
        from repro import FixedWindow

        w0 = 128_000.0
        sim_f, faw = (lambda s: (s, s.run()))(
            TimeWarpSimulation(
                build_smmp(SMMPParams(requests_per_processor=100)),
                SimulationConfig(lp_speed_factors=SMMP_SKEW, network=JITTERY,
                                 aggregation=lambda lp: FixedWindow(w0)),
            )
        )
        sim_s, saaw = (lambda s: (s, s.run()))(
            TimeWarpSimulation(
                build_smmp(SMMPParams(requests_per_processor=100)),
                SimulationConfig(lp_speed_factors=SMMP_SKEW, network=JITTERY,
                                 aggregation=lambda lp: SAAWPolicy(
                                     initial_window_us=w0)),
            )
        )
        assert saaw.execution_time < faw.execution_time
        assert all(lp.comm.window < w0 for lp in sim_s.lps)
