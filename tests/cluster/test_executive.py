"""Tests for the cluster executive: scheduling, termination, accounting."""

import pytest

from repro import SimulationConfig, TimeWarpSimulation
from repro.apps.phold import PHOLDParams, build_phold
from repro.apps.pingpong import build_pingpong
from repro.kernel.errors import TerminationError
from repro.trace import Tracer


class TestTermination:
    def test_empty_workload_terminates(self):
        stats = TimeWarpSimulation(build_pingpong(0)).run()
        # only the serve event exists (payload 0 with rounds=0 still sends)
        assert stats.committed_events <= 1
        assert stats.execution_time >= 0

    def test_quiescence_reached_with_aggregation_buffers(self):
        from repro import FixedWindow

        config = SimulationConfig(aggregation=lambda lp: FixedWindow(1e7))
        stats = TimeWarpSimulation(build_pingpong(30), config).run()
        # enormous window: every message waits for an idle flush, yet the
        # run drains completely
        assert stats.committed_events == 30

    def test_runaway_guard_fires(self):
        params = PHOLDParams(n_objects=4, n_lps=2, jobs_per_object=1)
        config = SimulationConfig(max_executed_events=50)  # PHOLD never ends
        with pytest.raises(TerminationError):
            TimeWarpSimulation(build_phold(params), config).run()


class TestClocks:
    def test_execution_time_is_max_lp_clock(self):
        sim = TimeWarpSimulation(build_pingpong(40))
        sim.run()
        assert sim.executive.execution_time == max(lp.clock for lp in sim.lps)

    def test_busy_plus_idle_equals_clock(self):
        sim = TimeWarpSimulation(build_pingpong(40))
        sim.run()
        for lp in sim.lps:
            assert lp.stats.busy_time + lp.stats.idle_time == pytest.approx(
                lp.clock
            )

    def test_slower_lp_accumulates_more_busy_time(self):
        config = SimulationConfig(lp_speed_factors={1: 3.0})
        sim = TimeWarpSimulation(build_pingpong(60), config)
        sim.run()
        fast, slow = sim.lps
        assert slow.stats.busy_time > fast.stats.busy_time


class TestGVTHistory:
    def test_history_is_monotone_and_timestamped(self):
        tracer = Tracer.in_memory()
        config = SimulationConfig(gvt_period=1_500.0, tracer=tracer)
        sim = TimeWarpSimulation(build_pingpong(300), config)
        sim.run()
        history = [r for r in tracer.select("gvt.round") if r["advanced"]]
        assert len(history) >= 2
        walls = [r["t"] for r in history]
        gvts = [r["gvt"] for r in history]
        assert walls == sorted(walls)
        assert gvts == sorted(gvts)
