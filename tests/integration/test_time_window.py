"""Integration: bounded time windows throttle optimism transparently.

The extension (DESIGN.md, reference [20] of the paper) must (a) never
change what is committed, (b) actually reduce wasted optimistic work on
a rollback-heavy workload, and (c) never deadlock — a throttled LP is
woken by the next GVT round.
"""

import pytest

from repro import (
    AdaptiveTimeWindow,
    NetworkModel,
    SequentialSimulation,
    SimulationConfig,
    StaticTimeWindow,
    TimeWarpSimulation,
)
from repro.apps.phold import PHOLDParams, build_phold
from repro.trace import Tracer
from tests.helpers import flatten

PARAMS = PHOLDParams(n_objects=12, n_lps=4, jobs_per_object=3)
HORIZON = 3_000.0
SKEW = {1: 1.4, 2: 1.8, 3: 2.4}


def run(time_window, tracer=None):
    config = SimulationConfig(
        end_time=HORIZON, record_trace=True, time_window=time_window,
        lp_speed_factors=SKEW, network=NetworkModel(jitter=0.4),
        gvt_period=15_000.0, tracer=tracer,
    )
    sim = TimeWarpSimulation(build_phold(PARAMS), config)
    stats = sim.run()
    return sim, stats


@pytest.fixture(scope="module")
def golden():
    seq = SequentialSimulation(flatten(build_phold(PARAMS)),
                               end_time=HORIZON, record_trace=True)
    seq.run()
    return seq.sorted_trace()


class TestTimeWindowTransparency:
    @pytest.mark.parametrize("window", [
        None,
        lambda: StaticTimeWindow(5_000.0),
        lambda: StaticTimeWindow(200.0),
        lambda: StaticTimeWindow(60.0),
        lambda: AdaptiveTimeWindow(min_window=20.0),
    ])
    def test_commits_the_sequential_trace(self, golden, window):
        sim, stats = run(window)
        assert sim.sorted_trace() == golden

    def test_tiny_window_still_terminates(self, golden):
        # min_delay is 5, so a 10-unit window serializes hard — progress
        # must come from GVT rounds re-anchoring the bound.
        sim, stats = run(lambda: StaticTimeWindow(10.0))
        assert sim.sorted_trace() == golden


class TestTimeWindowEffect:
    def test_adaptive_reduces_wasted_work(self, golden):
        _, pure = run(None)
        _, throttled = run(lambda: AdaptiveTimeWindow(min_window=20.0))
        assert throttled.rolled_back_events < pure.rolled_back_events
        assert throttled.executed_events < pure.executed_events

    def test_adaptive_improves_makespan_under_heavy_skew(self, golden):
        _, pure = run(None)
        _, throttled = run(lambda: AdaptiveTimeWindow(min_window=20.0))
        assert throttled.execution_time < pure.execution_time

    def test_controller_history_is_populated(self, golden):
        tracer = Tracer.in_memory()
        run(lambda: AdaptiveTimeWindow(min_window=20.0), tracer)
        # at least one GVT-round observation, one record per advancing round
        windows = tracer.select("ctrl.window")
        advancing = [r for r in tracer.select("gvt.round") if r["advanced"]]
        assert windows and len(windows) == len(advancing)
