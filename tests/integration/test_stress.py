"""Soak test: every feature at once, at 10x the usual test scale.

One big PHOLD run with all four controllers, Mattern GVT, aggregation,
heavy skew, jitter, an external adjustment script and phased execution —
the kitchen sink.  If a feature interaction leaks (a dangling
anti-message, a stuck window, a lost aggregate), a long run is where it
shows up.
"""

import pytest

from repro import (
    AdaptiveTimeWindow,
    DynamicCancellation,
    DynamicCheckpoint,
    NetworkModel,
    SAAWPolicy,
    SequentialSimulation,
    SimulationConfig,
    TimeWarpSimulation,
)
from repro.apps.phold import PHOLDParams, build_phold
from repro.trace import Tracer, summarize
from tests.helpers import flatten

PARAMS = PHOLDParams(n_objects=20, n_lps=5, jobs_per_object=3,
                     deterministic_fraction=0.6, state_size_ints=64)
HORIZON = 8_000.0


@pytest.mark.slow
def test_kitchen_sink_soak():
    seq = SequentialSimulation(flatten(build_phold(PARAMS)),
                               end_time=HORIZON, record_trace=True)
    seq.run()

    tracer = Tracer.in_memory()
    config = SimulationConfig(
        end_time=HORIZON,
        record_trace=True,
        cancellation=lambda o: DynamicCancellation(filter_depth=8, period=4),
        checkpoint=lambda o: DynamicCheckpoint(period=16),
        aggregation=lambda lp: SAAWPolicy(initial_window_us=2_000.0),
        time_window=lambda: AdaptiveTimeWindow(min_window=25.0),
        gvt_algorithm="mattern",
        gvt_period=15_000.0,
        lp_speed_factors={1: 1.3, 2: 1.6, 3: 2.0, 4: 2.4},
        network=NetworkModel(jitter=0.5),
        tracer=tracer,
        script={"seed": 0, "steps": [
            {"at": 3, "kind": "set", "knob": "cancellation",
             "target": "phold-0", "value": "lazy"},
            {"at": 10, "kind": "set", "knob": "checkpoint",
             "target": "phold-1", "value": 32},
            {"at": 20, "kind": "set", "knob": "aggregation",
             "target": 2, "value": 500.0},
        ]},
        max_executed_events=2_000_000,
    )
    sim = TimeWarpSimulation(build_phold(PARAMS), config)
    sim.advance_to(HORIZON / 3)
    sim.advance_to(HORIZON * 2 / 3)
    stats = sim.finish()

    # exact equivalence after all of that
    assert sim.sorted_trace() == seq.sorted_trace()
    assert stats.committed_events == seq.events_executed

    # the run was actually stressful
    assert stats.rollbacks > 100
    assert stats.lazy_hits + stats.lazy_misses > 0
    assert stats.gvt_rounds > 0
    assert len(summarize(tracer.records).rounds) > 3

    # and it drained completely
    for lp in sim.lps:
        assert lp.comm.buffered_event_count() == 0
        for ctx in lp.members.values():
            assert ctx.iq.pending_anti_count() == 0
            assert ctx.cmp_buffer.min_live_time() is None
