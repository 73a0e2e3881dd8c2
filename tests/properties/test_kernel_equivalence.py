"""Property-based end-to-end test: Time Warp == sequential, always.

Hypothesis drives random PHOLD topologies through random kernel
configurations (cancellation strategy, checkpoint interval, aggregation
window, GVT algorithm and period, LP speed skew, network jitter, polling
batch) and requires the committed trace to equal the sequential golden
trace every single time.  This is the strongest statement the test-suite
makes about the kernel.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AdaptiveTimeWindow,
    DynamicCancellation,
    DynamicCheckpoint,
    FixedWindow,
    Mode,
    NetworkModel,
    NoAggregation,
    PermanentAggressive,
    PermanentSet,
    SAAWPolicy,
    SequentialSimulation,
    SimulationConfig,
    StaticCancellation,
    StaticCheckpoint,
    StaticTimeWindow,
    TimeWarpSimulation,
)
from repro.apps.phold import PHOLDParams, build_phold
from tests.helpers import flatten


@st.composite
def phold_params(draw):
    n_lps = draw(st.integers(2, 5))
    n_objects = draw(st.integers(n_lps, 14))
    return PHOLDParams(
        n_objects=max(2, n_objects),
        n_lps=min(n_lps, max(2, n_objects)),
        jobs_per_object=draw(st.integers(1, 3)),
        min_delay=5.0,
        max_delay=draw(st.floats(10.0, 80.0)),
        deterministic_fraction=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def cancellations(draw):
    kind = draw(st.sampled_from(["AC", "LC", "DC", "PS", "PA", "AC-mon"]))
    if kind == "AC":
        return lambda o: StaticCancellation(Mode.AGGRESSIVE)
    if kind == "AC-mon":
        return lambda o: StaticCancellation(Mode.AGGRESSIVE, monitor=True)
    if kind == "LC":
        return lambda o: StaticCancellation(Mode.LAZY)
    depth = draw(st.integers(2, 16))
    period = draw(st.integers(1, 8))
    if kind == "DC":
        return lambda o: DynamicCancellation(filter_depth=depth, period=period)
    if kind == "PS":
        lock = draw(st.integers(1, 20))
        return lambda o: PermanentSet(filter_depth=depth, period=period,
                                      lock_after=lock)
    streak = draw(st.integers(1, 8))
    return lambda o: PermanentAggressive(filter_depth=depth, period=period,
                                         miss_streak=streak)


@st.composite
def checkpoints(draw):
    kind = draw(st.sampled_from(["static", "dynamic"]))
    if kind == "static":
        chi = draw(st.integers(1, 40))
        return lambda o: StaticCheckpoint(chi)
    period = draw(st.integers(4, 32))
    step = draw(st.integers(1, 3))
    return lambda o: DynamicCheckpoint(period=period, step=step)


@st.composite
def aggregations(draw):
    kind = draw(st.sampled_from(["none", "faw", "saaw"]))
    if kind == "none":
        return lambda lp: NoAggregation()
    window = draw(st.floats(10.0, 20_000.0))
    if kind == "faw":
        return lambda lp: FixedWindow(window)
    return lambda lp: SAAWPolicy(initial_window_us=window)


@st.composite
def time_windows(draw):
    kind = draw(st.sampled_from(["none", "static", "adaptive"]))
    if kind == "none":
        return None
    if kind == "static":
        width = draw(st.floats(30.0, 2_000.0))
        return lambda w=width: StaticTimeWindow(w)
    return lambda: AdaptiveTimeWindow(min_window=draw(st.floats(10.0, 50.0)))


@st.composite
def scripts(draw, n_objects):
    steps = []
    for _ in range(draw(st.integers(0, 3))):
        step = {"at": draw(st.integers(1, 30)), "kind": "set"}
        # phold_params guarantees at least two objects
        target = f"phold-{draw(st.integers(0, min(1, n_objects - 1)))}"
        kind = draw(st.sampled_from(["chi", "mode", "agg"]))
        if kind == "chi":
            step.update(knob="checkpoint", target=target,
                        value=draw(st.integers(1, 64)))
        elif kind == "mode":
            step.update(knob="cancellation", target=target,
                        value=draw(st.sampled_from(["lazy", "aggressive"])))
        else:
            step.update(knob="aggregation", target=0, value=draw(
                st.one_of(st.none(), st.floats(1.0, 5_000.0))))
        steps.append(step)
    return {"seed": 0, "steps": steps}


@st.composite
def configs(draw, n_objects=14):
    skew = {
        lp: draw(st.floats(1.0, 2.5))
        for lp in range(draw(st.integers(0, 4)))
    }
    return dict(
        cancellation=draw(cancellations()),
        checkpoint=draw(checkpoints()),
        aggregation=draw(aggregations()),
        gvt_algorithm=draw(st.sampled_from(["omniscient", "mattern"])),
        gvt_period=draw(st.floats(1_000.0, 30_000.0)),
        lp_speed_factors=skew,
        network=NetworkModel(jitter=draw(st.floats(0.0, 0.8))),
        time_window=draw(time_windows()),
        script=draw(scripts(n_objects)),
    )


@given(params=phold_params(), config_kwargs=configs(),
       end_time=st.floats(100.0, 600.0),
       phases=st.lists(st.floats(0.1, 0.9), max_size=3))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_config_commits_sequential_trace(params, config_kwargs,
                                                end_time, phases):
    seq = SequentialSimulation(
        flatten(build_phold(params)), end_time=end_time, record_trace=True
    )
    seq.run()

    config = SimulationConfig(
        end_time=end_time, record_trace=True,
        max_executed_events=400_000, **config_kwargs,
    )
    sim = TimeWarpSimulation(build_phold(params), config)
    if phases:
        # phased execution: intermediate quiescent horizons, then finish
        for fraction in sorted(phases):
            sim.advance_to(end_time * fraction)
        stats = sim.finish()
    else:
        stats = sim.run()

    assert sim.sorted_trace() == seq.sorted_trace()
    assert stats.committed_events == seq.events_executed
    # and the kernel has actually drained: no stashed anti-messages, no
    # live lazy entries, no buffered aggregates
    for lp in sim.lps:
        assert lp.comm.buffered_event_count() == 0
        for ctx in lp.members.values():
            assert ctx.iq.pending_anti_count() == 0
            assert ctx.cmp_buffer.min_live_time() is None
