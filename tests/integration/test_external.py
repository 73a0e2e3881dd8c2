"""Integration: external runtime adjustments (paper reference [26]) as
``set`` steps of the run script, each due at a GVT-commit index."""

import pytest

from repro import Mode, NetworkModel, SimulationConfig, TimeWarpSimulation
from repro.apps.raid import RAIDParams, build_raid
from repro.kernel.errors import ConfigurationError
from tests.helpers import assert_equivalent


def raid():
    return build_raid(RAIDParams(requests_per_source=30))


SKEW = {1: 1.1, 2: 1.2, 3: 1.3}


def script(*steps):
    return {"seed": 0, "steps": [
        {"at": at, "kind": "set", "knob": knob, "value": value,
         **({} if target is None else {"target": target})}
        for at, knob, target, value in steps
    ]}


class TestSetSteps:
    @pytest.mark.parametrize("step,detail", [
        ((1, "checkpoint", "x", 0), "checkpoint interval"),
        ((1, "aggregation", 0, -1.0), "aggregation window"),
        ((1, "time_window", None, 0.0), "time window"),
        ((1, "cancellation", "x", "sometimes"), "cancellation mode"),
        ((1, "checkpoint", None, 4), "object name"),
        ((1, "aggregation", "disk-0", 50.0), "LP id"),
        ((1, "time_window", 0, 50.0), "no 'target'"),
        ((1, "gvt_period", None, 1_000.0), "MetaController"),
        ((1, "nonsense", None, 1), "unknown knob"),
    ], ids=[
        "chi_range", "window_range", "time_window_range", "mode_name",
        "object_target", "lp_target", "global_target", "meta_knob",
        "unknown_knob",
    ])
    def test_validation(self, step, detail):
        with pytest.raises(ConfigurationError, match=detail):
            SimulationConfig(script=script(step)).validate()

    def test_unknown_object_fails_at_build_time(self):
        config = SimulationConfig(script=script((1, "checkpoint", "ghost", 4)))
        with pytest.raises(ConfigurationError, match="ghost"):
            TimeWarpSimulation(raid(), config)

    def test_unknown_lp_fails_at_build_time(self):
        config = SimulationConfig(script=script((1, "aggregation", 9, 50.0)))
        with pytest.raises(ConfigurationError, match="LP 9"):
            TimeWarpSimulation(raid(), config)


class TestAdjustmentsApply:
    def test_checkpoint_interval_changes(self):
        config = SimulationConfig(
            lp_speed_factors=SKEW,
            script=script((1, "checkpoint", "disk-0", 32)),
        )
        sim = TimeWarpSimulation(raid(), config)
        sim.run()
        ctx = next(ctx for lp in sim.lps for ctx in lp.members.values()
                   if ctx.obj.name == "disk-0")
        assert ctx.chi == 32
        # fewer saves than the save-every-event siblings
        other = next(ctx for lp in sim.lps for ctx in lp.members.values()
                     if ctx.obj.name == "disk-1")
        assert ctx.stats.state_saves < other.stats.state_saves

    def test_cancellation_mode_switch(self):
        config = SimulationConfig(
            lp_speed_factors=SKEW,
            script=script(*(
                (1, "cancellation", f"disk-{i}", "lazy") for i in range(8)
            )),
        )
        sim = TimeWarpSimulation(raid(), config)
        stats = sim.run()
        modes = [ctx.mode for lp in sim.lps for ctx in lp.members.values()
                 if ctx.obj.name.startswith("disk")]
        assert all(m is Mode.LAZY for m in modes)
        lazy_hits = sum(o.lazy_hits for o in stats.per_object.values())
        assert lazy_hits > 0  # the switch actually took effect mid-run

    def test_aggregation_window_resize(self):
        config = SimulationConfig(
            lp_speed_factors=SKEW,
            script=script((1, "aggregation", 0, 5_000.0)),
        )
        sim = TimeWarpSimulation(raid(), config)
        sim.run()
        assert sim.lps[0].comm.window == 5_000.0
        assert sim.lps[1].comm.window == 0.0  # others untouched

    def test_a_step_past_the_last_commit_never_runs(self):
        config = SimulationConfig(script=script((10_000, "checkpoint", "disk-0", 32)))
        sim = TimeWarpSimulation(raid(), config)
        sim.run()
        assert 0 < sim.executive.commits < 10_000
        assert all(ctx.chi == 1 for lp in sim.lps for ctx in lp.members.values())


class TestTransparency:
    def test_scripted_run_commits_sequential_trace(self):
        assert_equivalent(
            raid, lp_speed_factors=SKEW, network=NetworkModel(jitter=0.4),
            script=script(
                (1, "cancellation", "disk-0", "lazy"),
                (2, "checkpoint", "fork-1", 8),
                (3, "aggregation", 2, 2_000.0),
                (4, "time_window", None, 500.0),
            ),
        )
