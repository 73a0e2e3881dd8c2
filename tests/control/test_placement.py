"""The placement knob: move selection, the control loop, live migration.

``placement="dynamic"`` turns on the seventh registry knob: the
MetaController samples per-LP cost-weighted committed-event loads and
migrates whole Time Warp objects between modelled LPs mid-run.  These
tests pin the pure move-selection policy, the controller's windowing,
and — the part that matters — that a run which really migrates objects
still commits exactly the sequential trace and emits well-formed
``ctrl.placement``/``lp.migrate`` records.
"""

import pytest

from repro import (
    MetaController,
    NetworkModel,
    SimulationConfig,
    TimeWarpSimulation,
)
from repro.apps.phold import PHOLDParams, build_phold
from repro.cluster.executive import Executive
from repro.control.meta import PlacementController
from repro.kernel.errors import SchedulingError
from repro.parallel.ipc import MigrateBatch, MigrateDone, Reconfigure
from repro.partition import choose_moves
from repro.trace import Tracer, read_trace, validate_trace
from tests.helpers import Mailbox, assert_equivalent, inspection_shard

#: the ablation NOW: spread wide enough that the controller must act
SKEW = {1: 1.4, 2: 1.8, 3: 2.4}


def phold():
    return build_phold(
        PHOLDParams(n_objects=12, n_lps=4, jobs_per_object=2,
                    deterministic_fraction=0.5)
    )


DYNAMIC = dict(
    placement="dynamic",
    lp_speed_factors=SKEW,
    network=NetworkModel(jitter=0.4, seed=0),
    gvt_period=2_000.0,
)


class TestChooseMoves:
    def test_balanced_hosts_hold(self):
        loads = {0: {0: 10, 1: 10}, 1: {2: 10, 3: 10}}
        assert choose_moves(loads) == ()

    def test_single_host_cannot_rebalance(self):
        assert choose_moves({0: {0: 100, 1: 1}}) == ()

    def test_hot_host_donates_peak_lowering_object(self):
        # moving the 30-weight object would just swap which host is hot;
        # the 4-weight one lowers the peak from 34 to 30
        loads = {0: {0: 30, 1: 4}, 1: {2: 4, 3: 4}}
        assert choose_moves(loads) == ((1, 0, 1),)

    def test_never_empties_a_host(self):
        loads = {0: {0: 100}, 1: {1: 1, 2: 1}}
        assert choose_moves(loads) == ()

    def test_factors_weight_host_load(self):
        # equal event counts, but host 1 pays 3x per event: it is the
        # hot host and must donate, not receive
        loads = {0: {0: 10, 1: 10}, 1: {2: 10, 3: 10}}
        moves = choose_moves(loads, factors={1: 3.0})
        assert moves and all(src == 1 for _oid, src, _dst in moves)

    def test_move_must_lower_the_peak(self):
        # the only candidate object carries the entire hot load; moving
        # it just swaps which host is hot, so the policy refuses
        loads = {0: {0: 90, 1: 0}, 1: {2: 10}}
        assert choose_moves(loads) == ()

    def test_max_moves_bounds_the_plan(self):
        loads = {0: {i: 20 for i in range(6)}, 1: {9: 1}}
        assert len(choose_moves(loads, max_moves=3)) == 3

    def test_input_not_mutated(self):
        loads = {0: {0: 30, 1: 4}, 1: {2: 4, 3: 4}}
        frozen = {h: dict(p) for h, p in loads.items()}
        choose_moves(loads)
        assert loads == frozen

    def test_deterministic(self):
        loads = {0: {0: 12, 1: 12, 2: 12}, 1: {3: 2}, 2: {4: 2}}
        assert choose_moves(loads, max_moves=2) == choose_moves(
            loads, max_moves=2
        )


class TestPlacementController:
    def test_windows_are_deltas_not_lifetime_totals(self):
        ctl = PlacementController(imbalance=1.25)
        # first window: host 0 is hot
        moves = ctl.control({0: {0: 100, 1: 100}, 1: {2: 10, 3: 10}})
        assert moves and ctl.last_verdict == "migrate"
        # same lifetime totals again: the window is all zeros -> hold
        moves = ctl.control({0: {0: 100, 1: 100}, 1: {2: 10, 3: 10}})
        assert moves == () and ctl.last_verdict == "hold"

    def test_factors_flip_the_hot_host(self):
        ctl = PlacementController()
        moves = ctl.control(
            {0: {0: 10, 1: 10}, 1: {2: 10, 3: 10}}, {0: 1.0, 1: 3.0}
        )
        assert moves and all(src == 1 for _oid, src, _dst in moves)

    def test_history_records_observed_imbalance(self):
        ctl = PlacementController()
        ctl.control({0: {0: 30, 1: 10}, 1: {2: 10, 3: 10}})
        (observed, moves), = ctl.history
        assert observed == pytest.approx(40 / 30)
        assert moves == ctl.history[-1][1]


class TestMigrateObject:
    def test_bare_executive_has_no_routing(self):
        executive = Executive([], SimulationConfig())
        with pytest.raises(SchedulingError, match="routing"):
            executive.migrate_object(0, 1)

    def test_unknown_destination_rejected(self):
        sim = TimeWarpSimulation(phold(), SimulationConfig(end_time=50.0))
        with pytest.raises(SchedulingError, match="no LP"):
            sim.executive.migrate_object(0, 99)

    def test_same_host_is_a_noop(self):
        sim = TimeWarpSimulation(phold(), SimulationConfig(end_time=50.0))
        src = sim.executive.routing[0]
        sim.executive.migrate_object(0, src)
        assert sim.executive.migrations == 0
        assert sim.executive.routing[0] == src


def _hosted_by_routing(lp, routing):
    """Whether ``lp`` hosts exactly the objects ``routing`` sends to it
    (the LP's local send path reads membership, its anti-messages and
    CommModule read the map)."""
    routed = {oid for oid, owner in routing.items() if owner == lp.lp_id}
    return set(lp.members) == routed and all(
        (lp._lp_of(oid) == lp.lp_id) == (oid in lp.members) for oid in routing
    )


class TestMembershipFollowsRouting:
    def test_modelled_executive(self):
        sim = TimeWarpSimulation(phold(), SimulationConfig(end_time=50.0))
        executive = sim.executive
        src = executive.routing[0]
        dst = (src + 1) % len(executive.lps)
        executive.migrate_object(0, dst)
        assert executive.routing[0] == dst
        assert all(_hosted_by_routing(lp, executive.routing) for lp in executive.lps)

    def test_process_worker_epoch(self):
        mailboxes, done = {0: Mailbox(), 1: Mailbox()}, Mailbox()
        shards = [
            inspection_shard(
                shard_id, build_phold(PHOLDParams(n_objects=8, n_lps=2)),
                SimulationConfig(end_time=50.0), mailboxes=mailboxes,
                to_coordinator=done,
            )
            for shard_id in (0, 1)
        ]
        moved = sorted(shards[0].lp.members)[:2]
        reconfigure = Reconfigure(1, tuple((oid, 0, 1) for oid in moved))
        for runtime in shards:
            runtime._handle(reconfigure)
        (batch,) = mailboxes[1]
        assert isinstance(batch, MigrateBatch) and len(batch.checkpoints) == 2
        shards[1]._handle(batch)
        assert done == [MigrateDone(0, 1), MigrateDone(1, 1)]
        for runtime in shards:
            assert all(runtime.plan.oid_to_shard[oid] == 1 for oid in moved)
            assert _hosted_by_routing(runtime.lp, runtime.plan.oid_to_shard)


class TestLiveMigration:
    def test_dynamic_placement_commits_the_sequential_trace(self):
        sim = assert_equivalent(phold, end_time=600.0, **DYNAMIC)
        assert sim.executive.migrations > 0
        # the routing map agrees with where the objects actually live
        for lp in sim.lps:
            for oid in lp.members:
                assert sim.executive.routing[oid] == lp.lp_id

    def test_kernel_attaches_a_placement_only_meta_controller(self):
        config = SimulationConfig(end_time=50.0, **DYNAMIC)
        sim = TimeWarpSimulation(phold(), config)
        assert isinstance(sim.executive.meta, MetaController)
        assert sim.executive.meta.knobs == ("placement",)

    def test_explicit_meta_controller_wins(self):
        config = SimulationConfig(
            end_time=50.0, meta_control=lambda: MetaController(), **DYNAMIC
        )
        sim = TimeWarpSimulation(phold(), config)
        assert sim.executive.meta.knobs == ("gvt_period", "placement")

    def test_migration_traces_validate(self, tmp_path):
        path = tmp_path / "placement.jsonl"
        with Tracer.to_path(path) as tracer:
            config = SimulationConfig(end_time=600.0, tracer=tracer,
                                      **DYNAMIC)
            sim = TimeWarpSimulation(phold(), config)
            sim.run()
        assert sim.executive.migrations > 0
        assert validate_trace(path) == []
        records = list(read_trace(path))
        decisions = [r for r in records if r["type"] == "ctrl.placement"]
        migrations = [r for r in records if r["type"] == "lp.migrate"]
        assert len(migrations) == sim.executive.migrations
        moved = sum(r["moves"] for r in decisions)
        assert moved == len(migrations)
        for record in migrations:
            assert record["src_lp"] != record["dst_lp"]
        # every applied move shows up in a decision's placement delta
        applied = {f"{r['oid']}@{r['dst_lp']}" for r in migrations}
        announced = set()
        for record in decisions:
            if record["new"]:
                announced.update(record["new"].split(","))
        assert applied == announced
