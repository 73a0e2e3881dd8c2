"""The kernel checkpoints through the state's own ``copy()`` (WARPED's
``BasicState`` contract): snapshot zero, every save and every restore,
and sizes each snapshot once, when it is made."""

from dataclasses import dataclass

import pytest

from repro.apps.phold import PHOLDObject, PHOLDParams, build_phold
from repro.cluster.costmodel import CostModel
from repro.kernel.cancellation import Mode, StaticCancellation
from repro.kernel.checkpointing import StaticCheckpoint
from repro.kernel.config import SimulationConfig
from repro.kernel.kernel import TimeWarpSimulation
from repro.kernel.lp import LogicalProcess
from repro.kernel.migration import ObjectCheckpoint, detach_object, restore_object
from repro.kernel.state import RecordState
from tests.kernel.test_lp import LogState, Recorder, drain, inject


def test_kernel_checkpoints_through_the_states_own_copy(monkeypatch):
    copies = []  # (source, clone, equal at copy time), one per copy()

    @dataclass
    class Counted(RecordState):
        """PHOLD's state fields, with every ``copy()`` logged."""

        jobs_processed: int = 0
        sequence: int = 0
        scratch: list = None  # type: ignore[assignment]

        def copy(self):
            clone = super().copy()
            copies.append((self, clone, clone == self))
            return clone

    monkeypatch.setattr(PHOLDObject, "initial_state", lambda self: Counted(scratch=[0] * 4))
    params = PHOLDParams(n_objects=12, n_lps=4, jobs_per_object=2)
    stats = TimeWarpSimulation(
        build_phold(params),
        SimulationConfig(end_time=2_000.0, lp_speed_factors={1: 1.3, 2: 1.6, 3: 2.0}),
    ).run()

    restores = sum(o.state_restores for o in stats.per_object.values())
    assert restores > 0  # the run rolls back
    assert len(copies) == params.n_objects + stats.state_saves + restores
    for source, clone, equal in copies:
        assert equal
        assert clone is not source and clone.scratch is not source.scratch


def test_ndarray_field_is_copied_and_sized():
    # state.py finds ndarray in sys.modules once numpy is loaded
    numpy = pytest.importorskip("numpy")

    @dataclass
    class _Arr(RecordState):
        values: object = None
        scalar: int = 0

    original = _Arr(values=numpy.arange(8, dtype="<i8"), scalar=3)
    assert original.size_bytes() == 8 + original.values.nbytes + 8
    snap = original.copy()
    assert type(snap.values) is numpy.ndarray
    assert snap.values is not original.values
    snap.values[0] = 99
    assert original.values[0] == 0


def test_saved_state_size_is_measured_once_when_the_snapshot_is_made():
    restored_sizes = []

    class SpyCosts(CostModel):
        def state_restore(self, size_bytes):
            restored_sizes.append(size_bytes)
            return super().state_restore(size_bytes)

    def fresh_lp(lp_id):
        return LogicalProcess(lp_id, SpyCosts(), resolve_name={"a": 0}.__getitem__,
                              lp_of=lambda oid: lp_id)

    def assert_sizes_recorded(lp):
        entries = lp.members[0].sq.entries
        assert entries
        for entry in entries:
            assert entry.size == entry.state.size_bytes()

    lp = fresh_lp(0)
    lp.attach(Recorder("a"), 0, cancel_policy=StaticCancellation(Mode.AGGRESSIVE),
              ckpt_policy=StaticCheckpoint(1))
    lp.initialize()
    assert_sizes_recorded(lp)  # snapshot zero
    for t in (1.0, 2.0, 3.0):
        inject(lp, 0, t, ("note", list(range(int(t)))))
    drain(lp)
    assert_sizes_recorded(lp)  # the saves

    snapshot = next(e for e in lp.members[0].sq.entries if e.lvt == 1.0)
    inject(lp, 0, 1.5, ("note", "straggler"))  # restores the lvt-1 snapshot
    assert restored_sizes == [snapshot.state.size_bytes()]
    drain(lp)
    assert_sizes_recorded(lp)  # after the rollback restore and re-execution
    assert lp.members[0].obj.state == LogState(seen=[[0], "straggler", [0, 1], [0, 1, 2]])

    sizes = [e.size for e in lp.members[0].sq.entries]
    blob = detach_object(lp, 0).to_bytes()
    moved = fresh_lp(1)
    restore_object(moved, ObjectCheckpoint.from_bytes(blob))
    assert_sizes_recorded(moved)  # measured again on arrival
    assert [e.size for e in moved.members[0].sq.entries] == sizes
