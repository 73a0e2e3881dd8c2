"""Property-based tests for checkpoint-based object migration.

The migration protocol (modelled ``Executive.migrate_object`` and the
parallel backend's elastic epochs alike) rests on one claim about
:mod:`repro.kernel.migration`: a checkpoint is *canonical*.  Whatever
history an object has accumulated — stragglers, rollbacks, parked lazy
comparisons, pending anti-messages — serialize → restore → serialize
must reproduce the identical bytes, and a restored object must behave
exactly like one that never moved.
"""

from dataclasses import dataclass, field, fields

from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.costmodel import CostModel
from repro.kernel import migration
from repro.kernel.cancellation import Mode, StaticCancellation
from repro.kernel.checkpointing import CheckpointWindow, StaticCheckpoint
from repro.kernel.event import Event, EventKey
from repro.kernel.lp import LogicalProcess, ObjectContext
from repro.kernel.migration import (
    ObjectCheckpoint,
    checkpoint_object,
    detach_object,
    restore_object,
)
from repro.kernel.simobject import SimulationObject
from repro.kernel.state import RecordState
from repro.stats.counters import ObjectStats

NAMES = ("a", "b")


@dataclass
class EchoState(RecordState):
    seen: int = 0
    log: list = field(default_factory=list)


class Echo(SimulationObject):
    """Records payloads; positive tokens bounce to the peer, decremented."""

    def __init__(self, name: str, peer: str) -> None:
        super().__init__(name)
        self.peer = peer

    def initial_state(self) -> EchoState:
        return EchoState()

    def execute_process(self, payload) -> None:
        self.state.seen += 1
        self.state.log.append(payload)
        if isinstance(payload, int) and payload > 0:
            self.send_event(self.peer, 5.0, payload - 1)


def fresh_lp(lp_id: int, mode: Mode, chi: int) -> LogicalProcess:
    """A self-contained LP: every send resolves to a local object."""
    lp = LogicalProcess(
        lp_id,
        CostModel(),
        resolve_name=lambda name: NAMES.index(name),
        lp_of=lambda oid: lp_id,
    )
    for oid, name in enumerate(NAMES):
        lp.attach(
            Echo(name, NAMES[1 - oid]),
            oid,
            cancel_policy=StaticCancellation(mode),
            ckpt_policy=StaticCheckpoint(chi),
        )
    lp.initialize()
    return lp


@st.composite
def scripts(draw):
    """A seeded mid-flight workload: stragglers, antis, partial drains."""
    mode = draw(st.sampled_from((Mode.AGGRESSIVE, Mode.LAZY)))
    chi = draw(st.integers(1, 8))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, 1),                   # receiver oid
                st.floats(1.0, 100.0, allow_nan=False),  # recv_time
                st.integers(0, 3),                   # bounce depth
                st.integers(0, 4),                   # executes afterwards
                st.booleans(),                       # cancel this one later
            ),
            min_size=2,
            max_size=12,
        )
    )
    return mode, chi, steps


def play(lp: LogicalProcess, steps) -> None:
    """Drive the script: external deliveries, partial drains, antis."""
    cancelled = []
    for serial, (oid, recv_time, depth, executes, cancel) in enumerate(steps):
        event = Event(
            sender=99, receiver=oid, send_time=recv_time - 0.5,
            recv_time=recv_time, payload=depth, serial=serial,
        )
        lp.deliver_event(event)
        if cancel:
            cancelled.append(event.anti_message())
        for _ in range(executes):
            if not lp.execute_one():
                break
    for anti in cancelled:
        lp.deliver_event(anti)
    # drain halfway so future events and unresolved history both survive
    for _ in range(len(steps) * 2):
        if not lp.execute_one():
            break


class TestByteIdentity:
    @given(scripts())
    def test_serialize_restore_serialize_is_identity(self, script):
        mode, chi, steps = script
        lp = fresh_lp(0, mode, chi)
        play(lp, steps)
        for oid in (0, 1):
            blob = checkpoint_object(lp.members[oid]).to_bytes()
            target = LogicalProcess(
                7, CostModel(),
                resolve_name=lambda name: NAMES.index(name),
                lp_of=lambda _oid: 7,
            )
            restored = restore_object(target, ObjectCheckpoint.from_bytes(blob))
            again = checkpoint_object(restored).to_bytes()
            assert again == blob

    @given(scripts())
    def test_checkpoint_capture_is_repeatable(self, script):
        mode, chi, steps = script
        lp = fresh_lp(0, mode, chi)
        play(lp, steps)
        for oid in (0, 1):
            first = checkpoint_object(lp.members[oid]).to_bytes()
            second = checkpoint_object(lp.members[oid]).to_bytes()
            assert first == second

    @given(scripts())
    def test_detach_preserves_the_capture(self, script):
        mode, chi, steps = script
        lp = fresh_lp(0, mode, chi)
        play(lp, steps)
        reference = checkpoint_object(lp.members[0]).to_bytes()
        ckpt = detach_object(lp, 0)
        assert ckpt.to_bytes() == reference
        assert 0 not in lp.members


class TestMovedObjectsBehave:
    @given(scripts())
    def test_migrated_pair_finishes_like_the_control(self, script):
        mode, chi, steps = script
        control = fresh_lp(0, mode, chi)
        play(control, steps)

        moved = fresh_lp(0, mode, chi)
        play(moved, steps)
        target = LogicalProcess(
            1, CostModel(),
            resolve_name=lambda name: NAMES.index(name),
            lp_of=lambda _oid: 1,
        )
        for oid in (0, 1):
            blob = detach_object(moved, oid).to_bytes()
            restore_object(target, ObjectCheckpoint.from_bytes(blob))

        while control.execute_one():
            pass
        while target.execute_one():
            pass
        for oid in (0, 1):
            expected = control.members[oid]
            actual = target.members[oid]
            assert actual.obj.state.log == expected.obj.state.log
            assert actual.obj.state.seen == expected.obj.state.seen
            assert actual.lvt == expected.lvt


#: a value unlike the default for every field a checkpoint carries
CARRIED_VALUES = {
    "lvt": 42.5,
    "events_since_save": 3,
    "send_serial": 7,
    "mode": Mode.LAZY,
    "cancel_policy": StaticCancellation(Mode.LAZY, monitor=True, hits=2, misses=1),
    "ckpt_policy": StaticCheckpoint(5),
    "chi": 5,
    "ckpt_window": CheckpointWindow(events=4, saves=1, save_cost=2.5, rollbacks=1),
    # an at-once streak ended at t=41 and its state is not saved yet
    "unsaved_key": EventKey(41.0, 0, 1, 40.0, 3),
    "stats": ObjectStats(events_executed=9, events_committed_at_once=2, comparisons=4),
}


class TestCarriedContext:
    """A checkpoint carries ``ObjectContext`` by the context's own field
    list, so no field is left behind by a hand-kept copy."""

    def test_carried_is_the_context_less_the_named_exclusions(self):
        excluded = {
            "obj", "oid", "iq", "oq", "sq", "cmp_buffer", "exec_cost",
            "coasting", "current_cause_key",
        }
        assert migration.NOT_CARRIED == excluded
        assert migration.CARRIED == tuple(
            f.name for f in fields(ObjectContext) if f.name not in excluded
        )
        assert set(CARRIED_VALUES) == set(migration.CARRIED)

    def test_every_carried_field_survives_the_wire(self):
        lp = fresh_lp(0, Mode.AGGRESSIVE, 1)
        ctx = lp.members[0]
        default = ObjectContext(Echo("a", "b"), 0)
        for name, value in CARRIED_VALUES.items():
            assert getattr(default, name) != value, name
            setattr(ctx, name, value)
        blob = checkpoint_object(ctx).to_bytes()
        target = LogicalProcess(
            7, CostModel(),
            resolve_name=lambda name: NAMES.index(name),
            lp_of=lambda _oid: 7,
        )
        restored = restore_object(target, ObjectCheckpoint.from_bytes(blob))
        for name, value in CARRIED_VALUES.items():
            assert getattr(restored, name) == value, name
