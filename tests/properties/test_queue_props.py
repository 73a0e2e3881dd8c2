"""Properties of the event store: the LP-wide pending queue and an input
queue vs a naive model, and the LP's schedule vs a per-member scan.

The pending heap's lazy deletion and compaction are the fiddly part of
:class:`~repro.kernel.queues.PendingQueue`; the model below has neither —
a key-sorted list with the same annihilation rules — so any interleaving
of inserts, pops, antis and rollbacks must observe the same thing on both,
tie-breaks included.
"""

from dataclasses import dataclass
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costmodel import CostModel
from repro.kernel import queues
from repro.kernel.cancellation import Mode, StaticCancellation
from repro.kernel.checkpointing import StaticCheckpoint
from repro.kernel.event import Event
from repro.kernel.lp import LogicalProcess
from repro.kernel.queues import InputQueue, PendingQueue
from repro.kernel.simobject import SimulationObject
from repro.kernel.state import RecordState
from tests.helpers import make_event

# Coarse time grid: EventKey ties on recv_time are frequent, so the
# (receiver, sender, send_time, serial) tie-breaks are genuinely exercised.
tie_times = st.sampled_from([0.0, 10.0, 10.0, 25.0, 50.0])


class SortedListQueue:
    """The reference: every unprocessed event in one key-sorted list."""

    def __init__(self):
        self.future = []
        self.processed = []
        self.pending_antis = set()

    def insert_positive(self, event):
        if event.event_id() in self.pending_antis:
            self.pending_antis.remove(event.event_id())
            return False
        self.future.append(event)
        self.future.sort(key=Event.key)
        return True

    def insert_anti(self, anti):
        eid = anti.event_id()
        for event in self.future:
            if event.event_id() == eid:
                self.future.remove(event)
                return None
        for event in self.processed:
            if event.event_id() == eid:
                return event
        self.pending_antis.add(eid)
        return None

    def head_key(self):
        return self.future[0].key() if self.future else None

    def peek_next(self):
        return self.future[0] if self.future else None

    def pop_next(self):
        event = self.future.pop(0)
        self.processed.append(event)
        return event

    def rollback(self, key):
        rolled = [e for e in self.processed if e.key() >= key]
        self.processed = [e for e in self.processed if e.key() < key]
        self.future.extend(rolled)
        self.future.sort(key=Event.key)
        return rolled


class SplitQueue:
    """The object under test behind the model's interface: the future
    side is the LP-wide :class:`PendingQueue`, the processed side an
    :class:`InputQueue` bound to it (one LP, one input queue, so a
    rollback un-processes across receivers exactly as the model does)."""

    def __init__(self):
        self.pending = PendingQueue()
        self.iq = InputQueue(self.pending)

    @property
    def processed(self):
        return self.iq.processed

    def insert_positive(self, event):
        return self.iq.insert_positive(event)

    def insert_anti(self, anti):
        return self.iq.insert_anti(anti)

    def head_key(self):
        return self.pending.head_key()

    def peek_next(self):
        return self.pending.peek()

    def pop_next(self):
        event = self.pending.pop()
        self.iq.mark_processed(event)
        return event

    def rollback(self, key):
        return self.iq.rollback(key)

    def iter_future(self):
        return self.pending.live.values()

    def future_count(self):
        return len(self.pending)

    def pending_anti_count(self):
        return self.iq.pending_anti_count()


@st.composite
def queue_scripts(draw):
    """A random interleaving of inserts, pops, antis, rollbacks and
    annihilation storms (antis for every unprocessed event but the lowest,
    which is what leaves tombstones deep in the heap)."""
    n = draw(st.integers(3, 30))
    events = [
        make_event(
            sender=draw(st.integers(0, 3)),
            receiver=draw(st.integers(0, 3)),
            send_time=draw(st.sampled_from([0.0, 5.0, 10.0])),
            recv_time=draw(tie_times),
            serial=i,
        )
        for i in range(n)
    ]
    script = [("insert", i) for i in range(n)]
    extra = draw(st.lists(
        st.sampled_from(["pop", "anti", "storm", "rollback"]), max_size=20))
    for op in extra:
        script.append((op, draw(st.integers(0, n - 1))))
    draw(st.randoms()).shuffle(script)
    return events, script


def _apply(q, op, event):
    """Run one script step; return an observation tuple for comparison."""
    if op == "insert":
        # stragglers roll back first, as in the LP delivery protocol
        rolled = ()
        if q.processed and event.key() < q.processed[-1].key():
            rolled = tuple(q.rollback(event.key()))
        return ("insert", rolled, q.insert_positive(event))
    if op == "pop":
        if q.peek_next() is None:
            return ("pop", None)
        return ("pop", q.pop_next())
    if op == "anti":
        hit = q.insert_anti(event.anti_message())
        if hit is not None:
            # processed hit: roll back and re-deliver, as the LP does
            rolled = tuple(q.rollback(event.key()))
            again = q.insert_anti(event.anti_message())
            return ("anti", hit, rolled, again)
        return ("anti", None)
    return ("rollback", tuple(q.rollback(event.key())))


def _check_against_model(events, script):
    model = SortedListQueue()
    q = SplitQueue()
    for op, index in script:
        if op == "storm":
            steps = [("anti", event) for event in model.future[:0:-1]]
        else:
            steps = [(op, events[index])]
        for op, event in steps:
            assert _apply(model, op, event) == _apply(q, op, event)
            assert model.head_key() == q.head_key()
            assert model.future == sorted(q.iter_future(), key=Event.key)
            assert len(model.future) == q.future_count()
            assert len(model.pending_antis) == q.pending_anti_count()

    # drain and compare the full surviving order, tie-breaks included
    while model.peek_next() is not None or q.peek_next() is not None:
        assert model.pop_next() == q.pop_next()
    assert model.processed == q.processed


@given(queue_scripts())
@settings(max_examples=200, deadline=None)
def test_input_queue_matches_sorted_list_model(script_data):
    _check_against_model(*script_data)


@given(queue_scripts())
@settings(max_examples=200, deadline=None)
def test_input_queue_matches_model_through_compaction(script_data):
    """Same property with the heap rebuilt as soon as two tombstones
    outnumber the live entries, so ``_compact()`` runs inside scripts this
    short."""
    with mock.patch.object(queues, "_COMPACT_MIN_TOMBSTONES", 2):
        _check_against_model(*script_data)


# --------------------------------------------------------------------- #
# the LP's one pending heap over its members' events
# --------------------------------------------------------------------- #
class _Sink(SimulationObject):
    """Counts events; sends nothing, so a script fully decides the order."""

    def initial_state(self):
        return _Ticks()

    def execute_process(self, payload):
        self.state.ticks += 1


@dataclass
class _Ticks(RecordState):
    ticks: int = 0


def _sink_lp(members=3):
    lp = LogicalProcess(0, CostModel(), resolve_name=int, lp_of=lambda oid: 0)
    for oid in range(members):
        lp.attach(
            _Sink(str(oid)), oid,
            cancel_policy=StaticCancellation(Mode.AGGRESSIVE),
            ckpt_policy=StaticCheckpoint(2),
        )
    lp.initialize()
    return lp


@st.composite
def lp_scripts(draw):
    """Deliveries (stragglers included), antis for earlier deliveries and
    execution bursts, in a random order."""
    n = draw(st.integers(3, 25))
    script = []
    for serial in range(n):
        event = make_event(
            sender=9, receiver=draw(st.integers(0, 2)),
            send_time=draw(st.sampled_from([0.0, 5.0])),
            recv_time=draw(tie_times), serial=serial,
        )
        script.append(("deliver", event))
        if draw(st.integers(0, 3)) == 0:
            script.append(("deliver", event.anti_message()))
    for _ in range(draw(st.integers(1, 12))):
        script.append(("execute", draw(st.integers(1, 4))))
    draw(st.randoms()).shuffle(script)
    return script


def _scan(models):
    """The per-member-minimum oracle: each member's lowest-key pending
    event, as the script's own sorted-list models hold them, then the
    lowest of those."""
    heads = [model.future[0] for model in models.values() if model.future]
    return min(heads, key=Event.key) if heads else None


def _deliver(models, event):
    """Book a delivery on the receiver's model the way the LP handles it:
    a straggler rolls its receiver back first, an anti-message for a
    processed event rolls back to it and then annihilates."""
    model = models[event.receiver]
    if event.sign > 0:
        _apply(model, "insert", event)
    elif (hit := model.insert_anti(event)) is not None:
        model.rollback(hit.key())
        assert model.insert_anti(event) is None


@given(lp_scripts())
@settings(max_examples=200, deadline=None)
def test_lp_schedule_matches_a_per_member_minimum_scan(script):
    lp = _sink_lp()
    # delivered, minus executed, minus annihilated: kept by the script,
    # not read from the LP
    models = {oid: SortedListQueue() for oid in lp.members}

    def execute():
        expected = _scan(models)
        assert lp.next_work() is expected
        if expected is None:
            assert not lp.execute_one()
            return False
        assert lp.execute_one()
        assert models[expected.receiver].pop_next() is expected
        return True

    for op, arg in script:
        if op == "deliver":
            lp.deliver_event(arg)
            _deliver(models, arg)
        else:
            for _ in range(arg):
                if not execute():
                    break
        # the schedule agrees with a fresh scan after every step
        assert lp.next_work() is _scan(models)
        for ctx in lp.members.values():
            assert ctx.iq.processed == models[ctx.oid].processed
    while execute():
        pass
