"""Unit tests for the three history queues."""

import pytest

from repro.kernel.errors import StateHistoryError, TimeWarpError
from repro.kernel.queues import InputQueue, OutputQueue, PendingQueue, StateQueue
from repro.kernel.state import SavedState
from tests.helpers import make_event


class _State:
    def __init__(self, tag=0):
        self.tag = tag

    def copy(self):
        return _State(self.tag)

    def size_bytes(self):
        return 8


def snap(last_event=None, lvt=0.0):
    return SavedState(
        last_key=None if last_event is None else last_event.key(),
        lvt=lvt,
        state=_State(),
    )


def split():
    """One object's input queue on its own LP-wide pending queue."""
    pending = PendingQueue()
    return pending, InputQueue(pending)


def pop(pending, q):
    """What the LP does per event: pop the earliest pending event and
    append it to its receiver's processed list."""
    event = pending.pop()
    q.mark_processed(event)
    return event


class TestInputQueueScheduling:
    def test_pop_in_key_order(self):
        pending, q = split()
        events = [make_event(recv_time=t, serial=i) for i, t in enumerate([5, 1, 3])]
        for e in events:
            q.insert_positive(e)
        assert [pop(pending, q).recv_time for _ in range(3)] == [1, 3, 5]

    def test_peek_does_not_consume(self):
        pending, q = split()
        q.insert_positive(make_event(recv_time=2.0))
        assert pending.peek().recv_time == 2.0
        assert pending.peek().recv_time == 2.0
        assert len(pending) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(TimeWarpError):
            PendingQueue().pop()

    def test_last_processed_key_tracks_pops(self):
        pending, q = split()
        assert q.last_processed_key() is None
        q.insert_positive(make_event(recv_time=1.0))
        event = pop(pending, q)
        assert q.last_processed_key() == event.key()

    def test_members_share_one_order(self):
        pending = PendingQueue()
        a, b = InputQueue(pending), InputQueue(pending)
        a.insert_positive(make_event(receiver=0, recv_time=3.0, serial=1))
        b.insert_positive(make_event(receiver=1, recv_time=2.0, serial=2))
        a.insert_positive(make_event(receiver=0, recv_time=1.0, serial=3))
        assert [pending.pop().recv_time for _ in range(3)] == [1, 2, 3]

    def test_take_removes_one_receivers_events(self):
        pending = PendingQueue()
        q = InputQueue(pending)
        mine = [make_event(receiver=1, recv_time=t, serial=t) for t in (4, 2)]
        other = make_event(receiver=0, recv_time=3.0, serial=9)
        for e in [*mine, other]:
            q.insert_positive(e)
        assert pending.of(1) == mine[::-1]
        assert pending.take(1) == mine[::-1]
        assert pending.of(1) == []
        assert pending.pop() == other
        assert pending.peek() is None


class TestAnnihilation:
    def test_anti_then_positive(self):
        pending, q = split()
        event = make_event(serial=3)
        assert q.insert_anti(event.anti_message()) is None
        assert q.pending_anti_count() == 1
        assert q.insert_positive(event) is False  # annihilated on arrival
        assert q.pending_anti_count() == 0
        assert pending.peek() is None

    def test_positive_then_anti_unprocessed(self):
        pending, q = split()
        event = make_event(serial=3)
        q.insert_positive(event)
        assert q.insert_anti(event.anti_message()) is None
        assert pending.peek() is None
        assert len(pending) == 0

    def test_anti_for_processed_event_returns_it(self):
        pending, q = split()
        event = make_event(serial=3)
        q.insert_positive(event)
        pop(pending, q)
        assert q.insert_anti(event.anti_message()) == event

    def test_anti_only_hits_matching_serial(self):
        pending, q = split()
        a, b = make_event(serial=1), make_event(serial=2, recv_time=11.0)
        q.insert_positive(a)
        q.insert_positive(b)
        q.insert_anti(a.anti_message())
        assert pending.peek() == b
        assert len(pending) == 1

    def test_tombstoned_event_skipped_by_peek(self):
        pending, q = split()
        first = make_event(recv_time=1.0, serial=1)
        second = make_event(recv_time=2.0, serial=2)
        q.insert_positive(first)
        q.insert_positive(second)
        q.insert_anti(first.anti_message())
        assert pending.peek() == second

    def test_heap_stays_bounded_under_annihilation_churn(self):
        # Regression: tombstoned heap entries used to linger until a pop
        # walked past them, so a workload that annihilates far-future
        # events it never schedules grew the heap without bound.  The
        # compaction pass must keep the heap proportional to live events.
        pending, q = split()
        keeper = make_event(recv_time=0.5, serial=10**6)
        q.insert_positive(keeper)
        for i in range(2_000):
            event = make_event(recv_time=1000.0 + i, serial=i)
            q.insert_positive(event)
            q.insert_anti(event.anti_message())
        assert len(pending) == 1
        assert len(pending.heap) < 200  # bounded, not ~2000 tombstones
        assert len(pending.heap) - len(pending) < 200  # the tombstones
        assert pop(pending, q) == keeper

    def test_compaction_keeps_tombstones_for_unpopped_entries(self):
        # compaction must drop exactly the dead entries: a live one it
        # lost would never pop, a dead one it kept must still be skipped
        pending, q = split()
        events = [make_event(recv_time=float(i), serial=i) for i in range(70)]
        for e in events:
            q.insert_positive(e)
        for e in events[:65]:  # tombstone most, crossing the threshold
            q.insert_anti(e.anti_message())
        assert len(pending) == 5
        assert [pop(pending, q) for _ in range(5)] == events[65:]
        assert pending.peek() is None


class TestInputQueueRollback:
    def test_rollback_moves_events_back(self):
        pending, q = split()
        events = [make_event(recv_time=t, serial=t) for t in (1, 2, 3, 4)]
        for e in events:
            q.insert_positive(e)
        for _ in range(4):
            pop(pending, q)
        straggler_key = make_event(recv_time=2.5, serial=99).key()
        rolled = q.rollback(straggler_key)
        assert [e.recv_time for e in rolled] == [3, 4]
        assert len(q.processed) == 2
        assert pending.peek().recv_time == 3

    def test_rollback_to_beginning(self):
        pending, q = split()
        q.insert_positive(make_event(recv_time=1.0))
        pop(pending, q)
        rolled = q.rollback(make_event(recv_time=0.5, serial=9).key())
        assert len(rolled) == 1
        assert q.processed == []

    def test_rollback_then_reprocess_same_order(self):
        pending, q = split()
        for t in (1, 2, 3):
            q.insert_positive(make_event(recv_time=t, serial=t))
        popped = [pop(pending, q) for _ in range(3)]
        q.rollback(popped[0].key())
        replayed = [pop(pending, q) for _ in range(3)]
        assert replayed == popped


class TestInputQueueFossil:
    def test_commits_strictly_below_gvt(self):
        pending, q = split()
        for t in (1, 2, 3):
            q.insert_positive(make_event(recv_time=t, serial=t))
            pop(pending, q)
        committed = q.fossil_collect(2.0, None)
        assert [e.recv_time for e in committed] == [1]
        assert [e.recv_time for e in q.processed] == [2, 3]

    def test_limit_key_retains_coast_forward_events(self):
        pending, q = split()
        events = [make_event(recv_time=t, serial=t) for t in (1, 2, 3)]
        for e in events:
            q.insert_positive(e)
            pop(pending, q)
        # Snapshot was taken after event 1: events 2, 3 must survive even
        # though GVT has passed them.
        committed = q.fossil_collect(10.0, events[0].key())
        assert [e.recv_time for e in committed] == [1]
        assert len(q.processed) == 2

    def test_unbounded_final_collect(self):
        pending, q = split()
        for t in (1, 2):
            q.insert_positive(make_event(recv_time=t, serial=t))
            pop(pending, q)
        assert len(q.fossil_collect(float("inf"), None)) == 2
        assert q.processed == []


class TestOutputQueue:
    def _record(self, q, recv_time, cause_time):
        event = make_event(recv_time=recv_time, serial=int(recv_time))
        cause = make_event(recv_time=cause_time, serial=100 + int(cause_time))
        q.record_send(event, cause.key())
        return event

    def test_rollback_slices_by_cause_key(self):
        q = OutputQueue()
        self._record(q, 10, 1)
        self._record(q, 20, 2)
        self._record(q, 30, 3)
        undone = q.rollback(make_event(recv_time=1.5, serial=999).key())
        assert [r.event.recv_time for r in undone] == [20, 30]
        assert len(q) == 1

    def test_fossil_collect_by_cause_recv_time(self):
        q = OutputQueue()
        self._record(q, 10, 1)
        self._record(q, 20, 2)
        assert q.fossil_collect(2.0) == 1
        assert len(q) == 1


class TestStateQueue:
    def test_restore_discards_newer_snapshots(self):
        q = StateQueue()
        e1, e2, e3 = (make_event(recv_time=t, serial=t) for t in (1, 2, 3))
        q.save(snap())
        q.save(snap(e1, lvt=1))
        q.save(snap(e2, lvt=2))
        q.save(snap(e3, lvt=3))
        restored = q.restore_for(make_event(recv_time=2.5, serial=9).key())
        assert restored.lvt == 2
        assert len(q) == 3  # initial, e1, e2

    def test_restore_without_history_raises(self):
        q = StateQueue()
        e1 = make_event(recv_time=5.0)
        q.save(snap(e1, lvt=5))
        with pytest.raises(StateHistoryError):
            q.restore_for(make_event(recv_time=1.0, serial=9).key())

    def test_out_of_order_save_rejected(self):
        q = StateQueue()
        e2 = make_event(recv_time=2.0, serial=2)
        e1 = make_event(recv_time=1.0, serial=1)
        q.save(snap(e2, lvt=2))
        with pytest.raises(TimeWarpError):
            q.save(snap(e1, lvt=1))

    def test_fossil_keeps_newest_below_gvt(self):
        q = StateQueue()
        events = [make_event(recv_time=t, serial=t) for t in (1, 2, 3, 4)]
        q.save(snap())
        for t, e in zip((1, 2, 3, 4), events):
            q.save(snap(e, lvt=t))
        dropped = q.fossil_collect(3.5)
        # snapshots at lvt 3 (newest < gvt) and 4 must survive
        assert dropped == 3
        assert [entry.lvt for entry in q.entries] == [3, 4]

    def test_fossil_with_gvt_below_everything_is_noop(self):
        q = StateQueue()
        q.save(snap())
        assert q.fossil_collect(0.0) == 0
        assert len(q) == 1
