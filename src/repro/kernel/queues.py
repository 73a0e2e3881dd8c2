"""The three WARPED history queues, and the LP-wide queue of pending events.

Each simulation object owns an input, an output and a state queue (see
Figure 1 of the paper); they keep what rollback needs.  What is still to
be executed is scheduled LP-wide, lowest timestamp first, in one
:class:`PendingQueue` shared by the LP's members.  The queues are pure
data structures — rollback *policy* lives in the LP — but they
encapsulate the fiddly parts: annihilation of anti-messages against
positive messages in any arrival order, lazy deletion from the pending
heap, and fossil collection below GVT.
"""

from __future__ import annotations

import heapq

from .errors import StateHistoryError, TimeWarpError
from .event import Event, EventId, EventKey, SentRecord, VirtualTime
from .state import SavedState

#: Tombstones tolerated before the pending heap is compacted.  Lazy
#: deletion only discards dead entries when they surface at the heap top;
#: under a rollback storm that annihilates deep in the future the heap
#: would otherwise grow without bound (dead entries below the top are
#: never popped), so once tombstones outnumber live entries — and there
#: are enough of them to amortize the O(n) rebuild — the heap is filtered
#: and re-heapified in place.
_COMPACT_MIN_TOMBSTONES = 64


class PendingQueue:
    """Unprocessed events of every member of one LP, lowest key first.

    ``heap`` is a binary heap of ``(EventKey, Event)`` pairs and ``live``
    indexes the events it still holds by id.  :class:`EventKey` is a total
    order across objects, so the top entry is the LP's next event.
    Annihilation deletes from ``live`` alone; the heap entry left behind
    is a tombstone (its id is not in ``live``), dropped as soon as it
    reaches the top or when :meth:`_compact` runs.  So ``heap[0]``, if
    any, is always live and a reader needs no tombstone test; the methods
    below keep that, and nothing else writes either attribute.
    """

    __slots__ = ("heap", "live")

    def __init__(self) -> None:
        self.heap: list[tuple[EventKey, Event]] = []
        self.live: dict[EventId, Event] = {}

    def push(self, event: Event) -> None:
        heapq.heappush(self.heap, (event._key, event))
        self.live[event._eid] = event

    def cancel(self, eid: EventId) -> bool:
        """Annihilate the pending event ``eid``; ``False`` if it is not
        pending."""
        live = self.live
        if live.pop(eid, None) is None:
            return False
        heap = self.heap
        dead = len(heap) - len(live)
        if dead >= _COMPACT_MIN_TOMBSTONES and dead > len(live):
            self._compact()
        else:
            while heap and heap[0][1]._eid not in live:
                heapq.heappop(heap)  # a tombstone reached the top
        return True

    def _compact(self) -> None:
        """Drop every tombstone, not just those at the top.  Keys are
        unique per event, so the pop order is unchanged."""
        live = self.live
        heap = self.heap
        heap[:] = [entry for entry in heap if entry[1]._eid in live]
        heapq.heapify(heap)

    def peek(self) -> Event | None:
        """Smallest-key pending event, or ``None``."""
        heap = self.heap
        return heap[0][1] if heap else None

    def head_key(self) -> EventKey | None:
        heap = self.heap
        return heap[0][0] if heap else None

    def pop(self) -> Event:
        """Remove and return the smallest-key pending event."""
        heap = self.heap
        if not heap:
            raise TimeWarpError("pop on an empty pending queue")
        event = heapq.heappop(heap)[1]
        live = self.live
        del live[event._eid]
        while heap and heap[0][1]._eid not in live:
            heapq.heappop(heap)  # a tombstone reached the top
        return event

    def of(self, oid: int) -> list[Event]:
        """The pending events addressed to object ``oid``, in key order."""
        return sorted(
            (event for event in self.live.values() if event.receiver == oid),
            key=Event.key,
        )

    def take(self, oid: int) -> list[Event]:
        """Remove and return :meth:`of` ``oid`` (live migration)."""
        events = self.of(oid)
        live = self.live
        for event in events:
            del live[event._eid]
        self._compact()
        return events

    def __len__(self) -> int:
        return len(self.live)


class InputQueue:
    """Processed events and stashed anti-messages of one simulation object.

    The object's unprocessed events wait in its host's :class:`PendingQueue`
    (``pending``, bound when an LP adopts the object).  The processed side
    is a list in execution order, which rollback slices by key; its id
    index lets an anti-message find an executed positive in O(1).
    """

    __slots__ = ("pending", "processed", "_processed_ids", "_pending_antis")

    def __init__(self, pending: PendingQueue | None = None) -> None:
        self.pending: PendingQueue = pending  # type: ignore[assignment]
        self.processed: list[Event] = []
        self._processed_ids: dict[EventId, Event] = {}
        self._pending_antis: dict[EventId, Event] = {}

    # ------------------------------------------------------------------ #
    # insertion and annihilation
    # ------------------------------------------------------------------ #
    def insert_positive(self, event: Event) -> bool:
        """Insert a positive message into the pending queue.

        Contract: if the event is a straggler (its key precedes
        :meth:`last_processed_key`), the caller must roll the object back
        *first* — the LP's delivery path does — so that the processed
        list stays in key order.

        Returns ``True`` if the event was enqueued, ``False`` if it was
        annihilated on arrival by a previously received anti-message (the
        network may deliver the pair in either order).
        """
        eid = event._eid
        if eid in self._pending_antis:
            del self._pending_antis[eid]
            return False
        self.pending.push(event)
        return True

    def insert_anti(self, anti: Event) -> Event | None:
        """Handle an arriving anti-message.

        Returns ``None`` if the anti-message was resolved locally (it
        annihilated an unprocessed positive, or was stashed because the
        positive has not arrived yet).  Returns the *processed* positive
        event if the LP must first roll the object back to just before that
        event; the caller then re-invokes :meth:`insert_anti` after the
        rollback, at which point the positive is unprocessed and the pair
        annihilates.
        """
        eid = anti._eid
        if self.pending.cancel(eid):
            return None
        processed = self._processed_ids.get(eid)
        if processed is None:
            self._pending_antis[eid] = anti
        return processed

    def mark_processed(self, event: Event) -> None:
        """Append ``event``, just popped from the pending queue (or
        restored by migration), to the processed list."""
        self.processed.append(event)
        self._processed_ids[event._eid] = event

    def last_processed_key(self) -> EventKey | None:
        return self.processed[-1]._key if self.processed else None

    # ------------------------------------------------------------------ #
    # rollback and fossil collection
    # ------------------------------------------------------------------ #
    def rollback(self, key: EventKey) -> list[Event]:
        """Un-process every event with key ``>= key``.

        The un-processed events go back into the pending queue and are
        returned in their original execution order.
        """
        push = self.pending.push  # unbound (a released object): fail untouched
        split = len(self.processed)
        while split > 0 and self.processed[split - 1]._key >= key:
            split -= 1
        rolled = self.processed[split:]
        del self.processed[split:]
        processed_ids = self._processed_ids
        for event in rolled:
            del processed_ids[event._eid]
            push(event)
        return rolled

    def fossil_collect(
        self, gvt: VirtualTime, limit_key: EventKey | None = None
    ) -> list[Event]:
        """Commit and drop processed events with ``recv_time < gvt``.

        ``limit_key`` (the oldest retained state snapshot's last event)
        additionally bounds collection: events *after* that snapshot must
        be retained even when below GVT, because a rollback to a time in
        ``[snapshot, gvt)``-adjacent territory coasts forward through them.
        Pass ``None`` for unbounded collection (final commit).
        """
        split = 0
        processed = self.processed
        while split < len(processed) and processed[split].recv_time < gvt:
            if limit_key is not None and processed[split]._key > limit_key:
                break
            split += 1
        committed = processed[:split]
        if split:
            self.processed = processed[split:]
            processed_ids = self._processed_ids
            for event in committed:
                del processed_ids[event._eid]
        return committed

    def pending_anti_count(self) -> int:
        return len(self._pending_antis)


class OutputQueue:
    """Record of positive messages sent by one object, in send order.

    Rollback slices the records whose *causing event* is being undone; the
    cancellation strategy then decides whether each becomes an immediate
    anti-message (aggressive) or a pending-lazy entry.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[SentRecord] = []

    def record_send(self, event: Event, cause_key: EventKey) -> None:
        self.records.append(SentRecord(event=event, cause_key=cause_key))

    def rollback(self, key: EventKey) -> list[SentRecord]:
        """Remove and return records caused by events with key ``>= key``."""
        split = len(self.records)
        while split > 0 and self.records[split - 1].cause_key >= key:
            split -= 1
        undone = self.records[split:]
        del self.records[split:]
        return undone

    def fossil_collect(self, gvt: VirtualTime) -> int:
        """Drop records whose causing event has been committed."""
        split = 0
        records = self.records
        while split < len(records) and records[split].cause_key.recv_time < gvt:
            split += 1
        del records[:split]
        return split

    def __len__(self) -> int:
        return len(self.records)


class StateQueue:
    """Checkpointed state snapshots of one object, oldest first."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[SavedState] = []

    def save(self, entry: SavedState) -> None:
        if self.entries and entry.last_key is not None:
            prev = self.entries[-1].last_key
            if prev is not None and entry.last_key <= prev:
                raise TimeWarpError("state snapshots must be saved in key order")
        self.entries.append(entry)

    def restore_for(self, key: EventKey) -> SavedState:
        """Discard snapshots taken at or after ``key``; return the newest
        surviving snapshot (the rollback restore point)."""
        entries = self.entries
        split = len(entries)
        while split > 0 and not entries[split - 1].precedes(key):
            split -= 1
        del entries[split:]
        if not entries:
            raise StateHistoryError(
                f"no snapshot precedes straggler key {key!r}; "
                "fossil collection was unsafe or the initial state is missing"
            )
        return entries[-1]

    def fossil_collect(self, gvt: VirtualTime) -> int:
        """Drop every snapshot older than the newest one strictly below GVT.

        A straggler can only carry ``recv_time >= gvt``, so the newest
        snapshot with ``lvt < gvt`` (strictly) is a safe restore point for
        any future rollback; everything older is fossil.
        """
        entries = self.entries
        keep_from = 0
        for index, entry in enumerate(entries):
            if entry.lvt < gvt:
                keep_from = index
            else:
                break
        del entries[:keep_from]
        return keep_from

    def latest(self) -> SavedState | None:
        return self.entries[-1] if self.entries else None

    def __len__(self) -> int:
        return len(self.entries)
