"""Struct-of-arrays event storage: the numpy fast path's hot core.

The pure-Python kernel keeps every pending event as a boxed
:class:`~repro.kernel.event.Event` inside a per-object ``heapq`` of
``(EventKey, Event)`` tuples.  That is simple and exactly ordered, but the
three hottest scans of a Time Warp run — the GVT local-minimum sweep, the
anti-message annihilation match and tombstone compaction — then walk
Python objects one attribute lookup at a time.

This module provides the optional ``fastpath="numpy"`` alternative:

* :class:`EventArena` — one per LP — stores the scalar envelope of every
  live future event in typed columns (the same struct-of-arrays field
  layout the shm wire packs into frames, :data:`SOA_LAYOUT`), so those
  scans become single vectorized numpy operations over contiguous memory.
* :class:`ArrayInputQueue` is a drop-in :class:`~repro.kernel.queues.InputQueue`
  whose future side indexes into the arena: heap entries are
  ``(EventKey, slot)`` pairs and the boxed :class:`Event` becomes a
  lightweight handle materialized from the columns on demand
  (:meth:`EventArena.handle`).

Because heap entries still carry the full :class:`EventKey` — and keys are
unique per event — the pop order of the array queue is *identical* to the
pure-Python heap, tie-breaks included; differential and property tests
pin this.

Selection and degradation mirror the PR 8 ``wire`` axis: ``fastpath=None``
auto-selects ``"numpy"`` when numpy imports and ``"python"`` otherwise,
and an explicit ``"numpy"`` silently degrades to ``"python"`` on
interpreters without numpy (:func:`resolve_fastpath`), so the same
configuration runs — and commits byte-identical results — everywhere.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .errors import ConfigurationError, TimeWarpError
from .event import Event, EventId, EventKey, VirtualTime
from .queues import InputQueue

try:  # pragma: no cover - exercised both ways across CI environments
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HAVE_NUMPY = _np is not None

#: The shared struct-of-arrays field layout: ``(attr, struct fmt, numpy
#: dtype, byte width)`` per scalar Event field.  The shm wire packs frame
#: blocks in exactly this order and these dtypes (see
#: :mod:`repro.parallel.wire`), so a decoded frame's columns can land in
#: an :class:`EventArena` without re-boxing each row into an Event first.
SOA_LAYOUT = (
    ("sender", "I", "<u4", 4),
    ("receiver", "I", "<u4", 4),
    ("serial", "Q", "<u8", 8),
    ("sign", "b", "<i1", 1),
    ("send_time", "d", "<f8", 8),
    ("recv_time", "d", "<f8", 8),
)

#: Recognized ``SimulationConfig.fastpath`` values (``None`` = auto).
FASTPATHS = ("python", "numpy")

_MIN_CAPACITY = 64
#: Dead slots tolerated before a compaction is considered (amortizes the
#: rebuild; compaction also requires dead > live so steady state is O(1)).
_COMPACT_MIN_DEAD = 256


def resolve_fastpath(spec: str | None) -> str:
    """Resolve a ``fastpath`` spec to the path this interpreter will run.

    ``None`` auto-selects: ``"numpy"`` when numpy is importable, else
    ``"python"``.  An explicit ``"numpy"`` silently degrades to
    ``"python"`` when numpy is absent — the same degradation contract as
    the parallel wire ("shm" -> "queue") — because both paths commit
    byte-identical results, so degrading is safe and keeps one scenario
    file runnable on every interpreter.
    """
    if spec is None:
        return "numpy" if HAVE_NUMPY else "python"
    if spec not in FASTPATHS:
        raise ConfigurationError(
            f"unknown fastpath {spec!r} (known: 'python', 'numpy')"
        )
    if spec == "numpy" and not HAVE_NUMPY:
        return "python"
    return spec


class EventArena:
    """Per-LP struct-of-arrays store of live (unprocessed) future events.

    Slots are append-only between compactions: an event occupies one row
    of every column, ``alive`` is its tombstone bit, and popping or
    annihilating an event clears the bit without moving memory.  When
    dead rows outnumber live ones the arena compacts — one vectorized
    boolean take per column — and hands each registered queue a remap so
    heap entries follow their rows.
    """

    __slots__ = (
        "_cap", "_n", "_live", "_dead",
        "senders", "receivers", "serials", "signs",
        "send_times", "recv_times", "alive",
        "events", "payloads", "_queues", "_staged", "_killed",
    )

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        if _np is None:  # pragma: no cover - import-gated by callers
            raise ConfigurationError(
                "EventArena requires numpy; use resolve_fastpath() to "
                "degrade to the python path"
            )
        cap = max(int(capacity), _MIN_CAPACITY)
        self._cap = cap
        self._n = 0       # high-water row count (dead rows included)
        self._live = 0
        self._dead = 0
        self.senders = _np.zeros(cap, dtype="<u4")
        self.receivers = _np.zeros(cap, dtype="<u4")
        self.serials = _np.zeros(cap, dtype="<u8")
        self.signs = _np.zeros(cap, dtype="<i1")
        self.send_times = _np.zeros(cap, dtype="<f8")
        self.recv_times = _np.zeros(cap, dtype="<f8")
        self.alive = _np.zeros(cap, dtype=bool)
        #: boxed handle per row; ``None`` until materialized (or dead)
        self.events: list[Event | None] = [None] * cap
        #: application payload per row (only for rows inserted as columns)
        self.payloads: list = [None] * cap
        self._queues: list[ArrayInputQueue] = []
        #: rows whose column writes are deferred (see :meth:`insert`);
        #: flushed in one fancy-indexed fill before any vectorized scan
        self._staged: list[int] = []
        #: rows killed since the last flush, their ``alive`` bit still
        #: set; membership answers "is this row dead" without a numpy
        #: scalar read, and the flush clears the bits in one fill
        self._killed: set[int] = set()

    # ------------------------------------------------------------------ #
    # registration and sizing
    # ------------------------------------------------------------------ #
    def register(self, queue: "ArrayInputQueue") -> None:
        self._queues.append(queue)

    def unregister(self, queue: "ArrayInputQueue") -> None:
        self._queues.remove(queue)

    def live_count(self) -> int:
        return self._live

    def _ensure(self, need: int) -> None:
        """Make room for ``need`` more rows.

        Compaction happens here — when the arena is full and mostly dead
        — rather than on every kill: a kill is on the pop hot path, and
        compacting there made draining a large queue quadratic-ish (a
        cascade of compactions as the live side shrank).  Folding it into
        the grow decision amortizes the cost to O(1) per insert and
        bounds the capacity at roughly twice the live peak.
        """
        if self._n + need <= self._cap:
            return
        if self._dead >= _COMPACT_MIN_DEAD and self._dead > self._live:
            self.compact()
        if self._n + need > self._cap:
            self._grow(self._n + need)

    def _grow(self, need: int) -> None:
        cap = self._cap
        while cap < need:
            cap *= 2
        for name in ("senders", "receivers", "serials", "signs",
                     "send_times", "recv_times", "alive"):
            old = getattr(self, name)
            new = _np.zeros(cap, dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)
        self.events.extend([None] * (cap - self._cap))
        self.payloads.extend([None] * (cap - self._cap))
        self._cap = cap

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def insert(self, event: Event) -> int:
        """Append one boxed event; returns its row (slot).

        The row's numpy writes — six column stores plus the tombstone bit
        — are *deferred*: per-event numpy scalar stores would cost more
        than the boxed heap path they replace, so a single insert only
        boxes the handle and parks the row on ``_staged``.
        :meth:`_flush_staged` lands every surviving staged row with one
        fancy-indexed fill per column right before a vectorized scan
        needs the values — and a row inserted and popped between two
        scans (the common Time Warp fate) never touches numpy at all.
        """
        n = self._n
        if n >= self._cap:
            self._ensure(1)
            n = self._n  # a compaction moves the high-water mark
        self.events[n] = event
        self._staged.append(n)
        self._n = n + 1
        self._live += 1
        return n

    def flush(self) -> None:
        """Apply deferred numpy writes so raw column reads are coherent.

        The vectorized entry points (:meth:`min_alive_time`,
        :meth:`match_antis`, :meth:`compact`) flush on their own; call
        this before reading ``alive`` or the columns directly.
        """
        self._flush_staged()

    def _flush_staged(self) -> None:
        """Apply the deferred numpy writes: staged column rows and their
        ``alive`` bits, then the ``alive`` bits of deferred kills."""
        staged = self._staged
        killed = self._killed
        if staged:
            self._staged = []
            events = self.events
            # a staged row killed before the flush has events[slot] = None;
            # the zeros it leaves in the columns are never read, because
            # every scan masks on ``alive``
            rows = [(s, events[s]) for s in staged if events[s] is not None]
            if rows:
                idx = _np.array([s for s, _ in rows], dtype="<i8")
                self.senders[idx] = [e.sender for _, e in rows]
                self.receivers[idx] = [e.receiver for _, e in rows]
                self.serials[idx] = [e.serial for _, e in rows]
                self.signs[idx] = [e.sign for _, e in rows]
                self.send_times[idx] = [e.send_time for _, e in rows]
                self.recv_times[idx] = [e.recv_time for _, e in rows]
                self.alive[idx] = True
        if killed:
            # after the staged pass: a row staged then killed is absent
            # from the staged fill (its handle is gone) but present here
            self.alive[_np.fromiter(killed, dtype="<i8", count=len(killed))] = False
            killed.clear()

    def insert_batch(self, events: Sequence[Event]) -> range:
        """Append a batch of boxed events with one column fill each."""
        m = len(events)
        if m == 0:
            return range(0, 0)
        self._ensure(m)
        n = self._n
        sl = slice(n, n + m)
        self.senders[sl] = [e.sender for e in events]
        self.receivers[sl] = [e.receiver for e in events]
        self.serials[sl] = [e.serial for e in events]
        self.signs[sl] = [e.sign for e in events]
        self.send_times[sl] = [e.send_time for e in events]
        self.recv_times[sl] = [e.recv_time for e in events]
        self.alive[sl] = True
        self.events[n:n + m] = list(events)
        self._n = n + m
        self._live += m
        return range(n, n + m)

    def insert_columns(
        self,
        senders, receivers, serials, signs, send_times, recv_times,
        payloads: Sequence,
    ) -> range:
        """Land decoded wire columns directly: one block copy per field.

        The arrays use the :data:`SOA_LAYOUT` dtypes, exactly as
        :func:`repro.parallel.wire.decode_batch` unpacks them, so no Event
        is boxed here — handles materialize lazily on first access, and an
        event annihilated before it is ever scheduled is never boxed at
        all.
        """
        m = len(payloads)
        if m == 0:
            return range(0, 0)
        self._ensure(m)
        n = self._n
        sl = slice(n, n + m)
        self.senders[sl] = senders
        self.receivers[sl] = receivers
        self.serials[sl] = serials
        self.signs[sl] = signs
        self.send_times[sl] = send_times
        self.recv_times[sl] = recv_times
        self.alive[sl] = True
        self.payloads[n:n + m] = list(payloads)
        self._n = n + m
        self._live += m
        return range(n, n + m)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def handle(self, slot: int) -> Event:
        """The boxed :class:`Event` for a live row (materialized lazily)."""
        event = self.events[slot]
        if event is None:
            event = Event(
                sender=int(self.senders[slot]),
                receiver=int(self.receivers[slot]),
                send_time=float(self.send_times[slot]),
                recv_time=float(self.recv_times[slot]),
                payload=self.payloads[slot],
                serial=int(self.serials[slot]),
                sign=int(self.signs[slot]),
            )
            self.events[slot] = event
        return event

    # ------------------------------------------------------------------ #
    # removal and compaction
    # ------------------------------------------------------------------ #
    def kill(self, slot: int) -> None:
        """Mark a row dead and drop its payload references.

        The ``alive`` bit is cleared lazily (``_killed`` holds the slot
        until the next flush): a numpy scalar store per kill is exactly
        the per-event tax the fast path exists to avoid.  Staleness
        checks consult ``_killed`` and the handle list instead.
        """
        self.events[slot] = None
        self.payloads[slot] = None
        self._killed.add(slot)
        self._live -= 1
        self._dead += 1

    def compact(self) -> None:
        """Drop dead rows: one boolean take per column, then remap heaps."""
        self._flush_staged()
        n = self._n
        keep = self.alive[:n].copy()  # the alive writes below must not alias
        new_n = int(keep.sum())
        remap = _np.full(n, -1, dtype="<i8")
        remap[keep] = _np.arange(new_n, dtype="<i8")
        for name in ("senders", "receivers", "serials", "signs",
                     "send_times", "recv_times"):
            col = getattr(self, name)
            col[:new_n] = col[:n][keep]
        self.alive[:new_n] = True
        self.alive[new_n:n] = False
        # move the handle/payload lists in place (new <= old throughout,
        # so a forward pass is safe): compaction cost must scale with the
        # occupied rows, not the capacity high-water mark
        events, payloads = self.events, self.payloads
        for new, old in enumerate(_np.nonzero(keep)[0].tolist()):
            events[new] = events[old]
            payloads[new] = payloads[old]
        if new_n < n:
            events[new_n:n] = [None] * (n - new_n)
            payloads[new_n:n] = [None] * (n - new_n)
        self._n = new_n
        self._dead = 0
        for queue in self._queues:
            queue._remap_slots(remap)

    # ------------------------------------------------------------------ #
    # vectorized scans
    # ------------------------------------------------------------------ #
    def min_alive_time(self) -> VirtualTime | None:
        """Smallest receive time over every live row: the LP's input-queue
        contribution to the GVT local minimum, in one vectorized scan."""
        if self._live == 0:
            return None
        self._flush_staged()
        n = self._n
        return float(_np.min(
            self.recv_times[:n], initial=_np.inf, where=self.alive[:n]
        ))

    def match_antis(
        self, senders: Sequence[int], serials: Sequence[int]
    ) -> list[int]:
        """Rows whose ``(sender, serial)`` identity matches any given anti.

        The candidate filter is vectorized over the identity columns
        (``isin`` on each, which admits cross pairs); candidates are then
        verified exactly, so the result holds precisely the annihilable
        rows.  Identities are simulation-wide unique, hence at most one
        row per anti.
        """
        n = self._n
        if n == 0 or not len(serials):
            return []
        self._flush_staged()
        candidates = (
            self.alive[:n]
            & _np.isin(self.serials[:n], _np.asarray(serials, dtype="<u8"))
            & _np.isin(self.senders[:n], _np.asarray(senders, dtype="<u4"))
        )
        pairs = set(zip(map(int, senders), map(int, serials)))
        return [
            slot for slot in _np.nonzero(candidates)[0].tolist()
            if (int(self.senders[slot]), int(self.serials[slot])) in pairs
        ]


class ArrayInputQueue(InputQueue):
    """Array-backed :class:`InputQueue`: same contract, same pop order.

    The future side becomes a heap of ``(EventKey, slot)`` pairs indexing
    into a shared :class:`EventArena`; the processed side (rollback
    slicing, fossil collection, anti-vs-processed resolution) is inherited
    unchanged.  Keys are unique per event, so heap pops — and therefore
    execution order, rollback points and committed digests — are
    bit-identical to the pure-Python queue; the ``tests/properties``
    differential suite holds the two implementations against each other.
    """

    __slots__ = ("_arena", "_stale", "_events")

    def __init__(self, arena: EventArena) -> None:
        super().__init__()
        self._arena = arena
        #: count of heap entries whose arena row was annihilated (the
        #: python path's tombstone set, as a counter)
        self._stale = 0
        #: cached reference to the arena's boxed-handle list, so the peek
        #: hot path skips two attribute hops; compaction replaces the
        #: list, and :meth:`_remap_slots` re-reads it
        self._events = arena.events
        arena.register(self)

    # ------------------------------------------------------------------ #
    # insertion and annihilation
    # ------------------------------------------------------------------ #
    def insert_positive(self, event: Event) -> bool:
        eid = event._eid
        if eid in self._pending_antis:
            del self._pending_antis[eid]
            return False
        slot = self._arena.insert(event)
        heapq.heappush(self._future, (event._key, slot))
        self._future_ids[eid] = slot
        self._live_future += 1
        return True

    def insert_batch(self, events: Sequence[Event]) -> int:
        """Bulk insert: one column fill per field plus a single heapify.

        Returns the number of events actually enqueued (arrivals consumed
        by stashed anti-messages annihilate on the spot, exactly as in
        :meth:`insert_positive`).
        """
        pending = self._pending_antis
        if pending:
            live = []
            for event in events:
                eid = event._eid
                if eid in pending:
                    del pending[eid]
                else:
                    live.append(event)
            events = live
        else:
            events = list(events)
        if not events:
            return 0
        slots = self._arena.insert_batch(events)
        future = self._future
        ids = self._future_ids
        for event, slot in zip(events, slots):
            future.append((event._key, slot))
            ids[event._eid] = slot
        heapq.heapify(future)  # keys are unique: pop order is unchanged
        self._live_future += len(events)
        return len(events)

    def insert_anti(self, anti: Event) -> Event | None:
        eid = anti._eid
        slot = self._future_ids.pop(eid, None)
        if slot is not None:
            self._live_future -= 1
            self._stale += 1
            self._arena.kill(slot)
            return None
        processed = self._processed_ids.get(eid)
        if processed is None:
            self._pending_antis[eid] = anti
        return processed

    def annihilate_batch(self, antis: Sequence[Event]) -> list[Event]:
        """Annihilate a batch of antis against the future side at once.

        The (serial, sender) identity match runs vectorized over the
        arena columns (:meth:`EventArena.match_antis`); antis that did not
        match an unprocessed positive are returned for the caller to
        resolve one at a time through :meth:`insert_anti` (processed hits
        trigger rollback there, unmatched antis are stashed).
        """
        if not antis:
            return []
        arena = self._arena
        matched = arena.match_antis(
            [a.sender for a in antis], [a.serial for a in antis]
        )
        matched_eids = {
            EventId(int(arena.senders[s]), int(arena.serials[s]))
            for s in matched
        }
        leftovers: list[Event] = []
        for anti in antis:
            eid = anti._eid
            # re-read the dict each round: a kill can compact the arena,
            # which rebuilds it with remapped slots
            ids = self._future_ids
            if eid in matched_eids and eid in ids:
                self._live_future -= 1
                self._stale += 1
                arena.kill(ids.pop(eid))
            else:
                leftovers.append(anti)
        return leftovers

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def _skip_stale(self) -> None:
        # A row is dead iff its kill is pending (``_killed``) or already
        # flushed (handle dropped and ``alive`` cleared).  A live boxed
        # row short-circuits on its handle, so the numpy bit is only read
        # for never-boxed wire rows.
        future = self._future
        arena = self._arena
        events = self._events
        killed = arena._killed
        alive = arena.alive
        stale = self._stale
        while future:
            slot = future[0][1]
            if slot in killed or (events[slot] is None and not alive[slot]):
                heapq.heappop(future)
                stale -= 1
            else:
                break
        self._stale = stale

    def peek_next(self) -> Event | None:
        if self._stale:
            self._skip_stale()
        future = self._future
        if not future:
            return None
        slot = future[0][1]
        return self._events[slot] or self._arena.handle(slot)

    def head_key(self) -> EventKey | None:
        if self._stale:
            self._skip_stale()
        future = self._future
        return future[0][0] if future else None

    def pop_next(self) -> Event:
        if self._stale:
            self._skip_stale()
        if not self._future:
            raise TimeWarpError("pop_next on an empty input queue")
        _, slot = heapq.heappop(self._future)
        event = self._events[slot]
        arena = self._arena
        if event is None:
            event = arena.handle(slot)
        arena.kill(slot)
        eid = event._eid
        del self._future_ids[eid]
        self._live_future -= 1
        self.processed.append(event)
        self._processed_ids[eid] = event
        return event

    def has_future(self) -> bool:
        if self._stale:
            self._skip_stale()
        return bool(self._future)

    def iter_future(self) -> Iterable[Event]:
        arena = self._arena
        for slot in self._future_ids.values():
            yield arena.handle(slot)

    # ------------------------------------------------------------------ #
    # rollback
    # ------------------------------------------------------------------ #
    def rollback(self, key: EventKey) -> list[Event]:
        split = len(self.processed)
        while split > 0 and self.processed[split - 1]._key >= key:
            split -= 1
        rolled = self.processed[split:]
        del self.processed[split:]
        processed_ids = self._processed_ids
        arena = self._arena
        future = self._future
        ids = self._future_ids
        for event in rolled:
            eid = event._eid
            del processed_ids[eid]
            slot = arena.insert(event)
            heapq.heappush(future, (event._key, slot))
            ids[eid] = slot
        self._live_future += len(rolled)
        return rolled

    def detach(self) -> None:
        """Release this queue's arena rows and stop tracking compactions.

        Live migration detaches an object from its LP; its unprocessed
        events leave with the checkpoint, so their rows must die here or
        the arena's local-min scan would keep seeing a departed member.
        """
        arena = self._arena
        ids = self._future_ids
        while ids:
            _eid, slot = ids.popitem()
            arena.kill(slot)
            # a kill can compact the arena, which rebuilds this queue's
            # dict (with remapped slots): re-read it each round
            ids = self._future_ids
        self._future = []
        self._live_future = 0
        self._stale = 0
        arena.unregister(self)

    # ------------------------------------------------------------------ #
    # compaction support
    # ------------------------------------------------------------------ #
    def _remap_slots(self, remap) -> None:
        """Follow an arena compaction: dead heap entries drop, live ones
        take their row's new index.  Keys are untouched, so order holds."""
        future = [
            (key, int(remap[slot]))
            for key, slot in self._future
            if remap[slot] >= 0
        ]
        heapq.heapify(future)
        # mutate in place: callers mid-loop (rollback, batch insert) hold
        # references to these containers across arena inserts, and an
        # insert may compact
        self._future[:] = future
        new_ids = {
            eid: int(remap[slot]) for eid, slot in self._future_ids.items()
        }
        self._future_ids.clear()
        self._future_ids.update(new_ids)
        self._stale = 0
        self._events = self._arena.events  # compaction rebuilt the list
