"""SPSC shared-memory ring buffers: the fast inter-shard wire.

One :class:`ShmRing` sits on a single anonymous shared mapping and
carries length-prefixed binary frames from exactly one producer process
to exactly one consumer process (the parallel backend creates one ring
per *directed* shard pair before forking, so rings are inherited, never
pickled or attached by name).  An anonymous mapping has no ``/dev/shm``
entry to leak and needs no resource-tracker process; it also keeps
``multiprocessing.shared_memory`` out of the process, whose ``secrets``
import loads ``hashlib`` and with it libcrypto, 3.4 MiB resident in the
coordinator and every shard (docs/parallel.md).  Handoff is by a pair
of monotonically increasing byte cursors in the ring header — the
producer owns ``tail``, the consumer owns ``head``, and each side
publishes its cursor once per operation, as one aligned 8-byte store,
*after* the corresponding data write, which is the whole synchronization
protocol (single-producer/single-consumer plus x86-TSO/compiler-barrier-
per-bytecode store ordering; no locks, no syscalls on the hot path).
``struct`` must never touch a cursor: ``pack_into`` zeroes its
destination before packing — two stores — and a concurrent reader then
sees a cursor of 0 (tests/parallel/test_ring_xproc.py hammers this), so
the cursors are items of a ``"Q"``-cast memoryview over the header.
The ordering assumption is load-bearing too:
:func:`shm_wire_supported` answers whether the current machine provides
it, and the parallel backend runs the queue wire where it does not
(weakly ordered CPUs could observe a published cursor before the
payload bytes and decode torn frames).

Record framing: ``u32`` length + payload, written contiguously.  When a
record does not fit in the space before the physical end of the segment,
the producer writes a wrap marker (``0xFFFFFFFF``) in the remaining
space (or nothing, if fewer than 4 bytes remain — both sides skip the
tail sliver implicitly) and restarts at offset 0; cursors keep counting
monotonically, so ``full`` vs ``empty`` is never ambiguous.

``try_push`` returns ``False`` on a full ring — backpressure is the
*caller's* job (the worker drains its own inbound rings while waiting,
which is what makes mutual-full deadlock impossible; see
``worker._send_batch``).  The header also carries a consumer-waiting
flag: the consumer sets it before blocking, the producer tests-and-clears
it after a push and, if it was set, rings the consumer's doorbell — one
byte written to a pipe in the consumer's wait set (:class:`WakeBoard`).
Duplicate or stale rings are harmless: the consumer just re-polls.
"""

from __future__ import annotations

import mmap
import os
import platform
import struct
from multiprocessing import connection

from .wire import WireFormatError

#: default per-ring data capacity used by the parallel backend, bytes.
#: Bounded memory: a pool of P workers allocates P*(P-1) rings.
RING_CAPACITY = 1 << 18

_HEADER_BYTES = 64
_HEAD = 0  # consumer cursor (u64 slot of the header, byte 0, monotonic)
_TAIL = 2  # producer cursor (u64 slot of the header, byte 16, monotonic)
_WAIT_OFF = 32  # consumer-waiting flag (u8)
_WRAP = 0xFFFFFFFF

_U32 = struct.Struct("<I")

#: machines whose store ordering satisfies the ring protocol (x86-TSO).
_TSO_MACHINES = frozenset(
    {"x86_64", "amd64", "i686", "i586", "i486", "i386", "x86"}
)


def shm_wire_supported(machine: str | None = None) -> bool:
    """Whether the lock-free ring protocol is safe on this CPU.

    The cursor handoff relies on total-store-order semantics: the
    payload write must become visible to the consumer no later than the
    cursor publish.  CPython emits no fences, so on weakly ordered
    machines (aarch64, ppc64le, ...) the consumer could observe the new
    cursor before the payload bytes and decode a torn frame.  The
    parallel backend consults this and runs the queue wire off x86.
    """
    if machine is None:
        machine = platform.machine()
    return machine.lower() in _TSO_MACHINES


class RingRecordTooLarge(ValueError):
    """The record can never fit this ring; use the queue fallback."""


class RingCorruptError(WireFormatError):
    """The cursors and the length prefix do not describe a record."""

    def __init__(self, ring: str, head: int, tail: int, n: int | None) -> None:
        super().__init__(f"ring {ring}: head={head} tail={tail} length={n} is not a record")
        self.ring, self.head, self.tail, self.n = ring, head, tail, n


class ShmRing:
    """One directed single-producer/single-consumer frame ring."""

    __slots__ = ("name", "_map", "_buf", "_cursors", "_capacity", "max_record")

    def __init__(self, capacity: int, name: str) -> None:
        #: zero-filled, ``MAP_SHARED``: both ends of a fork see one copy
        self._map = mmap.mmap(-1, _HEADER_BYTES + capacity)
        self._buf = memoryview(self._map)
        #: the header as u64 slots: item access is one aligned load/store
        self._cursors = self._buf[:_HEADER_BYTES].cast("Q")
        self._capacity = capacity
        #: largest pushable record.  Half the capacity (minus the length
        #: prefix) guarantees progress: at any write offset either the
        #: straight run to the physical end fits the record, or the
        #: offset itself is large enough that the wrap path fits once
        #: the ring drains.  Anything bigger can land at an offset where
        #: *neither* path ever fits — even on an empty ring — and wedge
        #: the producer permanently.
        self.max_record = capacity // 2 - 4
        #: names the ring in :class:`RingCorruptError`
        self.name = name

    @classmethod
    def create(cls, capacity: int = RING_CAPACITY, name: str = "ring") -> "ShmRing":
        """Allocate a fresh zeroed ring (call :meth:`destroy` when done)."""
        if capacity < 64:
            raise ValueError(f"ring capacity {capacity} is unusably small")
        return cls(capacity, name)

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    def try_push(self, payload: bytes) -> bool:
        """Append one record; ``False`` if the ring is currently full."""
        n = len(payload)
        need = 4 + n
        if n > self.max_record:
            raise RingRecordTooLarge(
                f"{n}-byte record exceeds ring max {self.max_record}"
            )
        buf = self._buf
        cap = self._capacity
        cursors = self._cursors
        tail = cursors[_TAIL]
        free = cap - (tail - cursors[_HEAD])
        offset = tail % cap
        contiguous = cap - offset
        if contiguous < need:
            # restart at 0; the tail sliver is skipped by both sides
            if contiguous + need > free:
                return False
            if contiguous >= 4:
                _U32.pack_into(buf, _HEADER_BYTES + offset, _WRAP)
            tail += contiguous
            offset = 0
        elif need > free:
            return False
        start = _HEADER_BYTES + offset
        _U32.pack_into(buf, start, n)
        buf[start + 4:start + 4 + n] = payload
        # publish: the single store that makes the record visible
        cursors[_TAIL] = tail + need
        return True

    def take_waiting(self) -> bool:
        """Test-and-clear the consumer-waiting flag (producer side)."""
        buf = self._buf
        if buf[_WAIT_OFF]:
            buf[_WAIT_OFF] = 0
            return True
        return False

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    def try_pop(self) -> bytes | None:
        """Remove and return the oldest record, or ``None`` when empty.

        ``head != tail`` alone is not trusted (the bytes are another
        process's): a span or length that cannot be a record raises.
        """
        buf = self._buf
        cap = self._capacity
        cursors = self._cursors
        head = cursors[_HEAD]
        tail = cursors[_TAIL]
        if head == tail:
            return None
        if not 4 <= tail - head <= cap:
            raise RingCorruptError(self.name, head, tail, None)
        offset = head % cap
        contiguous = cap - offset
        if contiguous < 4:
            head += contiguous  # implicit sliver skip (no room for a marker)
            offset = 0
        elif _U32.unpack_from(buf, _HEADER_BYTES + offset)[0] == _WRAP:
            head += contiguous
            offset = 0
        start = _HEADER_BYTES + offset
        n = _U32.unpack_from(buf, start)[0]
        if 4 + n > tail - head:
            raise RingCorruptError(self.name, head, tail, n)
        payload = bytes(buf[start + 4:start + 4 + n])
        # publish: frees the space for the producer
        cursors[_HEAD] = head + 4 + n
        return payload

    def set_waiting(self) -> None:
        self._buf[_WAIT_OFF] = 1

    def clear_waiting(self) -> None:
        self._buf[_WAIT_OFF] = 0

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used(self) -> int:
        return self._cursors[_TAIL] - self._cursors[_HEAD]

    @property
    def empty(self) -> bool:
        return self.used == 0

    def destroy(self) -> None:
        """Unmap this process's view of the ring (idempotent)."""
        buf, self._buf = self._buf, None
        if buf is None:
            return
        try:
            self._cursors.release()  # the mmap cannot close under a live view
            buf.release()
            self._map.close()
        except BufferError:  # pragma: no cover - exported views outstanding
            pass


class WakeBoard:
    """The fleet's doorbells and its *dry board*, shared by fork.

    One non-blocking pipe per pool slot plus one for the coordinator
    (slot :attr:`coordinator`).  A ring is a single ``os.write`` from the
    producer's main thread — no feeder thread has to win the GIL first —
    and the owner blocks in one ``wait`` on its pipe together with
    whatever else can wake it.

    The board, an anonymous shared mapping (no ``/dev/shm`` entry to
    leak), makes the coordinator's period wait event-driven.  Per slot it
    holds a *busy* byte and the slot's lifetime sent / received message
    totals: the backend marks a slot busy before forking it, a shard
    publishes its totals and clears its byte while it blocks *dry*, and
    the shard that then finds no busy byte and the totals in balance —
    nobody working, nothing in flight — rings the coordinator.  That ring
    is only a hint that a GVT round is worth starting now: quiescence is
    still proven by the round, a lost hint costs one period and a stale
    one one extra round.

    The board also holds each slot's *channel clock* (:attr:`clocks`, one
    f64 per slot, 0.0 before fork: no event precedes time 0): a lower
    bound on the timestamp of anything the shard will still push, which
    its peers read to find the events no one can undo (docs/parallel.md,
    "Events no peer can undo").  One aligned 8-byte store publishes it,
    as a ring cursor is published.
    """

    def __init__(self, slots: int) -> None:
        self.coordinator = slots
        self._pipes: list[tuple[int, int]] = []
        #: u64 (sent, received) per slot, one f64 clock per slot, then one
        #: busy byte per slot
        self._board = mmap.mmap(-1, 25 * slots)
        self._totals = memoryview(self._board)[:16 * slots].cast("Q")
        self.clocks = memoryview(self._board)[16 * slots:24 * slots].cast("d")
        self._busy_at = 24 * slots
        self._all_dry = bytes(slots)
        try:
            for _ in range(slots + 1):
                self._pipes.append(os.pipe())
                for fd in self._pipes[-1]:
                    os.set_blocking(fd, False)
        except OSError:
            self.close()
            raise

    def ring(self, slot: int) -> None:
        try:
            os.write(self._pipes[slot][1], b"\0")
        except BlockingIOError:
            pass  # pipe full: wake-ups are already pending

    def mark_busy(self, slot: int) -> None:
        self._board[self._busy_at + slot] = 1

    def mark_dry(self, slot: int, sent: int, received: int) -> None:
        """Publish ``slot`` as out of work (for a wait, or for good at
        retirement); the totals are stored before the byte drops."""
        totals = self._totals
        totals[2 * slot] = sent
        totals[2 * slot + 1] = received
        self._board[self._busy_at + slot] = 0

    def wait(self, slot: int, readers=(), timeout=None, *, dry=None) -> None:
        """Block until ``slot``'s doorbell rings, one of ``readers`` is
        readable or ``timeout`` seconds pass, then drain the doorbell.

        ``dry=(sent, received)`` publishes the wait as "this shard has
        run out of work" and rings the coordinator if that leaves the
        whole fleet dry with its totals in balance.
        """
        bell = self._pipes[slot][0]
        if dry is not None:
            self.mark_dry(slot, *dry)
            totals = self._totals
            if (
                self._board[self._busy_at:] == self._all_dry
                and sum(totals[0::2]) == sum(totals[1::2])
            ):
                self.ring(self.coordinator)
        ready = connection.wait([bell, *readers], timeout)
        if dry is not None:
            self.mark_busy(slot)
        if bell in ready:
            try:
                while len(os.read(bell, 4096)) == 4096:
                    pass
            except BlockingIOError:
                pass

    def close(self) -> None:
        """Close every pipe end and the mapping (idempotent)."""
        for fds in self._pipes:
            for fd in fds:
                os.close(fd)
        self._pipes = []
        self._totals.release()  # the mmap cannot close under a live view
        self.clocks.release()
        self._board.close()
