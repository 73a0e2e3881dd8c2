"""Per-LP communication module: routing, aggregation, and control traffic.

Every LP owns one :class:`CommModule`.  Remote application events pass
through a per-destination :class:`AggregateBuffer` governed by the LP's
aggregation policy; kernel control messages (the GVT star's records)
bypass aggregation.  The module charges all send-side CPU costs to its
host LP's wall clock, stamps each DATA message with the host's Mattern
colour, and schedules aging aggregates on the host's flush timer (each
when the host has one).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

from ..cluster.costmodel import CostModel
from ..kernel.event import Event, VirtualTime
from ..trace.tracer import NULL_TRACER
from .aggregation import AggregateBuffer, AggregationPolicy
from .message import MessageKind, PhysicalMessage
from .network import Network

if TYPE_CHECKING:  # pragma: no cover
    from ..gvt.mattern import ColourAgent


class TransportHost(Protocol):
    """Services the owning LP provides to its comm module."""

    lp_id: int
    agent: "ColourAgent | None"
    schedule_flush: Callable[[int, float, int], None] | None

    @property
    def clock(self) -> float: ...

    def charge(self, cost: float) -> None:
        """Charge CPU ``cost`` to the host's wall clock."""
        ...

    def on_physical_sent(self, message: PhysicalMessage, cost: float) -> None:
        """DATA ``message`` left this host: charge its send-side CPU
        ``cost`` to the host's wall clock and count it, its events and its
        bytes."""
        ...


class CommModule:
    """Aggregating transport endpoint of one LP."""

    #: Hard cap on events per aggregate; bounds memory and models the MTU.
    MAX_AGGREGATE_EVENTS = 128

    def __init__(
        self,
        host: TransportHost,
        network: Network,
        costs: CostModel,
        policy: AggregationPolicy,
        *,
        tracer=NULL_TRACER,
    ) -> None:
        self.host = host
        self.network = network
        self.costs = costs
        self.policy = policy
        #: structured observability tracer (repro.trace)
        self.tracer = tracer
        self.window: float = policy.initial_window()
        self._buffers: dict[int, AggregateBuffer] = {}
        self._routing: dict[int, int] = {}
        self.antis_annihilated_in_buffer = 0
        #: least receive time enqueued since the owner last reset it (the
        #: process backend's channel clock must not promise past a send
        #: it has not pushed yet)
        self.least_enqueued: VirtualTime = float("inf")

    # ------------------------------------------------------------------ #
    # application-event path
    # ------------------------------------------------------------------ #
    def enqueue(self, event: Event) -> None:
        """Queue one application event for a remote LP (called post-routing,
        so ``event.receiver`` is known to live on another LP)."""
        if event.recv_time < self.least_enqueued:
            self.least_enqueued = event.recv_time
        # the receiver -> LP map is the kernel's own routing table, shared
        dst_lp = self._routing[event.receiver]
        if self.window <= 0.0:
            self._transmit(dst_lp, (event,))
            return
        buffer = self._buffers.get(dst_lp)
        if buffer is None:
            buffer = self._buffers[dst_lp] = AggregateBuffer(dst_lp=dst_lp)
        if event.sign < 0 and buffer.try_annihilate(event):
            self.antis_annihilated_in_buffer += 1
            return
        if not buffer.events:
            host = self.host
            buffer.open(host.clock)
            if host.schedule_flush is not None:
                host.schedule_flush(
                    dst_lp, host.clock + self.window, buffer.generation
                )
        buffer.append(event)
        if len(buffer) >= self.MAX_AGGREGATE_EVENTS:
            self._send_aggregate(buffer, trigger="capacity")

    def set_routing(self, routing: dict[int, int]) -> None:
        """Install the receiver-object -> LP map (built by the kernel)."""
        self._routing = routing

    # ------------------------------------------------------------------ #
    # flushing
    # ------------------------------------------------------------------ #
    def flush_due(self, dst_lp: int, generation: int) -> None:
        """Wall-clock flush callback; ignores stale generations."""
        buffer = self._buffers.get(dst_lp)
        if buffer is None or buffer.generation != generation or not buffer.events:
            return
        self._send_aggregate(buffer, trigger="age")

    def flush_all(self) -> int:
        """Force-send every non-empty aggregate (idle or GVT barrier)."""
        flushed = 0
        for buffer in self._buffers.values():
            if buffer.events:
                self._send_aggregate(buffer, trigger="drain")
                flushed += 1
        return flushed

    def _send_aggregate(self, buffer: AggregateBuffer, *, trigger: str = "age") -> None:
        age = buffer.age(self.host.clock)
        count = len(buffer)
        events = buffer.take()
        self._transmit(buffer.dst_lp, events)
        old_window = self.window
        new_window = self.window = self.policy.next_window(count, age, old_window)
        tracer = self.tracer
        if tracer.enabled:
            clock = self.host.clock
            tracer.emit(
                "comm.flush", clock,
                lp=self.host.lp_id, dst_lp=buffer.dst_lp,
                count=count, age=age, window=old_window, trigger=trigger,
            )
            # Adaptive policies treat every aggregate as one <O,I,S,T,P>
            # control invocation; static policies carry no verdict.
            verdict = getattr(self.policy, "last_verdict", "")
            if verdict:
                tracer.emit(
                    "ctrl.aggregation", clock,
                    lp=self.host.lp_id, dst_lp=buffer.dst_lp,
                    o=getattr(self.policy, "last_rate", 0.0),
                    old=old_window, new=new_window,
                    verdict=verdict, count=count, age=age,
                )

    def _transmit(self, dst_lp: int, events: tuple[Event, ...]) -> None:
        host = self.host
        message = PhysicalMessage(host.lp_id, dst_lp, MessageKind.DATA, events)
        if host.agent is not None:
            message.colour = host.agent.note_send(message.min_event_time())
        host.on_physical_sent(message, self.costs.physical_send(message._size))
        self.network.send(message, host.clock)

    # ------------------------------------------------------------------ #
    # control traffic (bypasses aggregation)
    # ------------------------------------------------------------------ #
    def send_control(self, dst_lp: int, kind: MessageKind, control: object) -> None:
        message = PhysicalMessage(
            src_lp=self.host.lp_id, dst_lp=dst_lp, kind=kind, control=control
        )
        # charged, not counted: the run's wire totals are data traffic,
        # as on the process backend, whose GVT travels over its IPC
        self.host.charge(self.costs.physical_send(message._size))
        self.network.send(message, self.host.clock)

    # ------------------------------------------------------------------ #
    # GVT accounting
    # ------------------------------------------------------------------ #
    def min_buffered_time(self) -> VirtualTime | None:
        best: VirtualTime | None = None
        for buffer in self._buffers.values():
            t = buffer.min_event_time()
            if t is not None and (best is None or t < best):
                best = t
        return best

    def buffered_event_count(self) -> int:
        return sum(len(buffer) for buffer in self._buffers.values())


# ---------------------------------------------------------------------- #
# reliable-channel state machines
# ---------------------------------------------------------------------- #
# One sender/receiver pair exists per directed LP channel when the wire
# injects faults (repro.faults.FaultyNetwork drives them).  They are pure
# protocol state — sequencing, cumulative acks, dedup, in-order release —
# with no clocks or scheduling of their own, so they are unit-testable in
# isolation and add nothing to the perfect-wire fast path.


class ReliableSender:
    """Send half of one directed channel.

    Assigns consecutive per-channel sequence numbers and remembers every
    unacknowledged message so a timeout can retransmit it.  A cumulative
    ack for sequence ``n`` settles everything up to and including ``n``.
    """

    __slots__ = ("next_seq", "pending")

    def __init__(self) -> None:
        self.next_seq = 0
        self.pending: dict[int, PhysicalMessage] = {}

    def register(self, message: PhysicalMessage, *, track: bool = True) -> int:
        """Assign the next sequence number; remember it unless ``track``
        is False (fire-and-forget channels still need seqs for dedup)."""
        seq = self.next_seq
        self.next_seq += 1
        if track:
            self.pending[seq] = message
        return seq

    def ack_through(self, cum_seq: int) -> int:
        """Settle every pending message with seq <= ``cum_seq``; returns
        how many were newly settled."""
        settled = [seq for seq in self.pending if seq <= cum_seq]
        for seq in settled:
            del self.pending[seq]
        return len(settled)

    def is_outstanding(self, seq: int) -> bool:
        return seq in self.pending


class ReliableReceiver:
    """Receive half of one directed channel.

    In ordered mode (the retransmitting transport) it holds back
    out-of-order arrivals and releases messages strictly in sequence; in
    unordered mode (fire-and-forget) it only deduplicates, passing unseen
    messages through immediately in arrival order.
    """

    __slots__ = ("ordered", "expected", "_held", "_seen")

    def __init__(self, *, ordered: bool = True) -> None:
        self.ordered = ordered
        self.expected = 0
        self._held: dict[int, PhysicalMessage] = {}
        self._seen: set[int] = set()

    def accept(
        self, seq: int, message: PhysicalMessage
    ) -> list[PhysicalMessage] | None:
        """Process one wire arrival.

        Returns the messages now ready for delivery, in order (possibly
        empty while waiting for a gap to fill), or None for a duplicate
        that must be discarded."""
        if not self.ordered:
            if seq in self._seen:
                return None
            self._seen.add(seq)
            return [message]
        if seq < self.expected or seq in self._held:
            return None
        self._held[seq] = message
        ready: list[PhysicalMessage] = []
        while self.expected in self._held:
            ready.append(self._held.pop(self.expected))
            self.expected += 1
        return ready

    def cumulative_ack(self) -> int:
        """Highest sequence below which everything was delivered (-1 when
        nothing has been)."""
        return self.expected - 1

    def held_count(self) -> int:
        return len(self._held)
