"""A fault-injecting wire with a reliable transport on top.

:class:`FaultyNetwork` replaces the perfect :class:`~repro.comm.network.
Network` when a :class:`~repro.faults.plan.FaultPlan` is configured.  A
*logical* send is accounted exactly once (statistics, in-flight
tracking), then one or more *physical copies* cross the wire, each
subject to the plan's drop/duplicate/delay/reorder decisions.  The LP
sees each logical message once, so its Mattern colour counts once.

With ``plan.retransmit`` (default) the transport is reliable: per-channel
sequence numbers, receiver-side dedup with in-order release, cumulative
acks on the reverse channel (themselves subject to the plan's ``"ack"``
rates), and timeout retransmission with exponential backoff.  The kernel
above sees exactly the perfect wire's FIFO contract, just with noisier
latency — which is what makes differential fuzzing against the
sequential kernel possible.

With ``retransmit=False`` the wire is fire-and-forget: a dropped copy is
permanently lost (counted in ``lost_count`` so the invariant oracle can
detect it), duplicates are still suppressed, and arrival order is
whatever the faults produce.

All timing flows through the executive's ``schedule_callback`` heap, so
runs stay fully deterministic and traces byte-identical per plan seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..cluster.costmodel import NetworkModel
from ..comm.message import (
    PHYSICAL_HEADER_BYTES,
    MessageKind,
    PhysicalMessage,
    _serial_counter,
)
from ..comm.network import CHANNEL_EPSILON, Network, _jitter_unit
from ..comm.transport import ReliableReceiver, ReliableSender
from ..kernel.errors import TransportFailureError
from ..trace.tracer import NULL_TRACER
from .plan import FaultPlan

Channel = tuple[int, int]


@dataclass
class FaultCounters:
    """What the fault layer actually did to a run."""

    copies_sent: int = 0
    drops: int = 0
    duplicates: int = 0
    delays: int = 0
    reorders: int = 0
    retransmissions: int = 0
    duplicate_deliveries_discarded: int = 0
    acks_sent: int = 0
    ack_drops: int = 0

    def faults_injected(self) -> int:
        return self.drops + self.duplicates + self.delays + self.reorders


class FaultyNetwork(Network):
    """Fault-injecting, optionally reliable, replacement wire."""

    def __init__(
        self,
        model: NetworkModel,
        deliver: Callable[[int, float, PhysicalMessage], None],
        *,
        plan: FaultPlan,
        schedule_callback: Callable[[float, Callable[[float], None]], None],
        tracer=NULL_TRACER,
    ) -> None:
        super().__init__(model, deliver)
        self.plan = plan
        self._schedule = schedule_callback
        #: structured observability tracer; the kernel attaches the run's
        self.tracer = tracer
        self.counters = FaultCounters()
        self._senders: dict[Channel, ReliableSender] = {}
        self._receivers: dict[Channel, ReliableReceiver] = {}
        self._ack_counts: dict[Channel, int] = {}
        #: logical DATA messages accepted but not yet handed to their LP
        self._outstanding_data = 0
        # Message serials come from a process-global counter; trace records
        # report them relative to this wire's construction so identical
        # runs in one process stay byte-identical.
        self._serial_base = next(_serial_counter) + 1

    # ------------------------------------------------------------------ #
    # logical send
    # ------------------------------------------------------------------ #
    def send(self, message: PhysicalMessage, completion_clock: float) -> float:
        """Accept one logical message; returns its *nominal* (fault-free)
        arrival time — actual wire arrivals are scheduled as callbacks."""
        channel = (message.src_lp, message.dst_lp)
        sender = self._senders.get(channel)
        if sender is None:
            sender = self._senders[channel] = ReliableSender()
        seq = sender.register(message, track=self.plan.retransmit)
        self._track(message)
        self.messages_sent += 1
        if message.kind is MessageKind.DATA:
            self._outstanding_data += 1
        self._transmit_copy(channel, seq, message, completion_clock, 0)
        jitter = _jitter_unit(
            message.src_lp, message.dst_lp, 1 + seq * 131, self.model.seed
        )
        return completion_clock + self.model.delivery_latency(message.size_bytes(), jitter)

    # ------------------------------------------------------------------ #
    # wire copies
    # ------------------------------------------------------------------ #
    def _transmit_copy(
        self,
        channel: Channel,
        seq: int,
        message: PhysicalMessage,
        when: float,
        attempt: int,
    ) -> None:
        plan = self.plan
        src, dst = channel
        kind = message.kind.value
        decision = plan.decide(channel, kind, seq, attempt)
        tracer = self.tracer
        if decision.drop:
            self.counters.drops += 1
            lost = not plan.retransmit
            if tracer.enabled:
                tracer.emit(
                    "fault.inject", when, fault="drop",
                    src_lp=src, dst_lp=dst, serial=message.serial - self._serial_base,
                    seq=seq, attempt=attempt, msg_kind=kind, lost=lost,
                )
            if lost:
                self.lost_count += 1
                self._untrack(message)
                if message.kind is MessageKind.DATA:
                    self._outstanding_data -= 1
        else:
            self.counters.copies_sent += 1
            jitter = _jitter_unit(
                src, dst, 1 + seq * 131 + attempt * 17, self.model.seed
            )
            latency = self.model.delivery_latency(message.size_bytes(), jitter)
            if decision.delay:
                self.counters.delays += 1
                latency *= plan.delay_factor
                if tracer.enabled:
                    tracer.emit(
                        "fault.inject", when, fault="delay",
                        src_lp=src, dst_lp=dst, serial=message.serial - self._serial_base,
                        seq=seq, attempt=attempt, msg_kind=kind,
                    )
            if decision.reorder:
                self.counters.reorders += 1
                latency *= plan.reorder_factor
                if tracer.enabled:
                    tracer.emit(
                        "fault.inject", when, fault="reorder",
                        src_lp=src, dst_lp=dst, serial=message.serial - self._serial_base,
                        seq=seq, attempt=attempt, msg_kind=kind,
                    )
            arrival = when + latency
            self._schedule_arrival(channel, seq, message, arrival)
            if decision.duplicate:
                self.counters.duplicates += 1
                self.counters.copies_sent += 1
                if tracer.enabled:
                    tracer.emit(
                        "fault.inject", when, fault="duplicate",
                        src_lp=src, dst_lp=dst, serial=message.serial - self._serial_base,
                        seq=seq, attempt=attempt, msg_kind=kind,
                    )
                self._schedule_arrival(
                    channel, seq, message, arrival + plan.duplicate_lag
                )
        if plan.retransmit:
            rto = plan.rto * (plan.backoff ** attempt)
            self._schedule(
                when + rto,
                lambda now, c=channel, s=seq, m=message, a=attempt, r=rto: (
                    self._on_retransmit_timer(c, s, m, a, r, now)
                ),
            )

    def _schedule_arrival(
        self, channel: Channel, seq: int, message: PhysicalMessage, at: float
    ) -> None:
        self._schedule(
            at,
            lambda now, c=channel, s=seq, m=message: (
                self._on_wire_arrival(c, s, m, now)
            ),
        )

    def _on_retransmit_timer(
        self,
        channel: Channel,
        seq: int,
        message: PhysicalMessage,
        attempt: int,
        rto: float,
        now: float,
    ) -> None:
        sender = self._senders[channel]
        if not sender.is_outstanding(seq):
            return  # acked meanwhile; stale timer
        if attempt >= self.plan.max_retransmits:
            raise TransportFailureError(
                f"message serial {message.serial} (channel {channel}, seq "
                f"{seq}) unacknowledged after {attempt} retransmissions"
            )
        self.counters.retransmissions += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "net.retransmit", now,
                src_lp=channel[0], dst_lp=channel[1],
                serial=message.serial - self._serial_base, seq=seq, attempt=attempt + 1, rto=rto,
            )
        self._transmit_copy(channel, seq, message, now, attempt + 1)

    # ------------------------------------------------------------------ #
    # receive side
    # ------------------------------------------------------------------ #
    def _on_wire_arrival(
        self, channel: Channel, seq: int, message: PhysicalMessage, now: float
    ) -> None:
        plan = self.plan
        receiver = self._receivers.get(channel)
        if receiver is None:
            receiver = self._receivers[channel] = ReliableReceiver(
                ordered=plan.retransmit
            )
        ready = receiver.accept(seq, message)
        if ready is None:
            # Duplicate copy: discard, but re-ack so a lost ack cannot
            # keep the sender retransmitting forever.
            self.counters.duplicate_deliveries_discarded += 1
            if plan.retransmit:
                self._send_ack(channel, receiver.cumulative_ack(), now)
            return
        for msg in ready:
            arrival = now
            if plan.retransmit:
                # Restore the perfect wire's per-channel FIFO spacing.
                previous = self._last_arrival.get(channel)
                if previous is not None and arrival <= previous:
                    arrival = previous + CHANNEL_EPSILON
                self._last_arrival[channel] = arrival
            self._deliver(msg.dst_lp, arrival, msg)
        if plan.retransmit:
            self._send_ack(channel, receiver.cumulative_ack(), now)

    def _send_ack(self, channel: Channel, cum_seq: int, now: float) -> None:
        if cum_seq < 0:
            return  # nothing delivered in-order yet; nothing to ack
        plan = self.plan
        src, dst = channel  # data direction; the ack flows dst -> src
        index = self._ack_counts.get(channel, 0)
        self._ack_counts[channel] = index + 1
        self.counters.acks_sent += 1
        decision = plan.decide((dst, src), "ack", index, 0)
        if decision.drop:
            # A lost ack is recovered by the data-side retransmit timer.
            self.counters.ack_drops += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit(
                    "fault.inject", now, fault="drop",
                    src_lp=dst, dst_lp=src, serial=-1,
                    seq=index, attempt=0, msg_kind="ack", lost=True,
                )
            return
        jitter = _jitter_unit(dst, src, 7 + index * 193, self.model.seed)
        latency = self.model.delivery_latency(PHYSICAL_HEADER_BYTES, jitter)
        if decision.delay:
            latency *= plan.delay_factor
        if decision.reorder:
            # A "reordered" cumulative ack is just a very late ack.
            latency *= plan.reorder_factor
        self._schedule(
            now + latency,
            lambda _now, c=channel, q=cum_seq: self._on_ack(c, q),
        )

    def _on_ack(self, channel: Channel, cum_seq: int) -> None:
        sender = self._senders.get(channel)
        if sender is not None:
            sender.ack_through(cum_seq)

    # ------------------------------------------------------------------ #
    # delivery + termination accounting
    # ------------------------------------------------------------------ #
    def on_delivered(self, message: PhysicalMessage) -> bool:
        delivered = super().on_delivered(message)
        if delivered and message.kind is MessageKind.DATA:
            self._outstanding_data -= 1
        return delivered

    def undelivered_data_count(self) -> int:
        return self._outstanding_data

    def unacked_count(self) -> int:
        """Messages still awaiting a cumulative ack (reliable mode)."""
        return sum(len(s.pending) for s in self._senders.values())
