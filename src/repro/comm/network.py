"""The modelled shared-Ethernet network of workstations.

The network converts a physical message's send-completion wall-clock time
into an arrival wall-clock time at the destination LP, enforces per-channel
FIFO (TCP-like ordering between each LP pair, which WARPED relied on), and
tracks in-flight messages so GVT can account for transient events.

Delivery scheduling is delegated to whatever owns the wall clock (the
cluster executive) through the ``deliver`` callback, keeping this module
independent of the execution engine.
"""

from __future__ import annotations

from typing import Callable

from ..cluster.costmodel import NetworkModel
from ..kernel.event import VirtualTime
from .message import PhysicalMessage

#: Minimal spacing between two arrivals on the same channel; keeps FIFO
#: strict even for zero-size control messages.
CHANNEL_EPSILON = 1e-6


def _jitter_unit(src: int, dst: int, index: int, seed: int = 0) -> float:
    """Deterministic pseudo-random value in [-1, 1] for background load.

    ``index`` is the per-channel message ordinal (not the global serial),
    so a run's jitter pattern depends only on its own traffic — repeated
    runs in one process see identical "background load".
    """
    h = (src * 1_000_003 + dst * 10_007 + index * 97 + seed * 7919)
    h = (h * 2654435761) % 2**32
    return (h / 2**31) - 1.0


class Network:
    """Shared-segment network connecting all LPs."""

    def __init__(
        self,
        model: NetworkModel,
        deliver: Callable[[int, float, PhysicalMessage], None],
    ) -> None:
        self.model = model
        self._deliver = deliver
        self._last_arrival: dict[tuple[int, int], float] = {}
        self._channel_counts: dict[tuple[int, int], int] = {}
        #: in-flight copies, keyed by message serial.  A duplicated or
        #: retransmitted physical message re-enters the wire under the
        #: *same* serial, so each serial carries a copy count — popping the
        #: whole entry on first delivery would drop the remaining copies
        #: from the GVT floor (unsafe) and a stray extra delivery would
        #: double-decrement.
        self._in_flight: dict[int, PhysicalMessage] = {}
        self._in_flight_counts: dict[int, int] = {}
        self._in_flight_total = 0
        #: wire conservation counts (:meth:`wire_counts`); the traffic
        #: totals are the sending LPs' (``LPStats``)
        self.messages_sent = 0
        self.delivered_count = 0
        #: messages permanently lost on the wire (only a fault-injecting
        #: subclass without retransmission ever increments this)
        self.lost_count = 0

    def send(self, message: PhysicalMessage, completion_clock: float) -> float:
        """Inject ``message`` at ``completion_clock``; returns arrival time."""
        size = message._size
        model = self.model
        channel = (message.src_lp, message.dst_lp)
        if model.jitter:
            index = self._channel_counts.get(channel, 0)
            self._channel_counts[channel] = index + 1
            jitter = _jitter_unit(message.src_lp, message.dst_lp, index, model.seed)
            arrival = completion_clock + model.delivery_latency(size, jitter)
        else:  # a quiet segment: no background load to hash
            arrival = completion_clock + model.delivery_latency(size)
        previous = self._last_arrival.get(channel)
        if previous is not None and arrival <= previous:
            arrival = previous + CHANNEL_EPSILON
        self._last_arrival[channel] = arrival
        self._track(message)
        self.messages_sent += 1
        self._deliver(message.dst_lp, arrival, message)
        return arrival

    # ------------------------------------------------------------------ #
    # in-flight accounting
    # ------------------------------------------------------------------ #
    def _track(self, message: PhysicalMessage) -> None:
        """Account one copy of ``message`` entering the wire."""
        serial = message.serial
        if serial in self._in_flight_counts:
            self._in_flight_counts[serial] += 1
        else:
            self._in_flight[serial] = message
            self._in_flight_counts[serial] = 1
        self._in_flight_total += 1

    def _untrack(self, message: PhysicalMessage) -> bool:
        """Account one copy leaving the wire; False if none was tracked."""
        serial = message.serial
        count = self._in_flight_counts.get(serial)
        if count is None:
            return False
        if count == 1:
            del self._in_flight_counts[serial]
            del self._in_flight[serial]
        else:
            self._in_flight_counts[serial] = count - 1
        self._in_flight_total -= 1
        return True

    def on_delivered(self, message: PhysicalMessage) -> bool:
        """The executive hands the message to its LP; stop tracking one
        copy.  Returns False (and changes nothing) for an over-delivery —
        a copy that was never tracked, or already fully accounted."""
        if not self._untrack(message):
            return False
        self.delivered_count += 1
        return True

    def in_flight_count(self) -> int:
        """Physical copies currently on the wire."""
        return self._in_flight_total

    def undelivered_data_count(self) -> int:
        """DATA messages accepted for transport but not yet handed to
        their LP.  The perfect wire schedules every delivery immediately,
        so the executive's own pending-delivery counters cover it; a
        fault-injecting wire holds messages back and must override this
        for termination detection."""
        return 0

    def wire_counts(self) -> dict[str, int]:
        """Conservation view: sent = delivered + lost + in-flight copies
        must hold at all times (the invariant oracle checks it)."""
        return {
            "sent": self.messages_sent,
            "delivered": self.delivered_count,
            "lost": self.lost_count,
            "in_flight": self._in_flight_total,
        }

    def min_in_flight_time(self) -> VirtualTime | None:
        """Smallest event receive-time still on the wire (GVT accounting)."""
        best: VirtualTime | None = None
        for message in self._in_flight.values():
            t = message.min_event_time()
            if t is not None and (best is None or t < best):
                best = t
        return best
