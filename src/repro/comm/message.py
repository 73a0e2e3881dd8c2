"""Physical messages: what actually crosses the modelled network.

A physical message bundles one or more application events bound from one
LP to another (Dynamic Message Aggregation), or carries a kernel control
payload (a record of the Mattern GVT star).  The per-physical-message
overhead — not the event count — dominates 1998-era NOW communication
cost, which is the entire premise of DyMA.
"""

from __future__ import annotations

import enum
import itertools
from operator import attrgetter
from typing import Any

from ..kernel.event import Event, VirtualTime

#: Modelled size of the physical-message envelope (UDP/IP + kernel framing).
PHYSICAL_HEADER_BYTES = 64

_serial_counter = itertools.count()


class MessageKind(enum.Enum):
    DATA = "data"
    #: ``GvtStart`` (coordinator -> LP) and ``ShardReport`` (LP ->
    #: coordinator); the value stays as it is because fault decisions
    #: are drawn per kind code (``faults/plan.py:KIND_CODES``)
    GVT_TOKEN = "gvt-token"
    #: ``GvtCommit`` (coordinator -> LP)
    GVT_BROADCAST = "gvt-broadcast"


_MESSAGE_FIELDS = ("src_lp", "dst_lp", "kind", "events", "control", "serial")
_message_fields = attrgetter(*_MESSAGE_FIELDS)


class PhysicalMessage:
    """One wire-level message between two LPs (immutable by convention).

    Equality and hashing cover the six public fields.  The wire size is
    charged at send, receive and network transit, so it is computed once
    here, or taken as ``size`` from the wire frame that carried it; the
    comm package and the wire codec read ``_size`` directly and
    :meth:`size_bytes` returns the same value to everyone else.
    ``colour``, the sender's Mattern round stamped at send, travels
    (pickle, wire frame) but stays out of equality and hashing.
    """

    __slots__ = _MESSAGE_FIELDS + ("_size", "colour")

    def __init__(
        self,
        src_lp: int,
        dst_lp: int,
        kind: MessageKind,
        events: tuple[Event, ...] = (),
        control: Any = None,
        serial: int | None = None,
        colour: int = 0,
        size: int | None = None,
    ) -> None:
        self.src_lp = src_lp
        self.dst_lp = dst_lp
        self.kind = kind
        self.events = events
        self.control = control
        self.serial = next(_serial_counter) if serial is None else serial
        self.colour = colour
        if size is None:
            if kind is MessageKind.DATA:
                size = PHYSICAL_HEADER_BYTES
                for event in events:
                    size += event.size_bytes()
            else:
                # Control messages are small and fixed-size.
                size = PHYSICAL_HEADER_BYTES + 32
        self._size = size

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PhysicalMessage:
            return NotImplemented
        return _message_fields(self) == _message_fields(other)

    def __hash__(self) -> int:
        return hash(_message_fields(self))

    def __repr__(self) -> str:
        pairs = zip(_MESSAGE_FIELDS, _message_fields(self))
        return "PhysicalMessage(" + ", ".join(f"{n}={v!r}" for n, v in pairs) + ")"

    def __reduce__(self):
        # the size travels too: a receiver never re-walks the payloads
        return (PhysicalMessage, (*_message_fields(self), self.colour, self._size))

    def size_bytes(self) -> int:
        return self._size

    def min_event_time(self) -> VirtualTime | None:
        """Smallest receive timestamp carried (for GVT accounting)."""
        if not self.events:
            return None
        return min(event.recv_time for event in self.events)

    def event_count(self) -> int:
        return len(self.events)
