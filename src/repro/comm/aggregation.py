"""Dynamic Message Aggregation: buffers and the policy protocol.

The comm module of each LP collects application events destined to the
same LP that occur in close *wall-clock* proximity and sends them as one
physical message (Section 6 of the paper).  The **policy** decides how
long an aggregate may age before it is sent:

* :class:`NoAggregation` — window 0, every event is its own physical
  message (the paper's "Unaggregated Version");
* :class:`FixedWindow` — the paper's FAW: a constant age limit;
* ``repro.core.aggregation_controller.SAAWPolicy`` — the paper's SAAW
  feedback controller, which re-sizes the window after every aggregate.

The buffer also annihilates anti-messages against positive messages that
are still waiting in the same aggregate — cancelling a message that never
left the machine costs nothing on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from ..kernel.errors import ConfigurationError
from ..kernel.event import Event, VirtualTime


class AggregationPolicy(Protocol):
    """Controls the aggregation window of one LP's comm module.

    All windows are wall-clock microseconds.  ``initial_window() == 0``
    disables aggregation entirely (immediate sends).
    """

    def initial_window(self) -> float: ...

    def next_window(self, sent_count: int, age: float, window: float) -> float:
        """Called as each aggregate is sent; returns the next window."""
        ...


@dataclass
class NoAggregation:
    """Every application event is sent as its own physical message."""

    def initial_window(self) -> float:
        return 0.0

    def next_window(self, sent_count: int, age: float, window: float) -> float:
        return 0.0


@dataclass
class FixedWindow:
    """The paper's Fixed Aggregation Window (FAW) policy.

    The age of the first event in the aggregate is tracked; once it
    reaches ``window`` the aggregate is sent.  A single comparison per
    enqueue — the cheapest possible policy, but statically balanced.
    """

    window: float

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError(
                f"FAW window must be > 0 (use NoAggregation for 0), got {self.window}"
            )

    def initial_window(self) -> float:
        return self.window

    def next_window(self, sent_count: int, age: float, window: float) -> float:
        return self.window


@dataclass(slots=True)
class AggregateBuffer:
    """Events waiting to leave one LP for one destination LP.

    ``generation`` invalidates stale scheduled flushes: a buffer that was
    already sent (full, forced, or idle-flushed) ignores the wall-clock
    flush that was scheduled for its previous contents.
    """

    dst_lp: int
    events: list[Event] = field(default_factory=list)
    opened_at: float = 0.0
    generation: int = 0

    def open(self, now: float) -> None:
        self.opened_at = now

    def age(self, now: float) -> float:
        return now - self.opened_at

    def append(self, event: Event) -> None:
        self.events.append(event)

    def try_annihilate(self, anti: Event) -> bool:
        """Remove a buffered positive matching ``anti``; True on success."""
        eid = anti.event_id()
        for index in range(len(self.events) - 1, -1, -1):
            buffered = self.events[index]
            if buffered.sign > 0 and buffered.event_id() == eid:
                del self.events[index]
                return True
        return False

    def take(self) -> tuple[Event, ...]:
        """Empty the buffer and bump the generation."""
        events = tuple(self.events)
        self.events.clear()
        self.generation += 1
        return events

    def min_event_time(self) -> VirtualTime | None:
        if not self.events:
            return None
        return min(event.recv_time for event in self.events)

    def __len__(self) -> int:
        return len(self.events)
