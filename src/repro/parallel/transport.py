"""The inter-process wire: an outbox behind the CommModule.

Each worker's LP keeps its ordinary :class:`~repro.comm.transport.CommModule`
— DyMA aggregation buffers, flush-on-size, send-cost charging — and the
module's ``network`` slot holds a :class:`ShardTransport` instead of the
modelled :class:`~repro.comm.network.Network`.  Aggregates do not age on
a timer here: the worker loop flushes every one of them each time it
looks at its data wire, then drains the outbox.  A "sent" physical
message is stamped with the worker's current Mattern colour
(:class:`~repro.gvt.mattern.ColourAgent`) and parked in a per-destination
outbox; the worker loop drains the outbox into one
:class:`~repro.parallel.ipc.DataBatch` per destination per look at the
data wire, so a window > 0 yields one physical message per destination
per slice and the ring or queue traffic is batched on top of it.
"""

from __future__ import annotations

from ..comm.message import PhysicalMessage
from ..gvt.mattern import ColourAgent
from .ipc import Envelope


class ShardTransport:
    """Network-protocol endpoint of one worker (send side + counters)."""

    def __init__(self, shard_id: int, agent: ColourAgent) -> None:
        self.shard_id = shard_id
        self.agent = agent
        self._outbox: dict[int, list[Envelope]] = {}
        # send-side counters (merged into RunStats wire totals; message
        # totals are the agent's)
        self.events_carried = 0
        self.bytes_sent = 0
        self.batches_sent = 0
        # receive-side counter (filled by the worker loop)
        self.batches_received = 0

    # ------------------------------------------------------------------ #
    # Network protocol (what CommModule calls)
    # ------------------------------------------------------------------ #
    def send(self, message: PhysicalMessage, completion_clock: float) -> float:
        """Stamp with the current colour and park in the outbox."""
        stamp = self.agent.note_send(message.min_event_time())
        bucket = self._outbox.get(message.dst_lp)
        if bucket is None:
            bucket = self._outbox[message.dst_lp] = []
        bucket.append((stamp, message))
        self.events_carried += message.event_count()
        self.bytes_sent += message.size_bytes()
        return completion_clock

    # ------------------------------------------------------------------ #
    # worker-loop side
    # ------------------------------------------------------------------ #
    def drain(self) -> list[tuple[int, tuple[Envelope, ...]]]:
        """Take everything parked, grouped by destination shard."""
        if not self._outbox:
            return []
        out = [(dst, tuple(envelopes)) for dst, envelopes in self._outbox.items()]
        self._outbox.clear()
        self.batches_sent += len(out)
        return out

    @property
    def pending(self) -> bool:
        return bool(self._outbox)
