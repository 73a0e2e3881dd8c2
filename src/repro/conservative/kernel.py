"""Conservative (YAWNS-style) driver over the Time Warp logical process.

Section 7 of the paper: "an implementation of the WARPED interface can
be constructed using either conservative or optimistic parallel
synchronization techniques."  This is the conservative implementation: a
bulk-synchronous bounded-window protocol (YAWNS / bounded lag) that
schedules the same :class:`~repro.kernel.lp.LogicalProcess` the Time Warp
drivers do.  Each round,

1. the LPs agree (a modelled barrier + min-reduction) on the global
   minimum unprocessed timestamp ``T``;
2. every LP raises its safe and commit bounds to ``T + L``, where ``L``
   is the least :attr:`~repro.kernel.simobject.SimulationObject.lookahead`
   the model declares, and executes every event below that bound.  Any
   event generated in the round lands at or beyond ``T + L``, so no peer
   can undo what ran: each event commits at once, with no snapshot, send
   record or processed entry, and **no rollback can ever be needed**;
3. the round's remote messages are delivered (each checked against the
   receiver's safe bound), everyone re-synchronizes, and the next round
   begins.

No state saving, no anti-messages, no GVT: conservative synchronization
buys freedom from every Time Warp overhead, and pays with barrier idling,
since every round ends at the *slowest* LP's clock.  On the paper's
non-dedicated NOW (heterogeneous speed factors) that trade usually
favours Time Warp, which is the comparison
``benchmarks/bench_abl_conservative.py`` makes.

The driver owns only the round, the outbox and the barrier.  Sends,
delivery, execution and statistics are the LP's, and ``send_event``
enforces each object's declared lookahead on every send, as it does on
every kernel.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..cluster.costmodel import DEFAULT_COSTS, DEFAULT_NETWORK, CostModel, NetworkModel
from ..comm.message import PhysicalMessage
from ..kernel.config import SimulationConfig
from ..kernel.errors import ConfigurationError, TimeWarpError
from ..kernel.event import Event
from ..kernel.kernel import finish_lps, host_lp, walk_directory
from ..kernel.simobject import SimulationObject
from ..stats.counters import RunStats
from ..trace.tracer import NULL_TRACER


class ConservativeSimulation:
    """Bounded-window conservative run of a partitioned object graph."""

    def __init__(
        self,
        partition: Sequence[Sequence[SimulationObject]],
        *,
        costs: CostModel = DEFAULT_COSTS,
        network: NetworkModel = DEFAULT_NETWORK,
        lp_speed_factors: dict[int, float] | None = None,
        end_time: float = float("inf"),
        record_trace: bool = False,
        max_rounds: int | None = None,
    ) -> None:
        self.objects, name_to_oid, group_of = walk_directory(partition)
        #: the window width ``L``; read every round
        self.lookahead = min(obj.lookahead for obj in self.objects)
        if self.lookahead <= 0:
            raise ConfigurationError(
                "conservative synchronization needs strictly positive lookahead"
            )
        self.network = network
        self.max_rounds = max_rounds
        config = SimulationConfig(
            costs=costs,
            network=network,
            end_time=end_time,
            lp_speed_factors=dict(lp_speed_factors or {}),
        )
        routing = dict(enumerate(group_of))
        #: this driver is the LPs' network: remote messages wait here for
        #: the end of the round
        self._outbox: list[PhysicalMessage] = []
        self.lps = [
            host_lp(lp_id, self.objects, name_to_oid, routing, config, self, NULL_TRACER)
            for lp_id in range(len(partition))
        ]
        self.trace: list[tuple] | None = [] if record_trace else None
        if record_trace:
            for lp in self.lps:
                lp.trace_sink = self._record_trace
        self.rounds = 0
        self._ran = False

    def send(self, message: PhysicalMessage, completion_clock: float) -> float:
        """The CommModule's network: hold ``message`` until the round ends."""
        self._outbox.append(message)
        return completion_clock

    def _deliver(self) -> None:
        for message in self._outbox:
            lp = self.lps[message.dst_lp]
            lp.check_arrivals(message.events)
            lp.receive_physical(message)
        self._outbox.clear()

    def _barrier(self) -> None:
        """Synchronize the LP clocks: barrier + min-reduction cost, then
        everyone waits for the slowest (plus one message latency)."""
        for lp in self.lps:
            lp.charge(lp.costs.gvt_participation_cost + lp.costs.physical_send(64))
            lp.stats.gvt_rounds += 1
        resume = max(lp.clock for lp in self.lps)
        resume += self.network.delivery_latency(64)
        for lp in self.lps:
            lp.advance_clock_to(resume)

    def run(self) -> RunStats:
        if self._ran:
            raise ConfigurationError("a ConservativeSimulation can only run once")
        self._ran = True
        lps = self.lps
        for lp in lps:
            lp.initialize()
        self._deliver()  # initial sends arrive before round 1

        while True:
            # next_work holds events past end_time back, so the run ends
            # once everything at or below it has run
            heads = [e.recv_time for e in (lp.next_work() for lp in lps) if e is not None]
            if not heads:
                break
            bound = min(heads) + self.lookahead
            for lp in lps:
                # nothing rolls back, so no member parks a lazy entry
                lp.safe_bound = lp.commit_bound = bound
                # the head's time, read off the heap once per event
                # (execute_one holds back what lies past end_time)
                heap = lp.pending.heap
                while heap and heap[0][0][0] < bound and lp.execute_one():
                    pass
            self._deliver()
            self._barrier()
            self.rounds += 1
            if self.max_rounds is not None and self.rounds > self.max_rounds:
                raise TimeWarpError(f"exceeded {self.max_rounds} conservative rounds")

        stats = RunStats()
        stats.final_gvt = min(lp.local_min() for lp in lps)
        stats.physical_messages = sent = sum(lp.stats.physical_messages_sent for lp in lps)
        wire = {"sent": sent, "delivered": sent, "lost": 0, "in_flight": 0}
        finish_lps(lps, max(lp.clock for lp in lps), wire, 0)
        for lp in lps:
            stats.fold_lp(lp.lp_id, lp.clock, lp.stats, lp.object_stats())
        return stats

    def _record_trace(self, event: Event) -> None:
        self.trace.append(
            (
                event.recv_time,
                self.objects[event.receiver].name,
                self.objects[event.sender].name,
                event.send_time,
                event.payload,
            )
        )

    def sorted_trace(self) -> list[tuple[float, str, str, float, Any]]:
        if self.trace is None:
            raise ConfigurationError("construct with record_trace=True")
        return sorted(self.trace, key=lambda t: (t[0], t[1], t[2], t[3], repr(t[4])))
