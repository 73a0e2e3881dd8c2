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

It takes the other drivers' ``SimulationConfig`` and builds its LPs with
the same ``host_lp``.  ``config.validate("conservative")`` refuses what
``kernel/config.py:RUN_BY`` does not list it for (the GVT fields,
``placement``, ``script``, the executive's own) and ``backend="parallel"``;
it ignores ``workers`` and reads every other field (``aggregation`` ships
once per round, and nothing below the bound uses ``checkpoint`` or
``cancellation``).
"""

from __future__ import annotations

from ..comm.message import PhysicalMessage
from ..kernel.config import SimulationConfig
from ..kernel.errors import ConfigurationError, TerminationError, TimeWarpError
from ..kernel.kernel import Partition, committed_trace, finish_lps, host_lp
from ..kernel.kernel import sorted_trace, suspend_collector, walk_directory
from ..stats.counters import RunStats, TraceRow
from ..trace.tracer import NULL_TRACER


class ConservativeSimulation:
    """Bounded-window conservative run of a partitioned object graph."""

    def __init__(self, partition: Partition, config: SimulationConfig | None = None) -> None:
        self.config = config = config or SimulationConfig()
        config.validate("conservative")
        self.objects, name_to_oid, group_of = walk_directory(partition)
        #: the window width ``L``; read every round
        self.lookahead = min(obj.lookahead for obj in self.objects)
        if self.lookahead <= 0:
            raise ConfigurationError(
                "conservative synchronization needs strictly positive lookahead"
            )
        tracer = config.tracer if config.tracer is not None else NULL_TRACER
        routing = dict(enumerate(group_of))
        #: this driver is the LPs' network: remote messages wait here for
        #: the end of the round
        self._outbox: list[PhysicalMessage] = []
        self.lps = [
            host_lp(lp_id, self.objects, name_to_oid, routing, config, self, tracer)
            for lp_id in range(len(partition))
        ]
        for lp in self.lps:
            # every event the round loop runs lies below the round's bound,
            # so each commits at once: no rollback, no snapshot zero
            lp.commit_bound = float("inf")
        #: the comm modules that buffer (a window opens only at
        #: construction: a ``script`` is refused here)
        self._buffering = [lp.comm for lp in self.lps if lp.comm.window > 0]
        self.trace = committed_trace(config, self.objects, self.lps)
        self.rounds = 0
        self._ran = False

    def send(self, message: PhysicalMessage, completion_clock: float) -> float:
        """The CommModule's network: hold ``message`` until the round ends."""
        self._outbox.append(message)
        return completion_clock

    def _deliver(self) -> None:
        for comm in self._buffering:
            comm.flush_all()  # the round is the aggregation window
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
        resume += self.config.network.delivery_latency(64)
        for lp in self.lps:
            lp.advance_clock_to(resume)

    @suspend_collector
    def run(self) -> RunStats:
        if self._ran:
            raise ConfigurationError("a ConservativeSimulation can only run once")
        self._ran = True
        lps = self.lps
        limit = self.config.max_executed_events
        executed = 0
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
            before = executed
            for lp in lps:
                lp.safe_bound = bound
                # the head's time, read off the heap once per event
                # (execute_one holds back what lies past end_time)
                heap = lp.pending.heap
                while heap and heap[0][0][0] < bound and lp.execute_one():
                    executed += 1
            if executed == before:  # with L > 0, the least head lies below the bound
                raise TimeWarpError(f"round {self.rounds} executed no event below {bound!r}")
            if limit is not None and executed > limit:
                raise TerminationError(f"executed more than {limit} events without terminating")
            self._deliver()
            self._barrier()
            self.rounds += 1

        stats = RunStats()
        stats.final_gvt = min(lp.local_min() for lp in lps)
        sent = sum(lp.stats.physical_messages_sent for lp in lps)
        received = sum(lp.stats.physical_messages_received for lp in lps)
        wire = {"sent": sent, "delivered": received, "lost": 0, "in_flight": len(self._outbox)}
        finish_lps(lps, max(lp.clock for lp in lps), wire, 0)
        for lp in lps:
            stats.fold_lp(lp.lp_id, lp.clock, lp.stats, lp.object_stats())
        return stats

    def sorted_trace(self) -> list[TraceRow]:
        return sorted_trace(self.trace)
