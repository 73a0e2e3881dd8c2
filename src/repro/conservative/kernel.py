"""Conservative (YAWNS-style) parallel kernel over the WARPED app API.

Section 7 of the paper: "an implementation of the WARPED interface can
be constructed using either conservative or optimistic parallel
synchronization techniques."  This kernel is the conservative
implementation: a bulk-synchronous bounded-window protocol (YAWNS /
bounded lag).  Each round,

1. the LPs agree (a modelled barrier + min-reduction) on the global
   minimum unprocessed timestamp ``T``,
2. every LP executes all of its events with ``recv_time < T + L`` in
   timestamp order, where ``L`` is the model's *lookahead* — the minimum
   send delay the application guarantees.  Any event generated inside
   the window lands at or beyond ``T + L``, so the window is causally
   closed and **no rollback can ever be needed**;
3. messages sent during the round are exchanged, everyone re-synchronizes,
   and the next round begins.

No state saving, no anti-messages, no GVT — conservative synchronization
buys freedom from all Time Warp overheads, and pays with barrier idling:
every round ends at the *slowest* LP's clock.  On the paper's
non-dedicated NOW (heterogeneous speed factors) that trade usually
favors Time Warp, which is exactly the comparison
``benchmarks/bench_abl_conservative.py`` makes.

The lookahead is declared, not inferred, and the kernel *enforces* it:
an application send with ``delay < L`` raises immediately, so a wrong
declaration cannot silently corrupt causality.  ``L`` defaults to the
least :attr:`~repro.kernel.simobject.SimulationObject.lookahead` the
model's objects declare (``send_event`` enforces each object's own on
every kernel); an explicit value overrides it.
"""

from __future__ import annotations

import heapq
from typing import Any, Sequence

from ..cluster.costmodel import DEFAULT_COSTS, DEFAULT_NETWORK, CostModel, NetworkModel
from ..kernel.errors import (
    ApplicationError,
    ConfigurationError,
    SchedulingError,
    TimeWarpError,
)
from ..kernel.event import Event, EventKey, VirtualTime
from ..kernel.simobject import SimulationObject
from ..stats.counters import LPStats, RunStats


class _ConservativeServices:
    """KernelServices adapter enforcing the lookahead contract."""

    __slots__ = ("_kernel", "_oid")

    def __init__(self, kernel: "ConservativeSimulation", oid: int) -> None:
        self._kernel = kernel
        self._oid = oid

    @property
    def now(self) -> VirtualTime:
        return self._kernel._lvt[self._oid]

    def send(self, dest: str, delay: VirtualTime, payload: Any) -> None:
        self._kernel._send(self._oid, dest, delay, payload)


class ConservativeSimulation:
    """Bounded-window conservative run of a partitioned object graph."""

    def __init__(
        self,
        partition: Sequence[Sequence[SimulationObject]],
        *,
        lookahead: float | None = None,
        costs: CostModel = DEFAULT_COSTS,
        network: NetworkModel = DEFAULT_NETWORK,
        lp_speed_factors: dict[int, float] | None = None,
        end_time: float = float("inf"),
        record_trace: bool = False,
        max_rounds: int | None = None,
    ) -> None:
        if not partition or not any(partition):
            raise ConfigurationError("partition must contain objects")
        if lookahead is None:
            lookahead = min(obj.lookahead for group in partition for obj in group)
        if lookahead <= 0:
            raise ConfigurationError(
                "conservative synchronization needs strictly positive lookahead"
            )
        self.lookahead = lookahead
        self.network = network
        self.end_time = end_time
        self.max_rounds = max_rounds

        self.objects: list[SimulationObject] = []
        self._name_to_oid: dict[str, int] = {}
        self._oid_to_lp: dict[int, int] = {}
        for lp_index, group in enumerate(partition):
            for obj in group:
                if obj.name in self._name_to_oid:
                    raise ConfigurationError(f"duplicate name {obj.name!r}")
                oid = len(self.objects)
                self.objects.append(obj)
                self._name_to_oid[obj.name] = oid
                self._oid_to_lp[oid] = lp_index
        self.n_lps = len(partition)

        factors = lp_speed_factors or {}
        self._costs = [
            costs if factors.get(lp, 1.0) == 1.0 else costs.scaled(factors[lp])
            for lp in range(self.n_lps)
        ]
        self._base_costs = costs

        self._queues: list[list[tuple[EventKey, Event]]] = [
            [] for _ in range(self.n_lps)
        ]
        self._lvt = [0.0] * len(self.objects)
        self._serials = [0] * len(self.objects)
        self._clock = [0.0] * self.n_lps
        self._current_lp = 0
        self.lp_stats = [LPStats() for _ in range(self.n_lps)]
        self.rounds = 0
        self.events_executed = 0
        self.trace: list[tuple] | None = [] if record_trace else None
        #: remote events produced in the current round, delivered at its end
        self._outbox: list[tuple[int, Event]] = []
        self._ran = False

    # ------------------------------------------------------------------ #
    # sends
    # ------------------------------------------------------------------ #
    def _send(self, sender: int, dest: str, delay: VirtualTime,
              payload: Any) -> None:
        if delay < self.lookahead:
            raise ConfigurationError(
                f"{self.objects[sender].name}: send delay {delay} violates "
                f"the declared lookahead {self.lookahead} — either the "
                "model's minimum delay is smaller than declared, or the "
                "declaration is wrong"
            )
        try:
            receiver = self._name_to_oid[dest]
        except KeyError:
            raise SchedulingError(f"unknown simulation object {dest!r}") from None
        event = Event(
            sender=sender,
            receiver=receiver,
            send_time=self._lvt[sender],
            recv_time=self._lvt[sender] + delay,
            payload=payload,
            serial=self._serials[sender],
        )
        self._serials[sender] += 1
        src_lp = self._current_lp
        dst_lp = self._oid_to_lp[receiver]
        if dst_lp == src_lp:
            self._clock[src_lp] += self._costs[src_lp].intra_send_cost
            self.lp_stats[src_lp].intra_lp_events += 1
            heapq.heappush(self._queues[dst_lp], (event.key(), event))
        else:
            # charged now; delivered at the round's synchronization point
            self._clock[src_lp] += self._costs[src_lp].physical_send(
                event.size_bytes()
            )
            self.lp_stats[src_lp].physical_messages_sent += 1
            self.lp_stats[src_lp].remote_events_sent += 1
            self._outbox.append((dst_lp, event))

    # ------------------------------------------------------------------ #
    # rounds
    # ------------------------------------------------------------------ #
    def _deliver_outbox(self) -> None:
        for dst_lp, event in self._outbox:
            self._clock[dst_lp] += self._costs[dst_lp].physical_recv(
                event.size_bytes()
            )
            self.lp_stats[dst_lp].physical_messages_received += 1
            self.lp_stats[dst_lp].remote_events_received += 1
            heapq.heappush(self._queues[dst_lp], (event.key(), event))
        self._outbox.clear()

    def _barrier(self) -> None:
        """Synchronize the LP clocks: barrier + min-reduction cost, then
        everyone waits for the slowest (plus one message latency)."""
        for lp in range(self.n_lps):
            self._clock[lp] += self._costs[lp].gvt_participation_cost
            self._clock[lp] += self._costs[lp].physical_send(64)
            self.lp_stats[lp].gvt_rounds += 1
        latest = max(self._clock)
        latency = self.network.delivery_latency(64)
        for lp in range(self.n_lps):
            idle = latest - self._clock[lp]
            if idle > 0:
                self.lp_stats[lp].idle_time += idle
            self._clock[lp] = latest + latency

    def _global_min(self) -> float:
        best = float("inf")
        for queue in self._queues:
            if queue:
                best = min(best, queue[0][0].recv_time)
        return best

    def run(self) -> RunStats:
        if self._ran:
            raise ConfigurationError("a ConservativeSimulation can only run once")
        self._ran = True
        # initialization: states + initial sends (delivered before round 1)
        for oid, obj in enumerate(self.objects):
            obj.state = obj.initial_state()
            obj.bind(_ConservativeServices(self, oid))
        for oid, obj in enumerate(self.objects):
            self._current_lp = self._oid_to_lp[oid]
            obj.initialize()
        self._deliver_outbox()

        while True:
            horizon = min(self._global_min() + self.lookahead, self.end_time)
            if self._global_min() > self.end_time or self._global_min() == float("inf"):
                break
            self._execute_window(horizon)
            self._deliver_outbox()
            self._barrier()
            self.rounds += 1
            if self.max_rounds is not None and self.rounds > self.max_rounds:
                raise TimeWarpError(
                    f"exceeded {self.max_rounds} conservative rounds"
                )

        for obj in self.objects:
            obj.finalize()
        return self._assemble_stats()

    def _execute_window(self, horizon: float) -> None:
        for lp in range(self.n_lps):
            self._current_lp = lp
            queue = self._queues[lp]
            costs = self._costs[lp]
            clock_before = self._clock[lp]
            while queue and queue[0][0].recv_time < horizon:
                _, event = heapq.heappop(queue)
                if event.recv_time > self.end_time:
                    continue
                oid = event.receiver
                obj = self.objects[oid]
                self._lvt[oid] = event.recv_time
                try:
                    obj.execute_process(event.payload)
                except TimeWarpError:
                    raise
                except Exception as exc:
                    raise ApplicationError(
                        obj.name, event.recv_time, event.payload
                    ) from exc
                self._clock[lp] += costs.event_execution(obj.grain_factor)
                self.events_executed += 1
                if self.trace is not None:
                    self.trace.append((
                        event.recv_time,
                        obj.name,
                        self.objects[event.sender].name,
                        event.send_time,
                        event.payload,
                    ))
            self.lp_stats[lp].busy_time += self._clock[lp] - clock_before

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def _assemble_stats(self) -> RunStats:
        stats = RunStats()
        stats.execution_time = max(self._clock) if self._clock else 0.0
        stats.committed_events = self.events_executed
        stats.executed_events = self.events_executed
        stats.gvt_rounds = sum(s.gvt_rounds for s in self.lp_stats)
        stats.physical_messages = sum(
            s.physical_messages_sent for s in self.lp_stats
        )
        stats.final_gvt = self._global_min()
        for lp, lp_stats in enumerate(self.lp_stats):
            stats.per_lp[lp] = lp_stats
        return stats

    def sorted_trace(self) -> list[tuple]:
        if self.trace is None:
            raise ConfigurationError("construct with record_trace=True")
        return sorted(self.trace, key=lambda t: (t[0], t[1], t[2], t[3],
                                                 repr(t[4])))
