"""The cluster executive: co-simulation of LPs on a modelled NOW.

The executive owns the wall clock.  It interleaves the logical processes
of a Time Warp simulation exactly as a network of workstations would:
each LP advances its own wall clock as it burns modelled CPU, physical
messages arrive at network-determined wall-clock times, aggregation
windows expire by wall clock, and GVT rounds fire periodically.  The
priority queue over wall-clock times makes the interleaving — and hence
every rollback — deterministic for a given configuration.

This is the substitution for the paper's physical testbed (DESIGN.md §2):
the Time Warp mechanics are executed for real; only the *passage of time*
is modelled.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from ..comm.aggregation import FixedWindow, NoAggregation
from ..comm.message import MessageKind, PhysicalMessage
from ..comm.network import Network
from ..gvt.manager import GVTAlgorithm
from ..kernel.errors import SchedulingError, TerminationError
from ..kernel.lp import LogicalProcess
from ..oracle.invariants import NULL_ORACLE
from ..trace.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.config import SimulationConfig

_DELIVER = 0
_TURN = 1
_FLUSH = 2
_GVT_TICK = 3
_CALLBACK = 4


class Executive:
    """Wall-clock scheduler for a set of LPs, a network and a GVT manager."""

    def __init__(self, lps: list[LogicalProcess], config: "SimulationConfig") -> None:
        self.lps: list[LogicalProcess] = []
        self.config = config
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0  # FIFO tie-break among entries due at the same instant
        if config.faults is not None:
            from ..faults.network import FaultyNetwork

            self.network: Network = FaultyNetwork(
                config.network,
                self._schedule_delivery,
                plan=config.faults,
                schedule_callback=self.schedule_callback,
            )
        else:
            self.network = Network(config.network, self._schedule_delivery)
        self.gvt_algorithm: GVTAlgorithm = None  # type: ignore[assignment]
        self._pending_deliveries = 0
        self._pending_data = 0
        self._pending_callbacks = 0
        self._executed_events = 0
        # optional optimism throttling (bounded time windows).
        # :mod:`repro.core.window_controller` is loaded only by a run that
        # can bound its optimism: a configured window, or a run script
        # that may set one.
        self._windows = None
        if config.time_window is not None or config.script is not None:
            from ..core import window_controller

            self._windows = window_controller
        self.window_policy = (
            config.time_window() if config.time_window is not None else None
        )
        self._window_width = (
            self.window_policy.initial_window() if self.window_policy else None
        )
        self._last_window_executed = 0
        self._last_window_rolled = 0
        self._turn_scheduled: list[bool] = []
        self._gvt_tick_scheduled = False
        #: the GVT round period in force; starts at the configured value
        #: and is resized on line by the meta-controller when one is
        #: attached (docs/control.md)
        self.gvt_period = config.gvt_period
        #: optional :class:`repro.control.MetaController`; set by the
        #: kernel when ``config.meta_control`` is given
        self.meta = None
        #: the oid -> LP routing map, set by the kernel.  It is the SAME
        #: dict every CommModule and LP resolver holds, so mutating it in
        #: place retargets all future sends at once (live migration)
        self.routing: dict[int, int] | None = None
        #: objects moved between LPs by :meth:`migrate_object`
        self.migrations = 0
        #: GVT commits that advanced GVT so far
        self.commits = 0
        #: the run script's ``set`` steps as ``(knob, target, value)`` by
        #: the commit they are due at; filled by the kernel, which
        #: resolves object names to ids
        self.steps: dict[int, list[tuple[str, object, object]]] = {}
        self.wallclock = 0.0
        #: structured observability tracer (repro.trace); set by the kernel
        self.tracer = NULL_TRACER
        #: runtime invariant oracle (repro.oracle); set by the kernel
        self.oracle = NULL_ORACLE

        for lp in lps:
            self.host(lp)

    def host(self, lp: LogicalProcess) -> None:
        """Take ``lp`` under this scheduler.  LPs are built on
        :attr:`network` (``kernel.host_lp``), so the facade hosts them one
        by one after the executive exists."""
        self.lps.append(lp)
        self._turn_scheduled.append(False)

        def schedule_flush(dst_lp: int, at: float, generation: int) -> None:
            self._push(at, _FLUSH, (lp.lp_id, dst_lp, generation))

        lp.schedule_flush = schedule_flush

    # ------------------------------------------------------------------ #
    # scheduling primitives
    # ------------------------------------------------------------------ #
    def _push(self, when: float, kind: int, data: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, kind, data))

    def _schedule_delivery(
        self, dst_lp: int, arrival: float, message: PhysicalMessage
    ) -> None:
        self._pending_deliveries += 1
        if message.kind is MessageKind.DATA:
            self._pending_data += 1
        self._seq += 1
        heapq.heappush(self._heap, (arrival, self._seq, _DELIVER, message))

    def _schedule_turn(self, lp: LogicalProcess) -> None:
        """Give ``lp`` a turn at its own wall clock (at most one pending)."""
        if not self._turn_scheduled[lp.lp_id]:
            self._turn_scheduled[lp.lp_id] = True
            self._seq += 1
            heapq.heappush(self._heap, (lp.clock, self._seq, _TURN, lp.lp_id))

    @staticmethod
    def _runnable(lp: LogicalProcess) -> bool:
        """After anything that may have changed ``lp``'s work: whether it
        has work, running its idle hook if it has none.

        The idle hook matters after a delivery too — an anti-message can
        annihilate everything a rollback re-queued — and expiring
        comparisons on idle can itself create local work (intra-LP
        anti-messages), hence the second look.
        """
        if lp.next_work() is None:
            lp.on_idle()
            return lp.next_work() is not None
        return True

    def _schedule_gvt_tick(self, at: float) -> None:
        if not self._gvt_tick_scheduled:
            self._gvt_tick_scheduled = True
            self._push(at, _GVT_TICK, None)

    def schedule_callback(self, at: float, fn) -> None:
        """Run ``fn(when)`` at wall-clock ``at`` (the fault-injecting
        transport uses this for wire arrivals, acks and retransmit
        timers)."""
        self._pending_callbacks += 1
        self._push(at, _CALLBACK, fn)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Initialize LPs and prime the schedule."""
        for lp in self.lps:
            lp.initialize()
        if self._window_width is not None:
            for lp in self.lps:
                lp.optimism_bound = self._window_width  # anchored at GVT 0
        for lp in self.lps:
            self._schedule_turn(lp)
        self._schedule_gvt_tick(self.gvt_period)

    def resume(self) -> None:
        """Re-arm the schedule after a quiescent pause (phased execution):
        wake every LP that has work under the (possibly raised) horizon
        and restart the GVT heartbeat."""
        for lp in self.lps:
            if lp.has_work():
                self._schedule_turn(lp)
        self._schedule_gvt_tick(self.wallclock + self.gvt_period)

    def on_new_gvt(self, estimate: float) -> None:
        self.commits += 1
        oracle = self.oracle
        if oracle.enabled:
            oracle.on_wire_check(self.wallclock, self.network)
        if self.window_policy is not None:
            self._run_window_control(estimate)
        if self.meta is not None:
            self.meta.on_gvt(self, estimate)
        if self.steps and self.commits in self.steps:
            self._run_steps(self.steps.pop(self.commits))

    def _run_steps(self, steps: list[tuple[str, object, object]]) -> None:
        """External adjustment (paper reference [26]): set knobs from the
        run script, then wake every LP a new setting may have unblocked."""
        for knob, target, value in steps:
            if knob == "checkpoint":
                self._context(target).chi = value
            elif knob == "cancellation":
                ctx = self._context(target)
                if ctx.mode is not value:
                    ctx.mode = value
                    ctx.stats.mode_switches += 1
            elif knob == "aggregation":
                # a fixed policy, so the next aggregate does not resize
                # it; anything buffered flushes on its old schedule
                comm = self.lps[target].comm
                comm.policy = (
                    NoAggregation() if value is None else FixedWindow(value)
                )
                comm.window = value or 0.0
            else:  # time_window: a static width, re-anchored every round
                self.window_policy = (
                    None if value is None else self._windows.StaticTimeWindow(value)
                )
                self._window_width = value
                bound = float("inf") if value is None else self.gvt + value
                for lp in self.lps:
                    lp.optimism_bound = bound
        for lp in self.lps:
            if lp.has_work():
                self._schedule_turn(lp)

    def _context(self, oid: int):
        return self.lps[self.routing[oid]].members[oid]

    def _run_window_control(self, gvt: float) -> None:
        """Extension: adapt and re-anchor the optimism window at each GVT."""
        executed = self._executed_events
        rolled = sum(
            ctx.stats.events_rolled_back for lp in self.lps for ctx in lp.members.values()
        )
        observation = self._windows.WindowObservation(
            executed=executed - self._last_window_executed,
            rolled_back=rolled - self._last_window_rolled,
        )
        self._last_window_executed = executed
        self._last_window_rolled = rolled
        old_width = self._window_width
        self._window_width = self.window_policy.control(observation)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "ctrl.window", self.wallclock,
                o=observation.waste,
                old=old_width if old_width is not None else float("inf"),
                new=self._window_width,
                verdict=getattr(self.window_policy, "last_verdict", ""),
                executed=observation.executed,
                rolled_back=observation.rolled_back,
                gvt=gvt,
            )
        bound = gvt + self._window_width
        for lp in self.lps:
            lp.charge(lp.costs.control_invocation_cost)
            lp.optimism_bound = bound
            # a wider (or re-anchored) window can unblock an idle LP
            if lp.has_work():
                self._schedule_turn(lp)

    @property
    def gvt(self) -> float:
        return self.gvt_algorithm.gvt if self.gvt_algorithm else 0.0

    # ------------------------------------------------------------------ #
    # live migration (docs/control.md, the placement knob)
    # ------------------------------------------------------------------ #
    def migrate_object(self, oid: int, dst_lp: int) -> None:
        """Move one object between modelled LPs, mid-run.

        The object's full Time Warp context travels as a canonical
        checkpoint (:mod:`repro.kernel.migration`), the shared routing
        map is rewritten in place so every subsequent send targets the
        new host, and deliveries already in flight toward the old host
        are rescued by the LP's ``forward`` hook.
        """
        if self.routing is None:
            raise SchedulingError(
                "executive has no routing map; migration is only "
                "available through TimeWarpSimulation"
            )
        src_lp = self.routing[oid]
        if src_lp == dst_lp:
            return
        if not 0 <= dst_lp < len(self.lps):
            raise SchedulingError(f"no LP {dst_lp} to migrate object {oid} to")
        from ..kernel.migration import detach_object, restore_object

        source = self.lps[src_lp]
        target = self.lps[dst_lp]
        checkpoint = detach_object(source, oid)
        self.routing[oid] = dst_lp
        restore_object(target, checkpoint, src_lp=src_lp, clock=self.wallclock)
        self.migrations += 1
        # the moved events are new work for the target host
        if target.has_work():
            self._schedule_turn(target)

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self) -> None:
        """Run to quiescence: no work, no in-flight messages, no buffers."""
        limit = self.config.max_executed_events
        heap = self._heap
        while heap:
            when, _, kind, data = heapq.heappop(heap)
            if when > self.wallclock:
                self.wallclock = when

            if kind == _DELIVER:
                self._handle_delivery(when, data)  # type: ignore[arg-type]
            elif kind == _TURN:
                self._handle_turn(when, data)  # type: ignore[arg-type]
            elif kind == _FLUSH:
                self._handle_flush(when, data)  # type: ignore[arg-type]
            elif kind == _CALLBACK:
                self._pending_callbacks -= 1
                data(when)  # type: ignore[operator]
            else:  # _GVT_TICK
                self._gvt_tick_scheduled = False
                if self._app_quiescent():
                    # No application work left: stop initiating rounds (a
                    # round's own control traffic must not keep GVT alive
                    # forever); any in-progress round drains on its own.
                    continue
                self.gvt_algorithm.start_round()
                self._schedule_gvt_tick(when + self.gvt_period)

            if limit is not None and self._executed_events > limit:
                raise TerminationError(
                    f"executed more than {limit} events without terminating"
                )
            # nothing can be quiescent with a delivery still on the heap
            if not self._pending_deliveries and self._quiescent():
                break

    def _handle_delivery(self, when: float, message: PhysicalMessage) -> None:
        self._pending_deliveries -= 1
        self.network.on_delivered(message)
        lp = self.lps[message.dst_lp]
        lp.advance_clock_to(when)
        if message.kind is MessageKind.DATA:
            self._pending_data -= 1
            lp.receive_physical(message)
        else:
            self.gvt_algorithm.handle_control(message)
        if self._runnable(lp):
            self._schedule_turn(lp)

    def _handle_turn(self, when: float, lp_id: int) -> None:
        """Run one event of ``lp``, and on for as long as it stays the
        earliest: while its clock is strictly below the top of the heap,
        its re-pushed turn (the largest ``seq``) would be popped next
        anyway, and nothing the main loop does between two pops could
        change that or end the run."""
        self._turn_scheduled[lp_id] = False
        lp = self.lps[lp_id]
        lp.advance_clock_to(when)
        limit = self.config.max_executed_events
        heap = self._heap
        while True:
            if lp.execute_one():
                self._executed_events += 1
            if not self._runnable(lp):
                return
            clock = lp.clock
            if (heap and heap[0][0] <= clock) or (
                limit is not None and self._executed_events > limit
            ):
                self._schedule_turn(lp)
                return
            if clock > self.wallclock:
                self.wallclock = clock

    def _handle_flush(self, when: float, data: tuple[int, int, int]) -> None:
        lp_id, dst_lp, generation = data
        lp = self.lps[lp_id]
        lp.advance_clock_to(when)
        lp.comm.flush_due(dst_lp, generation)

    # ------------------------------------------------------------------ #
    # quiescence
    # ------------------------------------------------------------------ #
    def _app_quiescent(self) -> bool:
        """No application activity: no data on the wire, no LP active.

        Window-blocked events count as activity: a throttled LP is
        waiting for GVT, not done — and it is exactly the GVT tick this
        predicate gates that will unblock it."""
        if self._pending_data:
            return False
        if self.network.undelivered_data_count():
            # A fault-injecting wire may hold DATA back (awaiting
            # retransmission) with no delivery scheduled yet.
            return False
        return not any(lp.is_active() for lp in self.lps)

    def _quiescent(self) -> bool:
        """Full termination condition: the application is quiescent and
        all control traffic (GVT starts/reports/commits, transport callbacks)
        has drained too."""
        if self._pending_deliveries:
            return False
        if self._pending_callbacks:
            # Transport work outstanding: a held-back wire copy, an ack,
            # or a (possibly stale) retransmit timer.  Stale timers just
            # pop as no-ops, so waiting on them always terminates.
            return False
        if self.gvt_algorithm.round_active:
            return False
        return self._app_quiescent()

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    @property
    def execution_time(self) -> float:
        """Modelled makespan: the latest LP wall clock."""
        return max((lp.clock for lp in self.lps), default=0.0)

    @property
    def executed_events(self) -> int:
        return self._executed_events
