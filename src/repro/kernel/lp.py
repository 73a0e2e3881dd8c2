"""Logical processes: scheduling, rollback, coast-forward and cancellation.

An LP groups simulation objects that share an address space (one modelled
workstation).  It schedules its members lowest-timestamp-first from one
LP-wide heap of pending events (:class:`~.queues.PendingQueue`), detects
stragglers and anti-messages on delivery, performs rollback with periodic
check-pointing and coast-forward, dispatches undone sends to the active
cancellation strategy, and runs the per-object feedback controllers at
their configured periods.  All CPU work is charged to the LP's wall clock
(``self.clock``); the cluster executive orders LPs by that clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..cluster.costmodel import CostModel
from ..oracle.invariants import NULL_ORACLE
from ..stats.counters import LPStats, ObjectStats
from ..trace.tracer import NULL_TRACER
from .cancellation import CancellationPolicy, ComparisonBuffer, Mode
from .checkpointing import MAX_INTERVAL, CheckpointPolicy, CheckpointWindow
from .errors import (
    ApplicationError,
    CausalityViolationError,
    ConfigurationError,
    SchedulingError,
    TimeWarpError,
)
from .event import Event, EventKey, SentRecord, VirtualTime
from .queues import InputQueue, OutputQueue, PendingQueue, StateQueue
from .simobject import SimulationObject
from .state import SavedState

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.message import PhysicalMessage
    from ..comm.transport import CommModule
    from ..gvt.mattern import ColourAgent, GvtStart, ShardReport

#: Synthetic cause key for sends made during ``initialize`` — smaller than
#: every real event key, so initial sends are never rolled back.
INITIAL_KEY = EventKey(float("-inf"), -1, -1, float("-inf"), -1)

NEG_INF = float("-inf")
INF = float("inf")


@dataclass(slots=True)
class ObjectContext:
    """Kernel-side runtime record of one simulation object."""

    obj: SimulationObject
    oid: int
    iq: InputQueue = field(default_factory=InputQueue)
    oq: OutputQueue = field(default_factory=OutputQueue)
    sq: StateQueue = field(default_factory=StateQueue)
    lvt: VirtualTime = 0.0
    events_since_save: int = 0
    send_serial: int = 0
    coasting: bool = False
    current_cause_key: EventKey = INITIAL_KEY
    mode: Mode = Mode.AGGRESSIVE
    cmp_buffer: ComparisonBuffer = field(default_factory=ComparisonBuffer)
    cancel_policy: CancellationPolicy = None  # type: ignore[assignment]
    ckpt_policy: CheckpointPolicy = None  # type: ignore[assignment]
    chi: int = 1
    ckpt_window: CheckpointWindow = field(default_factory=CheckpointWindow)
    #: key of the last event committed at once since the latest snapshot
    #: (None: no such event); the next event that is not safe first
    #: saves the state it left
    unsaved_key: EventKey | None = None
    stats: ObjectStats = field(default_factory=ObjectStats)
    #: modelled CPU cost of executing one event here on the hosting LP
    exec_cost: float = 0.0


class _ObjectServices:
    """The :class:`KernelServices` adapter handed to application objects."""

    __slots__ = ("_ctx", "send")

    def __init__(self, lp: "LogicalProcess", ctx: ObjectContext) -> None:
        self._ctx = ctx
        #: ``send(dest, delay, payload)``: the LP's send path with the
        #: sending context pre-bound, so a send crosses no adapter frame
        self.send = partial(lp.send_from, ctx)

    @property
    def now(self) -> VirtualTime:
        return self._ctx.lvt


class LogicalProcess:
    """One Time Warp logical process pinned to one modelled workstation."""

    def __init__(
        self,
        lp_id: int,
        costs: CostModel,
        *,
        resolve_name: Callable[[str], int],
        lp_of: Callable[[int], int],
        end_time: VirtualTime = float("inf"),
    ) -> None:
        self.lp_id = lp_id
        self.costs = costs
        self.clock: float = 0.0
        self.end_time = end_time
        self._resolve_name = resolve_name
        self._lp_of = lp_of
        self.members: dict[int, ObjectContext] = {}
        self._member_list: list[ObjectContext] = []
        #: every member's unprocessed events in one heap; its top live
        #: entry is the LP's next event
        self.pending = PendingQueue()
        self.comm: "CommModule" = None  # type: ignore[assignment]
        #: absolute virtual-time optimism bound (GVT + window), set by the
        #: executive when a time-window policy is active
        self.optimism_bound: VirtualTime = float("inf")
        #: no peer can ever send this LP an event below this time
        #: (:meth:`check_arrivals` holds them to it).  A parallel worker
        #: raises it from its peers' channel clocks, the conservative
        #: driver to each round's bound; under the modelled executive it
        #: stays at -inf.  It is lowered to -inf only through
        #: :meth:`drop_safe_bound`
        self.safe_bound: VirtualTime = NEG_INF
        #: an event below this time runs without snapshot, send record or
        #: processed entry and commits at once: :attr:`safe_bound`, held
        #: below every live lazy comparison entry by
        #: :meth:`refresh_commit_bound`.  At -inf it costs one comparison
        #: per event
        self.commit_bound: VirtualTime = NEG_INF
        self.stats = LPStats()
        #: structured observability tracer (repro.trace); NULL_TRACER when
        #: tracing is off, so emission sites cost one attribute check
        self.tracer = NULL_TRACER
        #: runtime invariant oracle (repro.oracle); NULL_ORACLE when off,
        #: same zero-cost guard discipline as the tracer
        self.oracle = NULL_ORACLE
        #: optional committed-event trace recorder (tests / debugging)
        self.trace_sink: Callable[[Event], None] | None = None
        #: rescue hook for events addressed to an object this LP no longer
        #: hosts (live migration re-homes objects mid-run; stale aggregate
        #: buffers and in-flight messages may still carry the old address)
        self.forward: Callable[[Event], None] | None = None
        #: Mattern colour agent, installed by whoever runs Mattern here
        #: (``MatternGVT``, a parallel worker); None under omniscient GVT
        self.agent: "ColourAgent | None" = None
        #: aggregate flush timer ``(dst_lp, at, generation)``, installed
        #: by the modelled executive; None where the driver flushes itself
        self.schedule_flush: Callable[[int, float, int], None] | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def attach(
        self,
        obj: SimulationObject,
        oid: int,
        cancel_policy: CancellationPolicy,
        ckpt_policy: CheckpointPolicy,
    ) -> ObjectContext:
        ctx = ObjectContext(obj=obj, oid=oid)
        ctx.cancel_policy = cancel_policy
        ctx.ckpt_policy = ckpt_policy
        ctx.mode = cancel_policy.initial_mode()
        ctx.chi = max(1, min(MAX_INTERVAL, ckpt_policy.initial_interval()))
        self.adopt(ctx)
        return ctx

    def adopt(self, ctx: ObjectContext, pending: Iterable[Event] = ()) -> None:
        """Make ``ctx`` a member: bind its object to this LP's services,
        price its events on this host and schedule its ``pending``
        (unprocessed) events here."""
        ctx.exec_cost = self.costs.event_execution(ctx.obj.grain_factor)
        ctx.obj.bind(_ObjectServices(self, ctx))
        self.members[ctx.oid] = ctx
        self._member_list.append(ctx)
        ctx.iq.pending = self.pending
        for event in pending:
            self.pending.push(event)

    def release(self, ctx: ObjectContext) -> None:
        """Undo :meth:`adopt` (live migration detaches members mid-run):
        the member's unprocessed events leave this LP's schedule."""
        del self.members[ctx.oid]
        self._member_list.remove(ctx)
        self.pending.take(ctx.oid)
        ctx.iq.pending = None  # type: ignore[assignment]  # stale use fails loudly
        ctx.obj._services = None  # sever the stale kernel binding

    def initialize(self) -> None:
        """Create initial states, run app initializers, take snapshot zero.

        The snapshot is taken *after* ``initialize()`` on purpose: sends
        made during initialization are tagged :data:`INITIAL_KEY` and are
        never rolled back, so the recovery point for a rollback to the
        beginning of time must include any state mutations that produced
        them — otherwise a deep rollback would replay a different history
        than the one whose messages are already in the system.  Where
        every event commits at once (:attr:`commit_bound` at +inf),
        nothing can roll back that far, so snapshot zero waits, like any
        state an at-once streak left, for an event that needs it.
        """
        for ctx in self._member_list:
            ctx.obj.state = ctx.obj.initial_state()
        for ctx in self._member_list:
            ctx.current_cause_key = INITIAL_KEY
            ctx.obj.initialize()
            if self.commit_bound == INF:
                ctx.unsaved_key = INITIAL_KEY
                continue
            state = ctx.obj.state.copy()
            saved = SavedState(
                last_key=None, lvt=0.0, state=state, size=state.size_bytes()
            )
            ctx.sq.save(saved)
            oracle = self.oracle
            if oracle.enabled:
                oracle.on_state_save(self.clock, self.lp_id, ctx.obj.name, saved)

    # ------------------------------------------------------------------ #
    # wall clock
    # ------------------------------------------------------------------ #
    def charge(self, cost: float) -> None:
        self.clock += cost

    def advance_clock_to(self, wallclock: float) -> None:
        if wallclock > self.clock:
            self.stats.idle_time += wallclock - self.clock
            self.clock = wallclock

    def on_physical_sent(self, message: "PhysicalMessage", cost: float) -> None:
        """Transport host hook: ``message`` left this LP, at send-side CPU
        ``cost``.  The LP's counters are the run's one wire ledger."""
        self.clock += cost
        stats = self.stats
        stats.physical_messages_sent += 1
        stats.physical_events_sent += len(message.events)
        stats.physical_bytes_sent += message._size

    # ------------------------------------------------------------------ #
    # delivery path
    # ------------------------------------------------------------------ #
    def receive_physical(self, message: "PhysicalMessage") -> None:
        """Receive one arrived DATA message: count its colour, deliver
        its events."""
        if self.agent is not None:
            self.agent.note_receive(message.colour)
        events = message.events
        stats = self.stats
        stats.physical_messages_received += 1
        stats.remote_events_received += len(events)
        self.clock += self.costs.physical_recv(message._size)
        handle_cost = self.costs.event_handle_cost
        for event in events:
            self.clock += handle_cost
            self.deliver_event(event)

    def check_arrivals(self, events: Iterable[Event]) -> None:
        """Refuse an arrival below the safe bound: events below it may
        already be committed, so a peer broke its channel-clock promise.
        Whoever raises ``safe_bound`` calls this before
        :meth:`receive_physical` (the parallel worker and the
        conservative driver do)."""
        bound = self.safe_bound
        oracle = self.oracle
        for event in events:
            if oracle.enabled:
                oracle.on_arrival(
                    self.clock, self.lp_id, event.receiver, event.recv_time, bound
                )
            if event.recv_time < bound:
                raise CausalityViolationError(
                    f"shard {self.lp_id}: event for object {event.receiver} "
                    f"at t={event.recv_time!r} arrived below the committed "
                    f"safe bound {bound!r} (object {event.sender} on LP "
                    f"{self._lp_of(event.sender)} sent below its promise)"
                )

    def deliver_event(self, event: Event) -> None:
        ctx = self.members.get(event.receiver)
        if ctx is None:
            if self.forward is not None:
                self.forward(event)
                return
            raise SchedulingError(
                f"event for object {event.receiver} delivered to LP {self.lp_id}"
            )
        iq = ctx.iq
        if event.sign > 0:
            done = iq.processed
            if done and event._key < done[-1]._key:
                self._rollback(ctx, event._key, primary=True)
            iq.insert_positive(event)
        else:
            processed = iq.insert_anti(event)
            if processed is not None:
                # The positive was already executed: roll back to just
                # before it, then annihilate the (now unprocessed) pair.
                self._rollback(ctx, processed._key, primary=False)
                if iq.insert_anti(event) is not None:  # pragma: no cover - invariant
                    raise CausalityViolationError(
                        "anti-message did not annihilate after rollback"
                    )

    # ------------------------------------------------------------------ #
    # rollback machinery
    # ------------------------------------------------------------------ #
    def _rollback(self, ctx: ObjectContext, key: EventKey, *, primary: bool) -> None:
        if ctx.unsaved_key is not None and key < ctx.unsaved_key:
            raise CausalityViolationError(
                f"{ctx.obj.name} (lp {self.lp_id}): rollback to "
                f"t={key.recv_time!r} would undo an event committed at once "
                f"(t={ctx.unsaved_key.recv_time!r})"
            )
        stats = ctx.stats
        stats.rollbacks += 1
        if primary:
            stats.primary_rollbacks += 1
        else:
            stats.secondary_rollbacks += 1
        ctx.ckpt_window.rollbacks += 1

        rolled = ctx.iq.rollback(key)
        stats.events_rolled_back += len(rolled)

        snapshot = ctx.sq.restore_for(key)
        self.clock += self.costs.rollback_base + self.costs.state_restore(snapshot.size)
        stats.state_restores += 1
        ctx.obj.state = snapshot.state.copy()
        ctx.lvt = snapshot.lvt
        ctx.events_since_save = 0

        oracle = self.oracle
        if oracle.enabled:
            oracle.on_rollback(self.clock, self.lp_id, ctx.obj.name, key.recv_time)
            oracle.on_state_restore(
                self.clock, self.lp_id, ctx.obj.name, snapshot, ctx.obj.state
            )

        # Undo sends caused at or after the rollback point, according to
        # the strategy currently in force at this object.
        undone = ctx.oq.rollback(key)
        if undone:
            if ctx.mode is Mode.AGGRESSIVE:
                monitoring = ctx.cancel_policy.monitoring
                for record in undone:
                    self._emit_anti(ctx, record)
                    if monitoring:
                        ctx.cmp_buffer.park(record, lazy=False)
            else:
                for record in undone:
                    ctx.cmp_buffer.park(record, lazy=True)

        # Coast forward: re-execute the surviving processed events that
        # came after the restored snapshot, with sends suppressed.
        coast_events_before = stats.coast_forward_events
        coast_cost_before = ctx.ckpt_window.coast_cost
        self._coast_forward(ctx, snapshot)

        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "rollback", self.clock,
                lp=self.lp_id, obj=ctx.obj.name,
                cause="primary" if primary else "secondary",
                to=key.recv_time, restored_lvt=snapshot.lvt,
                depth=len(rolled), undone_sends=len(undone),
                coast_events=stats.coast_forward_events - coast_events_before,
                coast_cost=ctx.ckpt_window.coast_cost - coast_cost_before,
            )

    def _coast_forward(self, ctx: ObjectContext, snapshot: SavedState) -> None:
        processed = ctx.iq.processed
        start = len(processed)
        if snapshot.last_key is None:
            start = 0
        else:
            while start > 0 and processed[start - 1]._key > snapshot.last_key:
                start -= 1
        to_replay = processed[start:]
        if not to_replay:
            return
        ctx.coasting = True
        try:
            cost = self.costs.coast_forward_event(ctx.obj.grain_factor)
            for event in to_replay:
                ctx.lvt = event.recv_time
                try:
                    ctx.obj.execute_process(event.payload)
                except TimeWarpError:
                    raise
                except Exception as exc:
                    raise ApplicationError(
                        ctx.obj.name, event.recv_time, event.payload,
                        coasting=True,
                    ) from exc
                self.clock += cost
                ctx.ckpt_window.coast_events += 1
                ctx.ckpt_window.coast_cost += cost
                ctx.stats.coast_forward_events += 1
                ctx.events_since_save += 1
        finally:
            ctx.coasting = False

    def _emit_anti(self, ctx: ObjectContext, record: SentRecord) -> None:
        self.clock += self.costs.anti_send_cost
        ctx.stats.antis_sent += 1
        self._route(record.event.anti_message())

    # ------------------------------------------------------------------ #
    # send path
    # ------------------------------------------------------------------ #
    def send_from(
        self, ctx: ObjectContext, dest: str, delay: VirtualTime, payload: Any
    ) -> None:
        if ctx.coasting:
            return  # previously sent messages are still correct
        # None while an event commits at once: it cannot be rolled back,
        # so its sends need no record for later anti-messages
        cause = ctx.current_cause_key
        try:
            receiver = self._resolve_name(dest)
        except KeyError:
            raise ConfigurationError(f"unknown simulation object {dest!r}") from None
        lvt = ctx.lvt
        event = Event(ctx.oid, receiver, lvt, lvt + delay, payload, ctx.send_serial)
        ctx.send_serial += 1
        ctx.stats.sends += 1

        if ctx.cmp_buffer._by_content:  # pending(), without the call
            self.clock += self.costs.lazy_compare_cost
            entry = ctx.cmp_buffer.match(event)
            if entry is not None:
                self._resolve_comparison(ctx, hit=True, lazy_entry=entry.lazy)
                if entry.lazy:
                    # Lazy hit: the original message stands; re-own it under
                    # the regenerating event so a future rollback can still
                    # cancel it.  Nothing goes on the wire.
                    ctx.stats.sends_suppressed += 1
                    if cause is not None:
                        ctx.oq.record_send(entry.record.event, cause)
                    return
                # Lazy-aggressive hit: the original was already cancelled,
                # so the regenerated message must be sent normally.

        if cause is not None:
            ctx.oq.record_send(event, cause)
        # A member is hosted here exactly when the routing map says so
        # (both migration paths rewrite the two together), so one lookup
        # both routes and delivers a local send.
        target = self.members.get(receiver)
        stats = self.stats
        if target is None:
            stats.remote_events_sent += 1
            self.comm.enqueue(event)
            return
        self.clock += self.costs.intra_send_cost
        stats.intra_lp_events += 1
        iq = target.iq
        done = iq.processed
        if done and event._key < done[-1]._key:
            self._rollback(target, event._key, primary=True)
        iq.insert_positive(event)

    def _route(self, event: Event) -> None:
        """Send ``event`` (an anti-message) to its receiver's host."""
        stats = self.stats
        if self._lp_of(event.receiver) == self.lp_id:
            self.clock += self.costs.intra_send_cost
            stats.intra_lp_events += 1
            self.deliver_event(event)
        else:
            stats.remote_events_sent += 1
            self.comm.enqueue(event)

    # ------------------------------------------------------------------ #
    # comparison resolution and controllers
    # ------------------------------------------------------------------ #
    def _resolve_comparison(self, ctx: ObjectContext, *, hit: bool, lazy_entry: bool) -> None:
        stats = ctx.stats
        stats.comparisons += 1
        if lazy_entry:
            if hit:
                stats.lazy_hits += 1
            else:
                stats.lazy_misses += 1
        else:
            if hit:
                stats.lazy_aggressive_hits += 1
            else:
                stats.lazy_aggressive_misses += 1
        ctx.cancel_policy.record(hit)
        period = ctx.cancel_policy.period
        if period is not None and stats.comparisons % period == 0:
            self.charge(self.costs.control_invocation_cost)
            stats.control_invocations += 1
            old_mode = ctx.mode
            new_mode = ctx.cancel_policy.control()
            switched = new_mode is not old_mode
            if switched:
                ctx.mode = new_mode
                stats.mode_switches += 1
            tracer = self.tracer
            if tracer.enabled:
                policy = ctx.cancel_policy
                tracer.emit(
                    "ctrl.cancellation", self.clock,
                    lp=self.lp_id, obj=ctx.obj.name,
                    o=getattr(policy, "hit_ratio", 0.0),
                    old=old_mode.name.lower(), new=new_mode.name.lower(),
                    verdict=getattr(policy, "last_verdict", ""),
                    switched=switched,
                )

    def _expire_comparisons(self, ctx: ObjectContext, key: EventKey | None) -> None:
        expired = (
            ctx.cmp_buffer.expire_through(key)
            if key is not None
            else ctx.cmp_buffer.expire_all()
        )
        for entry in expired:
            self.charge(self.costs.lazy_compare_cost)
            if entry.lazy:
                self._emit_anti(ctx, entry.record)
            self._resolve_comparison(ctx, hit=False, lazy_entry=entry.lazy)

    def _run_checkpoint_control(self, ctx: ObjectContext) -> None:
        """One invocation of the checkpoint-interval controller (the
        caller runs it once the window holds the policy's period of
        events)."""
        self.charge(self.costs.control_invocation_cost)
        ctx.stats.control_invocations += 1
        window = ctx.ckpt_window
        old_chi = ctx.chi
        new_interval = ctx.ckpt_policy.control(window.snapshot())
        ctx.chi = max(1, min(MAX_INTERVAL, int(new_interval)))
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "ctrl.checkpoint", self.clock,
                lp=self.lp_id, obj=ctx.obj.name,
                o=window.ec / max(1, window.events),
                old=old_chi, new=ctx.chi,
                verdict=getattr(ctx.ckpt_policy, "last_verdict", "static"),
                events=window.events, saves=window.saves,
                save_cost=window.save_cost,
                coast_events=window.coast_events, coast_cost=window.coast_cost,
                rollbacks=window.rollbacks,
            )
        window.reset()

    # ------------------------------------------------------------------ #
    # forward execution
    # ------------------------------------------------------------------ #
    def next_work(self, *, ignore_window: bool = False) -> Event | None:
        """The LP's lowest-key unprocessed event, if it lies within the
        virtual-time horizon and the optimism window
        (``ignore_window=True``: within the horizon alone)."""
        heap = self.pending.heap
        if not heap:
            return None
        event = heap[0][1]  # the top entry is always live
        end_time = self.end_time
        if not ignore_window and self.optimism_bound < end_time:
            end_time = self.optimism_bound
        return event if event.recv_time <= end_time else None

    def execute_one(self) -> bool:
        """Execute the LP's next event; False if the LP has no work.

        The pop and the processed-list append go through the queues; the
        execution charge, the periodic state save and the controller
        period count happen here, and nothing that only applies to a
        configured controller or a pending comparison is called unless it
        is due.  An event below :attr:`commit_bound` skips the history
        and commits at once; an event at an object with such a streak
        behind it that does not commit at once first saves the state the
        streak left.
        """
        heap = self.pending.heap
        if not heap:
            return False
        t = heap[0][0][0]  # next_work(), without the call
        if t > self.end_time or t > self.optimism_bound:
            return False
        event = self.pending.pop()
        ctx = self.members[event.receiver]
        key = event._key
        at_once = event.recv_time < self.commit_bound
        if at_once:
            ctx.current_cause_key = None  # its sends need no record
        else:
            if ctx.unsaved_key is not None:
                self._save_state(ctx, ctx.unsaved_key)
                ctx.unsaved_key = None
            ctx.iq.mark_processed(event)
            ctx.current_cause_key = key
        ctx.lvt = event.recv_time
        obj = ctx.obj
        try:
            obj.execute_process(event.payload)
        except TimeWarpError:
            raise
        except Exception as exc:
            raise ApplicationError(obj.name, event.recv_time, event.payload) from exc
        self.clock += ctx.exec_cost
        stats = ctx.stats
        stats.events_executed += 1
        if at_once:
            stats.events_committed += 1
            stats.events_committed_at_once += 1
            ctx.unsaved_key = key
            if self.trace_sink is not None:
                self.trace_sink(event)
        else:
            ctx.ckpt_window.events += 1
            ctx.events_since_save += 1
            if ctx.events_since_save >= ctx.chi:
                self._save_state(ctx, key)

        # Pending comparisons caused at or before this event can no longer
        # be regenerated: resolve them as misses.
        if ctx.cmp_buffer._by_content:
            self._expire_comparisons(ctx, key)

        period = ctx.ckpt_policy.period
        if period is not None and not at_once and ctx.ckpt_window.events >= period:
            self._run_checkpoint_control(ctx)
        return True

    def _save_state(self, ctx: ObjectContext, key: EventKey) -> None:
        """Snapshot ``ctx``'s state as left by the event ``key``."""
        state = ctx.obj.state
        size = state.size_bytes()
        cost = self.costs.state_save(size)
        self.clock += cost
        saved = SavedState(key, ctx.lvt, state.copy(), size)
        ctx.sq.save(saved)
        oracle = self.oracle
        if oracle.enabled:
            oracle.on_state_save(self.clock, self.lp_id, ctx.obj.name, saved)
        ctx.events_since_save = 0
        ctx.stats.state_saves += 1
        window = ctx.ckpt_window
        window.saves += 1
        window.save_cost += cost

    def refresh_commit_bound(self, lazy: bool) -> VirtualTime:
        """Set :attr:`commit_bound` to :attr:`safe_bound`, or below it to
        the least live lazy comparison entry when ``lazy`` (some member
        may park one): a miss on that entry still owes an anti-message at
        its time, perhaps to a co-located member, so no event at or past
        it may commit at once.  Returns that entry's time (+inf without
        ``lazy``).  Whoever raises the safe bound calls this before every
        event, since a rollback may park a new entry below it (a driver
        whose members cannot park one sets the commit bound directly)."""
        floor = self.lazy_floor() if lazy else INF
        bound = self.safe_bound
        self.commit_bound = floor if floor < bound else bound
        return floor

    def fossil_bound(self) -> VirtualTime:
        """The least time a rollback here can still reach, as this LP
        alone knows it: :attr:`safe_bound` (peers), its next event (local
        sends) or a live lazy entry.  History below it is final without
        a GVT round; -inf while the safe bound is."""
        bound = self.local_min()
        return bound if bound < self.safe_bound else self.safe_bound

    def drop_safe_bound(self) -> None:
        """Forget the safe bound (an elastic epoch may re-home objects, so
        the peers' promises no longer hold): every member whose latest
        events committed at once saves their state first."""
        self.safe_bound = self.commit_bound = NEG_INF
        for ctx in self._member_list:
            if ctx.unsaved_key is not None:
                self._save_state(ctx, ctx.unsaved_key)
                ctx.unsaved_key = None

    def on_idle(self) -> None:
        """Called by the executive when the LP runs out of work: flush
        aggregates and resolve dangling comparisons so the system drains."""
        due = None
        for ctx in self._member_list:
            if ctx.cmp_buffer._by_content:
                if due is None:
                    due = self._receivers_due()
                if ctx.oid not in due:
                    self._expire_comparisons(ctx, None)
                    # its anti-messages may reach a co-located member
                    # at once and change what is pending there
                    due = None
        if self.comm is not None:
            flushed = self.comm.flush_all()
            self.stats.aggregates_flushed_idle += flushed

    def _receivers_due(self) -> set[int]:
        """Members with an unprocessed event at or before the horizon.
        If the LP's earliest pending event lies past it, none; only when
        it does not (the LP is window-blocked) is the queue scanned."""
        end_time = self.end_time
        key = self.pending.head_key()
        if key is None or key[0] > end_time:
            return set()
        return {
            event.receiver
            for event in self.pending.live.values()
            if event.recv_time <= end_time
        }

    # ------------------------------------------------------------------ #
    # GVT support and fossil collection
    # ------------------------------------------------------------------ #
    def lazy_floor(self) -> VirtualTime:
        """The least receive time of a live lazy comparison entry: a miss
        on it still owes an anti-message at that time."""
        best = float("inf")
        for ctx in self._member_list:
            t = ctx.cmp_buffer.min_live_time()
            if t is not None and t < best:
                best = t
        return best

    def local_min(self) -> VirtualTime:
        """Lower bound on any virtual time this LP can still affect."""
        key = self.pending.head_key()  # the LP's lowest unprocessed event
        best = self.lazy_floor()
        if key is not None and key[0] < best:
            best = key[0]
        if self.comm is not None:
            t = self.comm.min_buffered_time()
            if t is not None and t < best:
                best = t
        return best

    def gvt_cut(
        self, start: "GvtStart", loads: tuple[tuple[int, int], ...] | None = None,
    ) -> "ShardReport":
        """Take part in ``start``'s Mattern pass: enter its round (every
        later send is red), pay for it and return this LP's cut."""
        agent = self.agent
        agent.enter_round(start.round)
        self.charge(self.costs.gvt_participation_cost)
        self.stats.gvt_rounds += 1
        return agent.report(
            self.lp_id, start, self.local_min(), self.is_active(), loads
        )

    def fossil_collect(self, gvt: VirtualTime, *, final: bool = False) -> int:
        """Commit history below ``gvt``; returns committed event count.

        The state queue is collected first so the input queue keeps every
        event newer than the oldest *retained* snapshot — those events may
        still be replayed by a coast-forward.  The ``final`` pass (at
        termination) commits everything unconditionally.
        """
        committed_total = 0
        items = 0
        self._sample_memory()
        for ctx in self._member_list:
            if final:
                committed = ctx.iq.fossil_collect(gvt, None)
            else:
                items += ctx.sq.fossil_collect(gvt)
                base = ctx.sq.entries[0] if ctx.sq.entries else None
                if base is None or base.last_key is None:
                    committed = []
                else:
                    committed = ctx.iq.fossil_collect(gvt, base.last_key)
            if committed:
                ctx.stats.events_committed += len(committed)
                committed_total += len(committed)
                items += len(committed)
                if self.trace_sink is not None:
                    for event in committed:
                        self.trace_sink(event)
            items += ctx.oq.fossil_collect(gvt)
        if items:
            self.charge(self.costs.fossil_item_cost * items)
        self.stats.fossil_collections += 1
        self.stats.fossil_items += items
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "fossil.collect", self.clock,
                lp=self.lp_id, gvt=gvt, committed=committed_total,
                items=items, final=final,
            )
        return committed_total

    def _sample_memory(self) -> None:
        """High-water marks of the history queues, sampled pre-collection
        (their natural maximum within each GVT interval)."""
        state_entries = 0
        state_bytes = 0
        history_events = len(self.pending)
        for ctx in self._member_list:
            entries = ctx.sq.entries
            state_entries += len(entries)
            state_bytes += sum([e.size for e in entries])
            history_events += len(ctx.iq.processed)
            history_events += len(ctx.oq)
        stats = self.stats
        if state_entries > stats.peak_state_entries:
            stats.peak_state_entries = state_entries
        if state_bytes > stats.peak_state_bytes:
            stats.peak_state_bytes = state_bytes
        if history_events > stats.peak_history_events:
            stats.peak_history_events = history_events

    def finalize(self) -> None:
        for ctx in self._member_list:
            ctx.obj.finalize()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def has_work(self, *, ignore_window: bool = False) -> bool:
        """Whether the LP has executable events.

        ``ignore_window=True`` asks whether *any* event below the horizon
        remains, even if the optimism window currently blocks it —
        termination detection must not confuse "throttled" with "done".
        """
        return self.next_work(ignore_window=ignore_window) is not None

    def is_active(self) -> bool:
        """Whether work remains here (Mattern's ``active``, the executive's
        quiescence): an event below the horizon (window-blocked or not),
        a buffered aggregate, or a live comparison entry."""
        return (
            self.has_work(ignore_window=True)
            or self.comm.buffered_event_count() > 0
            or any(ctx.cmp_buffer.pending() for ctx in self._member_list)
        )

    def object_stats(self) -> dict[str, ObjectStats]:
        return {ctx.obj.name: ctx.stats for ctx in self._member_list}
