"""The per-shard worker process: the poll-loop scheduler of one LP.

Each worker hosts ONE :class:`~repro.kernel.lp.LogicalProcess` — the
process boundary *is* the LP boundary, which is the paper's reading of an
LP as an address space on one workstation.  Building that LP, taking a
GVT estimate, finishing the run and folding its counters are the routines
the modelled facade uses (docs/architecture.md, "One LP host, three
drivers"); this module owns what only a real process can do:

* a poll loop racing the wall clock: execute a slice, look at the data
  wire (inbound rings, outbox), poll the inbox queue for control records,
  and when idle block on the inbox pipe and the shard's doorbell at once;
* the LP's network: its CommModule parks physical messages in a
  per-destination outbox, with no flush timer — the slice is DyMA's
  aggregation window: every look at the data wire flushes every open
  aggregate, then drains the outbox as one ``DataBatch`` per destination
  (docs/parallel.md, "Batched IPC");
* the shard's end of the coordinator star: the LP's cut on every
  ``GvtStart`` once all it sent is on the wire, fossil collection on
  every ``GvtCommit``;
* the shard's channel clock: before every event it publishes a bound on
  what it can still send and raises its LP's safe bound from its peers'
  clocks, so the events no peer can undo commit at once
  (docs/parallel.md, "Events no peer can undo");
* the shard's end of an elastic epoch: pause, drain, ship and restore
  object checkpoints, retire.
"""

from __future__ import annotations

import queue as queue_mod
import select
import time
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..comm.message import PhysicalMessage
from ..gvt.manager import note_estimate
from ..gvt.mattern import ColourAgent, GvtCommit, GvtStart
from ..kernel.cancellation import Mode
from ..kernel.config import SimulationConfig
from ..kernel.errors import TerminationError
from ..kernel.kernel import finish_lps, host_lp, suspend_collector
from ..kernel.migration import ObjectCheckpoint, detach_object, restore_object
from ..kernel.simobject import SimulationObject
from ..trace.tracer import NULL_TRACER, Tracer
from .ipc import (
    DataBatch,
    MigrateBatch,
    MigrateDone,
    PauseEpoch,
    Reconfigure,
    Resume,
    Retire,
    ShardDone,
    ShardError,
    Stop,
)
from .wire import WireEncodeError, decode_batch, encode_batch

#: events executed between polls of the inbox *queue*: one syscall per
#: poll, and on the shm wire only control traffic (GVT, Stop, elastic
#: epochs) rides it.  A single shard runs everything at this cadence.
EXECUTE_SLICE = 32

#: events a shard with peers executes between looks at its *data wire*
#: (inbound rings handled, outbox flushed): the arrival latency both
#: ways, hence how far a shard outruns stragglers already in flight.
#: Measured, not guessed: at 32 two shards traded rollback echoes at
#: commit efficiency 0.33; throughput is flat from 2 to 8, best at 8
#: (sweep in EXPERIMENTS.md, "Why two workers were slower than one").
RING_SLICE = 8

#: events executed between fossil collections below the safe bound.  A
#: collection walks every member's three queues whatever it commits, so
#: one per data slice cost twice the GVT commits it replaces (profiled on
#: par_local_2w); the processed lists hold only the events that were not
#: committed at once, so a few hundred of them are a small batch.
FOSSIL_SLICE = 256

_INF = float("inf")
_NEG_INF = float("-inf")

#: liveness backstop of an idle wait, seconds.  Every wake-up has an
#: event behind it — a record on the inbox pipe, a producer's ring of the
#: doorbell — so this only bounds what a lost one could cost.
IDLE_WAIT_S = 0.005

#: wait while blocked pushing into a full outbound ring, seconds.  The
#: first ~50 retries only yield the scheduler (``sleep(0)``): on an
#: oversubscribed host the consumer usually just needs a time slice.
BACKPRESSURE_WAIT_S = 0.0005
_BACKPRESSURE_YIELDS = 50
#: backoff sleeps tolerated before giving up on the ring for this batch
#: (~1 s at BACKPRESSURE_WAIT_S).  A consumer that long without draining
#: has almost certainly died; the batch takes the queue fallback so the
#: producer returns to its inbox and Stop stays deliverable.
_BACKPRESSURE_MAX_WAITS = 2000


@dataclass
class ShardPlan:
    """Everything one worker needs to build its shard (passed via fork)."""

    #: the whole model, indexed by oid (fork shares it for free); the
    #: shard hosts the objects ``oid_to_shard`` sends to it
    objects: list[SimulationObject]
    name_to_oid: dict[str, int]
    oid_to_shard: dict[int, int]
    config: SimulationConfig
    n_shards: int
    #: directory for a per-shard JSONL trace (None = no tracing)
    trace_dir: str | None = None
    #: the elastic epoch that forked this shard: a joiner starts paused
    #: inside it (None for the initial fleet)
    join_epoch: int | None = None


@suspend_collector
def worker_main(shard_id: int, plan: ShardPlan, inbox, to_coordinator,
                out_queues, rings=None, wakes=None) -> None:
    """Process entry point: run the shard, always report home.

    ``rings`` is the backend's full ``(src, dst) -> ShmRing`` map (shared
    segments inherited across fork), or ``None`` for the queue wire;
    ``wakes`` is its :class:`~repro.parallel.shm.WakeBoard`.  The
    process lives for one run, so the cyclic collector stays off for the
    whole of its life.
    """
    try:
        _ShardRuntime(
            shard_id, plan, inbox, to_coordinator, out_queues, rings, wakes
        ).run()
    except BaseException:
        # A crash is a finding for the parent, not a silent exit code.
        to_coordinator.put(ShardError(shard_id, traceback.format_exc()))


def inbox_poll(inbox):
    """A ``poll`` object on the read end of ``inbox``'s pipe: one
    ``poll(0)`` syscall says whether the queue holds a record.  A shard
    built only to be inspected has no inbox, or a thread queue with no
    pipe; nothing is registered then."""
    ready = select.poll()
    if hasattr(inbox, "_reader"):
        ready.register(inbox._reader, select.POLLIN)
    return ready


class _ShardRuntime:
    """One worker's live state: LP, outbox, wire ends."""

    def __init__(self, shard_id: int, plan: ShardPlan, inbox, to_coordinator,
                 out_queues, rings=None, wakes=None) -> None:
        self.shard_id = shard_id
        self.plan = plan
        self.inbox = inbox
        #: looked at before each poll of the queue: an empty
        #: ``get_nowait`` builds a selector every time
        self._inbox_ready = inbox_poll(inbox)
        self.to_coordinator = to_coordinator
        self.out_queues = out_queues
        #: the fleet's doorbells (None builds a shard that can be
        #: inspected but not run: it has nothing to go idle on)
        self._wakes = wakes
        config = plan.config

        # -- shm wire (docs/parallel.md, "Wire formats") ----------------- #
        rings = rings or {}
        #: inbound rings, keyed by producing shard
        self._rings_in = {
            src: ring for (src, dst), ring in rings.items() if dst == shard_id
        }
        #: outbound rings, keyed by consuming shard
        self._rings_out = {
            dst: ring for (src, dst), ring in rings.items() if src == shard_id
        }
        #: batches absorbed from inbound rings while blocked on a full
        #: outbound ring (decoded but not yet handled — handling mutates
        #: LP state, which must not happen mid-send)
        self._pending: deque[DataBatch] = deque()
        self._frames_sent = 0
        self._frames_received = 0
        self._ring_bytes_sent = 0
        self._wire_fallbacks = 0
        #: inbound work handled inside a slice, before an event that would
        #: otherwise have run optimistically
        self._settles = 0
        #: physical messages the LP sent since the last look at the data
        #: wire, keyed by destination shard
        self._outbox: dict[int, list[PhysicalMessage]] = {}

        if plan.trace_dir is not None:
            path = Path(plan.trace_dir) / f"shard-{shard_id}.jsonl"
            self.tracer = Tracer(path=path)
        else:
            self.tracer = NULL_TRACER
        self.lp = lp = host_lp(
            shard_id, plan.objects, plan.name_to_oid, plan.oid_to_shard,
            config, self, self.tracer,
        )
        self.agent = lp.agent = ColourAgent()
        self.oracle = lp.oracle

        # -- channel clocks (docs/parallel.md, "Events no peer can undo") #
        #: the fleet's published clocks (None: an inspection-only shard)
        self._clocks = None if wakes is None else wakes.clocks
        #: a batch that took the queue fallback bypassed the rings its
        #: peers check: the clock stays at or below its least timestamp
        self._pin = _INF
        #: (peer slot, inbound ring) per active peer, when every peer has
        #: a ring; None when the clocks are not in use (S stays fixed)
        self._peers: list[tuple[int, Any]] | None = None
        self._lookahead = 0.0
        #: whether a member may park a live lazy comparison entry
        self._lazy = False
        #: whether the bounds move before every event (a peer's clock to
        #: read, or lazy entries to keep commits below)
        self._refresh = False
        #: the bound of the last fossil collection, and the events
        #: executed since
        self._collected = _NEG_INF
        self._since_collect = 0

        self._stop: Stop | None = None
        self._committed_gvt = 0.0
        self._executed = 0

        # -- elastic-epoch state (docs/parallel.md) ---------------------- #
        #: joiners fork paused inside the epoch that created them
        self._paused_epoch: int | None = plan.join_epoch
        self._reconfig: Reconfigure | None = None
        self._expect_in = 0
        self._got_in = 0
        #: MigrateBatches that outran their Reconfigure (queue feeder
        #: threads give no cross-producer ordering), keyed by epoch
        self._early_batches: dict[int, list[MigrateBatch]] = {}
        self._retired = False
        self.migrations_in = 0
        self.migrations_out = 0
        if self._paused_epoch is None:
            self._configure_bound()  # a joiner's waits for its Resume

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self) -> None:
        lp = self.lp
        lp.initialize()  # initial sends land in the DyMA buffers
        max_events = self.plan.config.max_executed_events
        # Two cadences, one loop: every pass looks at the data wire, the
        # queue is polled once `queue_slice` events have run since its
        # last poll.  Without rings the queue IS the data wire.
        data_slice = RING_SLICE if self.plan.n_shards > 1 else EXECUTE_SLICE
        queue_slice = EXECUTE_SLICE if self._rings_in else data_slice
        since_queue = queue_slice
        while self._stop is None and not self._retired:
            poll_queue = since_queue >= queue_slice
            handled = self._drain_inbox(poll_queue)
            if poll_queue:
                since_queue = 0
            if self._stop is not None or self._retired:
                break
            if self._paused_epoch is not None:
                # Elastic epoch: no forward execution, no on_idle (it
                # expires comparison entries, which are checkpoint state).
                # Deliveries may roll objects back and queue anti-messages:
                # push them out and re-poll, else wait for the coordinator.
                since_queue = queue_slice  # paused passes read everything
                if handled:
                    self._flush()
                else:
                    self._wait_one()
                continue
            executed = 0
            refresh = self._refresh
            heap = lp.pending.heap
            while executed < data_slice and self._stop is None:
                if refresh and self._raise_bound() and (
                    heap and heap[0][0][0] >= lp.commit_bound
                ):
                    # the next event would run optimistically, and a frame
                    # that may let it commit at once is already here
                    self._settles += 1
                    self._drain_inbox(poll_queue=False)
                    self._raise_bound()
                if not lp.execute_one():
                    break
                executed += 1
            self._executed += executed
            since_queue += executed
            if max_events is not None and self._executed > max_events:
                raise TerminationError(
                    f"shard {self.shard_id} exceeded max_executed_events="
                    f"{max_events} (livelock safety valve)"
                )
            self._flush()  # the slice is the aggregation window
            self._since_collect += executed
            if self._since_collect >= FOSSIL_SLICE and lp.safe_bound > _NEG_INF:
                # commit history below the bound without a GVT round
                self._since_collect = 0
                bound = lp.fossil_bound()
                if bound > self._collected:
                    self._collected = bound
                    lp.fossil_collect(bound)
            if self._stop is None and not executed and not handled:
                lp.on_idle()  # expire comparisons, drain aggregates
                self._flush()
                if self._peers is not None:
                    self._raise_bound()  # the clock peers read while we sleep
                self._wait_one()
        if self._stop is not None:
            self._finish(self._stop)

    # ------------------------------------------------------------------ #
    # inbox
    # ------------------------------------------------------------------ #
    def _drain_inbox(self, poll_queue: bool) -> int:
        handled = 0
        while True:
            message = self._next_nowait(poll_queue)
            if message is None:
                return handled
            handled += 1
            self._handle(message)
            if self._stop is not None:
                return handled

    def _next_nowait(self, poll_queue: bool = True):
        """Next deliverable message: absorbed backlog, rings, then queue."""
        if self._pending:
            return self._pending.popleft()
        for ring in self._rings_in.values():
            frame = ring.try_pop()
            if frame is not None:
                self._frames_received += 1
                return decode_batch(frame)
        if not poll_queue or not self._inbox_ready.poll(0):
            return None
        try:
            return self.inbox.get_nowait()
        except queue_mod.Empty:
            return None

    def _absorb_rings(self) -> int:
        """Drain every inbound ring into the pending backlog.

        Called while blocked pushing into a *full* outbound ring: taking
        our inbound frames off the wire guarantees some consumer is
        always making space, so two mutually-full workers cannot
        deadlock.  Frames are only decoded here, never handled — the LP
        is mid-send and must not be mutated.
        """
        absorbed = 0
        for ring in self._rings_in.values():
            while True:
                frame = ring.try_pop()
                if frame is None:
                    break
                self._frames_received += 1
                self._pending.append(decode_batch(frame))
                absorbed += 1
        return absorbed

    def _wait_one(self) -> None:
        # Sleep-wakeup protocol: raise the waiting flags, re-poll (a frame
        # may have landed before the flag was visible), then block on the
        # inbox pipe and this shard's doorbell together — a producer that
        # observes the flag after its push rings the doorbell.
        rings = self._rings_in.values()
        for ring in rings:
            ring.set_waiting()
        message = self._next_nowait()
        if message is None:
            # Out of work, so dry — unless paused in an elastic epoch
            # (its migration traffic is not in the totals).
            dry = None
            if self._paused_epoch is None:
                dry = self.agent.total_sent, self.agent.total_received
            self._wakes.wait(
                self.shard_id, (self.inbox._reader,), IDLE_WAIT_S, dry=dry
            )
            message = self._next_nowait()
        for ring in rings:
            ring.clear_waiting()
        if message is not None:
            self._handle(message)

    def _handle(self, message) -> None:
        if isinstance(message, DataBatch):
            lp = self.lp
            checked = lp.safe_bound > _NEG_INF
            for physical in message.messages:
                if checked:
                    lp.check_arrivals(physical.events)
                lp.receive_physical(physical)
        elif isinstance(message, GvtStart):
            self._cut(message)
        elif isinstance(message, GvtCommit):
            self._on_commit(message)
        elif isinstance(message, Stop):
            self._stop = message
        elif isinstance(message, PauseEpoch):
            self._paused_epoch = message.epoch
            # objects may move: no promise holds until Resume
            self._peers = None
            self._refresh = False
            self.lp.drop_safe_bound()
            if self._clocks is not None:
                self._clocks[self.shard_id] = _NEG_INF
        elif isinstance(message, Reconfigure):
            self._apply_reconfigure(message)
        elif isinstance(message, MigrateBatch):
            if (
                self._reconfig is not None
                and message.epoch == self._reconfig.epoch
            ):
                self._restore_batch(message)
                self._maybe_migrate_done()
            else:
                # outran its Reconfigure; stash until the move list arrives
                self._early_batches.setdefault(
                    message.epoch, []
                ).append(message)
        elif isinstance(message, Resume):
            self._paused_epoch = None
            self._configure_bound()
        elif isinstance(message, Retire):
            self.tracer.close()
            self.to_coordinator.put(ShardDone(self.shard_id, self._final_payload()))
            self._retired = True
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown IPC message: {message!r}")

    # ------------------------------------------------------------------ #
    # channel clocks: the events no peer can undo
    # ------------------------------------------------------------------ #
    def _configure_bound(self) -> None:
        """Fix how the LP's safe bound moves for the current placement: to
        +inf with no peer, from the peers' clocks when every peer has a
        ring to read emptiness on, never (-inf) otherwise.  The commit
        bound follows it, held below live lazy entries before every event
        when a member may park one.

        Clocks start from the committed GVT (0.0 before the first
        commit): nothing can arrive below it, and a bound at -inf would
        publish -inf, which would hold every peer's bound there too."""
        lp = self.lp
        peers = sorted(set(self.plan.oid_to_shard.values()) - {self.shard_id})
        members = lp.members.values()
        self._lookahead = min((ctx.obj.lookahead for ctx in members), default=_INF)
        # lazy comparison entries can outlive the events that parked them,
        # and the mode that parked them (a policy may lock aggressive in,
        # a migrated object brings its entries along)
        self._lazy = lp.lazy_floor() < _INF or any(
            ctx.mode is Mode.LAZY or ctx.cancel_policy.period is not None
            for ctx in members
        )
        self._peers = None
        if not peers:
            lp.safe_bound = _INF
        elif self._clocks is not None and all(p in self._rings_in for p in peers):
            self._peers = [(peer, self._rings_in[peer]) for peer in peers]
            lp.safe_bound = self._committed_gvt
        else:
            lp.safe_bound = _NEG_INF
        lp.refresh_commit_bound(self._lazy)
        self._refresh = self._peers is not None or (
            self._lazy and lp.safe_bound > _NEG_INF
        )

    def _raise_bound(self) -> bool:
        """Raise the safe bound S from the peers' clocks, keep the commit
        bound below live lazy entries, then publish this shard's own
        clock: ``min(min(next event, S) + L, unpushed, lazy, pin)``.
        Returns whether inbound data waits (a peer's ring holds a frame,
        or a backlog was absorbed): it held S where it was.

        Each peer's clock is read *before* its ring is found empty: under
        x86-TSO a clock store is seen no earlier than every push that
        preceded it, so an empty ring then means everything the peer sent
        before promising has been delivered here, and all it sends later
        is at or above its promise.  A backlog absorbed during a blocked
        push holds undelivered frames, so it forbids raising too.
        """
        lp = self.lp
        clocks = self._clocks
        peers = self._peers
        waiting = bool(self._pending)
        if peers is not None and not waiting:
            bound = _INF
            for peer, ring in peers:
                promise = clocks[peer]
                if ring.used:
                    waiting = True
                    break
                if promise < bound:
                    bound = promise
            else:
                if bound > lp.safe_bound:
                    lp.safe_bound = bound
        if self._lazy:
            lazy = lp.refresh_commit_bound(True)
        else:
            lp.commit_bound = lp.safe_bound
            lazy = _INF
        if peers is None:
            return waiting  # no one reads this shard's clock
        heap = lp.pending.heap
        floor = lp.safe_bound
        if heap and heap[0][0][0] < floor:
            floor = heap[0][0][0]
        promise = floor + self._lookahead
        if lazy < promise:
            promise = lazy
        # created for a peer but not yet pushed
        unpushed = lp.comm.least_enqueued
        if unpushed < promise:
            promise = unpushed
        if self._pin < promise:
            promise = self._pin
        clocks[self.shard_id] = promise
        return waiting

    # ------------------------------------------------------------------ #
    # elastic epochs: pause -> drain -> move -> resume
    # ------------------------------------------------------------------ #
    def _apply_reconfigure(self, msg: Reconfigure) -> None:
        # The routing delta mutates plan.oid_to_shard IN PLACE: that one
        # dict object is simultaneously the CommModule routing table and
        # the LP's lp_of resolver, so every send sees the new owner at
        # the same instant.
        routing = self.plan.oid_to_shard
        outgoing: dict[int, list[int]] = {}
        incoming = 0
        for oid, src, dst in msg.moves:
            routing[oid] = dst
            if src == self.shard_id:
                outgoing.setdefault(dst, []).append(oid)
            if dst == self.shard_id:
                incoming += 1
        for dst in sorted(outgoing):
            oids = outgoing[dst]
            blobs = tuple(
                detach_object(self.lp, oid).to_bytes() for oid in oids
            )
            self.migrations_out += len(oids)
            # direct queue put, NOT the coloured data wire: the wire
            # is provably empty, and migration must not skew Mattern counts
            self.out_queues[dst].put(
                MigrateBatch(self.shard_id, msg.epoch, blobs)
            )
        self._reconfig = msg
        self._expect_in = incoming
        self._got_in = 0
        for batch in self._early_batches.pop(msg.epoch, []):
            self._restore_batch(batch)
        self._maybe_migrate_done()

    def _restore_batch(self, batch: MigrateBatch) -> None:
        for blob in batch.checkpoints:
            restore_object(
                self.lp, ObjectCheckpoint.from_bytes(blob),
                src_lp=batch.src_shard, clock=self.lp.clock,
            )
            self._got_in += 1
            self.migrations_in += 1

    def _maybe_migrate_done(self) -> None:
        if self._reconfig is None or self._got_in < self._expect_in:
            return
        epoch = self._reconfig.epoch
        self._reconfig = None
        self._expect_in = 0
        self._got_in = 0
        self.to_coordinator.put(MigrateDone(self.shard_id, epoch))

    # ------------------------------------------------------------------ #
    # GVT participation
    # ------------------------------------------------------------------ #
    def _cut(self, start: GvtStart) -> None:
        # Everything sent so far leaves first, open aggregates included,
        # so each white message is in flight at the cut and a paused shard
        # sends after it only in answer to a later receipt (the elastic
        # epoch's drain rests on this).
        self._flush()
        lp = self.lp
        loads = None
        if self.plan.config.placement == "dynamic":
            # committed (not executed) counts: rollback re-execution
            # inflates the far-ahead shards' executed totals and inverts
            # the balance signal (see PlacementController)
            loads = tuple(sorted(
                (oid, ctx.stats.events_committed)
                for oid, ctx in lp.members.items()
            ))
        self.to_coordinator.put(lp.gvt_cut(start, loads))

    def _on_commit(self, commit: GvtCommit) -> None:
        lp = self.lp
        note_estimate(
            self.oracle, self.tracer, lp.clock,
            "mattern", commit.gvt, self._committed_gvt, self._executed,
        )
        self._committed_gvt = max(self._committed_gvt, commit.gvt)
        if self._peers is not None and commit.gvt > lp.safe_bound:
            lp.safe_bound = commit.gvt  # nothing arrives below GVT either
        lp.fossil_collect(max(commit.gvt, lp.fossil_bound()))

    # ------------------------------------------------------------------ #
    # outbox
    # ------------------------------------------------------------------ #
    def send(self, message: PhysicalMessage, completion_clock: float) -> float:
        """The CommModule's network: park ``message`` in the outbox."""
        bucket = self._outbox.get(message.dst_lp)
        if bucket is None:
            bucket = self._outbox[message.dst_lp] = []
        bucket.append(message)
        return completion_clock

    def _flush(self) -> None:
        """Send every open aggregate, then drain the outbox."""
        comm = self.lp.comm
        comm.flush_all()
        self._flush_outbox()
        comm.least_enqueued = _INF  # all created so far is on the wire

    def _flush_outbox(self) -> None:
        for dst, messages in self._outbox.items():
            self._send_batch(dst, tuple(messages))
        self._outbox.clear()

    def _send_batch(self, dst: int, messages) -> None:
        """Ship one batch: packed frame through the ring when possible,
        pickled DataBatch over the queue otherwise (oversized frames,
        unencodable payloads, or no ring for this destination)."""
        ring = self._rings_out.get(dst)
        if ring is not None:
            try:
                frame = encode_batch(self.shard_id, messages)
            except WireEncodeError:
                frame = None
            if frame is not None and len(frame) <= ring.max_record:
                spins = 0
                pushed = True
                while not ring.try_push(frame):
                    # Full ring: keep OUR inbound side drained while we
                    # wait (deadlock freedom), then yield/back off.  The
                    # wait is bounded — if the consumer never drains
                    # (crashed or exited), this batch takes the queue
                    # fallback below rather than spinning forever with
                    # the inbox (and any Stop in it) unread.
                    spins += 1
                    if spins > _BACKPRESSURE_YIELDS + _BACKPRESSURE_MAX_WAITS:
                        pushed = False
                        break
                    if not self._absorb_rings():
                        time.sleep(
                            0.0 if spins <= _BACKPRESSURE_YIELDS
                            else BACKPRESSURE_WAIT_S
                        )
                if pushed:
                    self._frames_sent += 1
                    self._ring_bytes_sent += len(frame)
                    if ring.take_waiting():
                        self._wakes.ring(dst)
                    return
            self._wire_fallbacks += 1
        # no peer finds this batch in a ring: pin the clock below it
        least = min(message.min_event_time() for message in messages)
        if least < self._pin:
            self._pin = least
        self.out_queues[dst].put(DataBatch(self.shard_id, messages))

    # ------------------------------------------------------------------ #
    # termination
    # ------------------------------------------------------------------ #
    def _finish(self, stop: Stop) -> None:
        lp = self.lp
        lp.on_idle()
        self._flush_outbox()  # quiescence was proven; this must be a no-op
        # A single shard's sent/received never balance on their own: the
        # wire checks run against the coordinator's global totals.
        in_flight = stop.total_sent - stop.total_received
        finish_lps(
            [lp], lp.clock,
            {"sent": stop.total_sent, "delivered": stop.total_received,
             "lost": 0, "in_flight": in_flight},
            max(0, in_flight),
        )
        self.tracer.close()
        self.to_coordinator.put(ShardDone(self.shard_id, self._final_payload()))

    def _final_payload(self) -> dict[str, Any]:
        lp = self.lp
        oracle = self.oracle
        return {
            "lp_stats": lp.stats,
            "object_stats": lp.object_stats(),
            "final_states": {
                ctx.obj.name: ctx.obj.state for ctx in lp.members.values()
            },
            "clock": lp.clock,
            "violations": list(oracle.violations),
            "oracle_checks": getattr(oracle, "checks", 0),
            "oracle_kinds": dict(getattr(oracle, "checks_by_kind", {})),
            "migrations": {
                "in": self.migrations_in,
                "out": self.migrations_out,
            },
            "transport": {
                "messages_sent": self.agent.total_sent,
                "messages_received": self.agent.total_received,
                "frames_sent": self._frames_sent,
                "frames_received": self._frames_received,
                "ring_bytes_sent": self._ring_bytes_sent,
                "wire_fallbacks": self._wire_fallbacks,
                "settles": self._settles,
            },
        }
